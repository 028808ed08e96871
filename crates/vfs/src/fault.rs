//! Deterministic syscall-level fault injection.
//!
//! [`FaultVfs`] wraps [`StdVfs`](crate::StdVfs) and numbers every
//! mutating syscall it forwards (creates, appends, writes, fsyncs,
//! renames, unlinks, truncations, directory fsyncs). A test either
//! pins a specific fault to a specific operation index
//! ([`FaultVfs::fail_op`]) or declares a *crash point*
//! ([`FaultVfs::crash_at`]): from the K-th operation on, every
//! mutating syscall fails — data written before K is on disk, nothing
//! after it is, exactly the prefix a real crash leaves behind.
//!
//! The full operation trace is recorded, so a sweep can first run a
//! scenario fault-free to learn its trace length N, then re-run it
//! with `crash_at(K)` for every `K < N` and assert the recovery
//! invariant at each prefix. All randomized modes draw from the
//! SplitMix64 [`FaultRng`], so every schedule is reproducible from its
//! seed.
//!
//! The same module damages files after the fact: [`inject`] applies one
//! [`Fault`] — a truncation, a bit flip, a lost byte range or a torn
//! final line — to bytes already on disk, and [`chaos`] applies a
//! seeded series of them, so recovery paths (collection salvage, WAL
//! replay) can be exercised against reproducible corruption.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

use crate::{StdVfs, Vfs, VfsFile};

/// A small deterministic RNG (SplitMix64): no external dependencies,
/// identical sequences on every platform for a given seed.
#[derive(Debug, Clone)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        FaultRng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Multiply-shift reduction; bias is negligible for test usage.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 >= 1.0 - p
    }
}

/// One file-level fault: damage applied to bytes already on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Truncate the file to exactly `len` bytes (a crash mid-write).
    TruncateAt(u64),
    /// Flip one bit (bit rot / torn sector).
    FlipBit {
        /// Byte offset of the flip.
        offset: u64,
        /// Bit index within the byte (0–7).
        bit: u8,
    },
    /// Remove a byte range (a lost write).
    DeleteRange {
        /// First byte removed.
        offset: u64,
        /// Number of bytes removed.
        len: u64,
    },
    /// Append bytes without a trailing newline (a partial final line).
    AppendPartial(Vec<u8>),
}

/// Apply a fault to the file at `path`.
///
/// Offsets are clamped to the file's current length, so a plan drawn
/// for a larger file still applies cleanly.
pub fn inject(path: &Path, fault: &Fault) -> io::Result<()> {
    let mut bytes = std::fs::read(path)?;
    match fault {
        Fault::TruncateAt(len) => {
            let len = (*len as usize).min(bytes.len());
            bytes.truncate(len);
        }
        Fault::FlipBit { offset, bit } => {
            if !bytes.is_empty() {
                let i = (*offset as usize).min(bytes.len() - 1);
                bytes[i] ^= 1 << (bit & 7);
            }
        }
        Fault::DeleteRange { offset, len } => {
            let start = (*offset as usize).min(bytes.len());
            let end = start.saturating_add(*len as usize).min(bytes.len());
            bytes.drain(start..end);
        }
        Fault::AppendPartial(extra) => {
            bytes.extend_from_slice(extra);
        }
    }
    std::fs::write(path, bytes)
}

/// Draw a random fault appropriate for a file of `file_len` bytes.
fn random_fault(rng: &mut FaultRng, file_len: u64) -> Fault {
    let len = file_len.max(1);
    match rng.below(4) {
        0 => Fault::TruncateAt(rng.below(len)),
        1 => Fault::FlipBit {
            offset: rng.below(len),
            bit: (rng.below(8)) as u8,
        },
        2 => Fault::DeleteRange {
            offset: rng.below(len),
            len: 1 + rng.below(16),
        },
        _ => {
            let n = 1 + rng.below(24) as usize;
            let garbage: Vec<u8> = (0..n).map(|_| (rng.below(256)) as u8).collect();
            Fault::AppendPartial(garbage)
        }
    }
}

/// Apply `n` random faults to the file, drawn from `seed`. Returns the
/// faults applied, in order, for the test's failure message.
pub fn chaos(path: &Path, seed: u64, n: usize) -> io::Result<Vec<Fault>> {
    let mut rng = FaultRng::new(seed);
    let mut applied = Vec::with_capacity(n);
    for _ in 0..n {
        let len = std::fs::metadata(path)?.len();
        let fault = random_fault(&mut rng, len);
        inject(path, &fault)?;
        applied.push(fault);
    }
    Ok(applied)
}

/// One fault pinned to one syscall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// The syscall fails with `EIO` without taking effect.
    Eio,
    /// The syscall fails with `ENOSPC` without taking effect.
    Enospc,
    /// A `write` lands only the first half of its buffer, then fails
    /// with `ENOSPC` — the torn write a full disk produces. On
    /// non-write syscalls this degrades to [`InjectedFault::Enospc`].
    ShortWrite,
    /// An `fsync` (file or directory) fails with `EIO`: the kernel
    /// accepted the writes but could not make them durable. On
    /// non-sync syscalls this degrades to [`InjectedFault::Eio`].
    SyncFail,
    /// A `rename` fails with `EIO`, leaving both names untouched. On
    /// non-rename syscalls this degrades to [`InjectedFault::Eio`].
    RenameFail,
}

/// ENOSPC as an `io::Error` (errno 28 on every Unix this runs on).
fn enospc() -> io::Error {
    io::Error::from_raw_os_error(28)
}

/// EIO as an `io::Error` (errno 5).
fn eio() -> io::Error {
    io::Error::from_raw_os_error(5)
}

fn crash_error(index: u64) -> io::Error {
    io::Error::other(format!("simulated crash: syscall {index} and everything after it refused"))
}

/// One recorded mutating syscall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// Zero-based operation index (sweep over `0..trace.len()`).
    pub index: u64,
    /// Syscall name (`create`, `append`, `write`, `sync_file`,
    /// `sync_dir`, `rename`, `remove`, `set_len`, `mkdir`).
    pub op: &'static str,
    /// Path the syscall targeted.
    pub path: PathBuf,
}

#[derive(Debug, Default)]
struct FaultState {
    next_index: u64,
    crash_at: Option<u64>,
    crashed: bool,
    pinned: BTreeMap<u64, InjectedFault>,
    random: Option<(FaultRng, f64)>,
    trace: Vec<OpRecord>,
    faults_fired: u64,
}

impl FaultState {
    /// Number a syscall, record it, and decide its fate.
    fn enter(&mut self, op: &'static str, path: &Path) -> Result<Option<InjectedFault>, io::Error> {
        let index = self.next_index;
        self.next_index += 1;
        self.trace.push(OpRecord {
            index,
            op,
            path: path.to_path_buf(),
        });
        if self.crashed || self.crash_at.is_some_and(|k| index >= k) {
            self.crashed = true;
            self.faults_fired += 1;
            return Err(crash_error(index));
        }
        if let Some(fault) = self.pinned.remove(&index) {
            self.faults_fired += 1;
            return Ok(Some(fault));
        }
        if let Some((rng, p)) = &mut self.random {
            if rng.chance(*p) {
                let fault = match rng.below(5) {
                    0 => InjectedFault::Eio,
                    1 => InjectedFault::Enospc,
                    2 => InjectedFault::ShortWrite,
                    3 => InjectedFault::SyncFail,
                    _ => InjectedFault::RenameFail,
                };
                self.faults_fired += 1;
                return Ok(Some(fault));
            }
        }
        Ok(None)
    }
}

/// A [`Vfs`] that forwards to [`StdVfs`] while injecting faults by
/// syscall index. Cloning shares the fault schedule and the trace, so
/// a handle kept by the test observes everything the system under test
/// did.
#[derive(Debug, Clone, Default)]
pub struct FaultVfs {
    inner: StdVfs,
    state: Arc<Mutex<FaultState>>,
}

impl FaultVfs {
    /// A fault-free recorder: every syscall succeeds and is traced.
    /// Run the scenario once through this to learn its trace, then
    /// sweep [`FaultVfs::crash_at`] over `0..ops()`.
    pub fn recorder() -> Self {
        FaultVfs::default()
    }

    /// Crash at operation `k`: syscalls `0..k` succeed, syscall `k`
    /// and every one after it fail. `crash_at(0)` refuses everything.
    pub fn crash_at(k: u64) -> Self {
        let vfs = FaultVfs::default();
        vfs.lock().crash_at = Some(k);
        vfs
    }

    /// Inject `fault` at operation `index` (once); everything else
    /// succeeds. May be called repeatedly to pin several faults.
    pub fn fail_op(self, index: u64, fault: InjectedFault) -> Self {
        self.lock().pinned.insert(index, fault);
        self
    }

    /// Random chaos mode: every syscall independently fails with
    /// probability `p`, drawn from the seeded [`FaultRng`] —
    /// reproducible from `(seed, p)`.
    pub fn with_seed(seed: u64, p: f64) -> Self {
        let vfs = FaultVfs::default();
        vfs.lock().random = Some((FaultRng::new(seed), p));
        vfs
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Mutating syscalls issued so far (attempted ones included).
    pub fn ops(&self) -> u64 {
        self.lock().next_index
    }

    /// Faults (crash refusals included) fired so far.
    pub fn faults_fired(&self) -> u64 {
        self.lock().faults_fired
    }

    /// Whether a crash point has been reached.
    pub fn crashed(&self) -> bool {
        self.lock().crashed
    }

    /// Snapshot of the recorded operation trace.
    pub fn trace(&self) -> Vec<OpRecord> {
        self.lock().trace.clone()
    }

    /// Clear the crash state and schedule so the same handle can keep
    /// operating (models a post-crash remount in in-process tests).
    pub fn heal(&self) {
        let mut state = self.lock();
        state.crash_at = None;
        state.crashed = false;
        state.pinned.clear();
        state.random = None;
    }
}

/// A writable handle that re-enters the shared fault schedule on every
/// `write`/`sync_file`/`set_len`.
#[derive(Debug)]
struct FaultFile {
    inner: Box<dyn VfsFile>,
    path: PathBuf,
    state: Arc<Mutex<FaultState>>,
}

impl FaultFile {
    fn enter(&self, op: &'static str) -> Result<Option<InjectedFault>, io::Error> {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .enter(op, &self.path)
    }
}

impl Write for FaultFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.enter("write")? {
            None => self.inner.write(buf),
            Some(InjectedFault::ShortWrite) => {
                // Half the buffer reaches the disk, then the device is
                // full: the torn line every framed format must detect.
                let landed = buf.len() / 2;
                self.inner.write_all(&buf[..landed])?;
                Err(enospc())
            }
            Some(InjectedFault::Enospc) => Err(enospc()),
            Some(_) => Err(eio()),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        // Userspace buffer drain, not a syscall: never faulted (the
        // `write`s it issues are).
        self.inner.flush()
    }
}

impl VfsFile for FaultFile {
    fn sync_file(&mut self) -> io::Result<()> {
        match self.enter("sync_file")? {
            None => self.inner.sync_file(),
            Some(InjectedFault::Enospc) => Err(enospc()),
            Some(_) => Err(eio()),
        }
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        match self.enter("set_len")? {
            None => self.inner.set_len(len),
            Some(InjectedFault::Enospc) => Err(enospc()),
            Some(_) => Err(eio()),
        }
    }

    fn file_len(&self) -> io::Result<u64> {
        // A read-side probe; never faulted.
        self.inner.file_len()
    }
}

impl FaultVfs {
    fn wrap(&self, inner: Box<dyn VfsFile>, path: &Path) -> Box<dyn VfsFile> {
        Box::new(FaultFile {
            inner,
            path: path.to_path_buf(),
            state: Arc::clone(&self.state),
        })
    }

    fn simple(&self, op: &'static str, path: &Path) -> io::Result<()> {
        match self.lock().enter(op, path)? {
            None => Ok(()),
            Some(InjectedFault::Enospc | InjectedFault::ShortWrite) => Err(enospc()),
            Some(_) => Err(eio()),
        }
    }
}

impl Vfs for FaultVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.simple("create", path)?;
        Ok(self.wrap(self.inner.create(path)?, path))
    }

    fn append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.simple("append", path)?;
        Ok(self.wrap(self.inner.append(path)?, path))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.lock().enter("rename", from)? {
            None => self.inner.rename(from, to),
            Some(InjectedFault::Enospc) => Err(enospc()),
            Some(_) => Err(eio()), // RenameFail and degradations alike
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.simple("remove", path)?;
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.simple("mkdir", path)?;
        self.inner.create_dir_all(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        match self.lock().enter("sync_dir", dir)? {
            None => self.inner.sync_dir(dir),
            Some(InjectedFault::Enospc) => Err(enospc()),
            Some(_) => Err(eio()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("nc_faultvfs_{}_{}", std::process::id(), name));
        p
    }

    #[test]
    fn rng_is_deterministic() {
        let a: Vec<u64> = {
            let mut r = FaultRng::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = FaultRng::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut r = FaultRng::new(7);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
        }
    }

    #[test]
    fn recorder_traces_every_syscall() {
        let p = tmp("trace");
        let vfs = FaultVfs::recorder();
        let mut f = vfs.create(&p).unwrap();
        f.write_all(b"abc").unwrap();
        f.sync_file().unwrap();
        drop(f);
        vfs.remove_file(&p).unwrap();
        let ops: Vec<&str> = vfs.trace().iter().map(|r| r.op).collect();
        assert_eq!(ops, ["create", "write", "sync_file", "remove"]);
        assert_eq!(vfs.ops(), 4);
        assert_eq!(vfs.faults_fired(), 0);
    }

    #[test]
    fn crash_at_k_keeps_the_prefix_and_refuses_the_rest() {
        let p = tmp("crash");
        let _ = std::fs::remove_file(&p);
        // Ops: 0=create 1=write 2=write 3=sync_file.
        let vfs = FaultVfs::crash_at(2);
        let mut f = vfs.create(&p).unwrap();
        f.write_all(b"first\n").unwrap();
        let err = f.write_all(b"second\n").unwrap_err();
        assert!(err.to_string().contains("simulated crash"), "{err}");
        assert!(f.sync_file().is_err(), "crashed state persists");
        assert!(vfs.crashed());
        drop(f);
        assert_eq!(std::fs::read(&p).unwrap(), b"first\n", "prefix landed");
        // Healing restores service for the same handle.
        vfs.heal();
        vfs.remove_file(&p).unwrap();
    }

    #[test]
    fn short_write_tears_mid_buffer() {
        let p = tmp("short");
        let vfs = FaultVfs::recorder().fail_op(1, InjectedFault::ShortWrite);
        let mut f = vfs.create(&p).unwrap();
        let err = f.write_all(b"0123456789").unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28), "ENOSPC: {err}");
        drop(f);
        assert_eq!(std::fs::read(&p).unwrap(), b"01234", "half landed");
        assert_eq!(vfs.faults_fired(), 1);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn pinned_faults_hit_their_exact_syscall() {
        let p = tmp("pinned");
        let q = tmp("pinned_to");
        let vfs = FaultVfs::recorder()
            .fail_op(2, InjectedFault::SyncFail)
            .fail_op(3, InjectedFault::RenameFail);
        let mut f = vfs.create(&p).unwrap();
        f.write_all(b"x").unwrap();
        assert_eq!(f.sync_file().unwrap_err().raw_os_error(), Some(5));
        drop(f);
        assert_eq!(vfs.rename(&p, &q).unwrap_err().raw_os_error(), Some(5));
        assert!(p.exists() && !q.exists(), "failed rename touched nothing");
        // The schedule is spent; the same ops now succeed.
        let mut f = vfs.append(&p).unwrap();
        f.sync_file().unwrap();
        drop(f);
        vfs.rename(&p, &q).unwrap();
        vfs.remove_file(&q).unwrap();
    }

    #[test]
    fn random_mode_is_reproducible() {
        let runs: Vec<(u64, u64)> = (0..2)
            .map(|i| {
                let p = tmp(&format!("rand{i}"));
                let vfs = FaultVfs::with_seed(99, 0.3);
                for _ in 0..50 {
                    if let Ok(mut f) = vfs.create(&p) {
                        let _ = f.write_all(b"payload");
                        let _ = f.sync_file();
                    }
                }
                let _ = std::fs::remove_file(&p);
                (vfs.ops(), vfs.faults_fired())
            })
            .collect();
        assert_eq!(runs[0], runs[1], "same seed, same schedule");
        assert!(runs[0].1 > 0, "p=0.3 over ~150 ops must fire");
    }

    #[test]
    fn error_kinds_map_to_their_errnos() {
        let p = tmp("kinds");
        let vfs = FaultVfs::recorder()
            .fail_op(0, InjectedFault::Enospc)
            .fail_op(1, InjectedFault::Eio)
            .fail_op(3, InjectedFault::Enospc);
        assert_eq!(vfs.create(&p).unwrap_err().raw_os_error(), Some(28));
        assert_eq!(vfs.create(&p).unwrap_err().raw_os_error(), Some(5));
        let mut f = vfs.create(&p).unwrap(); // op 2 succeeds
        assert_eq!(f.write(b"x").unwrap_err().raw_os_error(), Some(28)); // op 3
        f.write_all(b"ok").unwrap(); // schedule spent
        drop(f);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn truncate_and_flip() {
        let path = tmp("basic");
        std::fs::write(&path, b"hello world").unwrap();
        inject(&path, &Fault::TruncateAt(5)).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"hello");
        inject(&path, &Fault::FlipBit { offset: 0, bit: 0 }).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"iello");
        inject(&path, &Fault::DeleteRange { offset: 1, len: 2 }).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"ilo");
        inject(&path, &Fault::AppendPartial(b"xx".to_vec())).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"iloxx");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn faults_clamp_to_file_bounds() {
        let path = tmp("clamp");
        std::fs::write(&path, b"abc").unwrap();
        inject(&path, &Fault::TruncateAt(1000)).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"abc");
        inject(&path, &Fault::FlipBit { offset: 1000, bit: 3 }).unwrap();
        inject(&path, &Fault::DeleteRange { offset: 1000, len: 5 }).unwrap();
        assert_eq!(std::fs::read(&path).unwrap().len(), 3);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn chaos_is_reproducible() {
        let p1 = tmp("chaos1");
        let p2 = tmp("chaos2");
        let content = vec![b'x'; 4096];
        std::fs::write(&p1, &content).unwrap();
        std::fs::write(&p2, &content).unwrap();
        let f1 = chaos(&p1, 99, 5).unwrap();
        let f2 = chaos(&p2, 99, 5).unwrap();
        assert_eq!(f1, f2);
        assert_eq!(std::fs::read(&p1).unwrap(), std::fs::read(&p2).unwrap());
        std::fs::remove_file(p1).unwrap();
        std::fs::remove_file(p2).unwrap();
    }
}
