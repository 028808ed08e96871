//! Injectable filesystem abstraction for durability-critical writes.
//!
//! Every write path whose crash-safety the workspace asserts — the
//! one atomic replace (`nc_docstore::persist::replace`: saved
//! collections, the shard manifest, stream cursors), the shard WAL
//! appenders and segment rotation, and the shard engine's recovery
//! (log truncation, segment unlinks, the wipe of a discarded state) —
//! performs its mutating syscalls through the [`Vfs`] trait instead of
//! `std::fs` directly. [`StdVfs`] is the zero-cost production
//! implementation; [`fault::FaultVfs`] is the adversarial one, able to
//! fail any individual syscall (`EIO`, `ENOSPC`, short writes, fsync
//! and rename failures) or to *crash* at operation K — refusing every
//! mutating syscall from the K-th on, exactly like a process that died
//! there.
//!
//! Only mutating operations go through the trait. Reads stay on
//! `std::fs`: recovery code reads whatever bytes actually landed, and
//! the faults under test are write-side faults. The trait is
//! deliberately small — it models the syscalls the commit protocols
//! rely on (`write`, `fsync`, `fdatasync`-equivalent `sync_file`,
//! directory fsync, `rename`, `unlink`, `ftruncate`) and nothing more,
//! so a fault sweep over an operation trace enumerates every crash
//! point a real kernel could expose.
//!
//! The workspace's one fault harness is [`fault`]: besides
//! [`fault::FaultVfs`] it holds the after-the-fact file damage
//! ([`fault::inject`], [`fault::chaos`]) that recovery tests apply to
//! bytes already on disk, drawn from the same [`FaultRng`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

pub use fault::{FaultRng, FaultVfs, InjectedFault};

/// An open, writable file handle obtained from a [`Vfs`].
///
/// The handle owns exactly the operations the durability protocols
/// issue on an open descriptor: buffered-writer-driven `write`s, fsync
/// ([`VfsFile::sync_file`]), truncation ([`VfsFile::set_len`]) and a
/// length probe for append-position bookkeeping.
pub trait VfsFile: Write + Send + fmt::Debug {
    /// Flush file contents (and metadata) to stable storage — `fsync`.
    fn sync_file(&mut self) -> io::Result<()>;

    /// Truncate (or extend) the file to `len` bytes — `ftruncate`.
    fn set_len(&mut self, len: u64) -> io::Result<()>;

    /// Current on-disk length of the file, in bytes.
    fn file_len(&self) -> io::Result<u64>;
}

/// The mutating filesystem surface of every durability-critical write
/// path in the workspace.
pub trait Vfs: Send + Sync + fmt::Debug {
    /// Create (truncating) a file for writing — `open(O_CREAT|O_TRUNC)`.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;

    /// Open (creating if absent) a file for appending —
    /// `open(O_CREAT|O_APPEND)`.
    fn append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;

    /// Atomically rename `from` onto `to` — `rename`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Remove a file — `unlink`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Create a directory and its ancestors — `mkdir -p`.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// Fsync a directory, making renamed/created entries durable.
    /// Best-effort on the open (not every filesystem permits opening a
    /// directory), but an fsync that was issued and failed is an error.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;

    /// Cut the file at `path` back to `len` bytes and make the cut
    /// durable: `open`, `ftruncate`, `fsync`, each through this `Vfs`.
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let mut file = self.append(path)?;
        file.set_len(len)?;
        file.sync_file()
    }
}

/// The production [`Vfs`]: a zero-cost passthrough to `std::fs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdVfs;

/// A real [`File`] behind the [`VfsFile`] trait.
#[derive(Debug)]
pub struct StdFile(File);

impl Write for StdFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

impl VfsFile for StdFile {
    fn sync_file(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }

    fn file_len(&self) -> io::Result<u64> {
        Ok(self.0.metadata()?.len())
    }
}

impl Vfs for StdVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(StdFile(File::create(path)?)))
    }

    fn append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = OpenOptions::new().append(true).create(true).open(path)?;
        Ok(Box::new(StdFile(file)))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        match File::open(dir) {
            Ok(d) => d.sync_all(),
            Err(_) => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("nc_vfs_{}_{}", std::process::id(), name));
        p
    }

    #[test]
    fn std_vfs_create_write_sync_rename() {
        let a = tmp("std_a");
        let b = tmp("std_b");
        let vfs = StdVfs;
        let mut f = vfs.create(&a).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync_file().unwrap();
        assert_eq!(f.file_len().unwrap(), 5);
        drop(f);
        vfs.rename(&a, &b).unwrap();
        vfs.sync_dir(b.parent().unwrap()).unwrap();
        assert_eq!(std::fs::read(&b).unwrap(), b"hello");
        vfs.remove_file(&b).unwrap();
        assert!(!a.exists() && !b.exists());
    }

    #[test]
    fn std_vfs_append_continues_and_set_len_truncates() {
        let p = tmp("std_append");
        let vfs = StdVfs;
        let mut f = vfs.append(&p).unwrap();
        f.write_all(b"one\n").unwrap();
        drop(f);
        let mut f = vfs.append(&p).unwrap();
        assert_eq!(f.file_len().unwrap(), 4);
        f.write_all(b"two\n").unwrap();
        f.flush().unwrap();
        f.set_len(4).unwrap();
        drop(f);
        assert_eq!(std::fs::read(&p).unwrap(), b"one\n");
        vfs.remove_file(&p).unwrap();
    }

    #[test]
    fn sync_dir_is_best_effort_on_missing_path() {
        StdVfs.sync_dir(Path::new("/nonexistent/nc_vfs_dir")).unwrap();
    }
}
