//! The small shared harness: the measuring phase, order statistics, a
//! self-cleaning temp directory, the `VmHWM` reader, the hand-written
//! JSON emitter, the correctness-check ledger every workload counts into
//! and a seeded generator for schedules.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The measuring phase of a run: it lasts `seconds`, but never ends
/// before the workload's minimum work is done.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    start: Instant,
    seconds: f64,
}

impl Phase {
    /// Start measuring now.
    pub fn start(seconds: f64) -> Phase {
        Phase {
            start: Instant::now(),
            seconds,
        }
    }

    /// Whether to run another repetition, `done` of at least `min`
    /// being complete.
    pub fn more(&self, done: usize, min: usize) -> bool {
        done < min || self.elapsed() < self.seconds
    }

    /// Seconds since the phase started.
    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Linear-interpolated quantile of an ascending-sorted slice (the
/// "inclusive" method: `q = 0` is the minimum, `q = 1` the maximum).
/// Returns 0 for an empty slice so an unexercised metric reads as "none".
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// Ascending copy of `samples` (total order, so NaN cannot panic).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The highest of the 99th, 90th and 50th percentiles that still has at
/// least ten samples beyond it, as `(percentile, value)`; with fewer
/// than 21 samples no percentile qualifies and the median is reported
/// as percentile 50 anyway.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples);
    let n = s.len() as f64;
    let pct = [99.0, 90.0]
        .into_iter()
        .find(|p| n * (100.0 - p) / 100.0 >= 10.0)
        .unwrap_or(50.0);
    (pct, quantile(&s, pct / 100.0))
}

static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A directory under `<base>/tmp` that is removed when dropped.
#[derive(Debug)]
pub struct TmpDir {
    path: PathBuf,
}

impl TmpDir {
    /// Create `<base>/tmp/<label>-<pid>-<n>`; the counter keeps dirs of
    /// one process (and of parallel in-process tests) apart.
    pub fn new(base: &Path, label: &str) -> TmpDir {
        let n = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = base
            .join("tmp")
            .join(format!("{label}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path)
            .unwrap_or_else(|e| panic!("create temp dir {}: {e}", path.display()));
        TmpDir { path }
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// Total size and file count under `dir`, recursively, restricted to
/// files whose name passes `keep`.
pub fn dir_usage(dir: &Path, keep: &dyn Fn(&str) -> bool) -> (u64, u64) {
    let mut bytes = 0;
    let mut files = 0;
    let Ok(entries) = fs::read_dir(dir) else {
        return (0, 0);
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let (b, f) = dir_usage(&path, keep);
            bytes += b;
            files += f;
        } else if keep(&entry.file_name().to_string_lossy()) {
            bytes += entry.metadata().map_or(0, |m| m.len());
            files += 1;
        }
    }
    (bytes, files)
}

/// Peak resident set size of this process in MB (`VmHWM` of
/// `/proc/self/status`); 0 where the file is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kb(&status).map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// Hardware threads available to this process.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Append `s` to `out` escaped for a JSON string literal.
pub fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// `s` as a quoted JSON string.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    json_escape_into(&mut out, s);
    out.push('"');
    out
}

/// `v` as a JSON number with every digit Rust's shortest round-trip
/// formatting gives; JSON has no NaN or infinity, so those become 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Operations attempted and failed in one run. A failed correctness
/// check counts like a failed operation, and its message is kept for
/// the log.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Those that failed.
    pub failed: u64,
    /// One line per failure.
    pub messages: Vec<String>,
}

impl Checks {
    /// Count one operation or check; `what` is evaluated only on failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.messages.push(what());
        }
    }

    /// Fold another ledger (a client thread's) into this one.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.messages.extend(other.messages);
    }
}

/// A tiny seeded generator (splitmix64) for request schedules and pair
/// samples: the benchmark must not depend on `rand`, whose offline stub
/// draws a different stream than the real crate.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n > 0`; the modulo bias is far below
    /// what a request mix can show).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_and_handles_edges() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert!((quantile(&s, 0.25) - 1.75).abs() < 1e-12);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let many: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&many).0, 99.0);
        let some: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(tail(&some).0, 90.0);
        let few: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(tail(&few).0, 50.0);
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (50.0, 2.0));
    }

    #[test]
    fn json_escape_covers_quotes_controls_and_unicode() {
        assert_eq!(json_string("a\"b\\c"), r#""a\"b\\c""#);
        assert_eq!(json_string("x\n\t\r"), r#""x\n\t\r""#);
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
        assert_eq!(json_string("é✓"), "\"é✓\"");
    }

    #[test]
    fn json_number_keeps_digits_and_rejects_non_finite() {
        assert_eq!(json_number(1.2034), "1.2034");
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_number(f64::INFINITY), "0");
        let v = 0.1 + 0.2;
        assert_eq!(json_number(v).parse::<f64>().unwrap(), v);
    }

    #[test]
    fn vm_hwm_line_parses() {
        let status = "Name:\tx\nVmHWM:\t  123456 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn tmp_dir_is_removed_on_drop() {
        let base = std::env::temp_dir().join(format!("nc_pb_harness_{}", std::process::id()));
        let kept;
        {
            let dir = TmpDir::new(&base, "unit");
            kept = dir.path().to_path_buf();
            fs::write(kept.join("f"), b"abc").unwrap();
            assert_eq!(dir_usage(&kept, &|_| true), (3, 1));
        }
        assert!(!kept.exists());
        let _ = fs::remove_dir_all(&base);
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix(7);
        let mut b = SplitMix(7);
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert!(SplitMix(1).below(10) < 10);
    }
}
