//! What the bench binaries share: one flag parser, one timing summary,
//! and one way to end a run — write the report, then fail on every gate
//! it missed.
//!
//! A binary takes its flags one by one, each with its default, and then
//! calls [`Flags::done`]; the defaults are the parameters of its
//! committed `BENCH_*.json`, so a run without arguments reproduces that
//! report. Every flag takes a value (`--reps 3`); an unknown flag, a
//! missing value or one that does not parse prints the binary's usage —
//! built from the flags it took — and exits 2.

use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;

use nc_docstore::value::{Document, Value};
use nc_pipeline_bench::harness::{hardware_threads, quantile, sorted, Checks};

use crate::output;

/// The arguments of one run, taken flag by flag.
#[derive(Debug)]
pub struct Flags {
    bin: &'static str,
    command: Option<String>,
    given: Vec<(String, String)>,
    usage: Vec<String>,
    errors: Vec<String>,
}

impl Flags {
    /// The process's arguments.
    pub fn from_env(bin: &'static str) -> Flags {
        Flags::parse(bin, std::env::args().skip(1))
    }

    /// `args`: an optional leading command, then `--flag value` pairs.
    pub fn parse(bin: &'static str, args: impl IntoIterator<Item = String>) -> Flags {
        let mut args = args.into_iter().peekable();
        let command = args.next_if(|a| !a.starts_with("--"));
        let mut given = Vec::new();
        let mut errors = Vec::new();
        while let Some(flag) = args.next() {
            if !flag.starts_with("--") {
                errors.push(format!("unexpected argument {flag:?}"));
                continue;
            }
            match args.next() {
                Some(value) => given.push((flag, value)),
                None => errors.push(format!("{flag} needs a value")),
            }
        }
        Flags {
            bin,
            command,
            given,
            usage: Vec::new(),
            errors,
        }
    }

    /// The value of `--name` (its last occurrence), or `default`.
    pub fn get<T: FromStr + Display>(&mut self, name: &str, default: T) -> T {
        self.usage.push(format!("[{name} {default}]"));
        let raw = self.given.iter().rev().find(|(flag, _)| flag == name);
        let Some(raw) = raw.map(|(_, value)| value.clone()) else {
            return default;
        };
        self.given.retain(|(flag, _)| flag != name);
        raw.parse().unwrap_or_else(|_| {
            self.errors.push(format!("{name} cannot take {raw:?}"));
            default
        })
    }

    /// A comma-separated list, `--name 1,2,3`.
    pub fn list<T: FromStr + Display + Clone>(&mut self, name: &str, default: &[T]) -> Vec<T> {
        let shown: Vec<String> = default.iter().map(T::to_string).collect();
        let raw = self.get(name, shown.join(","));
        raw.split(',')
            .map(|s| s.trim().parse())
            .collect::<Result<_, _>>()
            .unwrap_or_else(|_| {
                self.errors.push(format!("{name} cannot take {raw:?}"));
                default.to_vec()
            })
    }

    /// A file or directory path.
    pub fn path(&mut self, name: &str, default: &str) -> PathBuf {
        PathBuf::from(self.get(name, default.to_string()))
    }

    /// The leading command, for a binary that takes one.
    pub fn command(&mut self, default: &str) -> String {
        self.usage
            .insert(0, format!("[COMMAND, default {default}]"));
        self.command.take().unwrap_or_else(|| default.to_string())
    }

    /// What is wrong with the arguments, once every flag was taken.
    pub fn check(self) -> Result<(), String> {
        let mut errors = self.errors;
        if let Some(command) = self.command {
            errors.push(format!("unexpected argument {command:?}"));
        }
        errors.extend(
            self.given
                .iter()
                .map(|(flag, _)| format!("unknown flag {flag}")),
        );
        if errors.is_empty() {
            return Ok(());
        }
        Err(format!(
            "{}\nusage: {} {}",
            errors.join("\n"),
            self.bin,
            self.usage.join(" ")
        ))
    }

    /// [`Flags::check`], exiting 2 with the usage on an error.
    pub fn done(self) {
        if let Err(message) = self.check() {
            eprintln!("{message}");
            std::process::exit(2);
        }
    }
}

/// The wall time of `f`, in seconds, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let result = f();
    (start.elapsed().as_secs_f64(), result)
}

/// The fastest and the mean of timing samples, in seconds (0 for none).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// The least sample.
    pub best: f64,
    /// The arithmetic mean.
    pub mean: f64,
}

impl Timing {
    /// Summarise `samples`.
    pub fn of(samples: &[f64]) -> Timing {
        let s = sorted(samples);
        Timing {
            best: quantile(&s, 0.0),
            mean: s.iter().sum::<f64>() / s.len().max(1) as f64,
        }
    }
}

/// End a bench run: write `report` to `out` through the one JSON writer,
/// with `hardware_threads` added, then fail naming every gate in
/// `checks` that did not hold.
pub fn finish(out: &Path, mut report: Document, checks: &Checks) -> ExitCode {
    report.set("hardware_threads", hardware_threads());
    output::write_json(out, &Value::Doc(report))
        .unwrap_or_else(|e| panic!("write {}: {e}", out.display()));
    eprintln!("wrote {}", out.display());
    for message in &checks.messages {
        eprintln!("FAIL: {message}");
    }
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{} of {} checks failed", checks.failed, checks.attempted);
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags::parse("bench_x", args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn typed_flags_take_their_values_or_defaults() {
        let mut f = flags(&[
            "--reps", "2", "--pop", "9", "--reps", "4", "--scales", "3,1",
        ]);
        assert_eq!(f.get("--reps", 1usize), 4);
        assert_eq!(f.get("--min-speedup", 5.0), 5.0);
        assert_eq!(f.list("--scales", &[10usize]), vec![3, 1]);
        assert_eq!(f.get("--pop", 150usize), 9);
        assert_eq!(f.path("--out", "a.json"), PathBuf::from("a.json"));
        assert!(f.check().is_ok());
    }

    #[test]
    fn bad_arguments_name_themselves_and_the_usage() {
        let mut f = flags(&["run", "--reps", "x", "--bogus", "1", "--pop"]);
        assert_eq!(f.get("--reps", 3usize), 3);
        let err = f.check().unwrap_err();
        for part in [
            "--pop needs a value",
            "--reps cannot take \"x\"",
            "unknown flag --bogus",
            "unexpected argument \"run\"",
            "usage: bench_x [--reps 3]",
        ] {
            assert!(err.contains(part), "{part:?} missing from {err}");
        }
        let mut f = flags(&["table2", "--out", "r"]);
        assert_eq!(f.command("all"), "table2");
        assert_eq!(f.path("--out", "results"), PathBuf::from("r"));
        assert!(f.check().is_ok());
    }

    #[test]
    fn timing_summarises_best_and_mean() {
        assert_eq!(
            Timing::of(&[3.0, 1.0, 2.0]),
            Timing {
                best: 1.0,
                mean: 2.0
            }
        );
        assert_eq!(
            Timing::of(&[]),
            Timing {
                best: 0.0,
                mean: 0.0
            }
        );
    }

    #[test]
    fn finish_writes_the_report_before_failing() {
        let dir = std::env::temp_dir().join(format!("nc_bench_cli_{}", std::process::id()));
        let out = dir.join("r.json");
        let mut checks = Checks::default();
        checks.check(false, || "gate".into());
        assert_eq!(
            finish(&out, nc_docstore::doc! { "a" => 1_i64 }, &checks),
            ExitCode::FAILURE
        );
        let written = nc_docstore::json::parse(&std::fs::read(&out).unwrap()).unwrap();
        let written = written.as_doc().unwrap();
        assert_eq!(written.get_i64("a"), Some(1));
        assert_eq!(
            written.get_u64("hardware_threads"),
            Some(hardware_threads() as u64)
        );
        std::fs::remove_dir_all(dir).unwrap();
    }
}
