//! `bench_pipeline`: entry point of the end-to-end benchmark (normally
//! reached through `crates/pipeline-bench/run.sh`, which builds it).
//!
//! ```text
//! bench_pipeline --workload W [--seed N] [--seconds S] [--trace 0|1] [--scale NAME]
//!     one run of one workload; the last line of stdout is the result object
//! bench_pipeline [--trace] [--seed N] [--seconds S] [--scale NAME] [--runs N] [--out FILE]
//!     the suite: every workload in a process of its own, every metric by name
//! bench_pipeline compare A B [--manifest BENCHMARK.json]
//!     judge result set B against A under the manifest's bounds
//! bench_pipeline manifest
//!     print the contents of BENCHMARK.json
//! ```

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

use nc_pipeline_bench::metrics::{manifest_json, RUN_SECONDS, WORKLOADS};
use nc_pipeline_bench::suite::{compare, run_suite, SuiteOptions};
use nc_pipeline_bench::{run_workload, Config, Scale};

/// Split arguments into positionals and `--flag [value]` pairs; a flag
/// followed by another flag (or by nothing) reads as `1`.
fn parse_args(args: &[String]) -> (Vec<String>, HashMap<String, String>) {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].strip_prefix("--") {
            Some(flag) => {
                let value = args.get(i + 1).filter(|v| !v.starts_with("--"));
                i += usize::from(value.is_some());
                flags.insert(
                    flag.to_string(),
                    value.cloned().unwrap_or_else(|| "1".into()),
                );
            }
            None => positional.push(args[i].clone()),
        }
        i += 1;
    }
    (positional, flags)
}

fn number(flags: &HashMap<String, String>, flag: &str, default: f64) -> Result<f64, String> {
    flags.get(flag).map_or(Ok(default), |v| {
        v.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite() && *n >= 0.0)
            .ok_or_else(|| format!("--{flag} takes a non-negative number, got `{v}`"))
    })
}

/// `Ok(true)` when the command ran and nothing was wrong with what it
/// measured or compared; `Err` for a command line that cannot be run.
fn run(args: &[String]) -> Result<bool, String> {
    let (positional, flags) = parse_args(args);
    let known = [
        "workload", "seed", "seconds", "trace", "scale", "runs", "out", "manifest",
    ];
    if let Some(unknown) = flags.keys().find(|f| !known.contains(&f.as_str())) {
        return Err(format!("unknown flag --{unknown}"));
    }
    let seed = number(&flags, "seed", 2021.0)? as u64;
    let seconds = number(&flags, "seconds", f64::from(RUN_SECONDS))?;
    let runs = number(&flags, "runs", 1.0)? as usize;
    let scale_name = flags.get("scale").map_or(Scale::S10K.name, String::as_str);
    let scale = Scale::by_name(scale_name)
        .ok_or_else(|| format!("unknown scale `{scale_name}` (s10k, s100k, s1m, tiny)"))?;
    let trace = flags.get("trace").is_some_and(|v| v != "0");
    let work_dir =
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()))
            .join("pipeline-bench");

    match (
        positional.first().map(String::as_str),
        flags.get("workload"),
    ) {
        (Some("manifest"), _) => {
            print!("{}", manifest_json());
            Ok(true)
        }
        (Some("compare"), _) => {
            let [_, a, b] = positional.as_slice() else {
                return Err("usage: compare A B [--manifest BENCHMARK.json]".to_string());
            };
            let manifest = flags
                .get("manifest")
                .map_or("BENCHMARK.json", String::as_str);
            compare(a.as_ref(), b.as_ref(), manifest.as_ref())
        }
        (Some(other), _) => Err(format!("unknown command `{other}`")),
        (None, Some(workload)) => {
            let cfg = Config {
                seed,
                seconds,
                trace,
                scale,
                work_dir,
            };
            let report = run_workload(workload, &cfg).ok_or_else(|| {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
                format!("unknown workload `{workload}` ({})", names.join(", "))
            })?;
            for message in &report.messages {
                eprintln!("FAILED: {message}");
            }
            // A run that completed exits 0 whatever it found: the result
            // line's `correct` and `failed` carry the verdict.
            println!("{}", report.to_json());
            Ok(true)
        }
        (None, None) => {
            let default_out = work_dir.join(format!("results-seed{seed}.jsonl"));
            run_suite(&SuiteOptions {
                seed,
                seconds,
                scale,
                trace,
                runs,
                out: flags.get("out").map_or(default_out, PathBuf::from),
            })
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("bench_pipeline: {message}");
            ExitCode::from(2)
        }
    }
}
