//! The suite runner and `compare`.
//!
//! The suite runs every workload in a process of its own (so `VmHWM` is
//! per workload), prints every metric by name with its unit, and writes
//! a *result set*: one JSON line per run, the contract's result object
//! wrapped with what identifies the run. `compare` reads two result
//! sets and judges each end-to-end metric × workload against the bounds
//! of `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use nc_docstore::value::{Document, Value};

use crate::harness::{hardware_threads, json_string, median, quantile, sorted};
use crate::metrics::WORKLOADS;
use crate::Scale;

/// What the suite runs.
#[derive(Debug, Clone)]
pub struct SuiteOptions {
    /// Seed passed to every workload.
    pub seed: u64,
    /// Seconds each run measures for.
    pub seconds: f64,
    /// Data size.
    pub scale: Scale,
    /// Also make a traced run of each workload.
    pub trace: bool,
    /// Untraced runs per workload.
    pub runs: usize,
    /// Where the result set goes.
    pub out: PathBuf,
}

fn parse_object(text: &str) -> Result<Document, String> {
    match nc_query::json::parse(text.as_bytes()) {
        Ok(Value::Doc(doc)) => Ok(doc),
        Ok(_) => Err("not a JSON object".to_string()),
        Err(e) => Err(e.to_string()),
    }
}

/// The `(name, value, unit)` triples of a result object, sorted by name
/// (the parsed document sorts its keys).
fn metrics_of(result: &Document) -> Vec<(String, f64, String)> {
    let Some(metrics) = result.get("metrics").and_then(Value::as_doc) else {
        return Vec::new();
    };
    metrics
        .iter()
        .filter_map(|(name, m)| {
            let m = m.as_doc()?;
            Some((
                name.clone(),
                m.get_f64("value")?,
                m.get_str("unit")?.to_string(),
            ))
        })
        .collect()
}

/// Run one workload in a child process and return its result line.
fn run_child(workload: &str, opts: &SuiteOptions, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--scale", opts.scale.name])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout
        .lines()
        .last()
        .map(str::to_owned)
        .ok_or_else(|| format!("{workload} printed no result"))
}

/// Run the suite; `Ok(true)` when every run was correct.
pub fn run_suite(opts: &SuiteOptions) -> Result<bool, String> {
    let threads = hardware_threads();
    let mut set = String::new();
    let mut all_correct = true;
    println!(
        "bench_pipeline suite: seed {}, scale {}, {} s per run, hardware_threads {threads}",
        opts.seed, opts.scale.name, opts.seconds
    );
    for (workload, _) in WORKLOADS {
        let mut modes = vec![false; opts.runs.max(1)];
        modes.extend(opts.trace.then_some(true));
        for trace in modes {
            let line = run_child(workload, opts, trace)?;
            let result = parse_object(&line).map_err(|e| format!("{workload} result: {e}"))?;
            let correct = matches!(result.get("correct"), Some(Value::Bool(true)));
            all_correct &= correct;
            println!(
                "\n{workload} ({}): correct={correct} attempted={} failed={}",
                if trace {
                    "traced, per-layer"
                } else {
                    "untraced, end-to-end"
                },
                result.get_i64("attempted").unwrap_or(0),
                result.get_i64("failed").unwrap_or(0),
            );
            // A traced run reports 0 for layers the workload never calls;
            // the listing leaves those out, the result set keeps them.
            for (name, value, unit) in metrics_of(&result) {
                if !trace || value != 0.0 {
                    println!("  {name:<40} {value:>16.6} {unit}");
                }
            }
            writeln!(
                set,
                "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"scale\":{},\"hardware_threads\":{threads},\"result\":{line}}}",
                json_string(workload),
                opts.seed,
                opts.seconds,
                u8::from(trace),
                json_string(opts.scale.name),
            )
            .expect("write to a string");
        }
    }
    if let Some(dir) = opts.out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&opts.out, set).map_err(|e| format!("write {}: {e}", opts.out.display()))?;
    println!("\nresult set written to {}", opts.out.display());
    Ok(all_correct)
}

/// Samples of every `(workload, metric)` of a result set, for traced or
/// untraced lines, plus the `hardware_threads` the set was run at.
struct ResultSet {
    samples: BTreeMap<(String, String), Vec<f64>>,
    hardware_threads: Option<i64>,
}

fn read_set(path: &Path, traced: bool) -> Result<ResultSet, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut set = ResultSet {
        samples: BTreeMap::new(),
        hardware_threads: None,
    };
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = parse_object(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        set.hardware_threads = doc.get_i64("hardware_threads").or(set.hardware_threads);
        if (doc.get_i64("trace") == Some(1)) != traced {
            continue;
        }
        let workload = doc.get_str("workload").unwrap_or("?").to_string();
        let Some(result) = doc.get("result").and_then(Value::as_doc) else {
            continue;
        };
        for (name, value, _) in metrics_of(result) {
            set.samples
                .entry((workload.clone(), name))
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

/// Distance between the quartiles as a share of the median (0 with
/// fewer than two samples: a single run shows no spread).
fn spread(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let s = sorted(samples);
    let mid = quantile(&s, 0.5);
    if mid == 0.0 {
        return 0.0;
    }
    (quantile(&s, 0.75) - quantile(&s, 0.25)) / mid.abs()
}

/// Verdict on one end-to-end metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Within,
    /// B's median is worse by more than the bound and than the spread.
    Worse,
    /// The run-to-run spread is wider than the bound, so a change of
    /// the bound's size cannot be told from noise.
    Unresolved,
}

/// Judge B against A: `worsening` is the share of A's median by which B
/// is worse (negative when better).
pub fn judge(worsening: f64, noise: f64, bound: f64) -> Verdict {
    if worsening > bound && worsening > noise {
        Verdict::Worse
    } else if noise > bound {
        Verdict::Unresolved
    } else {
        Verdict::Within
    }
}

/// Compare result set B against A under the manifest's bounds, print
/// one row per end-to-end metric × workload (and the per-layer medians
/// where both sets have traced runs); `Ok(true)` when nothing is worse.
pub fn compare(a: &Path, b: &Path, manifest: &Path) -> Result<bool, String> {
    let text = std::fs::read_to_string(manifest)
        .map_err(|e| format!("read {}: {e}", manifest.display()))?;
    let manifest = parse_object(&text).map_err(|e| format!("manifest: {e}"))?;
    let bounds: Vec<(String, bool, f64)> = manifest
        .get_array("end_to_end")
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            let m = m.as_doc()?;
            Some((
                m.get_str("name")?.to_string(),
                m.get_str("better")? == "lower",
                m.get_f64("bound")?,
            ))
        })
        .collect();

    let (set_a, set_b) = (read_set(a, false)?, read_set(b, false)?);
    if set_a.hardware_threads != set_b.hardware_threads {
        println!(
            "warning: hardware_threads differ ({:?} vs {:?}); the numbers are not comparable",
            set_a.hardware_threads, set_b.hardware_threads
        );
    }
    let mut ok = true;
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "change", "spread", "bound"
    );
    for (workload, _) in WORKLOADS {
        for (metric, lower_is_better, bound) in &bounds {
            let key = (workload.to_string(), metric.clone());
            let (Some(sa), Some(sb)) = (set_a.samples.get(&key), set_b.samples.get(&key)) else {
                println!("{workload:<14} {metric:<18} missing from one result set");
                ok = false;
                continue;
            };
            let (ma, mb) = (median(sa), median(sb));
            let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
            let worsening = if *lower_is_better { change } else { -change };
            let noise = spread(sa).max(spread(sb));
            let verdict = judge(worsening, noise, *bound);
            ok &= verdict != Verdict::Worse;
            println!(
                "{workload:<14} {metric:<18} {ma:>14.4} {mb:>14.4} {:>+8.2}% {:>7.2}% {:>5.0}%  {}",
                change * 100.0,
                noise * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Within => "within",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }

    let (layers_a, layers_b) = (read_set(a, true)?, read_set(b, true)?);
    let shared: Vec<_> = layers_a
        .samples
        .iter()
        .filter_map(|(key, sa)| Some((key, sa, layers_b.samples.get(key)?)))
        .filter(|(_, sa, sb)| median(sa) != 0.0 || median(sb) != 0.0)
        .collect();
    if !shared.is_empty() {
        println!("\nper-layer medians (traced runs; no bound, for locating a change):");
        for ((workload, metric), sa, sb) in shared {
            println!(
                "{workload:<14} {metric:<40} {:>16.6} {:>16.6}",
                median(sa),
                median(sb)
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_separates_within_worse_and_unresolved() {
        assert_eq!(judge(0.02, 0.01, 0.10), Verdict::Within);
        assert_eq!(judge(-0.30, 0.01, 0.10), Verdict::Within);
        assert_eq!(judge(0.15, 0.02, 0.10), Verdict::Worse);
        assert_eq!(judge(0.15, 0.20, 0.10), Verdict::Unresolved);
        assert_eq!(judge(0.01, 0.20, 0.10), Verdict::Unresolved);
        assert_eq!(judge(0.50, 0.20, 0.10), Verdict::Worse);
    }

    #[test]
    fn spread_is_quartile_distance_over_median() {
        assert_eq!(spread(&[5.0]), 0.0);
        let s = spread(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((s - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn result_lines_round_trip_through_the_reader() {
        let line = r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 1.25, "unit": "s"}}}"#;
        let result = parse_object(line).unwrap();
        assert_eq!(
            metrics_of(&result),
            vec![("setup_s".to_string(), 1.25, "s".to_string())]
        );
    }
}
