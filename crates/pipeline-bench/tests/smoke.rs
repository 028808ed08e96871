//! Smoke test: every workload at a tiny scale, in-process, untraced and
//! traced, against the names `BENCHMARK.json` promises.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use nc_docstore::value::{Document, Value};
use nc_pipeline_bench::metrics::{manifest_json, Report};
use nc_pipeline_bench::{run_workload, Config, Scale};

fn committed_manifest() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn manifest() -> Document {
    match nc_query::json::parse(committed_manifest().as_bytes()).expect("BENCHMARK.json parses") {
        Value::Doc(doc) => doc,
        other => panic!("BENCHMARK.json is not an object: {other:?}"),
    }
}

fn names(manifest: &Document, key: &str) -> Vec<String> {
    manifest
        .get_array(key)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}`"))
        .iter()
        .map(|entry| {
            entry
                .as_doc()
                .and_then(|d| d.get_str("name"))
                .expect("every entry has a name")
                .to_string()
        })
        .collect()
}

fn work_dir(label: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{label}"))
}

fn run(workload: &str, trace: bool) -> Report {
    let cfg = Config {
        seed: 7,
        seconds: 0.2,
        trace,
        scale: Scale::TINY,
        work_dir: work_dir(workload),
    };
    run_workload(workload, &cfg).expect("a listed workload runs")
}

/// The report passes its checks and carries exactly `expected`, each
/// name once, well-formed, with a finite value.
fn assert_report(workload: &str, report: &Report, expected: &[String]) {
    assert!(
        report.correct && report.failed == 0 && report.attempted >= 1,
        "{workload}: checks failed: {:?}",
        report.messages
    );
    let emitted: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
    let unique: BTreeSet<&str> = emitted.iter().copied().collect();
    assert_eq!(
        unique.len(),
        emitted.len(),
        "{workload}: a metric is emitted twice"
    );
    let expected: BTreeSet<&str> = expected.iter().map(String::as_str).collect();
    assert_eq!(
        unique, expected,
        "{workload}: emitted names differ from BENCHMARK.json"
    );
    for (name, value) in &report.metrics {
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
            "{workload}: bad metric name {name}"
        );
        assert!(value.is_finite(), "{workload}: {name} is {value}");
    }
}

fn smoke(workload: &str) {
    let manifest = manifest();
    assert!(
        names(&manifest, "workloads").iter().any(|w| w == workload),
        "{workload} is not listed in BENCHMARK.json"
    );

    let untraced = run(workload, false);
    assert_report(workload, &untraced, &names(&manifest, "end_to_end"));
    for (name, value) in &untraced.metrics {
        assert!(
            *value > 0.0,
            "{workload}: end-to-end metric {name} is {value}"
        );
    }

    let traced = run(workload, true);
    assert_report(workload, &traced, &names(&manifest, "per_layer"));
    let get = |name: &str| traced.metrics.iter().find(|m| m.0 == name).map(|m| m.1);
    assert!(get("trace.spans").unwrap() > 0.0);
    assert!(get("trace.overhead_share").unwrap() < 0.05);
    assert!(get("trace.stage_coverage_min").unwrap() >= 0.95);
    assert!(get("votergen.rows").unwrap() > 0.0);

    let dir = work_dir(workload);
    let spans = dir.join(format!("{workload}.trace.jsonl"));
    let lines = std::fs::read_to_string(&spans).expect("the traced run writes its spans");
    assert_eq!(lines.lines().count() as f64, get("trace.spans").unwrap());
    let leftovers: Vec<_> = std::fs::read_dir(dir.join("tmp"))
        .map(|entries| entries.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    assert!(
        leftovers.is_empty(),
        "{workload} left temp dirs behind: {leftovers:?}"
    );
}

#[test]
fn build_cold_smoke() {
    smoke("build_cold");
}

#[test]
fn refresh_smoke() {
    smoke("refresh");
}

#[test]
fn serve_mix_smoke() {
    smoke("serve_mix");
}

#[test]
fn detect_carved_smoke() {
    smoke("detect_carved");
}

#[test]
fn committed_manifest_is_the_one_the_tables_render() {
    assert_eq!(
        committed_manifest(),
        manifest_json(),
        "BENCHMARK.json is stale: regenerate it with `run.sh manifest > BENCHMARK.json`"
    );
}

#[test]
fn unknown_workload_is_refused() {
    let cfg = Config {
        seed: 1,
        seconds: 0.1,
        trace: false,
        scale: Scale::TINY,
        work_dir: work_dir("unknown"),
    };
    assert!(run_workload("no_such_workload", &cfg).is_none());
}
