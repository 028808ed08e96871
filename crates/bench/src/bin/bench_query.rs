//! Carve-by-query benchmark: the plan of a selective query, its
//! indexed execution against a forced full scan, and warm-cache
//! query-carve latency through the serve engine.
//!
//! ```sh
//! scripts/bench.sh query                   # BENCH_query.json at its recorded parameters
//! cargo run --release -p nc-bench --bin bench_query -- --pop 50000 --out /tmp/q.json
//! ```
//!
//! The store is generated at ≥100k records (`--min-records`), then a
//! selective `size >= T` query — `T` chosen from the actual size
//! distribution so roughly 1% of clusters qualify — is planned and
//! executed both ways. The gates are on the plan, not on a wall-time
//! ratio: the query rides the size index (one indexed conjunct, no full
//! scan) and examines at most a tenth of the clusters; the forced scan
//! reports a full scan, both paths return byte-identical documents, and
//! warm-cache replays of the sampled carve are bit-identical. Both
//! paths spend most of their time rendering the documents they return,
//! so their times are reported and not gated.

use std::process::ExitCode;
use std::sync::Arc;

use nc_bench::bench::{finish, timed, Flags, Timing};
use nc_bench::context::ExperimentScale;
use nc_core::record::DedupPolicy;
use nc_docstore::doc;
use nc_docstore::value::Document;
use nc_pipeline_bench::harness::Checks;
use nc_query::{execute, plan_query, CarveQuery, ExecOptions};
use nc_serve::{CacheStatus, ServeConfig, ServeSnapshot, ServeState, SnapshotRegistry};

/// The share of the clusters the selective query may examine.
const MAX_EXAMINED_SHARE: f64 = 0.1;

fn render(docs: &[Document]) -> Vec<String> {
    docs.iter().map(Document::to_json).collect()
}

fn main() -> ExitCode {
    let mut flags = Flags::from_env("bench_query");
    let scale = ExperimentScale {
        population: flags.get("--pop", 25_000),
        snapshots: flags.get("--snapshots", 12),
        ..ExperimentScale::default()
    };
    let reps = flags.get("--reps", 10usize);
    let min_records = flags.get("--min-records", 100_000u64);
    let out = flags.path("--out", "BENCH_query.json");
    flags.done();

    let outcome = scale.run(DedupPolicy::Trimmed);
    let store = &outcome.store;
    let clusters = store.cluster_count();
    let records = store.record_count();
    let mut checks = Checks::default();
    checks.check(records >= min_records, || {
        format!("store too small for the gate: {records} records < {min_records}")
    });

    let registry = SnapshotRegistry::new(ServeSnapshot::capture(store, 1));
    let state = Arc::new(ServeState::new(Arc::new(registry), ServeConfig::default()));
    let snapshot = state.registry().current();
    let catalog = Arc::clone(snapshot.catalog());

    // Pick a selectivity threshold from the real size distribution:
    // the smallest T with at most ~1% of clusters at size >= T.
    let mut sizes: Vec<usize> = snapshot
        .store()
        .clusters()
        .iter()
        .map(|(_, rows)| rows.len())
        .collect();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    let threshold = sizes[(clusters / 100).min(clusters - 1)].max(2);
    let matched = sizes.iter().filter(|&&s| s >= threshold).count();
    checks.check(matched > 0, || {
        format!("threshold {threshold} matches nothing")
    });

    let match_body =
        format!(r#"{{"pipeline": [{{"match": {{"size": {{"gte": {threshold}}}}}}}]}}"#);
    let query = CarveQuery::parse(match_body.as_bytes()).expect("bench query parses");

    // The plan must ride the ordered size index and examine a small
    // share of the clusters.
    let plan = plan_query(&catalog, &query, ExecOptions::default());
    let max_examined = (clusters as f64 * MAX_EXAMINED_SHARE) as usize;
    checks.check(!plan.full_scan && plan.indexed_conjuncts() == 1, || {
        format!(
            "selective query is not indexed: full_scan {}, {} indexed conjuncts",
            plan.full_scan,
            plan.indexed_conjuncts()
        )
    });
    checks.check(plan.estimated_rows <= max_examined, || {
        format!(
            "plan examines {} of {clusters} clusters (at most {max_examined})",
            plan.estimated_rows
        )
    });
    eprintln!(
        "query: size >= {threshold} → {matched} of {clusters} clusters ({records} records); estimated {} rows",
        plan.estimated_rows
    );

    // Both paths must produce byte-identical documents.
    let indexed_out = execute(&catalog, &query, ExecOptions::default());
    let scanned_out = execute(&catalog, &query, ExecOptions { force_scan: true });
    checks.check(!indexed_out.explain.full_scan, || {
        "indexed execution scanned".into()
    });
    checks.check(scanned_out.explain.full_scan, || {
        "forced scan did not report a full scan".into()
    });
    let identical = indexed_out.matched == scanned_out.matched
        && render(&indexed_out.docs) == render(&scanned_out.docs);
    checks.check(identical, || "indexed and scanned documents diverge".into());

    let mut time_path = |options: ExecOptions| -> Vec<f64> {
        (0..reps)
            .map(|_| {
                let (secs, out) = timed(|| execute(&catalog, &query, options));
                checks.check(out.matched.len() == matched, || {
                    format!("a repetition matched {} of {matched}", out.matched.len())
                });
                secs
            })
            .collect()
    };
    let indexed = Timing::of(&time_path(ExecOptions::default()));
    let scan = Timing::of(&time_path(ExecOptions { force_scan: true }));
    let speedup = scan.mean / indexed.mean;
    println!(
        "indexed: mean {:.1} µs, best {:.1} µs\nscan:    mean {:.1} µs, best {:.1} µs\nratio: {speedup:.2}x (not gated)",
        indexed.mean * 1e6,
        indexed.best * 1e6,
        scan.mean * 1e6,
        scan.best * 1e6,
    );

    // Warm-cache query-carve latency through the serve engine: one
    // miss primes the LRU, every replay must hit and return the
    // identical rendered lines.
    let carve_body = format!(
        r#"{{"pipeline": [{{"match": {{"size": {{"gte": {threshold}}}}}}}, {{"sample": {{"size": 100, "seed": 7}}}}]}}"#
    );
    let carve_query = CarveQuery::parse(carve_body.as_bytes()).expect("carve query parses");
    let (carve_cold_secs, primed) =
        timed(|| state.engine().carve_query(&carve_query).expect("carve"));
    checks.check(matches!(primed.status, CacheStatus::Miss), || {
        "the first carve was not a cache miss".into()
    });
    let reference = Arc::clone(&primed.result);
    let mut warm_secs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let (secs, replay) = timed(|| state.engine().carve_query(&carve_query).expect("carve"));
        warm_secs.push(secs);
        checks.check(matches!(replay.status, CacheStatus::Hit), || {
            "a warm carve missed the cache".into()
        });
        checks.check(replay.result.lines == reference.lines, || {
            "cached carve differs".into()
        });
    }
    let warm = Timing::of(&warm_secs);
    println!(
        "carve: cold {:.1} µs, warm mean {:.1} µs ({} lines)",
        carve_cold_secs * 1e6,
        warm.mean * 1e6,
        reference.lines.len()
    );

    let query_stats = state.engine().query_stats();
    let report = doc! {
        "population" => scale.population,
        "snapshots" => scale.snapshots,
        "seed" => scale.seed,
        "clusters" => clusters,
        "records" => records,
        "size_threshold" => threshold,
        "matched_clusters" => matched,
        "reps" => reps,
        "full_scan" => plan.full_scan,
        "indexed_conjuncts" => plan.indexed_conjuncts(),
        "estimated_rows" => plan.estimated_rows,
        "max_estimated_rows_gate" => max_examined,
        "indexed_mean_secs" => indexed.mean,
        "indexed_best_secs" => indexed.best,
        "scan_mean_secs" => scan.mean,
        "scan_best_secs" => scan.best,
        "indexed_speedup" => speedup,
        "carve_cold_secs" => carve_cold_secs,
        "carve_warm_mean_secs" => warm.mean,
        "carve_warm_best_secs" => warm.best,
        "carve_lines" => reference.lines.len(),
        "conjuncts_indexed_total" => query_stats.conjuncts_indexed,
        "conjuncts_scanned_total" => query_stats.conjuncts_scanned,
        "outputs_identical" => identical,
    };
    finish(&out, report, &checks)
}
