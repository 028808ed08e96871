//! Carve-by-query benchmark: indexed planning vs a forced full scan,
//! plus warm-cache query-carve latency through the serve engine.
//!
//! ```sh
//! cargo run --release -p nc-bench --bin bench_query -- \
//!     --pop 25000 --snapshots 12 --out BENCH_query.json
//! ```
//!
//! The store is generated at ≥100k records (gated by `--min-records`),
//! then a selective `size >= T` query — `T` chosen from the actual size
//! distribution so roughly 1% of clusters qualify — is executed both
//! ways. The run *asserts*, not just reports: the plan never falls back
//! to a full scan, both paths produce byte-identical documents, the
//! indexed path beats the scan by at least `--min-speedup`, and warm
//! cache replays of the sampled carve are bit-identical. The JSON is
//! written by hand so the binary has no serialization dependency.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use nc_core::pipeline::{GenerationConfig, TestDataGenerator};
use nc_core::record::DedupPolicy;
use nc_query::{execute, plan_query, CarveQuery, ExecOptions};
use nc_serve::{CacheStatus, ServeConfig, ServeSnapshot, ServeState, SnapshotRegistry};
use nc_votergen::config::GeneratorConfig;

struct Args {
    population: usize,
    snapshots: usize,
    seed: u64,
    reps: usize,
    min_records: u64,
    min_speedup: f64,
    out: PathBuf,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        population: 25_000,
        snapshots: 12,
        seed: 2021,
        reps: 10,
        min_records: 100_000,
        min_speedup: 2.0,
        out: PathBuf::from("BENCH_query.json"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| panic!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--pop" => parsed.population = value().parse().expect("--pop takes a number"),
            "--snapshots" => parsed.snapshots = value().parse().expect("--snapshots takes a number"),
            "--seed" => parsed.seed = value().parse().expect("--seed takes a number"),
            "--reps" => parsed.reps = value().parse().expect("--reps takes a number"),
            "--min-records" => {
                parsed.min_records = value().parse().expect("--min-records takes a number")
            }
            "--min-speedup" => {
                parsed.min_speedup = value().parse().expect("--min-speedup takes a number")
            }
            "--out" => parsed.out = PathBuf::from(value()),
            other => {
                eprintln!("unknown flag: {other}");
                eprintln!("usage: bench_query [--pop N] [--snapshots N] [--seed N] [--reps N] [--min-records N] [--min-speedup X] [--out FILE]");
                std::process::exit(2);
            }
        }
    }
    parsed
}

fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

fn main() {
    let args = parse_args();
    eprintln!(
        "generating registry: population {}, {} snapshots, seed {}…",
        args.population, args.snapshots, args.seed
    );
    let outcome = TestDataGenerator::run(GenerationConfig {
        generator: GeneratorConfig {
            seed: args.seed,
            initial_population: args.population,
            ..Default::default()
        },
        policy: DedupPolicy::Trimmed,
        snapshots: args.snapshots,
    });
    let store = &outcome.store;
    let clusters = store.cluster_count();
    let records = store.record_count();
    assert!(
        records >= args.min_records,
        "store too small for the gate: {records} records < {} (raise --pop or lower --min-records)",
        args.min_records
    );

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
    assert!(matched > 0, "threshold {threshold} matches nothing");

    let match_body = format!(r#"{{"pipeline": [{{"match": {{"size": {{"gte": {threshold}}}}}}}]}}"#);
    let query = CarveQuery::parse(match_body.as_bytes()).expect("bench query parses");

    // The plan must ride the ordered size index — never a full scan.
    let plan = plan_query(&catalog, &query, ExecOptions::default());
    assert!(!plan.full_scan, "selective query fell back to a full scan");
    assert_eq!(plan.indexed_conjuncts(), 1);
    assert!(
        plan.estimated_rows < clusters,
        "posting-list estimate should beat the scan bound"
    );
    eprintln!(
        "query: size >= {threshold} → {matched} of {clusters} clusters ({records} records); estimated {} rows",
        plan.estimated_rows
    );

    // Both paths must produce byte-identical documents before any
    // number is reported.
    let indexed_out = execute(&catalog, &query, ExecOptions::default());
    let scanned_out = execute(&catalog, &query, ExecOptions { force_scan: true });
    assert!(!indexed_out.explain.full_scan);
    assert!(scanned_out.explain.full_scan);
    let render = |docs: &[nc_docstore::value::Document]| -> Vec<String> {
        docs.iter().map(|d| d.to_json()).collect()
    };
    assert_eq!(indexed_out.matched, scanned_out.matched);
    assert_eq!(
        render(&indexed_out.docs),
        render(&scanned_out.docs),
        "indexed and scanned documents diverge"
    );

    let mut indexed_secs = Vec::with_capacity(args.reps);
    for _ in 0..args.reps {
        let start = Instant::now();
        let out = execute(&catalog, &query, ExecOptions::default());
        indexed_secs.push(start.elapsed().as_secs_f64());
        assert_eq!(out.matched.len(), matched);
    }
    let mut scan_secs = Vec::with_capacity(args.reps);
    for _ in 0..args.reps {
        let start = Instant::now();
        let out = execute(&catalog, &query, ExecOptions { force_scan: true });
        scan_secs.push(start.elapsed().as_secs_f64());
        assert_eq!(out.matched.len(), matched);
    }

    let indexed_mean = mean(&indexed_secs);
    let scan_mean = mean(&scan_secs);
    let speedup = scan_mean / indexed_mean;
    println!(
        "indexed: mean {:.1} µs, best {:.1} µs\nscan:    mean {:.1} µs, best {:.1} µs\nspeedup: {speedup:.2}x (gate {:.1}x)",
        indexed_mean * 1e6,
        best(&indexed_secs) * 1e6,
        scan_mean * 1e6,
        best(&scan_secs) * 1e6,
        args.min_speedup
    );

    // Warm-cache query-carve latency through the serve engine: one
    // miss primes the LRU, every replay must hit and return the
    // identical rendered lines.
    let carve_body = format!(
        r#"{{"pipeline": [{{"match": {{"size": {{"gte": {threshold}}}}}}}, {{"sample": {{"size": 100, "seed": 7}}}}]}}"#
    );
    let carve_query = CarveQuery::parse(carve_body.as_bytes()).expect("carve query parses");
    let cold_start = Instant::now();
    let primed = state.engine().carve_query(&carve_query).expect("carve");
    let carve_cold_secs = cold_start.elapsed().as_secs_f64();
    assert!(matches!(primed.status, CacheStatus::Miss));
    let reference = Arc::clone(&primed.result);
    let mut warm_secs = Vec::with_capacity(args.reps);
    for _ in 0..args.reps {
        let start = Instant::now();
        let replay = state.engine().carve_query(&carve_query).expect("carve");
        warm_secs.push(start.elapsed().as_secs_f64());
        assert!(matches!(replay.status, CacheStatus::Hit));
        assert_eq!(replay.result.lines, reference.lines, "cached carve differs");
    }
    let warm_mean = mean(&warm_secs);
    println!(
        "carve: cold {:.1} µs, warm mean {:.1} µs ({} lines)",
        carve_cold_secs * 1e6,
        warm_mean * 1e6,
        reference.lines.len()
    );

    let query_stats = state.engine().query_stats();
    // Hand-rolled JSON: flat object, stable key order.
    let json = format!(
        concat!(
            "{{\n",
            "  \"population\": {},\n",
            "  \"snapshots\": {},\n",
            "  \"seed\": {},\n",
            "  \"clusters\": {},\n",
            "  \"records\": {},\n",
            "  \"size_threshold\": {},\n",
            "  \"matched_clusters\": {},\n",
            "  \"reps\": {},\n",
            "  \"hardware_threads\": {},\n",
            "  \"full_scan\": false,\n",
            "  \"estimated_rows\": {},\n",
            "  \"indexed_mean_secs\": {:.9},\n",
            "  \"indexed_best_secs\": {:.9},\n",
            "  \"scan_mean_secs\": {:.9},\n",
            "  \"scan_best_secs\": {:.9},\n",
            "  \"indexed_speedup\": {:.4},\n",
            "  \"min_speedup_gate\": {:.2},\n",
            "  \"carve_cold_secs\": {:.9},\n",
            "  \"carve_warm_mean_secs\": {:.9},\n",
            "  \"carve_warm_best_secs\": {:.9},\n",
            "  \"carve_lines\": {},\n",
            "  \"conjuncts_indexed_total\": {},\n",
            "  \"conjuncts_scanned_total\": {},\n",
            "  \"outputs_identical\": true\n",
            "}}\n"
        ),
        args.population,
        args.snapshots,
        args.seed,
        clusters,
        records,
        threshold,
        matched,
        args.reps,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        plan.estimated_rows,
        indexed_mean,
        best(&indexed_secs),
        scan_mean,
        best(&scan_secs),
        speedup,
        args.min_speedup,
        carve_cold_secs,
        warm_mean,
        best(&warm_secs),
        reference.lines.len(),
        query_stats.conjuncts_indexed,
        query_stats.conjuncts_scanned,
    );
    std::fs::write(&args.out, json).expect("write benchmark json");
    eprintln!("wrote {}", args.out.display());
    // Gated after the report is written, so a failing ratio is on record.
    assert!(
        speedup >= args.min_speedup,
        "indexed path only {speedup:.2}x faster than forced scan (gate {:.1}x)",
        args.min_speedup
    );
}
