//! Standalone scoring throughput benchmark: sequential vs parallel
//! cluster scoring on a generated registry.
//!
//! ```sh
//! cargo run --release -p nc-bench --bin bench_scoring -- \
//!     --pop 2000 --snapshots 20 --out BENCH_scoring.json
//! ```
//!
//! The parallel result is asserted bit-identical to the sequential one
//! before any number is reported. The JSON is written by hand so the
//! binary has no serialization dependency.

use std::path::PathBuf;
use std::time::Instant;

use nc_core::heterogeneity::{AttributeWeights, HeterogeneityScorer, Scope};
use nc_core::pipeline::{GenerationConfig, TestDataGenerator};
use nc_core::plausibility::PlausibilityScorer;
use nc_core::record::DedupPolicy;
use nc_core::scoring::{score_store, ClusterScore, ScoringConfig};
use nc_votergen::config::GeneratorConfig;

struct Args {
    population: usize,
    snapshots: usize,
    seed: u64,
    threads: usize,
    reps: usize,
    out: PathBuf,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        population: 1_000,
        snapshots: 12,
        seed: 2021,
        threads: 0,
        reps: 3,
        out: PathBuf::from("BENCH_scoring.json"),
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
            "--threads" => parsed.threads = value().parse().expect("--threads takes a number"),
            "--reps" => parsed.reps = value().parse().expect("--reps takes a number"),
            "--out" => parsed.out = PathBuf::from(value()),
            other => {
                eprintln!("unknown flag: {other}");
                eprintln!("usage: bench_scoring [--pop N] [--snapshots N] [--seed N] [--threads N] [--reps N] [--out FILE]");
                std::process::exit(2);
            }
        }
    }
    parsed
}

/// Best-of-`reps` wall time of one scoring pass.
fn time_scoring<F: FnMut() -> Vec<ClusterScore>>(reps: usize, mut run: F) -> (f64, Vec<ClusterScore>) {
    let mut best = f64::INFINITY;
    let mut scores = Vec::new();
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let out = run();
        best = best.min(start.elapsed().as_secs_f64());
        scores = out;
    }
    (best, scores)
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
    let firsts = store.iter_clusters().map(|(_, rows)| &rows[0]);
    let plaus = PlausibilityScorer::new();
    let het = HeterogeneityScorer::new(AttributeWeights::from_rows(Scope::Person, firsts));

    let par_cfg = ScoringConfig::with_threads(args.threads);
    let par_threads = par_cfg.effective_threads();
    let clusters = store.cluster_count();
    let records = store.record_count();
    eprintln!(
        "scoring {clusters} clusters ({records} records): sequential, then {par_threads} threads…"
    );

    let seq_cfg = ScoringConfig::with_threads(1);
    let (seq_secs, seq) =
        time_scoring(args.reps, || score_store(store, &plaus, &het, &seq_cfg));
    let (par_secs, par) =
        time_scoring(args.reps, || score_store(store, &plaus, &het, &par_cfg));

    assert_eq!(seq.len(), par.len(), "parallel run lost clusters");
    for (s, p) in seq.iter().zip(&par) {
        assert_eq!(s.ncid, p.ncid, "parallel run reordered clusters");
        assert_eq!(
            s.plausibility.to_bits(),
            p.plausibility.to_bits(),
            "plausibility of {} differs across thread counts",
            s.ncid
        );
        assert_eq!(
            s.heterogeneity.to_bits(),
            p.heterogeneity.to_bits(),
            "heterogeneity of {} differs across thread counts",
            s.ncid
        );
    }

    let seq_rps = records as f64 / seq_secs;
    let par_rps = records as f64 / par_secs;
    let speedup = seq_secs / par_secs;
    println!(
        "sequential: {seq_secs:.3} s ({seq_rps:.0} records/s)\nparallel ({par_threads} threads): {par_secs:.3} s ({par_rps:.0} records/s)\nspeedup: {speedup:.2}x"
    );

    // Hand-rolled JSON: flat object, numbers only, stable key order.
    let json = format!(
        concat!(
            "{{\n",
            "  \"population\": {},\n",
            "  \"snapshots\": {},\n",
            "  \"seed\": {},\n",
            "  \"clusters\": {},\n",
            "  \"records\": {},\n",
            "  \"reps\": {},\n",
            "  \"hardware_threads\": {},\n",
            "  \"parallel_threads\": {},\n",
            "  \"sequential_secs\": {:.6},\n",
            "  \"parallel_secs\": {:.6},\n",
            "  \"sequential_records_per_sec\": {:.1},\n",
            "  \"parallel_records_per_sec\": {:.1},\n",
            "  \"speedup\": {:.4},\n",
            "  \"bit_identical\": true\n",
            "}}\n"
        ),
        args.population,
        args.snapshots,
        args.seed,
        clusters,
        records,
        args.reps.max(1),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        par_threads,
        seq_secs,
        par_secs,
        seq_rps,
        par_rps,
        speedup,
    );
    std::fs::write(&args.out, json).expect("write benchmark json");
    eprintln!("wrote {}", args.out.display());
}
