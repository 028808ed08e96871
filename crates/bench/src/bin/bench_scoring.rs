//! Standalone scoring throughput benchmark: sequential vs parallel
//! cluster scoring on a generated registry.
//!
//! ```sh
//! scripts/bench.sh scoring                 # BENCH_scoring.json at its recorded parameters
//! cargo run --release -p nc-bench --bin bench_scoring -- --pop 2000 --out /tmp/s.json
//! ```
//!
//! The parallel result is checked bit-identical to the sequential one;
//! the run fails when it is not.

use std::process::ExitCode;

use nc_bench::bench::{finish, timed, Flags, Timing};
use nc_bench::context::ExperimentScale;
use nc_core::heterogeneity::{AttributeWeights, HeterogeneityScorer, Scope};
use nc_core::plausibility::PlausibilityScorer;
use nc_core::record::DedupPolicy;
use nc_core::scoring::{score_store, ClusterScore, ScoringConfig};
use nc_docstore::doc;
use nc_pipeline_bench::harness::Checks;

/// Best-of-`reps` wall time of one scoring pass.
fn time_scoring<F: FnMut() -> Vec<ClusterScore>>(
    reps: usize,
    mut run: F,
) -> (f64, Vec<ClusterScore>) {
    let mut secs = Vec::with_capacity(reps);
    let mut scores = Vec::new();
    for _ in 0..reps {
        let (s, out) = timed(&mut run);
        secs.push(s);
        scores = out;
    }
    (Timing::of(&secs).best, scores)
}

fn main() -> ExitCode {
    let mut flags = Flags::from_env("bench_scoring");
    let scale = ExperimentScale {
        population: flags.get("--pop", 1_000),
        snapshots: flags.get("--snapshots", 12),
        ..ExperimentScale::default()
    };
    let reps = flags.get("--reps", 3usize).max(1);
    let out = flags.path("--out", "BENCH_scoring.json");
    flags.done();

    let outcome = scale.run(DedupPolicy::Trimmed);
    let store = &outcome.store;
    let firsts = store.iter_clusters().map(|(_, rows)| &rows[0]);
    let plaus = PlausibilityScorer::new();
    let het = HeterogeneityScorer::new(AttributeWeights::from_rows(Scope::Person, firsts));

    let par_cfg = ScoringConfig::default();
    let par_threads = par_cfg.effective_threads();
    let records = store.record_count();
    let seq_cfg = ScoringConfig::with_threads(1);
    let (seq_secs, seq) = time_scoring(reps, || score_store(store, &plaus, &het, &seq_cfg));
    let (par_secs, par) = time_scoring(reps, || score_store(store, &plaus, &het, &par_cfg));

    let mut checks = Checks::default();
    checks.check(seq.len() == par.len(), || {
        "parallel run lost clusters".into()
    });
    for (s, p) in seq.iter().zip(&par) {
        checks.check(
            s.ncid == p.ncid
                && s.plausibility.to_bits() == p.plausibility.to_bits()
                && s.heterogeneity.to_bits() == p.heterogeneity.to_bits(),
            || format!("cluster {} scores differently across thread counts", s.ncid),
        );
    }

    let seq_rps = records as f64 / seq_secs;
    let par_rps = records as f64 / par_secs;
    let speedup = seq_secs / par_secs;
    println!(
        "sequential: {seq_secs:.3} s ({seq_rps:.0} records/s)\nparallel ({par_threads} threads): {par_secs:.3} s ({par_rps:.0} records/s)\nspeedup: {speedup:.2}x"
    );
    let report = doc! {
        "population" => scale.population,
        "snapshots" => scale.snapshots,
        "seed" => scale.seed,
        "clusters" => store.cluster_count(),
        "records" => records,
        "reps" => reps,
        "parallel_threads" => par_threads,
        "sequential_secs" => seq_secs,
        "parallel_secs" => par_secs,
        "sequential_records_per_sec" => seq_rps,
        "parallel_records_per_sec" => par_rps,
        "speedup" => speedup,
        "bit_identical" => checks.failed == 0,
    };
    finish(&out, report, &checks)
}
