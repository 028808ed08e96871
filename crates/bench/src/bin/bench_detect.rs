//! Candidate-generation scaling benchmark: the indexed blocking
//! pipeline versus the multi-pass Sorted-Neighborhood baseline.
//!
//! ```sh
//! scripts/bench.sh detect                  # BENCH_detect.json at its recorded parameters
//! cargo run --release -p nc-bench --bin bench_detect -- --scales 10000,50000 --out /tmp/d.json
//! ```
//!
//! One registry is generated at the largest requested scale; each
//! smaller scale measures a record prefix of the same dataset, so the
//! curve varies only `n`. Per scale the harness reports wall time,
//! distinct candidate count and pair completeness for both pipelines,
//! plus log-log growth exponents between consecutive scales (an
//! exponent below 1 means sub-linear growth). The run fails unless the
//! indexed pipeline's parallel probe is bit-identical to the sequential
//! probe at every scale.

use std::process::ExitCode;

use nc_bench::bench::{finish, timed, Flags};
use nc_bench::context::ExperimentScale;
use nc_core::heterogeneity::Scope;
use nc_core::record::DedupPolicy;
use nc_detect::blocking::{SortedNeighborhood, StreamBlocker};
use nc_detect::dataset::{Dataset, Pair};
use nc_detect::index::{
    CompositeBlocker, IndexedQGramBlocker, IndexedTokenBlocker, SoundexBlocker,
};
use nc_detect::sink::PairCollector;
use nc_docstore::doc;
use nc_pipeline_bench::harness::{hardware_threads, Checks};
use nc_suite::bridge::dataset_from_store;

/// Highest-entropy attributes used as blocking keys.
const KEYS: usize = 5;
/// Absolute document-frequency cap of every index.
const CAP: usize = 192;
/// Sorted-Neighborhood window.
const WINDOW: usize = 20;
/// Calendar snapshots the registry is generated over.
const SNAPSHOTS: usize = 12;

/// The indexed candidate pipeline under measurement: capped standard
/// blocking (one token index over every key), capped trigram indexes
/// per key for typo robustness, and phonetic buckets on the two name
/// attributes. Every component uses an *absolute* document-frequency
/// cap, so the fraction of terms that still emit pairs shrinks as `n`
/// grows — the mechanism behind the sub-linear curve.
fn indexed_pipeline(keys: &[usize], threads: usize) -> CompositeBlocker {
    let mut passes: Vec<Box<dyn StreamBlocker + Send + Sync>> = Vec::new();
    let mut tokens = IndexedTokenBlocker::any_token(keys.to_vec(), CAP);
    tokens.threads = threads;
    passes.push(Box::new(tokens));
    for &key in keys {
        let mut grams = IndexedQGramBlocker::trigrams_capped(key, CAP);
        grams.threads = threads;
        passes.push(Box::new(grams));
    }
    // Person-scope positions 0 and 1 are last_name and first_name.
    for key in [0usize, 1] {
        let mut phonetic = SoundexBlocker::new(key, CAP);
        phonetic.threads = threads;
        passes.push(Box::new(phonetic));
    }
    CompositeBlocker::new(passes)
}

/// Wall time of one streamed candidate-generation pass, with the sorted
/// distinct candidate list.
fn time_candidates(data: &Dataset, blocker: &dyn StreamBlocker) -> (f64, Vec<Pair>) {
    let mut collector = PairCollector::new();
    timed(|| {
        blocker.stream_into(data, &mut collector);
        collector.finish()
    })
}

/// Fraction of gold pairs present in a sorted candidate list.
fn completeness(gold: &[Pair], sorted_candidates: &[Pair]) -> f64 {
    if gold.is_empty() {
        return 1.0;
    }
    let hits = gold
        .iter()
        .filter(|p| sorted_candidates.binary_search(p).is_ok())
        .count();
    hits as f64 / gold.len() as f64
}

/// log-log slope between two curve points; < 1 means sub-linear.
fn growth_exponent(n1: usize, v1: f64, n2: usize, v2: f64) -> f64 {
    (v2.max(1e-12) / v1.max(1e-12)).ln() / (n2 as f64 / n1 as f64).ln()
}

fn main() -> ExitCode {
    let mut flags = Flags::from_env("bench_detect");
    let mut scales = flags.list("--scales", &[10_000usize, 100_000, 1_000_000]);
    // `--pop 0` sizes the registry from the largest scale.
    let mut scale = ExperimentScale {
        population: flags.get("--pop", 0),
        snapshots: SNAPSHOTS,
        ..ExperimentScale::default()
    };
    let out = flags.path("--out", "BENCH_detect.json");
    flags.done();
    scales.sort_unstable();
    scales.dedup();
    let max_scale = *scales.last().expect("--scales has a value");
    // The generator yields ~4.3-4.6 records per initial resident over
    // 12 snapshots; size the population so the registry covers the
    // largest scale.
    if scale.population == 0 {
        scale.population = (max_scale as f64 / 4.0).ceil() as usize;
    }
    let outcome = scale.run(DedupPolicy::Trimmed);
    let full = dataset_from_store(&outcome.store, Scope::Person.attrs());
    eprintln!("registry holds {} records", full.len());

    let mut checks = Checks::default();
    let mut points = Vec::new();
    let mut curve: Vec<(usize, [f64; 4])> = Vec::new();
    for &target in &scales {
        let n = target.min(full.len());
        if n < target {
            eprintln!("registry smaller than scale {target}; clamping to {n}");
        }
        let data = Dataset {
            attr_names: full.attr_names.clone(),
            records: full.records[..n].to_vec(),
        };
        let keys = data.top_entropy_attrs(KEYS.min(data.num_attrs()));
        let gold = data.sorted_gold_pairs();
        eprintln!("scale {n}: keys {keys:?}, {} gold pairs", gold.len());

        let snm = SortedNeighborhood {
            keys: keys.clone(),
            window: WINDOW,
        };
        let (snm_secs, snm_pairs) = time_candidates(&data, &snm);
        let snm_completeness = completeness(&gold, &snm_pairs);
        eprintln!(
            "  snm: {snm_secs:.3} s, {} candidates, completeness {snm_completeness:.4}",
            snm_pairs.len()
        );

        // Parallel output must be bit-identical to sequential: same
        // pairs in the same order, even on a chunking that differs from
        // the probe's own.
        let mut seq_emission: Vec<Pair> = Vec::new();
        indexed_pipeline(&keys, 1).stream_into(&data, &mut seq_emission);
        let mut par_emission: Vec<Pair> = Vec::new();
        indexed_pipeline(&keys, 2).stream_into(&data, &mut par_emission);
        checks.check(seq_emission == par_emission, || {
            format!("parallel probe diverged from sequential at scale {n}")
        });
        drop(seq_emission);
        drop(par_emission);

        let (indexed_secs, indexed_pairs) = time_candidates(&data, &indexed_pipeline(&keys, 0));
        let indexed_completeness = completeness(&gold, &indexed_pairs);
        eprintln!(
            "  indexed: {indexed_secs:.3} s, {} candidates, completeness {indexed_completeness:.4}",
            indexed_pairs.len()
        );
        curve.push((
            n,
            [
                snm_secs,
                indexed_secs,
                snm_pairs.len() as f64,
                indexed_pairs.len() as f64,
            ],
        ));
        points.push(doc! {
            "records" => n,
            "gold_pairs" => gold.len(),
            "snm_secs" => snm_secs,
            "snm_candidates" => snm_pairs.len(),
            "snm_completeness" => snm_completeness,
            "indexed_secs" => indexed_secs,
            "indexed_candidates" => indexed_pairs.len(),
            "indexed_completeness" => indexed_completeness,
        });
    }

    let growth: Vec<_> = curve
        .windows(2)
        .map(|w| {
            let ((n1, a), (n2, b)) = (w[0], w[1]);
            let e = |i: usize| growth_exponent(n1, a[i], n2, b[i]);
            println!(
                "{n1} -> {n2}: time exponent snm {:.3} vs indexed {:.3}; candidates snm {:.3} vs indexed {:.3}",
                e(0),
                e(1),
                e(2),
                e(3)
            );
            doc! {
                "from_records" => n1,
                "to_records" => n2,
                "snm_time" => e(0),
                "indexed_time" => e(1),
                "snm_candidates" => e(2),
                "indexed_candidates" => e(3),
            }
        })
        .collect();
    let report = doc! {
        "population" => scale.population,
        "snapshots" => scale.snapshots,
        "seed" => scale.seed,
        "reps" => 1_usize,
        "keys" => KEYS,
        "stop_cap" => CAP,
        "snm_window" => WINDOW,
        "parallel_threads" => hardware_threads(),
        "scales" => points,
        "growth_exponents" => growth,
        "bit_identical" => checks.failed == 0,
        "note" => "growth exponents are log-log slopes between consecutive scales; \
                   < 1.0 means sub-linear. The headline result is the scaling-in-n curve; \
                   parallel speedup depends on hardware_threads, and the parallel probe is \
                   checked bit-identical to the sequential one at every scale.",
    };
    finish(&out, report, &checks)
}
