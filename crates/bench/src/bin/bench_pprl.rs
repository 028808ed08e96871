//! PPRL encoding benchmark: CLK encode throughput, encoded-space vs
//! plaintext scoring cost, and encoded-space blocking completeness
//! over the full voter archive.
//!
//! ```sh
//! scripts/bench.sh pprl                    # BENCH_pprl.json at its recorded parameters
//! cargo run --release -p nc-bench --bin bench_pprl -- --pop 50000 --bands 48 --out /tmp/p.json
//! ```
//!
//! The store is generated at ≥100k records (`--min-records`). The run
//! checks, not just reports: encoding the archive twice is
//! byte-identical (spot-checked), encode throughput clears
//! [`MIN_ENCODE_RATE`], encoded Dice over CLK words is at least
//! [`MIN_SCORE_SPEEDUP`] times cheaper than plaintext q-gram Dice, and
//! bit-sampling blocking over record CLKs recovers at least
//! [`MIN_COMPLETENESS`] of the within-cluster gold pairs while staying
//! selective (`--max-cand-per-record`).

use std::collections::HashSet;
use std::hint::black_box;
use std::process::ExitCode;

use nc_bench::bench::{finish, timed, Flags, Timing};
use nc_bench::context::ExperimentScale;
use nc_core::record::DedupPolicy;
use nc_detect::bitsample::BitSampleBlocker;
use nc_detect::dataset::Pair;
use nc_detect::sink::{PairCollector, QualitySink};
use nc_docstore::doc;
use nc_pipeline_bench::harness::Checks;
use nc_pprl::encode::{normalize_into, plaintext_qgram_dice};
use nc_pprl::kernels::dice;
use nc_pprl::{EncodeScratch, EncodingParams, RecordEncoder};
use nc_votergen::schema::LAST_NAME;

/// Records encoded per second, at least.
const MIN_ENCODE_RATE: f64 = 10_000.0;
/// Plaintext over encoded scoring cost, at least.
const MIN_SCORE_SPEEDUP: f64 = 1.0;
/// Share of the gold pairs the blocker must recover.
const MIN_COMPLETENESS: f64 = 0.7;

fn main() -> ExitCode {
    let mut flags = Flags::from_env("bench_pprl");
    let scale = ExperimentScale {
        population: flags.get("--pop", 25_000),
        snapshots: flags.get("--snapshots", 12),
        ..ExperimentScale::default()
    };
    let reps = flags.get("--reps", 3usize).max(1);
    let min_records = flags.get("--min-records", 100_000u64);
    let max_cand_per_record = flags.get("--max-cand-per-record", 200.0f64);
    // Archive-scale geometry: longer signatures than the blocker's
    // default so skewed low-entropy bit regions (shared city / state
    // patterns) don't inflate the buckets at 100k records.
    let bands = flags.get("--bands", 40usize);
    let band_bits = flags.get("--band-bits", 22usize);
    let out = flags.path("--out", "BENCH_pprl.json");
    flags.done();

    let outcome = scale.run(DedupPolicy::Trimmed);
    let store = &outcome.store;
    let records = store.record_count();
    let mut checks = Checks::default();
    checks.check(records >= min_records, || {
        format!("store too small for the gate: {records} records < {min_records}")
    });

    // Flatten the archive to (cluster, row) once; the gold pair set is
    // every within-cluster pair — the revisions of one person.
    let mut rows = Vec::new();
    let mut gold: HashSet<Pair> = HashSet::new();
    for (_, cluster) in store.iter_clusters() {
        let first = rows.len();
        rows.extend_from_slice(cluster);
        for a in first..rows.len() {
            for b in (a + 1)..rows.len() {
                gold.insert(Pair::new(a, b));
            }
        }
    }
    eprintln!(
        "{} records in {} clusters, {} gold pairs",
        rows.len(),
        store.cluster_count(),
        gold.len()
    );

    // 1. Encode throughput. One timed pass per rep over the full
    //    archive; the fastest rep is the throughput number (the slower
    //    ones absorb allocator warm-up).
    let params = EncodingParams {
        key: scale.seed,
        ..Default::default()
    };
    let encoder = RecordEncoder::new(params);
    let mut scratch = EncodeScratch::new();
    let mut clks: Vec<Vec<u64>> = Vec::with_capacity(rows.len());
    let mut encode_secs = Vec::with_capacity(reps);
    let mut reencode_identical = true;
    for rep in 0..reps {
        clks.clear();
        let (secs, ()) = timed(|| {
            for row in &rows {
                let encoded = encoder.encode_row(row, &mut scratch);
                clks.push(encoded.record_clk.words().to_vec());
            }
        });
        encode_secs.push(secs);
        if rep == 0 {
            // Determinism spot check: an independent encoder must
            // reproduce the first pass bit for bit.
            let fresh = RecordEncoder::new(params);
            let mut s2 = EncodeScratch::new();
            for (row, clk) in rows.iter().step_by(997).zip(clks.iter().step_by(997)) {
                reencode_identical &= fresh.encode_row(row, &mut s2).record_clk.words() == &clk[..];
            }
        }
    }
    checks.check(reencode_identical, || "re-encoding diverged".into());
    let encode = Timing::of(&encode_secs);
    let encode_rate = rows.len() as f64 / encode.best;
    println!(
        "encode: best {:.2} s over {} records → {encode_rate:.0} rec/s (gate {MIN_ENCODE_RATE:.0})",
        encode.best,
        rows.len(),
    );
    checks.check(encode_rate >= MIN_ENCODE_RATE, || {
        format!("encode throughput {encode_rate:.0} rec/s below the gate {MIN_ENCODE_RATE:.0}")
    });

    // 2. Scoring cost: encoded Dice (popcount over CLK words) vs the
    //    plaintext q-gram Dice it estimates, over the same pairs of
    //    normalized last names. Adjacent-record pairs keep the access
    //    pattern identical for both sides.
    let mut names = Vec::with_capacity(rows.len());
    for row in &rows {
        let mut norm = String::new();
        normalize_into(row.get(LAST_NAME), &mut norm);
        names.push(norm);
    }
    let pairs = rows.len() - 1;
    let mut encoded_secs = Vec::with_capacity(reps);
    let mut plain_secs = Vec::with_capacity(reps);
    let mut checksum = 0.0f64;
    for _ in 0..reps {
        let (secs, acc) = timed(|| clks.windows(2).map(|w| dice(&w[0], &w[1])).sum::<f64>());
        encoded_secs.push(secs);
        checksum += black_box(acc);
        let (secs, acc) = timed(|| {
            names
                .windows(2)
                .map(|w| plaintext_qgram_dice(&w[0], &w[1], params.q as usize))
                .sum::<f64>()
        });
        plain_secs.push(secs);
        checksum += black_box(acc);
    }
    checks.check(checksum.is_finite(), || "a Dice sum is not finite".into());
    let encoded_ns = Timing::of(&encoded_secs).mean * 1e9 / pairs as f64;
    let plain_ns = Timing::of(&plain_secs).mean * 1e9 / pairs as f64;
    let score_speedup = plain_ns / encoded_ns;
    println!(
        "scoring: encoded {encoded_ns:.1} ns/pair vs plaintext {plain_ns:.1} ns/pair → {score_speedup:.2}x (gate {MIN_SCORE_SPEEDUP:.1}x)",
    );
    checks.check(score_speedup >= MIN_SCORE_SPEEDUP, || {
        format!("encoded scoring only {score_speedup:.2}x the plaintext cost (gate {MIN_SCORE_SPEEDUP:.1}x)")
    });

    // 3. Blocking completeness at archive scale: bit-sampling buckets
    //    over the record CLKs, measured against the gold pair set with
    //    a QualitySink — and the distinct candidate volume must stay
    //    bounded per record.
    let blocker = BitSampleBlocker {
        bands,
        band_bits,
        ..BitSampleBlocker::default()
    };
    let mut sink = QualitySink::new(&gold);
    let (block_secs, ()) = timed(|| blocker.stream_into(&clks, &mut sink));
    let completeness = sink.completeness();
    let mut collector = PairCollector::new();
    blocker.stream_into(&clks, &mut collector);
    let distinct = collector.finish_count();
    let cand_per_record = distinct as f64 / rows.len() as f64;
    println!(
        "blocking: {}/{} gold pairs (completeness {completeness:.3}, gate {MIN_COMPLETENESS:.2}); \
         {distinct} distinct candidates ({cand_per_record:.1}/record, cap {max_cand_per_record:.0}) in {block_secs:.2} s",
        sink.gold_hits(),
        gold.len(),
    );
    checks.check(completeness >= MIN_COMPLETENESS, || {
        format!(
            "encoded blocking completeness {completeness:.3} below the gate {MIN_COMPLETENESS:.2}"
        )
    });
    checks.check(cand_per_record <= max_cand_per_record, || {
        format!("{cand_per_record:.1} candidates/record is not selective (cap {max_cand_per_record:.0})")
    });

    let report = doc! {
        "population" => scale.population,
        "snapshots" => scale.snapshots,
        "seed" => scale.seed,
        "clusters" => store.cluster_count(),
        "records" => rows.len(),
        "gold_pairs" => gold.len(),
        "reps" => reps,
        "encoding" => params.canonical(),
        "encode_best_secs" => encode.best,
        "encode_mean_secs" => encode.mean,
        "encode_records_per_sec" => encode_rate,
        "min_encode_rate_gate" => MIN_ENCODE_RATE,
        "score_pairs" => pairs,
        "encoded_score_ns_per_pair" => encoded_ns,
        "plaintext_score_ns_per_pair" => plain_ns,
        "score_speedup" => score_speedup,
        "min_score_speedup_gate" => MIN_SCORE_SPEEDUP,
        "blocking_bands" => bands,
        "blocking_band_bits" => band_bits,
        "blocking_completeness" => completeness,
        "blocking_gold_hits" => sink.gold_hits(),
        "blocking_distinct_candidates" => distinct,
        "blocking_candidates_per_record" => cand_per_record,
        "blocking_secs" => block_secs,
        "min_completeness_gate" => MIN_COMPLETENESS,
        "max_cand_per_record_gate" => max_cand_per_record,
        "reencode_identical" => reencode_identical,
    };
    finish(&out, report, &checks)
}
