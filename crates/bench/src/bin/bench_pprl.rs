//! PPRL encoding benchmark: CLK encode throughput, encoded-space vs
//! plaintext scoring cost, and encoded-space blocking completeness
//! over the full voter archive.
//!
//! ```sh
//! cargo run --release -p nc-bench --bin bench_pprl -- \
//!     --pop 25000 --snapshots 12 --out BENCH_pprl.json
//! ```
//!
//! The store is generated at ≥100k records (gated by `--min-records`).
//! The run *asserts*, not just reports: encoding the archive twice is
//! byte-identical (spot-checked), encode throughput clears
//! `--min-encode-rate`, encoded Dice over CLK words is at least
//! `--min-score-speedup` times cheaper than plaintext q-gram Dice, and
//! bit-sampling blocking over record CLKs recovers at least
//! `--min-completeness` of the within-cluster gold pairs while staying
//! selective (`--max-cand-per-record`). The JSON is written by hand so
//! the binary has no serialization dependency.

use std::collections::HashSet;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use nc_core::pipeline::{GenerationConfig, TestDataGenerator};
use nc_core::record::DedupPolicy;
use nc_detect::bitsample::BitSampleBlocker;
use nc_detect::dataset::Pair;
use nc_detect::sink::{PairCollector, QualitySink};
use nc_pprl::encode::{normalize_into, plaintext_qgram_dice};
use nc_pprl::kernels::dice;
use nc_pprl::{EncodeScratch, EncodingParams, RecordEncoder};
use nc_votergen::config::GeneratorConfig;
use nc_votergen::schema::LAST_NAME;

struct Args {
    population: usize,
    snapshots: usize,
    seed: u64,
    reps: usize,
    min_records: u64,
    min_encode_rate: f64,
    min_score_speedup: f64,
    min_completeness: f64,
    max_cand_per_record: f64,
    bands: usize,
    band_bits: usize,
    out: PathBuf,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        population: 25_000,
        snapshots: 12,
        seed: 2021,
        reps: 3,
        min_records: 100_000,
        min_encode_rate: 10_000.0,
        min_score_speedup: 1.0,
        min_completeness: 0.7,
        max_cand_per_record: 200.0,
        // Archive-scale geometry: longer signatures than the blocker's
        // default so skewed low-entropy bit regions (shared city /
        // state patterns) don't inflate the buckets at 100k records.
        bands: 40,
        band_bits: 22,
        out: PathBuf::from("BENCH_pprl.json"),
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
            "--min-encode-rate" => {
                parsed.min_encode_rate = value().parse().expect("--min-encode-rate takes a number")
            }
            "--min-score-speedup" => {
                parsed.min_score_speedup =
                    value().parse().expect("--min-score-speedup takes a number")
            }
            "--min-completeness" => {
                parsed.min_completeness =
                    value().parse().expect("--min-completeness takes a number")
            }
            "--max-cand-per-record" => {
                parsed.max_cand_per_record =
                    value().parse().expect("--max-cand-per-record takes a number")
            }
            "--bands" => parsed.bands = value().parse().expect("--bands takes a number"),
            "--band-bits" => {
                parsed.band_bits = value().parse().expect("--band-bits takes a number")
            }
            "--out" => parsed.out = PathBuf::from(value()),
            other => {
                eprintln!("unknown flag: {other}");
                eprintln!(
                    "usage: bench_pprl [--pop N] [--snapshots N] [--seed N] [--reps N] \
                     [--min-records N] [--min-encode-rate X] [--min-score-speedup X] \
                     [--min-completeness X] [--max-cand-per-record X] \
                     [--bands N] [--band-bits N] [--out FILE]"
                );
                std::process::exit(2);
            }
        }
    }
    parsed
}

fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
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
    let records = store.record_count();
    assert!(
        records >= args.min_records,
        "store too small for the gate: {records} records < {} (raise --pop or lower --min-records)",
        args.min_records
    );

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
        key: args.seed,
        ..Default::default()
    };
    let encoder = RecordEncoder::new(params);
    let mut scratch = EncodeScratch::new();
    let mut clks: Vec<Vec<u64>> = Vec::with_capacity(rows.len());
    let mut encode_secs = Vec::with_capacity(args.reps);
    for rep in 0..args.reps {
        clks.clear();
        let start = Instant::now();
        for row in &rows {
            let encoded = encoder.encode_row(row, &mut scratch);
            clks.push(encoded.record_clk.words().to_vec());
        }
        encode_secs.push(start.elapsed().as_secs_f64());
        if rep == 0 {
            // Determinism spot check: an independent encoder must
            // reproduce the first pass bit for bit.
            let fresh = RecordEncoder::new(params);
            let mut s2 = EncodeScratch::new();
            for (row, clk) in rows.iter().step_by(997).zip(clks.iter().step_by(997)) {
                assert_eq!(
                    fresh.encode_row(row, &mut s2).record_clk.words(),
                    &clk[..],
                    "re-encoding diverged"
                );
            }
        }
    }
    let encode_best = encode_secs.iter().copied().fold(f64::INFINITY, f64::min);
    let encode_rate = rows.len() as f64 / encode_best;
    println!(
        "encode: best {:.2} s over {} records → {:.0} rec/s (gate {:.0})",
        encode_best,
        rows.len(),
        encode_rate,
        args.min_encode_rate
    );
    assert!(
        encode_rate >= args.min_encode_rate,
        "encode throughput {encode_rate:.0} rec/s below the gate {:.0}",
        args.min_encode_rate
    );

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
    let mut encoded_secs = Vec::with_capacity(args.reps);
    let mut plain_secs = Vec::with_capacity(args.reps);
    let mut checksum = 0.0f64;
    for _ in 0..args.reps {
        let start = Instant::now();
        let mut acc = 0.0;
        for w in clks.windows(2) {
            acc += dice(&w[0], &w[1]);
        }
        encoded_secs.push(start.elapsed().as_secs_f64());
        checksum += black_box(acc);

        let start = Instant::now();
        let mut acc = 0.0;
        for w in names.windows(2) {
            acc += plaintext_qgram_dice(&w[0], &w[1], params.q as usize);
        }
        plain_secs.push(start.elapsed().as_secs_f64());
        checksum += black_box(acc);
    }
    assert!(checksum.is_finite());
    let encoded_ns = mean(&encoded_secs) * 1e9 / pairs as f64;
    let plain_ns = mean(&plain_secs) * 1e9 / pairs as f64;
    let score_speedup = plain_ns / encoded_ns;
    println!(
        "scoring: encoded {encoded_ns:.1} ns/pair vs plaintext {plain_ns:.1} ns/pair → {score_speedup:.2}x (gate {:.1}x)",
        args.min_score_speedup
    );
    assert!(
        score_speedup >= args.min_score_speedup,
        "encoded scoring only {score_speedup:.2}x the plaintext cost (gate {:.1}x)",
        args.min_score_speedup
    );

    // 3. Blocking completeness at archive scale: bit-sampling buckets
    //    over the record CLKs, measured against the gold pair set with
    //    a QualitySink — and the distinct candidate volume must stay
    //    bounded per record.
    let blocker = BitSampleBlocker {
        bands: args.bands,
        band_bits: args.band_bits,
        ..BitSampleBlocker::default()
    };
    let block_start = Instant::now();
    let mut sink = QualitySink::new(&gold);
    blocker.stream_into(&clks, &mut sink);
    let block_secs = block_start.elapsed().as_secs_f64();
    let completeness = sink.completeness();
    let mut collector = PairCollector::new();
    blocker.stream_into(&clks, &mut collector);
    let distinct = collector.finish_count();
    let cand_per_record = distinct as f64 / rows.len() as f64;
    println!(
        "blocking: {}/{} gold pairs (completeness {completeness:.3}, gate {:.2}); \
         {distinct} distinct candidates ({cand_per_record:.1}/record, cap {:.0}) in {block_secs:.2} s",
        sink.gold_hits(),
        gold.len(),
        args.min_completeness,
        args.max_cand_per_record
    );
    assert!(
        completeness >= args.min_completeness,
        "encoded blocking completeness {completeness:.3} below the gate {:.2}",
        args.min_completeness
    );
    assert!(
        cand_per_record <= args.max_cand_per_record,
        "{cand_per_record:.1} candidates/record is not selective (cap {:.0})",
        args.max_cand_per_record
    );

    // Hand-rolled JSON: flat object, stable key order.
    let json = format!(
        concat!(
            "{{\n",
            "  \"population\": {},\n",
            "  \"snapshots\": {},\n",
            "  \"seed\": {},\n",
            "  \"clusters\": {},\n",
            "  \"records\": {},\n",
            "  \"gold_pairs\": {},\n",
            "  \"reps\": {},\n",
            "  \"encoding\": \"{}\",\n",
            "  \"encode_best_secs\": {:.9},\n",
            "  \"encode_mean_secs\": {:.9},\n",
            "  \"encode_records_per_sec\": {:.1},\n",
            "  \"min_encode_rate_gate\": {:.1},\n",
            "  \"score_pairs\": {},\n",
            "  \"encoded_score_ns_per_pair\": {:.3},\n",
            "  \"plaintext_score_ns_per_pair\": {:.3},\n",
            "  \"score_speedup\": {:.4},\n",
            "  \"min_score_speedup_gate\": {:.2},\n",
            "  \"blocking_bands\": {},\n",
            "  \"blocking_band_bits\": {},\n",
            "  \"blocking_completeness\": {:.6},\n",
            "  \"blocking_gold_hits\": {},\n",
            "  \"blocking_distinct_candidates\": {},\n",
            "  \"blocking_candidates_per_record\": {:.3},\n",
            "  \"blocking_secs\": {:.9},\n",
            "  \"min_completeness_gate\": {:.2},\n",
            "  \"max_cand_per_record_gate\": {:.1},\n",
            "  \"reencode_identical\": true\n",
            "}}\n"
        ),
        args.population,
        args.snapshots,
        args.seed,
        store.cluster_count(),
        rows.len(),
        gold.len(),
        args.reps,
        params.canonical(),
        encode_best,
        mean(&encode_secs),
        encode_rate,
        args.min_encode_rate,
        pairs,
        encoded_ns,
        plain_ns,
        score_speedup,
        args.min_score_speedup,
        args.bands,
        args.band_bits,
        completeness,
        sink.gold_hits(),
        distinct,
        cand_per_record,
        block_secs,
        args.min_completeness,
        args.max_cand_per_record,
    );
    std::fs::write(&args.out, json).expect("write benchmark json");
    eprintln!("wrote {}", args.out.display());
}
