//! `detect_carved`: the detection user's path (the paper's Figure 5).
//!
//! Alternative operation: an NC2 carve with the paper's shape — sample
//! every cluster, keep the largest (10 000 in the paper; the scale says
//! how many). Main operation: that carve →
//! `dataset_from_custom` → the indexed composite blocker of
//! `bench_detect` streamed into `score_candidates_streaming` with a
//! `RecordMatcher` → fixed-threshold `classify`; `evaluate` against the
//! gold standard runs outside the clock.
//!
//! It is the only workload where `detect.*` and the `similarity`
//! kernels dominate; ingest and serving do nothing here, so kernel or
//! blocker changes show here and (through full scoring) only faintly on
//! `build_cold`.

use std::collections::HashSet;
use std::time::Instant;

use nc_core::customize::CustomizeParams;
use nc_core::heterogeneity::Scope;
use nc_core::md5::{md5, Digest};
use nc_detect::blocking::{SortedNeighborhood, StreamBlocker};
use nc_detect::classify::classify;
use nc_detect::dataset::{Dataset, Pair};
use nc_detect::eval::{evaluate, score_candidates_streaming};
use nc_detect::index::{
    CompositeBlocker, IndexedQGramBlocker, IndexedTokenBlocker, SoundexBlocker,
};
use nc_detect::matcher::{MeasureKind, RecordMatcher};
use nc_detect::sink::{PairCollector, QualitySink};
use nc_serve::ServeSnapshot;
use nc_suite::bridge::{dataset_from_custom, name_group_positions};
use nc_votergen::schema::{FIRST_NAME, LAST_NAME};

use crate::harness::{median, Phase, SplitMix};
use crate::metrics::Report;
use crate::world;
use crate::{Config, Run};

/// Blocking keys, absolute document-frequency cap and SNM window, as in
/// `BENCH_detect.json`.
const BLOCKING_KEYS: usize = 5;
const STOP_CAP: usize = 192;
const SNM_WINDOW: usize = 20;
/// The fixed classification threshold `detect.f1` is reported at.
const THRESHOLD: f64 = 0.8;
/// Pairs in the similarity-kernel sample.
const KERNEL_PAIRS: usize = 100_000;

/// The indexed candidate pipeline of `bench_detect`: capped standard
/// blocking over every key, capped trigram indexes per key, and
/// phonetic buckets on the two name attributes.
fn indexed_pipeline(keys: &[usize], phonetic: &[usize]) -> CompositeBlocker {
    let mut passes: Vec<Box<dyn StreamBlocker + Send + Sync>> = Vec::new();
    passes.push(Box::new(IndexedTokenBlocker::any_token(
        keys.to_vec(),
        STOP_CAP,
    )));
    for &key in keys {
        passes.push(Box::new(IndexedQGramBlocker::trigrams_capped(
            key, STOP_CAP,
        )));
    }
    for &key in phonetic {
        passes.push(Box::new(SoundexBlocker::new(key, STOP_CAP)));
    }
    CompositeBlocker::new(passes)
}

/// Digest of a predicted pair set, order-independent.
fn pairs_digest(pairs: &HashSet<Pair>) -> Digest {
    let mut sorted: Vec<&Pair> = pairs.iter().collect();
    sorted.sort_unstable();
    let mut bytes = Vec::with_capacity(sorted.len() * 16);
    for pair in sorted {
        bytes.extend_from_slice(&(pair.0 as u64).to_le_bytes());
        bytes.extend_from_slice(&(pair.1 as u64).to_le_bytes());
    }
    md5(&bytes)
}

/// Run the workload.
pub fn run(cfg: &Config) -> Report {
    let mut run = Run::new(cfg, "detect_carved");

    let ((built, snapshot), setup_s) = world::repeat_setup(cfg, &mut run.tracer, |tracer| {
        let (built, published) = world::build(cfg, tracer);
        (built, ServeSnapshot::new(published))
    });
    let params = CustomizeParams::nc2(
        snapshot.cluster_count(),
        cfg.scale.detect_clusters,
        cfg.seed,
    );
    let attrs = Scope::Person.attrs();
    let name_group = name_group_positions(attrs);
    let phonetic: Vec<usize> = [LAST_NAME, FIRST_NAME]
        .iter()
        .filter_map(|name| attrs.iter().position(|a| a == name))
        .collect();

    let phase = Phase::start(cfg.seconds);
    let mut carve_secs = Vec::new();
    let mut detect_secs = Vec::new();
    let mut reference: Option<Digest> = None;
    let mut last: Option<(Dataset, Vec<usize>, RecordMatcher)> = None;
    let (mut records, mut candidates) = (0usize, 0usize);
    let (mut precision, mut recall, mut f1) = (0.0, 0.0, 0.0);
    while phase.more(detect_secs.len(), cfg.scale.min_reps) {
        drop(last.take());
        let start = Instant::now();
        let op = run.tracer.begin_op("detect_carved.carve");
        let custom = run
            .tracer
            .span("core.customize.carve", || snapshot.carve(&params));
        run.tracer.end(op);
        carve_secs.push(start.elapsed().as_secs_f64());

        let start = Instant::now();
        let op = run.tracer.begin_op("detect_carved.detect");
        let data = run.tracer.span("detect.dataset.build", || {
            dataset_from_custom(&custom, attrs)
        });
        let (keys, matcher) = run.tracer.span("detect.prepare", || {
            let keys = data.top_entropy_attrs(BLOCKING_KEYS.min(data.num_attrs()));
            let matcher = RecordMatcher::with_kind(
                MeasureKind::JaroWinkler,
                data.entropy_weights(),
                name_group.clone(),
            );
            (keys, matcher)
        });
        let scored = run.tracer.span("detect.matcher.score", || {
            score_candidates_streaming(&data, &indexed_pipeline(&keys, &phonetic), &matcher)
        });
        let predicted = run
            .tracer
            .span("detect.classify", || classify(&scored, THRESHOLD));
        run.tracer.end(op);
        detect_secs.push(start.elapsed().as_secs_f64());

        // Evaluation and checks, outside the clock.
        let gold = data.gold_pairs();
        let prf = evaluate(&predicted, &gold);
        let found = scored.iter().filter(|s| gold.contains(&s.pair)).count();
        let completeness = if gold.is_empty() {
            1.0
        } else {
            found as f64 / gold.len() as f64
        };
        run.checks
            .check(!data.is_empty() && completeness >= 0.99, || {
                format!(
                    "blocking completeness {completeness:.4} on {} records is below 0.99",
                    data.len()
                )
            });
        let digest = pairs_digest(&predicted);
        run.checks
            .check(digest == *reference.get_or_insert(digest), || {
                "a repetition predicted a different pair set".to_string()
            });
        (records, candidates) = (data.len(), scored.len());
        (precision, recall, f1) = (prf.precision, prf.recall, prf.f1);
        last = Some((data, keys, matcher));
    }
    let measured = phase.elapsed();
    let (data, keys, matcher) = last.expect("at least one repetition");

    let detect_s = median(&detect_secs);
    run.metrics.set("main_op_ms", detect_s * 1e3);
    run.metrics.set("alt_op_ms", median(&carve_secs) * 1e3);
    run.metrics
        .set("throughput_per_s", records as f64 / detect_s);
    run.metrics.set("setup_s", setup_s);

    if cfg.trace {
        // Side measurements: the blocker alone (with its pair
        // completeness), the Sorted-Neighborhood baseline, and the
        // similarity kernel over a fixed seeded pair sample.
        let gold = data.gold_pairs();
        let mut quality = QualitySink::new(&gold);
        run.tracer.span("detect.blocking.indexed", || {
            indexed_pipeline(&keys, &phonetic).stream_into(&data, &mut quality);
        });
        let snm_candidates = run.tracer.span("detect.blocking.snm", || {
            let mut collector = PairCollector::new();
            SortedNeighborhood {
                keys: keys.clone(),
                window: SNM_WINDOW,
            }
            .stream_into(&data, &mut collector);
            collector.finish_count()
        });
        let mut rng = SplitMix(cfg.seed);
        let n = data.len() as u64;
        let sample: Vec<(usize, usize)> = (0..KERNEL_PAIRS)
            .map(|_| (rng.below(n) as usize, rng.below(n) as usize))
            .collect();
        run.tracer.span("similarity.sample", || {
            for &(a, b) in &sample {
                std::hint::black_box(matcher.similarity(&data.records[a], &data.records[b]));
            }
        });

        run.setup_metrics(built.inputs.rows, built.archive_bytes);
        run.span_median("shard.ingest", "shard.ingest_s", 1.0);
        run.span_median("shard.publish_cold", "shard.publish_cold_s", 1.0);
        run.span_median("core.customize.carve", "core.customize.carve_ms", 1e3);
        run.span_median("detect.dataset.build", "detect.dataset.build_s", 1.0);
        run.span_median("detect.blocking.indexed", "detect.blocking.indexed_s", 1.0);
        run.metrics
            .set("detect.blocking.candidates", candidates as f64);
        run.metrics.set(
            "detect.blocking.candidates_per_record",
            candidates as f64 / records.max(1) as f64,
        );
        run.metrics
            .set("detect.blocking.completeness", quality.completeness());
        run.span_median("detect.blocking.snm", "detect.blocking.snm_s", 1.0);
        run.metrics
            .set("detect.blocking.snm_candidates", snm_candidates as f64);
        run.span_median("detect.matcher.score", "detect.matcher.score_s", 1.0);
        let score_s = run.span_secs("detect.matcher.score");
        run.metrics
            .set("detect.matcher.pairs_per_s", candidates as f64 / score_s);
        run.span_median("detect.classify", "detect.classify_s", 1.0);
        run.metrics.set("detect.precision", precision);
        run.metrics.set("detect.recall", recall);
        run.metrics.set("detect.f1", f1);
        let kernel_s = run.span_secs("similarity.sample");
        run.metrics.set(
            "similarity.ns_per_pair",
            kernel_s * 1e9 / KERNEL_PAIRS as f64,
        );
    }
    drop(built);
    run.finish(measured, &["detect_carved.detect"])
}
