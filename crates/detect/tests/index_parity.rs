//! Property tests of the indexed blocking layer: scan/index parity,
//! sink dedup semantics, parallel determinism and the count-filter
//! admission guarantee.

use std::collections::HashSet;

use nc_detect::blocking::{Blocker, SortedNeighborhood, StreamBlocker};
use nc_detect::dataset::{Dataset, Pair};
use nc_detect::index::{
    FreqVectorBlocker, IndexedQGramBlocker, IndexedTokenBlocker, OverlapBound, SoundexBlocker,
    StopPolicy,
};
use nc_detect::qgram_blocking::QGramBlocking;
use nc_detect::sink::{CandidateSink, PairCollector, QualitySink};
use nc_propcheck::{check, Gen};

/// Random datasets over a small alphabet (high gram collision rate) —
/// one noisy name-like attribute and one short code attribute.
fn dataset(g: &mut Gen) -> Dataset {
    let mut d = Dataset::new(vec!["name".into(), "code".into()]);
    for _ in 0..g.range(2..40) {
        let values = vec![g.string("ABCD", 0..=6), g.string("ABC", 1..=3)];
        d.push(values, g.range(0..8));
    }
    d
}

/// Datasets with some unicode and whitespace mixed in.
fn messy_dataset(g: &mut Gen) -> Dataset {
    let mut d = Dataset::new(vec!["v".into()]);
    for _ in 0..g.range(2..25) {
        let values = vec![g.string("abcdÄö ", 0..=8)];
        d.push(values, g.range(0..6));
    }
    d
}

/// The indexed q-gram blocker emits exactly the candidate set of
/// the scan-based q-gram blocker under the same fraction policy.
#[test]
fn indexed_qgram_equals_scan_qgram() {
    check("indexed_qgram_equals_scan_qgram", |g| {
        let data = dataset(g);
        let q = g.range(1usize..4);
        let frac = g.range(0.02f64..1.0);
        let scan = QGramBlocking { key: 0, q, max_block_fraction: frac }.candidates(&data);
        let indexed = IndexedQGramBlocker {
            key: 0,
            q,
            stop: StopPolicy::Fraction(frac),
            threads: 1,
        }
        .candidates(&data);
        assert_eq!(scan, indexed);
    });
}

/// Scan/index parity holds on messy (unicode, whitespace) values.
#[test]
fn indexed_qgram_parity_on_messy_values() {
    check("indexed_qgram_parity_on_messy_values", |g| {
        let data = messy_dataset(g);
        let q = g.range(1usize..4);
        let scan = QGramBlocking { key: 0, q, max_block_fraction: 0.5 }.candidates(&data);
        let indexed = IndexedQGramBlocker {
            key: 0,
            q,
            stop: StopPolicy::Fraction(0.5),
            threads: 1,
        }
        .candidates(&data);
        assert_eq!(scan, indexed);
    });
}

/// The deduplicating collector has exactly `HashSet<Pair>` member
/// semantics for any emission sequence, and its sorted output is
/// duplicate-free.
#[test]
fn collector_dedup_equals_hashset() {
    check("collector_dedup_equals_hashset", |g| {
        let raw = g.vec(0..300, |g| (g.range(0..30usize), g.range(0..30usize)));
        let pairs: Vec<Pair> = raw
            .into_iter()
            .filter(|(a, b)| a != b)
            .map(|(a, b)| Pair::new(a, b))
            .collect();
        let mut set: HashSet<Pair> = HashSet::new();
        let mut collector = PairCollector::new();
        for &p in &pairs {
            set.push(p);
            collector.push(p);
        }
        assert_eq!(collector.emitted(), pairs.len() as u64);
        let sorted = collector.finish();
        assert!(sorted.windows(2).all(|w| w[0] < w[1]));
        let as_set: HashSet<Pair> = sorted.into_iter().collect();
        assert_eq!(as_set, set);
    });
}

/// Every indexed blocker's parallel probe is bit-identical to the
/// sequential one for threads ∈ {1, 2, 4}: same pairs, same order.
#[test]
fn parallel_probe_bit_identical() {
    check("parallel_probe_bit_identical", |g| {
        let data = dataset(g);
        let q = g.range(1usize..4);
        type MakeBlocker = Box<dyn Fn(usize) -> Box<dyn StreamBlocker>>;
        let blockers: Vec<MakeBlocker> = vec![
            Box::new(move |t| Box::new(IndexedQGramBlocker {
                key: 0, q, stop: StopPolicy::Fraction(0.3), threads: t,
            })),
            Box::new(|t| Box::new(IndexedTokenBlocker {
                keys: vec![0, 1], min_overlap: 1, stop: StopPolicy::Absolute(16), threads: t,
            })),
            Box::new(|t| Box::new(SoundexBlocker {
                key: 0, stop: StopPolicy::Absolute(16), threads: t,
            })),
            Box::new(move |t| Box::new(FreqVectorBlocker {
                key: 0, q, bound: OverlapBound::EditDistance(1), stop: StopPolicy::None, threads: t,
            })),
        ];
        for make in &blockers {
            let mut seq: Vec<Pair> = Vec::new();
            make(1).stream_into(&data, &mut seq);
            for threads in [2usize, 4] {
                let mut par: Vec<Pair> = Vec::new();
                make(threads).stream_into(&data, &mut par);
                assert_eq!(&seq, &par, "threads={}", threads);
            }
        }
    });
}

/// Distinct emitters really emit each pair once: raw emission count
/// equals the distinct candidate count.
#[test]
fn distinct_emitters_emit_once() {
    check("distinct_emitters_emit_once", |g| {
        let data = dataset(g);
        let q = g.range(1usize..4);
        let blockers: Vec<Box<dyn StreamBlocker>> = vec![
            Box::new(IndexedQGramBlocker { key: 0, q, stop: StopPolicy::Fraction(0.4), threads: 1 }),
            Box::new(IndexedTokenBlocker { keys: vec![0], min_overlap: 1, stop: StopPolicy::None, threads: 1 }),
            Box::new(SoundexBlocker { key: 0, stop: StopPolicy::None, threads: 1 }),
            Box::new(FreqVectorBlocker {
                key: 0, q, bound: OverlapBound::Ratio(0.5), stop: StopPolicy::None, threads: 1,
            }),
        ];
        for b in &blockers {
            assert!(b.emits_distinct());
            let mut raw: Vec<Pair> = Vec::new();
            b.stream_into(&data, &mut raw);
            let distinct: HashSet<Pair> = raw.iter().copied().collect();
            assert_eq!(raw.len(), distinct.len());
            for p in &raw {
                assert!(p.0 < p.1 && p.1 < data.len());
            }
        }
    });
}

/// The q-gram count filter admits every pair within the configured
/// edit distance when nothing is stop-pruned (no false dismissal).
#[test]
fn count_filter_admits_within_distance() {
    check("count_filter_admits_within_distance", |g| {
        let data = dataset(g);
        let k = g.range(1usize..3);
        let b = FreqVectorBlocker {
            key: 0,
            q: 2,
            bound: OverlapBound::EditDistance(k),
            stop: StopPolicy::None,
            threads: 1,
        };
        let candidates = b.candidates(&data);
        for i in 0..data.len() {
            for j in 0..i {
                let a = data.records[j].values[0].trim().to_uppercase();
                let c = data.records[i].values[0].trim().to_uppercase();
                if a.is_empty() || c.is_empty() {
                    continue; // empty values join no block by design
                }
                // The admission guarantee requires values long enough
                // that k edits cannot destroy every gram (see
                // `OverlapBound::EditDistance`).
                let grams = |s: &str| (s.chars().count().max(1) - 1).max(1) as i64;
                if grams(&a).max(grams(&c)) - (k as i64 * 2) < 1 {
                    continue;
                }
                if nc_similarity::damerau::distance(&a, &c) <= k {
                    assert!(
                        candidates.contains(&Pair(j, i)),
                        "({}, {}) within distance {} but dismissed", a, c, k
                    );
                }
            }
        }
    });
}

/// Streamed quality accounting agrees with materialized accounting
/// for the multi-pass SNM baseline.
#[test]
fn quality_sink_matches_materialized_completeness() {
    check("quality_sink_matches_materialized_completeness", |g| {
        let data = dataset(g);
        let window = g.range(2usize..6);
        let snm = SortedNeighborhood { keys: vec![0, 1], window };
        let materialized = snm.candidates(&data);
        let gold = data.gold_pairs();
        let mut sink = QualitySink::new(&gold);
        snm.stream_into(&data, &mut sink);
        let found = gold.iter().filter(|p| materialized.contains(p)).count();
        assert_eq!(sink.gold_hits(), found);
        let mut collector = PairCollector::new();
        snm.stream_into(&data, &mut collector);
        let collected: HashSet<Pair> = collector.finish().into_iter().collect();
        assert_eq!(collected, materialized);
    });
}
