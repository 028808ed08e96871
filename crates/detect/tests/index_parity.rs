//! Property tests of the indexed blocking layer: q-gram blocking
//! against a naive reference, sink dedup semantics and parallel
//! determinism.

use std::collections::{HashMap, HashSet};

use nc_detect::blocking::{SortedNeighborhood, StreamBlocker};
use nc_detect::dataset::{Dataset, Pair};
use nc_detect::index::{IndexedQGramBlocker, IndexedTokenBlocker, SoundexBlocker, StopPolicy};
use nc_detect::sink::{CandidateSink, PairCollector, QualitySink};
use nc_propcheck::{check, check_n, Gen};

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

/// The q-gram candidate set computed the obvious way, sharing no code
/// with the index: each record's set of `q`-char windows of its trimmed,
/// uppercased value (the whole value when shorter than `q`, nothing
/// when empty), each gram's document frequency, and every pair that
/// shares a gram posted by at most `ceil(n · fraction).max(2)` records.
fn naive_qgram_candidates(data: &Dataset, key: usize, q: usize, fraction: f64) -> HashSet<Pair> {
    let grams: Vec<HashSet<String>> = data
        .records
        .iter()
        .map(|r| {
            let chars: Vec<char> = r.values[key].trim().to_uppercase().chars().collect();
            let windows: Vec<String> = if chars.len() < q {
                vec![chars.iter().collect()]
            } else {
                chars.windows(q).map(|w| w.iter().collect()).collect()
            };
            windows.into_iter().filter(|w| !w.is_empty()).collect()
        })
        .collect();
    let mut df: HashMap<&str, usize> = HashMap::new();
    for set in &grams {
        for gram in set {
            *df.entry(gram).or_default() += 1;
        }
    }
    let cap = ((data.len() as f64 * fraction).ceil() as usize).max(2);
    let mut out = HashSet::new();
    for i in 0..data.len() {
        for j in 0..i {
            if grams[i].iter().any(|g| df[g.as_str()] <= cap && grams[j].contains(g)) {
                out.insert(Pair(j, i));
            }
        }
    }
    out
}

/// The indexed q-gram blocker under a fraction cap emits each pair of
/// the naive reference once, and nothing else.
fn qgram_parity(data: &Dataset, g: &mut Gen) {
    let q = g.range(1usize..4);
    let fraction = g.range(0.02f64..1.0);
    let blocker = IndexedQGramBlocker {
        key: 0,
        q,
        stop: StopPolicy::Fraction(fraction),
        threads: 1,
    };
    let mut emitted: Vec<Pair> = Vec::new();
    blocker.stream_into(data, &mut emitted);
    let indexed: HashSet<Pair> = emitted.iter().copied().collect();
    assert_eq!(indexed.len(), emitted.len(), "q={q}: a pair emitted twice");
    assert_eq!(indexed, naive_qgram_candidates(data, 0, q, fraction), "q={q} fraction={fraction}");
}

fn qgram_parity_on_names(g: &mut Gen) {
    let data = dataset(g);
    qgram_parity(&data, g);
}

fn qgram_parity_on_messy(g: &mut Gen) {
    let data = messy_dataset(g);
    qgram_parity(&data, g);
}

/// Indexed q-gram blocking equals a scan of every pair (naive
/// reference) on name-like values.
#[test]
fn indexed_qgram_equals_scan_qgram() {
    check("indexed_qgram_equals_scan_qgram", qgram_parity_on_names);
}

/// The same on messy (unicode, lowercase, whitespace) values.
#[test]
fn indexed_qgram_parity_on_messy_values() {
    check("indexed_qgram_parity_on_messy_values", qgram_parity_on_messy);
}

// The wide twins run 3 000 cases under the tier-1 names. Case seeds
// derive from the name, so they run the tier-1 cases first, then more.
#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn indexed_qgram_equals_scan_qgram_wide() {
    check_n("indexed_qgram_equals_scan_qgram", 3_000, qgram_parity_on_names);
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn indexed_qgram_parity_on_messy_values_wide() {
    check_n("indexed_qgram_parity_on_messy_values", 3_000, qgram_parity_on_messy);
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
            set.insert(p);
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

/// Streamed quality accounting agrees with materialized accounting
/// for the multi-pass SNM baseline.
#[test]
fn quality_sink_matches_materialized_completeness() {
    check("quality_sink_matches_materialized_completeness", |g| {
        let data = dataset(g);
        let window = g.range(2usize..6);
        let snm = SortedNeighborhood { keys: vec![0, 1], window };
        let mut emitted: Vec<Pair> = Vec::new();
        snm.stream_into(&data, &mut emitted);
        let materialized: HashSet<Pair> = emitted.into_iter().collect();
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
