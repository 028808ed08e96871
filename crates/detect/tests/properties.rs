//! Property-based tests on blocking and evaluation invariants.

use std::collections::HashSet;

use nc_detect::blocking::{
    blocking_quality, FullPairwise, SortedNeighborhood, StandardBlocking, StreamBlocker,
};
use nc_detect::classify::ScoredPair;
use nc_detect::dataset::{Dataset, Pair};
use nc_detect::eval::{evaluate, linspace, score_candidates_streaming, threshold_sweep, PrF};
use nc_detect::index::{CompositeBlocker, IndexedQGramBlocker, IndexedTokenBlocker};
use nc_detect::matcher::{MeasureKind, RecordMatcher};
use nc_detect::sink::{CandidateSink, PairCollector, MAX_TRIANGLE_BITS};
use nc_propcheck::{check, check_n, Gen};
use nc_similarity::StringSimilarity;
use nc_votergen::rng::Rng;

fn dataset(g: &mut Gen) -> Dataset {
    let mut d = Dataset::new(vec!["a".into(), "b".into()]);
    for _ in 0..g.range(2..30) {
        let values = vec![g.string("ABCDE", 1..=4), g.string("ABCDE", 1..=4)];
        d.push(values, g.range(0..6));
    }
    d
}

/// The distinct candidates of a blocker.
fn candidates(blocker: &dyn StreamBlocker, data: &Dataset) -> HashSet<Pair> {
    let mut emitted = Vec::new();
    blocker.stream_into(data, &mut emitted);
    emitted.into_iter().collect()
}

/// Every blocker's candidate set is a subset of the full pairwise
/// enumeration, and pairs are well-formed (i < j, in range).
#[test]
fn candidates_are_valid_pairs() {
    check("candidates_are_valid_pairs", |g| {
        let data = dataset(g);
        let window = g.range(2usize..8);
        let full = candidates(&FullPairwise, &data);
        let blockers: Vec<Box<dyn StreamBlocker>> = vec![
            Box::new(StandardBlocking { key: 0 }),
            Box::new(SortedNeighborhood { keys: vec![0, 1], window }),
        ];
        for blocker in &blockers {
            let cands = candidates(blocker.as_ref(), &data);
            for p in &cands {
                assert!(p.0 < p.1);
                assert!(p.1 < data.len());
                assert!(full.contains(p));
            }
        }
    });
}

/// Growing the SNM window never loses candidates.
#[test]
fn snm_window_is_monotone() {
    check("snm_window_is_monotone", |g| {
        let data = dataset(g);
        let w = g.range(2usize..6);
        let small = candidates(&SortedNeighborhood { keys: vec![0], window: w }, &data);
        let large = candidates(&SortedNeighborhood { keys: vec![0], window: w + 3 }, &data);
        assert!(small.is_subset(&large));
    });
}

/// Blocking quality is well-formed for every kind of emitter: distinct
/// ones, multi-pass SNM (whose passes rediscover each other's pairs,
/// all of them once the window covers the dataset) and a composite of
/// indexed passes. Each candidate counts once, so the reduction ratio
/// never goes below 0.
fn quality_metrics_bounded_prop(g: &mut Gen) {
    let data = dataset(g);
    // Up to past the largest dataset, so some windows cover it all.
    let window = g.range(2usize..40);
    let composite = CompositeBlocker::new(vec![
        Box::new(IndexedQGramBlocker::trigrams(0)),
        Box::new(IndexedTokenBlocker::any_token(vec![0, 1], 8)),
    ]);
    let blockers: [&dyn StreamBlocker; 5] = [
        &FullPairwise,
        &StandardBlocking { key: 1 },
        &SortedNeighborhood { keys: vec![0], window },
        &SortedNeighborhood { keys: vec![0, 1], window },
        &composite,
    ];
    for blocker in blockers {
        let q = blocking_quality(&data, blocker);
        assert!((0.0..=1.0).contains(&q.reduction_ratio), "{q:?}");
        assert!((0.0..=1.0).contains(&q.pair_completeness), "{q:?}");
        let mut collector = PairCollector::new();
        blocker.stream_into(&data, &mut collector);
        assert_eq!(q.candidates, collector.finish_count());
    }
}

#[test]
fn quality_metrics_bounded() {
    check("quality_metrics_bounded", quality_metrics_bounded_prop);
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn quality_metrics_bounded_wide() {
    check_n("quality_metrics_bounded", 3_000, quality_metrics_bounded_prop);
}

/// The most records whose pair triangle [`PairCollector::with_records`]
/// keeps as a bitmap.
const TRIANGLE_RECORDS: usize = 4_096;
const _: () = assert!(
    TRIANGLE_RECORDS * (TRIANGLE_RECORDS - 1) / 2 <= MAX_TRIANGLE_BITS
        && (TRIANGLE_RECORDS + 1) * TRIANGLE_RECORDS / 2 > MAX_TRIANGLE_BITS
);

/// A collector sized for `n` records and the packed one of
/// [`PairCollector::new`] agree on a stream of valid pairs with
/// duplicates: the same distinct pairs in the same order, the same
/// `emitted()`, `finish_count()` and iterator lengths — for `n` on both
/// sides of the bitmap's cap, and for streams long enough to compact
/// the packed buffer.
fn collector_forms_agree_prop(g: &mut Gen) {
    let n = if g.bool() {
        g.range(2usize..80)
    } else {
        g.range(TRIANGLE_RECORDS - 6..TRIANGLE_RECORDS + 6)
    };
    let pool = g.vec(1..60, |g| {
        let b = if g.range(0..4) == 0 { n - 1 } else { g.range(1..n) };
        Pair(g.range(0..b), b)
    });
    let pushes = if g.range(0..16) == 0 { 70_000 } else { g.range(0..400) };
    let stream: Vec<Pair> = (0..pushes).map(|_| g.pick(&pool)).collect();
    // One pass over the stream feeds every collector: the sized form at
    // the even places, one collector per way of finishing it.
    let mut collectors = [(); 5].map(|_| PairCollector::new());
    for c in collectors.iter_mut().step_by(2) {
        *c = PairCollector::with_records(n);
    }
    for &pair in &stream {
        for c in &mut collectors {
            c.push(pair);
        }
    }
    for c in &collectors {
        assert_eq!(c.emitted(), stream.len() as u64);
    }
    let [sized, packed, sized_count, packed_count, sized_pairs] = collectors;
    let (mut sized, mut packed) = (sized.into_pairs(), packed.into_pairs());
    while packed.len() > 0 {
        assert_eq!(sized.len(), packed.len(), "n = {n}");
        assert_eq!(sized.next(), packed.next(), "n = {n}");
    }
    assert_eq!((sized.len(), sized.next()), (0, None));
    let distinct: HashSet<Pair> = stream.iter().copied().collect();
    assert_eq!(sized_count.finish_count(), distinct.len());
    assert_eq!(packed_count.finish_count(), distinct.len());
    let pairs = sized_pairs.finish();
    assert!(pairs.windows(2).all(|w| w[0] < w[1]));
    assert_eq!(pairs.into_iter().collect::<HashSet<_>>(), distinct);
}

#[test]
fn collector_forms_agree() {
    check("collector_forms_agree", collector_forms_agree_prop);
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn collector_forms_agree_wide() {
    check_n("collector_forms_agree", 3_000, collector_forms_agree_prop);
}

/// Precision and recall are in [0, 1] and F1 is their harmonic mean.
#[test]
fn prf_invariants() {
    check("prf_invariants", |g| {
        let tp = g.range(0usize..50);
        let extra_pred = g.range(0usize..50);
        let extra_gold = g.range(0usize..50);
        let prf = PrF::from_counts(tp, tp + extra_pred, tp + extra_gold);
        assert!((0.0..=1.0).contains(&prf.precision));
        assert!((0.0..=1.0).contains(&prf.recall));
        assert!((0.0..=1.0).contains(&prf.f1));
        if prf.precision + prf.recall > 0.0 {
            let hm = 2.0 * prf.precision * prf.recall / (prf.precision + prf.recall);
            assert!((prf.f1 - hm).abs() < 1e-12);
        }
    });
}

/// Recall is non-increasing in the threshold over any scored list.
#[test]
fn sweep_recall_monotone() {
    check("sweep_recall_monotone", |g| {
        let scores = g.vec(1..40, |g| g.range(0.0..1.0));
        let gold_mask = g.vec(1..40, Gen::bool);
        let mut scored: Vec<ScoredPair> = scores
            .iter()
            .enumerate()
            .map(|(i, &s)| ScoredPair { pair: Pair::new(2 * i, 2 * i + 1), score: s })
            .collect();
        scored.sort_by(|a, b| b.score.total_cmp(&a.score));
        let gold: HashSet<Pair> = scored
            .iter()
            .zip(gold_mask.iter().cycle())
            .filter(|(_, &g)| g)
            .map(|(s, _)| s.pair)
            .collect();
        let points = threshold_sweep(&scored, &gold, &linspace(0.0, 1.0, 11));
        for w in points.windows(2) {
            assert!(w[0].prf.recall >= w[1].prf.recall - 1e-12);
        }
        // Threshold 0 predicts everything.
        assert_eq!(points[0].prf.recall, 1.0);
    });
}

/// The sweep agrees with direct evaluation at every threshold.
#[test]
fn sweep_agrees_with_direct_eval() {
    check("sweep_agrees_with_direct_eval", |g| {
        let scores = g.vec(1..30, |g| g.range(0.0..1.0));
        let t = g.range(0.0f64..1.0);
        let mut scored: Vec<ScoredPair> = scores
            .iter()
            .enumerate()
            .map(|(i, &s)| ScoredPair { pair: Pair::new(2 * i, 2 * i + 1), score: s })
            .collect();
        scored.sort_by(|a, b| b.score.total_cmp(&a.score));
        let gold: HashSet<Pair> = scored.iter().take(5).map(|s| s.pair).collect();
        let fast = threshold_sweep(&scored, &gold, &[t])[0].prf;
        let predicted: HashSet<Pair> = scored
            .iter()
            .filter(|s| s.score >= t)
            .map(|s| s.pair)
            .collect();
        let slow = evaluate(&predicted, &gold);
        assert!((fast.precision - slow.precision).abs() < 1e-12);
        assert!((fast.recall - slow.recall).abs() < 1e-12);
    });
}

/// The prepared form scores every pair to the bit as
/// `RecordMatcher::similarity` does: all three measures, name group
/// on and off, over values that are missing, padded, repeated and
/// not ASCII.
#[test]
fn prepared_scores_equal_per_pair_scores() {
    // Each case scores every pair of up to 40 records twelve times over.
    check_n("prepared_scores_equal_per_pair_scores", 24, |g| {
        let data = register(g);
        let weights = weights(g, data.num_attrs());
        for kind in MeasureKind::ALL {
            for group in [vec![], name_group(g, data.num_attrs())] {
                let matcher = RecordMatcher::with_kind(kind, weights.clone(), group.clone());
                let mut prepared = matcher.prepare(&data);
                // Twice: the second pass reads what the first remembered.
                for _ in 0..2 {
                    for a in 0..data.len() {
                        for b in a + 1..data.len() {
                            let direct = matcher.similarity(&data.records[a], &data.records[b]);
                            assert_eq!(
                                prepared.score(Pair(a, b)).to_bits(),
                                direct.to_bits(),
                                "{:?} group {:?} pair ({}, {})", kind, group, a, b
                            );
                        }
                    }
                }
            }
        }
    });
}

/// Streamed scoring gives each distinct candidate once, with the
/// matcher's own score to the bit, best first and ties by pair.
#[test]
fn scoring_drivers_agree_to_the_bit() {
    check("scoring_drivers_agree_to_the_bit", |g| {
        let window = g.range(2usize..6);
        let data = register(g);
        let matcher = RecordMatcher::with_kind(
            g.pick(&MeasureKind::ALL),
            weights(g, data.num_attrs()),
            name_group(g, data.num_attrs()),
        );
        let snm = SortedNeighborhood { keys: vec![0, 1], window };
        let streamed = score_candidates_streaming(&data, &snm, &matcher);
        let pairs: HashSet<Pair> = streamed.iter().map(|s| s.pair).collect();
        assert_eq!(pairs.len(), streamed.len());
        assert_eq!(pairs, candidates(&snm, &data));
        for s in &streamed {
            let direct = matcher.similarity(&data.records[s.pair.0], &data.records[s.pair.1]);
            assert_eq!(s.score.to_bits(), direct.to_bits());
        }
        assert!(streamed
            .windows(2)
            .all(|w| w[0].score > w[1].score || (w[0].score == w[1].score && w[0].pair < w[1].pair)));
    });
}

/// Values a register field takes: repeated, confusable, missing, blank,
/// padded, not ASCII.
const POOL: [&str; 16] = [
    "ANNA", "ANNE", "SMITH", "SMYTH", "", "  ", " ANNA", "SMITH  ", "JOSÉ", "JOSE", "MÜLLER",
    "ÅSA", "李 娜", "O'NEIL", "MARY ANN", "A",
];

/// 2–40 records over 3–6 attributes. Each attribute draws from its own
/// slice of [`POOL`], so some repeat heavily (memoised) and others
/// rarely; the last is key-like and never repeats.
fn register(g: &mut Gen) -> Dataset {
    let attrs = 3 + g.range(0..4);
    let mut data = Dataset::new((0..attrs).map(|k| format!("a{k}")).collect());
    let spans: Vec<usize> = (0..attrs).map(|_| 1 + g.range(0..POOL.len())).collect();
    for i in 0..2 + g.range(0..39) {
        let mut values: Vec<String> = spans
            .iter()
            .map(|&span| g.pick(&POOL[..span]).to_owned())
            .collect();
        values[attrs - 1] = format!("K{i}");
        data.push(values, g.range(0..8));
    }
    data
}

/// Non-negative weights, some of them zero.
fn weights(g: &mut Gen, attrs: usize) -> Vec<f64> {
    (0..attrs).map(|_| g.range(0..4) as f64 * 0.5).collect()
}

/// Two or three distinct attributes, in any order.
fn name_group(g: &mut Gen, attrs: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..attrs).collect();
    let mut group = Vec::new();
    for _ in 0..2 + g.range(0..2) {
        group.push(all.swap_remove(g.range(0..all.len())));
    }
    group
}

/// A name dictionary past the memo's bound (more than 512 values, each
/// occurring four times on average, so it is memoised, and more ordered
/// value pairs than the memo has slots, so it evicts) beside a small
/// one tabulated in full and a key-like one that is not memoised.
#[test]
fn a_dictionary_past_the_memo_bound_changes_no_score() {
    const NAMES: usize = 530;
    const RECORDS: usize = 720;
    let mut rng = Rng::seed_from_u64(2021);
    let mut data = Dataset::new(
        ["first", "midl", "last", "city", "id"].map(String::from).to_vec(),
    );
    for i in 0..RECORDS {
        // Every name occurs (3 i + k covers the pool); the rest is drawn.
        let name = |n: usize| format!("N{}X{}", n % NAMES, (n % NAMES) * 7919 % 1000);
        let values = vec![
            name(3 * i),
            name(if rng.gen_range(0..2) == 0 { 3 * i + 1 } else { rng.gen_range(0..NAMES) }),
            name(if rng.gen_range(0..2) == 0 { 3 * i + 2 } else { rng.gen_range(0..NAMES) }),
            format!("CITY{}", rng.gen_range(0..20)),
            format!("ID{i}"),
        ];
        data.push(values, i / 2);
    }
    // The benchmark's measure, and one that is plainly not symmetric:
    // a memo keyed on the unordered value pair fails the second.
    let measures: [Box<dyn StringSimilarity + Send + Sync>; 2] =
        [MeasureKind::JaroWinkler.instantiate(), Box::new(ShareOfFirst)];
    for measure in measures {
        let matcher = RecordMatcher::new(measure, data.entropy_weights(), vec![0, 1, 2]);
        let mut prepared = matcher.prepare(&data);
        let mut checked = 0usize;
        for a in 0..RECORDS {
            for b in a + 1..RECORDS {
                let score = prepared.score(Pair(a, b));
                // Every pair goes through the memo; every seventh is
                // compared with the per-pair entry point.
                if (a + b) % 7 == 0 {
                    let direct = matcher.similarity(&data.records[a], &data.records[b]);
                    assert_eq!(score.to_bits(), direct.to_bits(), "pair ({a}, {b})");
                    checked += 1;
                }
            }
        }
        assert!(checked > 30_000);
    }
}

/// The share of `a` in the two lengths: a measure whose value depends
/// on the order of its arguments, which `StringSimilarity` allows.
struct ShareOfFirst;

impl StringSimilarity for ShareOfFirst {
    fn sim(&self, a: &str, b: &str) -> f64 {
        a.len() as f64 / (a.len() + b.len()).max(1) as f64
    }
}
