//! Evaluation: precision, recall, F1 and threshold sweeps (Figure 5).

use std::collections::HashSet;

use crate::blocking::StreamBlocker;
use crate::classify::ScoredPair;
use crate::dataset::{Dataset, Pair};
use crate::matcher::RecordMatcher;
use crate::sink::PairCollector;

/// Precision / recall / F1 of a pair decision against a gold standard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrF {
    /// Precision: TP / (TP + FP); defined as 1 when nothing is predicted.
    pub precision: f64,
    /// Recall: TP / (TP + FN); defined as 1 when the gold set is empty.
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
}

impl PrF {
    /// Compute from counts.
    pub fn from_counts(tp: usize, predicted: usize, gold: usize) -> PrF {
        let precision = if predicted == 0 {
            1.0
        } else {
            tp as f64 / predicted as f64
        };
        let recall = if gold == 0 { 1.0 } else { tp as f64 / gold as f64 };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        PrF { precision, recall, f1 }
    }
}

/// Evaluate a predicted pair set against the gold pairs.
pub fn evaluate(predicted: &HashSet<Pair>, gold: &HashSet<Pair>) -> PrF {
    let tp = predicted.iter().filter(|p| gold.contains(p)).count();
    PrF::from_counts(tp, predicted.len(), gold.len())
}

/// Score every candidate pair of a dataset with a matcher, best score
/// first; equal scores are ordered by pair.
///
/// The blocker streams into a [`PairCollector`] sized for the dataset
/// ([`PairCollector::with_records`]: a bitmap over the pair triangle up
/// to 4 096 records), which drops the pairs a multi-pass blocker
/// rediscovers. The dataset is interned once ([`RecordMatcher::prepare`])
/// and every pair is scored through it; the scores are bit for bit
/// those of [`RecordMatcher::similarity`]. The pairs are read in
/// ascending order straight out of the collector: one record's
/// candidates follow each other, so the memo rows of its values stay
/// cached while they are scored.
pub fn score_candidates_streaming(
    data: &Dataset,
    blocker: &dyn StreamBlocker,
    matcher: &RecordMatcher,
) -> Vec<ScoredPair> {
    let mut collector = PairCollector::with_records(data.len());
    blocker.stream_into(data, &mut collector);
    let mut prepared = matcher.prepare(data);
    let mut scored: Vec<ScoredPair> = collector
        .into_pairs()
        .map(|pair| ScoredPair {
            pair,
            score: prepared.score(pair),
        })
        .collect();
    // A total order (no two entries share a pair), so an unstable sort
    // gives the stable sort's result without its scratch buffer.
    scored.sort_unstable_by(|a, b| b.score.total_cmp(&a.score).then(a.pair.cmp(&b.pair)));
    scored
}

/// One point of an F1-vs-threshold curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Similarity threshold.
    pub threshold: f64,
    /// Quality at that threshold.
    pub prf: PrF,
}

/// Sweep classification thresholds over pre-scored pairs.
///
/// `scored` must be sorted by descending score (as produced by
/// [`score_candidates_streaming`]); the sweep then costs
/// `O(|scored| + |thresholds| log |scored|)` via cumulative
/// true-positive counts.
pub fn threshold_sweep(
    scored: &[ScoredPair],
    gold: &HashSet<Pair>,
    thresholds: &[f64],
) -> Vec<SweepPoint> {
    debug_assert!(
        scored.windows(2).all(|w| w[0].score >= w[1].score),
        "scored pairs must be sorted by descending score"
    );
    // cumulative_tp[k] = gold hits among the first k pairs.
    let mut cumulative_tp = Vec::with_capacity(scored.len() + 1);
    cumulative_tp.push(0usize);
    let mut tp = 0usize;
    for s in scored {
        if gold.contains(&s.pair) {
            tp += 1;
        }
        cumulative_tp.push(tp);
    }
    thresholds
        .iter()
        .map(|&t| {
            // Number of pairs with score >= t (partition point in the
            // descending order).
            let k = scored.partition_point(|s| s.score >= t);
            SweepPoint {
                threshold: t,
                prf: PrF::from_counts(cumulative_tp[k], k, gold.len()),
            }
        })
        .collect()
}

/// Evenly spaced thresholds over `[lo, hi]`.
pub fn linspace(lo: f64, hi: f64, steps: usize) -> Vec<f64> {
    assert!(steps >= 2, "need at least two points");
    (0..steps)
        .map(|i| lo + (hi - lo) * i as f64 / (steps - 1) as f64)
        .collect()
}

/// The best sweep point by F1.
pub fn best_f1(points: &[SweepPoint]) -> Option<SweepPoint> {
    points
        .iter()
        .copied()
        .max_by(|a, b| a.prf.f1.total_cmp(&b.prf.f1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::FullPairwise;
    use crate::matcher::MeasureKind;

    #[test]
    fn prf_counts() {
        let prf = PrF::from_counts(8, 10, 16);
        assert!((prf.precision - 0.8).abs() < 1e-12);
        assert!((prf.recall - 0.5).abs() < 1e-12);
        assert!((prf.f1 - 2.0 * 0.8 * 0.5 / 1.3).abs() < 1e-12);
    }

    #[test]
    fn prf_degenerate_cases() {
        let nothing = PrF::from_counts(0, 0, 5);
        assert_eq!(nothing.precision, 1.0);
        assert_eq!(nothing.recall, 0.0);
        assert_eq!(nothing.f1, 0.0);
        let no_gold = PrF::from_counts(0, 0, 0);
        assert_eq!(no_gold.f1, 1.0);
    }

    #[test]
    fn evaluate_pair_sets() {
        let predicted: HashSet<Pair> = [Pair(0, 1), Pair(2, 3)].into();
        let gold: HashSet<Pair> = [Pair(0, 1), Pair(4, 5)].into();
        let prf = evaluate(&predicted, &gold);
        assert!((prf.precision - 0.5).abs() < 1e-12);
        assert!((prf.recall - 0.5).abs() < 1e-12);
    }

    fn toy_dataset() -> Dataset {
        let mut d = Dataset::new(vec!["first".into(), "last".into()]);
        d.push(vec!["ANNA".into(), "SMITH".into()], 0);
        d.push(vec!["ANNA".into(), "SMYTH".into()], 0);
        d.push(vec!["BOB".into(), "JONES".into()], 1);
        d.push(vec!["ROBERT".into(), "KRAMER".into()], 2);
        d
    }

    #[test]
    fn score_candidates_is_sorted_descending() {
        let d = toy_dataset();
        let m = RecordMatcher::with_kind(MeasureKind::JaroWinkler, vec![1.0, 1.0], vec![]);
        let scored = score_candidates_streaming(&d, &FullPairwise, &m);
        assert_eq!(scored.len(), 6);
        assert!(scored.windows(2).all(|w| w[0].score >= w[1].score));
        // The true duplicate must rank first.
        assert_eq!(scored[0].pair, Pair(0, 1));
    }

    #[test]
    fn sweep_tracks_threshold_tradeoff() {
        let d = toy_dataset();
        let m = RecordMatcher::with_kind(MeasureKind::JaroWinkler, vec![1.0, 1.0], vec![]);
        let scored = score_candidates_streaming(&d, &FullPairwise, &m);
        let gold = d.gold_pairs();
        let points = threshold_sweep(&scored, &gold, &linspace(0.0, 1.0, 21));
        // At threshold 0 everything is predicted → recall 1, low precision.
        assert_eq!(points[0].prf.recall, 1.0);
        assert!(points[0].prf.precision < 0.5);
        // Recall is non-increasing with the threshold.
        for w in points.windows(2) {
            assert!(w[0].prf.recall >= w[1].prf.recall);
        }
        // Some threshold achieves a perfect F1 on this toy data.
        let best = best_f1(&points).unwrap();
        assert!((best.prf.f1 - 1.0).abs() < 1e-9, "{best:?}");
    }

    #[test]
    fn sweep_matches_naive_classification() {
        let d = toy_dataset();
        let m = RecordMatcher::with_kind(MeasureKind::TrigramJaccard, vec![1.0, 1.0], vec![]);
        let scored = score_candidates_streaming(&d, &FullPairwise, &m);
        let gold = d.gold_pairs();
        for &t in &[0.3, 0.5, 0.7, 0.9] {
            let fast = threshold_sweep(&scored, &gold, &[t])[0].prf;
            let slow = evaluate(&crate::classify::classify(&scored, t), &gold);
            assert!((fast.f1 - slow.f1).abs() < 1e-12);
            assert!((fast.precision - slow.precision).abs() < 1e-12);
        }
    }

    #[test]
    fn streaming_scoring_matches_materialized_scoring() {
        // The reference materializes the distinct candidates, scores
        // each pair on its own and sorts: what streaming must equal.
        let materialized = |d: &Dataset, blocker: &dyn StreamBlocker, m: &RecordMatcher| {
            let mut emitted = Vec::new();
            blocker.stream_into(d, &mut emitted);
            let pairs: HashSet<Pair> = emitted.into_iter().collect();
            let mut scored: Vec<(Pair, u64)> = pairs
                .into_iter()
                .map(|p| (p, m.similarity(&d.records[p.0], &d.records[p.1]).to_bits()))
                .collect();
            scored.sort_by(|a, b| f64::from_bits(b.1).total_cmp(&f64::from_bits(a.1)).then(a.0.cmp(&b.0)));
            scored
        };
        let bits = |scored: &[ScoredPair]| -> Vec<(Pair, u64)> {
            scored.iter().map(|s| (s.pair, s.score.to_bits())).collect()
        };
        let d = toy_dataset();
        let snm = crate::blocking::SortedNeighborhood { keys: vec![0, 1], window: 3 };
        for kind in MeasureKind::ALL {
            let m = RecordMatcher::with_kind(kind, vec![1.0, 1.0], vec![0, 1]);
            // Distinct emitter (FullPairwise) and a multi-pass emitter.
            for blocker in [&FullPairwise as &dyn StreamBlocker, &snm] {
                let streamed = score_candidates_streaming(&d, blocker, &m);
                assert_eq!(bits(&streamed), materialized(&d, blocker, &m));
            }
        }
    }

    #[test]
    fn scores_are_the_matchers_and_ties_order_by_pair() {
        let mut d = toy_dataset();
        // Two more copies of record 0: three pairs tie at 1.0.
        d.push(vec!["ANNA".into(), "SMITH".into()], 0);
        d.push(vec!["ANNA".into(), "SMITH".into()], 0);
        let m = RecordMatcher::with_kind(MeasureKind::JaroWinkler, vec![1.0, 2.0], vec![]);
        let scored = score_candidates_streaming(&d, &FullPairwise, &m);
        assert_eq!(
            scored[..3].iter().map(|s| s.pair).collect::<Vec<_>>(),
            [Pair(0, 4), Pair(0, 5), Pair(4, 5)]
        );
        for s in &scored {
            let direct = m.similarity(&d.records[s.pair.0], &d.records[s.pair.1]);
            assert_eq!(s.score.to_bits(), direct.to_bits(), "{:?}", s.pair);
        }
    }

    #[test]
    fn linspace_endpoints() {
        let v = linspace(0.5, 0.9, 5);
        assert_eq!(v.len(), 5);
        assert!((v[0] - 0.5).abs() < 1e-12);
        assert!((v[4] - 0.9).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn linspace_needs_two_points() {
        linspace(0.0, 1.0, 1);
    }
}
