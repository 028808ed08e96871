//! Search-space reduction (blocking).
//!
//! The paper applies "a multi pass of the Sorted Neighborhood Method …
//! one pass for each of the five most unique attributes and a window of
//! size w = 20" and verifies that no true duplicate is lost. Standard
//! blocking and full pairwise enumeration are provided as baselines for
//! the blocking ablation.
//!
//! Every blocker implements [`StreamBlocker`] and pushes candidate
//! pairs into a [`CandidateSink`] as they are found; nothing
//! materializes a candidate set unless the sink does. The indexed
//! strategies live in [`crate::index`].

use std::collections::HashMap;

use crate::dataset::{Dataset, Pair};
use crate::sink::{CandidateSink, PairCollector, QualitySink};

/// A streaming blocking strategy: candidate pairs are pushed into the
/// sink as they are discovered, never materialized by the blocker.
pub trait StreamBlocker {
    /// Stream every candidate pair of `data` into `sink`. Pairs may be
    /// emitted more than once unless [`StreamBlocker::emits_distinct`]
    /// says otherwise.
    fn stream_into(&self, data: &Dataset, sink: &mut dyn CandidateSink);

    /// Whether this blocker emits every candidate pair exactly once.
    /// Distinct emitters can skip deduplication downstream (e.g. score
    /// pairs as they stream).
    fn emits_distinct(&self) -> bool {
        false
    }
}

/// All `C(n, 2)` pairs — exact but quadratic.
#[derive(Debug, Clone, Copy, Default)]
pub struct FullPairwise;

impl StreamBlocker for FullPairwise {
    fn stream_into(&self, data: &Dataset, sink: &mut dyn CandidateSink) {
        let n = data.len();
        for i in 0..n {
            for j in (i + 1)..n {
                sink.push(Pair(i, j));
            }
        }
    }

    fn emits_distinct(&self) -> bool {
        true
    }
}

/// Standard blocking: records sharing the exact (trimmed) value of the
/// key attribute form a block; all pairs within a block are candidates.
#[derive(Debug, Clone, Copy)]
pub struct StandardBlocking {
    /// Index of the blocking-key attribute.
    pub key: usize,
}

impl StreamBlocker for StandardBlocking {
    fn stream_into(&self, data: &Dataset, sink: &mut dyn CandidateSink) {
        let mut blocks: HashMap<&str, Vec<usize>> = HashMap::new();
        for (i, r) in data.records.iter().enumerate() {
            blocks.entry(r.values[self.key].trim()).or_default().push(i);
        }
        for members in blocks.values() {
            for i in 0..members.len() {
                for j in (i + 1)..members.len() {
                    sink.push(Pair::new(members[i], members[j]));
                }
            }
        }
    }

    // Blocks partition the records, so every pair lives in exactly one
    // block.
    fn emits_distinct(&self) -> bool {
        true
    }
}

/// Multi-pass Sorted Neighborhood: for every key attribute, sort the
/// records by that attribute's value and pair every two records within a
/// sliding window of size `window`; the union over all passes is the
/// candidate set.
#[derive(Debug, Clone)]
pub struct SortedNeighborhood {
    /// Key attribute indices, one pass per key.
    pub keys: Vec<usize>,
    /// Window size (the paper uses 20). Windows below 2 cannot cover a
    /// pair and are clamped to 2 when streaming.
    pub window: usize,
}

impl SortedNeighborhood {
    /// The paper's configuration: one pass per given key, window 20.
    pub fn multi_pass(keys: Vec<usize>) -> Self {
        SortedNeighborhood { keys, window: 20 }
    }

    /// The window actually used when streaming (degenerate configs are
    /// clamped to the smallest window that can cover a pair).
    pub fn effective_window(&self) -> usize {
        self.window.max(2)
    }
}

impl StreamBlocker for SortedNeighborhood {
    fn stream_into(&self, data: &Dataset, sink: &mut dyn CandidateSink) {
        let window = self.effective_window();
        for &key in &self.keys {
            let mut order: Vec<usize> = (0..data.len()).collect();
            order.sort_by(|&a, &b| {
                data.records[a].values[key]
                    .trim()
                    .cmp(data.records[b].values[key].trim())
                    .then(a.cmp(&b))
            });
            for (pos, &i) in order.iter().enumerate() {
                for &j in order[pos + 1..(pos + window).min(order.len())].iter() {
                    sink.push(Pair::new(i, j));
                }
            }
        }
    }

    // Distinct within a pass, but passes rediscover each other's pairs.
    fn emits_distinct(&self) -> bool {
        self.keys.len() <= 1
    }
}

/// Blocking quality metrics for the ablation experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockingQuality {
    /// Fraction of all pairs eliminated (higher = cheaper).
    pub reduction_ratio: f64,
    /// Fraction of gold pairs preserved (higher = safer).
    pub pair_completeness: f64,
    /// Candidate pair count.
    pub candidates: usize,
}

/// Measure a blocker against a dataset's gold standard in one
/// streaming pass. Candidates are always counted once each: a blocker
/// that [`emits_distinct`](StreamBlocker::emits_distinct) streams
/// straight into a [`QualitySink`], any other goes through a
/// [`PairCollector`] first.
pub fn blocking_quality(data: &Dataset, blocker: &dyn StreamBlocker) -> BlockingQuality {
    let n = data.len() as u64;
    let all_pairs = n * n.saturating_sub(1) / 2;
    let gold = data.gold_pairs();
    let mut quality = QualitySink::new(&gold);
    if blocker.emits_distinct() {
        blocker.stream_into(data, &mut quality);
    } else {
        let mut collector = PairCollector::new();
        blocker.stream_into(data, &mut collector);
        for pair in collector.into_pairs() {
            quality.push(pair);
        }
    }
    let candidates = quality.emitted as usize;
    BlockingQuality {
        reduction_ratio: if all_pairs == 0 {
            0.0
        } else {
            1.0 - candidates as f64 / all_pairs as f64
        },
        pair_completeness: quality.completeness(),
        candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn data() -> Dataset {
        let mut d = Dataset::new(vec!["last".into(), "zip".into()]);
        d.push(vec!["SMITH".into(), "27601".into()], 0);
        d.push(vec!["SMITH".into(), "27601".into()], 0);
        d.push(vec!["SMYTH".into(), "27601".into()], 0);
        d.push(vec!["JONES".into(), "28100".into()], 1);
        d.push(vec!["JONES".into(), "28100".into()], 1);
        d.push(vec!["ZETA".into(), "99999".into()], 2);
        d
    }

    /// The distinct candidates of a blocker.
    fn candidates(blocker: &dyn StreamBlocker, d: &Dataset) -> HashSet<Pair> {
        let mut collector = PairCollector::new();
        blocker.stream_into(d, &mut collector);
        collector.into_pairs().collect()
    }

    #[test]
    fn full_pairwise_enumerates_everything() {
        let d = data();
        assert_eq!(candidates(&FullPairwise, &d).len(), 15);
        let q = blocking_quality(&d, &FullPairwise);
        assert_eq!(q.candidates, 15);
        assert_eq!(q.pair_completeness, 1.0);
        assert_eq!(q.reduction_ratio, 0.0);
    }

    #[test]
    fn standard_blocking_groups_equal_keys() {
        let d = data();
        let q = blocking_quality(&d, &StandardBlocking { key: 0 });
        // SMITH block: 1 pair; JONES block: 1 pair.
        assert_eq!(q.candidates, 2);
        // The SMYTH typo escapes its block → one gold pair lost… in fact
        // two (SMYTH pairs with both SMITHs).
        assert!(q.pair_completeness < 1.0);
        assert!(q.reduction_ratio > 0.8);
    }

    #[test]
    fn snm_window_catches_near_sorted_neighbors() {
        let d = data();
        let c = candidates(&SortedNeighborhood { keys: vec![0], window: 3 }, &d);
        // Sorted by last name, SMITH/SMITH/SMYTH are adjacent.
        assert!(c.contains(&Pair(0, 1)));
        assert!(c.contains(&Pair(0, 2)) || c.contains(&Pair(1, 2)));
    }

    #[test]
    fn snm_multi_pass_unions_passes() {
        let d = data();
        let single = candidates(&SortedNeighborhood { keys: vec![0], window: 2 }, &d);
        let multi = candidates(&SortedNeighborhood { keys: vec![0, 1], window: 2 }, &d);
        assert!(single.is_subset(&multi));
    }

    #[test]
    fn snm_full_window_equals_full_pairwise() {
        let d = data();
        let c = candidates(&SortedNeighborhood { keys: vec![0], window: d.len() }, &d);
        assert_eq!(c.len(), 15);
    }

    #[test]
    fn paper_configuration_loses_no_gold_pair_here() {
        let d = data();
        let q = blocking_quality(&d, &SortedNeighborhood::multi_pass(vec![0, 1]));
        assert_eq!(q.pair_completeness, 1.0);
    }

    #[test]
    fn degenerate_window_no_longer_panics() {
        // Regression for the old `assert!(window >= 2)` abort: a bad
        // window now clamps to the smallest pair-covering window.
        let d = data();
        let degenerate = candidates(&SortedNeighborhood { keys: vec![0], window: 1 }, &d);
        let clamped = candidates(&SortedNeighborhood { keys: vec![0], window: 2 }, &d);
        assert_eq!(degenerate, clamped);
        assert_eq!(SortedNeighborhood { keys: vec![0], window: 0 }.effective_window(), 2);
    }

    #[test]
    fn empty_dataset_yields_no_candidates() {
        let d = Dataset::new(vec!["a".into()]);
        let snm = SortedNeighborhood { keys: vec![0], window: 5 };
        for blocker in [&FullPairwise as &dyn StreamBlocker, &StandardBlocking { key: 0 }, &snm] {
            assert!(candidates(blocker, &d).is_empty());
            let q = blocking_quality(&d, blocker);
            assert_eq!((q.candidates, q.reduction_ratio, q.pair_completeness), (0, 0.0, 1.0));
        }
    }

    #[test]
    fn quality_counts_each_candidate_once() {
        // Two passes over a full window emit every pair twice; counting
        // emissions would report 2·C(6, 2) = 30 candidates and a
        // reduction ratio of −1.
        let d = data();
        let snm = SortedNeighborhood { keys: vec![0, 1], window: d.len() };
        let mut emitted = Vec::new();
        snm.stream_into(&d, &mut emitted);
        assert_eq!(emitted.len(), 30);
        let q = blocking_quality(&d, &snm);
        assert_eq!(q.candidates, 15);
        assert_eq!(q.reduction_ratio, 0.0);
        assert_eq!(q, blocking_quality(&d, &FullPairwise));
    }
}
