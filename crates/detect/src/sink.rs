//! Streaming candidate emission.
//!
//! Blockers *push* pairs into a [`CandidateSink`] as they are
//! discovered, and the sink decides what to keep: it can deduplicate
//! ([`PairCollector`]), measure recall against a gold standard without
//! storing the candidates ([`QualitySink`]), or hand the distinct pairs
//! to a matcher (see [`crate::eval::score_candidates_streaming`]). At
//! 10M records a multi-pass blocking run emits hundreds of millions of
//! pairs, so no sink hashes every pair.
//!
//! [`PairCollector`] packs each pair into a `u64` and deduplicates by
//! periodic sort-and-dedup compaction of a flat buffer (a sorted-run
//! strategy), so the steady state is two machine words per distinct
//! pair and no per-pair allocation or hashing.

use std::collections::HashSet;

use crate::dataset::Pair;

/// A consumer of candidate pairs.
///
/// Implementations must tolerate duplicate pushes: most blockers emit
/// a pair once, but multi-pass strategies (and any union of passes)
/// rediscover pairs. Pushing is infallible by design — sinks that can
/// saturate should record that state and ignore further pushes.
pub trait CandidateSink {
    /// Offer one candidate pair (already normalized, `0 < 1`).
    fn push(&mut self, pair: Pair);
}

/// A raw sink keeping every emission, duplicates included (useful for
/// tests and for blockers known to emit distinct pairs).
impl CandidateSink for Vec<Pair> {
    fn push(&mut self, pair: Pair) {
        Vec::push(self, pair);
    }
}

/// Pack a pair into one `u64` (`a` in the high half). Record ids must
/// fit `u32` — the indexed blocking layer addresses records as `u32`
/// throughout.
#[inline]
pub(crate) fn pack(pair: Pair) -> u64 {
    debug_assert!(pair.0 <= u32::MAX as usize && pair.1 <= u32::MAX as usize);
    ((pair.0 as u64) << 32) | pair.1 as u64
}

#[inline]
pub(crate) fn unpack(packed: u64) -> Pair {
    Pair((packed >> 32) as usize, (packed & 0xFFFF_FFFF) as usize)
}

/// An allocation-lean deduplicating sink.
///
/// Pairs are packed into a flat `Vec<u64>`; whenever the buffer grows
/// past a compaction watermark it is sorted and deduplicated in place
/// and the watermark is re-armed at twice the distinct count. Total
/// cost is `O(total pushed · log(distinct))` amortized, memory is
/// `O(distinct)` — no hashing, no per-pair allocation.
#[derive(Debug, Default)]
pub struct PairCollector {
    packed: Vec<u64>,
    /// Buffer length that triggers the next compaction.
    watermark: usize,
    /// Total pushes observed (duplicates included).
    emitted: u64,
}

/// Compactions start once the buffer holds this many packed pairs.
const MIN_WATERMARK: usize = 1 << 16;

impl PairCollector {
    /// An empty collector.
    pub fn new() -> Self {
        PairCollector {
            packed: Vec::new(),
            watermark: MIN_WATERMARK,
            emitted: 0,
        }
    }

    fn compact(&mut self) {
        self.packed.sort_unstable();
        self.packed.dedup();
        self.watermark = (self.packed.len() * 2).max(MIN_WATERMARK);
    }

    /// Total pushes observed, duplicates included.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Finish: the distinct candidate pairs in ascending `(a, b)` order.
    pub fn finish(self) -> Vec<Pair> {
        self.into_pairs().collect()
    }

    /// Finish into an iterator over the distinct candidate pairs in
    /// ascending `(a, b)` order, read straight out of the compacted
    /// buffer (shrunk to its length: 8 bytes per pair, where
    /// [`finish`](Self::finish) builds 16 more).
    pub fn into_pairs(mut self) -> impl ExactSizeIterator<Item = Pair> {
        self.compact();
        self.packed.shrink_to_fit();
        self.packed.into_iter().map(unpack)
    }

    /// Finish into the distinct candidate count alone.
    pub fn finish_count(mut self) -> usize {
        self.compact();
        self.packed.len()
    }
}

impl CandidateSink for PairCollector {
    fn push(&mut self, pair: Pair) {
        self.emitted += 1;
        self.packed.push(pack(pair));
        if self.packed.len() >= self.watermark {
            self.compact();
        }
    }
}

/// Measures pair completeness against a gold standard in a streaming
/// pass: memory is bounded by the gold set, never by the candidate
/// volume.
#[derive(Debug)]
pub struct QualitySink<'a> {
    gold: &'a HashSet<Pair>,
    hits: HashSet<Pair>,
    /// Pairs pushed, duplicates included.
    pub emitted: u64,
}

impl<'a> QualitySink<'a> {
    /// A sink scoring emissions against `gold`.
    pub fn new(gold: &'a HashSet<Pair>) -> Self {
        QualitySink {
            gold,
            hits: HashSet::new(),
            emitted: 0,
        }
    }

    /// Distinct gold pairs seen so far.
    pub fn gold_hits(&self) -> usize {
        self.hits.len()
    }

    /// Fraction of gold pairs emitted at least once (1 when the gold
    /// set is empty, matching [`crate::blocking::blocking_quality`]).
    pub fn completeness(&self) -> f64 {
        if self.gold.is_empty() {
            1.0
        } else {
            self.hits.len() as f64 / self.gold.len() as f64
        }
    }
}

impl CandidateSink for QualitySink<'_> {
    fn push(&mut self, pair: Pair) {
        self.emitted += 1;
        if self.gold.contains(&pair) {
            self.hits.insert(pair);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_round_trips() {
        for pair in [Pair(0, 1), Pair(7, 4_000_000_000), Pair(123, 456)] {
            assert_eq!(unpack(pack(pair)), pair);
        }
    }

    #[test]
    fn collector_deduplicates_and_sorts() {
        let mut c = PairCollector::new();
        for &(a, b) in &[(3, 4), (1, 2), (3, 4), (0, 9), (1, 2), (1, 2)] {
            c.push(Pair(a, b));
        }
        assert_eq!(c.emitted(), 6);
        assert_eq!(c.finish(), vec![Pair(0, 9), Pair(1, 2), Pair(3, 4)]);
    }

    #[test]
    fn collector_compacts_past_watermark() {
        let mut c = PairCollector::new();
        // 3× the minimum watermark pushes over only 100 distinct pairs:
        // the buffer must stay near the distinct count, not the total.
        for i in 0..(3 * MIN_WATERMARK) {
            c.push(Pair(i % 100, 100 + i % 7));
        }
        assert!(c.packed.capacity() <= 4 * MIN_WATERMARK);
        let pairs = c.finish();
        // (i % 100, i % 7) cycles with period lcm(100, 7) = 700.
        assert_eq!(pairs.len(), 700);
        assert!(pairs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn into_pairs_is_finish_without_the_copy() {
        let pushes = [(3, 4), (1, 2), (3, 4), (0, 9)];
        let (mut a, mut b) = (PairCollector::new(), PairCollector::new());
        for &(x, y) in &pushes {
            a.push(Pair(x, y));
            b.push(Pair(x, y));
        }
        let pairs = a.into_pairs();
        assert_eq!(pairs.len(), 3);
        assert_eq!(pairs.collect::<Vec<_>>(), b.finish());
    }

    #[test]
    fn collector_set_matches_hashset_semantics() {
        let mut set = HashSet::new();
        let mut c = PairCollector::new();
        for i in 0..1000usize {
            let p = Pair(i % 13, 13 + i % 29);
            set.insert(p);
            c.push(p);
        }
        assert_eq!(c.finish().into_iter().collect::<HashSet<_>>(), set);
    }

    #[test]
    fn quality_sink_measures_completeness() {
        let gold: HashSet<Pair> = [Pair(0, 1), Pair(2, 3)].into();
        let mut s = QualitySink::new(&gold);
        s.push(Pair(0, 1));
        s.push(Pair(0, 1));
        s.push(Pair(5, 6));
        assert_eq!(s.emitted, 3);
        assert_eq!(s.gold_hits(), 1);
        assert!((s.completeness() - 0.5).abs() < 1e-12);
        let empty = HashSet::new();
        assert_eq!(QualitySink::new(&empty).completeness(), 1.0);
    }
}
