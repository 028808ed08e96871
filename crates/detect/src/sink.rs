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
//! [`PairCollector`] has two representations of one set. When the
//! record count is known and small ([`PairCollector::with_records`],
//! up to 4 096 records) it is a bitmap over the triangle of possible
//! pairs: a push is a test-and-set, and the set bits read out in
//! ascending pair order. Otherwise it packs each pair into a `u64` and
//! deduplicates by periodic sort-and-dedup compaction of a flat buffer
//! (a sorted-run strategy), so the steady state is two machine words
//! per distinct pair. Neither form allocates or hashes per pair.

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
/// [`new`](Self::new) packs pairs into a flat `Vec<u64>`; whenever the
/// buffer grows past a compaction watermark it is sorted and
/// deduplicated in place and the watermark is re-armed at twice the
/// distinct count. Total cost is `O(total pushed · log(distinct))`
/// amortized, memory is `O(distinct)`.
///
/// [`with_records`](Self::with_records) knows the record count `n`, and
/// while the `n(n−1)/2` possible pairs fit [`MAX_TRIANGLE_BITS`] it
/// keeps one bit per possible pair instead: `O(1)` per push, `O(n²/64)`
/// words to read out, and at most 1 MiB whatever the candidate volume.
/// Both forms yield the same pairs in the same order.
#[derive(Debug)]
pub struct PairCollector {
    set: PairSet,
    /// Total pushes observed (duplicates included).
    emitted: u64,
}

/// The distinct pairs pushed so far, in one of two representations.
#[derive(Debug)]
enum PairSet {
    /// Packed pairs, sort-deduplicated whenever the buffer reaches the
    /// watermark.
    Packed {
        packed: Vec<u64>,
        /// Buffer length that triggers the next compaction.
        watermark: usize,
    },
    /// Bit `offset(a) + (b − a − 1)` is set when `(a, b)` was pushed,
    /// `offset(a)` being the number of pairs whose smaller id is below
    /// `a`: the triangle `a < b < n` row by row, so the set bits in
    /// ascending order are the pairs in ascending `(a, b)` order.
    Triangle {
        bits: Vec<u64>,
        /// Record count.
        n: usize,
        /// Set bits.
        distinct: usize,
    },
}

/// Compactions start once the buffer holds this many packed pairs.
const MIN_WATERMARK: usize = 1 << 16;

/// The largest pair triangle kept as a bitmap: 1 MiB, so up to 4 096
/// records.
pub const MAX_TRIANGLE_BITS: usize = 1 << 23;

/// Bit index of the normalized pair `(a, b)` among `n` records.
#[inline]
fn triangle_bit(n: usize, a: usize, b: usize) -> usize {
    a * (2 * n - a - 1) / 2 + (b - a - 1)
}

impl Default for PairCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl PairCollector {
    /// An empty collector for pairs of any ids (the packed form).
    pub fn new() -> Self {
        PairCollector {
            set: PairSet::Packed {
                packed: Vec::new(),
                watermark: MIN_WATERMARK,
            },
            emitted: 0,
        }
    }

    /// An empty collector for pairs of `n` records, ids `0..n`: a
    /// bitmap over the pair triangle when it has at most
    /// [`MAX_TRIANGLE_BITS`] pairs, else the packed form of
    /// [`new`](Self::new).
    ///
    /// In the bitmap form a push of a pair that is not normalized
    /// (`a < b`) or names an id `≥ n` panics.
    pub fn with_records(n: usize) -> Self {
        let pairs = match n.checked_mul(n.saturating_sub(1)) {
            Some(twice) if twice / 2 <= MAX_TRIANGLE_BITS => twice / 2,
            _ => return Self::new(),
        };
        PairCollector {
            set: PairSet::Triangle {
                bits: vec![0; pairs.div_ceil(64)],
                n,
                distinct: 0,
            },
            emitted: 0,
        }
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
    /// ascending `(a, b)` order, read straight out of the set: the
    /// bitmap's set bits, or the packed buffer compacted and shrunk to
    /// its length (8 bytes per pair, where [`finish`](Self::finish)
    /// builds 16 more).
    pub fn into_pairs(self) -> impl ExactSizeIterator<Item = Pair> {
        match self.set {
            PairSet::Packed { mut packed, .. } => {
                compact(&mut packed);
                packed.shrink_to_fit();
                IntoPairs::Packed(packed.into_iter())
            }
            PairSet::Triangle { bits, n, distinct } => IntoPairs::Triangle(TriangleBits {
                word: bits.first().copied().unwrap_or(0),
                bits,
                at: 0,
                n,
                a: 0,
                row_start: 0,
                row_end: n.saturating_sub(1),
                remaining: distinct,
            }),
        }
    }

    /// Finish into the distinct candidate count alone.
    pub fn finish_count(self) -> usize {
        match self.set {
            PairSet::Packed { mut packed, .. } => {
                compact(&mut packed);
                packed.len()
            }
            PairSet::Triangle { distinct, .. } => distinct,
        }
    }
}

/// Sort and deduplicate a packed buffer in place.
fn compact(packed: &mut Vec<u64>) {
    packed.sort_unstable();
    packed.dedup();
}

impl CandidateSink for PairCollector {
    fn push(&mut self, pair: Pair) {
        self.emitted += 1;
        match &mut self.set {
            PairSet::Packed { packed, watermark } => {
                packed.push(pack(pair));
                if packed.len() >= *watermark {
                    compact(packed);
                    *watermark = (packed.len() * 2).max(MIN_WATERMARK);
                }
            }
            PairSet::Triangle { bits, n, distinct } => {
                let Pair(a, b) = pair;
                assert!(
                    a < b && b < *n,
                    "pair ({a}, {b}) is not a normalized pair of {n} records"
                );
                let bit = triangle_bit(*n, a, b);
                let (word, mask) = (&mut bits[bit / 64], 1u64 << (bit % 64));
                *distinct += usize::from(*word & mask == 0);
                *word |= mask;
            }
        }
    }
}

/// The iterator [`PairCollector::into_pairs`] returns.
enum IntoPairs {
    Packed(std::vec::IntoIter<u64>),
    Triangle(TriangleBits),
}

impl Iterator for IntoPairs {
    type Item = Pair;

    fn next(&mut self) -> Option<Pair> {
        match self {
            IntoPairs::Packed(packed) => packed.next().map(unpack),
            IntoPairs::Triangle(triangle) => triangle.next_pair(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = match self {
            IntoPairs::Packed(packed) => packed.len(),
            IntoPairs::Triangle(triangle) => triangle.remaining,
        };
        (len, Some(len))
    }
}

impl ExactSizeIterator for IntoPairs {}

/// The set bits of a pair triangle in ascending order, as pairs.
struct TriangleBits {
    bits: Vec<u64>,
    /// Index of the word being read.
    at: usize,
    /// Its bits not yet yielded.
    word: u64,
    n: usize,
    /// The row (smaller id) of the last pair yielded, and that row's
    /// bit range.
    a: usize,
    row_start: usize,
    row_end: usize,
    /// Set bits not yet yielded.
    remaining: usize,
}

impl TriangleBits {
    fn next_pair(&mut self) -> Option<Pair> {
        while self.word == 0 {
            self.at += 1;
            self.word = *self.bits.get(self.at)?;
        }
        let bit = self.at * 64 + self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        while bit >= self.row_end {
            self.a += 1;
            self.row_start = self.row_end;
            self.row_end += self.n - 1 - self.a;
        }
        self.remaining -= 1;
        Some(Pair(self.a, self.a + 1 + (bit - self.row_start)))
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
        let PairSet::Packed { packed, .. } = &c.set else {
            unreachable!("new() packs")
        };
        assert!(packed.capacity() <= 4 * MIN_WATERMARK);
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
    fn the_triangle_yields_the_packed_sequence() {
        let pushes = [
            (3, 4),
            (0, 1),
            (8, 9),
            (3, 4),
            (0, 9),
            (1, 2),
            (7, 9),
            (0, 1),
        ];
        let (mut triangle, mut packed) = (PairCollector::with_records(10), PairCollector::new());
        for &(a, b) in &pushes {
            triangle.push(Pair(a, b));
            packed.push(Pair(a, b));
        }
        assert!(matches!(triangle.set, PairSet::Triangle { .. }));
        assert_eq!(triangle.emitted(), 8);
        assert_eq!(triangle.finish(), packed.finish());
    }

    #[test]
    fn a_large_record_count_falls_back_to_packing() {
        assert!(matches!(
            PairCollector::with_records(4_096).set,
            PairSet::Triangle { .. }
        ));
        assert!(matches!(
            PairCollector::with_records(4_097).set,
            PairSet::Packed { .. }
        ));
        assert!(matches!(
            PairCollector::with_records(0).set,
            PairSet::Triangle { .. }
        ));
        assert!(matches!(
            PairCollector::with_records(usize::MAX).set,
            PairSet::Packed { .. }
        ));
        assert_eq!(PairCollector::with_records(1).finish(), vec![]);
    }

    #[test]
    #[should_panic(expected = "(5, 3) is not a normalized pair of 10 records")]
    fn the_triangle_rejects_a_reversed_pair() {
        PairCollector::with_records(10).push(Pair(5, 3));
    }

    #[test]
    #[should_panic(expected = "(4, 4) is not a normalized pair of 10 records")]
    fn the_triangle_rejects_a_self_pair() {
        PairCollector::with_records(10).push(Pair(4, 4));
    }

    #[test]
    #[should_panic(expected = "(2, 10) is not a normalized pair of 10 records")]
    fn the_triangle_rejects_an_id_past_the_records() {
        PairCollector::with_records(10).push(Pair(2, 10));
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
