//! Indexed candidate generation: inverted q-gram / token indexes and
//! phonetic buckets, unioned by [`CompositeBlocker`].
//!
//! Every blocker here follows the same shape: **build** an inverted
//! index over normalized key values ([`TermIndex`]) in one pass, then
//! **probe** it record by record in ascending id order, emitting each
//! candidate pair exactly once (`Pair(j, i)` is owned by its larger
//! id `i`, with the smaller ids deduplicated through a per-record
//! sorted run). Because emission order is a pure function of the
//! record order, the parallel probe — contiguous record ranges over a
//! scoped thread pool, buffers concatenated in range order — is
//! bit-identical to the sequential one for every thread count. The
//! `threads: 0` sentinel resolves to the available hardware
//! parallelism, following the `nc_core::scoring::ScoringConfig`
//! convention.
//!
//! Stop-gram pruning ([`StopPolicy`]) bounds the candidate tail: a
//! term whose document frequency exceeds the cap is skipped at probe
//! time on both sides of a pair, trading a little recall on records
//! that share *only* ubiquitous terms for candidate counts that stay
//! sub-linear in the dataset (the fraction of grams under an absolute
//! cap shrinks as the dataset grows).

use nc_similarity::soundex::soundex;

use crate::blocking::StreamBlocker;
use crate::dataset::{Dataset, Pair};
use crate::postings::{intersect_gallop, union_weighted, TermIndex};
use crate::sink::CandidateSink;

// ---------------------------------------------------------------------
// Normalized key views
// ---------------------------------------------------------------------

/// Append the blocking normalization of `raw` (trim, uppercase) to
/// `out`, with an ASCII fast path that never allocates per `char`.
pub(crate) fn normalize_into(raw: &str, out: &mut String) {
    let trimmed = raw.trim();
    if trimmed.is_ascii() {
        out.reserve(trimmed.len());
        for &b in trimmed.as_bytes() {
            out.push(b.to_ascii_uppercase() as char);
        }
    } else {
        // Matches `str::to_uppercase` (incl. multi-char expansions).
        for c in trimmed.chars() {
            out.extend(c.to_uppercase());
        }
    }
}

/// A normalized (trimmed, uppercased) view of one attribute column,
/// computed once per dataset instead of once per record visit. Values
/// are stored back to back in a single buffer.
#[derive(Debug)]
pub struct NormalizedKey {
    buf: String,
    /// `offsets[i]..offsets[i + 1]` is the normalized value of record `i`.
    offsets: Vec<u32>,
}

impl NormalizedKey {
    /// Normalize attribute `key` of every record.
    ///
    /// # Panics
    /// When `key` is out of schema range.
    pub fn build(data: &Dataset, key: usize) -> Self {
        assert!(key < data.num_attrs(), "key attribute out of range");
        let mut buf = String::new();
        let mut offsets = Vec::with_capacity(data.len() + 1);
        offsets.push(0);
        for r in &data.records {
            normalize_into(&r.values[key], &mut buf);
            offsets.push(u32::try_from(buf.len()).expect("normalized column exceeds 4 GiB"));
        }
        NormalizedKey { buf, offsets }
    }

    /// The normalized value of record `i`.
    pub fn value(&self, i: usize) -> &str {
        &self.buf[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Number of records in the view.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the view covers no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Visit every q-gram of a normalized value as a byte slice: windows of
/// `q` characters (byte windows on the ASCII fast path), the whole
/// value when it is shorter than `q` chars, nothing when empty.
/// Duplicate grams are visited once per occurrence — the index posts
/// each once per record.
pub(crate) fn for_each_gram(value: &str, q: usize, mut f: impl FnMut(&[u8])) {
    let q = q.max(1);
    if value.is_empty() {
        return;
    }
    let bytes = value.as_bytes();
    if value.is_ascii() {
        if bytes.len() < q {
            f(bytes);
        } else {
            for w in bytes.windows(q) {
                f(w);
            }
        }
        return;
    }
    let bounds: Vec<usize> = value
        .char_indices()
        .map(|(i, _)| i)
        .chain(std::iter::once(value.len()))
        .collect();
    let chars = bounds.len() - 1;
    if chars < q {
        f(bytes);
    } else {
        for s in 0..=(chars - q) {
            f(&bytes[bounds[s]..bounds[s + q]]);
        }
    }
}

// ---------------------------------------------------------------------
// Stop-term policy and probe parallelism
// ---------------------------------------------------------------------

/// When a term is too frequent to block on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopPolicy {
    /// Skip terms posted by more than `ceil(fraction · n)` records
    /// (floored at 2 so a pair can always form). Under this policy
    /// block capacity grows with the dataset, and so does the
    /// worst-case candidate tail (O(n²) within capped blocks).
    Fraction(f64),
    /// Skip terms posted by more than this many records regardless of
    /// dataset size. This is the scale-safe policy: per-record probe
    /// work stays bounded as `n` grows.
    Absolute(usize),
    /// Never skip a term.
    None,
}

impl StopPolicy {
    /// The document-frequency cap for a dataset of `n` records.
    pub fn cap(&self, n: usize) -> usize {
        match *self {
            StopPolicy::Fraction(f) => ((n as f64 * f).ceil() as usize).max(2),
            StopPolicy::Absolute(cap) => cap.max(2),
            StopPolicy::None => usize::MAX,
        }
    }
}

/// Resolve a `threads: 0` sentinel the way `ScoringConfig` does.
fn effective_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
}

/// Probe records `0..n` and stream the emitted pairs into `sink` in
/// ascending record order.
///
/// `per_record(scratch, i, out)` must append record `i`'s candidate
/// pairs to `out` as a pure function of `i` (the scratch only moves
/// working memory). With more than one thread the id range is split
/// into contiguous chunks probed concurrently, each worker owning one
/// scratch, and the chunk buffers are drained into the sink in chunk
/// order — the sink observes exactly the sequential emission sequence,
/// so parallel output is bit-identical to `threads = 1`.
fn probe_streamed<S, F>(n: usize, threads: usize, make_scratch: impl Fn() -> S + Sync, per_record: F, sink: &mut dyn CandidateSink)
where
    S: Send,
    F: Fn(&mut S, usize, &mut Vec<Pair>) + Sync,
{
    let threads = effective_threads(threads).min(n).max(1);
    if threads <= 1 {
        let mut scratch = make_scratch();
        let mut out = Vec::new();
        for i in 0..n {
            per_record(&mut scratch, i, &mut out);
            for &p in &out {
                sink.push(p);
            }
            out.clear();
        }
        return;
    }
    let chunk_len = n.div_ceil(threads);
    let chunks: Vec<std::ops::Range<usize>> = (0..n)
        .step_by(chunk_len)
        .map(|lo| lo..(lo + chunk_len).min(n))
        .collect();
    let buffers: Vec<Vec<Pair>> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .cloned()
            .map(|range| {
                let per_record = &per_record;
                let make_scratch = &make_scratch;
                scope.spawn(move || {
                    let mut scratch = make_scratch();
                    let mut out = Vec::new();
                    for i in range {
                        per_record(&mut scratch, i, &mut out);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe worker panicked"))
            .collect()
    });
    for buffer in buffers {
        for p in buffer {
            sink.push(p);
        }
    }
}

// ---------------------------------------------------------------------
// Blockers
// ---------------------------------------------------------------------

/// Indexed q-gram blocking: two records are candidates when they share
/// at least one gram whose document frequency is under the stop cap.
/// Each candidate is emitted once, read off the posting lists of the
/// record with the larger id; `tests/index_parity.rs` holds it to a
/// naive all-pairs reference.
#[derive(Debug, Clone)]
pub struct IndexedQGramBlocker {
    /// Index of the blocking-key attribute.
    pub key: usize,
    /// Gram size in chars.
    pub q: usize,
    /// Stop-gram policy.
    pub stop: StopPolicy,
    /// Probe workers; `0` = available parallelism.
    pub threads: usize,
}

impl IndexedQGramBlocker {
    /// Trigram blocking with a 5 % fraction cap (the blocking
    /// ablation's q-gram row).
    pub fn trigrams(key: usize) -> Self {
        IndexedQGramBlocker {
            key,
            q: 3,
            stop: StopPolicy::Fraction(0.05),
            threads: 1,
        }
    }

    /// Trigram blocking with a scale-safe absolute stop cap.
    pub fn trigrams_capped(key: usize, cap: usize) -> Self {
        IndexedQGramBlocker {
            key,
            q: 3,
            stop: StopPolicy::Absolute(cap),
            threads: 1,
        }
    }

    fn build(&self, data: &Dataset) -> TermIndex {
        assert!(data.len() <= u32::MAX as usize, "indexes address records as u32");
        let view = NormalizedKey::build(data, self.key);
        let mut index = TermIndex::new();
        for i in 0..view.len() {
            index.open_record(i as u32);
            for_each_gram(view.value(i), self.q, |g| index.insert(g));
            index.close_record();
        }
        index
    }
}

impl StreamBlocker for IndexedQGramBlocker {
    fn stream_into(&self, data: &Dataset, sink: &mut dyn CandidateSink) {
        let ix = self.build(data);
        let cap = self.stop.cap(data.len());
        probe_streamed(
            data.len(),
            self.threads,
            Vec::new,
            |ids: &mut Vec<u32>, i, out| {
                // The ids below `i` sharing an un-capped gram, distinct.
                let i32id = i as u32;
                ids.clear();
                for slot in ix.record_terms(i32id) {
                    if ix.df(slot) <= cap {
                        let p = ix.posting(slot);
                        ids.extend_from_slice(&p[..p.partition_point(|&j| j < i32id)]);
                    }
                }
                ids.sort_unstable();
                ids.dedup();
                out.extend(ids.iter().map(|&j| Pair(j as usize, i)));
            },
            sink,
        );
    }

    fn emits_distinct(&self) -> bool {
        true
    }
}

/// Token blocking over one or more key attributes: candidates share at
/// least `min_overlap` distinct (un-capped) whitespace tokens.
///
/// A probe record whose entire token set must match (`min_overlap >=`
/// its distinct token count) is resolved by galloping multi-way
/// intersection of its posting lists; the general case runs a counting
/// union.
#[derive(Debug, Clone)]
pub struct IndexedTokenBlocker {
    /// Key attribute indices; tokens of all keys share one term space.
    pub keys: Vec<usize>,
    /// Minimum number of shared distinct tokens.
    pub min_overlap: usize,
    /// Stop-token policy.
    pub stop: StopPolicy,
    /// Probe workers; `0` = available parallelism.
    pub threads: usize,
}

impl IndexedTokenBlocker {
    /// Single-shared-token blocking over the given keys with an
    /// absolute stop cap.
    pub fn any_token(keys: Vec<usize>, cap: usize) -> Self {
        IndexedTokenBlocker {
            keys,
            min_overlap: 1,
            stop: StopPolicy::Absolute(cap),
            threads: 1,
        }
    }

    fn build(&self, data: &Dataset) -> TermIndex {
        assert!(data.len() <= u32::MAX as usize, "indexes address records as u32");
        assert!(!self.keys.is_empty(), "token blocking needs at least one key");
        let views: Vec<NormalizedKey> = self
            .keys
            .iter()
            .map(|&k| NormalizedKey::build(data, k))
            .collect();
        let mut index = TermIndex::new();
        for i in 0..data.len() {
            index.open_record(i as u32);
            for view in &views {
                for token in view.value(i).split_whitespace() {
                    index.insert(token.as_bytes());
                }
            }
            index.close_record();
        }
        index
    }
}

/// Per-worker scratch of the token probe.
#[derive(Default)]
struct TokenScratch {
    slots: Vec<u32>,
    entries: Vec<(u32, u32)>,
    acc: Vec<u32>,
    tmp: Vec<u32>,
}

impl StreamBlocker for IndexedTokenBlocker {
    fn stream_into(&self, data: &Dataset, sink: &mut dyn CandidateSink) {
        let ix = self.build(data);
        let cap = self.stop.cap(data.len());
        let min_overlap = self.min_overlap.max(1);
        probe_streamed(
            data.len(),
            self.threads,
            TokenScratch::default,
            |s: &mut TokenScratch, i, out| {
                let i32id = i as u32;
                s.slots.clear();
                s.slots
                    .extend(ix.record_terms(i32id).filter(|&t| ix.df(t) <= cap));
                if s.slots.len() < min_overlap {
                    return;
                }
                if s.slots.len() == min_overlap {
                    // AND query: every token must match — galloping
                    // intersection, smallest posting first.
                    s.slots.sort_unstable_by_key(|&t| ix.df(t));
                    s.acc.clear();
                    let first = ix.posting(s.slots[0]);
                    s.acc.extend_from_slice(&first[..first.partition_point(|&j| j < i32id)]);
                    for &slot in &s.slots[1..] {
                        if s.acc.is_empty() {
                            break;
                        }
                        s.tmp.clear();
                        let p = ix.posting(slot);
                        intersect_gallop(&s.acc, &p[..p.partition_point(|&j| j < i32id)], &mut s.tmp);
                        std::mem::swap(&mut s.acc, &mut s.tmp);
                    }
                    out.extend(s.acc.iter().map(|&j| Pair(j as usize, i)));
                } else {
                    s.entries.clear();
                    for &slot in &s.slots {
                        let p = ix.posting(slot);
                        for &j in &p[..p.partition_point(|&j| j < i32id)] {
                            s.entries.push((j, 1));
                        }
                    }
                    let min = min_overlap as u32;
                    union_weighted(&mut s.entries, |j, shared| {
                        if shared >= min {
                            out.push(Pair(j as usize, i));
                        }
                    });
                }
            },
            sink,
        );
    }

    fn emits_distinct(&self) -> bool {
        true
    }
}

/// Phonetic blocking: candidates share the Soundex code of the key
/// attribute (reusing `nc_similarity::soundex`). Records without a
/// code (no ASCII letter) join no bucket; buckets over the stop cap
/// are skipped like any other term.
#[derive(Debug, Clone)]
pub struct SoundexBlocker {
    /// Index of the blocking-key attribute.
    pub key: usize,
    /// Stop-bucket policy.
    pub stop: StopPolicy,
    /// Probe workers; `0` = available parallelism.
    pub threads: usize,
}

impl SoundexBlocker {
    /// Soundex buckets on `key` with an absolute stop cap.
    pub fn new(key: usize, cap: usize) -> Self {
        SoundexBlocker {
            key,
            stop: StopPolicy::Absolute(cap),
            threads: 1,
        }
    }
}

impl StreamBlocker for SoundexBlocker {
    fn stream_into(&self, data: &Dataset, sink: &mut dyn CandidateSink) {
        assert!(data.len() <= u32::MAX as usize, "indexes address records as u32");
        let view = NormalizedKey::build(data, self.key);
        let mut index = TermIndex::new();
        for i in 0..view.len() {
            index.open_record(i as u32);
            if let Some(code) = soundex(view.value(i)) {
                index.insert(code.as_bytes());
            }
            index.close_record();
        }
        let cap = self.stop.cap(data.len());
        probe_streamed(
            data.len(),
            self.threads,
            || (),
            |_, i, out| {
                let i32id = i as u32;
                // At most one code per record — already distinct.
                for slot in index.record_terms(i32id) {
                    if index.df(slot) > cap {
                        continue;
                    }
                    let p = index.posting(slot);
                    for &j in &p[..p.partition_point(|&j| j < i32id)] {
                        out.push(Pair(j as usize, i));
                    }
                }
            },
            sink,
        );
    }

    fn emits_distinct(&self) -> bool {
        true
    }
}

/// A union of blocking passes streaming into one sink — the indexed
/// counterpart of multi-pass Sorted Neighborhood. Pairs discovered by
/// several passes are emitted once per pass; deduplicate downstream
/// (e.g. through a [`crate::sink::PairCollector`]).
pub struct CompositeBlocker {
    passes: Vec<Box<dyn StreamBlocker + Send + Sync>>,
}

impl CompositeBlocker {
    /// A composite over the given passes, run in order.
    pub fn new(passes: Vec<Box<dyn StreamBlocker + Send + Sync>>) -> Self {
        CompositeBlocker { passes }
    }

    /// Number of passes.
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// Whether the composite has no passes.
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }
}

impl std::fmt::Debug for CompositeBlocker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompositeBlocker").field("passes", &self.passes.len()).finish()
    }
}

impl StreamBlocker for CompositeBlocker {
    fn stream_into(&self, data: &Dataset, sink: &mut dyn CandidateSink) {
        for pass in &self.passes {
            pass.stream_into(data, sink);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    use crate::blocking::blocking_quality;
    use crate::sink::PairCollector;

    /// The distinct candidates of a blocker.
    fn candidates(blocker: &dyn StreamBlocker, d: &Dataset) -> HashSet<Pair> {
        let mut collector = PairCollector::new();
        blocker.stream_into(d, &mut collector);
        collector.into_pairs().collect()
    }

    fn typo_data() -> Dataset {
        let mut d = Dataset::new(vec!["last".into(), "city".into()]);
        d.push(vec!["WILLIAMS".into(), "RALEIGH".into()], 0);
        d.push(vec!["WILLAMS".into(), "RALEIGH".into()], 0);
        d.push(vec!["JOHNSON".into(), "DURHAM".into()], 1);
        d.push(vec!["JOHNSTON".into(), "DURHAM".into()], 1);
        d.push(vec!["ZQXV".into(), "APEX".into()], 2);
        d
    }

    #[test]
    fn normalized_view_matches_per_record_normalization() {
        let mut d = Dataset::new(vec!["v".into()]);
        d.push(vec!["  smith ".into()], 0);
        d.push(vec!["Größe".into()], 1);
        d.push(vec!["".into()], 2);
        let view = NormalizedKey::build(&d, 0);
        assert_eq!(view.value(0), "SMITH");
        assert_eq!(view.value(1), "Größe".trim().to_uppercase());
        assert_eq!(view.value(2), "");
        assert_eq!(view.len(), 3);
    }

    #[test]
    fn grams_ascii_and_unicode_agree_with_char_windows() {
        for value in ["SMITH", "ABÖCD", "ÄÖ", "A", ""] {
            let mut fast = Vec::new();
            for_each_gram(value, 3, |g| fast.push(g.to_vec()));
            let chars: Vec<char> = value.chars().collect();
            let slow: Vec<Vec<u8>> = if chars.is_empty() {
                vec![]
            } else if chars.len() < 3 {
                vec![value.as_bytes().to_vec()]
            } else {
                chars.windows(3).map(|w| w.iter().collect::<String>().into_bytes()).collect()
            };
            assert_eq!(fast, slow, "{value:?}");
        }
    }

    #[test]
    fn indexed_qgram_matches_scan_qgram() {
        // Scanning the five last names by hand: only the two typo
        // pairs share a trigram, and no trigram is in more than two
        // records (the 5 % cap floors at 2).
        let d = typo_data();
        let indexed = candidates(&IndexedQGramBlocker::trigrams(0), &d);
        assert_eq!(indexed, HashSet::from([Pair(0, 1), Pair(2, 3)]));
        let q = blocking_quality(&d, &IndexedQGramBlocker::trigrams(0));
        assert_eq!(q.pair_completeness, 1.0);
        assert_eq!(q.candidates, 2);
    }

    #[test]
    fn stop_policy_caps() {
        assert_eq!(StopPolicy::Fraction(0.05).cap(100), 5);
        assert_eq!(StopPolicy::Fraction(0.05).cap(10), 2);
        assert_eq!(StopPolicy::Absolute(1).cap(1_000_000), 2);
        assert_eq!(StopPolicy::Absolute(64).cap(10), 64);
        assert_eq!(StopPolicy::None.cap(10), usize::MAX);
    }

    #[test]
    fn absolute_cap_prunes_common_grams() {
        let mut d = Dataset::new(vec!["v".into()]);
        for i in 0..50 {
            d.push(vec![format!("AAA{i:03}")], i);
        }
        let capped = candidates(&IndexedQGramBlocker::trigrams_capped(0, 4), &d);
        let uncapped = IndexedQGramBlocker {
            key: 0,
            q: 3,
            stop: StopPolicy::None,
            threads: 1,
        };
        let uncapped = candidates(&uncapped, &d);
        assert_eq!(uncapped.len(), 50 * 49 / 2, "shared AAA joins everything");
        assert!(capped.len() < uncapped.len() / 10, "{}", capped.len());
    }

    #[test]
    fn token_blocker_finds_shared_tokens() {
        let mut d = Dataset::new(vec!["name".into()]);
        d.push(vec!["MARY ANN SMITH".into()], 0);
        d.push(vec!["SMITH MARY".into()], 0);
        d.push(vec!["JOHN DOE".into()], 1);
        d.push(vec!["JANE DOE".into()], 1);
        d.push(vec!["UNRELATED".into()], 2);
        let one = candidates(&IndexedTokenBlocker::any_token(vec![0], 64), &d);
        assert!(one.contains(&Pair(0, 1)));
        assert!(one.contains(&Pair(2, 3)));
        assert!(!one.iter().any(|p| p.0 == 4 || p.1 == 4));
        let two = IndexedTokenBlocker {
            keys: vec![0],
            min_overlap: 2,
            stop: StopPolicy::None,
            threads: 1,
        };
        let two = candidates(&two, &d);
        assert!(two.contains(&Pair(0, 1)), "MARY + SMITH shared");
        assert!(!two.contains(&Pair(2, 3)), "only DOE shared");
    }

    #[test]
    fn token_and_query_equals_counting_path() {
        // min_overlap == distinct tokens of the probe → AND fast path;
        // must agree with the counting union on the same data.
        let mut d = Dataset::new(vec!["name".into()]);
        d.push(vec!["ALPHA BETA".into()], 0);
        d.push(vec!["BETA ALPHA GAMMA".into()], 0);
        d.push(vec!["ALPHA DELTA".into()], 1);
        d.push(vec!["BETA".into()], 1);
        for min_overlap in 1..=3 {
            let b = IndexedTokenBlocker {
                keys: vec![0],
                min_overlap,
                stop: StopPolicy::None,
                threads: 1,
            };
            let mut reference = HashSet::new();
            for i in 0..d.len() {
                for j in 0..i {
                    let ti: HashSet<&str> = d.records[i].values[0].split_whitespace().collect();
                    let tj: HashSet<&str> = d.records[j].values[0].split_whitespace().collect();
                    if ti.intersection(&tj).count() >= min_overlap {
                        reference.insert(Pair(j, i));
                    }
                }
            }
            assert_eq!(candidates(&b, &d), reference, "min_overlap={min_overlap}");
        }
    }

    #[test]
    fn soundex_blocker_pairs_phonetic_variants() {
        let mut d = Dataset::new(vec!["last".into()]);
        d.push(vec!["ROBERT".into()], 0);
        d.push(vec!["RUPERT".into()], 0);
        d.push(vec!["ASHCRAFT".into()], 1);
        d.push(vec!["ASHCROFT".into()], 1);
        d.push(vec!["12345".into()], 2); // no code: joins no bucket
        d.push(vec!["12345".into()], 2);
        let c = candidates(&SoundexBlocker::new(0, 64), &d);
        assert!(c.contains(&Pair(0, 1)));
        assert!(c.contains(&Pair(2, 3)));
        assert!(!c.iter().any(|p| p.0 >= 4 || p.1 >= 4));
    }

    #[test]
    fn composite_unions_passes() {
        let d = typo_data();
        let qgram = IndexedQGramBlocker::trigrams(0);
        let sdx = SoundexBlocker::new(1, 64);
        let composite = CompositeBlocker::new(vec![Box::new(qgram.clone()), Box::new(sdx.clone())]);
        assert_eq!(composite.len(), 2);
        assert!(!composite.is_empty());
        let mut collector = PairCollector::new();
        composite.stream_into(&d, &mut collector);
        let unioned: HashSet<Pair> = collector.finish().into_iter().collect();
        let mut expected = candidates(&qgram, &d);
        expected.extend(candidates(&sdx, &d));
        assert_eq!(unioned, expected);
    }

    #[test]
    fn parallel_probe_is_bit_identical() {
        let d = typo_data();
        for blocker in [1usize, 2, 4].map(|t| IndexedQGramBlocker {
            key: 0,
            q: 2,
            stop: StopPolicy::None,
            threads: t,
        }) {
            let mut seq = Vec::new();
            IndexedQGramBlocker { threads: 1, ..blocker.clone() }.stream_into(&d, &mut seq);
            let mut par = Vec::new();
            blocker.stream_into(&d, &mut par);
            assert_eq!(seq, par, "threads={}", blocker.threads);
        }
    }

    #[test]
    fn empty_dataset_and_empty_values() {
        let empty = Dataset::new(vec!["v".into()]);
        assert!(candidates(&IndexedQGramBlocker::trigrams(0), &empty).is_empty());
        assert!(candidates(&SoundexBlocker::new(0, 8), &empty).is_empty());
        let mut blanks = Dataset::new(vec!["v".into()]);
        blanks.push(vec!["".into()], 0);
        blanks.push(vec!["  ".into()], 0);
        assert!(candidates(&IndexedQGramBlocker::trigrams(0), &blanks).is_empty());
        assert!(candidates(&IndexedTokenBlocker::any_token(vec![0], 8), &blanks).is_empty());
    }
}
