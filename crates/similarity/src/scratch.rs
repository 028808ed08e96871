//! Reusable scratch buffers for the allocation-free kernel entry points.
//!
//! Every hot similarity kernel ([`crate::damerau`], [`crate::jaro`],
//! [`crate::monge_elkan`], [`crate::gen_jaccard`]) has a `*_with`
//! variant taking a `&mut Scratch`. The scratch owns every buffer the
//! kernels would otherwise allocate per call — Damerau–Levenshtein DP
//! rows, Jaro match bitmaps and its per-byte pattern table, `char`
//! decode buffers for non-ASCII input, token ranges,
//! Generalized-Jaccard weight matrices and the Hungarian-algorithm
//! working set — so a tight scoring loop performs no heap allocation
//! after warm-up.
//!
//! All `*_with` entry points take an ASCII byte-slice fast path when
//! both inputs are ASCII (voter data always is): byte length equals
//! `char` count there, so every distance, window and normalization is
//! bit-identical to the `char` path, which remains as the fallback for
//! arbitrary UTF-8. Jaro goes one step further when both ASCII values
//! fit in 64 bytes: each value is a `u64` of positions, and matching
//! one symbol against its window is a handful of word operations
//! (`jaro_words`). It computes the same match and transposition
//! counts as the scalar kernel and feeds them to the same formula, so
//! the scores are the same to the bit.
//!
//! A `Scratch` is cheap to create and intended to live one-per-thread;
//! it is deliberately `!Sync` in usage (`&mut` everywhere) so a worker
//! pool gives each worker its own.

use crate::assignment::AssignScratch;

/// Working memory shared by every `*_with` kernel entry point.
///
/// Buffers grow to the high-water mark of the inputs seen and are
/// never shrunk. The contents between calls are unspecified.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Rolling DP rows for the OSA distance (`prev2`, `prev`, `cur`).
    pub(crate) dp: DpRows,
    /// `char` decode buffers for the non-ASCII fallback paths.
    pub(crate) chars: CharBufs,
    /// Jaro match bookkeeping.
    pub(crate) jaro: JaroBufs,
    /// Per-byte position masks for the word-parallel Jaro path.
    pub(crate) pattern: PatternTable,
    /// Token byte ranges of the first tokenized input.
    pub(crate) tokens_a: Vec<(usize, usize)>,
    /// Token byte ranges of the second tokenized input.
    pub(crate) tokens_b: Vec<(usize, usize)>,
    /// Flattened `rows × cols` weight matrix for Generalized Jaccard.
    pub(crate) weights: Vec<f64>,
    /// Hungarian-algorithm working set.
    pub(crate) assign: AssignScratch,
}

impl Scratch {
    /// Create an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// OSA Damerau–Levenshtein distance between two strings, using the
    /// ASCII byte path when possible.
    pub(crate) fn osa(&mut self, a: &str, b: &str) -> usize {
        if a.is_ascii() && b.is_ascii() {
            osa_core(&mut self.dp, a.as_bytes(), b.as_bytes())
        } else {
            self.chars.fill(a, b);
            osa_core(&mut self.dp, &self.chars.a, &self.chars.b)
        }
    }

    /// Jaro similarity between two strings: word-parallel for ASCII
    /// values of at most 64 bytes, the ASCII byte path for longer ones.
    pub(crate) fn jaro(&mut self, a: &str, b: &str) -> f64 {
        if let Some(score) = jaro_words(&mut self.pattern, a, b) {
            score
        } else if a.is_ascii() && b.is_ascii() {
            jaro_core(&mut self.jaro, a.as_bytes(), b.as_bytes())
        } else {
            self.chars.fill(a, b);
            jaro_core(&mut self.jaro, &self.chars.a, &self.chars.b)
        }
    }
}

/// Three rolling DP rows (two previous rows are needed for adjacent
/// transpositions).
#[derive(Debug, Default)]
pub(crate) struct DpRows {
    prev2: Vec<usize>,
    prev: Vec<usize>,
    cur: Vec<usize>,
}

/// `char` decode buffers for non-ASCII inputs.
#[derive(Debug, Default)]
pub(crate) struct CharBufs {
    pub(crate) a: Vec<char>,
    pub(crate) b: Vec<char>,
}

impl CharBufs {
    fn fill(&mut self, a: &str, b: &str) {
        self.a.clear();
        self.a.extend(a.chars());
        self.b.clear();
        self.b.extend(b.chars());
    }
}

/// Jaro match bookkeeping: a matched-flag per `b` element and the
/// matched positions of both sides in match order.
#[derive(Debug, Default)]
pub(crate) struct JaroBufs {
    matched_b: Vec<bool>,
    match_idx_a: Vec<usize>,
    match_idx_b: Vec<usize>,
}

/// For each ASCII byte, the positions of a value where it occurs, as
/// bits of a word. All zero between calls: [`jaro_words`] sets the
/// entries of one value and clears them again before it returns.
#[derive(Debug)]
pub(crate) struct PatternTable([u64; 128]);

impl Default for PatternTable {
    fn default() -> Self {
        Self([0; 128])
    }
}

/// Jaro similarity of two ASCII values of at most 64 bytes each, or
/// `None` for any other input (which [`jaro_core`] then scores).
///
/// The integer steps are [`jaro_core`]'s, done a word at a time: bit
/// `j` of `pattern[c]` says `b[j] == c`, so the unmatched positions of
/// `b` within `a[i]`'s window that hold `a[i]` are one `and` of three
/// words, and the lowest of them is the lowest index `jaro_core`'s
/// scan stops at. Matched positions collect in `matched_a` and
/// `matched_b`; walking their set bits in order pairs the `k`-th match
/// of `a` with the `k`-th of `b`, as `jaro_core`'s zip does. The loop
/// has no data-dependent branch. Same counts, same float formula, same
/// bits.
pub(crate) fn jaro_words(pattern: &mut PatternTable, a: &str, b: &str) -> Option<f64> {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len() > 64 || b.len() > 64 || !a.is_ascii() || !b.is_ascii() {
        return None;
    }
    if a.is_empty() && b.is_empty() {
        return Some(1.0);
    }
    if a.is_empty() || b.is_empty() {
        return Some(0.0);
    }
    if a == b {
        return Some(1.0);
    }
    // ASCII, so `& 0x7f` changes no byte; it only lets the compiler see
    // every index is in bounds.
    let pm = &mut pattern.0;
    for (j, &c) in b.iter().enumerate() {
        pm[usize::from(c & 0x7f)] |= 1 << j;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    // Positions `i - window ..= i + window` of `b`, for `i = 0`; `pm`
    // has no bit at or past `b.len()`, so that end needs no clipping.
    let mut in_window = (2u64 << window) - 1;
    let (mut matched_a, mut matched_b) = (0u64, 0u64);
    for (i, &c) in a.iter().enumerate() {
        let candidates = pm[usize::from(c & 0x7f)] & !matched_b & in_window;
        let first = candidates & candidates.wrapping_neg();
        matched_b |= first;
        matched_a |= u64::from(first != 0) << i;
        // Slide to `i + 1`: the end moves up one; the start, clipped at
        // 0, moves up once `i >= window`.
        in_window = (in_window << 1) | u64::from(i < window);
    }
    for &c in b {
        pm[usize::from(c & 0x7f)] = 0;
    }
    let m = matched_a.count_ones();
    if m == 0 {
        return Some(0.0);
    }
    let mut transpositions = 0u32;
    while matched_a != 0 {
        let (i, j) = (matched_a.trailing_zeros(), matched_b.trailing_zeros());
        transpositions += u32::from(a[i as usize] != b[j as usize]);
        matched_a &= matched_a - 1;
        matched_b &= matched_b - 1;
    }
    let m = f64::from(m);
    let t = f64::from(transpositions / 2);
    Some(crate::clamp01(
        (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0,
    ))
}

/// OSA Damerau–Levenshtein distance over generic symbol slices with
/// caller-provided DP rows. Identical arithmetic to
/// [`crate::damerau::osa_distance`]; generic so the ASCII fast path
/// (`&[u8]`) and the Unicode fallback (`&[char]`) share one
/// implementation.
pub(crate) fn osa_core<T: PartialEq + Copy>(dp: &mut DpRows, a: &[T], b: &[T]) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let (a, b) = if a.len() < b.len() { (b, a) } else { (a, b) };
    let m = b.len();

    dp.prev2.clear();
    dp.prev2.resize(m + 1, 0);
    dp.prev.clear();
    dp.prev.extend(0..=m);
    dp.cur.clear();
    dp.cur.resize(m + 1, 0);

    for (i, &ca) in a.iter().enumerate() {
        dp.cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            let mut d = (dp.prev[j + 1] + 1)
                .min(dp.cur[j] + 1)
                .min(dp.prev[j] + cost);
            if i > 0 && j > 0 && ca == b[j - 1] && a[i - 1] == cb {
                d = d.min(dp.prev2[j - 1] + 1);
            }
            dp.cur[j + 1] = d;
        }
        std::mem::swap(&mut dp.prev2, &mut dp.prev);
        std::mem::swap(&mut dp.prev, &mut dp.cur);
    }
    dp.prev[m]
}

/// Jaro similarity over generic symbol slices with caller-provided
/// match buffers. Identical arithmetic to [`crate::jaro::jaro`];
/// matched symbols are tracked by index so the buffers are
/// type-independent.
pub(crate) fn jaro_core<T: PartialEq + Copy>(bufs: &mut JaroBufs, a: &[T], b: &[T]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    if a == b {
        return 1.0;
    }
    let match_window = (a.len().max(b.len()) / 2).saturating_sub(1);
    bufs.matched_b.clear();
    bufs.matched_b.resize(b.len(), false);
    bufs.match_idx_a.clear();

    for (i, &ca) in a.iter().enumerate() {
        let hi = (i + match_window + 1).min(b.len());
        let lo = i.saturating_sub(match_window).min(hi);
        for (matched, &cb) in bufs.matched_b[lo..hi].iter_mut().zip(&b[lo..hi]) {
            if !*matched && cb == ca {
                *matched = true;
                bufs.match_idx_a.push(i);
                break;
            }
        }
    }
    let m = bufs.match_idx_a.len();
    if m == 0 {
        return 0.0;
    }
    bufs.match_idx_b.clear();
    bufs.match_idx_b
        .extend((0..b.len()).filter(|&j| bufs.matched_b[j]));
    let transpositions = bufs
        .match_idx_a
        .iter()
        .zip(bufs.match_idx_b.iter())
        .filter(|&(&i, &j)| a[i] != b[j])
        .count()
        / 2;
    let m = m as f64;
    let t = transpositions as f64;
    crate::clamp01((m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0)
}

/// Append the byte ranges of the whitespace-separated tokens of `s`
/// to `out` (cleared first). Produces the same tokens as
/// [`crate::token::tokens`] without allocating per call.
pub(crate) fn tokenize_into(s: &str, out: &mut Vec<(usize, usize)>) {
    out.clear();
    let base = s.as_ptr() as usize;
    out.extend(s.split_whitespace().map(|tok| {
        let start = tok.as_ptr() as usize - base;
        (start, start + tok.len())
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::damerau::osa_distance;
    use crate::jaro::jaro;

    fn chars(s: &str) -> Vec<char> {
        s.chars().collect()
    }

    #[test]
    fn osa_core_matches_reference_on_reused_buffers() {
        let mut dp = DpRows::default();
        let cases = [
            ("", ""),
            ("", "ABC"),
            ("MARHTA", "MARTHA"),
            ("CA", "ABC"),
            ("KITTEN", "SITTING"),
            ("WILLIAMS", "WILLIAMS"),
            ("A", "LONGERSTRINGHERE"),
        ];
        // Interleave long and short inputs so stale buffer contents
        // would be caught.
        for _ in 0..3 {
            for (a, b) in cases {
                assert_eq!(
                    osa_core(&mut dp, a.as_bytes(), b.as_bytes()),
                    osa_distance(&chars(a), &chars(b)),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn jaro_core_matches_reference_on_reused_buffers() {
        let mut bufs = JaroBufs::default();
        let cases = [
            ("", ""),
            ("", "ABC"),
            ("MARTHA", "MARHTA"),
            ("DIXON", "DICKSONX"),
            ("DWAYNE", "DUANE"),
            ("ABC", "XYZ"),
            ("A", "LONGERSTRINGHERE"),
        ];
        for _ in 0..3 {
            for (a, b) in cases {
                let got = jaro_core(&mut bufs, a.as_bytes(), b.as_bytes());
                let want = jaro(&chars(a), &chars(b));
                assert!((got - want).abs() < 1e-15, "{a} vs {b}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn jaro_words_takes_what_fits_a_word_and_leaves_the_table_clear() {
        let mut pattern = PatternTable::default();
        let w64 = "AB".repeat(32);
        let w65 = format!("{w64}A");
        for (a, b) in [
            ("", ""),
            ("", "ABC"),
            ("MARTHA", "MARHTA"),
            (&w64, "BA"),
            (&w64, &w64),
        ] {
            let got = jaro_words(&mut pattern, a, b).expect("fits a word");
            assert_eq!(
                got.to_bits(),
                jaro(&chars(a), &chars(b)).to_bits(),
                "{a} vs {b}"
            );
            assert!(pattern.0.iter().all(|&bits| bits == 0), "{a} vs {b}");
        }
        for (a, b) in [
            (w65.as_str(), "AB"),
            ("AB", &w65),
            ("ÅSA", "ASA"),
            ("JOSE", "JOSÉ"),
        ] {
            assert_eq!(jaro_words(&mut pattern, a, b), None, "{a} vs {b}");
        }
    }

    #[test]
    fn cores_handle_unicode_via_char_slices() {
        let mut dp = DpRows::default();
        assert_eq!(
            osa_core(&mut dp, &chars("MÜLLER"), &chars("MULLER")),
            osa_distance(&chars("MÜLLER"), &chars("MULLER"))
        );
        let mut bufs = JaroBufs::default();
        let got = jaro_core(&mut bufs, &chars("MÜLLER"), &chars("MULLER"));
        let want = jaro(&chars("MÜLLER"), &chars("MULLER"));
        assert!((got - want).abs() < 1e-15);
    }

    #[test]
    fn tokenize_into_matches_token_helper() {
        let mut buf = Vec::new();
        for s in ["  MARY  ANN ", "", "   ", "ONE", "A B C D"] {
            tokenize_into(s, &mut buf);
            let via_ranges: Vec<&str> = buf.iter().map(|&(x, y)| &s[x..y]).collect();
            assert_eq!(via_ranges, crate::token::tokens(s), "{s:?}");
        }
    }
}
