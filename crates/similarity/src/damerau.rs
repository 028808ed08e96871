//! Damerau–Levenshtein edit distance and derived similarities.
//!
//! Two variants are provided:
//!
//! * [`DamerauLevenshtein`] — the classic *optimal string alignment*
//!   distance (insertions, deletions, substitutions and adjacent
//!   transpositions, no substring edited twice). This is the definition
//!   used throughout the record-linkage literature when speaking of a
//!   "Damerau-Levenshtein distance of 1" for typo detection, and it is the
//!   variant the paper uses for its typo irregularity detector
//!   (Section 6.4).
//! * [`ExtendedDamerauLevenshtein`] — the paper's Section 6.2 extension for
//!   plausibility scoring: comparisons against missing values score `1.0`
//!   and a value that is a *prefix* of the other (an abbreviation) also
//!   scores `1.0`, because neither contradicts the duplicate assumption.

use crate::scratch::Scratch;
use crate::{clamp01, with_thread_scratch, OptionalSimilarity, ScratchSimilarity, StringSimilarity};

/// Optimal-string-alignment Damerau–Levenshtein distance between two
/// `char` slices.
///
/// Runs in `O(|a| * |b|)` time and `O(min(|a|, |b|))`-ish space (three
/// rolling rows).
pub fn osa_distance(a: &[char], b: &[char]) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let (a, b) = if a.len() < b.len() { (b, a) } else { (a, b) };
    let m = b.len();

    // Three rolling rows: two previous rows are needed for transpositions.
    let mut prev2: Vec<usize> = vec![0; m + 1];
    let mut prev: Vec<usize> = (0..=m).collect();
    let mut cur: Vec<usize> = vec![0; m + 1];

    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            let mut d = (prev[j + 1] + 1).min(cur[j] + 1).min(prev[j] + cost);
            if i > 0 && j > 0 && ca == b[j - 1] && a[i - 1] == cb {
                d = d.min(prev2[j - 1] + 1);
            }
            cur[j + 1] = d;
        }
        std::mem::swap(&mut prev2, &mut prev);
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[m]
}

/// Convenience wrapper over [`osa_distance`] for `&str` inputs.
pub fn distance(a: &str, b: &str) -> usize {
    with_thread_scratch(|s| distance_with(s, a, b))
}

/// Allocation-free variant of [`distance`]: bit-parallel when both
/// inputs are ASCII and at most 64 bytes long, the scratch's DP rows
/// otherwise.
pub fn distance_with(scratch: &mut Scratch, a: &str, b: &str) -> usize {
    scratch.osa(a, b)
}

/// Normalized Damerau–Levenshtein similarity:
/// `1 - distance / max(|a|, |b|)`, and `1.0` when both strings are empty.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DamerauLevenshtein;

impl DamerauLevenshtein {
    /// Create the measure.
    pub const fn new() -> Self {
        Self
    }

    /// Allocation-free scoring against caller-provided scratch
    /// buffers; bit-identical to [`StringSimilarity::sim`].
    pub fn sim_with(&self, scratch: &mut Scratch, a: &str, b: &str) -> f64 {
        // For ASCII inputs byte length equals char count, so the
        // normalization denominator is unchanged on the fast path.
        let (d, max_len) = if a.is_ascii() && b.is_ascii() {
            (
                scratch.osa_ascii(a.as_bytes(), b.as_bytes()),
                a.len().max(b.len()),
            )
        } else {
            (scratch.osa(a, b), a.chars().count().max(b.chars().count()))
        };
        if max_len == 0 {
            return 1.0;
        }
        clamp01(1.0 - d as f64 / max_len as f64)
    }
}

impl StringSimilarity for DamerauLevenshtein {
    fn sim(&self, a: &str, b: &str) -> f64 {
        with_thread_scratch(|s| self.sim_with(s, a, b))
    }
}

impl ScratchSimilarity for DamerauLevenshtein {
    fn sim_scratch(&self, scratch: &mut Scratch, a: &str, b: &str) -> f64 {
        self.sim_with(scratch, a, b)
    }
}

/// The paper's extended Damerau–Levenshtein similarity (Section 6.2).
///
/// Used as the inner token measure of the Generalized Jaccard name
/// similarity and as the birthplace measure during plausibility scoring.
/// Its extensions encode the plausibility-check philosophy that only
/// *contradictions* should lower similarity:
///
/// * a comparison against a missing/empty value scores `1.0`;
/// * if one value is a prefix of the other (e.g. the abbreviation `A.` vs
///   `ANNE`, after stripping a trailing punctuation mark) the score is
///   `1.0`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtendedDamerauLevenshtein;

impl ExtendedDamerauLevenshtein {
    /// Create the measure.
    pub const fn new() -> Self {
        Self
    }

    /// Strip one trailing punctuation mark, as allowed for abbreviations.
    fn strip_trailing_punct(s: &str) -> &str {
        s.strip_suffix(['.', ',', ';']).unwrap_or(s)
    }

    /// Allocation-free scoring against caller-provided scratch
    /// buffers; bit-identical to [`StringSimilarity::sim`].
    pub fn sim_with(&self, scratch: &mut Scratch, a: &str, b: &str) -> f64 {
        let a = a.trim();
        let b = b.trim();
        if a.is_empty() || b.is_empty() {
            return 1.0;
        }
        let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        let short_stripped = Self::strip_trailing_punct(short);
        // `str::starts_with` compares UTF-8 bytes, which is exactly a
        // char-sequence prefix test — no decode buffers needed.
        if !short_stripped.is_empty() && long.starts_with(short_stripped) {
            return 1.0;
        }
        DamerauLevenshtein::new().sim_with(scratch, a, b)
    }
}

impl StringSimilarity for ExtendedDamerauLevenshtein {
    fn sim(&self, a: &str, b: &str) -> f64 {
        with_thread_scratch(|s| self.sim_with(s, a, b))
    }
}

impl ScratchSimilarity for ExtendedDamerauLevenshtein {
    fn sim_scratch(&self, scratch: &mut Scratch, a: &str, b: &str) -> f64 {
        self.sim_with(scratch, a, b)
    }
}

impl ExtendedDamerauLevenshtein {
    /// Optional-value comparison (missing ⇒ `1.0`), the form used by the
    /// plausibility scorer.
    pub fn sim_optional(&self, a: Option<&str>, b: Option<&str>) -> f64 {
        <Self as OptionalSimilarity>::sim_opt(self, a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(a: &str, b: &str) -> usize {
        distance(a, b)
    }

    #[test]
    fn distance_identical_is_zero() {
        assert_eq!(d("", ""), 0);
        assert_eq!(d("WILLIAMS", "WILLIAMS"), 0);
    }

    #[test]
    fn distance_empty_vs_nonempty() {
        assert_eq!(d("", "ABC"), 3);
        assert_eq!(d("ABC", ""), 3);
    }

    #[test]
    fn distance_substitution() {
        assert_eq!(d("OEHRIE", "OEHRLE"), 1);
    }

    #[test]
    fn distance_insertion_deletion() {
        assert_eq!(d("ADELL", "ADELLE"), 1);
        assert_eq!(d("ADELLE", "ADELL"), 1);
    }

    #[test]
    fn distance_transposition_counts_once() {
        // Plain Levenshtein would give 2 here.
        assert_eq!(d("MARHTA", "MARTHA"), 1);
        assert_eq!(d("AB", "BA"), 1);
    }

    #[test]
    fn distance_osa_classic_example() {
        // The classic OSA example: CA -> ABC is 3 under OSA (2 under
        // unrestricted Damerau-Levenshtein).
        assert_eq!(d("CA", "ABC"), 3);
    }

    #[test]
    fn distance_is_symmetric() {
        for (a, b) in [("KITTEN", "SITTING"), ("BAILEY", "BAYLEE"), ("", "X")] {
            assert_eq!(d(a, b), d(b, a));
        }
    }

    #[test]
    fn distance_unicode_aware() {
        assert_eq!(d("MÜLLER", "MULLER"), 1);
        assert_eq!(d("ÆON", "AEON"), 2);
    }

    #[test]
    fn similarity_range_and_values() {
        let dl = DamerauLevenshtein::new();
        assert_eq!(dl.sim("", ""), 1.0);
        assert_eq!(dl.sim("ABCD", "ABCD"), 1.0);
        assert_eq!(dl.sim("ABCD", ""), 0.0);
        assert!((dl.sim("ABCD", "ABCE") - 0.75).abs() < 1e-12);
    }

    #[test]
    fn extended_prefix_is_perfect() {
        let e = ExtendedDamerauLevenshtein::new();
        assert_eq!(e.sim("KIM", "KIMBERLY"), 1.0);
        assert_eq!(e.sim("KIMBERLY", "KIM"), 1.0);
        assert_eq!(e.sim("A.", "ANNE"), 1.0);
        assert_eq!(e.sim("A", "ANNE"), 1.0);
    }

    #[test]
    fn extended_missing_is_perfect() {
        let e = ExtendedDamerauLevenshtein::new();
        assert_eq!(e.sim("", "ANNE"), 1.0);
        assert_eq!(e.sim("   ", "ANNE"), 1.0);
        assert_eq!(e.sim_optional(None, Some("ANNE")), 1.0);
    }

    #[test]
    fn extended_falls_back_to_damerau() {
        let e = ExtendedDamerauLevenshtein::new();
        let dl = DamerauLevenshtein::new();
        assert_eq!(e.sim("OEHRIE", "OEHRLE"), dl.sim("OEHRIE", "OEHRLE"));
        assert!(e.sim("FIELDS", "BETHEA") < 0.35);
    }

    #[test]
    fn extended_nonprefix_not_perfect() {
        let e = ExtendedDamerauLevenshtein::new();
        assert!(e.sim("ANN", "ANDREW") < 1.0);
    }
}
