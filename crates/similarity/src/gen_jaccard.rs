//! Generalized Jaccard Coefficient — a hybrid (token-level) measure.
//!
//! The paper computes its name plausibility (Section 6.2) as
//! `GenJacc_DamLev(name(o1), name(o2))` where the token sets are the
//! (first, middle, last) name triples and the inner token measure is the
//! extended Damerau–Levenshtein similarity.
//!
//! Given token sequences `A` and `B` and an inner similarity `sim`, the
//! Generalized Jaccard Coefficient finds a maximum-weight 1:1 matching
//! `M ⊆ A × B` (only keeping pairs with `sim ≥ threshold`) and scores
//!
//! ```text
//! GJ(A, B) = Σ_{(a,b) ∈ M} sim(a, b)  /  (|A| + |B| − |M|)
//! ```
//!
//! With a threshold of `0` and exact matching this degrades gracefully to
//! the classic Jaccard coefficient when `sim` is binary equality.

use crate::assignment::{self, max_weight_assignment};
use crate::scratch::{self, Scratch};
use crate::{clamp01, ScratchSimilarity, StringSimilarity};

/// Generalized Jaccard Coefficient over whitespace tokens with inner
/// measure `S`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneralizedJaccard<S> {
    inner: S,
    /// Token pairs with inner similarity below this threshold are not
    /// matched (treated as unrelated tokens). `0.0` keeps every pair.
    pub threshold: f64,
}

impl<S: StringSimilarity> GeneralizedJaccard<S> {
    /// Create with a match threshold of `0.0` (all pairs eligible).
    pub fn new(inner: S) -> Self {
        Self { inner, threshold: 0.0 }
    }

    /// Create with a custom token match threshold.
    pub fn with_threshold(inner: S, threshold: f64) -> Self {
        assert!((0.0..=1.0).contains(&threshold));
        Self { inner, threshold }
    }

    /// Score two already-tokenized inputs.
    pub fn sim_tokens(&self, a: &[&str], b: &[&str]) -> f64 {
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let weights: Vec<Vec<f64>> = a
            .iter()
            .map(|ta| b.iter().map(|tb| self.inner.sim(ta, tb)).collect())
            .collect();
        let assignment = max_weight_assignment(&weights);
        let mut total = 0.0;
        let mut matched = 0usize;
        for &(i, j) in &assignment.pairs {
            let w = weights[i][j];
            if w >= self.threshold && w > 0.0 {
                total += w;
                matched += 1;
            }
        }
        let denom = (a.len() + b.len() - matched) as f64;
        if denom <= 0.0 {
            return 1.0;
        }
        clamp01(total / denom)
    }
}

impl<S: ScratchSimilarity> GeneralizedJaccard<S> {
    /// Allocation-free [`GeneralizedJaccard::sim_tokens`]: the weight
    /// matrix lives flattened in the scratch and the Hungarian
    /// algorithm reuses its working set. Bit-identical scores.
    pub fn sim_tokens_with(&self, scratch: &mut Scratch, a: &[&str], b: &[&str]) -> f64 {
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let mut weights = std::mem::take(&mut scratch.weights);
        weights.clear();
        for ta in a {
            for tb in b {
                weights.push(self.inner.sim_scratch(scratch, ta, tb));
            }
        }
        let score = self.score_weights(scratch, &weights, a.len(), b.len());
        scratch.weights = weights;
        score
    }

    /// Allocation-free [`StringSimilarity::sim`]: tokenizes into the
    /// scratch's token-range buffers. Bit-identical scores.
    pub fn sim_with(&self, scratch: &mut Scratch, a: &str, b: &str) -> f64 {
        let mut ta = std::mem::take(&mut scratch.tokens_a);
        let mut tb = std::mem::take(&mut scratch.tokens_b);
        scratch::tokenize_into(a, &mut ta);
        scratch::tokenize_into(b, &mut tb);
        let out = if ta.is_empty() && tb.is_empty() {
            1.0
        } else if ta.is_empty() || tb.is_empty() {
            0.0
        } else {
            let mut weights = std::mem::take(&mut scratch.weights);
            weights.clear();
            for &(s0, e0) in &ta {
                for &(s1, e1) in &tb {
                    weights.push(self.inner.sim_scratch(scratch, &a[s0..e0], &b[s1..e1]));
                }
            }
            let score = self.score_weights(scratch, &weights, ta.len(), tb.len());
            scratch.weights = weights;
            score
        };
        scratch.tokens_a = ta;
        scratch.tokens_b = tb;
        out
    }

    /// Shared tail of the scratch paths: run the assignment over the
    /// flattened `rows × cols` weight matrix and apply the threshold
    /// and Jaccard normalization exactly as `sim_tokens` does.
    fn score_weights(&self, scratch: &mut Scratch, weights: &[f64], rows: usize, cols: usize) -> f64 {
        assignment::assign_core(&mut scratch.assign, weights, rows, cols);
        let mut total = 0.0;
        let mut matched = 0usize;
        for &(i, j) in scratch.assign.pairs() {
            let w = weights[i * cols + j];
            if w >= self.threshold && w > 0.0 {
                total += w;
                matched += 1;
            }
        }
        let denom = (rows + cols - matched) as f64;
        if denom <= 0.0 {
            return 1.0;
        }
        clamp01(total / denom)
    }
}

impl<S: ScratchSimilarity> ScratchSimilarity for GeneralizedJaccard<S> {
    fn sim_scratch(&self, scratch: &mut Scratch, a: &str, b: &str) -> f64 {
        self.sim_with(scratch, a, b)
    }
}

impl<S: StringSimilarity> StringSimilarity for GeneralizedJaccard<S> {
    fn sim(&self, a: &str, b: &str) -> f64 {
        let ta = crate::token::tokens(a);
        let tb = crate::token::tokens(b);
        self.sim_tokens(&ta, &tb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::damerau::{DamerauLevenshtein, ExtendedDamerauLevenshtein};

    /// Binary equality inner measure — reduces GJ to classic Jaccard on
    /// distinct tokens.
    struct Eq01;
    impl StringSimilarity for Eq01 {
        fn sim(&self, a: &str, b: &str) -> f64 {
            f64::from(a == b)
        }
    }

    #[test]
    fn reduces_to_classic_jaccard_with_binary_inner() {
        let gj = GeneralizedJaccard::new(Eq01);
        // {A,B} vs {B,C}: intersection 1, union 3.
        assert!((gj.sim("A B", "B C") - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(gj.sim("A B", "A B"), 1.0);
        assert_eq!(gj.sim("A", "B"), 0.0);
    }

    #[test]
    fn empty_inputs() {
        let gj = GeneralizedJaccard::new(DamerauLevenshtein::new());
        assert_eq!(gj.sim("", ""), 1.0);
        assert_eq!(gj.sim("", "X"), 0.0);
        assert_eq!(gj.sim("   ", "   "), 1.0);
    }

    #[test]
    fn token_order_does_not_matter() {
        let gj = GeneralizedJaccard::new(DamerauLevenshtein::new());
        let s1 = gj.sim("MARY ANN SMITH", "SMITH MARY ANN");
        assert!((s1 - 1.0).abs() < 1e-12, "{s1}");
    }

    #[test]
    fn name_confusion_scores_high_with_extended_inner() {
        // Figure 3 scenario: name values mixed up between attributes plus
        // one typo; GJ with extended DamLev should stay high.
        let gj = GeneralizedJaccard::new(ExtendedDamerauLevenshtein::new());
        let s = gj.sim_tokens(
            &["WILLIAMS", "DEBRA", "OEHRIE"],
            &["OEHRLE", "DEBRA", "WILLIAMS"],
        );
        assert!(s > 0.9, "{s}");
    }

    #[test]
    fn threshold_drops_weak_matches() {
        let strict = GeneralizedJaccard::with_threshold(DamerauLevenshtein::new(), 0.8);
        let lax = GeneralizedJaccard::new(DamerauLevenshtein::new());
        let a = "ABCDEF";
        let b = "UVWXYZ";
        assert_eq!(strict.sim(a, b), 0.0);
        assert!(lax.sim(a, b) >= 0.0);
    }

    #[test]
    fn unequal_token_counts_penalized() {
        let gj = GeneralizedJaccard::new(Eq01);
        // {A} vs {A,B}: 1 match / (1 + 2 - 1) = 0.5.
        assert!((gj.sim("A", "A B") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn symmetric() {
        let gj = GeneralizedJaccard::new(DamerauLevenshtein::new());
        for (a, b) in [("MARY ANN", "ANN MARIE"), ("JOHN", "JON H"), ("A B C", "C B")] {
            assert!((gj.sim(a, b) - gj.sim(b, a)).abs() < 1e-9);
        }
    }
}
