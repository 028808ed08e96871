//! Monge–Elkan hybrid similarity.
//!
//! The heterogeneity scorer (Section 6.3) uses Monge–Elkan with
//! Damerau–Levenshtein as the internal token measure because the
//! Generalized Jaccard Coefficient is "computationally too expensive when
//! working on 90 attributes". Monge–Elkan is asymmetric, so — following
//! the paper's footnote 13 — [`MongeElkan`] computes it in both
//! directions and averages. The scratch entry point
//! ([`MongeElkan::sim_with`]) is defined for that inner measure only:
//! it reads both directions from one token-pair matrix, which is exact
//! because Damerau–Levenshtein similarity is symmetric.

use crate::damerau::DamerauLevenshtein;
use crate::scratch::{self, Scratch};
use crate::{clamp01, ScratchSimilarity, StringSimilarity};

/// Symmetrized Monge–Elkan similarity with inner measure `S`.
///
/// The one-directional score is
/// `ME(A → B) = (1/|A|) Σ_{a ∈ A} max_{b ∈ B} sim(a, b)`;
/// the reported score is `(ME(A → B) + ME(B → A)) / 2`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MongeElkan<S> {
    inner: S,
}

impl<S: StringSimilarity> MongeElkan<S> {
    /// Create the symmetrized measure.
    pub fn new(inner: S) -> Self {
        Self { inner }
    }

    /// One-directional Monge–Elkan from `a`'s tokens to `b`'s tokens.
    pub fn directed(&self, a: &[&str], b: &[&str]) -> f64 {
        if a.is_empty() {
            return f64::from(b.is_empty());
        }
        if b.is_empty() {
            return 0.0;
        }
        let sum: f64 = a
            .iter()
            .map(|ta| {
                b.iter()
                    .map(|tb| self.inner.sim(ta, tb))
                    .fold(0.0f64, f64::max)
            })
            .sum();
        clamp01(sum / a.len() as f64)
    }

    /// Symmetric score over already-tokenized inputs.
    pub fn sim_tokens(&self, a: &[&str], b: &[&str]) -> f64 {
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        clamp01((self.directed(a, b) + self.directed(b, a)) / 2.0)
    }
}

impl<S: ScratchSimilarity> MongeElkan<S> {
    /// Allocation-free [`MongeElkan::directed`]; bit-identical scores.
    pub fn directed_with(&self, scratch: &mut Scratch, a: &[&str], b: &[&str]) -> f64 {
        if a.is_empty() {
            return f64::from(b.is_empty());
        }
        if b.is_empty() {
            return 0.0;
        }
        let mut sum = 0.0;
        for ta in a {
            let mut best = 0.0f64;
            for tb in b {
                best = best.max(self.inner.sim_scratch(scratch, ta, tb));
            }
            sum += best;
        }
        clamp01(sum / a.len() as f64)
    }

    /// Allocation-free [`MongeElkan::sim_tokens`]; bit-identical scores.
    pub fn sim_tokens_with(&self, scratch: &mut Scratch, a: &[&str], b: &[&str]) -> f64 {
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        clamp01((self.directed_with(scratch, a, b) + self.directed_with(scratch, b, a)) / 2.0)
    }
}

impl MongeElkan<DamerauLevenshtein> {
    /// Allocation-free [`StringSimilarity::sim`], bit-identical to
    /// [`MongeElkan::sim_tokens_with`] over the same tokens.
    ///
    /// Tokenizes into the scratch's token-range buffers and fills one
    /// token-pair matrix, `sim(a_i, b_j)` at `i * |B| + j`. Both
    /// directed scores are read from it: row maxima summed over `i` for
    /// `ME(A → B)`, then column maxima summed over `j` for `ME(B → A)`.
    /// The two-pass form scores `sim(b_j, a_i)` for the second; the OSA
    /// distance and the `max(len)` it is divided by are both symmetric,
    /// so that is the same float, and the maxima and sums run in the
    /// same order. Only this inner measure gets the one-matrix form.
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
            let mut matrix = std::mem::take(&mut scratch.weights);
            matrix.clear();
            for &(s0, e0) in &ta {
                for &(s1, e1) in &tb {
                    matrix.push(self.inner.sim_with(scratch, &a[s0..e0], &b[s1..e1]));
                }
            }
            let cols = tb.len();
            let mut sum = 0.0;
            for row in matrix.chunks_exact(cols) {
                sum += row.iter().fold(0.0f64, |best, &s| best.max(s));
            }
            let ab = clamp01(sum / ta.len() as f64);
            let mut sum = 0.0;
            for j in 0..cols {
                sum += matrix[j..]
                    .iter()
                    .step_by(cols)
                    .fold(0.0f64, |best, &s| best.max(s));
            }
            let ba = clamp01(sum / cols as f64);
            scratch.weights = matrix;
            clamp01((ab + ba) / 2.0)
        };
        scratch.tokens_a = ta;
        scratch.tokens_b = tb;
        out
    }
}

impl ScratchSimilarity for MongeElkan<DamerauLevenshtein> {
    fn sim_scratch(&self, scratch: &mut Scratch, a: &str, b: &str) -> f64 {
        self.sim_with(scratch, a, b)
    }
}

impl<S: StringSimilarity> StringSimilarity for MongeElkan<S> {
    fn sim(&self, a: &str, b: &str) -> f64 {
        let ta = crate::token::tokens(a);
        let tb = crate::token::tokens(b);
        self.sim_tokens(&ta, &tb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn me() -> MongeElkan<DamerauLevenshtein> {
        MongeElkan::new(DamerauLevenshtein::new())
    }

    #[test]
    fn identical_is_one() {
        assert_eq!(me().sim("PAUL A JONES", "PAUL A JONES"), 1.0);
        assert_eq!(me().sim("", ""), 1.0);
    }

    #[test]
    fn empty_vs_nonempty_is_zero() {
        assert_eq!(me().sim("", "PAUL"), 0.0);
    }

    #[test]
    fn token_order_invariant() {
        let m = me();
        assert!((m.sim("PAUL JONES", "JONES PAUL") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn asymmetric_directions_differ() {
        let m = me();
        let a = ["PAUL"];
        let b = ["PAUL", "ZZZZZZ"];
        let ab = m.directed(&a, &b);
        let ba = m.directed(&b, &a);
        assert!((ab - 1.0).abs() < 1e-12);
        assert!(ba < 1.0);
        // Symmetrized score is the average.
        assert!((m.sim_tokens(&a, &b) - (ab + ba) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn symmetrized_is_symmetric() {
        let m = me();
        for (a, b) in [
            ("MARY ANN SMITH", "SMITH MARYANN"),
            ("COMPTR SCI DEPT", "COMPUTER SCIENCE DEPARTMENT"),
            ("A", "A B C"),
        ] {
            assert!((m.sim(a, b) - m.sim(b, a)).abs() < 1e-12);
        }
    }

    #[test]
    fn typo_in_token_scores_high() {
        let s = me().sim("DEBRA OEHRIE", "DEBRA OEHRLE");
        assert!(s > 0.9, "{s}");
    }

    #[test]
    fn unrelated_scores_low() {
        let s = me().sim("FIELDS MARY", "BETHEA JOSHUA");
        assert!(s < 0.45, "{s}");
    }
}
