//! Classification: thresholding scored pairs.

use std::collections::HashSet;

use crate::dataset::Pair;

/// A candidate pair with its record similarity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredPair {
    /// The record pair.
    pub pair: Pair,
    /// Matcher similarity in `[0, 1]`.
    pub score: f64,
}

/// Pairs with `score ≥ threshold`.
pub fn classify(scored: &[ScoredPair], threshold: f64) -> HashSet<Pair> {
    scored
        .iter()
        .filter(|s| s.score >= threshold)
        .map(|s| s.pair)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(a: usize, b: usize, s: f64) -> ScoredPair {
        ScoredPair {
            pair: Pair::new(a, b),
            score: s,
        }
    }

    #[test]
    fn classify_respects_threshold_inclusively() {
        let scored = vec![sp(0, 1, 0.9), sp(1, 2, 0.7), sp(2, 3, 0.5)];
        let out = classify(&scored, 0.7);
        assert_eq!(out.len(), 2);
        assert!(out.contains(&Pair(0, 1)));
        assert!(out.contains(&Pair(1, 2)));
    }

    #[test]
    fn empty_inputs() {
        assert!(classify(&[], 0.5).is_empty());
        assert!(classify(&[sp(0, 1, 0.4)], 0.5).is_empty());
    }
}
