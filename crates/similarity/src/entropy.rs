//! Entropy-based attribute uniqueness weighting.
//!
//! Section 6.3: "we weighted every attribute by its uniqueness, where we
//! quantified this uniqueness by the attribute's entropy". The weights
//! are the Shannon entropies of the attributes' value distributions,
//! normalized to sum to one. For heterogeneity scoring the paper computes
//! entropy over *one record per cluster* (duplicates would distort the
//! distribution); for detection it uses all records, since a user cannot
//! know the duplicates in advance. Both usages funnel through
//! [`EntropyAccumulator`].

use std::collections::HashMap;

/// Streaming accumulator for the value distribution of one attribute.
#[derive(Debug, Clone, Default)]
pub struct EntropyAccumulator {
    counts: HashMap<String, u64>,
    total: u64,
}

impl EntropyAccumulator {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observed value. Missing values should be passed as the
    /// empty string so that sparsity lowers an attribute's entropy.
    ///
    /// Only a value not seen before is copied into a key.
    pub fn observe(&mut self, value: &str) {
        match self.counts.get_mut(value) {
            Some(count) => *count += 1,
            None => {
                self.counts.insert(value.to_owned(), 1);
            }
        }
        self.total += 1;
    }

    /// Number of observations so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct values seen.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Shannon entropy (base 2) of the observed distribution; `0.0` when
    /// empty.
    ///
    /// Summed in sorted-count order, not `HashMap` iteration order:
    /// float addition is not associative, and the map's per-instance
    /// random ordering would otherwise let two accumulators over the
    /// same multiset disagree by an ulp — breaking the bit-identity
    /// contracts of parallel scoring and sharded stores.
    pub fn entropy(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let n = self.total as f64;
        let mut counts: Vec<u64> = self.counts.values().copied().collect();
        counts.sort_unstable();
        counts
            .iter()
            .map(|&c| {
                let p = c as f64 / n;
                -p * p.log2()
            })
            .sum()
    }
}

/// Compute the Shannon entropy of a column of values.
pub fn column_entropy<'a, I: IntoIterator<Item = &'a str>>(values: I) -> f64 {
    let mut acc = EntropyAccumulator::new();
    for v in values {
        acc.observe(v);
    }
    acc.entropy()
}

/// Normalize raw entropies into weights that sum to `1.0`.
///
/// If every entropy is zero (e.g. a single record), uniform weights are
/// returned so that downstream weighted averages stay well defined.
pub fn normalize_weights(entropies: &[f64]) -> Vec<f64> {
    let sum: f64 = entropies.iter().sum();
    if sum <= 0.0 {
        if entropies.is_empty() {
            return Vec::new();
        }
        return vec![1.0 / entropies.len() as f64; entropies.len()];
    }
    entropies.iter().map(|e| e / sum).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_of_constant_column_is_zero() {
        assert_eq!(column_entropy(["A", "A", "A"]), 0.0);
        assert_eq!(column_entropy([]), 0.0);
    }

    #[test]
    fn entropy_of_uniform_column() {
        // Four equally likely values: entropy = 2 bits.
        let e = column_entropy(["A", "B", "C", "D"]);
        assert!((e - 2.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_of_skewed_column_is_lower() {
        let uniform = column_entropy(["A", "B", "C", "D"]);
        let skewed = column_entropy(["A", "A", "A", "B"]);
        assert!(skewed < uniform);
        assert!(skewed > 0.0);
    }

    #[test]
    fn unique_column_has_max_entropy() {
        let vals: Vec<String> = (0..64).map(|i| format!("V{i}")).collect();
        let e = column_entropy(vals.iter().map(|s| s.as_str()));
        assert!((e - 6.0).abs() < 1e-12); // log2(64)
    }

    #[test]
    fn weights_sum_to_one() {
        let w = normalize_weights(&[2.0, 1.0, 1.0]);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((w[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_entropies_yield_uniform_weights() {
        let w = normalize_weights(&[0.0, 0.0]);
        assert_eq!(w, vec![0.5, 0.5]);
        assert!(normalize_weights(&[]).is_empty());
    }

    #[test]
    fn accumulator_counts() {
        let mut acc = EntropyAccumulator::new();
        acc.observe("X");
        acc.observe("X");
        acc.observe("");
        assert_eq!(acc.total(), 3);
        assert_eq!(acc.distinct(), 2);
        assert!(acc.entropy() > 0.0);
    }
}
