//! Dataset characteristics (Table 3) and a schema-generic heterogeneity
//! measure.
//!
//! The paper scores the heterogeneity of Cora/Census/CDDB "with the same
//! settings" as for the NC data: the mean of {cased, lowercased} ×
//! {Damerau–Levenshtein, Monge–Elkan} value comparisons, attributes
//! weighted by entropy computed from one record per cluster.

use std::collections::HashSet;

use nc_detect::dataset::{Dataset, Record};
use nc_similarity::damerau::DamerauLevenshtein;
use nc_similarity::entropy::{normalize_weights, EntropyAccumulator};
use nc_similarity::monge_elkan::MongeElkan;
use nc_similarity::StringSimilarity;

/// Schema-generic heterogeneity scorer over [`Dataset`] records.
#[derive(Debug, Clone)]
pub struct GenericHeterogeneity {
    weights: Vec<f64>,
    damerau: DamerauLevenshtein,
    monge_elkan: MongeElkan<DamerauLevenshtein>,
}

impl GenericHeterogeneity {
    /// Entropy-weighted scorer; weights computed from one record per
    /// cluster.
    pub fn for_dataset(data: &Dataset) -> Self {
        let mut seen = HashSet::new();
        let mut accs: Vec<EntropyAccumulator> = (0..data.num_attrs())
            .map(|_| EntropyAccumulator::new())
            .collect();
        for r in &data.records {
            if seen.insert(r.cluster) {
                for (k, v) in r.values.iter().enumerate() {
                    accs[k].observe(v.trim());
                }
            }
        }
        let entropies: Vec<f64> = accs.iter().map(EntropyAccumulator::entropy).collect();
        GenericHeterogeneity {
            weights: normalize_weights(&entropies),
            damerau: DamerauLevenshtein::new(),
            monge_elkan: MongeElkan::new(DamerauLevenshtein::new()),
        }
    }

    /// The four-way value similarity (Section 6.3).
    pub fn value_similarity(&self, a: &str, b: &str) -> f64 {
        let (a, b) = (a.trim(), b.trim());
        if a == b {
            return 1.0;
        }
        let (la, lb) = (a.to_lowercase(), b.to_lowercase());
        (self.damerau.sim(a, b)
            + self.damerau.sim(&la, &lb)
            + self.monge_elkan.sim(a, b)
            + self.monge_elkan.sim(&la, &lb))
            / 4.0
    }

    /// Pairwise record heterogeneity in `[0, 1]`.
    pub fn pair(&self, a: &Record, b: &Record) -> f64 {
        let mut acc = 0.0;
        let mut total_w = 0.0;
        for (k, &w) in self.weights.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            let (x, y) = (a.values[k].trim(), b.values[k].trim());
            let sim = if x.is_empty() && y.is_empty() {
                1.0
            } else {
                self.value_similarity(x, y)
            };
            acc += w * (1.0 - sim);
            total_w += w;
        }
        if total_w == 0.0 {
            0.0
        } else {
            acc / total_w
        }
    }
}

/// One row of Table 3.
#[derive(Debug, Clone, PartialEq)]
pub struct Characteristics {
    /// Dataset label.
    pub name: String,
    /// Number of records.
    pub records: usize,
    /// Number of attributes.
    pub attributes: usize,
    /// Number of gold duplicate pairs.
    pub duplicate_pairs: usize,
    /// Number of clusters.
    pub clusters: usize,
    /// Number of clusters with ≥ 2 records.
    pub non_singletons: usize,
    /// Largest cluster size.
    pub max_cluster_size: usize,
    /// Average cluster size.
    pub avg_cluster_size: f64,
    /// Maximum pairwise heterogeneity over gold pairs.
    pub max_heterogeneity: f64,
    /// Average pairwise heterogeneity over gold pairs.
    pub avg_heterogeneity: f64,
}

/// Compute a Table 3 row for a dataset.
pub fn characteristics(name: &str, data: &Dataset) -> Characteristics {
    use std::collections::HashMap;
    let mut cluster_sizes: HashMap<usize, usize> = HashMap::new();
    for r in &data.records {
        *cluster_sizes.entry(r.cluster).or_insert(0) += 1;
    }
    let clusters = cluster_sizes.len();
    let non_singletons = cluster_sizes.values().filter(|&&s| s >= 2).count();
    let max_cluster_size = cluster_sizes.values().copied().max().unwrap_or(0);

    let gold = data.sorted_gold_pairs();
    let het = GenericHeterogeneity::for_dataset(data);
    let mut max_h: f64 = 0.0;
    let mut sum_h = 0.0;
    for p in &gold {
        let h = het.pair(&data.records[p.0], &data.records[p.1]);
        max_h = max_h.max(h);
        sum_h += h;
    }
    Characteristics {
        name: name.to_owned(),
        records: data.len(),
        attributes: data.num_attrs(),
        duplicate_pairs: gold.len(),
        clusters,
        non_singletons,
        max_cluster_size,
        avg_cluster_size: if clusters == 0 {
            0.0
        } else {
            data.len() as f64 / clusters as f64
        },
        max_heterogeneity: max_h,
        avg_heterogeneity: if gold.is_empty() { 0.0 } else { sum_h / gold.len() as f64 },
    }
}

/// All pairwise heterogeneity scores over a dataset's gold pairs, in
/// ascending pair order (Figure 4c input).
pub fn gold_pair_heterogeneities(data: &Dataset) -> Vec<f64> {
    let het = GenericHeterogeneity::for_dataset(data);
    data.sorted_gold_pairs()
        .iter()
        .map(|p| het.pair(&data.records[p.0], &data.records[p.1]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_characteristics_match_table3() {
        let d = crate::census::generate(1);
        let c = characteristics("Census", &d);
        assert_eq!(c.records, 841);
        assert_eq!(c.attributes, 6);
        assert_eq!(c.duplicate_pairs, 376);
        assert_eq!(c.clusters, 483);
        assert_eq!(c.non_singletons, 345);
        assert_eq!(c.max_cluster_size, 4);
        assert!((c.avg_cluster_size - 1.74).abs() < 0.01);
        // Table 3: avg 0.15, max 0.46 — accept the same order of
        // magnitude from the synthetic generator.
        assert!(c.avg_heterogeneity > 0.03 && c.avg_heterogeneity < 0.35,
            "avg het {}", c.avg_heterogeneity);
        assert!(c.max_heterogeneity > 0.15 && c.max_heterogeneity <= 0.8,
            "max het {}", c.max_heterogeneity);
    }

    #[test]
    fn cddb_characteristics_match_table3() {
        let d = crate::cddb::generate(1);
        let c = characteristics("CDDB", &d);
        assert_eq!(c.records, 9763);
        assert_eq!(c.clusters, 9508);
        assert_eq!(c.duplicate_pairs, 300);
        assert!((c.avg_cluster_size - 1.03).abs() < 0.01);
    }

    #[test]
    fn cora_characteristics_match_table3() {
        let d = crate::cora::generate(1);
        let c = characteristics("Cora", &d);
        assert_eq!(c.records, 1879);
        assert_eq!(c.clusters, 182);
        assert_eq!(c.non_singletons, 118);
        assert_eq!(c.max_cluster_size, 238);
        assert!((c.avg_cluster_size - 10.32).abs() < 0.05);
        assert!(c.avg_heterogeneity > 0.05, "{}", c.avg_heterogeneity);
    }

    /// Float sums over the gold pairs run in pair order, not in the
    /// order of a per-instance hash seed: two runs agree to the bit.
    #[test]
    fn gold_pair_statistics_repeat_exactly() {
        let d = crate::census::generate(1);
        let scores = gold_pair_heterogeneities(&d);
        let c = characteristics("Census", &d);
        for _ in 0..4 {
            assert_eq!(gold_pair_heterogeneities(&d), scores);
            let again = characteristics("Census", &d);
            assert_eq!(again.avg_heterogeneity.to_bits(), c.avg_heterogeneity.to_bits());
        }
    }

    #[test]
    fn identical_records_have_zero_heterogeneity() {
        let d = crate::census::generate(2);
        let het = GenericHeterogeneity::for_dataset(&d);
        let r = &d.records[0];
        assert_eq!(het.pair(r, &r.clone()), 0.0);
    }

    #[test]
    fn heterogeneities_are_bounded() {
        let d = crate::census::generate(3);
        for h in gold_pair_heterogeneities(&d) {
            assert!((0.0..=1.0).contains(&h), "{h}");
        }
    }
}
