//! A schema-agnostic labeled test dataset.

use std::collections::HashSet;

use nc_similarity::entropy::{normalize_weights, EntropyAccumulator};

/// An unordered record pair, stored with `a < b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pair(pub usize, pub usize);

impl Pair {
    /// Create a normalized pair. Panics when `a == b`.
    pub fn new(a: usize, b: usize) -> Self {
        assert_ne!(a, b, "a record does not pair with itself");
        if a < b {
            Pair(a, b)
        } else {
            Pair(b, a)
        }
    }
}

/// One record: attribute values plus its gold-standard cluster label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Attribute values (empty string = missing), in schema order.
    pub values: Vec<String>,
    /// Gold-standard cluster id.
    pub cluster: usize,
}

/// A labeled dataset.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// Attribute names, defining the value order of every record.
    pub attr_names: Vec<String>,
    /// The records.
    pub records: Vec<Record>,
}

impl Dataset {
    /// Create an empty dataset over the given schema.
    pub fn new(attr_names: Vec<String>) -> Self {
        Dataset {
            attr_names,
            records: Vec::new(),
        }
    }

    /// Append a record. Panics when the value count mismatches the
    /// schema.
    pub fn push(&mut self, values: Vec<String>, cluster: usize) {
        assert_eq!(values.len(), self.attr_names.len(), "schema mismatch");
        self.records.push(Record { values, cluster });
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of attributes.
    pub fn num_attrs(&self) -> usize {
        self.attr_names.len()
    }

    /// The gold standard: every unordered pair of records sharing a
    /// cluster label.
    pub fn gold_pairs(&self) -> HashSet<Pair> {
        use std::collections::HashMap;
        let mut by_cluster: HashMap<usize, Vec<usize>> = HashMap::new();
        for (i, r) in self.records.iter().enumerate() {
            by_cluster.entry(r.cluster).or_default().push(i);
        }
        let mut pairs = HashSet::new();
        for members in by_cluster.values() {
            for i in 0..members.len() {
                for j in (i + 1)..members.len() {
                    pairs.insert(Pair::new(members[i], members[j]));
                }
            }
        }
        pairs
    }

    /// The gold standard in ascending order. Iterate this, not the set,
    /// wherever the order can show in a result: a float sum over the
    /// pairs, the shards of a parallel scan.
    pub fn sorted_gold_pairs(&self) -> Vec<Pair> {
        let mut pairs: Vec<Pair> = self.gold_pairs().into_iter().collect();
        pairs.sort_unstable();
        pairs
    }

    /// Entropy of every attribute over all records (the detection-side
    /// weighting: the user cannot exclude duplicates they do not know).
    pub fn attribute_entropies(&self) -> Vec<f64> {
        let mut accs: Vec<EntropyAccumulator> = (0..self.num_attrs())
            .map(|_| EntropyAccumulator::new())
            .collect();
        for r in &self.records {
            for (k, v) in r.values.iter().enumerate() {
                accs[k].observe(v.trim());
            }
        }
        accs.iter().map(EntropyAccumulator::entropy).collect()
    }

    /// Normalized entropy weights per attribute.
    pub fn entropy_weights(&self) -> Vec<f64> {
        normalize_weights(&self.attribute_entropies())
    }

    /// Indices of the `k` most unique attributes (highest entropy),
    /// descending — the paper's choice of Sorted-Neighborhood keys.
    pub fn top_entropy_attrs(&self, k: usize) -> Vec<usize> {
        let e = self.attribute_entropies();
        let mut idx: Vec<usize> = (0..e.len()).collect();
        idx.sort_by(|&a, &b| e[b].total_cmp(&e[a]));
        idx.truncate(k);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        let mut d = Dataset::new(vec!["first".into(), "last".into()]);
        d.push(vec!["ANNA".into(), "SMITH".into()], 0);
        d.push(vec!["ANNA".into(), "SMYTH".into()], 0);
        d.push(vec!["BOB".into(), "JONES".into()], 1);
        d.push(vec!["BOBBY".into(), "JONES".into()], 1);
        d.push(vec!["CARL".into(), "DAVIS".into()], 2);
        d
    }

    #[test]
    fn pair_normalizes_order() {
        assert_eq!(Pair::new(5, 2), Pair(2, 5));
        assert_eq!(Pair::new(2, 5), Pair(2, 5));
    }

    #[test]
    #[should_panic(expected = "does not pair with itself")]
    fn self_pair_panics() {
        Pair::new(3, 3);
    }

    #[test]
    fn gold_pairs_from_clusters() {
        let d = tiny();
        let gold = d.gold_pairs();
        assert_eq!(gold.len(), 2);
        assert!(gold.contains(&Pair(0, 1)));
        assert!(gold.contains(&Pair(2, 3)));
    }

    #[test]
    fn gold_pairs_of_larger_cluster() {
        let mut d = Dataset::new(vec!["x".into()]);
        for _ in 0..4 {
            d.push(vec!["V".into()], 7);
        }
        assert_eq!(d.gold_pairs().len(), 6);
        assert_eq!(
            d.sorted_gold_pairs(),
            vec![Pair(0, 1), Pair(0, 2), Pair(0, 3), Pair(1, 2), Pair(1, 3), Pair(2, 3)]
        );
    }

    #[test]
    #[should_panic(expected = "schema mismatch")]
    fn wrong_arity_panics() {
        let mut d = Dataset::new(vec!["a".into(), "b".into()]);
        d.push(vec!["only-one".into()], 0);
    }

    #[test]
    fn entropy_ranks_varying_attributes_higher() {
        let mut d = Dataset::new(vec!["constant".into(), "unique".into()]);
        for i in 0..16 {
            d.push(vec!["SAME".into(), format!("V{i}")], i);
        }
        let e = d.attribute_entropies();
        assert_eq!(e[0], 0.0);
        assert!(e[1] > 3.9);
        assert_eq!(d.top_entropy_attrs(1), vec![1]);
        let w = d.entropy_weights();
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn accessors() {
        let d = tiny();
        assert_eq!(d.len(), 5);
        assert_eq!(d.num_attrs(), 2);
        assert!(!d.is_empty());
    }
}
