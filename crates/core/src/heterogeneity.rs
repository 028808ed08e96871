//! Heterogeneity (dirtiness) scoring (Section 6.3).
//!
//! Unlike plausibility, heterogeneity wants to see *every* difference
//! between two duplicate records — but weigh benign differences (casing,
//! token order) lower than real ones. Every two values are therefore
//! compared four ways — {original, lowercased} × {sequential
//! Damerau–Levenshtein, hybrid Monge–Elkan} — and the four scores are
//! averaged. Record heterogeneity is the entropy-weighted average of the
//! inverse value similarities; attribute entropies are computed from one
//! record per cluster so duplicates do not distort the uniqueness
//! estimate.

use std::sync::OnceLock;

use nc_similarity::damerau::DamerauLevenshtein;
use nc_similarity::entropy::{normalize_weights, EntropyAccumulator};
use nc_similarity::monge_elkan::MongeElkan;
use nc_similarity::{with_thread_scratch, Scratch};
use nc_votergen::schema::{AttrGroup, AttrId, Row, NUM_ATTRS, SCHEMA};

/// Which attributes participate in the heterogeneity score. The paper
/// stores two heterogeneity maps per record: one over all attributes and
/// one over the personal attributes only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// All non-meta attributes.
    All,
    /// Person attributes only.
    Person,
}

impl Scope {
    /// The attribute ids in this scope. Meta attributes (snapshot/load/
    /// cancellation dates) never participate; time-varying values (age,
    /// registration date) are also excluded, matching the hash-attribute
    /// exclusions of Section 4.
    ///
    /// The schema is static, so the filtered list is computed once per
    /// scope and handed out as a shared slice.
    pub fn attrs(self) -> &'static [AttrId] {
        static ALL: OnceLock<Vec<AttrId>> = OnceLock::new();
        static PERSON: OnceLock<Vec<AttrId>> = OnceLock::new();
        let cell = match self {
            Scope::All => &ALL,
            Scope::Person => &PERSON,
        };
        cell.get_or_init(|| {
            SCHEMA
                .iter()
                .enumerate()
                .filter(|(_, a)| {
                    !a.hash_excluded
                        && match self {
                            Scope::All => a.group != AttrGroup::Meta,
                            Scope::Person => a.group == AttrGroup::Person,
                        }
                })
                .map(|(i, _)| i)
                .collect()
        })
    }
}

/// Per-attribute entropy weights for heterogeneity scoring.
#[derive(Debug, Clone)]
pub struct AttributeWeights {
    /// Normalized weight per schema attribute (zero outside the scope).
    weights: Vec<f64>,
    attrs: &'static [AttrId],
}

impl AttributeWeights {
    /// Compute entropy weights from representative rows (the paper uses
    /// one record per cluster to avoid duplicate distortion).
    pub fn from_rows<'a, I>(scope: Scope, rows: I) -> Self
    where
        I: IntoIterator<Item = &'a Row>,
    {
        let attrs = scope.attrs();
        let mut accs: Vec<EntropyAccumulator> =
            (0..attrs.len()).map(|_| EntropyAccumulator::new()).collect();
        for row in rows {
            for (k, &a) in attrs.iter().enumerate() {
                accs[k].observe(row.get(a).trim());
            }
        }
        let entropies: Vec<f64> = accs.iter().map(EntropyAccumulator::entropy).collect();
        let normalized = normalize_weights(&entropies);
        let mut weights = vec![0.0; NUM_ATTRS];
        for (k, &a) in attrs.iter().enumerate() {
            weights[a] = normalized[k];
        }
        AttributeWeights { weights, attrs }
    }

    /// Uniform weights over a scope (used when no data is available).
    pub fn uniform(scope: Scope) -> Self {
        let attrs = scope.attrs();
        let w = 1.0 / attrs.len() as f64;
        let mut weights = vec![0.0; NUM_ATTRS];
        for &a in attrs {
            weights[a] = w;
        }
        AttributeWeights { weights, attrs }
    }

    /// The weight of an attribute.
    pub fn weight(&self, attr: AttrId) -> f64 {
        self.weights[attr]
    }

    /// Whether `other` has the same scope and bit-for-bit the same
    /// weights, i.e. scores computed under one are valid under the other.
    pub fn bit_eq(&self, other: &Self) -> bool {
        self.attrs == other.attrs
            && self.weights.len() == other.weights.len()
            && self
                .weights
                .iter()
                .zip(&other.weights)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Attributes in scope, by descending weight (most unique first) —
    /// used by the detection experiment to pick its blocking keys.
    pub fn attrs_by_weight(&self) -> Vec<AttrId> {
        let mut v = self.attrs.to_vec();
        v.sort_by(|&a, &b| self.weights[b].total_cmp(&self.weights[a]));
        v
    }
}

/// A record's scope attributes normalized once for scoring: every
/// value trimmed, plus its lowercased form. The paper's four-way value
/// comparison needs both casings of both values for every pair, so
/// caching them per *record* turns the `O(n²)` per-pair `to_lowercase`
/// of a cluster into `O(n)` work at view-build time.
#[derive(Debug, Clone)]
pub struct ScoredRecordView<'a> {
    /// Trimmed value per scope attribute (index-parallel to the
    /// scorer's attribute list).
    trimmed: Vec<&'a str>,
    /// Lowercased trimmed value per scope attribute.
    lower: Vec<String>,
}

/// The heterogeneity scorer.
#[derive(Debug, Clone)]
pub struct HeterogeneityScorer {
    weights: AttributeWeights,
    damerau: DamerauLevenshtein,
    monge_elkan: MongeElkan<DamerauLevenshtein>,
}

impl HeterogeneityScorer {
    /// Create a scorer with the given weights.
    pub fn new(weights: AttributeWeights) -> Self {
        HeterogeneityScorer {
            weights,
            damerau: DamerauLevenshtein::new(),
            monge_elkan: MongeElkan::new(DamerauLevenshtein::new()),
        }
    }

    /// Precompute the normalized view of a record for this scorer's
    /// scope (see [`ScoredRecordView`]).
    pub fn view<'a>(&self, row: &'a Row) -> ScoredRecordView<'a> {
        let attrs = self.weights.attrs;
        let mut trimmed = Vec::with_capacity(attrs.len());
        let mut lower = Vec::with_capacity(attrs.len());
        for &attr in attrs {
            let t = row.get(attr).trim();
            trimmed.push(t);
            lower.push(t.to_lowercase());
        }
        ScoredRecordView { trimmed, lower }
    }

    /// The four-way mean over pre-normalized inputs (`a`/`b` trimmed,
    /// `la`/`lb` their lowercased forms).
    fn value_similarity_parts(
        &self,
        scratch: &mut Scratch,
        a: &str,
        la: &str,
        b: &str,
        lb: &str,
    ) -> f64 {
        (self.damerau.sim_with(scratch, a, b)
            + self.damerau.sim_with(scratch, la, lb)
            + self.monge_elkan.sim_with(scratch, a, b)
            + self.monge_elkan.sim_with(scratch, la, lb))
            / 4.0
    }

    /// The four-way value similarity: mean of {cased, lowercased} ×
    /// {Damerau–Levenshtein, Monge–Elkan}.
    pub fn value_similarity(&self, a: &str, b: &str) -> f64 {
        with_thread_scratch(|s| self.value_similarity_with(s, a, b))
    }

    /// [`HeterogeneityScorer::value_similarity`] against caller-provided
    /// scratch buffers; bit-identical scores.
    pub fn value_similarity_with(&self, scratch: &mut Scratch, a: &str, b: &str) -> f64 {
        let (a, b) = (a.trim(), b.trim());
        if a == b {
            return 1.0;
        }
        let la = a.to_lowercase();
        let lb = b.to_lowercase();
        self.value_similarity_parts(scratch, a, &la, b, &lb)
    }

    /// Heterogeneity of a record pair: the weighted average of the
    /// inverse value similarities across the scope's attributes.
    pub fn pair(&self, a: &Row, b: &Row) -> f64 {
        with_thread_scratch(|s| self.pair_with(s, &self.view(a), &self.view(b)))
    }

    /// [`HeterogeneityScorer::pair`] over precomputed views with
    /// caller-provided scratch buffers; bit-identical scores. Both
    /// views must come from this scorer (same scope).
    pub fn pair_with(
        &self,
        scratch: &mut Scratch,
        a: &ScoredRecordView<'_>,
        b: &ScoredRecordView<'_>,
    ) -> f64 {
        let mut acc = 0.0;
        let mut total_w = 0.0;
        for (k, &attr) in self.weights.attrs.iter().enumerate() {
            let w = self.weights.weights[attr];
            if w == 0.0 {
                continue;
            }
            let (ta, tb) = (a.trimmed[k], b.trimmed[k]);
            // `ta == tb` covers the both-empty case of the row-based
            // path; equal values short-circuit to similarity 1 exactly
            // as `value_similarity` does.
            let sim = if ta == tb {
                1.0
            } else {
                self.value_similarity_parts(scratch, ta, &a.lower[k], tb, &b.lower[k])
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

    /// Heterogeneity of each record: the average of its pair scores
    /// against the other records.
    pub fn record_scores(&self, records: &[Row]) -> Vec<f64> {
        with_thread_scratch(|s| self.record_scores_with(s, records))
    }

    /// [`HeterogeneityScorer::record_scores`] with caller-provided
    /// scratch buffers; bit-identical scores.
    pub fn record_scores_with(&self, scratch: &mut Scratch, records: &[Row]) -> Vec<f64> {
        let n = records.len();
        if n <= 1 {
            return vec![0.0; n];
        }
        let views: Vec<ScoredRecordView<'_>> = records.iter().map(|r| self.view(r)).collect();
        let mut sums = vec![0.0f64; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let h = self.pair_with(scratch, &views[i], &views[j]);
                sums[i] += h;
                sums[j] += h;
            }
        }
        sums.iter().map(|s| s / (n - 1) as f64).collect()
    }

    /// Heterogeneity of a cluster: the average of its record scores.
    /// Clusters of size < 2 score 0 (the paper excludes them).
    pub fn cluster(&self, records: &[Row]) -> f64 {
        with_thread_scratch(|s| self.cluster_with(s, records))
    }

    /// [`HeterogeneityScorer::cluster`] with caller-provided scratch
    /// buffers; bit-identical scores.
    pub fn cluster_with(&self, scratch: &mut Scratch, records: &[Row]) -> f64 {
        let scores = self.record_scores_with(scratch, records);
        if scores.is_empty() {
            return 0.0;
        }
        scores.iter().sum::<f64>() / scores.len() as f64
    }

    /// All pairwise heterogeneity scores (i < j order).
    pub fn pair_scores(&self, records: &[Row]) -> Vec<f64> {
        with_thread_scratch(|s| self.pair_scores_with(s, records))
    }

    /// [`HeterogeneityScorer::pair_scores`] with caller-provided
    /// scratch buffers; bit-identical scores.
    pub fn pair_scores_with(&self, scratch: &mut Scratch, records: &[Row]) -> Vec<f64> {
        let n = records.len();
        let views: Vec<ScoredRecordView<'_>> = records.iter().map(|r| self.view(r)).collect();
        let mut out = Vec::with_capacity(n.saturating_sub(1) * n / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                out.push(self.pair_with(scratch, &views[i], &views[j]));
            }
        }
        out
    }

    /// Borrow the weights in use.
    pub fn weights(&self) -> &AttributeWeights {
        &self.weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_votergen::schema::{BIRTH_PLACE, FIRST_NAME, LAST_NAME, MIDL_NAME, NCID, RES_CITY, SEX_CODE};

    fn scorer(scope: Scope) -> HeterogeneityScorer {
        HeterogeneityScorer::new(AttributeWeights::uniform(scope))
    }

    fn person(first: &str, midl: &str, last: &str, city: &str) -> Row {
        let mut r = Row::empty();
        r.set(NCID, "X1");
        r.set(FIRST_NAME, first);
        r.set(MIDL_NAME, midl);
        r.set(LAST_NAME, last);
        r.set(SEX_CODE, "F");
        r.set(BIRTH_PLACE, "NORTH CAROLINA");
        r.set(RES_CITY, city);
        r
    }

    #[test]
    fn identical_records_have_zero_heterogeneity() {
        let r = person("MARY", "ANN", "SMITH", "RALEIGH");
        assert_eq!(scorer(Scope::Person).pair(&r, &r.clone()), 0.0);
    }

    #[test]
    fn small_difference_small_heterogeneity() {
        let s = scorer(Scope::Person);
        let a = person("MARY", "ANN", "SMITH", "RALEIGH");
        let b = person("MARY", "ANN", "SMYTH", "RALEIGH");
        let h = s.pair(&a, &b);
        assert!(h > 0.0 && h < 0.1, "{h}");
    }

    #[test]
    fn big_difference_big_heterogeneity() {
        let s = scorer(Scope::Person);
        let a = person("MARY", "ELIZABETH", "FIELDS", "RALEIGH");
        let b = person("JOSHUA", "", "BETHEA", "DURHAM");
        let small = s.pair(&a, &person("MARY", "ELIZABETH", "FIELDS", "DURHAM"));
        let big = s.pair(&a, &b);
        assert!(big > small * 2.0, "big={big} small={small}");
    }

    #[test]
    fn case_difference_is_milder_than_replacement() {
        // Section 6.3: "difference in upper and lower case … less
        // significant than replacing the original strings with
        // completely different letters". The lowercased comparisons cap
        // the case-flip penalty at 0.5 per value, while a replacement
        // drives the value similarity toward 0.
        let s = scorer(Scope::Person);
        let case_flip = 1.0 - s.value_similarity("SMITH", "smith");
        let replacement = 1.0 - s.value_similarity("SMITH", "VBQXZ");
        assert!((case_flip - 0.5).abs() < 1e-9, "{case_flip}");
        assert!(replacement > 0.9, "{replacement}");
        assert!(case_flip < replacement);
    }

    #[test]
    fn token_order_difference_is_mild() {
        let s = scorer(Scope::Person);
        let a = person("ANH THI", "", "NGUYEN", "RALEIGH");
        let b = person("THI ANH", "", "NGUYEN", "RALEIGH");
        let transposed = s.pair(&a, &b);
        let replaced = s.pair(&a, &person("BOB JAMES", "", "NGUYEN", "RALEIGH"));
        assert!(transposed < replaced, "{transposed} vs {replaced}");
    }

    #[test]
    fn both_missing_is_homogeneous() {
        let s = scorer(Scope::Person);
        let a = person("MARY", "", "SMITH", "RALEIGH");
        let b = person("MARY", "", "SMITH", "RALEIGH");
        assert_eq!(s.pair(&a, &b), 0.0);
    }

    #[test]
    fn one_missing_counts_fully() {
        let s = scorer(Scope::Person);
        let a = person("MARY", "ANN", "SMITH", "RALEIGH");
        let b = person("MARY", "", "SMITH", "RALEIGH");
        assert!(s.pair(&a, &b) > 0.0);
    }

    #[test]
    fn cluster_and_record_scores() {
        let s = scorer(Scope::Person);
        let a = person("MARY", "ANN", "SMITH", "RALEIGH");
        let b = person("MARY", "ANN", "SMYTH", "RALEIGH");
        let c = person("MARY", "A.", "SMITH", "RALEIGH");
        let records = vec![a, b, c];
        let rs = s.record_scores(&records);
        assert_eq!(rs.len(), 3);
        let cl = s.cluster(&records);
        let mean = rs.iter().sum::<f64>() / 3.0;
        assert!((cl - mean).abs() < 1e-12);
        // Degenerate sizes.
        assert_eq!(s.cluster(&records[..1]), 0.0);
        assert_eq!(s.cluster(&[]), 0.0);
    }

    #[test]
    fn entropy_weights_favor_unique_attributes() {
        // last_name varies, sex_code is constant → last_name must carry
        // more weight.
        let rows: Vec<Row> = (0..50)
            .map(|i| person(&format!("NAME{i}"), "", &format!("LAST{i}"), "RALEIGH"))
            .collect();
        let w = AttributeWeights::from_rows(Scope::Person, rows.iter());
        assert!(w.weight(LAST_NAME) > w.weight(SEX_CODE));
        assert!(w.weight(LAST_NAME) > 0.0);
        // Sorted attr list starts with a high-entropy attribute.
        let sorted = w.attrs_by_weight();
        assert!(w.weight(sorted[0]) >= w.weight(*sorted.last().unwrap()));
    }

    #[test]
    fn scope_person_ignores_district_differences() {
        let s = scorer(Scope::Person);
        let mut a = person("MARY", "ANN", "SMITH", "RALEIGH");
        let mut b = person("MARY", "ANN", "SMITH", "RALEIGH");
        a.set(nc_votergen::schema::NC_HOUSE, "64TH HOUSE");
        b.set(nc_votergen::schema::NC_HOUSE, "NC HOUSE DISTRICT 64");
        assert_eq!(s.pair(&a, &b), 0.0);
        let s_all = scorer(Scope::All);
        assert!(s_all.pair(&a, &b) > 0.0);
    }

    #[test]
    fn weights_sum_to_one_in_scope() {
        let w = AttributeWeights::uniform(Scope::All);
        let sum: f64 = Scope::All.attrs().iter().map(|&a| w.weight(a)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pair_scores_of_fewer_than_two_records_are_empty() {
        let s = scorer(Scope::Person);
        assert!(s.pair_scores(&[]).is_empty());
        assert!(s.pair_scores(&[person("MARY", "ANN", "SMITH", "RALEIGH")]).is_empty());
    }
}
