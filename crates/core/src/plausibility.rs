//! Plausibility scoring (Section 6.2).
//!
//! All records of one cluster are *assumed* to be duplicates; the
//! plausibility score only reflects significant contradictions to that
//! assumption. The measure therefore compensates hard for benign
//! differences: word confusions between the name attributes, missing and
//! abbreviated values do not reduce similarity at all. Only attributes
//! that rarely change and are identifying/discriminating participate:
//! the three names, the sex code, the year of birth (derived from
//! snapshot date − age) and the place of birth.

use nc_similarity::damerau::ExtendedDamerauLevenshtein;
use nc_similarity::gen_jaccard::GeneralizedJaccard;
use nc_similarity::{with_thread_scratch, Scratch};
use nc_votergen::schema::{
    Row, AGE, BIRTH_PLACE, FIRST_NAME, LAST_NAME, MIDL_NAME, SEX_CODE, SNAPSHOT_DT,
};

/// Weights of the paper: names 0.5, sex / year of birth / birth place
/// 0.15 each (normalized to a weighted average).
const W_NAME: f64 = 0.5;
const W_SEX: f64 = 0.15;
const W_YOB: f64 = 0.15;
const W_BIRTHPLACE: f64 = 0.15;

/// The plausibility scorer.
#[derive(Debug, Clone)]
pub struct PlausibilityScorer {
    name_measure: GeneralizedJaccard<ExtendedDamerauLevenshtein>,
}

impl Default for PlausibilityScorer {
    fn default() -> Self {
        Self::new()
    }
}

impl PlausibilityScorer {
    /// Create the scorer with the paper's configuration.
    pub fn new() -> Self {
        PlausibilityScorer {
            name_measure: GeneralizedJaccard::new(ExtendedDamerauLevenshtein::new()),
        }
    }

    /// Name similarity: Generalized Jaccard over the (first, middle,
    /// last) triple with the extended Damerau–Levenshtein token measure,
    /// which captures confused name order, typos, abbreviations and
    /// missing names.
    pub fn name_similarity(&self, a: &Row, b: &Row) -> f64 {
        with_thread_scratch(|s| self.name_similarity_with(s, a, b))
    }

    /// [`PlausibilityScorer::name_similarity`] with caller-provided
    /// scratch buffers; bit-identical scores.
    pub fn name_similarity_with(&self, scratch: &mut Scratch, a: &Row, b: &Row) -> f64 {
        let ta = [a.get(FIRST_NAME).trim(), a.get(MIDL_NAME).trim(), a.get(LAST_NAME).trim()];
        let tb = [b.get(FIRST_NAME).trim(), b.get(MIDL_NAME).trim(), b.get(LAST_NAME).trim()];
        self.name_measure.sim_tokens_with(scratch, &ta, &tb)
    }

    /// Sex similarity: 1 on agreement, undesignated (`U`) or missing;
    /// 0 on contradiction.
    pub fn sex_similarity(a: &Row, b: &Row) -> f64 {
        let sa = a.get(SEX_CODE).trim();
        let sb = b.get(SEX_CODE).trim();
        if sa.is_empty() || sb.is_empty() || sa == "U" || sb == "U" || sa == sb {
            1.0
        } else {
            0.0
        }
    }

    /// Year of birth from a record: `year(snapshot_dt) − age`. `None`
    /// when the age or snapshot date is missing or unparseable.
    pub fn year_of_birth(row: &Row) -> Option<i32> {
        let year: i32 = row.get(SNAPSHOT_DT).trim().get(0..4)?.parse().ok()?;
        let age: i32 = row.get(AGE).trim().parse().ok()?;
        Some(year - age)
    }

    /// Year-of-birth similarity with the paper's tolerance of 1 and a
    /// hard zero at a 10-year difference:
    /// `1 − min(1, max(0, |Δ| − 1) / 10)`.
    pub fn yob_similarity(a: &Row, b: &Row) -> f64 {
        match (Self::year_of_birth(a), Self::year_of_birth(b)) {
            (Some(ya), Some(yb)) => {
                let delta = (ya - yb).abs() as f64;
                1.0 - ((delta - 1.0).max(0.0) / 10.0).min(1.0)
            }
            // A missing value is no contradiction.
            _ => 1.0,
        }
    }

    /// Birth-place similarity: extended Damerau–Levenshtein (missing or
    /// prefix ⇒ 1).
    pub fn birthplace_similarity(a: &Row, b: &Row) -> f64 {
        with_thread_scratch(|s| Self::birthplace_similarity_with(s, a, b))
    }

    /// [`PlausibilityScorer::birthplace_similarity`] with
    /// caller-provided scratch buffers; bit-identical scores.
    pub fn birthplace_similarity_with(scratch: &mut Scratch, a: &Row, b: &Row) -> f64 {
        ExtendedDamerauLevenshtein::new()
            .sim_with(scratch, a.get(BIRTH_PLACE), b.get(BIRTH_PLACE))
    }

    /// Plausibility of a record pair: the weighted average of the four
    /// component similarities.
    pub fn pair(&self, a: &Row, b: &Row) -> f64 {
        with_thread_scratch(|s| self.pair_with(s, a, b))
    }

    /// [`PlausibilityScorer::pair`] with caller-provided scratch
    /// buffers; bit-identical scores.
    pub fn pair_with(&self, scratch: &mut Scratch, a: &Row, b: &Row) -> f64 {
        let total = W_NAME + W_SEX + W_YOB + W_BIRTHPLACE;
        (W_NAME * self.name_similarity_with(scratch, a, b)
            + W_SEX * Self::sex_similarity(a, b)
            + W_YOB * Self::yob_similarity(a, b)
            + W_BIRTHPLACE * Self::birthplace_similarity_with(scratch, a, b))
            / total
    }

    /// Plausibility of each record: its minimal pair score against the
    /// other records of the cluster. Singleton clusters score 1.
    pub fn record_scores(&self, records: &[Row]) -> Vec<f64> {
        with_thread_scratch(|s| self.record_scores_with(s, records))
    }

    /// [`PlausibilityScorer::record_scores`] with caller-provided
    /// scratch buffers; bit-identical scores.
    pub fn record_scores_with(&self, scratch: &mut Scratch, records: &[Row]) -> Vec<f64> {
        let n = records.len();
        if n <= 1 {
            return vec![1.0; n];
        }
        let mut mins = vec![1.0f64; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let s = self.pair_with(scratch, &records[i], &records[j]);
                mins[i] = mins[i].min(s);
                mins[j] = mins[j].min(s);
            }
        }
        mins
    }

    /// Plausibility of a cluster: the minimum over its records — one
    /// record referring to another voter already makes the cluster
    /// unsound.
    pub fn cluster(&self, records: &[Row]) -> f64 {
        with_thread_scratch(|s| self.cluster_with(s, records))
    }

    /// [`PlausibilityScorer::cluster`] with caller-provided scratch
    /// buffers; bit-identical scores.
    pub fn cluster_with(&self, scratch: &mut Scratch, records: &[Row]) -> f64 {
        self.record_scores_with(scratch, records)
            .into_iter()
            .fold(1.0, f64::min)
    }

    /// All pairwise plausibility scores of a cluster (i < j order).
    pub fn pair_scores(&self, records: &[Row]) -> Vec<f64> {
        with_thread_scratch(|s| self.pair_scores_with(s, records))
    }

    /// [`PlausibilityScorer::pair_scores`] with caller-provided
    /// scratch buffers; bit-identical scores.
    pub fn pair_scores_with(&self, scratch: &mut Scratch, records: &[Row]) -> Vec<f64> {
        let n = records.len();
        let mut out = Vec::with_capacity(n.saturating_sub(1) * n / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                out.push(self.pair_with(scratch, &records[i], &records[j]));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(first: &str, midl: &str, last: &str, sex: &str, age: &str, snap: &str, bp: &str) -> Row {
        let mut r = Row::empty();
        r.set(FIRST_NAME, first);
        r.set(MIDL_NAME, midl);
        r.set(LAST_NAME, last);
        r.set(SEX_CODE, sex);
        r.set(AGE, age);
        r.set(SNAPSHOT_DT, snap);
        r.set(BIRTH_PLACE, bp);
        r
    }

    fn scorer() -> PlausibilityScorer {
        PlausibilityScorer::new()
    }

    #[test]
    fn identical_records_score_one() {
        let a = row("DEBRA", "OEHRIE", "WILLIAMS", "F", "45", "2008-11-04", "NORTH CAROLINA");
        assert_eq!(scorer().pair(&a, &a.clone()), 1.0);
    }

    #[test]
    fn figure3_sound_cluster_scores_high() {
        // Voter DB175272: names mixed up plus a middle-name typo — the
        // paper reports plausibility 0.81; we expect clearly > 0.7.
        let r1 = row("DEBRA", "OEHRIE", "WILLIAMS", "F", "45", "2008-11-04", "NORTH CAROLINA");
        let r3 = row("DEBRA", "ANN", "OEHRLE", "F", "49", "2012-11-06", "NORTH CAROLINA");
        let s = scorer().pair(&r1, &r3);
        assert!(s > 0.6, "{s}");
        assert!(s < 1.0, "{s}");
    }

    #[test]
    fn figure3_unsound_cluster_scores_low() {
        // Voter DR19657: two obviously different persons under one NCID —
        // the paper reports 0.33.
        let r4 = row("MARY", "ELIZABETH", "FIELDS", "F", "61", "2010-05-04", "VIRGINIA");
        let r5 = row("JOSHUA", "ELIZABETH", "BETHEA", "M", "93", "2010-05-04", "NEW YORK");
        let s = scorer().pair(&r4, &r5);
        assert!(s < 0.55, "{s}");
    }

    #[test]
    fn name_order_confusion_is_compensated() {
        let a = row("DEBRA", "OEHRIE", "WILLIAMS", "F", "45", "2008-11-04", "");
        let b = row("WILLIAMS", "DEBRA", "OEHRIE", "F", "45", "2008-11-04", "");
        let s = scorer().name_similarity(&a, &b);
        assert!((s - 1.0).abs() < 1e-9, "{s}");
    }

    #[test]
    fn abbreviation_and_missing_names_do_not_hurt() {
        let a = row("KIMBERLY", "ANN", "SMITH", "F", "30", "2010-01-01", "");
        let b = row("K.", "", "SMITH", "F", "30", "2010-01-01", "");
        let s = scorer().name_similarity(&a, &b);
        assert!((s - 1.0).abs() < 1e-9, "{s}");
    }

    #[test]
    fn sex_contradiction_costs() {
        let a = row("PAT", "", "SMITH", "M", "30", "2010-01-01", "");
        let b = row("PAT", "", "SMITH", "F", "30", "2010-01-01", "");
        assert_eq!(PlausibilityScorer::sex_similarity(&a, &b), 0.0);
        let u = row("PAT", "", "SMITH", "U", "30", "2010-01-01", "");
        assert_eq!(PlausibilityScorer::sex_similarity(&a, &u), 1.0);
        let m = row("PAT", "", "SMITH", "", "30", "2010-01-01", "");
        assert_eq!(PlausibilityScorer::sex_similarity(&a, &m), 1.0);
    }

    #[test]
    fn yob_tolerance_and_cutoff() {
        let base = |age: &str, snap: &str| row("P", "", "S", "F", age, snap, "");
        // Same YoB.
        assert_eq!(
            PlausibilityScorer::yob_similarity(&base("40", "2010-01-01"), &base("42", "2012-01-01")),
            1.0
        );
        // Off by one: tolerated.
        assert_eq!(
            PlausibilityScorer::yob_similarity(&base("40", "2010-01-01"), &base("41", "2012-01-01")),
            1.0
        );
        // Off by two: small penalty.
        let s = PlausibilityScorer::yob_similarity(&base("40", "2010-01-01"), &base("38", "2010-01-01"));
        assert!((s - 0.9).abs() < 1e-9, "{s}");
        // Off by eleven+: zero.
        assert_eq!(
            PlausibilityScorer::yob_similarity(&base("40", "2010-01-01"), &base("60", "2010-01-01")),
            0.0
        );
        // Missing age: no contradiction.
        assert_eq!(
            PlausibilityScorer::yob_similarity(&base("", "2010-01-01"), &base("40", "2010-01-01")),
            1.0
        );
    }

    #[test]
    fn yob_derivation() {
        let r = row("P", "", "S", "F", "45", "2008-11-04", "");
        assert_eq!(PlausibilityScorer::year_of_birth(&r), Some(1963));
        let bad = row("P", "", "S", "F", "4X", "2008-11-04", "");
        assert_eq!(PlausibilityScorer::year_of_birth(&bad), None);
    }

    #[test]
    fn cluster_score_is_min_over_records() {
        let r1 = row("DEBRA", "OEHRIE", "WILLIAMS", "F", "45", "2008-01-01", "NC");
        let r2 = row("DEBRA", "OEHRIE", "WILLIAMS", "F", "46", "2009-01-01", "NC");
        let r5 = row("JOSHUA", "", "BETHEA", "M", "93", "2009-01-01", "NY");
        let sc = scorer();
        let good = sc.cluster(&[r1.clone(), r2.clone()]);
        let bad = sc.cluster(&[r1, r2, r5]);
        assert!(good > 0.95, "{good}");
        assert!(bad < 0.6, "{bad}");
    }

    #[test]
    fn singleton_cluster_is_fully_plausible() {
        let r = row("A", "", "B", "F", "30", "2010-01-01", "");
        assert_eq!(scorer().cluster(std::slice::from_ref(&r)), 1.0);
        assert_eq!(scorer().record_scores(&[r]), vec![1.0]);
        assert_eq!(scorer().cluster(&[]), 1.0);
    }

    #[test]
    fn pair_scores_count() {
        let r = |n: &str| row(n, "", "S", "F", "30", "2010-01-01", "");
        let scores = scorer().pair_scores(&[r("A"), r("B"), r("C")]);
        assert_eq!(scores.len(), 3);
    }

    /// An empty cluster and a singleton have no pairs (and `n - 1`
    /// must not underflow for `n = 0`).
    #[test]
    fn pair_scores_of_fewer_than_two_records_are_empty() {
        assert!(scorer().pair_scores(&[]).is_empty());
        let one = row("A", "", "S", "F", "30", "2010-01-01", "");
        assert!(scorer().pair_scores(&[one]).is_empty());
    }
}
