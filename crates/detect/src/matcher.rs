//! Record similarity (Section 6.5).
//!
//! "The similarity of two records was always computed as the weighted
//! average similarity of their values. Since we observed that the name
//! values are often confused between the individual attributes, we
//! matched every combination of them and used the 1:1 matching with the
//! highest similarity for aggregation. To weight the individual
//! attributes we used again their entropy."
//!
//! There is one aggregation ([`RecordMatcher::aggregate`]: the
//! name-group assignment, then the weighted average) and two sources of
//! value similarities for it. [`RecordMatcher::similarity`] reads two
//! records and calls the measure for every value pair.
//! [`PreparedMatcher`] is the form a whole dataset is scored in:
//! register fields repeat heavily, so it interns every value once,
//! compares ids, and remembers the similarity of a value pair in a
//! bounded memo, so a candidate pair costs lookups instead of kernels.
//! A memo entry is whatever the measure returned for those two strings
//! and a miss recomputes it, so both sources give the same bits.

use std::collections::HashMap;

use nc_similarity::assignment::{max_weight_assignment_with, AssignScratch};
use nc_similarity::damerau::DamerauLevenshtein;
use nc_similarity::jaro::JaroWinkler;
use nc_similarity::monge_elkan::MongeElkan;
use nc_similarity::ngram::NgramJaccard;
use nc_similarity::StringSimilarity;

use crate::dataset::{Dataset, Pair, Record};

/// The three value measures evaluated in Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MeasureKind {
    /// Monge–Elkan with internal Damerau–Levenshtein (hybrid) — the same
    /// combination used to precalculate the heterogeneity scores.
    MongeElkanLevenshtein,
    /// Jaro–Winkler (sequential).
    JaroWinkler,
    /// Jaccard over trigrams (token-based).
    TrigramJaccard,
}

impl MeasureKind {
    /// All measures, in the paper's presentation order.
    pub const ALL: [MeasureKind; 3] = [
        MeasureKind::MongeElkanLevenshtein,
        MeasureKind::JaroWinkler,
        MeasureKind::TrigramJaccard,
    ];

    /// Display label as used in the figures.
    pub fn label(self) -> &'static str {
        match self {
            MeasureKind::MongeElkanLevenshtein => "ME/Lev",
            MeasureKind::JaroWinkler => "JaroWinkler",
            MeasureKind::TrigramJaccard => "Jaccard",
        }
    }

    /// Instantiate the measure.
    pub fn instantiate(self) -> Box<dyn StringSimilarity + Send + Sync> {
        match self {
            MeasureKind::MongeElkanLevenshtein => {
                Box::new(MongeElkan::new(DamerauLevenshtein::new()))
            }
            MeasureKind::JaroWinkler => Box::new(JaroWinkler::new()),
            MeasureKind::TrigramJaccard => Box::new(NgramJaccard::trigram()),
        }
    }
}

type Measure = dyn StringSimilarity + Send + Sync;

/// A weighted record matcher with optional 1:1 name-group matching.
pub struct RecordMatcher {
    measure: Box<Measure>,
    /// Normalized weight per attribute.
    weights: Vec<f64>,
    /// Attribute indices whose values may be confused with one another
    /// (the name attributes); empty disables group matching.
    name_group: Vec<usize>,
    /// The attributes compared position by position, ascending: outside
    /// the name group and with a non-zero weight.
    rest: Vec<usize>,
}

impl RecordMatcher {
    /// Create a matcher.
    ///
    /// `weights` must have one entry per attribute (they are normalized
    /// internally); `name_group` lists the attribute indices that are
    /// matched 1:1 before aggregation.
    ///
    /// # Panics
    ///
    /// Panics on a weight that is negative or not finite, and on a
    /// name-group index that is out of range or listed twice: either
    /// would otherwise surface as a NaN score, a double-counted
    /// attribute or an index panic on the first scored pair.
    pub fn new(measure: Box<Measure>, weights: Vec<f64>, name_group: Vec<usize>) -> Self {
        for (k, w) in weights.iter().enumerate() {
            assert!(
                w.is_finite() && *w >= 0.0,
                "weight {w} of attribute {k} must be finite and >= 0"
            );
        }
        for (pos, &k) in name_group.iter().enumerate() {
            assert!(
                k < weights.len(),
                "name-group attribute {k} is out of range for {} attributes",
                weights.len()
            );
            assert!(
                !name_group[..pos].contains(&k),
                "name-group attribute {k} is listed twice"
            );
        }
        let total: f64 = weights.iter().sum();
        assert!(total.is_finite(), "the weights sum to {total}");
        let weights: Vec<f64> = if total > 0.0 {
            weights.iter().map(|w| w / total).collect()
        } else if weights.is_empty() {
            weights
        } else {
            vec![1.0 / weights.len() as f64; weights.len()]
        };
        let rest = (0..weights.len())
            .filter(|k| !name_group.contains(k) && weights[*k] != 0.0)
            .collect();
        RecordMatcher {
            measure,
            weights,
            name_group,
            rest,
        }
    }

    /// Convenience constructor from a [`MeasureKind`].
    pub fn with_kind(kind: MeasureKind, weights: Vec<f64>, name_group: Vec<usize>) -> Self {
        Self::new(kind.instantiate(), weights, name_group)
    }

    /// Record similarity in `[0, 1]`.
    ///
    /// Attributes where both values are missing are excluded from the
    /// weighted average (their absence carries no signal); a value
    /// missing on one side only compares against the empty string.
    ///
    /// This is the per-pair entry point: every value pair goes to the
    /// measure. To score many pairs of one dataset, [`Self::prepare`] it.
    ///
    /// # Panics
    ///
    /// Panics when a record's value count is not the matcher's
    /// attribute count.
    pub fn similarity(&self, a: &Record, b: &Record) -> f64 {
        let attrs = self.weights.len();
        assert!(
            a.values.len() == attrs && b.values.len() == attrs,
            "the matcher weighs {attrs} attributes, the records have {} and {}",
            a.values.len(),
            b.values.len()
        );
        let mut values = RecordValues {
            measure: &*self.measure,
            a: &a.values,
            b: &b.values,
        };
        self.aggregate(&mut values, &mut Work::default())
    }

    /// Intern `data` for scoring with this matcher (see
    /// [`PreparedMatcher`]).
    ///
    /// # Panics
    ///
    /// Panics when the dataset's attribute count is not the matcher's.
    pub fn prepare<'a>(&'a self, data: &'a Dataset) -> PreparedMatcher<'a> {
        PreparedMatcher::with_memo_slots(self, data, MEMO_SLOTS)
    }

    /// The aggregation: the best 1:1 matching over the name group, then
    /// the weighted average over every attribute present on either
    /// side. `values` answers for one candidate pair.
    fn aggregate(&self, values: &mut impl PairValues, work: &mut Work) -> f64 {
        let mut acc = 0.0;
        let mut total_w = 0.0;

        let group = &self.name_group;
        if group
            .iter()
            .any(|&k| !values.a_missing(k) || !values.b_missing(k))
        {
            let g = group.len();
            work.sims.clear();
            work.sims.reserve(g * g);
            for &ka in group {
                for &kb in group {
                    work.sims.push(values.sim(ka, kb));
                }
            }
            max_weight_assignment_with(&mut work.assign, &work.sims, g, g);
            for &(i, j) in work.assign.pairs() {
                if values.a_missing(group[i]) && values.b_missing(group[j]) {
                    continue;
                }
                // Both positions share the group; weight by the row
                // attribute's weight.
                let w = self.weights[group[i]];
                acc += w * work.sims[i * g + j];
                total_w += w;
            }
        }

        for &k in &self.rest {
            if values.a_missing(k) && values.b_missing(k) {
                continue;
            }
            let w = self.weights[k];
            acc += w * values.sim(k, k);
            total_w += w;
        }

        if total_w == 0.0 {
            0.0
        } else {
            (acc / total_w).clamp(0.0, 1.0)
        }
    }
}

impl std::fmt::Debug for RecordMatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordMatcher")
            .field("weights", &self.weights)
            .field("name_group", &self.name_group)
            .finish_non_exhaustive()
    }
}

/// What [`RecordMatcher::aggregate`] asks about one candidate pair
/// `(a, b)`; values are compared trimmed.
trait PairValues {
    /// Whether `a` has no value for attribute `k`.
    fn a_missing(&self, k: usize) -> bool;
    /// Whether `b` has no value for attribute `k`.
    fn b_missing(&self, k: usize) -> bool;
    /// The measure's similarity of `a`'s attribute `ka` and `b`'s `kb`.
    fn sim(&mut self, ka: usize, kb: usize) -> f64;
}

/// Buffers of the aggregation: the name-group similarity matrix
/// (row-major) and the assignment's working set.
#[derive(Debug, Default)]
struct Work {
    sims: Vec<f64>,
    assign: AssignScratch,
}

/// Two records' own strings; every similarity is a kernel call.
struct RecordValues<'a> {
    measure: &'a Measure,
    a: &'a [String],
    b: &'a [String],
}

impl PairValues for RecordValues<'_> {
    fn a_missing(&self, k: usize) -> bool {
        self.a[k].trim().is_empty()
    }

    fn b_missing(&self, k: usize) -> bool {
        self.b[k].trim().is_empty()
    }

    fn sim(&mut self, ka: usize, kb: usize) -> f64 {
        self.measure.sim(self.a[ka].trim(), self.b[kb].trim())
    }
}

/// A memo holds at most this many value pairs: a dictionary of up to
/// 512 values is tabulated in full, a larger one shares as many slots.
const MEMO_SLOTS: usize = 1 << 18;

/// A dictionary is memoised when its values occur this often on
/// average; below that, value pairs hardly recur (a key-like attribute:
/// an id, a street address) and a table would be memory for nothing.
const MIN_MEAN_OCCURRENCES: usize = 4;

/// Id of the missing value in every dictionary.
const MISSING: u32 = 0;

/// Remembered similarities of ordered id pairs `(a, b)`. Ordered,
/// because [`StringSimilarity`] does not promise `sim(x, y) == sim(y, x)`
/// to the bit, and the prepared score must not depend on it.
#[derive(Debug)]
enum Memo {
    /// Nothing is remembered.
    Off,
    /// All `d × d` pairs, row-major; NaN marks a pair not yet computed
    /// (a measure that returns NaN is simply asked again).
    Dense(Vec<f64>),
    /// A direct-mapped table of `(key, similarity)`, the key being
    /// `a << 32 | b`: a pair lives in the one slot its key hashes to and
    /// overwrites what was there. `u64::MAX` marks an empty slot.
    Mapped(Vec<(u64, f64)>),
}

/// The distinct trimmed values of one attribute (or of the whole name
/// group), numbered in order of first appearance, with their memo.
#[derive(Debug)]
struct Dictionary<'a> {
    values: Vec<&'a str>,
    memo: Memo,
}

impl<'a> Dictionary<'a> {
    fn sim(&mut self, measure: &Measure, a: u32, b: u32) -> f64 {
        let (a, b) = (a as usize, b as usize);
        let values = &self.values;
        let kernel = || measure.sim(values[a], values[b]);
        match &mut self.memo {
            Memo::Off => kernel(),
            Memo::Dense(table) => {
                let slot = &mut table[a * values.len() + b];
                if slot.is_nan() {
                    *slot = kernel();
                }
                *slot
            }
            Memo::Mapped(table) => {
                let key = (a as u64) << 32 | b as u64;
                // Fibonacci hashing: the top bits of the product index
                // a power-of-two table.
                let shift = u64::BITS - table.len().trailing_zeros();
                let slot = &mut table[(key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize];
                if slot.0 != key {
                    *slot = (key, kernel());
                }
                slot.1
            }
        }
    }
}

/// Builds one [`Dictionary`].
struct Interner<'a> {
    ids: HashMap<&'a str, u32>,
    values: Vec<&'a str>,
    /// Non-missing values interned, repeats included.
    occurrences: usize,
}

impl<'a> Interner<'a> {
    fn new() -> Self {
        Interner {
            ids: HashMap::from([("", MISSING)]),
            values: vec![""],
            occurrences: 0,
        }
    }

    fn intern(&mut self, value: &'a str) -> u32 {
        let next = self.values.len() as u32;
        let id = *self.ids.entry(value).or_insert(next);
        if id == next {
            self.values.push(value);
        }
        self.occurrences += usize::from(id != MISSING);
        id
    }

    /// The dictionary, with a memo of at most `slots` pairs when its
    /// values repeat.
    fn finish(self, slots: usize) -> Dictionary<'a> {
        let d = self.values.len();
        let memo = if self.occurrences < MIN_MEAN_OCCURRENCES * (d - 1).max(1) {
            Memo::Off
        } else if d * d <= slots {
            Memo::Dense(vec![f64::NAN; d * d])
        } else {
            Memo::Mapped(vec![(u64::MAX, 0.0); slots])
        };
        Dictionary {
            values: self.values,
            memo,
        }
    }
}

/// A dataset interned for one [`RecordMatcher`]: a value dictionary
/// per attribute (one shared by the whole name group, whose values are
/// compared across positions), every record as a row of value ids, and
/// a bounded memo of value-pair similarities per dictionary.
///
/// [`score`](Self::score) returns the bits
/// [`RecordMatcher::similarity`] returns for the same two records, and
/// allocates nothing once its buffers are warm.
pub struct PreparedMatcher<'a> {
    matcher: &'a RecordMatcher,
    /// `records × attributes` value ids, row-major.
    ids: Vec<u32>,
    /// The dictionary of each attribute.
    dict_of: Vec<usize>,
    dicts: Vec<Dictionary<'a>>,
    work: Work,
}

impl<'a> PreparedMatcher<'a> {
    fn with_memo_slots(matcher: &'a RecordMatcher, data: &'a Dataset, slots: usize) -> Self {
        debug_assert!(slots.is_power_of_two());
        let attrs = matcher.weights.len();
        assert_eq!(
            data.num_attrs(),
            attrs,
            "the matcher weighs {attrs} attributes, the dataset has {}",
            data.num_attrs()
        );
        // The name group, if any, shares dictionary 0.
        let mut dict_of = vec![usize::MAX; attrs];
        for &k in &matcher.name_group {
            dict_of[k] = 0;
        }
        let mut dicts = usize::from(!matcher.name_group.is_empty());
        for slot in dict_of.iter_mut().filter(|slot| **slot == usize::MAX) {
            *slot = dicts;
            dicts += 1;
        }

        let mut interners: Vec<Interner<'a>> = (0..dicts).map(|_| Interner::new()).collect();
        let mut ids = Vec::with_capacity(data.len() * attrs);
        for record in &data.records {
            assert_eq!(record.values.len(), attrs, "schema mismatch");
            for (value, &dict) in record.values.iter().zip(&dict_of) {
                ids.push(interners[dict].intern(value.trim()));
            }
        }
        PreparedMatcher {
            matcher,
            ids,
            dict_of,
            dicts: interners.into_iter().map(|i| i.finish(slots)).collect(),
            work: Work::default(),
        }
    }

    /// Similarity of the records at `pair`'s two indices.
    pub fn score(&mut self, pair: Pair) -> f64 {
        let attrs = self.dict_of.len();
        let mut values = InternedValues {
            measure: &*self.matcher.measure,
            dict_of: &self.dict_of,
            dicts: &mut self.dicts,
            a: &self.ids[pair.0 * attrs..][..attrs],
            b: &self.ids[pair.1 * attrs..][..attrs],
        };
        self.matcher.aggregate(&mut values, &mut self.work)
    }
}

impl std::fmt::Debug for PreparedMatcher<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedMatcher")
            .field("matcher", self.matcher)
            .field("dictionaries", &self.dicts.len())
            .finish_non_exhaustive()
    }
}

/// Two rows of value ids; a similarity is a memo lookup, and a kernel
/// call only on a miss.
struct InternedValues<'p, 'a> {
    measure: &'p Measure,
    dict_of: &'p [usize],
    dicts: &'p mut [Dictionary<'a>],
    a: &'p [u32],
    b: &'p [u32],
}

impl PairValues for InternedValues<'_, '_> {
    fn a_missing(&self, k: usize) -> bool {
        self.a[k] == MISSING
    }

    fn b_missing(&self, k: usize) -> bool {
        self.b[k] == MISSING
    }

    fn sim(&mut self, ka: usize, kb: usize) -> f64 {
        // `ka` and `kb` differ only inside the name group, which shares
        // one dictionary.
        self.dicts[self.dict_of[ka]].sim(self.measure, self.a[ka], self.b[kb])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(values: &[&str]) -> Record {
        Record {
            values: values.iter().map(|s| (*s).to_string()).collect(),
            cluster: 0,
        }
    }

    fn matcher(kind: MeasureKind, n: usize, name_group: Vec<usize>) -> RecordMatcher {
        RecordMatcher::with_kind(kind, vec![1.0; n], name_group)
    }

    #[test]
    fn identical_records_score_one() {
        for kind in MeasureKind::ALL {
            let m = matcher(kind, 3, vec![]);
            let a = rec(&["MARY", "ANN", "SMITH"]);
            assert!((m.similarity(&a, &a.clone()) - 1.0).abs() < 1e-9, "{kind:?}");
        }
    }

    #[test]
    fn different_records_score_low() {
        for kind in MeasureKind::ALL {
            let m = matcher(kind, 3, vec![]);
            let a = rec(&["MARY", "ELIZABETH", "FIELDS"]);
            let b = rec(&["XAVIER", "OBI", "ZUKO"]);
            assert!(m.similarity(&a, &b) < 0.5, "{kind:?}");
        }
    }

    #[test]
    fn name_group_rescues_confused_names() {
        let with_group = matcher(MeasureKind::JaroWinkler, 3, vec![0, 1, 2]);
        let without = matcher(MeasureKind::JaroWinkler, 3, vec![]);
        let a = rec(&["DEBRA", "OEHRIE", "WILLIAMS"]);
        let b = rec(&["WILLIAMS", "DEBRA", "OEHRIE"]);
        let sg = with_group.similarity(&a, &b);
        let sp = without.similarity(&a, &b);
        assert!(sg > 0.99, "{sg}");
        assert!(sg > sp, "{sg} vs {sp}");
    }

    #[test]
    fn both_missing_values_are_skipped() {
        let m = matcher(MeasureKind::JaroWinkler, 3, vec![]);
        let a = rec(&["MARY", "", "SMITH"]);
        let b = rec(&["MARY", "", "SMITH"]);
        assert!((m.similarity(&a, &b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn one_sided_missing_counts_against() {
        let m = matcher(MeasureKind::TrigramJaccard, 2, vec![]);
        let a = rec(&["MARY", "SMITH"]);
        let b = rec(&["", "SMITH"]);
        let s = m.similarity(&a, &b);
        assert!(s < 1.0 && s > 0.3, "{s}");
    }

    #[test]
    fn weights_shift_the_score() {
        let heavy_first = RecordMatcher::with_kind(
            MeasureKind::JaroWinkler,
            vec![10.0, 1.0],
            vec![],
        );
        let heavy_last = RecordMatcher::with_kind(
            MeasureKind::JaroWinkler,
            vec![1.0, 10.0],
            vec![],
        );
        let a = rec(&["MARY", "SMITH"]);
        let b = rec(&["MARY", "ZZZZZ"]); // first matches, last differs
        assert!(heavy_first.similarity(&a, &b) > heavy_last.similarity(&a, &b));
    }

    #[test]
    fn measure_labels() {
        assert_eq!(MeasureKind::MongeElkanLevenshtein.label(), "ME/Lev");
        assert_eq!(MeasureKind::JaroWinkler.label(), "JaroWinkler");
        assert_eq!(MeasureKind::TrigramJaccard.label(), "Jaccard");
    }

    #[test]
    fn all_empty_records_score_zero() {
        let m = matcher(MeasureKind::JaroWinkler, 2, vec![]);
        let a = rec(&["", ""]);
        assert_eq!(m.similarity(&a, &a.clone()), 0.0);
    }

    #[test]
    fn zero_weights_fall_back_to_uniform() {
        let m = RecordMatcher::with_kind(MeasureKind::JaroWinkler, vec![0.0, 0.0], vec![]);
        let a = rec(&["MARY", "SMITH"]);
        assert!((m.similarity(&a, &a.clone()) - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "name-group attribute 3 is out of range for 3 attributes")]
    fn name_group_index_out_of_range_is_rejected() {
        matcher(MeasureKind::JaroWinkler, 3, vec![0, 3]);
    }

    #[test]
    #[should_panic(expected = "name-group attribute 0 is listed twice")]
    fn repeated_name_group_index_is_rejected() {
        matcher(MeasureKind::JaroWinkler, 3, vec![0, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "weight -1 of attribute 1 must be finite and >= 0")]
    fn negative_weight_is_rejected() {
        RecordMatcher::with_kind(MeasureKind::JaroWinkler, vec![1.0, -1.0], vec![]);
    }

    #[test]
    #[should_panic(expected = "weight NaN of attribute 0 must be finite and >= 0")]
    fn nan_weight_is_rejected() {
        RecordMatcher::with_kind(MeasureKind::JaroWinkler, vec![f64::NAN, 1.0], vec![]);
    }

    #[test]
    #[should_panic(expected = "weight inf of attribute 1 must be finite and >= 0")]
    fn infinite_weight_is_rejected() {
        RecordMatcher::with_kind(MeasureKind::JaroWinkler, vec![1.0, f64::INFINITY], vec![]);
    }

    #[test]
    #[should_panic(expected = "the weights sum to inf")]
    fn overflowing_weight_sum_is_rejected() {
        RecordMatcher::with_kind(MeasureKind::JaroWinkler, vec![f64::MAX, f64::MAX], vec![]);
    }

    #[test]
    #[should_panic(expected = "the matcher weighs 3 attributes, the records have 3 and 2")]
    fn record_of_another_arity_is_rejected() {
        let m = matcher(MeasureKind::JaroWinkler, 3, vec![]);
        m.similarity(&rec(&["A", "B", "C"]), &rec(&["A", "B"]));
    }

    #[test]
    #[should_panic(expected = "the matcher weighs 3 attributes, the dataset has 2")]
    fn dataset_of_another_arity_is_rejected_when_prepared() {
        let data = Dataset::new(vec!["first".into(), "last".into()]);
        matcher(MeasureKind::JaroWinkler, 3, vec![]).prepare(&data);
    }

    /// 40 records: names drawn from a pool of five (first and last
    /// confused now and then, some missing or padded), a city out of
    /// three, and a key-like id that never repeats.
    fn register() -> Dataset {
        let names = ["ANNA", "BOB", "CARLA", "DEBRA", ""];
        let mut data = Dataset::new(vec!["first".into(), "last".into(), "city".into(), "id".into()]);
        for i in 0..40usize {
            let first = names[i % 5];
            let last = names[(i / 5 + i) % 5];
            let city = ["RALEIGH", " DURHAM ", "CARY"][i % 3];
            data.push(
                vec![first.into(), format!("{last} "), city.into(), format!("ID{i}")],
                i / 2,
            );
        }
        data
    }

    fn all_pairs(n: usize) -> impl Iterator<Item = Pair> {
        (0..n).flat_map(move |a| (a + 1..n).map(move |b| Pair(a, b)))
    }

    fn assert_prepared_matches(prepared: &mut PreparedMatcher<'_>, m: &RecordMatcher, data: &Dataset) {
        // Twice: the second pass reads what the first remembered.
        for _ in 0..2 {
            for pair in all_pairs(data.len()) {
                let direct = m.similarity(&data.records[pair.0], &data.records[pair.1]);
                assert_eq!(prepared.score(pair).to_bits(), direct.to_bits(), "{pair:?}");
            }
        }
    }

    #[test]
    fn memo_kind_follows_the_data() {
        let data = register();
        let m = matcher(MeasureKind::JaroWinkler, 4, vec![0, 1]);
        let kinds = |prepared: &PreparedMatcher<'_>| -> Vec<&'static str> {
            prepared
                .dicts
                .iter()
                .map(|d| match d.memo {
                    Memo::Off => "off",
                    Memo::Dense(_) => "dense",
                    Memo::Mapped(_) => "mapped",
                })
                .collect()
        };
        // The name group shares dictionary 0; the id never repeats.
        let prepared = m.prepare(&data);
        assert_eq!(prepared.dict_of, [0, 0, 1, 2]);
        assert_eq!(prepared.dicts[0].values, ["", "ANNA", "BOB", "CARLA", "DEBRA"]);
        assert_eq!(kinds(&prepared), ["dense", "dense", "off"]);
        // 5 × 5 names and 4 × 4 cities no longer fit 8 slots.
        let small = PreparedMatcher::with_memo_slots(&m, &data, 8);
        assert_eq!(kinds(&small), ["mapped", "mapped", "off"]);
    }

    #[test]
    fn prepared_scores_are_the_per_pair_scores() {
        let data = register();
        for kind in MeasureKind::ALL {
            for group in [vec![], vec![0, 1]] {
                let m = RecordMatcher::with_kind(kind, data.entropy_weights(), group);
                assert_prepared_matches(&mut m.prepare(&data), &m, &data);
            }
        }
    }

    #[test]
    fn an_evicting_memo_changes_no_score() {
        let data = register();
        for kind in MeasureKind::ALL {
            let m = RecordMatcher::with_kind(kind, data.entropy_weights(), vec![0, 1]);
            // 25 ordered name pairs and 16 city pairs through 2 slots
            // each: nearly every lookup evicts.
            let mut prepared = PreparedMatcher::with_memo_slots(&m, &data, 2);
            assert_prepared_matches(&mut prepared, &m, &data);
        }
    }

    /// A measure that is not symmetric: the share of `a` in the two
    /// lengths.
    struct ShareOfFirst;

    impl StringSimilarity for ShareOfFirst {
        fn sim(&self, a: &str, b: &str) -> f64 {
            a.len() as f64 / (a.len() + b.len()).max(1) as f64
        }
    }

    #[test]
    fn the_memo_keeps_the_order_of_a_value_pair() {
        let mut data = Dataset::new(vec!["v".into()]);
        for _ in 0..4 {
            data.push(vec!["AB".into()], 0);
            data.push(vec!["ABCDEF".into()], 1);
        }
        let m = RecordMatcher::new(Box::new(ShareOfFirst), vec![1.0], vec![]);
        let mut dense = m.prepare(&data);
        assert!(matches!(dense.dicts[0].memo, Memo::Dense(_)));
        // Three values are nine ordered pairs: past eight slots.
        let mut mapped = PreparedMatcher::with_memo_slots(&m, &data, 8);
        assert!(matches!(mapped.dicts[0].memo, Memo::Mapped(_)));
        for prepared in [&mut dense, &mut mapped] {
            assert_eq!(prepared.score(Pair(0, 1)), 0.25);
            assert_eq!(prepared.score(Pair(1, 2)), 0.75);
            assert_prepared_matches(prepared, &m, &data);
        }
    }
}
