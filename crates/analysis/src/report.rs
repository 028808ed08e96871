//! Assembling the Table 4 error profile of a dataset.

use std::cmp::Reverse;
use std::collections::HashMap;

use nc_detect::dataset::{Dataset, Pair};

use crate::pairwise;
use crate::singleton::{self, SingletonConfig};

/// The thirteen irregularity types of Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorType {
    /// Out-of-range or domain-foreign value.
    Outlier,
    /// Single-letter value.
    Abbreviation,
    /// Missing value.
    Missing,
    /// One-edit difference.
    Typo,
    /// Digit/letter confusion.
    OcrError,
    /// Same Soundex, different spelling.
    Phonetic,
    /// One value is a prefix of the other.
    Prefix,
    /// One value is a suffix of the other.
    Postfix,
    /// Difference only in non-alphanumeric characters.
    Formatting,
    /// Same tokens, different order.
    TokenTransposition,
    /// Values swapped between two attributes.
    ValueConfusion,
    /// One attribute's value merged into another.
    IntegratedValue,
    /// Tokens split differently across two attributes.
    ScatteredValues,
}

impl ErrorType {
    /// All types, in Table 4 order.
    pub const ALL: [ErrorType; 13] = [
        ErrorType::Outlier,
        ErrorType::Abbreviation,
        ErrorType::Missing,
        ErrorType::Typo,
        ErrorType::OcrError,
        ErrorType::Phonetic,
        ErrorType::Prefix,
        ErrorType::Postfix,
        ErrorType::Formatting,
        ErrorType::TokenTransposition,
        ErrorType::ValueConfusion,
        ErrorType::IntegratedValue,
        ErrorType::ScatteredValues,
    ];

    /// Whether the type is a singleton irregularity (vs pair-based).
    pub fn is_singleton(self) -> bool {
        matches!(
            self,
            ErrorType::Outlier | ErrorType::Abbreviation | ErrorType::Missing
        )
    }

    /// Table 4 label.
    pub fn label(self) -> &'static str {
        match self {
            ErrorType::Outlier => "outlier",
            ErrorType::Abbreviation => "abbreviation",
            ErrorType::Missing => "missing",
            ErrorType::Typo => "typo",
            ErrorType::OcrError => "OCR-error",
            ErrorType::Phonetic => "phonetic",
            ErrorType::Prefix => "prefix",
            ErrorType::Postfix => "postfix",
            ErrorType::Formatting => "formatting",
            ErrorType::TokenTransposition => "token transp.",
            ErrorType::ValueConfusion => "value confusion",
            ErrorType::IntegratedValue => "integrated value",
            ErrorType::ScatteredValues => "scattered value",
        }
    }
}

/// Analysis configuration.
#[derive(Debug, Clone, Default)]
pub struct AnalysisConfig {
    /// Singleton detector configuration.
    pub singleton: SingletonConfig,
    /// Attribute index pairs checked for the multi-attribute classes
    /// (typically the combinations of the name attributes).
    pub confusable_pairs: Vec<(usize, usize)>,
    /// Attribute indices analyzed for pair-based single-attribute
    /// irregularities; empty means all attributes.
    pub analyzed_attrs: Vec<usize>,
    /// Worker threads for the pair-based scan; `0` means one per
    /// available hardware thread. Counts are summed over workers, so
    /// the profile is identical for every thread count.
    pub threads: usize,
}

/// One line of the error profile.
///
/// Following the paper's Table 4, `count` and `percentage` refer to the
/// *most common attribute* for this error type (e.g. `missing` in
/// `mail_addr1`: 58 M occurrences, 99 % of records); `total_count` sums
/// over all analyzed attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorStat {
    /// The irregularity type.
    pub error_type: ErrorType,
    /// Occurrences in the most common attribute.
    pub count: u64,
    /// Occurrences summed over all analyzed attributes.
    pub total_count: u64,
    /// `count` normalized by records (singletons) or duplicate pairs
    /// (pair-based).
    pub percentage: f64,
    /// The attribute (name) where the irregularity occurs most often.
    pub most_common_attr: Option<String>,
}

/// The full Table 4 profile of one dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorProfile {
    /// Records analyzed (the singleton normalizer).
    pub records: u64,
    /// Duplicate pairs analyzed (the pair normalizer).
    pub duplicate_pairs: u64,
    /// One entry per error type, in Table 4 order.
    pub stats: Vec<ErrorStat>,
}

impl ErrorProfile {
    /// The stat for a type.
    pub fn get(&self, t: ErrorType) -> &ErrorStat {
        self.stats
            .iter()
            .find(|s| s.error_type == t)
            .expect("all types present")
    }
}

/// Per-type, per-attribute occurrence counts.
type Counts = HashMap<ErrorType, HashMap<usize, u64>>;

/// Add every count of `other` into `counts`. Addition of `u64` is
/// commutative and associative, so the merged totals are independent
/// of how the pair scan was sharded.
fn merge_counts(counts: &mut Counts, other: Counts) {
    for (t, per_attr) in other {
        let into = counts.entry(t).or_default();
        for (a, c) in per_attr {
            *into.entry(a).or_insert(0) += c;
        }
    }
}

/// Run the pair-based detectors over one shard of the gold standard.
fn scan_pairs(
    data: &Dataset,
    config: &AnalysisConfig,
    analyzed: &[usize],
    gold: &[Pair],
) -> Counts {
    let mut counts = Counts::new();
    let mut bump = |t: ErrorType, attr: usize| {
        *counts.entry(t).or_default().entry(attr).or_insert(0) += 1;
    };
    for p in gold {
        let r1 = &data.records[p.0];
        let r2 = &data.records[p.1];
        for &a in analyzed {
            let (x, y) = (r1.values[a].as_str(), r2.values[a].as_str());
            if pairwise::is_typo(x, y) {
                bump(ErrorType::Typo, a);
            }
            if pairwise::is_ocr_error(x, y) {
                bump(ErrorType::OcrError, a);
            }
            if pairwise::is_phonetic(x, y) {
                bump(ErrorType::Phonetic, a);
            }
            if pairwise::is_prefix(x, y) {
                bump(ErrorType::Prefix, a);
            }
            if pairwise::is_postfix(x, y) && !pairwise::is_prefix(x, y) {
                bump(ErrorType::Postfix, a);
            }
            if pairwise::is_formatting(x, y) {
                bump(ErrorType::Formatting, a);
            }
            if pairwise::is_token_transposition(x, y) {
                bump(ErrorType::TokenTransposition, a);
            }
        }
        for &(a, b) in &config.confusable_pairs {
            let (a1, b1) = (r1.values[a].as_str(), r1.values[b].as_str());
            let (a2, b2) = (r2.values[a].as_str(), r2.values[b].as_str());
            if pairwise::is_value_confusion(a1, b1, a2, b2) {
                bump(ErrorType::ValueConfusion, a);
            }
            if pairwise::is_integrated_value(a1, b1, a2, b2) {
                bump(ErrorType::IntegratedValue, a);
            }
            if pairwise::is_scattered_values(a1, b1, a2, b2) {
                bump(ErrorType::ScatteredValues, a);
            }
        }
    }
    counts
}

/// Run the full irregularity analysis over a labeled dataset.
///
/// The pair-based scan (the expensive part: every detector on every
/// gold pair) is sharded over [`AnalysisConfig::threads`] workers;
/// per-worker counts are summed, so the resulting profile is identical
/// for every thread count.
pub fn analyze(data: &Dataset, config: &AnalysisConfig) -> ErrorProfile {
    // counts[type][attr] = occurrences.
    let mut counts: Counts = HashMap::new();
    let mut bump = |t: ErrorType, attr: usize| {
        *counts.entry(t).or_default().entry(attr).or_insert(0) += 1;
    };

    let analyzed: Vec<usize> = if config.analyzed_attrs.is_empty() {
        (0..data.num_attrs()).collect()
    } else {
        config.analyzed_attrs.clone()
    };

    // Singletons (linear in records; not worth sharding).
    for r in &data.records {
        for &a in &analyzed {
            let v = &r.values[a];
            if singleton::is_missing(v) {
                bump(ErrorType::Missing, a);
                continue;
            }
            if singleton::is_abbreviation(v) {
                bump(ErrorType::Abbreviation, a);
            }
            if singleton::is_outlier(&config.singleton, a, v) {
                bump(ErrorType::Outlier, a);
            }
        }
    }

    // Pair-based, over the gold standard, flattened for sharding.
    let gold = data.sorted_gold_pairs();
    let threads = if config.threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        config.threads
    }
    .min(gold.len())
    .max(1);
    if threads <= 1 {
        merge_counts(&mut counts, scan_pairs(data, config, &analyzed, &gold));
    } else {
        let shard_len = gold.len().div_ceil(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = gold
                .chunks(shard_len)
                .map(|shard| {
                    let analyzed = &analyzed;
                    scope.spawn(move || scan_pairs(data, config, analyzed, shard))
                })
                .collect();
            for handle in handles {
                merge_counts(&mut counts, handle.join().expect("pair-scan worker panicked"));
            }
        });
    }

    let records = data.len() as u64;
    let pairs = gold.len() as u64;
    let stats = ErrorType::ALL
        .iter()
        .map(|&t| {
            let per_attr = counts.remove(&t).unwrap_or_default();
            let total_count: u64 = per_attr.values().sum();
            // Ties go to the lowest attribute index, whatever order the
            // map yields them in.
            let top = per_attr.iter().max_by_key(|(&a, &c)| (c, Reverse(a)));
            let count = top.map_or(0, |(_, &c)| c);
            let most_common_attr = top.map(|(&a, _)| data.attr_names[a].clone());
            let denom = if t.is_singleton() { records } else { pairs };
            ErrorStat {
                error_type: t,
                count,
                total_count,
                percentage: if denom == 0 {
                    0.0
                } else {
                    count as f64 / denom as f64
                },
                most_common_attr,
            }
        })
        .collect();

    ErrorProfile {
        records,
        duplicate_pairs: pairs,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small hand-built dataset with one instance of several error
    /// types: attributes (first, midl, last, age).
    fn fixture() -> (Dataset, AnalysisConfig) {
        let mut d = Dataset::new(vec![
            "first".into(),
            "midl".into(),
            "last".into(),
            "age".into(),
        ]);
        // Cluster 0: typo in last, abbreviation in midl of r1.
        d.push(vec!["MARY".into(), "ANN".into(), "SMITH".into(), "40".into()], 0);
        d.push(vec!["MARY".into(), "A.".into(), "SMYTH".into(), "41".into()], 0);
        // Cluster 1: value confusion first/last + missing midl + outlier age.
        d.push(vec!["JOSE".into(), "".into(), "JUAN".into(), "5069".into()], 1);
        d.push(vec!["JUAN".into(), "".into(), "JOSE".into(), "33".into()], 1);
        // Cluster 2: integrated midl, OCR error in last.
        d.push(vec!["MARY ANN".into(), "".into(), "NICOLE".into(), "50".into()], 2);
        d.push(vec!["MARY".into(), "ANN".into(), "NIC0LE".into(), "50".into()], 2);
        // Singleton cluster.
        d.push(vec!["PAT".into(), "unknown".into(), "JONES".into(), "29".into()], 3);
        let cfg = AnalysisConfig {
            singleton: SingletonConfig {
                numeric_ranges: vec![(3, 17, 110)],
                alpha_attrs: vec![0, 1, 2],
            },
            confusable_pairs: vec![(0, 1), (0, 2), (1, 2)],
            analyzed_attrs: vec![],
            threads: 0,
        };
        (d, cfg)
    }

    #[test]
    fn profile_counts_each_type() {
        let (d, cfg) = fixture();
        let profile = analyze(&d, &cfg);
        assert_eq!(profile.records, 7);
        assert_eq!(profile.duplicate_pairs, 3);
        assert!(profile.get(ErrorType::Typo).count >= 1);
        assert_eq!(profile.get(ErrorType::ValueConfusion).count, 1);
        assert_eq!(profile.get(ErrorType::IntegratedValue).count, 1);
        assert!(profile.get(ErrorType::Abbreviation).count >= 1);
        assert!(profile.get(ErrorType::Missing).total_count >= 3, "two empty midl + 'unknown'");
        // Two outliers in total: the age 5069 and the digit in NIC0LE
        // (types overlap, as the paper notes); one per attribute.
        assert_eq!(profile.get(ErrorType::Outlier).total_count, 2);
        assert_eq!(profile.get(ErrorType::Outlier).count, 1);
        assert_eq!(profile.get(ErrorType::OcrError).count, 1);
    }

    #[test]
    fn most_common_attribute_is_reported() {
        let (d, cfg) = fixture();
        let profile = analyze(&d, &cfg);
        assert_eq!(
            profile.get(ErrorType::Missing).most_common_attr.as_deref(),
            Some("midl")
        );
        assert_eq!(
            profile.get(ErrorType::Typo).most_common_attr.as_deref(),
            Some("last")
        );
    }

    #[test]
    fn percentages_use_correct_normalizers() {
        let (d, cfg) = fixture();
        let profile = analyze(&d, &cfg);
        let outlier = profile.get(ErrorType::Outlier);
        assert!((outlier.percentage - 1.0 / 7.0).abs() < 1e-12);
        let confusion = profile.get(ErrorType::ValueConfusion);
        assert!((confusion.percentage - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_dataset_yields_zero_profile() {
        let d = Dataset::new(vec!["a".into()]);
        let profile = analyze(&d, &AnalysisConfig::default());
        assert_eq!(profile.records, 0);
        for s in &profile.stats {
            assert_eq!(s.count, 0);
            assert_eq!(s.total_count, 0);
            assert_eq!(s.percentage, 0.0);
        }
    }

    #[test]
    fn profile_is_thread_count_invariant() {
        let (d, cfg) = fixture();
        let base = analyze(&d, &AnalysisConfig { threads: 1, ..cfg.clone() });
        for threads in [2, 3, 8] {
            let par = analyze(&d, &AnalysisConfig { threads, ..cfg.clone() });
            assert_eq!(base, par, "threads={threads}");
        }
    }

    /// A tied argmax goes to the lowest attribute index, so the profile
    /// — and the JSON the experiment reports render from it — is the
    /// same on every run and for records inserted in any order.
    #[test]
    fn tied_rows_report_the_same_attribute_on_every_run() {
        let (d, cfg) = fixture();
        let base = analyze(&d, &cfg);
        // The fixture's two outliers tie: NIC0LE in `last`, 5069 in `age`.
        let outlier = base.get(ErrorType::Outlier);
        assert_eq!((outlier.count, outlier.total_count), (1, 2));
        assert_eq!(outlier.most_common_attr.as_deref(), Some("last"));
        let mut shuffled = d.clone();
        shuffled.records.reverse();
        // Every run's maps draw a fresh hash seed.
        for _ in 0..8 {
            assert_eq!(analyze(&d, &cfg), base);
            assert_eq!(analyze(&shuffled, &cfg), base);
        }
    }

    #[test]
    fn labels_and_partition() {
        assert_eq!(ErrorType::ALL.len(), 13);
        let singles = ErrorType::ALL.iter().filter(|t| t.is_singleton()).count();
        assert_eq!(singles, 3);
        assert_eq!(ErrorType::Typo.label(), "typo");
    }
}
