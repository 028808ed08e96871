//! Data pollution on top of historical data (the paper's future work,
//! Section 8).
//!
//! The paper proposes combining its historical approach with a scalable
//! data-pollution tool (DaPo) "to unite the strengths of having real
//! outdated values and being able to inject additional errors at will".
//! This module implements that combination: it takes a customized test
//! dataset — whose records already carry real outdated values from the
//! snapshot history — and injects *additional*, configurable errors
//! without touching the gold standard. It can also synthesize extra
//! duplicate records (erroneous copies) to densify clusters.

use nc_votergen::config::ErrorRates;
use nc_votergen::errors;
use nc_votergen::rng::Rng;
use nc_votergen::schema::{AttrGroup, Row, SCHEMA};

use crate::customize::CustomDataset;

/// Configuration of the pollution pass.
#[derive(Debug, Clone, PartialEq)]
pub struct PollutionConfig {
    /// Per-value corruption rates applied to existing records.
    pub rates: ErrorRates,
    /// Probability of stray whitespace per value.
    pub whitespace_rate: f64,
    /// Probability per record that its name values get confused between
    /// attributes.
    pub confusion_rate: f64,
    /// Probability per record that an additional erroneous duplicate of
    /// it is appended to its cluster.
    pub duplicate_rate: f64,
    /// Restrict corruption to person attributes (district/election
    /// values stay pristine).
    pub person_attrs_only: bool,
    /// Seed for the pollution RNG.
    pub seed: u64,
}

impl Default for PollutionConfig {
    fn default() -> Self {
        PollutionConfig {
            rates: ErrorRates::default(),
            whitespace_rate: 0.01,
            confusion_rate: 0.01,
            duplicate_rate: 0.0,
            person_attrs_only: true,
            seed: 0xDA90,
        }
    }
}

impl PollutionConfig {
    /// Validate rates; returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        let rates = [
            ("whitespace_rate", self.whitespace_rate),
            ("confusion_rate", self.confusion_rate),
            ("duplicate_rate", self.duplicate_rate),
            ("rates.typo", self.rates.typo),
            ("rates.ocr", self.rates.ocr),
            ("rates.phonetic", self.rates.phonetic),
            ("rates.abbreviation", self.rates.abbreviation),
            ("rates.missing", self.rates.missing),
            ("rates.case_flip", self.rates.case_flip),
        ];
        for (name, r) in rates {
            if !(0.0..=1.0).contains(&r) {
                return Err(format!("{name} must be in [0,1], got {r}"));
            }
        }
        if self.rates.total() > 1.0 {
            return Err(format!("rates sum to {} > 1", self.rates.total()));
        }
        Ok(())
    }
}

/// Summary of what a pollution pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PollutionStats {
    /// Values corrupted in place.
    pub corrupted_values: u64,
    /// Records whose names were confused.
    pub confused_records: u64,
    /// Extra duplicate records appended.
    pub duplicates_added: u64,
}

/// Corrupt one row in place; returns the number of corrupted values.
fn pollute_row(rng: &mut Rng, cfg: &PollutionConfig, row: &mut Row) -> u64 {
    let mut corrupted = 0;
    for (attr, spec) in SCHEMA.iter().enumerate() {
        if cfg.person_attrs_only && spec.group != AttrGroup::Person {
            continue;
        }
        // Never corrupt the NCID — it is the gold standard.
        if spec.name == "ncid" {
            continue;
        }
        let value = row.get(attr).to_owned();
        if value.is_empty() {
            continue;
        }
        let mut new_value = errors::corrupt_value(rng, &cfg.rates, &value);
        if rng.gen_bool(cfg.whitespace_rate) {
            new_value = errors::pad_whitespace(rng, &new_value);
        }
        if new_value != value {
            corrupted += 1;
            row.set(attr, new_value);
        }
    }
    corrupted
}

/// Pollute a customized dataset in place.
///
/// The cluster structure (the gold standard) is preserved: corrupted
/// records keep their cluster membership and synthesized duplicates are
/// appended to the cluster they copy. Panics when the configuration is
/// invalid, before anything is drawn or mutated.
pub fn pollute(dataset: &mut CustomDataset, cfg: &PollutionConfig) -> PollutionStats {
    if let Err(e) = cfg.validate() {
        panic!("invalid pollution config: {e}");
    }
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut stats = PollutionStats::default();
    for cluster in &mut dataset.clusters {
        let mut extra: Vec<Row> = Vec::new();
        for row in &mut cluster.records {
            stats.corrupted_values += pollute_row(&mut rng, cfg, row);
            if rng.gen_bool(cfg.confusion_rate) {
                errors::confuse_values(&mut rng, row);
                stats.confused_records += 1;
            }
            if rng.gen_bool(cfg.duplicate_rate) {
                let mut copy = row.clone();
                // The synthetic duplicate must differ somewhere: force at
                // least one typo-class corruption on top of the rates.
                let forced = ErrorRates {
                    typo: 1.0,
                    ..ErrorRates::none()
                };
                for attr in [
                    nc_votergen::schema::FIRST_NAME,
                    nc_votergen::schema::LAST_NAME,
                ] {
                    let v = copy.get(attr).to_owned();
                    if !v.is_empty() {
                        copy.set(attr, errors::corrupt_value(&mut rng, &forced, &v));
                        break;
                    }
                }
                extra.push(copy);
                stats.duplicates_added += 1;
            }
        }
        cluster.records.extend(extra);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::customize::CustomCluster;
    use nc_votergen::schema::{FIRST_NAME, LAST_NAME, MIDL_NAME, NCID, NC_HOUSE};

    fn dataset() -> CustomDataset {
        let mk = |ncid: &str, first: &str, last: &str| {
            let mut r = Row::empty();
            r.set(NCID, ncid);
            r.set(FIRST_NAME, first);
            r.set(MIDL_NAME, "ANN");
            r.set(LAST_NAME, last);
            r.set(NC_HOUSE, "NC HOUSE DISTRICT 64");
            r
        };
        CustomDataset {
            clusters: vec![
                CustomCluster {
                    ncid: "A1".into(),
                    records: vec![mk("A1", "MARY", "SMITH"), mk("A1", "MARY", "SMYTH")],
                },
                CustomCluster {
                    ncid: "B2".into(),
                    records: vec![mk("B2", "JOHN", "JONES")],
                },
            ],
            sampled: vec!["A1".into(), "B2".into()],
        }
    }

    #[test]
    fn zero_config_is_identity() {
        let mut ds = dataset();
        let before = ds.clusters.clone();
        let stats = pollute(
            &mut ds,
            &PollutionConfig {
                rates: ErrorRates::none(),
                whitespace_rate: 0.0,
                confusion_rate: 0.0,
                duplicate_rate: 0.0,
                ..Default::default()
            },
        );
        assert_eq!(stats, PollutionStats::default());
        for (a, b) in before.iter().zip(&ds.clusters) {
            assert_eq!(a.records, b.records);
        }
    }

    #[test]
    fn invalid_rate_is_rejected_by_name_before_any_mutation() {
        let typos = ErrorRates {
            typo: 1.0,
            ..ErrorRates::none()
        };
        let cases = [
            ("duplicate_rate", PollutionConfig { rates: typos, duplicate_rate: 1.5, ..Default::default() }),
            ("confusion_rate", PollutionConfig { rates: typos, confusion_rate: f64::NAN, ..Default::default() }),
            ("whitespace_rate", PollutionConfig { rates: typos, whitespace_rate: -0.1, ..Default::default() }),
            ("rates.ocr", PollutionConfig { rates: ErrorRates { ocr: 2.0, ..typos }, ..Default::default() }),
            ("rates sum", PollutionConfig { rates: ErrorRates { missing: 0.5, ..typos }, ..Default::default() }),
        ];
        for (field, cfg) in cases {
            assert!(cfg.validate().unwrap_err().contains(field));
            let mut ds = dataset();
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pollute(&mut ds, &cfg)))
                .expect_err("an invalid config must not run");
            let message = panic.downcast_ref::<String>().expect("formatted panic");
            assert!(message.contains(field), "{message}");
            for (a, b) in dataset().clusters.iter().zip(&ds.clusters) {
                assert_eq!(a.records, b.records, "{field}: dataset left untouched");
            }
        }
        assert_eq!(PollutionConfig::default().validate(), Ok(()));
    }

    #[test]
    fn heavy_rates_corrupt_values_but_not_ncid() {
        let mut ds = dataset();
        let cfg = PollutionConfig {
            rates: ErrorRates {
                typo: 1.0,
                ..ErrorRates::none()
            },
            confusion_rate: 0.0,
            whitespace_rate: 0.0,
            ..Default::default()
        };
        let stats = pollute(&mut ds, &cfg);
        assert!(stats.corrupted_values > 0);
        for c in &ds.clusters {
            for r in &c.records {
                assert_eq!(r.get(NCID), c.ncid, "NCID untouched");
            }
        }
    }

    #[test]
    fn person_scope_leaves_districts_alone() {
        let mut ds = dataset();
        let cfg = PollutionConfig {
            rates: ErrorRates {
                typo: 1.0,
                ..ErrorRates::none()
            },
            person_attrs_only: true,
            whitespace_rate: 0.0,
            confusion_rate: 0.0,
            ..Default::default()
        };
        pollute(&mut ds, &cfg);
        for c in &ds.clusters {
            for r in &c.records {
                assert_eq!(r.get(NC_HOUSE), "NC HOUSE DISTRICT 64");
            }
        }
    }

    #[test]
    fn duplicates_grow_clusters_and_gold_standard() {
        let mut ds = dataset();
        let before_pairs = ds.duplicate_pairs();
        let cfg = PollutionConfig {
            rates: ErrorRates::none(),
            whitespace_rate: 0.0,
            confusion_rate: 0.0,
            duplicate_rate: 1.0,
            ..Default::default()
        };
        let stats = pollute(&mut ds, &cfg);
        assert_eq!(stats.duplicates_added, 3);
        assert_eq!(ds.record_count(), 6);
        assert!(ds.duplicate_pairs() > before_pairs);
        // The singleton cluster became a real duplicate cluster.
        let b2 = ds.clusters.iter().find(|c| c.ncid == "B2").unwrap();
        assert_eq!(b2.records.len(), 2);
        assert_ne!(b2.records[0], b2.records[1], "copy must differ");
    }

    #[test]
    fn pollution_is_deterministic_in_seed() {
        let run = |seed| {
            let mut ds = dataset();
            pollute(
                &mut ds,
                &PollutionConfig {
                    seed,
                    duplicate_rate: 0.5,
                    ..Default::default()
                },
            );
            ds.clusters
                .iter()
                .flat_map(|c| c.records.iter().map(|r| r.to_tsv()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn confusion_swaps_names() {
        let mut ds = dataset();
        let cfg = PollutionConfig {
            rates: ErrorRates::none(),
            whitespace_rate: 0.0,
            confusion_rate: 1.0,
            duplicate_rate: 0.0,
            ..Default::default()
        };
        let stats = pollute(&mut ds, &cfg);
        assert_eq!(stats.confused_records, 3);
    }
}
