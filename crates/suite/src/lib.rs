//! Umbrella crate for the `ncvoter-testdata` workspace.
//!
//! Re-exports every sub-crate and provides the [`bridge`] helpers that
//! connect the voter-specific pipeline (`nc-core`) with the
//! schema-agnostic detection and analysis layers (`nc-detect`,
//! `nc-analysis`). The repository-level integration tests and examples
//! are anchored here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use nc_analysis as analysis;
pub use nc_core as core;
pub use nc_datasets as datasets;
pub use nc_detect as detect;
pub use nc_docstore as docstore;
pub use nc_pprl as pprl;
pub use nc_serve as serve;
pub use nc_shard as shard;
pub use nc_similarity as similarity;
pub use nc_votergen as votergen;

/// Conversions between the voter pipeline's typed rows and the generic
/// [`nc_detect::dataset::Dataset`].
pub mod bridge {
    use nc_core::cluster::ClusterStore;
    use nc_core::customize::CustomDataset;
    use nc_detect::dataset::Dataset;
    use nc_votergen::schema::{AttrId, Row, SCHEMA};

    /// Build a generic dataset from `(cluster_label, row)` pairs,
    /// keeping only the listed attributes.
    pub fn dataset_from_labeled_rows<'a, I>(rows: I, attrs: &[AttrId]) -> Dataset
    where
        I: IntoIterator<Item = (usize, &'a Row)>,
    {
        let names = attrs.iter().map(|&a| SCHEMA[a].name.to_owned()).collect();
        let mut data = Dataset::new(names);
        for (cluster, row) in rows {
            let values = attrs.iter().map(|&a| row.get(a).trim().to_owned()).collect();
            data.push(values, cluster);
        }
        data
    }

    /// Convert a customized dataset (NC1/NC2/NC3) into a generic
    /// dataset restricted to the given attributes.
    pub fn dataset_from_custom(custom: &CustomDataset, attrs: &[AttrId]) -> Dataset {
        dataset_from_labeled_rows(custom.labeled_records(), attrs)
    }

    /// Convert an entire cluster store into a generic dataset (cluster
    /// labels are assigned per NCID, in store order).
    pub fn dataset_from_store(store: &ClusterStore, attrs: &[AttrId]) -> Dataset {
        let names = attrs.iter().map(|&a| SCHEMA[a].name.to_owned()).collect();
        let mut data = Dataset::new(names);
        for (label, (_, rows)) in store.iter_clusters().enumerate() {
            for row in rows {
                let values = attrs.iter().map(|&a| row.get(a).trim().to_owned()).collect();
                data.push(values, label);
            }
        }
        data
    }

    /// Attribute-index positions of the three name attributes within an
    /// `attrs` projection — the matcher's 1:1 name group.
    pub fn name_group_positions(attrs: &[AttrId]) -> Vec<usize> {
        use nc_votergen::schema::{FIRST_NAME, LAST_NAME, MIDL_NAME};
        attrs
            .iter()
            .enumerate()
            .filter(|(_, &a)| a == FIRST_NAME || a == MIDL_NAME || a == LAST_NAME)
            .map(|(i, _)| i)
            .collect()
    }

    /// The Table-4 analysis configuration for NC-schema datasets
    /// projected onto `attrs`: age range checks, alphabetic name
    /// attributes and the confusable name-attribute pairs.
    ///
    /// Code-book attributes (sex/race/ethnicity codes, state codes,
    /// flags) are excluded from the analysis: their domains are single
    /// letters by design, which would flood the abbreviation detector
    /// with false positives.
    pub fn nc_analysis_config(attrs: &[AttrId]) -> nc_analysis::report::AnalysisConfig {
        use nc_votergen::schema::{
            AGE, BIRTH_PLACE, DRIVERS_LIC, ETHNIC_CODE, FIRST_NAME, LAST_NAME, MAIL_STATE,
            MIDL_NAME, RACE_CODE, RES_STATE, SEX_CODE,
        };
        let pos = |target: AttrId| attrs.iter().position(|&a| a == target);
        let code_attrs = [SEX_CODE, RACE_CODE, ETHNIC_CODE, RES_STATE, MAIL_STATE, DRIVERS_LIC];
        let analyzed_attrs: Vec<usize> = attrs
            .iter()
            .enumerate()
            .filter(|(_, a)| !code_attrs.contains(a))
            .map(|(i, _)| i)
            .collect();
        let mut numeric_ranges = Vec::new();
        if let Some(i) = pos(AGE) {
            numeric_ranges.push((i, 17, 110));
        }
        let alpha_attrs: Vec<usize> = [FIRST_NAME, MIDL_NAME, LAST_NAME, BIRTH_PLACE]
            .iter()
            .filter_map(|&a| pos(a))
            .collect();
        let name_pos: Vec<usize> = [FIRST_NAME, MIDL_NAME, LAST_NAME]
            .iter()
            .filter_map(|&a| pos(a))
            .collect();
        let mut confusable_pairs = Vec::new();
        for i in 0..name_pos.len() {
            for j in (i + 1)..name_pos.len() {
                confusable_pairs.push((name_pos[i], name_pos[j]));
            }
        }
        nc_analysis::report::AnalysisConfig {
            singleton: nc_analysis::singleton::SingletonConfig {
                numeric_ranges,
                alpha_attrs,
            },
            confusable_pairs,
            analyzed_attrs,
            threads: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::bridge;
    use nc_core::heterogeneity::Scope;
    use nc_votergen::schema::{AGE, FIRST_NAME, LAST_NAME, MIDL_NAME, NCID, Row};

    #[test]
    fn labeled_rows_round_trip() {
        let mut r = Row::empty();
        r.set(NCID, "A1");
        r.set(FIRST_NAME, " MARY ");
        r.set(LAST_NAME, "SMITH");
        let attrs = vec![FIRST_NAME, LAST_NAME];
        let data = bridge::dataset_from_labeled_rows([(3usize, &r)], &attrs);
        assert_eq!(data.len(), 1);
        assert_eq!(data.attr_names, vec!["first_name", "last_name"]);
        assert_eq!(data.records[0].values, vec!["MARY", "SMITH"]);
        assert_eq!(data.records[0].cluster, 3);
    }

    #[test]
    fn name_group_positions_found() {
        let attrs = Scope::Person.attrs();
        let group = bridge::name_group_positions(attrs);
        assert_eq!(group.len(), 3);
        for &g in &group {
            let a = attrs[g];
            assert!(a == FIRST_NAME || a == MIDL_NAME || a == LAST_NAME);
        }
    }

    #[test]
    fn analysis_config_maps_projected_indices() {
        let attrs = vec![FIRST_NAME, MIDL_NAME, LAST_NAME, AGE];
        let cfg = bridge::nc_analysis_config(&attrs);
        assert_eq!(cfg.singleton.numeric_ranges, vec![(3, 17, 110)]);
        assert_eq!(cfg.singleton.alpha_attrs, vec![0, 1, 2]);
        assert_eq!(cfg.confusable_pairs.len(), 3);
    }
}
