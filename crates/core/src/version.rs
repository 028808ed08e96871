//! Versioning and reproducibility (Sections 5.1–5.2).
//!
//! The test dataset grows monotonically: no record is ever removed, so
//! tagging every record with the first version that contained it makes
//! every published version reconstructible by filtering. Users may also
//! restrict evaluation to an arbitrary subset of snapshots using the
//! per-record snapshot-membership arrays.

use std::collections::HashSet;

use nc_votergen::schema::Row;

use crate::cluster::ClusterStore;
use crate::import::ImportStats;

/// Metadata of one published dataset version.
#[derive(Debug, Clone, PartialEq)]
pub struct VersionInfo {
    /// Version number (1-based, monotonically increasing).
    pub number: u32,
    /// Snapshot dates imported by this version.
    pub snapshots: Vec<String>,
    /// Records in the dataset after publishing this version.
    pub records_total: u64,
    /// Clusters in the dataset after publishing this version.
    pub clusters_total: u64,
}

/// Tracks published versions of a growing test dataset.
#[derive(Debug, Clone, Default)]
pub struct VersionManager {
    versions: Vec<VersionInfo>,
}

impl VersionManager {
    /// Create with no published versions.
    pub fn new() -> Self {
        Self::default()
    }

    /// The version number to tag records of the *next* import with.
    pub fn next_version(&self) -> u32 {
        self.versions.len() as u32 + 1
    }

    /// The most recently published version, if any.
    pub fn current(&self) -> Option<&VersionInfo> {
        self.versions.last()
    }

    /// All published versions in order.
    pub fn history(&self) -> &[VersionInfo] {
        &self.versions
    }

    /// Publish a new version after importing `imports` into `store`.
    ///
    /// A version can also be published with no new snapshots ("new
    /// statistics are required" in Figure 2) — pass an empty slice.
    pub fn publish(&mut self, store: &ClusterStore, imports: &[ImportStats]) -> &VersionInfo {
        let info = VersionInfo {
            number: self.next_version(),
            snapshots: imports.iter().map(|s| s.date.clone()).collect(),
            records_total: store.record_count(),
            clusters_total: store.cluster_count() as u64,
        };
        self.versions.push(info);
        self.versions.last().expect("just pushed")
    }

    /// Reconstruct a previous version: clusters restricted to records
    /// whose first containing version is ≤ `version`. Clusters with no
    /// qualifying record are omitted.
    pub fn reconstruct(&self, store: &ClusterStore, version: u32) -> Vec<(String, Vec<Row>)> {
        let mut out = Vec::new();
        for (ncid, rows) in store.iter_clusters() {
            let versions = store
                .record_versions(ncid)
                .expect("cluster has version info");
            // Clusters whose records all qualify — every cluster when
            // reconstructing the current version — are copied whole,
            // into an exactly sized `Vec`.
            let kept: Vec<Row> = if versions.iter().all(|&v| v <= version) {
                rows.to_vec()
            } else {
                rows.iter()
                    .zip(versions)
                    .filter(|(_, &v)| v <= version)
                    .map(|(r, _)| r.clone())
                    .collect()
            };
            if !kept.is_empty() {
                out.push((ncid.to_owned(), kept));
            }
        }
        out
    }

    /// Restrict the dataset to records contained in at least one of the
    /// given snapshots (Section 5.1.2: "limit their evaluation to an
    /// arbitrary subset of snapshots").
    pub fn restrict_to_snapshots(
        store: &ClusterStore,
        snapshots: &HashSet<String>,
    ) -> Vec<(String, Vec<Row>)> {
        let mut out = Vec::new();
        for (ncid, rows) in store.iter_clusters() {
            let membership = store
                .record_snapshots(ncid)
                .expect("cluster has snapshot info");
            let kept: Vec<Row> = rows
                .iter()
                .zip(&membership)
                .filter(|(_, snaps)| snaps.iter().any(|&s| snapshots.contains(s)))
                .map(|(r, _)| r.clone())
                .collect();
            if !kept.is_empty() {
                out.push((ncid.to_owned(), kept));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::DedupPolicy;
    use nc_votergen::schema::{LAST_NAME, NCID, SNAPSHOT_DT};

    fn row(ncid: &str, last: &str, snap: &str) -> Row {
        let mut r = Row::empty();
        r.set(NCID, ncid);
        r.set(LAST_NAME, last);
        r.set(SNAPSHOT_DT, snap);
        r
    }

    fn import(store: &mut ClusterStore, ncid: &str, last: &str, snap: &str, version: u32) {
        store.import_row(row(ncid, last, snap), DedupPolicy::Trimmed, snap, version);
    }

    #[test]
    fn versions_are_monotone() {
        let mut vm = VersionManager::new();
        let store = ClusterStore::new();
        assert_eq!(vm.next_version(), 1);
        vm.publish(&store, &[]);
        assert_eq!(vm.next_version(), 2);
        assert_eq!(vm.current().unwrap().number, 1);
        assert_eq!(vm.history().len(), 1);
    }

    #[test]
    fn publish_captures_totals_and_snapshots() {
        let mut vm = VersionManager::new();
        let mut store = ClusterStore::new();
        import(&mut store, "A1", "SMITH", "2008-11-04", 1);
        import(&mut store, "A2", "JONES", "2008-11-04", 1);
        let stats = ImportStats {
            date: "2008-11-04".into(),
            total_rows: 2,
            new_records: 2,
            new_clusters: 2,
            quarantined: 0,
        };
        let info = vm.publish(&store, std::slice::from_ref(&stats));
        assert_eq!(info.records_total, 2);
        assert_eq!(info.clusters_total, 2);
        assert_eq!(info.snapshots, vec!["2008-11-04"]);
    }

    #[test]
    fn reconstruct_filters_by_first_version() {
        let mut vm = VersionManager::new();
        let mut store = ClusterStore::new();
        // Version 1: two clusters.
        import(&mut store, "A1", "SMITH", "2008-11-04", 1);
        import(&mut store, "A2", "JONES", "2008-11-04", 1);
        vm.publish(&store, &[]);
        // Version 2: a new record and a new cluster.
        import(&mut store, "A1", "SMYTHE", "2009-01-01", 2);
        import(&mut store, "A3", "DAVIS", "2009-01-01", 2);
        vm.publish(&store, &[]);

        let v1 = vm.reconstruct(&store, 1);
        assert_eq!(v1.len(), 2);
        let a1 = v1.iter().find(|(n, _)| n == "A1").unwrap();
        assert_eq!(a1.1.len(), 1);
        assert_eq!(a1.1[0].get(LAST_NAME), "SMITH");

        let v2 = vm.reconstruct(&store, 2);
        assert_eq!(v2.len(), 3);
        let a1 = v2.iter().find(|(n, _)| n == "A1").unwrap();
        assert_eq!(a1.1.len(), 2);
    }

    #[test]
    fn current_version_is_superset_of_past_versions() {
        let mut vm = VersionManager::new();
        let mut store = ClusterStore::new();
        import(&mut store, "A1", "SMITH", "s1", 1);
        vm.publish(&store, &[]);
        import(&mut store, "A1", "SMYTHE", "s2", 2);
        import(&mut store, "A2", "JONES", "s2", 2);
        vm.publish(&store, &[]);

        let v1: u64 = vm.reconstruct(&store, 1).iter().map(|(_, r)| r.len() as u64).sum();
        let v2: u64 = vm.reconstruct(&store, 2).iter().map(|(_, r)| r.len() as u64).sum();
        assert!(v1 <= v2);
        assert_eq!(v2, store.record_count());
    }

    #[test]
    fn snapshot_restriction() {
        let mut store = ClusterStore::new();
        import(&mut store, "A1", "SMITH", "s1", 1);
        // Same record appears in s2 → membership recorded, not a new record.
        import(&mut store, "A1", "SMITH", "s2", 1);
        import(&mut store, "A1", "SMYTHE", "s3", 1);
        import(&mut store, "A2", "JONES", "s3", 1);

        let only_s1: HashSet<String> = ["s1".to_owned()].into();
        let got = VersionManager::restrict_to_snapshots(&store, &only_s1);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1.len(), 1);
        assert_eq!(got[0].1[0].get(LAST_NAME), "SMITH");

        let s2_s3: HashSet<String> = ["s2".to_owned(), "s3".to_owned()].into();
        let got = VersionManager::restrict_to_snapshots(&store, &s2_s3);
        let a1 = got.iter().find(|(n, _)| n == "A1").unwrap();
        assert_eq!(a1.1.len(), 2, "SMITH appears in s2, SMYTHE in s3");
    }
}
