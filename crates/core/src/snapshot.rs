//! Immutable, version-pinned snapshots of a cluster store.
//!
//! The serving layer (`nc-serve`) carves customized datasets out of a
//! *consistent* view of the store while new snapshots keep being
//! imported underneath. A [`StoreSnapshot`] is that view: the clusters
//! of one published [`crate::version`] identifier, fully materialized
//! in [`ClusterStore::cluster_ids`] order, with no reference back into
//! the live store. Because the order matches the live store's, running
//! [`StoreSnapshot::customize`] against a current-version snapshot is
//! bit-identical to [`crate::customize::customize`] on the store
//! itself (see `crates/core/tests/customize_determinism.rs`).

use nc_similarity::{with_thread_scratch, Scratch};
use nc_votergen::schema::{Row, SNAPSHOT_DT};

use crate::cluster::ClusterStore;
use crate::customize::{customize_clusters, CustomDataset, CustomizeParams};
use crate::heterogeneity::{AttributeWeights, HeterogeneityScorer, Scope};
use crate::plausibility::PlausibilityScorer;
use crate::version::VersionManager;

/// The scored, queryable facts of one cluster: everything the
/// carve-by-query layer (nc-query) predicates over that is *derived*
/// rather than stored. Computed from the cluster's rows plus the
/// snapshot-scoped scorers — heterogeneity depends on the snapshot-wide
/// entropy weights, so facts are only comparable within one snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterFacts {
    /// The cluster's NCID.
    pub ncid: String,
    /// Number of records in the cluster.
    pub size: usize,
    /// Entropy-weighted heterogeneity ([`HeterogeneityScorer::cluster`]).
    pub heterogeneity: f64,
    /// Duplicate plausibility ([`PlausibilityScorer::cluster`]; minimum
    /// pairwise score, 1.0 for singletons).
    pub plausibility: f64,
    /// Lexicographically smallest non-empty `snapshot_dt` of the rows
    /// (ISO dates, so lexicographic = chronological); empty when no row
    /// carries a snapshot date.
    pub first_snapshot: String,
    /// Lexicographically largest non-empty `snapshot_dt`.
    pub last_snapshot: String,
}

impl ClusterFacts {
    /// Compute facts for one cluster.
    pub fn compute(
        ncid: &str,
        rows: &[Row],
        heterogeneity: &HeterogeneityScorer,
        plausibility: &PlausibilityScorer,
    ) -> Self {
        with_thread_scratch(|s| Self::compute_with(s, ncid, rows, heterogeneity, plausibility))
    }

    /// [`ClusterFacts::compute`] with caller-provided scratch buffers;
    /// bit-identical results.
    pub fn compute_with(
        scratch: &mut Scratch,
        ncid: &str,
        rows: &[Row],
        heterogeneity: &HeterogeneityScorer,
        plausibility: &PlausibilityScorer,
    ) -> Self {
        let mut first = "";
        let mut last = "";
        for row in rows {
            let dt = row.get(SNAPSHOT_DT).trim();
            if dt.is_empty() {
                continue;
            }
            if first.is_empty() || dt < first {
                first = dt;
            }
            if dt > last {
                last = dt;
            }
        }
        ClusterFacts {
            ncid: ncid.to_owned(),
            size: rows.len(),
            heterogeneity: heterogeneity.cluster_with(scratch, rows),
            plausibility: plausibility.cluster_with(scratch, rows),
            first_snapshot: first.to_owned(),
            last_snapshot: last.to_owned(),
        }
    }
}

/// An immutable copy of a cluster store's records, pinned to a dataset
/// version number.
#[derive(Debug, Clone)]
pub struct StoreSnapshot {
    version: u32,
    clusters: Vec<(String, Vec<Row>)>,
    records: u64,
}

impl StoreSnapshot {
    /// Capture the *current* contents of a store under the given
    /// version identifier (typically `versions.current().number`).
    ///
    /// Clusters are materialized in [`ClusterStore::cluster_ids`]
    /// order, which is what makes snapshot-based customization
    /// bit-identical to the store-based path.
    pub fn capture(store: &ClusterStore, version: u32) -> Self {
        let clusters = store
            .iter_clusters()
            .map(|(ncid, rows)| (ncid.to_owned(), rows.to_vec()))
            .collect();
        Self::from_clusters(version, clusters)
    }

    /// Build a snapshot from already-materialized clusters.
    ///
    /// The caller owns the ordering contract: `clusters` must be in the
    /// order [`ClusterStore::cluster_ids`] would yield for the
    /// equivalent store, or customization loses its bit-identity
    /// guarantee. `nc-shard` uses this for its publishes, where the
    /// shards' clusters are merged back into global founding order.
    pub fn from_clusters(version: u32, clusters: Vec<(String, Vec<Row>)>) -> Self {
        let records = clusters.iter().map(|(_, r)| r.len() as u64).sum();
        StoreSnapshot {
            version,
            clusters,
            records,
        }
    }

    /// Capture a *previously published* version by reconstruction:
    /// clusters restricted to records whose first containing version is
    /// ≤ `version` (see [`VersionManager::reconstruct`]). Clusters with
    /// no qualifying record are omitted, exactly as a user downloading
    /// that version would have seen the dataset.
    ///
    /// Returns an error when `version` has never been published.
    pub fn capture_version(
        store: &ClusterStore,
        versions: &VersionManager,
        version: u32,
    ) -> Result<Self, String> {
        let published = versions.history().len() as u32;
        if version == 0 || version > published {
            return Err(format!(
                "version {version} not published (history has {published})"
            ));
        }
        // Fast path: when the requested version is the current one and
        // the store holds no rows stamped with a yet-unpublished
        // version, reconstruction would keep every record of every
        // cluster — so reuse the plain capture path and skip the
        // per-cluster version bookkeeping (lookups and per-record
        // scans) entirely. `max_record_version` makes the precondition
        // O(1); benched in `nc-bench benches/version.rs`, which also
        // counts allocator calls on both paths.
        if version == published && store.max_record_version() <= version {
            return Ok(Self::capture(store, version));
        }
        Ok(Self::from_clusters(version, versions.reconstruct(store, version)))
    }

    /// The pinned version identifier.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The snapshot's clusters, in capture order.
    pub fn clusters(&self) -> &[(String, Vec<Row>)] {
        &self.clusters
    }

    /// Number of clusters in the snapshot.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Number of records in the snapshot.
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// Entropy-weighted heterogeneity scorer for this snapshot, built
    /// the way the paper does: attribute weights from one record per
    /// cluster so duplicates do not distort the uniqueness estimate.
    /// Deterministic for a given snapshot.
    pub fn entropy_scorer(&self, scope: Scope) -> HeterogeneityScorer {
        let firsts = self.clusters.iter().filter_map(|(_, rows)| rows.first());
        HeterogeneityScorer::new(AttributeWeights::from_rows(scope, firsts))
    }

    /// Scored facts for the cluster at `index` (capture order). `None`
    /// past the end. The caller provides the scorers so repeated calls
    /// share the snapshot-scoped entropy weights; use
    /// [`StoreSnapshot::entropy_scorer`] to build them.
    pub fn cluster_facts(
        &self,
        index: usize,
        heterogeneity: &HeterogeneityScorer,
        plausibility: &PlausibilityScorer,
    ) -> Option<ClusterFacts> {
        let (ncid, rows) = self.clusters.get(index)?;
        Some(ClusterFacts::compute(ncid, rows, heterogeneity, plausibility))
    }

    /// Run the customization recipe against this snapshot (borrowed —
    /// the snapshot is never consumed, so concurrent carve requests can
    /// share one snapshot behind an `Arc`).
    pub fn customize(
        &self,
        scorer: &HeterogeneityScorer,
        params: &CustomizeParams,
    ) -> CustomDataset {
        customize_clusters(&self.clusters, scorer, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::customize::customize;
    use crate::import::ImportStats;
    use crate::record::DedupPolicy;
    use nc_votergen::schema::{FIRST_NAME, LAST_NAME, MIDL_NAME, NCID};

    fn import(store: &mut ClusterStore, ncid: &str, first: &str, midl: &str, last: &str, snap: &str, version: u32) {
        let mut r = Row::empty();
        r.set(NCID, ncid);
        r.set(FIRST_NAME, first);
        r.set(MIDL_NAME, midl);
        r.set(LAST_NAME, last);
        store.import_row(r, DedupPolicy::Trimmed, snap, version);
    }

    fn stats(date: &str) -> ImportStats {
        ImportStats {
            date: date.into(),
            total_rows: 0,
            new_records: 0,
            new_clusters: 0,
            quarantined: 0,
        }
    }

    fn two_version_store() -> (ClusterStore, VersionManager) {
        let mut store = ClusterStore::new();
        let mut versions = VersionManager::new();
        import(&mut store, "H1", "MARY", "ANN", "SMITH", "s1", 1);
        import(&mut store, "H1", "MARY", "ANN", "SMYTH", "s1", 1);
        import(&mut store, "X1", "CARL", "RAY", "OXENDINE", "s1", 1);
        versions.publish(&store, std::slice::from_ref(&stats("s1")));
        import(&mut store, "H1", "MARY", "ANN", "SMITHE", "s2", 2);
        import(&mut store, "N1", "PAT", "", "JONES", "s2", 2);
        versions.publish(&store, std::slice::from_ref(&stats("s2")));
        (store, versions)
    }

    #[test]
    fn capture_matches_store_contents() {
        let (store, versions) = two_version_store();
        let snap = StoreSnapshot::capture(&store, versions.current().unwrap().number);
        assert_eq!(snap.version(), 2);
        assert_eq!(snap.cluster_count(), store.cluster_count());
        assert_eq!(snap.record_count(), store.record_count());
        // Capture order is cluster_ids order.
        let ids: Vec<String> = store.cluster_ids().into_iter().map(|(n, _)| n).collect();
        let snap_ids: Vec<String> = snap.clusters().iter().map(|(n, _)| n.clone()).collect();
        assert_eq!(ids, snap_ids);
    }

    #[test]
    fn capture_version_reconstructs_past() {
        let (store, versions) = two_version_store();
        let v1 = StoreSnapshot::capture_version(&store, &versions, 1).unwrap();
        assert_eq!(v1.version(), 1);
        assert_eq!(v1.cluster_count(), 2, "N1 did not exist at version 1");
        assert_eq!(v1.record_count(), 3);
        let v2 = StoreSnapshot::capture_version(&store, &versions, 2).unwrap();
        assert_eq!(v2.record_count(), store.record_count());
    }

    #[test]
    fn capture_version_fast_path_matches_reconstruction() {
        let (store, versions) = two_version_store();
        // The fast path fires at the current version (no unpublished
        // rows in this store); its output must be byte-identical to an
        // explicit reconstruction of the same version.
        let fast = StoreSnapshot::capture_version(&store, &versions, 2).unwrap();
        let slow = StoreSnapshot::from_clusters(2, versions.reconstruct(&store, 2));
        assert_eq!(fast.clusters(), slow.clusters());
        assert_eq!(fast.record_count(), slow.record_count());

        // With unpublished rows in the store the fast path must NOT
        // fire: version 2 may no longer include the version-3 row.
        let (mut store, versions) = two_version_store();
        import(&mut store, "H1", "MARY", "ANN", "SMIJTH", "s3", 3);
        let v2 = StoreSnapshot::capture_version(&store, &versions, 2).unwrap();
        assert_eq!(v2.clusters(), slow.clusters(), "unpublished row excluded");
    }

    #[test]
    fn capture_version_rejects_unpublished() {
        let (store, versions) = two_version_store();
        assert!(StoreSnapshot::capture_version(&store, &versions, 0).is_err());
        assert!(StoreSnapshot::capture_version(&store, &versions, 3).is_err());
    }

    #[test]
    fn snapshot_customize_is_bit_identical_to_store_customize() {
        let (store, versions) = two_version_store();
        let snap = StoreSnapshot::capture(&store, versions.current().unwrap().number);
        let scorer = snap.entropy_scorer(Scope::Person);
        for seed in [1u64, 5, 9] {
            let params = CustomizeParams {
                h_low: 0.0,
                h_high: 1.0,
                sample_clusters: 3,
                output_clusters: 3,
                seed,
            };
            let direct = customize(&store, &scorer, &params);
            let snapped = snap.customize(&scorer, &params);
            assert_eq!(direct.clusters.len(), snapped.clusters.len());
            for (a, b) in direct.clusters.iter().zip(&snapped.clusters) {
                assert_eq!(a.ncid, b.ncid);
                let ta: Vec<String> = a.records.iter().map(Row::to_tsv).collect();
                let tb: Vec<String> = b.records.iter().map(Row::to_tsv).collect();
                assert_eq!(ta, tb);
            }
        }
    }
}
