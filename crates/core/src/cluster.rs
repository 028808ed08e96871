//! The aggregate-oriented cluster store.
//!
//! One document per voter (duplicate cluster), holding all of the
//! voter's records plus meta data (record fingerprints, per-snapshot
//! insert counters, version and snapshot-membership arrays). This is the
//! storage layout of Section 5, on top of the [`nc_docstore`] substrate.

use std::collections::{HashMap, HashSet};

use nc_docstore::collection::{Collection, DocId};
use nc_docstore::index::IndexKind;
use nc_docstore::value::{Document, Value};
use nc_votergen::schema::Row;
// (Value is used for array construction below.)

use crate::md5::Digest;
use crate::record::{self, DedupPolicy};

/// Outcome of importing one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOutcome {
    /// The row founded a new duplicate cluster (a new NCID).
    NewCluster,
    /// The row was added as a new record of an existing cluster.
    NewRecord,
    /// The row duplicated an existing record and was dropped.
    DuplicateDropped,
}

/// Side state per cluster kept outside the document for import speed.
#[derive(Debug, Default)]
struct ClusterState {
    /// Fingerprints of stored records, in record order.
    hashes: Vec<Digest>,
    /// Fast membership test over `hashes`.
    hash_set: HashSet<Digest>,
    /// Rows ever seen for this NCID (including dropped duplicates).
    rows_seen: u64,
    /// New records inserted per snapshot date.
    snapshot_counts: Vec<(String, u64)>,
    /// Version that introduced each record.
    first_version: Vec<u32>,
    /// Snapshot dates containing each record.
    record_snapshots: Vec<Vec<String>>,
}

/// The cluster store.
#[derive(Debug)]
pub struct ClusterStore {
    collection: Collection,
    ncid_to_doc: HashMap<String, DocId>,
    state: HashMap<DocId, ClusterState>,
    records_total: u64,
    rows_total: u64,
    max_version: u32,
    finalized: bool,
}

impl Default for ClusterStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ClusterStore {
    /// Create an empty store with an NCID index.
    pub fn new() -> Self {
        let mut collection = Collection::new("clusters");
        collection.create_index("ncid", IndexKind::Hash);
        ClusterStore {
            collection,
            ncid_to_doc: HashMap::new(),
            state: HashMap::new(),
            records_total: 0,
            rows_total: 0,
            max_version: 0,
            finalized: false,
        }
    }

    /// Import one snapshot row under a dedup policy.
    ///
    /// `snapshot_date` is the snapshot's publication date and `version`
    /// the dataset version currently being built (both recorded for
    /// reproducibility).
    pub fn import_row(
        &mut self,
        row: Row,
        policy: DedupPolicy,
        snapshot_date: &str,
        version: u32,
    ) -> RowOutcome {
        self.import_row_ref(&row, policy, snapshot_date, version)
    }

    /// [`ClusterStore::import_row`] over a borrowed row. The row itself
    /// is never copied: a dropped duplicate costs its fingerprint, and a
    /// kept row is read once to build its stored document.
    pub fn import_row_ref(
        &mut self,
        row: &Row,
        policy: DedupPolicy,
        snapshot_date: &str,
        version: u32,
    ) -> RowOutcome {
        self.rows_total += 1;
        // The fingerprint normalizes according to the policy itself, and
        // the NCID is trimmed explicitly.
        let fp = record::fingerprint(row, policy);
        let ncid = row.ncid().trim();

        if let Some(&doc_id) = self.ncid_to_doc.get(ncid) {
            let state = self.state.get_mut(&doc_id).expect("state exists");
            state.rows_seen += 1;
            match state.snapshot_counts.last_mut() {
                Some((d, _)) if d == snapshot_date => {}
                _ => state.snapshot_counts.push((snapshot_date.to_owned(), 0)),
            }
            if policy != DedupPolicy::None && state.hash_set.contains(&fp) {
                // Record the snapshot membership of the matching record.
                if let Some(idx) = state.hashes.iter().position(|h| *h == fp) {
                    let snaps = &mut state.record_snapshots[idx];
                    if snaps.last().map(String::as_str) != Some(snapshot_date) {
                        snaps.push(snapshot_date.to_owned());
                    }
                }
                // rows_seen and the membership arrays changed, so the
                // persisted meta must be rebuilt on the next finalize.
                self.finalized = false;
                return RowOutcome::DuplicateDropped;
            }
            // Append the record to the cluster document.
            let rec_doc = record::row_to_document(row, policy.trims());
            self.collection.update(doc_id, |doc| {
                doc.push_path("records", Value::Doc(rec_doc));
            });
            state.hashes.push(fp);
            state.hash_set.insert(fp);
            state.first_version.push(version);
            self.max_version = self.max_version.max(version);
            state.record_snapshots.push(vec![snapshot_date.to_owned()]);
            if let Some((d, n)) = state.snapshot_counts.last_mut() {
                if d == snapshot_date {
                    *n += 1;
                }
            }
            self.records_total += 1;
            self.finalized = false;
            RowOutcome::NewRecord
        } else {
            let rec_doc = record::row_to_document(row, policy.trims());
            let mut doc = Document::new();
            doc.set("ncid", ncid);
            doc.set("records", Value::Array(vec![Value::Doc(rec_doc)]));
            let doc_id = self.collection.insert(doc);
            self.ncid_to_doc.insert(ncid.to_owned(), doc_id);
            self.state.insert(
                doc_id,
                ClusterState {
                    hashes: vec![fp],
                    hash_set: HashSet::from([fp]),
                    rows_seen: 1,
                    snapshot_counts: vec![(snapshot_date.to_owned(), 1)],
                    first_version: vec![version],
                    record_snapshots: vec![vec![snapshot_date.to_owned()]],
                },
            );
            self.records_total += 1;
            self.max_version = self.max_version.max(version);
            self.finalized = false;
            RowOutcome::NewCluster
        }
    }

    /// Write all accumulated meta data into the cluster documents.
    /// Must be called before persisting or reading meta via documents.
    pub fn finalize(&mut self) {
        if self.finalized {
            return;
        }
        let ids: Vec<DocId> = self.ncid_to_doc.values().copied().collect();
        for doc_id in ids {
            let state = &self.state[&doc_id];
            let mut meta = Document::new();
            meta.set(
                "hashes",
                Value::Array(state.hashes.iter().map(|h| Value::from(h.to_hex())).collect()),
            );
            meta.set("rows_seen", state.rows_seen as i64);
            let mut counts = Document::new();
            for (d, n) in &state.snapshot_counts {
                counts.set(d.clone(), *n as i64);
            }
            meta.set("snapshot_counts", counts);
            meta.set(
                "record_first_version",
                Value::Array(state.first_version.iter().map(|&v| Value::from(v as i64)).collect()),
            );
            meta.set(
                "record_snapshots",
                Value::Array(
                    state
                        .record_snapshots
                        .iter()
                        .map(|snaps| {
                            Value::Array(snaps.iter().map(|s| Value::from(s.clone())).collect())
                        })
                        .collect(),
                ),
            );
            self.collection.update(doc_id, move |doc| {
                doc.set("meta", meta);
            });
        }
        self.finalized = true;
    }

    /// Number of duplicate clusters (= distinct NCIDs = objects).
    pub fn cluster_count(&self) -> usize {
        self.ncid_to_doc.len()
    }

    /// Number of stored records (after dedup).
    pub fn record_count(&self) -> u64 {
        self.records_total
    }

    /// Number of rows ever imported (before dedup).
    pub fn rows_imported(&self) -> u64 {
        self.rows_total
    }

    /// Iterate over `(ncid, doc_id)` pairs in document order.
    pub fn cluster_ids(&self) -> Vec<(String, DocId)> {
        let mut v: Vec<(String, DocId)> = self
            .ncid_to_doc
            .iter()
            .map(|(n, &d)| (n.clone(), d))
            .collect();
        v.sort_by_key(|(_, d)| *d);
        v
    }

    /// The document id of the cluster with this (trimmed) NCID. In a
    /// store filled by imports alone, ids count up from 0 in founding
    /// order with no gaps.
    pub fn doc_id(&self, ncid: &str) -> Option<DocId> {
        self.ncid_to_doc.get(ncid).copied()
    }

    /// The cluster document for an NCID.
    pub fn cluster_doc(&self, ncid: &str) -> Option<&Document> {
        self.ncid_to_doc
            .get(ncid)
            .and_then(|&id| self.collection.get(id))
    }

    /// The records of a cluster as dense rows.
    pub fn cluster_rows(&self, ncid: &str) -> Vec<Row> {
        let records = self
            .cluster_doc(ncid)
            .and_then(|doc| doc.get_array("records"))
            .unwrap_or_default();
        // Sized up front: a row is ~200 bytes inline, so the slack of a
        // grown `Vec` would outweigh a small cluster's rows.
        let mut rows = Vec::with_capacity(records.len());
        rows.extend(records.iter().filter_map(Value::as_doc).map(record::document_to_row));
        rows
    }

    /// Cluster sizes (record counts per cluster).
    pub fn cluster_sizes(&self) -> Vec<usize> {
        self.state.values().map(|s| s.hashes.len()).collect()
    }

    /// Rows ever seen per cluster (cluster sizes under `DedupPolicy::None`).
    pub fn cluster_rows_seen(&self) -> Vec<u64> {
        self.state.values().map(|s| s.rows_seen).collect()
    }

    /// The highest version stamped on any record in the store (`0` for
    /// an empty store). O(1): maintained on import and rebuilt on load.
    /// When this is ≤ a published version `v`, reconstructing `v` is
    /// equivalent to capturing the live store — the fast path
    /// [`crate::snapshot::StoreSnapshot::capture_version`] relies on.
    pub fn max_record_version(&self) -> u32 {
        self.max_version
    }

    /// The version that introduced each record of a cluster.
    pub fn record_versions(&self, ncid: &str) -> Option<&[u32]> {
        self.ncid_to_doc
            .get(ncid)
            .map(|id| self.state[id].first_version.as_slice())
    }

    /// The snapshot dates containing each record of a cluster.
    pub fn record_snapshots(&self, ncid: &str) -> Option<&[Vec<String>]> {
        self.ncid_to_doc
            .get(ncid)
            .map(|id| self.state[id].record_snapshots.as_slice())
    }

    /// Borrow the underlying collection (e.g. to run aggregation
    /// pipelines over the cluster documents).
    pub fn collection(&self) -> &Collection {
        &self.collection
    }

    /// A read-only query view of the underlying collection. Snapshot
    /// capture and the serving layer read through this so published
    /// cluster documents cannot be mutated by mistake.
    pub fn collection_view(&self) -> nc_docstore::collection::CollectionView<'_> {
        self.collection.view()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_votergen::schema::{AGE, FIRST_NAME, LAST_NAME, NCID, SNAPSHOT_DT};

    fn row(ncid: &str, last: &str, age: &str, snap: &str) -> Row {
        let mut r = Row::empty();
        r.set(NCID, ncid);
        r.set(LAST_NAME, last);
        r.set(FIRST_NAME, "PAT");
        r.set(AGE, age);
        r.set(SNAPSHOT_DT, snap);
        r
    }

    #[test]
    fn first_row_founds_cluster() {
        let mut store = ClusterStore::new();
        let out = store.import_row(row("A1", "SMITH", "40", "2008-11-04"), DedupPolicy::Trimmed, "2008-11-04", 1);
        assert_eq!(out, RowOutcome::NewCluster);
        assert_eq!(store.cluster_count(), 1);
        assert_eq!(store.record_count(), 1);
    }

    #[test]
    fn exact_duplicate_is_dropped_even_with_different_age() {
        let mut store = ClusterStore::new();
        store.import_row(row("A1", "SMITH", "40", "2008-11-04"), DedupPolicy::Trimmed, "2008-11-04", 1);
        let out = store.import_row(row("A1", "SMITH", "41", "2009-01-01"), DedupPolicy::Trimmed, "2009-01-01", 1);
        assert_eq!(out, RowOutcome::DuplicateDropped);
        assert_eq!(store.record_count(), 1);
        assert_eq!(store.rows_imported(), 2);
        // Snapshot membership of the surviving record grew.
        let snaps = store.record_snapshots("A1").unwrap();
        assert_eq!(snaps[0], vec!["2008-11-04", "2009-01-01"]);
    }

    #[test]
    fn changed_value_becomes_new_record() {
        let mut store = ClusterStore::new();
        store.import_row(row("A1", "SMITH", "40", "2008-11-04"), DedupPolicy::Trimmed, "2008-11-04", 1);
        let out = store.import_row(row("A1", "SMYTHE", "40", "2009-01-01"), DedupPolicy::Trimmed, "2009-01-01", 2);
        assert_eq!(out, RowOutcome::NewRecord);
        assert_eq!(store.record_count(), 2);
        assert_eq!(store.record_versions("A1").unwrap(), &[1, 2]);
    }

    #[test]
    fn policy_none_keeps_everything() {
        let mut store = ClusterStore::new();
        for i in 0..5 {
            store.import_row(
                row("A1", "SMITH", "40", &format!("200{i}-01-01")),
                DedupPolicy::None,
                &format!("200{i}-01-01"),
                1,
            );
        }
        assert_eq!(store.record_count(), 5);
        assert_eq!(store.cluster_count(), 1);
    }

    #[test]
    fn trimmed_policy_merges_whitespace_variants() {
        let mut store = ClusterStore::new();
        store.import_row(row("A1", "SMITH", "40", "s1"), DedupPolicy::Trimmed, "s1", 1);
        let out = store.import_row(row("A1", " SMITH ", "40", "s2"), DedupPolicy::Trimmed, "s2", 1);
        assert_eq!(out, RowOutcome::DuplicateDropped);

        let mut store = ClusterStore::new();
        store.import_row(row("A1", "SMITH", "40", "s1"), DedupPolicy::Exact, "s1", 1);
        let out = store.import_row(row("A1", " SMITH ", "40", "s2"), DedupPolicy::Exact, "s2", 1);
        assert_eq!(out, RowOutcome::NewRecord);
    }

    #[test]
    fn trimming_policies_store_trimmed_values() {
        let mut store = ClusterStore::new();
        store.import_row(row("A1", " SMITH ", "40", "s1"), DedupPolicy::Trimmed, "s1", 1);
        let rows = store.cluster_rows("A1");
        assert_eq!(rows[0].get(LAST_NAME), "SMITH");
    }

    #[test]
    fn finalize_writes_meta_into_documents() {
        let mut store = ClusterStore::new();
        store.import_row(row("A1", "SMITH", "40", "2008-11-04"), DedupPolicy::Trimmed, "2008-11-04", 1);
        store.import_row(row("A1", "SMITH", "41", "2009-01-01"), DedupPolicy::Trimmed, "2009-01-01", 1);
        store.import_row(row("A1", "SMYTHE", "41", "2009-01-01"), DedupPolicy::Trimmed, "2009-01-01", 2);
        store.finalize();
        let doc = store.cluster_doc("A1").unwrap();
        assert_eq!(doc.get_i64("meta.rows_seen"), Some(3));
        assert_eq!(doc.get_array("meta.hashes").unwrap().len(), 2);
        assert_eq!(doc.get_i64("meta.snapshot_counts.2008-11-04"), Some(1));
        assert_eq!(doc.get_i64("meta.snapshot_counts.2009-01-01"), Some(1));
        let versions = doc.get_array("meta.record_first_version").unwrap();
        assert_eq!(versions.len(), 2);
        assert_eq!(versions[1].as_i64(), Some(2));
    }

    #[test]
    fn cluster_rows_round_trip() {
        let mut store = ClusterStore::new();
        store.import_row(row("A1", "SMITH", "40", "s1"), DedupPolicy::None, "s1", 1);
        store.import_row(row("A2", "JONES", "50", "s1"), DedupPolicy::None, "s1", 1);
        let rows = store.cluster_rows("A1");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(LAST_NAME), "SMITH");
        assert!(store.cluster_rows("NOPE").is_empty());
        assert_eq!(store.cluster_ids().len(), 2);
    }

    #[test]
    fn sizes_and_rows_seen() {
        let mut store = ClusterStore::new();
        store.import_row(row("A1", "SMITH", "40", "s1"), DedupPolicy::Trimmed, "s1", 1);
        store.import_row(row("A1", "SMITH", "40", "s2"), DedupPolicy::Trimmed, "s2", 1);
        store.import_row(row("A1", "SMYTHE", "40", "s3"), DedupPolicy::Trimmed, "s3", 1);
        let mut sizes = store.cluster_sizes();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2]);
        assert_eq!(store.cluster_rows_seen(), vec![3]);
    }
}

#[cfg(test)]
mod review_repro {
    use super::*;
    use crate::record::DedupPolicy;
    use nc_votergen::schema::Row;

    fn row(ncid: &str, last: &str, age: &str, date: &str) -> Row {
        let mut r = Row::empty();
        r.set(nc_votergen::schema::NCID, ncid);
        r.set(nc_votergen::schema::attr_id("last_name").unwrap(), last);
        r.set(nc_votergen::schema::attr_id("age").unwrap(), age);
        let _ = date;
        r
    }

    #[test]
    fn duplicate_only_snapshot_after_finalize_leaves_meta_stale() {
        let mut store = ClusterStore::new();
        store.import_row(row("A1", "SMITH", "40", "s1"), DedupPolicy::Trimmed, "s1", 1);
        store.finalize();
        // Snapshot 2: same row again -> DuplicateDropped only.
        let out = store.import_row(row("A1", "SMITH", "40", "s2"), DedupPolicy::Trimmed, "s2", 1);
        assert_eq!(out, RowOutcome::DuplicateDropped);
        // In-memory state saw snapshot s2...
        assert_eq!(store.record_snapshots("A1").unwrap()[0], vec!["s1".to_string(), "s2".to_string()]);
        store.finalize();
        let doc = store.cluster_doc("A1").unwrap();
        // ...but the persisted meta must too (`VersionManager::reconstruct` reads it).
        assert_eq!(doc.get_i64("meta.rows_seen"), Some(2), "meta.rows_seen is stale");
        let snaps = doc.get_array("meta.record_snapshots").unwrap();
        assert_eq!(snaps[0].as_array().unwrap().len(), 2, "meta.record_snapshots is stale");
    }
}
