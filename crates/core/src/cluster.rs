//! The aggregate-oriented cluster store.
//!
//! One aggregate per voter (duplicate cluster): the voter's records as
//! packed [`Row`]s plus meta data (record fingerprints, per-snapshot
//! insert counters, version and snapshot-membership arrays). This is the
//! storage layout of Section 5. The nested cluster *document* of that
//! section is a view derived on demand ([`ClusterStore::cluster_doc`],
//! [`ClusterStore::to_collection`]), so it can never be stale and costs
//! no memory while a store is being built or served.

use std::borrow::Cow;
use std::collections::HashMap;

use nc_docstore::collection::{Collection, DocId};
use nc_docstore::value::{Document, Value};
use nc_votergen::schema::Row;

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

/// What importing a row will do, decided before anything changes:
/// [`ClusterStore::decide`] makes the decision, [`ClusterStore::apply`]
/// carries it out. A decision holds for the store state it was made
/// against and no other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowDecision {
    /// The row repeats record `record` of the cluster at position
    /// `cluster` and will be dropped.
    Duplicate {
        /// Position ([`DocId`]) of the row's cluster.
        cluster: usize,
        /// Index of the repeated record within the cluster.
        record: usize,
    },
    /// The row will be kept under `fingerprint`: as a new record of
    /// the cluster at `cluster`, or founding one.
    Keep {
        /// Position of the row's cluster, if its NCID has one.
        cluster: Option<usize>,
        /// The row's dedup fingerprint.
        fingerprint: Digest,
    },
}

/// The form of a row the store keeps: trimmed when the policy trims. A
/// borrowed row is copied once; an owned one is trimmed in place.
fn stored_row(row: Cow<'_, Row>, policy: DedupPolicy) -> Row {
    let mut stored = row.into_owned();
    if policy.trims() {
        record::trim_row(&mut stored);
    }
    stored
}

/// Position of a snapshot date in [`ClusterStore::dates`]. A date is
/// held once per store, not once per record that a snapshot contains.
type DateId = u32;

/// One duplicate cluster. The four per-record vectors are
/// index-parallel.
#[derive(Debug)]
struct Cluster {
    /// Stored records in insertion order, trimmed when the policy that
    /// imported them trims. Never empty.
    rows: Vec<Row>,
    /// Fingerprint of each record.
    hashes: Vec<Digest>,
    /// Version that introduced each record.
    first_version: Vec<u32>,
    /// Snapshots containing each record.
    record_snapshots: Vec<Vec<DateId>>,
    /// Rows ever seen for this NCID (including dropped duplicates).
    rows_seen: u64,
    /// New records inserted per snapshot.
    snapshot_counts: Vec<(DateId, u64)>,
}

impl Cluster {
    /// The cluster's key. Every row of a cluster trims to the same
    /// NCID, so the first one carries it.
    fn ncid(&self) -> &str {
        self.rows[0].ncid().trim()
    }

    /// The insert counter of the snapshot being imported, opened at 0
    /// by the cluster's first row of that snapshot.
    fn count_in(&mut self, date: DateId) -> &mut (DateId, u64) {
        if self.snapshot_counts.last().map(|(d, _)| *d) != Some(date) {
            self.snapshot_counts.push((date, 0));
        }
        self.snapshot_counts.last_mut().expect("pushed above")
    }
}

/// The cluster store.
#[derive(Debug, Default)]
pub struct ClusterStore {
    /// Clusters in founding order: a cluster's [`DocId`] is its
    /// position.
    clusters: Vec<Cluster>,
    /// Trimmed NCID → position in `clusters`.
    by_ncid: HashMap<String, usize>,
    /// Snapshot dates in first-seen order.
    dates: Vec<String>,
    /// The one policy every row so far was imported under; `None` in an
    /// empty store and once two have been mixed. A stored row says what
    /// its fingerprint covered only under the policy that stored it, so
    /// [`ClusterStore::decide`] compares values under that policy alone.
    policy: Option<DedupPolicy>,
    records_total: u64,
    rows_total: u64,
    max_version: u32,
}

impl ClusterStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Import one snapshot row under a dedup policy.
    ///
    /// `snapshot_date` is the snapshot's publication date and `version`
    /// the dataset version currently being built (both recorded for
    /// reproducibility). A kept row moves into the store.
    pub fn import_row(
        &mut self,
        row: Row,
        policy: DedupPolicy,
        snapshot_date: &str,
        version: u32,
    ) -> RowOutcome {
        let decision = self.decide(&row, policy);
        self.apply(decision, Cow::Owned(row), policy, snapshot_date, version)
    }

    /// [`ClusterStore::import_row`] over a borrowed row: a dropped
    /// duplicate costs a comparison with its cluster's records, and a
    /// kept row is copied once, into the store.
    pub fn import_row_ref(
        &mut self,
        row: &Row,
        policy: DedupPolicy,
        snapshot_date: &str,
        version: u32,
    ) -> RowOutcome {
        let decision = self.decide(row, policy);
        self.apply(decision, Cow::Borrowed(row), policy, snapshot_date, version)
    }

    /// Decide what importing `row` under `policy` will do.
    ///
    /// A row whose hashed values equal a stored record's repeats it —
    /// equal values are equal hash input, and a cluster's fingerprints
    /// are distinct, so that record is the one whose fingerprint the
    /// row's would match. Only a row that differs from every record of
    /// its cluster is fingerprinted and looked up in the cluster's
    /// fingerprints (so a hash collision still drops).
    pub fn decide(&self, row: &Row, policy: DedupPolicy) -> RowDecision {
        let cluster = self.by_ncid.get(row.ncid().trim()).copied();
        // The records the row may repeat: none under `DedupPolicy::None`.
        let stored = cluster
            .filter(|_| policy != DedupPolicy::None)
            .map(|pos| (pos, &self.clusters[pos]));
        if let Some((pos, stored)) = stored.filter(|_| self.policy == Some(policy)) {
            // The record a register repeats is most often its latest.
            let repeated = stored.rows.iter().rposition(|kept| record::repeats(row, kept, policy));
            if let Some(record) = repeated {
                return RowDecision::Duplicate { cluster: pos, record };
            }
        }
        // The fingerprint normalizes according to the policy itself.
        let fingerprint = record::fingerprint(row, policy);
        if let Some((pos, stored)) = stored {
            if let Some(record) = stored.hashes.iter().position(|h| *h == fingerprint) {
                return RowDecision::Duplicate { cluster: pos, record };
            }
        }
        RowDecision::Keep { cluster, fingerprint }
    }

    /// Carry out a decision [`ClusterStore::decide`] made about `row`
    /// against the store as it is now.
    pub fn apply(
        &mut self,
        decision: RowDecision,
        row: Cow<'_, Row>,
        policy: DedupPolicy,
        snapshot_date: &str,
        version: u32,
    ) -> RowOutcome {
        let date = self.date_id(snapshot_date);
        if self.policy != Some(policy) {
            self.policy = (self.rows_total == 0).then_some(policy);
        }
        let (cluster, fingerprint) = match decision {
            RowDecision::Duplicate { cluster, record } => {
                self.note_duplicate(cluster, record, date);
                return RowOutcome::DuplicateDropped;
            }
            RowDecision::Keep { cluster, fingerprint } => (cluster, fingerprint),
        };
        self.rows_total += 1;
        self.records_total += 1;
        self.max_version = self.max_version.max(version);
        let Some(pos) = cluster else {
            // The NCID is trimmed explicitly, whatever the policy.
            self.by_ncid.insert(row.ncid().trim().to_owned(), self.clusters.len());
            self.clusters.push(Cluster {
                rows: vec![stored_row(row, policy)],
                hashes: vec![fingerprint],
                first_version: vec![version],
                record_snapshots: vec![vec![date]],
                rows_seen: 1,
                snapshot_counts: vec![(date, 1)],
            });
            return RowOutcome::NewCluster;
        };
        let cluster = &mut self.clusters[pos];
        cluster.rows_seen += 1;
        // A row is ~200 bytes inline and most clusters stay small, so
        // the slack of a doubling `Vec` would cost more than the rows.
        cluster.rows.reserve_exact(1);
        cluster.rows.push(stored_row(row, policy));
        cluster.hashes.push(fingerprint);
        cluster.first_version.push(version);
        cluster.record_snapshots.push(vec![date]);
        cluster.count_in(date).1 += 1;
        RowOutcome::NewRecord
    }

    /// Re-apply a logged duplicate decision: the row that repeated
    /// record `record` of cluster `ncid` in snapshot `snapshot_date`
    /// left nothing but bookkeeping, so that is all there is to redo.
    /// `false`, with the store untouched, when the store has no such
    /// cluster or record — the decision was made against another store.
    pub fn replay_duplicate(&mut self, ncid: &str, record: usize, snapshot_date: &str) -> bool {
        let Some(&pos) = self.by_ncid.get(ncid) else {
            return false;
        };
        if record >= self.clusters[pos].rows.len() {
            return false;
        }
        let date = self.date_id(snapshot_date);
        self.note_duplicate(pos, record, date);
        true
    }

    /// The bookkeeping of a dropped duplicate: the row counts as seen,
    /// and the record it repeats is a member of the snapshot.
    fn note_duplicate(&mut self, cluster: usize, record: usize, date: DateId) {
        self.rows_total += 1;
        let cluster = &mut self.clusters[cluster];
        cluster.rows_seen += 1;
        cluster.count_in(date);
        let snaps = &mut cluster.record_snapshots[record];
        if snaps.last() != Some(&date) {
            snaps.push(date);
        }
    }

    /// Intern a snapshot date. A snapshot's rows arrive together, so
    /// the date is nearly always the one interned last.
    fn date_id(&mut self, date: &str) -> DateId {
        let pos = self.dates.iter().rposition(|d| d == date).unwrap_or_else(|| {
            self.dates.push(date.to_owned());
            self.dates.len() - 1
        });
        DateId::try_from(pos).expect("fewer than 2^32 snapshots")
    }

    fn date(&self, id: DateId) -> &str {
        &self.dates[id as usize]
    }

    /// The nested document view of the cluster at `pos`: `_id` and
    /// NCID, one sparse sub-document per record, and the meta data.
    fn document(&self, pos: usize) -> Document {
        let cluster = &self.clusters[pos];
        let mut meta = Document::new();
        meta.set(
            "hashes",
            Value::Array(cluster.hashes.iter().map(|h| Value::from(h.to_hex())).collect()),
        );
        meta.set("rows_seen", cluster.rows_seen as i64);
        let mut counts = Document::new();
        for &(d, n) in &cluster.snapshot_counts {
            counts.set(self.date(d), n as i64);
        }
        meta.set("snapshot_counts", counts);
        meta.set(
            "record_first_version",
            Value::Array(cluster.first_version.iter().map(|&v| Value::from(v as i64)).collect()),
        );
        meta.set(
            "record_snapshots",
            Value::Array(
                cluster
                    .record_snapshots
                    .iter()
                    .map(|snaps| {
                        Value::Array(snaps.iter().map(|&d| Value::from(self.date(d))).collect())
                    })
                    .collect(),
            ),
        );
        let mut doc = Document::new();
        doc.set("_id", pos as i64);
        doc.set("ncid", cluster.ncid());
        doc.set(
            "records",
            Value::Array(cluster.rows.iter().map(|r| Value::Doc(record::row_to_document(r))).collect()),
        );
        doc.set("meta", meta);
        doc
    }

    /// Number of duplicate clusters (= distinct NCIDs = objects).
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Number of stored records (after dedup).
    pub fn record_count(&self) -> u64 {
        self.records_total
    }

    /// Number of rows ever imported (before dedup).
    pub fn rows_imported(&self) -> u64 {
        self.rows_total
    }

    /// Every cluster's NCID and records, borrowed, in founding order
    /// (ascending [`DocId`]).
    pub fn iter_clusters(&self) -> impl ExactSizeIterator<Item = (&str, &[Row])> {
        self.clusters.iter().map(|c| (c.ncid(), c.rows.as_slice()))
    }

    /// `(ncid, doc_id)` pairs in founding order: ids count up from 0
    /// with no gaps.
    pub fn cluster_ids(&self) -> Vec<(String, DocId)> {
        self.clusters
            .iter()
            .enumerate()
            .map(|(pos, c)| (c.ncid().to_owned(), pos as DocId))
            .collect()
    }

    fn cluster(&self, ncid: &str) -> Option<&Cluster> {
        self.by_ncid.get(ncid).map(|&pos| &self.clusters[pos])
    }

    /// The cluster document for a (trimmed) NCID, derived from the
    /// stored rows and meta data as they are now.
    pub fn cluster_doc(&self, ncid: &str) -> Option<Document> {
        self.by_ncid.get(ncid).map(|&pos| self.document(pos))
    }

    /// Every cluster document, `_id` = [`DocId`], as an owned
    /// collection — for [`nc_docstore::persist`] and for aggregation
    /// pipelines over the cluster documents.
    pub fn to_collection(&self) -> Collection {
        let mut collection = Collection::new("clusters");
        for pos in 0..self.clusters.len() {
            collection
                .insert(self.document(pos))
                .expect("a new collection: one id per cluster, from 0");
        }
        collection
    }

    /// The records of a cluster (none for an unknown NCID).
    pub fn cluster_rows(&self, ncid: &str) -> &[Row] {
        self.cluster(ncid).map_or(&[], |c| &c.rows)
    }

    /// Cluster sizes (record counts per cluster), in founding order.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        self.clusters.iter().map(|c| c.rows.len()).collect()
    }

    /// Rows ever seen per cluster (cluster sizes under
    /// `DedupPolicy::None`), in founding order.
    pub fn cluster_rows_seen(&self) -> Vec<u64> {
        self.clusters.iter().map(|c| c.rows_seen).collect()
    }

    /// The highest version stamped on any record in the store (`0` for
    /// an empty store). O(1): maintained on import.
    /// When this is ≤ a published version `v`, reconstructing `v` is
    /// equivalent to capturing the live store — the fast path
    /// [`crate::snapshot::StoreSnapshot::capture_version`] relies on.
    pub fn max_record_version(&self) -> u32 {
        self.max_version
    }

    /// The version that introduced each record of a cluster.
    pub fn record_versions(&self, ncid: &str) -> Option<&[u32]> {
        self.cluster(ncid).map(|c| c.first_version.as_slice())
    }

    /// The snapshot dates containing each record of a cluster.
    pub fn record_snapshots(&self, ncid: &str) -> Option<Vec<Vec<&str>>> {
        let snapshots = &self.cluster(ncid)?.record_snapshots;
        Some(snapshots.iter().map(|s| s.iter().map(|&d| self.date(d)).collect()).collect())
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

    /// Person data is a subset of what `Trimmed` hashes, so a row can
    /// equal a record stored under `PersonData` value for value and
    /// still carry another fingerprint. A store that has seen two
    /// policies decides by fingerprint alone, as it always did.
    #[test]
    fn a_store_of_mixed_policies_decides_by_fingerprint() {
        let mut store = ClusterStore::new();
        store.import_row(row("A1", "SMITH", "40", "s1"), DedupPolicy::PersonData, "s1", 1);
        let same = row("A1", "SMITH", "40", "s2");
        assert_eq!(
            store.decide(&same, DedupPolicy::PersonData),
            RowDecision::Duplicate { cluster: 0, record: 0 }
        );
        let out = store.import_row(same.clone(), DedupPolicy::Trimmed, "s2", 1);
        assert_eq!(out, RowOutcome::NewRecord, "other attributes, other fingerprint");
        // Mixed from here on: the fingerprints still find both.
        for policy in [DedupPolicy::PersonData, DedupPolicy::Trimmed] {
            let out = store.import_row(same.clone(), policy, "s3", 1);
            assert_eq!(out, RowOutcome::DuplicateDropped, "{policy:?}");
        }
        assert_eq!(store.record_snapshots("A1").unwrap(), vec![vec!["s1", "s3"], vec!["s2", "s3"]]);
    }

    /// A logged duplicate decision is redone as the bookkeeping the
    /// dropped row left, and refused when it names nothing stored.
    #[test]
    fn replayed_duplicate_equals_importing_the_duplicate() {
        let mut imported = ClusterStore::new();
        let mut replayed = ClusterStore::new();
        for store in [&mut imported, &mut replayed] {
            store.import_row(row("A1", "SMITH", "40", "s1"), DedupPolicy::Trimmed, "s1", 1);
            store.import_row(row("A1", "SMYTHE", "40", "s1"), DedupPolicy::Trimmed, "s1", 1);
        }
        imported.import_row(row(" A1", "SMITH ", "41", "s2"), DedupPolicy::Trimmed, "s2", 1);
        assert!(replayed.replay_duplicate("A1", 0, "s2"));
        assert_eq!(replayed.cluster_doc("A1"), imported.cluster_doc("A1"));
        assert_eq!(replayed.rows_imported(), 3);

        let before = replayed.cluster_doc("A1");
        assert!(!replayed.replay_duplicate("A1", 2, "s3"), "no third record");
        assert!(!replayed.replay_duplicate("A2", 0, "s3"), "no such cluster");
        assert_eq!((replayed.cluster_doc("A1"), replayed.rows_imported()), (before, 3));
    }

    #[test]
    fn trimming_policies_store_trimmed_values() {
        let mut store = ClusterStore::new();
        store.import_row(row(" A1", " SMITH ", "40", "s1"), DedupPolicy::Trimmed, "s1", 1);
        assert_eq!(store.cluster_rows("A1")[0].get(LAST_NAME), "SMITH");

        // The other policies store the row as it came; the key is
        // trimmed all the same.
        let mut store = ClusterStore::new();
        store.import_row(row(" A1", " SMITH ", "40", "s1"), DedupPolicy::Exact, "s1", 1);
        assert_eq!(store.cluster_rows("A1")[0].get(LAST_NAME), " SMITH ");
        assert_eq!(store.cluster_ids(), vec![("A1".to_owned(), 0)]);
    }

    #[test]
    fn derived_document_carries_the_meta_data() {
        let mut store = ClusterStore::new();
        store.import_row(row("A1", "SMITH", "40", "2008-11-04"), DedupPolicy::Trimmed, "2008-11-04", 1);
        store.import_row(row("A1", "SMITH", "41", "2009-01-01"), DedupPolicy::Trimmed, "2009-01-01", 1);
        store.import_row(row("A1", "SMYTHE", "41", "2009-01-01"), DedupPolicy::Trimmed, "2009-01-01", 2);
        let doc = store.cluster_doc("A1").unwrap();
        assert_eq!(doc.get_i64("_id"), Some(0));
        assert_eq!(doc.get_str("ncid"), Some("A1"));
        assert_eq!(doc.get_array("records").unwrap().len(), 2);
        assert_eq!(doc.get_i64("meta.rows_seen"), Some(3));
        assert_eq!(doc.get_array("meta.hashes").unwrap().len(), 2);
        assert_eq!(doc.get_i64("meta.snapshot_counts.2008-11-04"), Some(1));
        assert_eq!(doc.get_i64("meta.snapshot_counts.2009-01-01"), Some(1));
        let versions = doc.get_array("meta.record_first_version").unwrap();
        assert_eq!(versions.len(), 2);
        assert_eq!(versions[1].as_i64(), Some(2));
        assert_eq!(store.to_collection().get(0), Some(&doc));
        assert!(store.cluster_doc("NOPE").is_none());
    }

    /// The meta data used to be copied into stored documents by an
    /// explicit step, and a snapshot of dropped duplicates after that
    /// step left the copy stale. A derived view has no copy to go stale.
    #[test]
    fn duplicate_only_snapshot_shows_up_in_the_next_derived_view() {
        let mut store = ClusterStore::new();
        store.import_row(row("A1", "SMITH", "40", "s1"), DedupPolicy::Trimmed, "s1", 1);
        let before = store.cluster_doc("A1").unwrap();
        assert_eq!(before.get_i64("meta.rows_seen"), Some(1));
        // Snapshot 2: same row again -> DuplicateDropped only.
        let out = store.import_row(row("A1", "SMITH", "40", "s2"), DedupPolicy::Trimmed, "s2", 1);
        assert_eq!(out, RowOutcome::DuplicateDropped);
        let doc = store.cluster_doc("A1").unwrap();
        assert_eq!(doc.get_i64("meta.rows_seen"), Some(2));
        let snaps = doc.get_array("meta.record_snapshots").unwrap();
        assert_eq!(snaps[0].as_array().unwrap().len(), 2);
        assert_eq!(doc.get_array("records"), before.get_array("records"));
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

    /// Sizes, rows seen and the borrowed iterator all follow
    /// `cluster_ids` (founding) order, whatever the process' hash seed.
    #[test]
    fn per_cluster_vectors_are_in_founding_order() {
        let mut store = ClusterStore::new();
        let ncids: Vec<String> = (0..40).rev().map(|i| format!("N{i}")).collect();
        for (i, ncid) in ncids.iter().enumerate() {
            // Cluster i keeps i % 4 + 1 records and drops i % 3 duplicates.
            for r in 0..i % 4 + 1 {
                store.import_row(row(ncid, &format!("NAME{r}"), "40", "s1"), DedupPolicy::Trimmed, "s1", 1);
            }
            for _ in 0..i % 3 {
                store.import_row(row(ncid, "NAME0", "41", "s2"), DedupPolicy::Trimmed, "s2", 1);
            }
        }
        let ids = store.cluster_ids();
        assert_eq!(ids.iter().map(|(n, _)| n).collect::<Vec<_>>(), ncids.iter().collect::<Vec<_>>());
        assert_eq!(ids.iter().map(|(_, d)| *d).collect::<Vec<_>>(), (0..40).collect::<Vec<_>>());
        let sizes: Vec<usize> = (0..40).map(|i| i % 4 + 1).collect();
        assert_eq!(store.cluster_sizes(), sizes);
        let seen: Vec<u64> = (0..40).map(|i| (i % 4 + 1 + i % 3) as u64).collect();
        assert_eq!(store.cluster_rows_seen(), seen);
        for ((ncid, rows), (id, _)) in store.iter_clusters().zip(&ids) {
            assert_eq!(ncid, id);
            assert_eq!(rows, store.cluster_rows(id));
        }
    }
}
