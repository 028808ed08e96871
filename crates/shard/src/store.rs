//! The in-memory sharded store and its determinism contract.
//!
//! # Why merged iteration is deterministic
//!
//! The unsharded [`ClusterStore`] keeps and yields its clusters in
//! `DocId` order, and a `DocId` is the cluster's insertion position, so
//! the unsharded order is *global founding order*: the order in which
//! each NCID was first seen. Sharding partitions whole clusters (the shard
//! key is the NCID), a row's global sequence number is its position
//! in the row stream, and each shard's worker walks that stream in
//! order — so a shard observes its subset of rows in exactly the
//! relative order the sequential importer would, and per-cluster dedup
//! state evolves identically. Recording the founding row's sequence
//! number per cluster and merging all shards by that number therefore
//! reproduces the unsharded founding order exactly (bit-identical
//! downstream scoring/customize/carving; see `tests/determinism.rs`).

use std::borrow::Cow;

use nc_core::cluster::{ClusterStore, RowDecision, RowOutcome};
use nc_core::import::ImportStats;
use nc_core::record::DedupPolicy;
use nc_core::snapshot::StoreSnapshot;
use nc_docstore::collection::DocId;
use nc_docstore::value::Document;
use nc_votergen::schema::Row;
use nc_votergen::snapshot::Snapshot;

use crate::ingest;

/// Stable shard router: FNV-1a over the trimmed NCID bytes, mod
/// `shards`.
///
/// Hand-rolled rather than [`std::hash::DefaultHasher`] because WAL
/// replay in a *new* process must route every logged row to the shard
/// that logged it — std's hasher is randomly seeded per process and
/// makes no cross-version promises.
pub fn shard_of(ncid: &str, shards: usize) -> usize {
    debug_assert!(shards > 0, "a store has at least one shard");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in ncid.trim().as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// One shard: a privately owned [`ClusterStore`] plus the founding
/// bookkeeping that makes merged iteration deterministic.
#[derive(Debug)]
pub(crate) struct Shard {
    pub(crate) store: ClusterStore,
    /// Global sequence number of each cluster's founding row, in
    /// founding order — index-parallel to the store's clusters, and the
    /// merge key of [`ShardedStore::cluster_ids`] and
    /// [`ShardedStore::publish`].
    founded: Vec<u64>,
}

impl Shard {
    pub(crate) fn new() -> Self {
        Shard {
            store: ClusterStore::new(),
            founded: Vec::new(),
        }
    }

    /// Carry out what [`ClusterStore::decide`] decided about `row` (with
    /// its global sequence number) on this shard's store. The caller
    /// guarantees the row's NCID routes here.
    pub(crate) fn apply(
        &mut self,
        seq: u64,
        decision: RowDecision,
        row: Cow<'_, Row>,
        policy: DedupPolicy,
        date: &str,
        version: u32,
    ) -> RowOutcome {
        let outcome = self.store.apply(decision, row, policy, date, version);
        if outcome == RowOutcome::NewCluster {
            self.founded.push(seq);
        }
        outcome
    }

    /// Decide and apply in one step, handing the row over: the replay
    /// path, where the log has the decision's input and nobody to tell.
    pub(crate) fn import(
        &mut self,
        seq: u64,
        row: Row,
        policy: DedupPolicy,
        date: &str,
        version: u32,
    ) -> RowOutcome {
        let decision = self.store.decide(&row, policy);
        self.apply(seq, decision, Cow::Owned(row), policy, date, version)
    }

    /// The shard's clusters in founding order, each with the sequence
    /// number of its founding row.
    fn clusters(&self) -> impl Iterator<Item = (u64, &str, &[Row])> {
        assert_eq!(self.founded.len(), self.store.cluster_count());
        self.founded
            .iter()
            .zip(self.store.iter_clusters())
            .map(|(&seq, (ncid, rows))| (seq, ncid, rows))
    }
}

/// Global address of a cluster inside a [`ShardedStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedDocId {
    /// Index of the shard holding the cluster.
    pub shard: usize,
    /// The cluster's document id *within* that shard's store.
    pub doc: DocId,
}

/// A [`ClusterStore`] split into N hash-partitioned shards.
///
/// Pure in-memory — the WAL-backed, resumable variant is
/// [`crate::engine::ShardEngine`], which drives this store through the
/// same ingest path.
#[derive(Debug)]
pub struct ShardedStore {
    shards: Vec<Shard>,
    /// Next global row sequence number (one per fanned-out row).
    next_seq: u64,
}

impl ShardedStore {
    /// An empty store with `shards` partitions (clamped to ≥ 1).
    pub fn new(shards: usize) -> Self {
        ShardedStore {
            shards: (0..shards.max(1)).map(|_| Shard::new()).collect(),
            next_seq: 0,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    pub(crate) fn shards_mut(&mut self) -> &mut [Shard] {
        &mut self.shards
    }

    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    pub(crate) fn advance_seq(&mut self, rows: u64) {
        self.next_seq += rows;
    }

    /// Raise the replay watermark: the next fanned-out row must get a
    /// sequence number above every replayed one.
    pub(crate) fn observe_replayed_seq(&mut self, seq: u64) {
        self.next_seq = self.next_seq.max(seq + 1);
    }

    /// Ingest one snapshot across all shards in parallel, returning
    /// the merged [`ImportStats`] — bit-identical to what
    /// [`nc_core::import::import_snapshot`] reports on an unsharded
    /// store, because per-worker stats are associatively merged in
    /// shard order and every per-row outcome matches the sequential
    /// importer's.
    pub fn ingest_snapshot(
        &mut self,
        snapshot: &Snapshot,
        policy: DedupPolicy,
        version: u32,
    ) -> ImportStats {
        let parts = ingest::fan_out(
            &mut self.shards,
            None,
            &snapshot.rows,
            &snapshot.date,
            policy,
            version,
            self.next_seq,
        )
        .expect("in-memory ingest performs no IO");
        self.next_seq += snapshot.rows.len() as u64;
        let mut total = ImportStats::zero(snapshot.date.clone());
        for part in &parts {
            total.merge(part);
        }
        total
    }

    /// All clusters in *global founding order* — the same NCID order
    /// the unsharded [`ClusterStore::cluster_ids`] yields for the same
    /// row stream (see the module docs for the argument).
    pub fn cluster_ids(&self) -> Vec<(String, ShardedDocId)> {
        let mut merged: Vec<(u64, String, ShardedDocId)> = Vec::with_capacity(self.cluster_count());
        for (shard_idx, shard) in self.shards.iter().enumerate() {
            // Within a shard a cluster's DocId is its founding position.
            for (pos, (seq, ncid, _)) in shard.clusters().enumerate() {
                let id = ShardedDocId {
                    shard: shard_idx,
                    doc: pos as DocId,
                };
                merged.push((seq, ncid.to_owned(), id));
            }
        }
        merged.sort_by_key(|(seq, _, _)| *seq);
        merged.into_iter().map(|(_, ncid, id)| (ncid, id)).collect()
    }

    /// The rows of one cluster, routed to its shard.
    pub fn cluster_rows(&self, ncid: &str) -> &[Row] {
        self.shards[shard_of(ncid, self.shards.len())]
            .store
            .cluster_rows(ncid)
    }

    /// The derived document of one cluster ([`ClusterStore::cluster_doc`]),
    /// routed to its shard; `_id` is the cluster's position *within*
    /// that shard's store.
    pub fn cluster_doc(&self, ncid: &str) -> Option<Document> {
        self.shards[shard_of(ncid, self.shards.len())]
            .store
            .cluster_doc(ncid)
    }

    /// Total clusters across all shards.
    pub fn cluster_count(&self) -> usize {
        self.shards.iter().map(|s| s.store.cluster_count()).sum()
    }

    /// Total records kept across all shards.
    pub fn record_count(&self) -> u64 {
        self.shards.iter().map(|s| s.store.record_count()).sum()
    }

    /// Total rows ever offered for import (kept + dropped).
    pub fn rows_imported(&self) -> u64 {
        self.shards.iter().map(|s| s.store.rows_imported()).sum()
    }

    /// A [`StoreSnapshot`] of the store as it is now, pinned to
    /// `version`.
    ///
    /// Every cluster is copied straight out of its shard's store (the
    /// shards already hold founding order) and the copies are merged by
    /// global sequence number, so the snapshot's cluster order is
    /// identical to [`StoreSnapshot::capture`] on the unsharded twin.
    /// The copy and the merge are proportional to the store.
    pub fn publish(&self, version: u32) -> StoreSnapshot {
        let mut merged: Vec<(u64, (String, Vec<Row>))> = Vec::with_capacity(self.cluster_count());
        for shard in &self.shards {
            for (seq, ncid, rows) in shard.clusters() {
                merged.push((seq, (ncid.to_owned(), rows.to_vec())));
            }
        }
        merged.sort_by_key(|(seq, _)| *seq);
        StoreSnapshot::from_clusters(version, merged.into_iter().map(|(_, c)| c).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_core::import::import_snapshot;
    use nc_votergen::config::GeneratorConfig;
    use nc_votergen::registry::Registry;
    use nc_votergen::snapshot::standard_calendar;

    fn snapshots(seed: u64, pop: usize, n: usize) -> Vec<Snapshot> {
        let mut reg = Registry::new(GeneratorConfig {
            seed,
            initial_population: pop,
            ..Default::default()
        });
        standard_calendar()
            .iter()
            .take(n)
            .map(|info| reg.generate_snapshot(info))
            .collect()
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for shards in [1, 2, 3, 8] {
            for ncid in ["AA1", "  AA1  ", "BX999", ""] {
                let s = shard_of(ncid, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(ncid, shards), "routing must be pure");
            }
        }
        // Trimming is part of the key, matching the cluster key.
        assert_eq!(shard_of(" ZQ7 ", 8), shard_of("ZQ7", 8));
    }

    #[test]
    fn sharded_matches_unsharded_counts_stats_and_order() {
        let snaps = snapshots(41, 90, 3);
        let mut plain = ClusterStore::new();
        let mut plain_stats = Vec::new();
        for s in &snaps {
            plain_stats.push(import_snapshot(&mut plain, s, DedupPolicy::Trimmed, 1));
        }
        for shards in [1, 2, 3, 8] {
            let mut sharded = ShardedStore::new(shards);
            let stats: Vec<ImportStats> = snaps
                .iter()
                .map(|s| sharded.ingest_snapshot(s, DedupPolicy::Trimmed, 1))
                .collect();
            assert_eq!(stats, plain_stats, "shards={shards}");
            assert_eq!(sharded.cluster_count(), plain.cluster_count());
            assert_eq!(sharded.record_count(), plain.record_count());
            assert_eq!(sharded.rows_imported(), plain.rows_imported());
            let plain_ids: Vec<String> =
                plain.cluster_ids().into_iter().map(|(n, _)| n).collect();
            let sharded_ids: Vec<String> =
                sharded.cluster_ids().into_iter().map(|(n, _)| n).collect();
            assert_eq!(sharded_ids, plain_ids, "shards={shards}");
        }
    }

    #[test]
    fn every_publish_equals_a_capture_of_the_unsharded_twin() {
        let mut snaps = snapshots(42, 60, 2);
        // Whatever the generator drew, the second snapshot founds a
        // cluster as well as revising some.
        let mut founder = snaps[1].rows[0].clone();
        founder.set(nc_votergen::schema::NCID, "ZZ-FOUNDED-LATE");
        snaps[1].rows.push(founder);
        let mut sharded = ShardedStore::new(4);
        let mut plain = ClusterStore::new();
        sharded.ingest_snapshot(&snaps[0], DedupPolicy::Trimmed, 1);
        import_snapshot(&mut plain, &snaps[0], DedupPolicy::Trimmed, 1);
        let v1 = sharded.publish(1);
        assert_eq!(v1.clusters(), StoreSnapshot::capture(&plain, 1).clusters());
        // A second publish with no new rows publishes the same clusters.
        assert_eq!(sharded.publish(1).clusters(), v1.clusters());

        sharded.ingest_snapshot(&snaps[1], DedupPolicy::Trimmed, 1);
        import_snapshot(&mut plain, &snaps[1], DedupPolicy::Trimmed, 1);
        let v2 = sharded.publish(2);
        assert_eq!(v2.clusters(), StoreSnapshot::capture(&plain, 2).clusters());
        assert!(v2.cluster_count() > v1.cluster_count(), "snapshot 2 founds clusters");
        assert!(v2.record_count() > v1.record_count() + 1, "and revises some");
    }

    #[test]
    fn all_duplicate_snapshot_changes_no_published_cluster() {
        let snaps = snapshots(44, 60, 1);
        let mut sharded = ShardedStore::new(3);
        sharded.ingest_snapshot(&snaps[0], DedupPolicy::Trimmed, 1);
        let v1 = sharded.publish(1);

        let mut replay = snaps[0].clone();
        replay.date = "2099-01-01".to_owned();
        let stats = sharded.ingest_snapshot(&replay, DedupPolicy::Trimmed, 1);
        assert_eq!(stats.total_rows, replay.rows.len() as u64);
        assert_eq!(stats.new_records, 0, "every row is a dropped duplicate");
        assert_eq!(sharded.publish(2).clusters(), v1.clusters());
    }

    #[test]
    fn cluster_rows_route_to_the_owning_shard() {
        let snaps = snapshots(43, 50, 1);
        let mut sharded = ShardedStore::new(3);
        sharded.ingest_snapshot(&snaps[0], DedupPolicy::Trimmed, 1);
        for (ncid, id) in sharded.cluster_ids() {
            assert_eq!(id.shard, shard_of(&ncid, 3));
            assert!(!sharded.cluster_rows(&ncid).is_empty());
        }
    }
}
