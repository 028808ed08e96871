//! Snapshot import: sequential and pipelined (producer/consumer).

use nc_votergen::registry::Registry;
use nc_votergen::snapshot::{Snapshot, SnapshotInfo};

use crate::cluster::{ClusterStore, RowOutcome};
use crate::record::DedupPolicy;

/// Per-snapshot import accounting (the raw material of Table 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImportStats {
    /// Snapshot publication date (`YYYY-MM-DD`).
    pub date: String,
    /// Rows contained in the snapshot.
    pub total_rows: u64,
    /// Rows that became new records (not seen in any earlier snapshot).
    pub new_records: u64,
    /// New records that founded a new cluster (a never-seen NCID).
    pub new_clusters: u64,
    /// Malformed lines diverted to quarantine while reading this
    /// snapshot's file (always 0 for in-memory and strict imports).
    pub quarantined: u64,
}

impl ImportStats {
    /// Zeroed accounting for a snapshot date.
    pub fn zero(date: impl Into<String>) -> Self {
        ImportStats {
            date: date.into(),
            total_rows: 0,
            new_records: 0,
            new_clusters: 0,
            quarantined: 0,
        }
    }

    /// The snapshot's year, if the date has a parseable `YYYY` prefix.
    pub fn year(&self) -> Option<i32> {
        self.date.get(0..4).and_then(|y| y.parse().ok())
    }

    /// Fold another accounting into this one.
    ///
    /// Associative and commutative over every counter, and over the
    /// date too (the aggregate keeps the *later* date), so partial
    /// stats can be combined in any order — per-shard worker stats
    /// merged shard-by-shard, or per-snapshot stats merged into a
    /// per-year row — and the totals never depend on merge order.
    pub fn merge(&mut self, other: &ImportStats) {
        if other.date > self.date {
            self.date = other.date.clone();
        }
        self.total_rows += other.total_rows;
        self.new_records += other.new_records;
        self.new_clusters += other.new_clusters;
        self.quarantined += other.quarantined;
    }
}

/// Import every row of a snapshot into the store, returning the stats.
pub fn import_snapshot(
    store: &mut ClusterStore,
    snapshot: &Snapshot,
    policy: DedupPolicy,
    version: u32,
) -> ImportStats {
    let mut stats = ImportStats::zero(snapshot.date.clone());
    for row in &snapshot.rows {
        stats.total_rows += 1;
        match store.import_row_ref(row, policy, &snapshot.date, version) {
            RowOutcome::NewCluster => {
                stats.new_clusters += 1;
                stats.new_records += 1;
            }
            RowOutcome::NewRecord => stats.new_records += 1,
            RowOutcome::DuplicateDropped => {}
        }
    }
    stats
}

/// Generate and import an archive with pipeline parallelism: a producer
/// thread runs the registry simulation while the consumer imports the
/// previous snapshot (the paper's update process likewise imports
/// snapshots concurrently with statistics work).
///
/// Every snapshot is imported under `version` (use
/// [`crate::version::VersionManager`] to publish versions between calls
/// when importing incrementally).
pub fn import_archive_streaming(
    store: &mut ClusterStore,
    registry: &mut Registry,
    calendar: &[SnapshotInfo],
    policy: DedupPolicy,
    version: u32,
) -> Vec<ImportStats> {
    let mut all_stats = Vec::with_capacity(calendar.len());
    // Bounded channel: at most two snapshots in flight keeps memory flat.
    let (tx, rx) = std::sync::mpsc::sync_channel::<Snapshot>(2);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for info in calendar {
                let snap = registry.generate_snapshot(info);
                if tx.send(snap).is_err() {
                    break;
                }
            }
            drop(tx);
        });
        for snapshot in rx.iter() {
            all_stats.push(import_snapshot(store, &snapshot, policy, version));
        }
    });
    all_stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_votergen::config::GeneratorConfig;
    use nc_votergen::snapshot::standard_calendar;

    fn registry(seed: u64, pop: usize) -> Registry {
        Registry::new(GeneratorConfig {
            seed,
            initial_population: pop,
            ..Default::default()
        })
    }

    #[test]
    fn first_snapshot_all_rows_are_new() {
        let mut reg = registry(1, 120);
        let cal = standard_calendar();
        let snap = reg.generate_snapshot(&cal[0]);
        let mut store = ClusterStore::new();
        let stats = import_snapshot(&mut store, &snap, DedupPolicy::Trimmed, 1);
        assert_eq!(stats.total_rows, 120);
        assert_eq!(stats.new_clusters, 120);
        assert_eq!(stats.new_records, 120);
        assert_eq!(stats.year(), Some(2008));
    }

    #[test]
    fn second_snapshot_is_mostly_duplicates() {
        let mut reg = registry(2, 200);
        let cal = standard_calendar();
        let s0 = reg.generate_snapshot(&cal[0]);
        let s1 = reg.generate_snapshot(&cal[1]);
        let mut store = ClusterStore::new();
        import_snapshot(&mut store, &s0, DedupPolicy::Trimmed, 1);
        let stats = import_snapshot(&mut store, &s1, DedupPolicy::Trimmed, 1);
        assert!(stats.total_rows >= 200);
        // The vast majority of rows repeat the previous snapshot.
        assert!(
            (stats.new_records as f64) < stats.total_rows as f64 * 0.5,
            "new {} of {}",
            stats.new_records,
            stats.total_rows
        );
        assert!(stats.new_clusters <= stats.new_records);
    }

    #[test]
    fn streaming_import_matches_sequential() {
        let cal: Vec<_> = standard_calendar().into_iter().take(4).collect();

        let mut reg1 = registry(3, 80);
        let mut store1 = ClusterStore::new();
        let mut seq_stats = Vec::new();
        for info in &cal {
            let snap = reg1.generate_snapshot(info);
            seq_stats.push(import_snapshot(&mut store1, &snap, DedupPolicy::Trimmed, 1));
        }

        let mut reg2 = registry(3, 80);
        let mut store2 = ClusterStore::new();
        let par_stats =
            import_archive_streaming(&mut store2, &mut reg2, &cal, DedupPolicy::Trimmed, 1);

        assert_eq!(seq_stats, par_stats);
        assert_eq!(store1.record_count(), store2.record_count());
        assert_eq!(store1.cluster_count(), store2.cluster_count());
    }

    #[test]
    fn merge_is_order_invariant() {
        let parts = [
            ImportStats { date: "2009-01-01".into(), total_rows: 10, new_records: 4, new_clusters: 1, quarantined: 2 },
            ImportStats { date: "2008-11-04".into(), total_rows: 7, new_records: 7, new_clusters: 7, quarantined: 0 },
            ImportStats { date: "2010-05-04".into(), total_rows: 3, new_records: 0, new_clusters: 0, quarantined: 1 },
        ];

        // Fold in every permutation of three parts: same aggregate.
        let fold = |order: &[usize]| {
            let mut acc = ImportStats::zero("");
            for &i in order {
                acc.merge(&parts[i]);
            }
            acc
        };
        let reference = fold(&[0, 1, 2]);
        for order in [[0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            assert_eq!(fold(&order), reference);
        }
        assert_eq!(reference.total_rows, 20);
        assert_eq!(reference.new_records, 11);
        assert_eq!(reference.new_clusters, 8);
        assert_eq!(reference.quarantined, 3);
        assert_eq!(reference.date, "2010-05-04", "aggregate keeps the latest date");

        // Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
        let mut left = parts[0].clone();
        left.merge(&parts[1]);
        left.merge(&parts[2]);
        let mut bc = parts[1].clone();
        bc.merge(&parts[2]);
        let mut right = parts[0].clone();
        right.merge(&bc);
        assert_eq!(left, right);
    }

    #[test]
    fn policy_none_never_drops() {
        let mut reg = registry(4, 50);
        let cal = standard_calendar();
        let mut store = ClusterStore::new();
        let mut total = 0;
        for info in cal.iter().take(3) {
            let snap = reg.generate_snapshot(info);
            let st = import_snapshot(&mut store, &snap, DedupPolicy::None, 1);
            assert_eq!(st.new_records, st.total_rows);
            total += st.total_rows;
        }
        assert_eq!(store.record_count(), total);
    }
}
