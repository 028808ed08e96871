//! Parallel snapshot fan-out: one worker per shard, no hand-off.
//!
//! Routing is a pure function of the row ([`crate::shard_of`]), and a
//! row's global sequence number is its position in the snapshot, so
//! every worker walks the snapshot's rows itself, in file order, and
//! applies the ones that route to its shard. Each worker owns its
//! shard (and its WAL, when logging) exclusively for the duration of
//! the scope, so the hot path takes no locks and passes no messages;
//! determinism follows from each shard seeing its rows in file order
//! and the dedup state being per-cluster (see the [`crate::store`]
//! module docs).

use std::borrow::Cow;
use std::io;

use nc_core::cluster::{RowDecision, RowOutcome};
use nc_core::import::ImportStats;
use nc_core::record::DedupPolicy;
use nc_votergen::schema::Row;

use crate::store::{shard_of, Shard};
use crate::wal::ShardWal;

/// Route one row into its shard: decide what it will do to the store,
/// log the decision when a WAL is attached — the row itself when it is
/// kept, a short `D` record when it repeats a stored record — then
/// apply it (still log-before-apply; the manifest is the commit point,
/// so a logged-but-unapplied row is simply replayed or discarded
/// later).
#[allow(clippy::too_many_arguments)]
fn apply_one(
    shard: &mut Shard,
    wal: Option<&mut ShardWal>,
    seq: u64,
    row: &Row,
    date: &str,
    policy: DedupPolicy,
    version: u32,
    stats: &mut ImportStats,
) -> io::Result<()> {
    let decision = shard.store.decide(row, policy);
    if let Some(wal) = wal {
        match decision {
            RowDecision::Duplicate { record, .. } => {
                wal.append_duplicate(seq, row.ncid().trim(), record)?
            }
            RowDecision::Keep { .. } => wal.append_row(seq, row)?,
        }
    }
    stats.total_rows += 1;
    match shard.apply(seq, decision, Cow::Borrowed(row), policy, date, version) {
        RowOutcome::NewCluster => {
            stats.new_clusters += 1;
            stats.new_records += 1;
        }
        RowOutcome::NewRecord => stats.new_records += 1,
        RowOutcome::DuplicateDropped => {}
    }
    Ok(())
}

/// Fan a snapshot's rows out across `shards`, returning one
/// [`ImportStats`] per shard (in shard-index order).
///
/// Every row is offered — duplicates too, since they still mutate the
/// owning cluster's `rows_seen`/membership bookkeeping, which the WAL
/// must be able to redo. `start_seq` is the global
/// sequence number of `rows[0]`; the caller advances its counter by
/// `rows.len()` afterwards.
///
/// Errors (only possible when WALs are attached) are reported
/// deterministically: workers fail independently, and the first error
/// in shard-index order wins.
pub(crate) fn fan_out(
    shards: &mut [Shard],
    wals: Option<&mut [ShardWal]>,
    rows: &[Row],
    date: &str,
    policy: DedupPolicy,
    version: u32,
    start_seq: u64,
) -> io::Result<Vec<ImportStats>> {
    let n = shards.len();
    let mut wal_slots: Vec<Option<&mut ShardWal>> = match wals {
        Some(wals) => {
            debug_assert_eq!(wals.len(), n, "one WAL per shard");
            wals.iter_mut().map(Some).collect()
        }
        None => (0..n).map(|_| None).collect(),
    };

    // Workers only pay off when every shard has a core to itself: each
    // worker walks the whole snapshot, so with fewer cores than shards
    // they time-slice and the replicated walk is pure overhead (4 shards
    // on 2 hardware threads: −4 % wall time when both were free, +15 %
    // when the second was busy, against the inline route). With a single
    // shard, or fewer cores than shards, route inline instead. Applying
    // rows in global order is exactly the per-shard order the workers
    // would apply them in, so the outcome is bit-identical.
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    if n == 1 || cores < n {
        let mut parts: Vec<ImportStats> =
            (0..n).map(|_| ImportStats::zero(date.to_owned())).collect();
        for (i, row) in rows.iter().enumerate() {
            let target = if n == 1 { 0 } else { shard_of(row.ncid(), n) };
            apply_one(
                &mut shards[target],
                wal_slots[target].as_deref_mut(),
                start_seq + i as u64,
                row,
                date,
                policy,
                version,
                &mut parts[target],
            )?;
        }
        return Ok(parts);
    }

    let results: Vec<io::Result<ImportStats>> = std::thread::scope(|scope| {
        let workers: Vec<_> = shards
            .iter_mut()
            .zip(wal_slots)
            .enumerate()
            .map(|(me, (shard, mut wal))| {
                scope.spawn(move || -> io::Result<ImportStats> {
                    let mut stats = ImportStats::zero(date.to_owned());
                    for (i, row) in rows.iter().enumerate() {
                        if shard_of(row.ncid(), n) != me {
                            continue;
                        }
                        apply_one(
                            shard,
                            wal.as_deref_mut(),
                            start_seq + i as u64,
                            row,
                            date,
                            policy,
                            version,
                            &mut stats,
                        )?;
                    }
                    Ok(stats)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().expect("shard worker panicked"))
            .collect()
    });

    // First error in shard-index order wins (deterministic reporting).
    results.into_iter().collect()
}
