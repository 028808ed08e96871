//! The WAL-backed engine: resumable archive ingest over a
//! [`ShardedStore`], with the shard manifest as the commit point and
//! incremental publish.
//!
//! # Lifecycle
//!
//! [`ShardEngine::open`] recovers whatever the state directory holds:
//! a clean manifest replays every committed snapshot from the per-shard
//! logs; a torn or missing tail is truncated with exact loss
//! accounting; a damaged manifest (or logs that cannot honour the
//! manifest's promises) discards the state and starts fresh, reporting
//! why. [`ShardEngine::ingest_archive`] then skips already-committed
//! snapshot files and ingests the rest — so a crashed run resumed over
//! the same archive converges on exactly the store an uninterrupted
//! run produces (asserted in `tests/wal_recovery.rs`).
//!
//! # Fault handling
//!
//! All durability-critical syscalls go through an injected
//! [`nc_vfs::Vfs`] ([`ShardEngine::open_with_vfs`]), so the sweep
//! tests can fail any single write, fsync or rename. When a write
//! fails mid-ingest, the engine *rolls back*: it reopens from disk
//! (replaying only manifest-committed snapshots, truncating the
//! in-flight suffix with exact loss accounting) and surfaces a typed
//! [`RecoveryReport`] via [`ShardEngine::last_failure`], while the
//! original error propagates to the caller. If even the reopen fails,
//! the engine is *poisoned* — further ingest refuses deterministically
//! instead of appending to logs of unknown integrity.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use nc_core::import::ImportStats;
use nc_core::record::DedupPolicy;
use nc_core::snapshot::StoreSnapshot;
use nc_core::tsv::{
    self, ArchiveImportOutcome, ImportOptions, ParsedSnapshot, QuarantineReport, TsvError,
};
use nc_vfs::{StdVfs, Vfs};

use crate::ingest;
use crate::store::ShardedStore;
use crate::wal::{
    self, shard_log_dir as shard_dir, ManifestState, ShardManifest, ShardWal, WalRecovery,
};

/// Ingest parameters fixed for the lifetime of a state directory.
///
/// Shard count, policy and version are burned into the manifest —
/// reopening with different values is a hard
/// [`TsvError::Checkpoint`] error, because the logs' row routing and
/// dedup outcomes depend on all three.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardEngineConfig {
    /// Number of hash partitions (clamped to ≥ 1).
    pub shards: usize,
    /// Dedup policy applied on ingest.
    pub policy: DedupPolicy,
    /// Import version recorded on every ingested row.
    pub version: u32,
    /// WAL segment rotation bound, in bytes.
    pub segment_bytes: u64,
}

impl ShardEngineConfig {
    /// Defaults for everything but the three identity parameters.
    pub fn new(shards: usize, policy: DedupPolicy, version: u32) -> Self {
        ShardEngineConfig {
            shards: shards.max(1),
            policy,
            version,
            segment_bytes: 4 << 20,
        }
    }
}

/// What a rollback after a mid-ingest write failure did — the typed
/// post-mortem behind [`ShardEngine::last_failure`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Date of the snapshot whose ingest failed.
    pub snapshot: String,
    /// The write error that triggered the rollback, as text.
    pub cause: String,
    /// In-flight rows discarded by rolling back to the last commit
    /// (they were never manifest-committed, and re-ingesting the same
    /// file reproduces them exactly).
    pub rows_rolled_back: u64,
    /// What the recovery replay dropped on disk, byte-exact.
    pub recovery: WalRecovery,
}

/// A [`ShardedStore`] bound to a state directory: every ingested row is
/// write-ahead logged to its shard, and completed snapshots commit via
/// the manifest.
#[derive(Debug)]
pub struct ShardEngine {
    config: ShardEngineConfig,
    state_dir: PathBuf,
    store: ShardedStore,
    wals: Vec<ShardWal>,
    completed: Vec<ImportStats>,
    quarantine: QuarantineReport,
    recovery: WalRecovery,
    discarded: Option<String>,
    vfs: Arc<dyn Vfs>,
    last_failure: Option<RecoveryReport>,
    poisoned: Option<String>,
}

impl ShardEngine {
    /// Open (or create) the engine state in `state_dir`, replaying the
    /// logs back into memory. Uses the real filesystem; the fault
    /// sweeps use [`ShardEngine::open_with_vfs`].
    pub fn open(state_dir: &Path, config: ShardEngineConfig) -> Result<Self, TsvError> {
        Self::open_with_vfs(state_dir, config, Arc::new(StdVfs))
    }

    /// [`ShardEngine::open`] with every mutating syscall — recovery's
    /// mkdir, truncations, unlinks and wipe, then WAL appends, fsyncs,
    /// segment rotation, the manifest replace — routed through `vfs`.
    /// Reads stay on the real filesystem: replay must see whatever
    /// actually hit the disk.
    pub fn open_with_vfs(
        state_dir: &Path,
        config: ShardEngineConfig,
        vfs: Arc<dyn Vfs>,
    ) -> Result<Self, TsvError> {
        let config = ShardEngineConfig {
            shards: config.shards.max(1),
            ..config
        };
        vfs.create_dir_all(state_dir)?;
        let shards = config.shards;
        let mut store = ShardedStore::new(shards);
        let mut completed: Vec<ImportStats> = Vec::new();
        let mut quarantine = QuarantineReport::default();
        let mut recovery = WalRecovery::default();
        let mut discarded: Option<String> = None;

        match ShardManifest::load(state_dir)? {
            ManifestState::Absent => {
                // Logs without a manifest never committed anything:
                // replaying against an empty list applies nothing and
                // truncates them with exact accounting.
                for (shard, unused) in store.shards_mut().iter_mut().enumerate() {
                    let replay = wal::replay_shard(
                        &shard_dir(state_dir, shard),
                        &[],
                        unused,
                        config.policy,
                        vfs.as_ref(),
                    )?;
                    recovery.absorb(replay.recovery);
                }
                if !recovery.is_clean() {
                    discarded =
                        Some("no manifest: dropped logs of a never-committed run".to_owned());
                }
            }
            ManifestState::Damaged(reason) => {
                recovery.bytes_discarded += Self::wipe(state_dir, shards, vfs.as_ref())?;
                recovery.details.push(reason.clone());
                discarded = Some(reason);
            }
            ManifestState::Loaded(manifest) => {
                if manifest.shards != shards
                    || manifest.policy != config.policy
                    || manifest.version != config.version
                {
                    return Err(TsvError::Checkpoint {
                        message: format!(
                            "shard state was written with shards={} policy={:?} version={} \
                             but reopened with shards={} policy={:?} version={}",
                            manifest.shards,
                            manifest.policy,
                            manifest.version,
                            shards,
                            config.policy,
                            config.version
                        ),
                    });
                }
                let expected: Vec<&str> =
                    manifest.completed.iter().map(|s| s.date.as_str()).collect();
                let mut broken: Option<String> = None;
                let mut max_seq: Option<u64> = None;
                for shard in 0..shards {
                    let replay = wal::replay_shard(
                        &shard_dir(state_dir, shard),
                        &expected,
                        &mut store.shards_mut()[shard],
                        config.policy,
                        vfs.as_ref(),
                    )?;
                    let applied = replay.recovery.snapshots_applied;
                    max_seq = max_seq.max(replay.max_seq);
                    recovery.absorb(replay.recovery);
                    if applied != expected.len() {
                        broken = Some(format!(
                            "shard-{shard}: log holds committed snapshots {:?} but the \
                             manifest promises {expected:?}",
                            &expected[..applied]
                        ));
                        break;
                    }
                }
                match broken {
                    None => {
                        if let Some(seq) = max_seq {
                            store.observe_replayed_seq(seq);
                        }
                        completed = manifest.completed;
                        quarantine = manifest.quarantine;
                    }
                    Some(reason) => {
                        // The manifest promised more than the logs can
                        // deliver — a partial replay would silently
                        // diverge from the committed history, so the
                        // whole state restarts from scratch.
                        recovery.bytes_discarded += Self::wipe(state_dir, shards, vfs.as_ref())?;
                        recovery.details.push(reason.clone());
                        store = ShardedStore::new(shards);
                        discarded = Some(reason);
                    }
                }
            }
        }

        let mut wals = Vec::with_capacity(shards);
        for shard in 0..shards {
            wals.push(ShardWal::open(
                &shard_dir(state_dir, shard),
                config.segment_bytes,
                Arc::clone(&vfs),
            )?);
        }
        Ok(ShardEngine {
            config,
            state_dir: state_dir.to_path_buf(),
            store,
            wals,
            completed,
            quarantine,
            recovery,
            discarded,
            vfs,
            last_failure: None,
            poisoned: None,
        })
    }

    /// Remove the manifest and every log segment through `vfs`,
    /// returning the bytes dropped. Directories stay in place for the
    /// fresh run.
    fn wipe(state_dir: &Path, shards: usize, vfs: &dyn Vfs) -> Result<u64, TsvError> {
        let mut bytes = 0;
        for name in ["manifest.tsv", "manifest.tsv.tmp"] {
            let path = state_dir.join(name);
            if let Ok(meta) = fs::metadata(&path) {
                bytes += meta.len();
                vfs.remove_file(&path)?;
            }
        }
        for shard in 0..shards {
            let dir = shard_dir(state_dir, shard);
            for (_, path) in wal::segments(&dir)? {
                bytes += fs::metadata(&path)?.len();
                vfs.remove_file(&path)?;
            }
        }
        Ok(bytes)
    }

    /// Ingest every snapshot file of `archive_dir` that the manifest
    /// does not already list, committing each one before moving on.
    ///
    /// This is [`nc_core::tsv::import_archive_pending`] — the loop the
    /// in-memory import runs — with the WAL + manifest commit as its
    /// sink, so quarantine semantics, budget accounting (carried across
    /// resumes via the manifest) and the truncate-or-append rule of the
    /// sink file are the same by construction.
    pub fn ingest_archive(
        &mut self,
        archive_dir: &Path,
        options: &ImportOptions,
    ) -> Result<ArchiveImportOutcome, TsvError> {
        if let Some(reason) = &self.poisoned {
            return Err(TsvError::Checkpoint {
                message: format!("engine is poisoned: {reason}"),
            });
        }
        let done: BTreeSet<String> = self.completed.iter().map(|s| s.date.clone()).collect();
        let outcome = tsv::import_archive_pending(
            archive_dir,
            options,
            &done,
            self.quarantine.clone(),
            |parsed, quarantine| {
                self.ingest_one(parsed, quarantine)
                    .map_err(|err| self.roll_back(&parsed.snapshot.date, err))
            },
        )?;
        // Wholly quarantined files are counted without a commit.
        self.quarantine.clone_from(&outcome.quarantine);
        Ok(outcome)
    }

    /// The write path of one parsed snapshot: WAL begin/rows/commit,
    /// rotation, then the manifest commit carrying `quarantine` (the
    /// archive accounting including this snapshot). Any error leaves
    /// memory and disk out of step — the caller must roll back.
    fn ingest_one(
        &mut self,
        parsed: &ParsedSnapshot,
        quarantine: &QuarantineReport,
    ) -> Result<ImportStats, TsvError> {
        let snap = &parsed.snapshot;
        for wal in &mut self.wals {
            wal.begin_snapshot(&snap.date, self.config.version)?;
        }
        let start_seq = self.store.next_seq();
        let parts = ingest::fan_out(
            self.store.shards_mut(),
            Some(self.wals.as_mut_slice()),
            &snap.rows,
            &snap.date,
            self.config.policy,
            self.config.version,
            start_seq,
        )?;
        self.store.advance_seq(snap.rows.len() as u64);
        // Step 1 of the commit: durable C on every log.
        for (wal, part) in self.wals.iter_mut().zip(&parts) {
            wal.commit_snapshot(&snap.date, part.total_rows)?;
        }
        for wal in &mut self.wals {
            wal.maybe_rotate()?;
        }
        let mut total = ImportStats::zero(snap.date.clone());
        for part in &parts {
            total.merge(part);
        }
        total.quarantined = parsed.quarantined;
        self.completed.push(total.clone());
        // Step 2: the manifest makes it official.
        let manifest = ShardManifest {
            shards: self.config.shards,
            policy: self.config.policy,
            version: self.config.version,
            completed: self.completed.clone(),
            quarantine: quarantine.clone(),
        };
        manifest.save(&self.state_dir, self.vfs.as_ref())?;
        self.quarantine = manifest.quarantine;
        Ok(total)
    }

    /// Roll back after a failed write: reopen from disk — only
    /// manifest-committed state survives; the in-flight suffix is
    /// truncated with exact accounting — record a [`RecoveryReport`],
    /// and hand the original error back for propagation. When even the
    /// reopen fails, the engine poisons itself: every further ingest
    /// refuses deterministically rather than appending to logs of
    /// unknown integrity.
    fn roll_back(&mut self, date: &str, cause: TsvError) -> TsvError {
        let rows_before = self.store.rows_imported();
        match Self::open_with_vfs(&self.state_dir, self.config, Arc::clone(&self.vfs)) {
            Ok(mut fresh) => {
                let rows_after = fresh.store.rows_imported();
                fresh.last_failure = Some(RecoveryReport {
                    snapshot: date.to_owned(),
                    cause: cause.to_string(),
                    rows_rolled_back: rows_before.saturating_sub(rows_after),
                    recovery: fresh.recovery.clone(),
                });
                *self = fresh;
            }
            Err(reopen) => {
                self.poisoned = Some(format!(
                    "ingest of snapshot {date} failed ({cause}), and the recovery \
                     reopen failed too ({reopen})"
                ));
            }
        }
        cause
    }

    /// A versioned [`StoreSnapshot`] of everything ingested so far
    /// ([`ShardedStore::publish`]). It only reads; the receiver stays
    /// `&mut` for `bench_pipeline`, which binds engines `mut` just to
    /// call this and is frozen while this signature is compared.
    pub fn publish(&mut self, version: u32) -> StoreSnapshot {
        self.store.publish(version)
    }

    /// The in-memory sharded store.
    pub fn store(&self) -> &ShardedStore {
        &self.store
    }

    /// Stats of every committed snapshot, in ingest order.
    pub fn completed(&self) -> &[ImportStats] {
        &self.completed
    }

    /// What recovery replayed and dropped when this engine opened.
    pub fn recovery(&self) -> &WalRecovery {
        &self.recovery
    }

    /// Why the previous state was discarded at open, if it was.
    pub fn discarded(&self) -> Option<&str> {
        self.discarded.as_deref()
    }

    /// The post-mortem of the most recent mid-ingest rollback, if this
    /// engine is the product of one (see [`RecoveryReport`]).
    pub fn last_failure(&self) -> Option<&RecoveryReport> {
        self.last_failure.as_ref()
    }

    /// Why the engine refuses to ingest, when a rollback's recovery
    /// reopen itself failed.
    pub fn poisoned(&self) -> Option<&str> {
        self.poisoned.as_deref()
    }

    /// Cumulative quarantine accounting across all runs.
    pub fn quarantine(&self) -> &QuarantineReport {
        &self.quarantine
    }

    /// The engine's fixed configuration.
    pub fn config(&self) -> &ShardEngineConfig {
        &self.config
    }
}
