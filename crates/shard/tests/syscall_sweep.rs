//! Syscall-level crash sweep over the shard engine's commit sequence.
//!
//! The scenario: a state directory holding two committed snapshots
//! ingests a third. Every durability-critical syscall of that ingest —
//! WAL appends, fsyncs, segment creation, the manifest's tmp + fsync +
//! rename + dir-fsync — goes through a [`FaultVfs`]. The sweep learns
//! the trace length fault-free, then crashes at *every* operation
//! index K and asserts the recovery invariant: reopening with the real
//! filesystem lands bit-exactly on the pre-ingest state or the
//! committed state, never a third one, and resuming over the same
//! archive always converges on the uninterrupted run's fingerprint.
//!
//! The crash sweep runs with parallel fan-out (op interleaving varies,
//! the invariant must hold for every prefix of every interleaving);
//! the pinned-fault tests use one shard, whose inline ingest path
//! numbers syscalls deterministically.

mod common;

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use common::{archive_prefix, fingerprint, tmp_dir, write_archive, Fingerprint};
use nc_core::import::ImportStats;
use nc_core::md5::md5;
use nc_core::tsv::{ImportOptions, TsvError};
use nc_shard::{ShardEngine, ShardEngineConfig};
use nc_vfs::fault::{FaultVfs, InjectedFault, OpRecord};

fn config(shards: usize) -> ShardEngineConfig {
    // Tiny segments so the sweep also crosses segment rotation.
    common::config(shards, 8 << 10)
}

/// Recursively copy a state directory (fresh trial per crash point).
fn copy_dir(from: &Path, to: &Path) {
    fs::create_dir_all(to).unwrap();
    for entry in fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let dst = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &dst);
        } else {
            fs::copy(entry.path(), &dst).unwrap();
        }
    }
}

/// The shared scenario: an archive of three snapshots, a base state
/// holding the first two committed, and the pre/post fingerprints.
struct Scenario {
    archive: PathBuf,
    base: PathBuf,
    pre: Fingerprint,
    post: Fingerprint,
    dates: Vec<String>,
    shards: usize,
}

impl Drop for Scenario {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.archive);
        let _ = fs::remove_dir_all(&self.base);
    }
}

fn scenario(tag: &str, seed: u64, shards: usize) -> Scenario {
    let archive = tmp_dir(&format!("{tag}_archive"));
    let dates = write_archive(&archive, seed, 100);

    let partial = archive_prefix(&archive, 2, &format!("{tag}_partial"));
    let base = tmp_dir(&format!("{tag}_base"));
    let mut engine = ShardEngine::open(&base, config(shards)).unwrap();
    engine
        .ingest_archive(&partial, &ImportOptions::strict())
        .unwrap();
    let pre = fingerprint(&engine);
    drop(engine);
    fs::remove_dir_all(partial).unwrap();

    let full = tmp_dir(&format!("{tag}_full"));
    let mut engine = ShardEngine::open(&full, config(shards)).unwrap();
    engine
        .ingest_archive(&archive, &ImportOptions::strict())
        .unwrap();
    let post = fingerprint(&engine);
    drop(engine);
    fs::remove_dir_all(full).unwrap();

    Scenario {
        archive,
        base,
        pre,
        post,
        dates,
        shards,
    }
}

/// Fault-free recorder run of the third-snapshot ingest over a copy of
/// the base state. Returns the recorder (trace + op count).
fn record_ingest(s: &Scenario, tag: &str) -> FaultVfs {
    let state = tmp_dir(tag);
    copy_dir(&s.base, &state);
    let recorder = FaultVfs::recorder();
    let mut engine =
        ShardEngine::open_with_vfs(&state, config(s.shards), Arc::new(recorder.clone())).unwrap();
    engine
        .ingest_archive(&s.archive, &ImportOptions::strict())
        .unwrap();
    assert_eq!(fingerprint(&engine), s.post);
    drop(engine);
    fs::remove_dir_all(&state).unwrap();
    recorder
}

#[test]
fn crash_at_every_syscall_recovers_pre_or_post_commit_never_a_third_state() {
    let s = scenario("crash", 911, 3);
    let recorder = record_ingest(&s, "crash_recorder");
    let total = recorder.ops();
    let trace = recorder.trace();
    assert!(
        trace.iter().any(|r| r.op == "rename") && trace.iter().any(|r| r.op == "sync_dir"),
        "the manifest commit must appear in the trace: {trace:?}"
    );

    let (mut landed_pre, mut landed_post) = (0u64, 0u64);
    for k in 0..total {
        let state = tmp_dir("crash_trial");
        copy_dir(&s.base, &state);

        let vfs = FaultVfs::crash_at(k);
        let failed = match ShardEngine::open_with_vfs(&state, config(s.shards), Arc::new(vfs.clone()))
        {
            Ok(mut engine) => engine
                .ingest_archive(&s.archive, &ImportOptions::strict())
                .is_err(),
            Err(_) => true,
        };
        assert!(failed, "crash at {k} of {total} must surface an error");

        // A new process over whatever hit the disk: the recovery must
        // land on exactly the pre- or post-commit state.
        let mut reopened = ShardEngine::open(&state, config(s.shards)).unwrap();
        let print = fingerprint(&reopened);
        if print == s.pre {
            landed_pre += 1;
        } else if print == s.post {
            landed_post += 1;
        } else {
            panic!(
                "crash at {k} recovered to a third state: {} clusters, completed {:?}",
                print.cluster_ids.len(),
                print.completed.iter().map(|c| &c.date).collect::<Vec<_>>()
            );
        }

        // And resuming over the same archive always converges.
        reopened
            .ingest_archive(&s.archive, &ImportOptions::strict())
            .unwrap();
        assert_eq!(fingerprint(&reopened), s.post, "resume after crash at {k}");
        drop(reopened);
        fs::remove_dir_all(&state).unwrap();
    }
    assert!(
        landed_pre > 0 && landed_post > 0,
        "sweep crossed the commit point (pre={landed_pre}, post={landed_post})"
    );
}

#[test]
fn enospc_mid_wal_append_rolls_back_with_loss_accounting_and_resumes() {
    // One shard: the inline ingest path numbers syscalls
    // deterministically, so a pinned fault hits the same WAL write in
    // the recorder run and the trial run.
    let s = scenario("enospc", 912, 1);
    let recorder = record_ingest(&s, "enospc_recorder");
    let wal_write = recorder
        .trace()
        .iter()
        .find(|r| r.op == "write" && r.path.to_string_lossy().contains("wal-"))
        .expect("ingest must write WAL data")
        .index;

    for fault in [InjectedFault::Enospc, InjectedFault::ShortWrite] {
        let state = tmp_dir("enospc_trial");
        copy_dir(&s.base, &state);

        let vfs = FaultVfs::recorder().fail_op(wal_write, fault);
        let mut engine =
            ShardEngine::open_with_vfs(&state, config(s.shards), Arc::new(vfs.clone())).unwrap();
        let err = engine
            .ingest_archive(&s.archive, &ImportOptions::strict())
            .unwrap_err();
        assert!(err.to_string().contains("os error 28"), "{fault:?}: {err}");

        // The engine rolled itself back (the fault schedule is spent,
        // so the recovery reopen inside the rollback succeeded) and
        // filed a typed post-mortem.
        assert!(engine.poisoned().is_none());
        let report = engine.last_failure().expect("rollback must file a report");
        assert_eq!(report.snapshot, s.dates[2], "the third snapshot failed");
        assert!(report.cause.contains("os error 28"), "{}", report.cause);
        assert!(
            report.rows_rolled_back > 0,
            "in-flight rows applied before the fault are accounted: {report:?}"
        );
        assert!(
            report.rows_rolled_back <= s.post.completed[2].total_rows,
            "never more than the failed snapshot's rows: {report:?}"
        );
        if fault == InjectedFault::ShortWrite {
            // Half the buffer landed: a physically torn line plus
            // uncommitted parsed rows, both byte-accounted.
            assert_eq!(report.recovery.torn_tails, 1, "{:?}", report.recovery);
            assert!(report.recovery.bytes_discarded > 0, "{:?}", report.recovery);
            assert!(report.recovery.rows_discarded > 0, "{:?}", report.recovery);
        }
        assert_eq!(fingerprint(&engine), s.pre, "rolled back to the last commit");

        // The salvaged segment keeps serving: the same engine resumes
        // over the same archive and converges on the reference.
        let outcome = engine
            .ingest_archive(&s.archive, &ImportOptions::strict())
            .unwrap();
        assert_eq!(outcome.resumed, 2);
        assert_eq!(outcome.stats.len(), 1);
        assert_eq!(fingerprint(&engine), s.post, "{fault:?}");
        drop(engine);
        fs::remove_dir_all(&state).unwrap();
    }
}

#[test]
fn fsync_and_rename_failures_on_the_manifest_keep_the_old_commit() {
    let s = scenario("manifest", 913, 1);
    let recorder = record_ingest(&s, "manifest_recorder");
    let trace = recorder.trace();
    let manifest_sync = trace
        .iter()
        .find(|r| r.op == "sync_file" && r.path.to_string_lossy().contains("manifest"))
        .expect("manifest save must fsync its tmp")
        .index;
    let manifest_rename = trace
        .iter()
        .find(|r| r.op == "rename")
        .expect("manifest save must rename")
        .index;

    for (index, fault) in [
        (manifest_sync, InjectedFault::SyncFail),
        (manifest_rename, InjectedFault::RenameFail),
    ] {
        let state = tmp_dir("manifest_trial");
        copy_dir(&s.base, &state);
        let vfs = FaultVfs::recorder().fail_op(index, fault);
        let mut engine =
            ShardEngine::open_with_vfs(&state, config(s.shards), Arc::new(vfs.clone())).unwrap();
        engine
            .ingest_archive(&s.archive, &ImportOptions::strict())
            .unwrap_err();

        // The manifest never switched: the rollback lands on the old
        // commit, and the WAL-committed-but-unmanifested third
        // snapshot is discarded with exact row accounting.
        let report = engine.last_failure().expect("rollback must file a report");
        assert_eq!(
            report.recovery.rows_discarded, s.post.completed[2].total_rows,
            "{fault:?}: exactly the third snapshot's rows roll back"
        );
        assert_eq!(fingerprint(&engine), s.pre, "{fault:?}");

        // Resume converges.
        engine
            .ingest_archive(&s.archive, &ImportOptions::strict())
            .unwrap();
        assert_eq!(fingerprint(&engine), s.post, "{fault:?}");
        drop(engine);
        fs::remove_dir_all(&state).unwrap();
    }
}

#[test]
fn reopen_failure_poisons_the_engine_deterministically() {
    let s = scenario("poison", 914, 1);

    // Learn how many syscalls the open itself issues, then crash just
    // past them: the engine opens, the ingest crashes, and the
    // rollback's recovery reopen fails too — the engine must poison
    // itself instead of pretending to have recovered.
    let probe_state = tmp_dir("poison_probe");
    copy_dir(&s.base, &probe_state);
    let probe = FaultVfs::recorder();
    let engine =
        ShardEngine::open_with_vfs(&probe_state, config(s.shards), Arc::new(probe.clone()))
            .unwrap();
    let open_ops = probe.ops();
    drop(engine);
    fs::remove_dir_all(&probe_state).unwrap();

    let state = tmp_dir("poison_trial");
    copy_dir(&s.base, &state);
    let vfs = FaultVfs::crash_at(open_ops + 1);
    let mut engine =
        ShardEngine::open_with_vfs(&state, config(s.shards), Arc::new(vfs.clone())).unwrap();
    engine
        .ingest_archive(&s.archive, &ImportOptions::strict())
        .unwrap_err();
    let reason = engine
        .poisoned()
        .expect("reopen under a crashed vfs must poison");
    assert!(reason.contains("recovery"), "{reason}");
    assert!(engine.last_failure().is_none(), "no recovered state to report");

    // Every further ingest refuses with a typed error, not silence.
    match engine.ingest_archive(&s.archive, &ImportOptions::strict()) {
        Err(TsvError::Checkpoint { message }) => {
            assert!(message.contains("poisoned"), "{message}")
        }
        other => panic!("poisoned engine must refuse, got {other:?}"),
    }
    drop(engine);

    // The on-disk state is still recoverable by a healthy process.
    let recovered = ShardEngine::open(&state, config(s.shards)).unwrap();
    assert_eq!(fingerprint(&recovered), s.pre);
    drop(recovered);
    fs::remove_dir_all(&state).unwrap();
}

/// MD5 over `publish(1)`: each cluster's NCID, then its records as TSV
/// lines.
fn published_digest(engine: &mut ShardEngine) -> String {
    let snapshot = engine.publish(1);
    let mut text = String::new();
    for (ncid, rows) in snapshot.clusters() {
        text.push_str("# ");
        text.push_str(ncid);
        for row in rows {
            text.push('\n');
            text.push_str(row.as_tsv());
        }
        text.push('\n');
    }
    md5(text.as_bytes()).to_hex()
}

/// What a clean open of `state` recovers to: completed snapshots, rows
/// imported, published digest.
fn recovered(state: &Path, config: ShardEngineConfig) -> (Vec<ImportStats>, u64, String) {
    let mut engine = ShardEngine::open(state, config).unwrap();
    let rows = engine.store().rows_imported();
    (engine.completed().to_vec(), rows, published_digest(&mut engine))
}

/// Crash the recovering open of `damaged` at every syscall of its
/// trace: the next clean open must land where an uncrashed recovery
/// does. Returns the uncrashed recovery's trace.
fn sweep_recovering_open(damaged: &Path, config: ShardEngineConfig) -> Vec<OpRecord> {
    let state = tmp_dir("recovery_recorder");
    copy_dir(damaged, &state);
    let recorder = FaultVfs::recorder();
    drop(ShardEngine::open_with_vfs(&state, config, Arc::new(recorder.clone())).unwrap());
    let reference = recovered(&state, config);
    fs::remove_dir_all(&state).unwrap();

    for k in 0..recorder.ops() {
        let state = tmp_dir("recovery_trial");
        copy_dir(damaged, &state);
        let crashed = ShardEngine::open_with_vfs(&state, config, Arc::new(FaultVfs::crash_at(k)));
        assert!(crashed.is_err(), "crash at {k} of {} must surface an error", recorder.ops());
        assert_eq!(recovered(&state, config), reference, "open after a crash at {k}");
        fs::remove_dir_all(&state).unwrap();
    }
    recorder.trace()
}

/// A second crash, inside recovery: the recovering open's own writes —
/// the torn tail's truncation, the unlinks of what follows the keep
/// point and their directory fsync, the wipe of a damaged manifest's
/// state — go through the engine's `Vfs`, so a crash at any of them
/// leaves a state the next open still recovers exactly.
#[test]
fn crash_inside_recovery_recovers_like_an_uncrashed_recovery() {
    // Segments large enough that nothing rotates: each shard logs all
    // three snapshots in one segment.
    let shards = 3;
    let config = common::config(shards, 4 << 20);
    let archive = tmp_dir("inside_archive");
    write_archive(&archive, 915, 100);
    let partial = archive_prefix(&archive, 2, "inside_partial");
    let state = tmp_dir("inside_state");
    let mut engine = ShardEngine::open(&state, config).unwrap();
    engine.ingest_archive(&partial, &ImportOptions::strict()).unwrap();
    drop(engine);
    let manifest = fs::read(state.join("manifest.tsv")).unwrap();
    let mut engine = ShardEngine::open(&state, config).unwrap();
    engine.ingest_archive(&archive, &ImportOptions::strict()).unwrap();
    drop(engine);

    // The third snapshot is WAL-committed on every shard but the
    // manifest does not list it, and shard 0 crashed inside the first
    // append of a segment it had just rotated to.
    fs::write(state.join("manifest.tsv"), &manifest).unwrap();
    fs::write(state.join("shard-0").join("wal-000001.log"), b"B\t2009-").unwrap();
    let trace = sweep_recovering_open(&state, config);
    let ops = |op: &str| trace.iter().filter(|r| r.op == op).count();
    assert_eq!(ops("set_len"), shards, "every log loses the third snapshot: {trace:?}");
    assert_eq!(ops("remove"), 1, "the torn segment is unlinked: {trace:?}");
    assert!(
        trace.iter().any(|r| r.op == "sync_dir" && r.path.ends_with("shard-0")),
        "the unlink is made durable: {trace:?}"
    );

    // A damaged manifest: the open wipes the state.
    let mut bytes = fs::read(state.join("manifest.tsv")).unwrap();
    bytes[12] ^= 1;
    fs::write(state.join("manifest.tsv"), bytes).unwrap();
    let trace = sweep_recovering_open(&state, config);
    let removed: Vec<&Path> = trace.iter().filter(|r| r.op == "remove").map(|r| r.path.as_path()).collect();
    assert!(removed.iter().any(|p| p.ends_with("manifest.tsv")), "{trace:?}");
    assert_eq!(removed.len(), 1 + shards + 1, "the manifest and every segment: {trace:?}");

    for dir in [&archive, &partial, &state] {
        fs::remove_dir_all(dir).unwrap();
    }
}
