//! Crash-recovery integration tests for the shard engine: kill the
//! ingest mid-archive (torn WAL tails, lost manifests, bit rot), reopen
//! the state directory, resume over the same archive, and require the
//! final store to be **byte-identical** to an uninterrupted run — for
//! shard counts 1, 3 and 8, with exact loss reporting along the way.

mod common;

use std::fs;
use std::path::{Path, PathBuf};

use common::{archive_prefix, fingerprint, tmp_dir, write_archive, Fingerprint, SNAPSHOTS};
use nc_core::record::DedupPolicy;
use nc_core::tsv::{ImportOptions, TsvError};
use nc_docstore::faults::{inject, Fault};
use nc_shard::{ShardEngine, ShardEngineConfig};

const SHARD_COUNTS: [usize; 3] = [1, 3, 8];

fn config(shards: usize) -> ShardEngineConfig {
    // Tiny segments so rotation happens even in these small runs.
    common::config(shards, 16 << 10)
}

/// Reference: one uninterrupted ingest of the whole archive.
fn reference_run(archive: &Path, shards: usize, tag: &str) -> Fingerprint {
    let state = tmp_dir(&format!("ref_{tag}_{shards}"));
    let mut engine = ShardEngine::open(&state, config(shards)).unwrap();
    let outcome = engine
        .ingest_archive(archive, &ImportOptions::strict())
        .unwrap();
    assert_eq!(outcome.stats.len(), SNAPSHOTS);
    assert_eq!(outcome.resumed, 0);
    let print = fingerprint(&engine);
    drop(engine);
    fs::remove_dir_all(state).unwrap();
    print
}

/// Path of the highest-numbered WAL segment of one shard.
fn last_segment(state: &Path, shard: usize) -> PathBuf {
    let dir = state.join(format!("shard-{shard}"));
    let mut segs: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "log"))
        .collect();
    segs.sort();
    segs.pop().expect("shard has a WAL segment")
}

#[test]
fn reopen_replays_to_the_identical_store() {
    let archive = tmp_dir("archive_reopen");
    write_archive(&archive, 901, 120);
    for shards in SHARD_COUNTS {
        let state = tmp_dir(&format!("state_reopen_{shards}"));
        let mut engine = ShardEngine::open(&state, config(shards)).unwrap();
        engine
            .ingest_archive(&archive, &ImportOptions::strict())
            .unwrap();
        let before = fingerprint(&engine);
        drop(engine);

        // A new process over the same state dir replays the WALs.
        let mut reopened = ShardEngine::open(&state, config(shards)).unwrap();
        assert!(
            reopened.recovery().is_clean(),
            "clean shutdown, clean replay: {:?}",
            reopened.recovery()
        );
        assert_eq!(reopened.recovery().snapshots_applied, SNAPSHOTS * shards);
        assert_eq!(fingerprint(&reopened), before, "shards={shards}");

        // Re-ingesting the same archive is a no-op resume.
        let outcome = reopened
            .ingest_archive(&archive, &ImportOptions::strict())
            .unwrap();
        assert!(outcome.stats.is_empty());
        assert_eq!(outcome.resumed, SNAPSHOTS);
        assert_eq!(fingerprint(&reopened), before);
        fs::remove_dir_all(state).unwrap();
    }
    fs::remove_dir_all(archive).unwrap();
}

#[test]
fn torn_tail_is_dropped_with_exact_byte_accounting_and_resume_matches() {
    let archive = tmp_dir("archive_torn");
    write_archive(&archive, 902, 120);
    for shards in SHARD_COUNTS {
        let reference = reference_run(&archive, shards, "torn");
        let state = tmp_dir(&format!("state_torn_{shards}"));

        // Partial run: only the first two snapshots exist yet.
        let partial = archive_prefix(&archive, 2, &format!("partial_torn_{shards}"));
        let mut engine = ShardEngine::open(&state, config(shards)).unwrap();
        engine
            .ingest_archive(&partial, &ImportOptions::strict())
            .unwrap();
        drop(engine);

        // Crash mid-third-snapshot: a torn, unframed partial record at
        // the tail of every shard's log.
        let garbage = b"R\t999999\tTORN-MID-WRITE";
        for shard in 0..shards {
            inject(
                &last_segment(&state, shard),
                &Fault::AppendPartial(garbage.to_vec()),
            )
            .unwrap();
        }

        let mut recovered = ShardEngine::open(&state, config(shards)).unwrap();
        let recovery = recovered.recovery().clone();
        assert_eq!(recovery.torn_tails, shards, "every shard had a tear");
        assert_eq!(
            recovery.bytes_discarded,
            (garbage.len() * shards) as u64,
            "loss accounting is exact to the byte"
        );
        assert_eq!(recovery.rows_discarded, 0, "no parsed rows were lost");
        assert_eq!(recovery.snapshots_applied, 2 * shards);
        assert_eq!(recovered.completed().len(), 2);

        // Resume over the full archive: only the third snapshot runs,
        // and the result is byte-identical to the uninterrupted run.
        let outcome = recovered
            .ingest_archive(&archive, &ImportOptions::strict())
            .unwrap();
        assert_eq!(outcome.resumed, 2);
        assert_eq!(outcome.stats.len(), 1);
        assert_eq!(fingerprint(&recovered), reference, "shards={shards}");

        for dir in [&state, &partial] {
            fs::remove_dir_all(dir).unwrap();
        }
    }
    fs::remove_dir_all(archive).unwrap();
}

#[test]
fn wal_committed_but_unmanifested_snapshot_rolls_back_with_exact_row_counts() {
    let archive = tmp_dir("archive_rollback");
    write_archive(&archive, 903, 120);
    for shards in SHARD_COUNTS {
        let reference = reference_run(&archive, shards, "rollback");
        let state = tmp_dir(&format!("state_rollback_{shards}"));

        let partial = archive_prefix(&archive, 2, &format!("partial_rollback_{shards}"));
        let mut engine = ShardEngine::open(&state, config(shards)).unwrap();
        engine
            .ingest_archive(&partial, &ImportOptions::strict())
            .unwrap();
        drop(engine);
        // Keep the two-snapshot manifest, ingest the third snapshot,
        // then restore the old manifest — exactly the state a crash
        // between WAL commit and manifest write leaves behind.
        let manifest_bytes = fs::read(state.join("manifest.tsv")).unwrap();
        let mut engine = ShardEngine::open(&state, config(shards)).unwrap();
        engine
            .ingest_archive(&archive, &ImportOptions::strict())
            .unwrap();
        drop(engine);
        fs::write(state.join("manifest.tsv"), &manifest_bytes).unwrap();

        let third_rows = reference.completed[2].total_rows;
        let mut recovered = ShardEngine::open(&state, config(shards)).unwrap();
        let recovery = recovered.recovery().clone();
        assert_eq!(
            recovery.rows_discarded, third_rows,
            "rollback reports exactly the third snapshot's rows, shards={shards}"
        );
        assert_eq!(recovery.torn_tails, 0, "no physical damage involved");
        assert!(recovery.bytes_discarded > 0);
        assert!(recovery
            .details
            .iter()
            .any(|d| d.contains("never committed to the manifest")));
        assert_eq!(recovered.completed().len(), 2);

        // Resume re-imports the third snapshot; the double-ingest never
        // happened as far as the store can tell.
        let outcome = recovered
            .ingest_archive(&archive, &ImportOptions::strict())
            .unwrap();
        assert_eq!(outcome.resumed, 2);
        assert_eq!(fingerprint(&recovered), reference, "shards={shards}");

        for dir in [&state, &partial] {
            fs::remove_dir_all(dir).unwrap();
        }
    }
    fs::remove_dir_all(archive).unwrap();
}

#[test]
fn mid_log_bit_rot_discards_state_and_a_fresh_run_matches() {
    let archive = tmp_dir("archive_bitrot");
    write_archive(&archive, 904, 120);
    let shards = 3;
    let reference = reference_run(&archive, shards, "bitrot");
    let state = tmp_dir("state_bitrot");

    let mut engine = ShardEngine::open(&state, config(shards)).unwrap();
    engine
        .ingest_archive(&archive, &ImportOptions::strict())
        .unwrap();
    drop(engine);

    // Rot a byte early in shard 0's first segment — *before* the last
    // committed snapshot, so the log can no longer honour the manifest.
    inject(
        &state.join("shard-0").join("wal-000000.log"),
        &Fault::FlipBit { offset: 40, bit: 3 },
    )
    .unwrap();

    let mut recovered = ShardEngine::open(&state, config(shards)).unwrap();
    let reason = recovered
        .discarded()
        .expect("damaged history must be discarded, not partially replayed");
    assert!(reason.contains("shard-0"), "{reason}");
    assert_eq!(recovered.store().cluster_count(), 0, "fresh start");
    assert_eq!(recovered.completed().len(), 0);

    // The discard is total, so a full re-ingest reproduces the
    // reference exactly.
    let outcome = recovered
        .ingest_archive(&archive, &ImportOptions::strict())
        .unwrap();
    assert_eq!(outcome.resumed, 0);
    assert_eq!(outcome.stats.len(), SNAPSHOTS);
    assert_eq!(fingerprint(&recovered), reference);

    // And the repaired state replays cleanly from here on.
    drop(recovered);
    let reopened = ShardEngine::open(&state, config(shards)).unwrap();
    assert!(reopened.recovery().is_clean());
    assert_eq!(fingerprint(&reopened), reference);

    fs::remove_dir_all(state).unwrap();
    fs::remove_dir_all(archive).unwrap();
}

#[test]
fn damaged_manifest_restarts_cleanly() {
    let archive = tmp_dir("archive_badmanifest");
    write_archive(&archive, 905, 100);
    let shards = 3;
    let reference = reference_run(&archive, shards, "badmanifest");
    let state = tmp_dir("state_badmanifest");

    let mut engine = ShardEngine::open(&state, config(shards)).unwrap();
    engine
        .ingest_archive(&archive, &ImportOptions::strict())
        .unwrap();
    drop(engine);
    inject(
        &state.join("manifest.tsv"),
        &Fault::FlipBit { offset: 12, bit: 0 },
    )
    .unwrap();

    let mut recovered = ShardEngine::open(&state, config(shards)).unwrap();
    assert!(recovered.discarded().is_some());
    let outcome = recovered
        .ingest_archive(&archive, &ImportOptions::strict())
        .unwrap();
    assert_eq!(outcome.resumed, 0);
    assert_eq!(fingerprint(&recovered), reference);

    fs::remove_dir_all(state).unwrap();
    fs::remove_dir_all(archive).unwrap();
}

#[test]
fn parameter_drift_is_a_hard_error() {
    let archive = tmp_dir("archive_drift");
    write_archive(&archive, 906, 80);
    let state = tmp_dir("state_drift");
    let mut engine = ShardEngine::open(&state, config(3)).unwrap();
    engine
        .ingest_archive(&archive, &ImportOptions::strict())
        .unwrap();
    drop(engine);

    // Different shard count, policy or version must refuse to resume:
    // the logs' row routing and dedup outcomes depend on all three.
    for bad in [
        config(8),
        ShardEngineConfig {
            segment_bytes: 16 << 10,
            ..ShardEngineConfig::new(3, DedupPolicy::Exact, 1)
        },
        ShardEngineConfig {
            segment_bytes: 16 << 10,
            ..ShardEngineConfig::new(3, DedupPolicy::Trimmed, 2)
        },
    ] {
        match ShardEngine::open(&state, bad) {
            Err(TsvError::Checkpoint { message }) => {
                assert!(message.contains("reopened with"), "{message}")
            }
            other => panic!("expected Checkpoint error, got {other:?}"),
        }
    }
    // The original parameters still open fine.
    let engine = ShardEngine::open(&state, config(3)).unwrap();
    assert!(engine.recovery().is_clean());

    fs::remove_dir_all(state).unwrap();
    fs::remove_dir_all(archive).unwrap();
}
