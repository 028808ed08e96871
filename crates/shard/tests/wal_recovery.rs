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
use nc_docstore::persist::{frame_line, read_framed};
use nc_shard::{ShardEngine, ShardEngineConfig};
use nc_vfs::fault::{inject, Fault};

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

/// A byte that is not UTF-8 is manifest damage like any other: a typed
/// discard and a clean restart, not an I/O error out of the open.
#[test]
fn a_non_utf8_manifest_byte_restarts_cleanly() {
    let archive = tmp_dir("archive_utf8manifest");
    write_archive(&archive, 905, 100);
    let shards = 3;
    let reference = reference_run(&archive, shards, "utf8manifest");
    let state = tmp_dir("state_utf8manifest");

    let mut engine = ShardEngine::open(&state, config(shards)).unwrap();
    engine
        .ingest_archive(&archive, &ImportOptions::strict())
        .unwrap();
    drop(engine);
    let manifest = state.join("manifest.tsv");
    let mut bytes = fs::read(&manifest).unwrap();
    bytes[12] = 0xff;
    fs::write(&manifest, bytes).unwrap();

    let mut recovered = ShardEngine::open(&state, config(shards)).unwrap();
    let reason = recovered.discarded().expect("a damaged manifest is discarded");
    assert!(reason.contains("manifest"), "{reason}");
    assert!(recovered.completed().is_empty());
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

/// The record bodies of a cleanly written log or manifest file.
fn read_bodies(path: &Path) -> Vec<String> {
    let text = fs::read_to_string(path).unwrap();
    text.lines()
        .map(|line| read_framed(line).expect("cleanly written").to_owned())
        .collect()
}

/// Write record bodies back, each under a valid frame: the damage the
/// tests below do is to what the records *say*, which no CRC catches.
fn write_bodies(path: &Path, bodies: &[String]) {
    let text: String = bodies.iter().map(|body| frame_line(body) + "\n").collect();
    fs::write(path, text).unwrap();
}

/// Bytes of the manifest (if there is one) and every log segment under
/// `state`.
fn state_bytes(state: &Path, shards: usize) -> u64 {
    let mut files = vec![state.join("manifest.tsv")];
    for shard in 0..shards {
        files.extend(fs::read_dir(state.join(format!("shard-{shard}"))).unwrap().map(|e| e.unwrap().path()));
    }
    files.iter().map(|path| fs::metadata(path).map_or(0, |meta| meta.len())).sum()
}

/// What every test below requires of a state that cannot be replayed
/// as the manifest promises: nothing of it is in memory or on disk, the
/// loss is reported to the row and to the byte, and a re-ingest
/// reproduces the uninterrupted run.
fn assert_discarded_whole(
    state: &Path,
    archive: &Path,
    shards: usize,
    reference: &Fingerprint,
    rows_discarded: u64,
    detail: &str,
) {
    let bytes = state_bytes(state, shards);
    let mut recovered = ShardEngine::open(state, config(shards)).unwrap();
    let reason = recovered.discarded().expect("the state is discarded, not partially replayed");
    assert!(reason.contains("shard-0") && reason.contains("manifest promises"), "{reason}");
    assert_eq!(recovered.store().rows_imported(), 0, "nothing stays applied");
    assert_eq!(recovered.store().cluster_count(), 0);
    assert!(recovered.completed().is_empty());
    let recovery = recovered.recovery().clone();
    assert_eq!(recovery.rows_discarded, rows_discarded, "{:?}", recovery.details);
    assert_eq!(recovery.bytes_discarded, bytes, "every byte of the state is accounted for");
    assert!(recovery.details.iter().any(|d| d.contains(detail)), "{:?}", recovery.details);
    assert_eq!(state_bytes(state, shards), 0, "logs are empty, the manifest is gone");

    let outcome = recovered.ingest_archive(archive, &ImportOptions::strict()).unwrap();
    assert_eq!((outcome.resumed, outcome.stats.len()), (0, SNAPSHOTS));
    assert_eq!(&fingerprint(&recovered), reference);
    drop(recovered);
    let reopened = ShardEngine::open(state, config(shards)).unwrap();
    assert!(reopened.recovery().is_clean());
    assert_eq!(&fingerprint(&reopened), reference);
}

/// A `D` record is a decision about the store its writer saw. One that
/// names a record index the cluster does not have, or a cluster the
/// store does not have, was not written against this log's prefix —
/// under a valid CRC, so only replay can tell — and is handled like any
/// other record that cannot be honoured.
#[test]
fn a_duplicate_record_naming_no_stored_record_discards_the_state() {
    let archive = tmp_dir("archive_bad_duplicate");
    write_archive(&archive, 907, 120);
    let shards = 3;
    let reference = reference_run(&archive, shards, "bad_duplicate");
    // What the record names instead: (ncid, record), `None` = as logged.
    let damages = [("index", None, Some("9999")), ("ncid", Some("NO-SUCH-VOTER"), None)];
    for (name, ncid, record) in damages {
        let state = tmp_dir(&format!("state_bad_duplicate_{name}"));
        let mut engine = ShardEngine::open(&state, common::config(shards, 4 << 20)).unwrap();
        engine.ingest_archive(&archive, &ImportOptions::strict()).unwrap();
        drop(engine);

        // Rewrite the fifth `D` record of shard 0's second snapshot.
        let log = state.join("shard-0").join("wal-000000.log");
        let mut bodies = read_bodies(&log);
        let begins: Vec<usize> =
            (0..bodies.len()).filter(|&i| bodies[i].starts_with("B\t")).collect();
        let second = begins[1];
        let target = (second..begins[2])
            .filter(|&i| bodies[i].starts_with("D\t"))
            .nth(4)
            .expect("the second snapshot mostly repeats the first");
        let fields: Vec<&str> = bodies[target].split('\t').collect();
        assert_eq!(fields.len(), 4, "D, seq, ncid, record");
        let (ncid, record) = (ncid.unwrap_or(fields[2]), record.unwrap_or(fields[3]));
        bodies[target] = format!("D\t{}\t{ncid}\t{record}", fields[1]);
        write_bodies(&log, &bodies);

        // The rows of the snapshot read up to and including that record.
        let read = (target - second) as u64;
        assert_discarded_whole(&state, &archive, shards, &reference, read, "names no stored record");
        fs::remove_dir_all(state).unwrap();
    }
    fs::remove_dir_all(archive).unwrap();
}

/// Replay is prefix-exact: a logged snapshot the manifest does not list
/// *next* ends the replay, even when the manifest lists the snapshots
/// after it — their `D` records were decided on a store that held the
/// passed-over snapshot too.
#[test]
fn a_snapshot_missing_from_the_middle_of_the_manifest_discards_the_state() {
    let archive = tmp_dir("archive_middle");
    write_archive(&archive, 908, 120);
    let shards = 3;
    let reference = reference_run(&archive, shards, "middle");
    let state = tmp_dir("state_middle");
    let mut engine = ShardEngine::open(&state, config(shards)).unwrap();
    engine.ingest_archive(&archive, &ImportOptions::strict()).unwrap();
    drop(engine);

    // Drop the second snapshot's line from the manifest: header, Q, S S S.
    let manifest = state.join("manifest.tsv");
    let mut lines = read_bodies(&manifest);
    assert_eq!(lines.len(), 2 + SNAPSHOTS);
    let dropped = lines.remove(3);
    write_bodies(&manifest, &lines);

    // Shard 0's second and third snapshots are both lost, whole.
    let date = dropped.split('\t').nth(1).unwrap().to_owned();
    let mut lost = 0;
    let mut past = false;
    for entry in fs::read_dir(state.join("shard-0")).unwrap() {
        for body in read_bodies(&entry.unwrap().path()) {
            if let Some(rest) = body.strip_prefix("C\t") {
                let (committed, rows) = rest.split_once('\t').unwrap();
                past |= committed == date;
                if past || committed > date.as_str() {
                    lost += rows.parse::<u64>().unwrap();
                }
            }
        }
    }
    assert_discarded_whole(&state, &archive, shards, &reference, lost, "not after this log's prefix");
    fs::remove_dir_all(state).unwrap();
    fs::remove_dir_all(archive).unwrap();
}
