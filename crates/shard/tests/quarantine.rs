//! Quarantine-mode ingest through the shard engine: a dirty archive
//! interrupted after its first snapshot resumes — across a reopen — to
//! the stats, quarantine accounting, sink file and store of an
//! uninterrupted run, and the error budget spans the reopen.

mod common;

use std::fs;
use std::path::{Path, PathBuf};

use common::{archive_prefix, fingerprint, tmp_dir, write_archive, SNAPSHOTS};
use nc_core::cluster::ClusterStore;
use nc_core::record::DedupPolicy;
use nc_core::tsv::{self, ImportOptions, TsvError};
use nc_shard::{ShardEngine, ShardEngineConfig};
use nc_vfs::fault::{inject, Fault};

const SHARD_COUNTS: [usize; 2] = [1, 3];

fn config(shards: usize) -> ShardEngineConfig {
    common::config(shards, 16 << 10)
}

/// A three-snapshot archive with three malformed lines: a torn tail on
/// the first file; a destroyed line and a torn tail on the second.
fn dirty_archive(name: &str, seed: u64) -> PathBuf {
    let archive = tmp_dir(name);
    write_archive(&archive, seed, 90);
    let files = tsv::archive_files(&archive).unwrap();
    inject(&files[0], &Fault::AppendPartial(b"TORN\tFIRST".to_vec())).unwrap();

    let text = fs::read_to_string(&files[1]).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    let victim = lines.len() / 2;
    lines[victim] = "###corrupted-sector###";
    fs::write(&files[1], lines.join("\n") + "\n").unwrap();
    inject(&files[1], &Fault::AppendPartial(b"TORN\tSECOND".to_vec())).unwrap();
    archive
}

fn open(state: &Path, shards: usize) -> ShardEngine {
    ShardEngine::open(state, config(shards)).unwrap()
}

#[test]
fn interrupted_quarantine_ingest_resumes_identically_and_keeps_the_sink() {
    let archive = dirty_archive("q_resume_archive", 921);
    let partial = archive_prefix(&archive, 1, "q_resume_partial");

    // What the in-memory import of the same dirty archive reports.
    let mut plain = ClusterStore::new();
    let in_memory = tsv::import_archive_dir_with(
        &mut plain,
        &archive,
        DedupPolicy::Trimmed,
        1,
        &ImportOptions::quarantine(),
    )
    .unwrap();
    assert_eq!(in_memory.quarantine.lines_quarantined, 3);

    for shards in SHARD_COUNTS {
        let ref_state = tmp_dir(&format!("q_resume_ref_{shards}"));
        let mut reference = open(&ref_state, shards);
        let uninterrupted = reference
            .ingest_archive(&archive, &ImportOptions::quarantine())
            .unwrap();
        assert_eq!(uninterrupted, in_memory, "shards={shards}");
        assert_eq!(reference.store().record_count(), plain.record_count());
        assert_eq!(reference.store().cluster_count(), plain.cluster_count());

        let state = tmp_dir(&format!("q_resume_state_{shards}"));
        let sink = state.join("quarantine.tsv");
        let options = ImportOptions::quarantine().with_sink(&sink);
        let first = open(&state, shards)
            .ingest_archive(&partial, &options)
            .unwrap();
        assert_eq!(first.stats, uninterrupted.stats[..1]);
        assert!(fs::read_to_string(&sink).unwrap().contains("TORN\tFIRST"));

        // A new process resumes over the full archive.
        let mut resumed = open(&state, shards);
        let second = resumed.ingest_archive(&archive, &options).unwrap();
        assert_eq!(second.resumed, 1);
        assert_eq!(second.stats, uninterrupted.stats[1..]);
        assert_eq!(second.quarantine, uninterrupted.quarantine);
        assert_eq!(resumed.quarantine(), &uninterrupted.quarantine);
        assert_eq!(
            fingerprint(&resumed),
            fingerprint(&reference),
            "shards={shards}"
        );

        // The resumed run appended: the committed snapshot's provenance
        // line is still there, next to the new ones.
        let text = fs::read_to_string(&sink).unwrap();
        for raw in ["TORN\tFIRST", "###corrupted-sector###", "TORN\tSECOND"] {
            assert!(text.contains(raw), "sink lost {raw:?}: {text}");
        }

        // Re-scanning a fully committed archive diverts nothing more.
        let rescan = resumed.ingest_archive(&archive, &options).unwrap();
        assert_eq!((rescan.resumed, rescan.stats.len()), (SNAPSHOTS, 0));
        assert_eq!(fs::read_to_string(&sink).unwrap(), text);

        drop((reference, resumed));
        for dir in [ref_state, state] {
            fs::remove_dir_all(dir).unwrap();
        }
    }
    for dir in [archive, partial] {
        fs::remove_dir_all(dir).unwrap();
    }
}

#[test]
fn error_budget_spans_the_reopen() {
    let archive = dirty_archive("q_budget_archive", 922);
    let partial = archive_prefix(&archive, 1, "q_budget_partial");
    for shards in SHARD_COUNTS {
        let state = tmp_dir(&format!("q_budget_state_{shards}"));
        let tight = ImportOptions::quarantine().with_budget(2);

        // One event before the reopen: within budget.
        let mut engine = open(&state, shards);
        engine.ingest_archive(&partial, &tight).unwrap();
        let committed = fingerprint(&engine);
        drop(engine);

        // Two more after it: the archive-level total trips the budget,
        // and nothing of the failed snapshot sticks.
        let mut engine = open(&state, shards);
        let err = engine.ingest_archive(&archive, &tight).unwrap_err();
        assert!(
            matches!(
                err,
                TsvError::QuarantineBudget {
                    budget: 2,
                    quarantined: 3
                }
            ),
            "shards={shards}: {err}"
        );
        assert_eq!(fingerprint(&engine), committed);
        assert_eq!(engine.quarantine().events(), 1);

        // A budget that covers the archive lets the same engine finish.
        let outcome = engine
            .ingest_archive(&archive, &ImportOptions::quarantine().with_budget(3))
            .unwrap();
        assert_eq!(outcome.resumed, 1);
        assert_eq!(outcome.quarantine.events(), 3);
        assert_eq!(engine.completed().len(), SNAPSHOTS);

        drop(engine);
        fs::remove_dir_all(state).unwrap();
    }
    for dir in [archive, partial] {
        fs::remove_dir_all(dir).unwrap();
    }
}
