//! Checkpointed archive import: resume a multi-hour ingest instead of
//! restarting it.
//!
//! The paper's archives span 40 snapshots and half a billion rows; an
//! interrupted import must not throw away hours of work. After each
//! snapshot, [`import_archive_dir_resumable`] persists the cluster
//! store (atomically, with checksums — see [`nc_docstore::persist`])
//! and a small JSON manifest recording exactly which snapshots are
//! complete, under which dedup policy and version. A later run with the
//! same parameters reloads the store, skips the completed snapshots,
//! and continues — producing import statistics identical to an
//! uninterrupted run.
//!
//! A damaged checkpoint (torn store file, unreadable manifest, or a
//! store file and a manifest from different snapshots) is discarded and
//! the import restarts from scratch — recovery degrades to correctness,
//! never to silent corruption. Mismatched parameters (different policy
//! or version) are an error instead: resuming under them would
//! fabricate inconsistent data.
//!
//! The store file is renamed into place before the manifest, so a
//! manifest never promises snapshots the store file lacks — but the two
//! renames are two syscalls, and a crash between them leaves the store
//! one snapshot *ahead* of its manifest. Ordering alone therefore does
//! not make resume idempotent (re-importing that snapshot onto a store
//! that already holds it would report zero new records); the manifest's
//! own accounting does: a restored store must hold exactly the records
//! and clusters the completed snapshots added, or it is discarded like
//! any other damaged checkpoint.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use nc_docstore::doc;
use nc_docstore::json;
use nc_docstore::value::{Document, Value};
use nc_vfs::{StdVfs, Vfs};

use crate::cluster::ClusterStore;
use crate::import::ImportStats;
use crate::record::DedupPolicy;
use crate::tsv::{
    self, ImportOptions, QuarantineReport, TsvError,
};

/// Manifest format version (bump on incompatible changes).
const MANIFEST_FORMAT: u32 = 1;
/// Manifest file name within the state directory.
const MANIFEST_FILE: &str = "manifest.json";
/// Persisted store file name within the state directory.
const STORE_FILE: &str = "store.jsonl";

/// The checkpoint manifest written after every completed snapshot.
#[derive(Debug, PartialEq)]
struct Manifest {
    format: u32,
    policy: String,
    version: u32,
    completed: Vec<ImportStats>,
    quarantine: QuarantineReport,
}

impl Manifest {
    /// The manifest as the JSON document stored in `manifest.json`.
    fn to_value(&self) -> Value {
        let completed: Vec<Value> = self
            .completed
            .iter()
            .map(|s| {
                Value::Doc(doc! {
                    "date" => s.date.as_str(),
                    "total_rows" => s.total_rows,
                    "new_records" => s.new_records,
                    "new_clusters" => s.new_clusters,
                    "quarantined" => s.quarantined,
                })
            })
            .collect();
        let per_snapshot: Vec<Value> = self
            .quarantine
            .per_snapshot
            .iter()
            .map(|(date, lines)| Value::Array(vec![date.as_str().into(), (*lines).into()]))
            .collect();
        Value::Doc(doc! {
            "format" => self.format,
            "policy" => self.policy.as_str(),
            "version" => self.version,
            "completed" => completed,
            "quarantine" => doc! {
                "lines_quarantined" => self.quarantine.lines_quarantined,
                "files_quarantined" => self.quarantine.files_quarantined,
                "remapped_headers" => self.quarantine.remapped_headers,
                "per_snapshot" => per_snapshot,
            },
        })
    }

    /// Read a manifest back. Key order and layout are free (earlier
    /// versions wrote it pretty-printed in field order) and a missing
    /// per-snapshot `quarantined` is 0 (older manifests predate it);
    /// anything else missing or ill-typed is an error naming the field.
    fn parse(text: &str) -> Result<Manifest, String> {
        fn count(doc: &Document, path: &str) -> Result<u64, String> {
            doc.get_u64(path)
                .ok_or_else(|| format!("`{path}` is not a count"))
        }
        fn small(doc: &Document, path: &str) -> Result<u32, String> {
            u32::try_from(count(doc, path)?).map_err(|_| format!("`{path}` is out of range"))
        }
        fn string(doc: &Document, path: &str) -> Result<String, String> {
            doc.get_str(path)
                .map(str::to_owned)
                .ok_or_else(|| format!("`{path}` is not a string"))
        }

        let value = json::parse(text.as_bytes()).map_err(|e| e.to_string())?;
        let root = value.as_doc().ok_or("manifest is not an object")?;
        let completed = root
            .get_array("completed")
            .ok_or("`completed` is not an array")?
            .iter()
            .map(|entry| {
                let entry = entry.as_doc().ok_or("`completed` entry is not an object")?;
                Ok(ImportStats {
                    date: string(entry, "date")?,
                    total_rows: count(entry, "total_rows")?,
                    new_records: count(entry, "new_records")?,
                    new_clusters: count(entry, "new_clusters")?,
                    quarantined: match entry.get("quarantined") {
                        None => 0,
                        Some(_) => count(entry, "quarantined")?,
                    },
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let per_snapshot = root
            .get_array("quarantine.per_snapshot")
            .ok_or("`quarantine.per_snapshot` is not an array")?
            .iter()
            .map(|pair| match pair.as_array() {
                Some([Value::Str(date), Value::Int(lines)]) if *lines >= 0 => {
                    Ok((date.clone(), lines.unsigned_abs()))
                }
                _ => Err("`per_snapshot` entry is not a [date, count] pair".to_owned()),
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Manifest {
            format: small(root, "format")?,
            policy: string(root, "policy")?,
            version: small(root, "version")?,
            completed,
            quarantine: QuarantineReport {
                lines_quarantined: count(root, "quarantine.lines_quarantined")?,
                files_quarantined: count(root, "quarantine.files_quarantined")?,
                remapped_headers: count(root, "quarantine.remapped_headers")?,
                per_snapshot,
            },
        })
    }
}

/// Everything produced by a resumable archive import.
#[derive(Debug)]
pub struct ResumeOutcome {
    /// The populated cluster store (finalized).
    pub store: ClusterStore,
    /// Per-snapshot import statistics for the *whole* archive —
    /// checkpointed snapshots first, then the ones imported by this
    /// call. Identical to the statistics of an uninterrupted run.
    pub stats: Vec<ImportStats>,
    /// Aggregate quarantine accounting across all runs.
    pub quarantine: QuarantineReport,
    /// Snapshots skipped because the checkpoint already covered them.
    pub resumed_snapshots: usize,
    /// Snapshots newly imported by this call.
    pub imported_snapshots: usize,
    /// Why an existing checkpoint was discarded, if one was.
    pub checkpoint_discarded: Option<String>,
}

/// Path of the manifest inside a state directory.
pub fn manifest_path(state_dir: &Path) -> PathBuf {
    state_dir.join(MANIFEST_FILE)
}

/// Path of the persisted store inside a state directory.
pub fn store_path(state_dir: &Path) -> PathBuf {
    state_dir.join(STORE_FILE)
}

/// Write `text` to `path` atomically (tmp + fsync + rename), with
/// every mutating syscall issued through `vfs`.
fn write_atomic(path: &Path, text: &str, vfs: &dyn Vfs) -> Result<(), TsvError> {
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("manifest.json");
    let tmp = path.with_file_name(format!("{file_name}.tmp"));
    let mut f = vfs.create(&tmp)?;
    f.write_all(text.as_bytes())?;
    f.sync_file()?;
    drop(f);
    vfs.rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        vfs.sync_dir(parent)?;
    }
    Ok(())
}

/// A restored checkpoint (when one exists) plus the reason a fresh
/// start was forced (when one was).
type Restored = (Option<(ClusterStore, Manifest)>, Option<String>);

/// Attempt to restore `(store, manifest)` from a state directory.
///
/// `Ok(None)` means no (intact) checkpoint exists — start fresh,
/// carrying the reason in the second tuple slot. Parameter mismatches
/// are a hard [`TsvError::Checkpoint`] error.
fn restore(state_dir: &Path, policy: DedupPolicy, version: u32) -> Result<Restored, TsvError> {
    let manifest_file = manifest_path(state_dir);
    if !manifest_file.exists() {
        return Ok((None, None));
    }
    let text = match std::fs::read_to_string(&manifest_file) {
        Ok(t) => t,
        Err(e) => return Ok((None, Some(format!("unreadable manifest: {e}")))),
    };
    let manifest = match Manifest::parse(&text) {
        Ok(m) => m,
        Err(e) => return Ok((None, Some(format!("corrupt manifest: {e}")))),
    };
    if manifest.format != MANIFEST_FORMAT {
        return Ok((
            None,
            Some(format!("manifest format {} unsupported", manifest.format)),
        ));
    }
    // Parameter drift fabricates inconsistent data: refuse loudly.
    if manifest.policy != policy.label() {
        return Err(TsvError::Checkpoint {
            message: format!(
                "checkpoint used policy {:?}, run requests {:?}",
                manifest.policy,
                policy.label()
            ),
        });
    }
    if manifest.version != version {
        return Err(TsvError::Checkpoint {
            message: format!(
                "checkpoint used version {}, run requests {version}",
                manifest.version
            ),
        });
    }
    let collection = match nc_docstore::persist::load("clusters", &store_path(state_dir)) {
        Ok(c) => c,
        Err(e) => return Ok((None, Some(format!("damaged store checkpoint: {e}")))),
    };
    let store = match ClusterStore::from_finalized_collection(collection) {
        Ok(store) => store,
        Err(e) => return Ok((None, Some(format!("inconsistent store checkpoint: {e}")))),
    };
    // A crash between the store rename and the manifest rename leaves
    // the store one snapshot ahead (see the module comment). The sums
    // are an exact test: a snapshot that added nothing leaves them equal
    // and re-imports to the same all-zero stats.
    let records: u64 = manifest.completed.iter().map(|s| s.new_records).sum();
    let clusters: u64 = manifest.completed.iter().map(|s| s.new_clusters).sum();
    if store.record_count() != records || store.cluster_count() as u64 != clusters {
        return Ok((
            None,
            Some("store checkpoint does not match manifest".to_owned()),
        ));
    }
    Ok((Some((store, manifest)), None))
}

/// Import an archive directory with a checkpoint after every snapshot.
///
/// On the first run, `state_dir` is created and populated. If the
/// process dies mid-import, calling this again with the same parameters
/// resumes after the last fully imported snapshot; the returned
/// [`ResumeOutcome::stats`] match an uninterrupted run exactly. The
/// snapshot being imported when the crash hit is re-imported from
/// scratch (imports are idempotent at snapshot granularity because the
/// store checkpoint is only advanced after a snapshot completes, and a
/// store file that got ahead of its manifest is discarded).
pub fn import_archive_dir_resumable(
    archive_dir: &Path,
    state_dir: &Path,
    policy: DedupPolicy,
    version: u32,
    options: &ImportOptions,
) -> Result<ResumeOutcome, TsvError> {
    import_archive_dir_resumable_with_vfs(archive_dir, state_dir, policy, version, options, &StdVfs)
}

/// [`import_archive_dir_resumable`], with every durability-critical
/// syscall (store checkpoint save, manifest tmp/fsync/rename) issued
/// through `vfs` — the injectable form the crash sweeps drive. A run
/// crashed at any syscall restarts under [`StdVfs`] and recovers to
/// the last completed checkpoint, never a torn in-between.
pub fn import_archive_dir_resumable_with_vfs(
    archive_dir: &Path,
    state_dir: &Path,
    policy: DedupPolicy,
    version: u32,
    options: &ImportOptions,
    vfs: &dyn Vfs,
) -> Result<ResumeOutcome, TsvError> {
    vfs.create_dir_all(state_dir)?;
    let (restored, checkpoint_discarded) = restore(state_dir, policy, version)?;
    let (mut store, mut stats, mut quarantine, resumed_snapshots) = match restored {
        Some((store, manifest)) => {
            let n = manifest.completed.len();
            (store, manifest.completed, manifest.quarantine, n)
        }
        None => (ClusterStore::new(), Vec::new(), QuarantineReport::default(), 0),
    };
    if resumed_snapshots == 0 {
        // Fresh run: truncate the quarantine sink (resumed runs append).
        if let Some(sink) = &options.quarantine_path {
            File::create(sink)?;
        }
    }

    let completed: std::collections::HashSet<String> =
        stats.iter().map(|s| s.date.clone()).collect();
    let mut imported_snapshots = 0;
    for path in tsv::archive_files(archive_dir)? {
        let date = tsv::date_from_file_name(&path).ok_or_else(|| TsvError::BadFileName {
            file: path.clone(),
        })?;
        if completed.contains(&date) {
            continue;
        }
        match tsv::read_snapshot_budgeted(&path, options, quarantine.events())? {
            Some(parsed) => {
                quarantine.lines_quarantined += parsed.quarantined;
                if parsed.remapped {
                    quarantine.remapped_headers += 1;
                }
                let mut st =
                    crate::import::import_snapshot(&mut store, &parsed.snapshot, policy, version);
                st.quarantined = parsed.quarantined;
                quarantine.per_snapshot.push((st.date.clone(), parsed.quarantined));
                stats.push(st);
            }
            None => {
                quarantine.files_quarantined += 1;
                if let Some(budget) = options.error_budget {
                    if quarantine.events() > budget {
                        return Err(TsvError::QuarantineBudget {
                            budget,
                            quarantined: quarantine.events(),
                        });
                    }
                }
                // A quarantined file is a terminal decision for this
                // run; record nothing in `completed` so a later run
                // with a repaired file picks it up.
                continue;
            }
        }
        imported_snapshots += 1;

        // Checkpoint: persist the store, then advance the manifest.
        // Order matters — a manifest must never promise snapshots the
        // store file does not contain. (The reverse tear, store ahead
        // of manifest, is caught by `restore`.)
        store.finalize();
        nc_docstore::persist::save_with(store.collection(), &store_path(state_dir), vfs).map_err(
            |e| TsvError::Checkpoint {
                message: format!("cannot persist store checkpoint: {e}"),
            },
        )?;
        let manifest = Manifest {
            format: MANIFEST_FORMAT,
            policy: policy.label().to_owned(),
            version,
            completed: stats.clone(),
            quarantine: quarantine.clone(),
        };
        let mut text = manifest.to_value().to_json();
        text.push('\n');
        write_atomic(&manifest_path(state_dir), &text, vfs)?;
    }
    store.finalize();
    Ok(ResumeOutcome {
        store,
        stats,
        quarantine,
        resumed_snapshots,
        imported_snapshots,
        checkpoint_discarded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_votergen::config::GeneratorConfig;
    use nc_votergen::registry::Registry;
    use nc_votergen::snapshot::standard_calendar;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("nc_ckpt_{}_{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn write_archive(dir: &Path, seed: u64, pop: usize, snapshots: usize) {
        let mut reg = Registry::new(GeneratorConfig {
            seed,
            initial_population: pop,
            ..Default::default()
        });
        for info in standard_calendar().iter().take(snapshots) {
            let snap = reg.generate_snapshot(info);
            tsv::write_snapshot(dir, &snap).unwrap();
        }
    }

    #[test]
    fn uninterrupted_run_checkpoints_and_matches_plain_import() {
        let archive = tmp_dir("plain_archive");
        let state = tmp_dir("plain_state");
        write_archive(&archive, 21, 60, 3);

        let mut direct = ClusterStore::new();
        let direct_stats =
            tsv::import_archive_dir(&mut direct, &archive, DedupPolicy::Trimmed, 1).unwrap();

        let out = import_archive_dir_resumable(
            &archive,
            &state,
            DedupPolicy::Trimmed,
            1,
            &ImportOptions::strict(),
        )
        .unwrap();
        assert_eq!(out.stats, direct_stats);
        assert_eq!(out.resumed_snapshots, 0);
        assert_eq!(out.imported_snapshots, 3);
        assert_eq!(out.store.record_count(), direct.record_count());
        assert!(manifest_path(&state).exists());
        assert!(store_path(&state).exists());

        std::fs::remove_dir_all(archive).unwrap();
        std::fs::remove_dir_all(state).unwrap();
    }

    #[test]
    fn interrupted_run_resumes_with_identical_stats() {
        let archive = tmp_dir("resume_archive");
        let state = tmp_dir("resume_state");
        write_archive(&archive, 22, 80, 4);

        // Reference: uninterrupted run over all four snapshots.
        let reference = import_archive_dir_resumable(
            &archive,
            &tmp_dir("resume_ref_state"),
            DedupPolicy::Trimmed,
            1,
            &ImportOptions::strict(),
        )
        .unwrap();

        // "Interrupted" run: import an archive that only contains the
        // first two snapshots, then the full archive resumes on top.
        let partial = tmp_dir("resume_partial");
        std::fs::create_dir_all(&partial).unwrap();
        let mut files = tsv::archive_files(&archive).unwrap();
        files.truncate(2);
        for f in &files {
            std::fs::copy(f, partial.join(f.file_name().unwrap())).unwrap();
        }
        let first = import_archive_dir_resumable(
            &partial,
            &state,
            DedupPolicy::Trimmed,
            1,
            &ImportOptions::strict(),
        )
        .unwrap();
        assert_eq!(first.imported_snapshots, 2);

        let second = import_archive_dir_resumable(
            &archive,
            &state,
            DedupPolicy::Trimmed,
            1,
            &ImportOptions::strict(),
        )
        .unwrap();
        assert_eq!(second.resumed_snapshots, 2);
        assert_eq!(second.imported_snapshots, 2);
        assert_eq!(second.checkpoint_discarded, None);
        assert_eq!(second.stats, reference.stats, "resumed stats must be identical");
        assert_eq!(second.store.record_count(), reference.store.record_count());
        assert_eq!(second.store.cluster_count(), reference.store.cluster_count());

        for d in [archive, state, partial, tmp_dir("resume_ref_state")] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    #[test]
    fn damaged_store_checkpoint_restarts_cleanly() {
        let archive = tmp_dir("damage_archive");
        let state = tmp_dir("damage_state");
        write_archive(&archive, 23, 50, 2);
        let first = import_archive_dir_resumable(
            &archive,
            &state,
            DedupPolicy::Trimmed,
            1,
            &ImportOptions::strict(),
        )
        .unwrap();

        // Tear the persisted store mid-file.
        let store_file = store_path(&state);
        let bytes = std::fs::read(&store_file).unwrap();
        std::fs::write(&store_file, &bytes[..bytes.len() / 2]).unwrap();

        let second = import_archive_dir_resumable(
            &archive,
            &state,
            DedupPolicy::Trimmed,
            1,
            &ImportOptions::strict(),
        )
        .unwrap();
        assert!(second.checkpoint_discarded.is_some(), "tear must be noticed");
        assert_eq!(second.resumed_snapshots, 0, "restart from scratch");
        assert_eq!(second.stats, first.stats, "restart result is identical");

        std::fs::remove_dir_all(archive).unwrap();
        std::fs::remove_dir_all(state).unwrap();
    }

    #[test]
    fn unreadable_or_ill_typed_manifest_restarts_cleanly() {
        let archive = tmp_dir("badmanifest_archive");
        let state = tmp_dir("badmanifest_state");
        write_archive(&archive, 26, 40, 2);
        let run = || {
            import_archive_dir_resumable(
                &archive,
                &state,
                DedupPolicy::Trimmed,
                1,
                &ImportOptions::strict(),
            )
            .unwrap()
        };
        let first = run();
        let good = std::fs::read_to_string(manifest_path(&state)).unwrap();
        for bad in [
            "not json".to_owned(),
            good[..good.len() / 2].to_owned(),
            good.replace("\"version\":1", "\"version\":\"1\""),
            good.replace("\"completed\":", "\"finished\":"),
            good.replace("\"new_records\":", "\"new_records\":-"),
        ] {
            assert_ne!(bad, good);
            std::fs::write(manifest_path(&state), &bad).unwrap();
            let again = run();
            let why = again.checkpoint_discarded.expect("damage must be noticed");
            assert!(why.starts_with("corrupt manifest: "), "{why}");
            assert_eq!(again.resumed_snapshots, 0, "restart from scratch");
            assert_eq!(again.stats, first.stats);
        }
        std::fs::remove_dir_all(archive).unwrap();
        std::fs::remove_dir_all(state).unwrap();
    }

    #[test]
    fn manifest_round_trips_and_reads_the_earlier_layout() {
        let manifest = Manifest {
            format: MANIFEST_FORMAT,
            policy: "trimming".to_owned(),
            version: 3,
            completed: vec![
                ImportStats {
                    date: "2008-11-04".to_owned(),
                    total_rows: 50,
                    new_records: 50,
                    new_clusters: 50,
                    quarantined: 0,
                },
                ImportStats {
                    date: "2009-01-01".to_owned(),
                    total_rows: 52,
                    new_records: 4,
                    new_clusters: 1,
                    quarantined: 0,
                },
            ],
            quarantine: QuarantineReport {
                lines_quarantined: 2,
                files_quarantined: 1,
                remapped_headers: 1,
                per_snapshot: vec![("2008-11-04".to_owned(), 2), ("2009-01-01".to_owned(), 0)],
            },
        };
        assert_eq!(
            Manifest::parse(&manifest.to_value().to_json()).as_ref(),
            Ok(&manifest)
        );

        // As written before this module rendered its own JSON: pretty,
        // keys in field order, tuples as two-element arrays, and no
        // per-snapshot `quarantined` yet.
        let earlier = r#"{
  "format": 1,
  "policy": "trimming",
  "version": 3,
  "completed": [
    {
      "date": "2008-11-04",
      "total_rows": 50,
      "new_records": 50,
      "new_clusters": 50
    },
    {
      "date": "2009-01-01",
      "total_rows": 52,
      "new_records": 4,
      "new_clusters": 1
    }
  ],
  "quarantine": {
    "lines_quarantined": 2,
    "files_quarantined": 1,
    "remapped_headers": 1,
    "per_snapshot": [
      [
        "2008-11-04",
        2
      ],
      [
        "2009-01-01",
        0
      ]
    ]
  }
}"#;
        assert_eq!(Manifest::parse(earlier), Ok(manifest));
    }

    #[test]
    fn write_atomic_crash_sweep_leaves_old_or_new_bit_exactly() {
        use nc_vfs::fault::FaultVfs;

        let dir = tmp_dir("atomic_sweep");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manifest.json");
        let (old_text, new_text) = ("{\"v\":1}\n", "{\"v\":2,\"grown\":true}\n");

        write_atomic(&path, old_text, &StdVfs).unwrap();
        let recorder = FaultVfs::recorder();
        write_atomic(&path, new_text, &recorder).unwrap();
        let total = recorder.ops();
        let rename_idx = recorder
            .trace()
            .iter()
            .find(|r| r.op == "rename")
            .expect("atomic write must rename")
            .index;

        for k in 0..total {
            std::fs::write(&path, old_text).unwrap();
            let _ = std::fs::remove_file(dir.join("manifest.json.tmp"));
            let vfs = FaultVfs::crash_at(k);
            write_atomic(&path, new_text, &vfs).unwrap_err();
            let after = std::fs::read_to_string(&path).unwrap();
            if k <= rename_idx {
                assert_eq!(after, old_text, "crash at {k}: rename never ran");
            } else {
                assert_eq!(after, new_text, "crash at {k}: rename committed");
            }
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn crash_at_every_syscall_then_resume_matches_uninterrupted_run() {
        use nc_vfs::fault::FaultVfs;

        let archive = tmp_dir("sweep_archive");
        write_archive(&archive, 25, 50, 2);
        let reference = import_archive_dir_resumable(
            &archive,
            &tmp_dir("sweep_ref_state"),
            DedupPolicy::Trimmed,
            1,
            &ImportOptions::strict(),
        )
        .unwrap();

        // Learn the syscall trace of a fresh run, fault-free.
        let recorder = FaultVfs::recorder();
        import_archive_dir_resumable_with_vfs(
            &archive,
            &tmp_dir("sweep_trace_state"),
            DedupPolicy::Trimmed,
            1,
            &ImportOptions::strict(),
            &recorder,
        )
        .unwrap();
        let total = recorder.ops();
        assert!(total > 4, "two snapshots must checkpoint twice: {total} ops");

        let mut discarded = Vec::new();
        for k in 0..total {
            let state = tmp_dir("sweep_state");
            let vfs = FaultVfs::crash_at(k);
            import_archive_dir_resumable_with_vfs(
                &archive,
                &state,
                DedupPolicy::Trimmed,
                1,
                &ImportOptions::strict(),
                &vfs,
            )
            .unwrap_err();
            assert!(vfs.crashed(), "crash point {k} must have fired");

            // A new process over whatever hit the disk resumes (or
            // restarts) and converges on the uninterrupted result.
            let resumed = import_archive_dir_resumable(
                &archive,
                &state,
                DedupPolicy::Trimmed,
                1,
                &ImportOptions::strict(),
            )
            .unwrap();
            assert_eq!(resumed.stats, reference.stats, "crash at {k}");
            assert_eq!(
                resumed.store.record_count(),
                reference.store.record_count(),
                "crash at {k}"
            );
            discarded.extend(resumed.checkpoint_discarded);
            std::fs::remove_dir_all(&state).unwrap();
        }
        // The sweep crosses the window between the two renames, where
        // the store file is one snapshot ahead of the manifest.
        assert!(
            discarded.iter().any(|why| why == "store checkpoint does not match manifest"),
            "{discarded:?}"
        );
        for d in [archive, tmp_dir("sweep_ref_state"), tmp_dir("sweep_trace_state")] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    #[test]
    fn parameter_drift_is_rejected() {
        let archive = tmp_dir("drift_archive");
        let state = tmp_dir("drift_state");
        write_archive(&archive, 24, 40, 1);
        import_archive_dir_resumable(
            &archive,
            &state,
            DedupPolicy::Trimmed,
            1,
            &ImportOptions::strict(),
        )
        .unwrap();
        let err = import_archive_dir_resumable(
            &archive,
            &state,
            DedupPolicy::Exact,
            1,
            &ImportOptions::strict(),
        )
        .unwrap_err();
        assert!(matches!(err, TsvError::Checkpoint { .. }), "{err}");
        let err = import_archive_dir_resumable(
            &archive,
            &state,
            DedupPolicy::Trimmed,
            2,
            &ImportOptions::strict(),
        )
        .unwrap_err();
        assert!(matches!(err, TsvError::Checkpoint { .. }), "{err}");

        std::fs::remove_dir_all(archive).unwrap();
        std::fs::remove_dir_all(state).unwrap();
    }
}
