//! Fault-injection tests across the ingest and persistence layers:
//! quarantine-mode import against corrupted TSV archives and crash-safe
//! store persistence under deterministic chaos. (Interrupted-and-resumed
//! quarantine ingest is the shard engine's:
//! `crates/shard/tests/quarantine.rs`.)

use std::path::{Path, PathBuf};

use nc_suite::core::cluster::ClusterStore;
use nc_suite::core::record::DedupPolicy;
use nc_suite::core::tsv::{self, ImportOptions, TsvError};
use nc_suite::docstore::faults::{self, Fault};
use nc_suite::docstore::persist;
use nc_suite::votergen::config::GeneratorConfig;
use nc_suite::votergen::registry::Registry;
use nc_suite::votergen::snapshot::standard_calendar;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nc_faultinj_{}_{}", std::process::id(), name));
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

/// Corrupt the archive's second snapshot file: destroy one data line in
/// place and append a torn partial line. Returns `(dirty_dir,
/// expected_dir)` where the expected archive holds the same files with
/// the destroyed line removed — what a quarantine run should import.
fn corrupted_archive(seed: u64) -> (PathBuf, PathBuf) {
    let dirty = tmp_dir(&format!("dirty_{seed}"));
    write_archive(&dirty, seed, 70, 2);
    let expected = tmp_dir(&format!("expected_{seed}"));
    std::fs::create_dir_all(&expected).unwrap();

    let files = tsv::archive_files(&dirty).unwrap();
    std::fs::copy(&files[0], expected.join(files[0].file_name().unwrap())).unwrap();

    let text = std::fs::read_to_string(&files[1]).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    let victim = lines.len() / 2; // a data line well inside the file
    let mut clean: Vec<&str> = lines.clone();
    clean.remove(victim);
    std::fs::write(
        expected.join(files[1].file_name().unwrap()),
        clean.join("\n") + "\n",
    )
    .unwrap();

    lines[victim] = "###corrupted-sector###"; // no tabs: field-count mismatch
    std::fs::write(&files[1], lines.join("\n") + "\n").unwrap();
    // A crash mid-append leaves a torn line without a newline.
    faults::inject(&files[1], &Fault::AppendPartial(b"TORN\tPARTIAL".to_vec())).unwrap();

    (dirty, expected)
}

/// Quarantine-mode import of a corrupted archive equals a strict import
/// of the same archive with the corrupted rows removed.
#[test]
fn quarantine_run_equals_clean_run_minus_quarantined_rows() {
    let (dirty, expected) = corrupted_archive(41);
    let sink = dirty.join("quarantine.tsv");

    let mut dirty_store = ClusterStore::new();
    let outcome = tsv::import_archive_dir_with(
        &mut dirty_store,
        &dirty,
        DedupPolicy::Trimmed,
        1,
        &ImportOptions::quarantine().with_sink(&sink),
    )
    .unwrap();

    let mut clean_store = ClusterStore::new();
    let clean_stats =
        tsv::import_archive_dir(&mut clean_store, &expected, DedupPolicy::Trimmed, 1).unwrap();

    // Two bad lines diverted: the destroyed line and the torn tail.
    assert_eq!(outcome.quarantine.lines_quarantined, 2);
    assert_eq!(outcome.quarantine.files_quarantined, 0);
    assert_eq!(outcome.stats[1].quarantined, 2);

    // The surviving rows import exactly like the clean archive.
    assert_eq!(outcome.stats[0], clean_stats[0]);
    assert_eq!(outcome.stats[1].total_rows, clean_stats[1].total_rows);
    assert_eq!(outcome.stats[1].new_records, clean_stats[1].new_records);
    assert_eq!(outcome.stats[1].new_clusters, clean_stats[1].new_clusters);
    assert_eq!(dirty_store.record_count(), clean_store.record_count());
    assert_eq!(dirty_store.cluster_count(), clean_store.cluster_count());

    // The sink holds both raw lines with provenance comments.
    let text = std::fs::read_to_string(&sink).unwrap();
    assert!(text.contains("###corrupted-sector###"), "{text}");
    assert!(text.contains("TORN\tPARTIAL"), "{text}");
    assert!(text.contains("field-count-mismatch"), "{text}");

    std::fs::remove_dir_all(dirty).unwrap();
    std::fs::remove_dir_all(expected).unwrap();
}

/// Strict mode keeps the historical fail-fast contract on the same
/// corruption.
#[test]
fn strict_mode_still_fails_fast() {
    let (dirty, expected) = corrupted_archive(42);
    let mut store = ClusterStore::new();
    let err =
        tsv::import_archive_dir(&mut store, &dirty, DedupPolicy::Trimmed, 1).unwrap_err();
    assert!(matches!(err, TsvError::BadLine { .. }), "{err}");
    std::fs::remove_dir_all(dirty).unwrap();
    std::fs::remove_dir_all(expected).unwrap();
}

/// The error budget turns systematic corruption into a hard failure.
#[test]
fn error_budget_aborts_broken_archive() {
    let (dirty, expected) = corrupted_archive(43);
    let mut store = ClusterStore::new();
    let err = tsv::import_archive_dir_with(
        &mut store,
        &dirty,
        DedupPolicy::Trimmed,
        1,
        &ImportOptions::quarantine().with_budget(1),
    )
    .unwrap_err();
    assert!(matches!(err, TsvError::QuarantineBudget { budget: 1, .. }), "{err}");
    std::fs::remove_dir_all(dirty).unwrap();
    std::fs::remove_dir_all(expected).unwrap();
}

/// Kill-test: a persisted store truncated at *any* byte offset never
/// panics on salvage and never loses more than the final partial
/// document.
#[test]
fn truncated_store_salvages_at_every_offset() {
    // Small store: the loop below salvages at every single byte offset,
    // so the file must stay small for the exhaustive sweep to be cheap.
    let archive = tmp_dir("trunc_archive");
    write_archive(&archive, 44, 8, 1);
    let mut store = ClusterStore::new();
    tsv::import_archive_dir(&mut store, &archive, DedupPolicy::Trimmed, 1).unwrap();

    let saved = tmp_dir("trunc_saved");
    std::fs::create_dir_all(&saved).unwrap();
    let full_path = saved.join("store.jsonl");
    persist::save(&store.to_collection(), &full_path).unwrap();
    let full = std::fs::read(&full_path).unwrap();
    let docs_total = store.cluster_count();

    // Every offset, exhaustively — this is the durability contract.
    let cut_path = saved.join("cut.jsonl");
    let mut prev_recovered = 0usize;
    for k in 0..=full.len() {
        std::fs::write(&cut_path, &full[..k]).unwrap();
        let s = persist::salvage("clusters", &cut_path).unwrap();
        assert!(
            s.report.docs_recovered <= docs_total,
            "offset {k}: recovered more than saved"
        );
        assert!(
            s.report.docs_recovered + 1 >= prev_recovered,
            "offset {k}: salvage went backwards"
        );
        assert!(s.report.lines_dropped <= 1, "offset {k}: more than one line lost");
        prev_recovered = s.report.docs_recovered;
    }
    // The untouched file is clean and complete.
    let s = persist::salvage("clusters", &full_path).unwrap();
    assert!(s.report.is_clean());
    assert_eq!(s.report.docs_recovered, docs_total);

    std::fs::remove_dir_all(archive).unwrap();
    std::fs::remove_dir_all(saved).unwrap();
}

/// Deterministic chaos (bit flips, deletions, torn appends) never makes
/// salvage panic, and it recovers a consistent prefix.
#[test]
fn chaos_on_persisted_store_never_panics() {
    let archive = tmp_dir("chaos_archive");
    write_archive(&archive, 45, 25, 1);
    let mut store = ClusterStore::new();
    tsv::import_archive_dir(&mut store, &archive, DedupPolicy::Trimmed, 1).unwrap();

    let dir = tmp_dir("chaos_store");
    std::fs::create_dir_all(&dir).unwrap();
    let pristine = dir.join("pristine.jsonl");
    persist::save(&store.to_collection(), &pristine).unwrap();
    let docs_total = store.cluster_count();

    let damaged = dir.join("damaged.jsonl");
    for seed in 0..16u64 {
        std::fs::copy(&pristine, &damaged).unwrap();
        let applied = faults::chaos(&damaged, seed, 3).unwrap();
        let s = persist::salvage("clusters", &damaged).unwrap();
        assert!(
            s.report.docs_recovered <= docs_total,
            "seed {seed}: {applied:?}"
        );
        // Strict load must flag damage (or the faults happened to be
        // benign) — but never panic.
        let _ = persist::load("clusters", &damaged);
    }

    // Sanity for the harness itself: same seed, same faults.
    std::fs::copy(&pristine, &damaged).unwrap();
    let a = faults::chaos(&damaged, 7, 4).unwrap();
    std::fs::copy(&pristine, &damaged).unwrap();
    let b = faults::chaos(&damaged, 7, 4).unwrap();
    assert_eq!(a, b);

    std::fs::remove_dir_all(archive).unwrap();
    std::fs::remove_dir_all(dir).unwrap();
}

/// `DocStore::save_all` is crash-safe as a *batch*: every collection
/// file is written atomically and the directory entry batch is fsynced
/// afterwards, so damage to any one saved file never takes the other
/// collections with it — `salvage_all` recovers them bit-intact.
#[test]
fn save_all_batch_survives_chaos_on_any_file() {
    use nc_suite::docstore::store::DocStore;

    let archive = tmp_dir("saveall_archive");
    write_archive(&archive, 47, 25, 1);
    let mut store = ClusterStore::new();
    tsv::import_archive_dir(&mut store, &archive, DedupPolicy::Trimmed, 1).unwrap();

    let docs = DocStore::new();
    for (i, (ncid, rows)) in store.iter_clusters().enumerate() {
        let name = format!("part{}", i % 3);
        let coll = docs.collection(&name);
        let mut coll = coll.write().unwrap();
        for row in rows {
            coll.insert(nc_suite::docstore::doc! { "ncid" => ncid, "tsv" => row.to_tsv() });
        }
    }
    let saved = tmp_dir("saveall_dir");
    docs.save_all(&saved).unwrap();
    let sizes: Vec<usize> = (0..3)
        .map(|i| docs.collection(&format!("part{i}")).read().unwrap().len())
        .collect();

    for victim in 0..3usize {
        for seed in 0..8u64 {
            let dir = tmp_dir("saveall_damaged");
            std::fs::create_dir_all(&dir).unwrap();
            for i in 0..3 {
                let name = format!("part{i}.jsonl");
                std::fs::copy(saved.join(&name), dir.join(&name)).unwrap();
            }
            faults::chaos(&dir.join(format!("part{victim}.jsonl")), seed, 3).unwrap();
            let (salvaged, reports) = DocStore::salvage_all(&dir).unwrap();
            for (name, report) in &reports {
                let i: usize = name.strip_prefix("part").unwrap().parse().unwrap();
                if i != victim {
                    assert!(report.is_clean(), "undamaged {name} must load clean");
                    assert_eq!(salvaged.collection(name).read().unwrap().len(), sizes[i]);
                }
            }
            std::fs::remove_dir_all(dir).unwrap();
        }
    }

    std::fs::remove_dir_all(archive).unwrap();
    std::fs::remove_dir_all(saved).unwrap();
}
