//! Work with an on-disk TSV archive and repair unsound clusters.
//!
//! This example exercises the two workflow pieces around the core
//! pipeline: (1) the register's native interchange format — snapshots
//! are written as `VR_Snapshot_<date>.tsv` files and re-imported from
//! the archive directory — and (2) Section 3.1.1's remove/repair
//! actions driven by the plausibility scores.
//!
//! Run with:
//! ```sh
//! cargo run --release -p nc-suite --example archive_and_repair
//! ```

use nc_suite::core::cluster::ClusterStore;
use nc_suite::core::plausibility::PlausibilityScorer;
use nc_suite::core::record::DedupPolicy;
use nc_suite::core::repair::{filter_clusters, repair_all};
use nc_suite::core::tsv;
use nc_suite::votergen::config::GeneratorConfig;
use nc_suite::votergen::registry::Registry;
use nc_suite::votergen::snapshot::standard_calendar;

fn main() {
    // Simulate a registry with aggressive NCID reuse so the archive
    // contains unsound clusters worth repairing.
    let mut registry = Registry::new(GeneratorConfig {
        seed: 31,
        initial_population: 800,
        removal_rate: 0.10,
        removed_retention_years: 1,
        ncid_reuse_rate: 0.5,
        ..Default::default()
    });

    // 1. Publish the first ten snapshots as TSV files.
    let dir = std::env::temp_dir().join("ncvoter_archive_example");
    let _ = std::fs::remove_dir_all(&dir);
    let calendar = standard_calendar();
    for info in calendar.iter().take(10) {
        let snapshot = registry.generate_snapshot(info);
        let path = tsv::write_snapshot(&dir, &snapshot).expect("write snapshot");
        println!("wrote {} ({} rows)", path.display(), snapshot.rows.len());
    }

    // 2. Import the archive directory (files are sorted by date, so
    //    belatedly published snapshots would land in the right order).
    let mut store = ClusterStore::new();
    let stats = tsv::import_archive_dir(&mut store, &dir, DedupPolicy::Trimmed, 1)
        .expect("import archive");
    println!(
        "\nimported {} snapshots: {} rows -> {} records in {} clusters",
        stats.len(),
        store.rows_imported(),
        store.record_count(),
        store.cluster_count()
    );

    // 3. Score plausibility and apply the two §3.1.1 actions.
    let scorer = PlausibilityScorer::new();
    let clusters: Vec<(String, Vec<_>)> = store
        .iter_clusters()
        .map(|(ncid, rows)| (ncid.to_owned(), rows.to_vec()))
        .collect();

    let known_unsound = registry.unsound_ncids();
    println!(
        "simulator injected {} reused NCIDs (ground-truth unsound clusters)",
        known_unsound.len()
    );

    // Remove: drop clusters below a plausibility threshold.
    let (kept, removed) = filter_clusters(&scorer, clusters.clone(), 0.8);
    println!("\nremove action : {removed} clusters dropped, {} kept", kept.len());

    // Repair: split incoherent clusters into plausibility components.
    let (repaired, splits) = repair_all(&scorer, clusters, 0.8);
    println!(
        "repair action : {splits} clusters split -> {} clusters total (no record lost)",
        repaired.len()
    );

    // The repaired gold standard keeps every record.
    let records_after: usize = repaired.iter().map(|(_, r)| r.len()).sum();
    assert_eq!(records_after as u64, store.record_count());
    println!("\nrecords before repair: {}", store.record_count());
    println!("records after  repair: {records_after} (identical — repair only relabels)");

    std::fs::remove_dir_all(&dir).ok();
}
