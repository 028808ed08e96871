//! Build a test dataset end to end, compare all four dedup policies
//! (the paper's Table 2), publish incremental versions and persist the
//! cluster store to disk.
//!
//! Run with:
//! ```sh
//! cargo run --release -p nc-suite --example build_test_dataset [population] [snapshots]
//! ```

use std::collections::HashSet;

use nc_suite::core::pipeline::{GenerationConfig, TestDataGenerator};
use nc_suite::core::record::DedupPolicy;
use nc_suite::core::stats;
use nc_suite::docstore::persist;
use nc_suite::votergen::config::GeneratorConfig;

fn main() {
    let mut args = std::env::args().skip(1);
    let population: usize = args
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or(1_500);
    let snapshots: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(10);

    // --- Table 2: one run per dedup policy over the same archive. ---
    println!("== dedup policies (population {population}, {snapshots} snapshots) ==");
    println!(
        "{:<12} {:>9} {:>10} {:>8} {:>6} {:>10} {:>8}",
        "policy", "records", "dup pairs", "avg", "max", "removed", "rate"
    );
    for policy in DedupPolicy::ALL {
        let outcome = TestDataGenerator::run(GenerationConfig {
            generator: GeneratorConfig {
                seed: 7,
                initial_population: population,
                ..Default::default()
            },
            policy,
            snapshots,
        });
        let row = stats::generation_table_row(&outcome.store, policy.label());
        println!(
            "{:<12} {:>9} {:>10} {:>8.2} {:>6} {:>10} {:>7.1}%",
            row.policy,
            row.records,
            row.duplicate_pairs,
            row.avg_cluster_size,
            row.max_cluster_size,
            row.removed_records,
            100.0 * row.removed_record_rate
        );
    }

    // --- Incremental build with per-snapshot versions (Figure 2). ---
    let outcome = TestDataGenerator::run_incremental(GenerationConfig {
        generator: GeneratorConfig {
            seed: 7,
            initial_population: population,
            ..Default::default()
        },
        policy: DedupPolicy::Trimmed,
        snapshots,
    });

    println!("\n== version history ==");
    for v in outcome.versions.history() {
        println!(
            "version {:>2}: {:>8} records, {:>7} clusters (snapshots: {})",
            v.number,
            v.records_total,
            v.clusters_total,
            v.snapshots.join(", ")
        );
    }

    // Reconstruct an old version and restrict to a snapshot subset.
    let v1 = outcome.versions.reconstruct(&outcome.store, 1);
    let v1_records: usize = v1.iter().map(|(_, r)| r.len()).sum();
    println!("\nreconstructed version 1: {v1_records} records in {} clusters", v1.len());

    if let Some(first) = outcome.imports.first() {
        let only: HashSet<String> = [first.date.clone()].into();
        let sub = nc_suite::core::version::VersionManager::restrict_to_snapshots(
            &outcome.store,
            &only,
        );
        let n: usize = sub.iter().map(|(_, r)| r.len()).sum();
        println!("records contained in snapshot {}: {n}", first.date);
    }

    // --- Persist the cluster documents to disk. ---
    let dir = std::env::temp_dir().join("ncvoter_testdata_example");
    std::fs::create_dir_all(&dir).expect("create output dir");
    let path = dir.join("clusters.jsonl");
    persist::save(&outcome.store.to_collection(), &path).expect("persist clusters");
    let size = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!("\npersisted cluster store to {} ({size} bytes)", path.display());

    let reloaded = persist::load("clusters", &path).expect("reload clusters");
    assert_eq!(reloaded.len(), outcome.store.cluster_count());
    println!("reloaded {} cluster documents — round trip OK", reloaded.len());
}
