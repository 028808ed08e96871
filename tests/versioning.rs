//! Reproducibility tests: version reconstruction and snapshot
//! restriction over a growing dataset (Section 5).

use std::collections::HashSet;

use nc_suite::core::pipeline::{GenerationConfig, TestDataGenerator};
use nc_suite::core::record::DedupPolicy;
use nc_suite::core::version::VersionManager;
use nc_suite::votergen::config::GeneratorConfig;

fn incremental(seed: u64, snapshots: usize) -> nc_suite::core::pipeline::GenerationOutcome {
    TestDataGenerator::run_incremental(GenerationConfig {
        generator: GeneratorConfig {
            seed,
            initial_population: 300,
            ..Default::default()
        },
        policy: DedupPolicy::Trimmed,
        snapshots,
    })
}

/// The dataset grows monotonically: every version's record set is a
/// subset of every later version's (Section 5.1.2).
#[test]
fn versions_grow_monotonically() {
    let outcome = incremental(1, 8);
    let history = outcome.versions.history();
    assert_eq!(history.len(), 8);
    for w in history.windows(2) {
        assert!(w[0].records_total <= w[1].records_total);
        assert!(w[0].clusters_total <= w[1].clusters_total);
    }
}

/// Reconstructing version v yields exactly the totals recorded when v
/// was published.
#[test]
fn reconstruction_matches_published_totals() {
    let outcome = incremental(2, 6);
    for v in outcome.versions.history() {
        let rec = outcome.versions.reconstruct(&outcome.store, v.number);
        let records: u64 = rec.iter().map(|(_, rows)| rows.len() as u64).sum();
        assert_eq!(records, v.records_total, "version {}", v.number);
        assert_eq!(rec.len() as u64, v.clusters_total, "version {}", v.number);
    }
}

/// Reconstructed versions are nested: every record of version v exists
/// in version v+1.
#[test]
fn reconstructed_versions_are_nested() {
    let outcome = incremental(3, 5);
    let fingerprint = |rows: &[(String, Vec<nc_suite::votergen::schema::Row>)]| -> HashSet<String> {
        rows.iter()
            .flat_map(|(ncid, rs)| {
                rs.iter()
                    .map(move |r| format!("{ncid}|{}", r.as_tsv()))
            })
            .collect()
    };
    let mut previous: Option<HashSet<String>> = None;
    for v in 1..=5u32 {
        let cur = fingerprint(&outcome.versions.reconstruct(&outcome.store, v));
        if let Some(prev) = &previous {
            assert!(prev.is_subset(&cur), "version {} not nested", v);
        }
        previous = Some(cur);
    }
}

/// Restricting to all snapshots yields the full dataset; restricting to
/// one yields a strict subset containing every record of that snapshot.
#[test]
fn snapshot_restriction_bounds() {
    let outcome = incremental(4, 6);
    let all_dates: HashSet<String> = outcome.imports.iter().map(|s| s.date.clone()).collect();
    let full = VersionManager::restrict_to_snapshots(&outcome.store, &all_dates);
    let full_records: u64 = full.iter().map(|(_, r)| r.len() as u64).sum();
    assert_eq!(full_records, outcome.store.record_count());

    let first: HashSet<String> = [outcome.imports[0].date.clone()].into();
    let sub = VersionManager::restrict_to_snapshots(&outcome.store, &first);
    let sub_records: u64 = sub.iter().map(|(_, r)| r.len() as u64).sum();
    assert!(sub_records < full_records);
    // Every initial-population cluster appears in the first snapshot.
    assert!(sub.len() >= 300);
}

/// Per-snapshot insert counters in the cluster meta data add up to the
/// cluster's record count (the reconstruction bookkeeping of §5.1.2).
#[test]
fn snapshot_counters_are_consistent() {
    let outcome = incremental(5, 5);
    let store = &outcome.store;
    for (ncid, _) in store.cluster_ids().into_iter().take(50) {
        let doc = store.cluster_doc(&ncid).expect("cluster doc");
        let counts = doc
            .get_path("meta.snapshot_counts")
            .and_then(|v| v.as_doc())
            .expect("snapshot counts present");
        let total: i64 = counts.iter().filter_map(|(_, v)| v.as_i64()).sum();
        let records = store.cluster_rows(&ncid).len() as i64;
        assert_eq!(total, records, "cluster {ncid}");
    }
}
