//! Helpers shared by the shard engine's integration suites: scratch
//! directories, a small generated TSV archive, an engine configuration
//! and a byte-exact fingerprint of everything an engine holds.

use std::fs;
use std::path::{Path, PathBuf};

use nc_core::import::ImportStats;
use nc_core::record::DedupPolicy;
use nc_core::tsv;
use nc_shard::{ShardEngine, ShardEngineConfig};
use nc_votergen::config::GeneratorConfig;
use nc_votergen::registry::Registry;
use nc_votergen::snapshot::standard_calendar;

/// Snapshots in every archive [`write_archive`] produces.
pub const SNAPSHOTS: usize = 3;

/// A fresh, empty scratch directory (per process, so suites running in
/// separate test binaries never collide).
pub fn tmp_dir(name: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("nc_shard_test_{name}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Write a small archive of TSV snapshot files; returns their dates.
pub fn write_archive(dir: &Path, seed: u64, population: usize) -> Vec<String> {
    let mut registry = Registry::new(GeneratorConfig {
        seed,
        initial_population: population,
        ..Default::default()
    });
    standard_calendar()
        .iter()
        .take(SNAPSHOTS)
        .map(|info| {
            let snap = registry.generate_snapshot(info);
            tsv::write_snapshot(dir, &snap).unwrap();
            snap.date.clone()
        })
        .collect()
}

/// A scratch copy of the archive's first `n` snapshot files — the
/// archive as an interrupted run saw it.
pub fn archive_prefix(archive: &Path, n: usize, name: &str) -> PathBuf {
    let partial = tmp_dir(name);
    for path in tsv::archive_files(archive).unwrap().into_iter().take(n) {
        fs::copy(&path, partial.join(path.file_name().unwrap())).unwrap();
    }
    partial
}

/// Trimmed-policy, version-1 engine configuration with the given WAL
/// segment rotation bound.
pub fn config(shards: usize, segment_bytes: u64) -> ShardEngineConfig {
    ShardEngineConfig {
        segment_bytes,
        ..ShardEngineConfig::new(shards, DedupPolicy::Trimmed, 1)
    }
}

/// Everything observable about an engine's state, byte-exact.
#[derive(Debug, PartialEq)]
pub struct Fingerprint {
    pub cluster_ids: Vec<String>,
    pub rows: Vec<Vec<String>>,
    pub record_count: u64,
    pub rows_imported: u64,
    pub completed: Vec<ImportStats>,
}

pub fn fingerprint(engine: &ShardEngine) -> Fingerprint {
    let store = engine.store();
    let cluster_ids: Vec<String> = store.cluster_ids().into_iter().map(|(n, _)| n).collect();
    let rows = cluster_ids
        .iter()
        .map(|n| store.cluster_rows(n).iter().map(|r| r.to_tsv()).collect())
        .collect();
    Fingerprint {
        cluster_ids,
        rows,
        record_count: store.record_count(),
        rows_imported: store.rows_imported(),
        completed: engine.completed().to_vec(),
    }
}
