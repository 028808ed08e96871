//! The end-to-end generation pipeline: simulate (or read) an archive,
//! import it under a dedup policy, publish a version.

use std::collections::HashSet;
use std::path::Path;

use nc_votergen::config::GeneratorConfig;
use nc_votergen::registry::Registry;
use nc_votergen::snapshot::standard_calendar;

use crate::cluster::ClusterStore;
use crate::heterogeneity::HeterogeneityScorer;
use crate::import::{import_archive_streaming, ImportStats};
use crate::plausibility::PlausibilityScorer;
use crate::record::DedupPolicy;
use crate::scoring::{self, ClusterScore};
use crate::tsv::{self, ImportOptions, QuarantineReport, TsvError};
use crate::version::VersionManager;

pub use crate::scoring::ScoringConfig;

/// Configuration of one full generation run.
#[derive(Debug, Clone)]
pub struct GenerationConfig {
    /// The synthetic-archive generator configuration.
    pub generator: GeneratorConfig,
    /// Dedup policy applied during import.
    pub policy: DedupPolicy,
    /// Number of snapshots to use from the standard calendar (≤ 40).
    pub snapshots: usize,
}

impl Default for GenerationConfig {
    fn default() -> Self {
        GenerationConfig {
            generator: GeneratorConfig::default(),
            policy: DedupPolicy::Trimmed,
            snapshots: 40,
        }
    }
}

/// Everything produced by a generation run.
#[derive(Debug)]
pub struct GenerationOutcome {
    /// The populated cluster store.
    pub store: ClusterStore,
    /// Version history (one version published for the whole run).
    pub versions: VersionManager,
    /// Per-snapshot import statistics.
    pub imports: Vec<ImportStats>,
    /// NCIDs known (by construction) to be reused for different persons —
    /// the ground truth for plausibility evaluation.
    pub unsound_ncids: HashSet<String>,
}

impl GenerationOutcome {
    /// Precalculate the per-cluster plausibility and heterogeneity
    /// statistics of Section 6 over `scoring.threads` workers. The
    /// result is in [`ClusterStore::cluster_ids`] order and
    /// bit-identical for every thread count (see [`crate::scoring`]).
    pub fn cluster_scores(
        &self,
        heterogeneity: &HeterogeneityScorer,
        scoring: &ScoringConfig,
    ) -> Vec<ClusterScore> {
        scoring::score_store(&self.store, &PlausibilityScorer::new(), heterogeneity, scoring)
    }
}

/// Everything produced by an on-disk archive run.
#[derive(Debug)]
pub struct ArchiveRunOutcome {
    /// The populated cluster store.
    pub store: ClusterStore,
    /// Version history (one version published for the whole run).
    pub versions: VersionManager,
    /// Per-snapshot import statistics.
    pub imports: Vec<ImportStats>,
    /// Aggregate quarantine accounting (empty under strict mode).
    pub quarantine: QuarantineReport,
}

/// The pipeline driver.
#[derive(Debug)]
pub struct TestDataGenerator;

impl TestDataGenerator {
    /// Run the full pipeline: generate the archive, import every
    /// snapshot under the policy and publish version 1.
    pub fn run(config: GenerationConfig) -> GenerationOutcome {
        let calendar: Vec<_> = standard_calendar()
            .into_iter()
            .take(config.snapshots.clamp(1, 40))
            .collect();
        let mut registry = Registry::new(config.generator.clone());
        let mut store = ClusterStore::new();
        let mut versions = VersionManager::new();
        let version = versions.next_version();
        let imports = import_archive_streaming(
            &mut store,
            &mut registry,
            &calendar,
            config.policy,
            version,
        );
        versions.publish(&store, &imports);
        GenerationOutcome {
            unsound_ncids: registry.unsound_ncids().clone(),
            store,
            versions,
            imports,
        }
    }

    /// Run the pipeline incrementally, publishing one version per
    /// snapshot (the update process of Figure 2).
    pub fn run_incremental(config: GenerationConfig) -> GenerationOutcome {
        let calendar: Vec<_> = standard_calendar()
            .into_iter()
            .take(config.snapshots.clamp(1, 40))
            .collect();
        let mut registry = Registry::new(config.generator.clone());
        let mut store = ClusterStore::new();
        let mut versions = VersionManager::new();
        let mut imports = Vec::new();
        for info in &calendar {
            let version = versions.next_version();
            let snap = registry.generate_snapshot(info);
            let stats = crate::import::import_snapshot(&mut store, &snap, config.policy, version);
            versions.publish(&store, std::slice::from_ref(&stats));
            imports.push(stats);
        }
        GenerationOutcome {
            unsound_ncids: registry.unsound_ncids().clone(),
            store,
            versions,
            imports,
        }
    }

    /// Run the pipeline over an on-disk archive directory in one
    /// in-memory pass. Quarantine handling and the error budget follow
    /// `options`. (A resumable, crash-safe ingest of the same archive
    /// is `nc-shard`'s `ShardEngine::ingest_archive`.)
    pub fn run_archive(
        archive_dir: &Path,
        policy: DedupPolicy,
        options: &ImportOptions,
    ) -> Result<ArchiveRunOutcome, TsvError> {
        let mut versions = VersionManager::new();
        let version = versions.next_version();
        let mut store = ClusterStore::new();
        let outcome =
            tsv::import_archive_dir_with(&mut store, archive_dir, policy, version, options)?;
        versions.publish(&store, &outcome.stats);
        Ok(ArchiveRunOutcome {
            store,
            versions,
            imports: outcome.stats,
            quarantine: outcome.quarantine,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64, pop: usize, snapshots: usize) -> GenerationConfig {
        GenerationConfig {
            generator: GeneratorConfig {
                seed,
                initial_population: pop,
                ..Default::default()
            },
            policy: DedupPolicy::Trimmed,
            snapshots,
        }
    }

    #[test]
    fn full_run_produces_clusters_and_version() {
        let out = TestDataGenerator::run(cfg(11, 120, 5));
        assert!(out.store.cluster_count() >= 120);
        assert_eq!(out.imports.len(), 5);
        assert_eq!(out.versions.history().len(), 1);
        assert_eq!(
            out.versions.current().unwrap().records_total,
            out.store.record_count()
        );
    }

    #[test]
    fn dedup_compresses_relative_to_rows() {
        let out = TestDataGenerator::run(cfg(12, 150, 8));
        let rows = out.store.rows_imported();
        let records = out.store.record_count();
        assert!(rows > records * 2, "rows {rows} vs records {records}");
    }

    #[test]
    fn incremental_run_versions_every_snapshot() {
        let out = TestDataGenerator::run_incremental(cfg(13, 80, 4));
        assert_eq!(out.versions.history().len(), 4);
        let totals: Vec<u64> = out
            .versions
            .history()
            .iter()
            .map(|v| v.records_total)
            .collect();
        assert!(totals.windows(2).all(|w| w[0] <= w[1]), "{totals:?}");
    }

    #[test]
    fn incremental_and_batch_agree_on_final_state() {
        let a = TestDataGenerator::run(cfg(14, 60, 3));
        let b = TestDataGenerator::run_incremental(cfg(14, 60, 3));
        assert_eq!(a.store.record_count(), b.store.record_count());
        assert_eq!(a.store.cluster_count(), b.store.cluster_count());
    }

    #[test]
    fn cluster_scores_are_thread_count_invariant() {
        use crate::heterogeneity::{AttributeWeights, Scope};
        let out = TestDataGenerator::run(cfg(18, 60, 3));
        let het = HeterogeneityScorer::new(AttributeWeights::uniform(Scope::Person));
        let seq = out.cluster_scores(&het, &ScoringConfig::with_threads(1));
        let par = out.cluster_scores(&het, &ScoringConfig::with_threads(4));
        assert_eq!(seq.len(), out.store.cluster_count());
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.ncid, p.ncid);
            assert_eq!(s.plausibility.to_bits(), p.plausibility.to_bits());
            assert_eq!(s.heterogeneity.to_bits(), p.heterogeneity.to_bits());
        }
    }

    #[test]
    fn snapshots_capped_at_calendar_length() {
        let out = TestDataGenerator::run(cfg(15, 30, 500));
        assert_eq!(out.imports.len(), 40);
    }

    fn write_archive(dir: &std::path::Path, seed: u64, pop: usize, snapshots: usize) {
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
    fn archive_run_matches_in_memory_run() {
        let dir = std::env::temp_dir()
            .join(format!("nc_pipe_archive_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        write_archive(&dir, 16, 50, 3);

        let mem = TestDataGenerator::run(cfg(16, 50, 3));
        let disk =
            TestDataGenerator::run_archive(&dir, DedupPolicy::Trimmed, &ImportOptions::strict())
                .unwrap();
        assert_eq!(disk.imports, mem.imports);
        assert_eq!(disk.store.record_count(), mem.store.record_count());
        assert_eq!(disk.store.cluster_count(), mem.store.cluster_count());
        // A clean archive quarantines nothing, and says so once per
        // imported snapshot, in import order.
        assert_eq!(disk.quarantine.events(), 0);
        assert_eq!(disk.quarantine.remapped_headers, 0);
        let clean: Vec<(String, u64)> =
            disk.imports.iter().map(|s| (s.date.clone(), 0)).collect();
        assert_eq!(disk.quarantine.per_snapshot, clean);
        assert_eq!(
            disk.versions.current().unwrap().records_total,
            disk.store.record_count()
        );

        std::fs::remove_dir_all(dir).unwrap();
    }
}
