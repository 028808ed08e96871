//! Parallel scoring determinism: the sharded worker pool must produce
//! bit-identical scores for every thread count.

use nc_core::heterogeneity::{AttributeWeights, HeterogeneityScorer, Scope};
use nc_core::pipeline::{GenerationConfig, TestDataGenerator};
use nc_core::plausibility::PlausibilityScorer;
use nc_core::record::DedupPolicy;
use nc_core::scoring::{score_store, ClusterScore, ScoringConfig};
use nc_propcheck::check;
use nc_votergen::config::GeneratorConfig;

/// Generate a registry and score it at a given thread count.
fn scores_at(seed: u64, population: usize, snapshots: usize, threads: usize) -> Vec<ClusterScore> {
    let outcome = TestDataGenerator::run(GenerationConfig {
        generator: GeneratorConfig {
            seed,
            initial_population: population,
            ..Default::default()
        },
        policy: DedupPolicy::Trimmed,
        snapshots,
    });
    let plaus = PlausibilityScorer::new();
    let het = HeterogeneityScorer::new(AttributeWeights::uniform(Scope::Person));
    score_store(
        &outcome.store,
        &plaus,
        &het,
        &ScoringConfig::with_threads(threads),
    )
}

/// Assert two score lists are bit-identical (not just approximately
/// equal: the parallel path promises the same arithmetic).
fn assert_bit_identical(seq: &[ClusterScore], par: &[ClusterScore], threads: usize) {
    assert_eq!(seq.len(), par.len(), "cluster count at {threads} threads");
    for (s, p) in seq.iter().zip(par) {
        assert_eq!(s.ncid, p.ncid, "cluster order at {threads} threads");
        assert_eq!(s.records, p.records);
        assert_eq!(
            s.plausibility.to_bits(),
            p.plausibility.to_bits(),
            "plausibility of {} at {threads} threads",
            s.ncid
        );
        assert_eq!(
            s.heterogeneity.to_bits(),
            p.heterogeneity.to_bits(),
            "heterogeneity of {} at {threads} threads",
            s.ncid
        );
    }
}

#[test]
fn fixed_seed_scores_are_thread_count_invariant() {
    let seq = scores_at(77, 120, 4, 1);
    assert!(!seq.is_empty());
    for threads in [2, 8] {
        let par = scores_at(77, 120, 4, threads);
        assert_bit_identical(&seq, &par, threads);
    }
}

// Generation dominates the cost of each case, so keep the
// populations small; the cluster shapes still vary widely with the
// seed (singletons, long histories, polluted records).
#[test]
fn random_registries_score_identically_across_thread_counts() {
    check("random_registries_score_identically_across_thread_counts", |g| {
        let seed = g.range(0u64..1000);
        let population = g.range(40usize..80);
        let snapshots = g.range(2usize..5);
        let seq = scores_at(seed, population, snapshots, 1);
        assert!(!seq.is_empty());
        for threads in [2usize, 8] {
            let par = scores_at(seed, population, snapshots, threads);
            assert_eq!(seq.len(), par.len());
            for (s, p) in seq.iter().zip(&par) {
                assert_eq!(&s.ncid, &p.ncid);
                assert_eq!(s.records, p.records);
                assert_eq!(s.plausibility.to_bits(), p.plausibility.to_bits());
                assert_eq!(s.heterogeneity.to_bits(), p.heterogeneity.to_bits());
            }
        }
    });
}
