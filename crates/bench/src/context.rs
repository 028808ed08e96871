//! Shared experiment context: one generated archive reused by all NC
//! experiments.

use nc_core::heterogeneity::{AttributeWeights, HeterogeneityScorer, Scope};
use nc_core::pipeline::{GenerationConfig, GenerationOutcome, TestDataGenerator};
use nc_core::record::DedupPolicy;
use nc_core::scoring::ScoringConfig;
use nc_votergen::config::GeneratorConfig;

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentScale {
    /// Initial voter population of the simulated registry.
    pub population: usize,
    /// Snapshots used from the 40-snapshot calendar.
    pub snapshots: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for ExperimentScale {
    fn default() -> Self {
        ExperimentScale {
            population: 2_000,
            snapshots: 40,
            seed: 2021,
        }
    }
}

impl ExperimentScale {
    /// A very small scale for unit tests.
    pub fn tiny() -> Self {
        ExperimentScale {
            population: 150,
            snapshots: 6,
            seed: 1,
        }
    }

    /// The generator configuration at this scale.
    pub fn generator(&self) -> GeneratorConfig {
        GeneratorConfig {
            seed: self.seed,
            initial_population: self.population,
            ..Default::default()
        }
    }

    /// Run the pipeline under a policy at this scale.
    pub fn run(&self, policy: DedupPolicy) -> GenerationOutcome {
        TestDataGenerator::run(GenerationConfig {
            generator: self.generator(),
            policy,
            snapshots: self.snapshots,
        })
    }
}

/// A generated archive plus the entropy-weighted heterogeneity scorers
/// derived from it — the shared input of Figures 4–5 and Table 3.
pub struct NcContext {
    /// The generation outcome (trimming policy, as in the published
    /// dataset).
    pub outcome: GenerationOutcome,
    /// Heterogeneity scorer over person attributes.
    pub het_person: HeterogeneityScorer,
    /// Heterogeneity scorer over all attributes.
    pub het_all: HeterogeneityScorer,
    /// Worker-pool configuration used by the scoring experiments.
    pub scoring: ScoringConfig,
}

impl NcContext {
    /// Build the context at a scale with the default worker pool.
    pub fn build(scale: &ExperimentScale) -> Self {
        Self::build_with(scale, ScoringConfig::default())
    }

    /// Build the context at a scale with an explicit scoring pool.
    pub fn build_with(scale: &ExperimentScale, scoring: ScoringConfig) -> Self {
        let outcome = scale.run(DedupPolicy::Trimmed);
        let firsts = || outcome.store.iter_clusters().map(|(_, rows)| &rows[0]);
        let het_person =
            HeterogeneityScorer::new(AttributeWeights::from_rows(Scope::Person, firsts()));
        let het_all = HeterogeneityScorer::new(AttributeWeights::from_rows(Scope::All, firsts()));
        NcContext {
            outcome,
            het_person,
            het_all,
            scoring,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_context_builds() {
        let ctx = NcContext::build(&ExperimentScale::tiny());
        assert!(ctx.outcome.store.cluster_count() >= 150);
        assert!(ctx.outcome.store.record_count() > 0);
    }

    #[test]
    fn scale_run_respects_policy() {
        let scale = ExperimentScale::tiny();
        let none = scale.run(DedupPolicy::None);
        let trimmed = scale.run(DedupPolicy::Trimmed);
        assert!(none.store.record_count() > trimmed.store.record_count());
    }
}
