//! Figure 4: score distributions — (a) plausibility of the NC clusters
//! and pairs, (b) heterogeneity of the NC clusters and pairs, (c)
//! heterogeneity of the Cora/Census/CDDB comparators.

use nc_docstore::doc;
use nc_docstore::value::Value;

use nc_core::plausibility::PlausibilityScorer;
use nc_core::scoring::map_clusters;
use nc_core::stats::ScoreDistribution;
use nc_votergen::schema::Row;
use nc_datasets::characteristics::gold_pair_heterogeneities;
use nc_datasets::{cddb, census, cora};

use crate::context::NcContext;
use crate::output::render_histogram;

const BINS: usize = 20;

/// A serializable score distribution.
#[derive(Debug, Clone)]
pub struct Distribution {
    /// Series label.
    pub label: String,
    /// Bin counts over [0, 1].
    pub counts: Vec<u64>,
    /// Observations.
    pub n: u64,
    /// Mean score.
    pub mean: f64,
    /// Minimum score.
    pub min: f64,
    /// Maximum score.
    pub max: f64,
    /// Fraction of observations at the top bin boundary (= 1.0 for
    /// plausibility).
    pub fraction_at_one: f64,
}

impl Distribution {
    /// The result as a JSON document (see [`crate::output::write_json`]).
    pub fn to_value(&self) -> Value {
        Value::Doc(doc! {
            "label" => self.label.as_str(),
            "counts" => self.counts.clone(),
            "n" => self.n,
            "mean" => self.mean,
            "min" => self.min,
            "max" => self.max,
            "fraction_at_one" => self.fraction_at_one,
        })
    }
}

impl Distribution {
    fn from(label: &str, d: &ScoreDistribution) -> Self {
        Distribution {
            label: label.to_owned(),
            counts: d.counts.clone(),
            n: d.n,
            mean: d.mean(),
            min: if d.n == 0 { 0.0 } else { d.min },
            max: if d.n == 0 { 0.0 } else { d.max },
            fraction_at_one: d.fraction_at_least(1.0 - 1e-9),
        }
    }
}

/// Figure 4a result: plausibility distributions.
#[derive(Debug, Clone)]
pub struct Figure4a {
    /// Cluster-level distribution.
    pub clusters: Distribution,
    /// Pair-level distribution.
    pub pairs: Distribution,
}

impl Figure4a {
    /// The result as a JSON document (see [`crate::output::write_json`]).
    pub fn to_value(&self) -> Value {
        Value::Doc(doc! {
            "clusters" => self.clusters.to_value(),
            "pairs" => self.pairs.to_value(),
        })
    }
}

/// The multi-record clusters of a store, in `cluster_ids` order.
fn multi_record_clusters(ctx: &NcContext) -> Vec<&[Row]> {
    ctx.outcome
        .store
        .iter_clusters()
        .map(|(_, rows)| rows)
        .filter(|rows| rows.len() >= 2)
        .collect()
}

/// Run Figure 4a over a built NC context. Clusters are scored on the
/// context's worker pool; the distributions are filled in cluster
/// order, so the figure is identical for every thread count.
pub fn run_4a(ctx: &NcContext) -> Figure4a {
    let scorer = PlausibilityScorer::new();
    let mut clusters = ScoreDistribution::new(BINS);
    let mut pairs = ScoreDistribution::new(BINS);
    let scored = map_clusters(&ctx.scoring, &multi_record_clusters(ctx), |scratch, rows| {
        scorer.pair_scores_with(scratch, rows)
    });
    for pair_scores in &scored {
        for &p in pair_scores {
            pairs.observe(p);
        }
        clusters.observe(pair_scores.iter().copied().fold(1.0, f64::min));
    }
    Figure4a {
        clusters: Distribution::from("cluster plausibility", &clusters),
        pairs: Distribution::from("pair plausibility", &pairs),
    }
}

/// Figure 4b result: NC heterogeneity distributions.
#[derive(Debug, Clone)]
pub struct Figure4b {
    /// Cluster-level distribution.
    pub clusters: Distribution,
    /// Pair-level distribution.
    pub pairs: Distribution,
}

impl Figure4b {
    /// The result as a JSON document (see [`crate::output::write_json`]).
    pub fn to_value(&self) -> Value {
        Value::Doc(doc! {
            "clusters" => self.clusters.to_value(),
            "pairs" => self.pairs.to_value(),
        })
    }
}

/// Run Figure 4b over a built NC context (person attributes, as in the
/// paper's published scores).
pub fn run_4b(ctx: &NcContext) -> Figure4b {
    let mut clusters = ScoreDistribution::new(BINS);
    let mut pairs = ScoreDistribution::new(BINS);
    let scored = map_clusters(&ctx.scoring, &multi_record_clusters(ctx), |scratch, rows| {
        (
            ctx.het_person.pair_scores_with(scratch, rows),
            ctx.het_person.cluster_with(scratch, rows),
        )
    });
    for (pair_scores, cluster_score) in &scored {
        for &h in pair_scores {
            pairs.observe(h);
        }
        clusters.observe(*cluster_score);
    }
    Figure4b {
        clusters: Distribution::from("cluster heterogeneity", &clusters),
        pairs: Distribution::from("pair heterogeneity", &pairs),
    }
}

/// Figure 4c result: comparator heterogeneity distributions.
#[derive(Debug, Clone)]
pub struct Figure4c {
    /// One distribution per comparator dataset.
    pub datasets: Vec<Distribution>,
}

impl Figure4c {
    /// The result as a JSON document (see [`crate::output::write_json`]).
    pub fn to_value(&self) -> Value {
        Value::Doc(doc! {
            "datasets" => Value::Array(self.datasets.iter().map(Distribution::to_value).collect()),
        })
    }
}

/// Run Figure 4c (pair heterogeneity of Cora, Census, CDDB).
pub fn run_4c(seed: u64) -> Figure4c {
    let mut datasets = Vec::new();
    for (label, data) in [
        ("Cora", cora::generate(seed)),
        ("Census", census::generate(seed)),
        ("CDDB", cddb::generate(seed)),
    ] {
        let mut dist = ScoreDistribution::new(BINS);
        for h in gold_pair_heterogeneities(&data) {
            dist.observe(h);
        }
        datasets.push(Distribution::from(label, &dist));
    }
    Figure4c { datasets }
}

/// Render any distribution with its histogram.
pub fn render_distribution(d: &Distribution) -> String {
    let mut out = format!(
        "-- {} (n = {}, mean {:.3}, min {:.3}, max {:.3}, at-1.0 {:.1} %) --\n",
        d.label,
        d.n,
        d.mean,
        d.min,
        d.max,
        100.0 * d.fraction_at_one
    );
    render_histogram(&d.counts, BINS, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExperimentScale;

    #[test]
    fn plausibility_mass_sits_at_one() {
        let ctx = NcContext::build(&ExperimentScale::tiny());
        let f = run_4a(&ctx);
        assert!(f.clusters.n > 0);
        assert!(f.clusters.mean > 0.9, "mean {}", f.clusters.mean);
        assert!(
            f.clusters.fraction_at_one > 0.5,
            "fraction at 1.0: {}",
            f.clusters.fraction_at_one
        );
        assert!(f.pairs.n >= f.clusters.n);
    }

    #[test]
    fn heterogeneity_is_low_but_nonzero() {
        let ctx = NcContext::build(&ExperimentScale::tiny());
        let f = run_4b(&ctx);
        assert!(f.clusters.mean > 0.0);
        assert!(f.clusters.mean < 0.4, "mean {}", f.clusters.mean);
        assert!(f.pairs.max <= 1.0);
        assert!(!render_distribution(&f.pairs).is_empty());
    }

    #[test]
    fn comparator_distributions_cover_three_datasets() {
        let f = run_4c(3);
        assert_eq!(f.datasets.len(), 3);
        for d in &f.datasets {
            assert!(d.n > 0, "{}", d.label);
            assert!(d.mean > 0.0, "{}: {}", d.label, d.mean);
        }
    }
}
