//! Design-choice ablations called out in DESIGN.md:
//!
//! 1. **Blocking**: multi-pass Sorted Neighborhood (window sweep) vs
//!    standard blocking vs q-gram blocking vs full pairwise — pair
//!    completeness and reduction ratio.
//! 2. **Plausibility weighting**: the paper's name-heavy weights (0.5 /
//!    0.15…) vs uniform weighting — separation between sound and
//!    unsound clusters.
//! 3. **Heterogeneity inner measure**: Monge–Elkan vs Generalized
//!    Jaccard (the paper's footnote 14 claims the choice introduces
//!    little bias).

use nc_docstore::doc;
use nc_docstore::value::Value;

use nc_core::pipeline::{GenerationConfig, TestDataGenerator};
use nc_core::plausibility::PlausibilityScorer;
use nc_core::record::DedupPolicy;
use nc_datasets::census;
use nc_detect::blocking::{
    blocking_quality, FullPairwise, SortedNeighborhood, StandardBlocking, StreamBlocker,
};
use nc_detect::index::IndexedQGramBlocker;
use nc_similarity::damerau::DamerauLevenshtein;
use nc_similarity::gen_jaccard::GeneralizedJaccard;
use nc_similarity::monge_elkan::MongeElkan;
use nc_similarity::StringSimilarity;
use nc_votergen::schema::{FIRST_NAME, LAST_NAME, MIDL_NAME};

use crate::context::ExperimentScale;

/// One blocking configuration's quality.
#[derive(Debug, Clone)]
pub struct BlockingRow {
    /// Configuration label.
    pub config: String,
    /// Candidate pairs produced.
    pub candidates: usize,
    /// Fraction of gold pairs kept.
    pub pair_completeness: f64,
    /// Fraction of all pairs eliminated.
    pub reduction_ratio: f64,
}

impl BlockingRow {
    /// The result as a JSON document (see [`crate::output::write_json`]).
    pub fn to_value(&self) -> Value {
        Value::Doc(doc! {
            "config" => self.config.as_str(),
            "candidates" => self.candidates,
            "pair_completeness" => self.pair_completeness,
            "reduction_ratio" => self.reduction_ratio,
        })
    }
}

/// Plausibility-weighting ablation result.
#[derive(Debug, Clone)]
pub struct PlausibilityAblation {
    /// Mean cluster plausibility of sound clusters (paper weights).
    pub sound_paper: f64,
    /// Mean cluster plausibility of unsound clusters (paper weights).
    pub unsound_paper: f64,
    /// Separation (sound − unsound) with the paper's name-heavy weights.
    pub separation_paper: f64,
    /// Separation with uniform component weights.
    pub separation_uniform: f64,
}

impl PlausibilityAblation {
    /// The result as a JSON document (see [`crate::output::write_json`]).
    pub fn to_value(&self) -> Value {
        Value::Doc(doc! {
            "sound_paper" => self.sound_paper,
            "unsound_paper" => self.unsound_paper,
            "separation_paper" => self.separation_paper,
            "separation_uniform" => self.separation_uniform,
        })
    }
}

/// Heterogeneity inner-measure ablation result.
#[derive(Debug, Clone)]
pub struct MeasureAblation {
    /// Mean |ME − GJ| similarity difference over sampled name pairs.
    pub mean_abs_difference: f64,
    /// Rank correlation proxy: fraction of sampled pair-pairs ordered
    /// identically by both measures.
    pub order_agreement: f64,
}

impl MeasureAblation {
    /// The result as a JSON document (see [`crate::output::write_json`]).
    pub fn to_value(&self) -> Value {
        Value::Doc(doc! {
            "mean_abs_difference" => self.mean_abs_difference,
            "order_agreement" => self.order_agreement,
        })
    }
}

/// The full ablation report.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// Blocking configurations on the Census comparator.
    pub blocking: Vec<BlockingRow>,
    /// Plausibility weighting ablation.
    pub plausibility: PlausibilityAblation,
    /// Heterogeneity inner-measure ablation.
    pub measures: MeasureAblation,
}

impl Ablation {
    /// The result as a JSON document (see [`crate::output::write_json`]).
    pub fn to_value(&self) -> Value {
        Value::Doc(doc! {
            "blocking" => Value::Array(self.blocking.iter().map(BlockingRow::to_value).collect()),
            "plausibility" => self.plausibility.to_value(),
            "measures" => self.measures.to_value(),
        })
    }
}

fn blocking_rows(seed: u64) -> Vec<BlockingRow> {
    let data = census::generate(seed);
    let keys = data.top_entropy_attrs(5);
    let mut rows = Vec::new();

    let mut push = |label: String, blocker: &dyn StreamBlocker| {
        let q = blocking_quality(&data, blocker);
        rows.push(BlockingRow {
            config: label,
            candidates: q.candidates,
            pair_completeness: q.pair_completeness,
            reduction_ratio: q.reduction_ratio,
        });
    };

    push("full pairwise".into(), &FullPairwise);
    push("standard blocking (last_name)".into(), &StandardBlocking { key: 0 });
    push("q-gram blocking (last_name)".into(), &IndexedQGramBlocker::trigrams(0));
    for window in [5, 10, 20, 40] {
        push(
            format!("SNM multi-pass w={window}"),
            &SortedNeighborhood { keys: keys.clone(), window },
        );
    }
    rows
}

fn plausibility_ablation(scale: &ExperimentScale) -> PlausibilityAblation {
    // A registry with aggressive NCID reuse so unsound clusters exist.
    let mut generator = scale.generator();
    generator.removal_rate = 0.12;
    generator.removed_retention_years = 1;
    generator.ncid_reuse_rate = 0.6;
    let outcome = TestDataGenerator::run(GenerationConfig {
        generator,
        policy: DedupPolicy::Trimmed,
        snapshots: scale.snapshots.max(20),
    });
    let store = &outcome.store;
    let scorer = PlausibilityScorer::new();

    // Uniform-weight variant: average the four component scores.
    let uniform = |a: &nc_votergen::schema::Row, b: &nc_votergen::schema::Row| -> f64 {
        (scorer.name_similarity(a, b)
            + PlausibilityScorer::sex_similarity(a, b)
            + PlausibilityScorer::yob_similarity(a, b)
            + PlausibilityScorer::birthplace_similarity(a, b))
            / 4.0
    };
    let cluster_uniform = |rows: &[nc_votergen::schema::Row]| -> f64 {
        let mut min = 1.0f64;
        for i in 0..rows.len() {
            for j in (i + 1)..rows.len() {
                min = min.min(uniform(&rows[i], &rows[j]));
            }
        }
        min
    };

    let mut sums = [0.0f64; 4]; // sound/unsound × paper/uniform
    let mut counts = [0u64; 2];
    for (ncid, rows) in store.iter_clusters() {
        if rows.len() < 2 {
            continue;
        }
        let unsound = outcome.unsound_ncids.contains(ncid);
        let idx = usize::from(unsound);
        if !unsound && counts[0] >= 400 {
            continue; // cap sound-cluster work
        }
        counts[idx] += 1;
        sums[idx * 2] += scorer.cluster(rows);
        sums[idx * 2 + 1] += cluster_uniform(rows);
    }
    let mean = |sum: f64, n: u64| if n == 0 { 0.0 } else { sum / n as f64 };
    let sound_paper = mean(sums[0], counts[0]);
    let sound_uniform = mean(sums[1], counts[0]);
    let unsound_paper = mean(sums[2], counts[1]);
    let unsound_uniform = mean(sums[3], counts[1]);
    PlausibilityAblation {
        sound_paper,
        unsound_paper,
        separation_paper: sound_paper - unsound_paper,
        separation_uniform: sound_uniform - unsound_uniform,
    }
}

fn measure_ablation(scale: &ExperimentScale) -> MeasureAblation {
    let outcome = scale.run(DedupPolicy::Trimmed);
    let store = &outcome.store;
    let me = MongeElkan::new(DamerauLevenshtein::new());
    let gj = GeneralizedJaccard::new(DamerauLevenshtein::new());

    let mut diffs = Vec::new();
    for (_, rows) in store.iter_clusters().take(300) {
        for w in rows.windows(2) {
            let name = |r: &nc_votergen::schema::Row| {
                format!(
                    "{} {} {}",
                    r.get(FIRST_NAME),
                    r.get(MIDL_NAME),
                    r.get(LAST_NAME)
                )
            };
            let (a, b) = (name(&w[0]), name(&w[1]));
            diffs.push((me.sim(&a, &b), gj.sim(&a, &b)));
        }
    }
    let mean_abs = if diffs.is_empty() {
        0.0
    } else {
        diffs.iter().map(|(x, y)| (x - y).abs()).sum::<f64>() / diffs.len() as f64
    };
    // Order agreement over consecutive sample pairs.
    let mut agree = 0u64;
    let mut total = 0u64;
    for w in diffs.windows(2) {
        let ((a1, b1), (a2, b2)) = (w[0], w[1]);
        if (a1 - a2).abs() < 1e-12 || (b1 - b2).abs() < 1e-12 {
            continue;
        }
        total += 1;
        if ((a1 < a2) && (b1 < b2)) || ((a1 > a2) && (b1 > b2)) {
            agree += 1;
        }
    }
    MeasureAblation {
        mean_abs_difference: mean_abs,
        order_agreement: if total == 0 { 1.0 } else { agree as f64 / total as f64 },
    }
}

/// Run all three ablations.
pub fn run(scale: &ExperimentScale) -> Ablation {
    Ablation {
        blocking: blocking_rows(scale.seed),
        plausibility: plausibility_ablation(scale),
        measures: measure_ablation(scale),
    }
}

/// Render the ablation report.
pub fn render(a: &Ablation) -> String {
    let mut out = String::new();
    out.push_str("Ablation 1: blocking on the Census comparator\n");
    out.push_str("configuration                       candidates  completeness  reduction\n");
    for r in &a.blocking {
        out.push_str(&format!(
            "{:<35} {:>10} {:>13.3} {:>10.3}\n",
            r.config, r.candidates, r.pair_completeness, r.reduction_ratio
        ));
    }
    out.push_str(&format!(
        "\nAblation 2: plausibility weighting\n\
         sound (paper weights)   : {:.3}\n\
         unsound (paper weights) : {:.3}\n\
         separation paper weights: {:.3}\n\
         separation uniform      : {:.3}\n",
        a.plausibility.sound_paper,
        a.plausibility.unsound_paper,
        a.plausibility.separation_paper,
        a.plausibility.separation_uniform
    ));
    out.push_str(&format!(
        "\nAblation 3: Monge-Elkan vs Generalized Jaccard on name pairs\n\
         mean |ME - GJ|  : {:.4}\n\
         order agreement : {:.3}\n",
        a.measures.mean_abs_difference, a.measures.order_agreement
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocking_ablation_orders_sensibly() {
        let rows = blocking_rows(1);
        let full = &rows[0];
        assert_eq!(full.pair_completeness, 1.0);
        assert_eq!(full.reduction_ratio, 0.0);
        // SNM rows: candidates grow with the window.
        let snm: Vec<&BlockingRow> = rows.iter().filter(|r| r.config.starts_with("SNM")).collect();
        for w in snm.windows(2) {
            assert!(w[0].candidates <= w[1].candidates);
            assert!(w[0].pair_completeness <= w[1].pair_completeness + 1e-12);
        }
    }

    #[test]
    fn ablation_runs_at_tiny_scale() {
        let a = run(&ExperimentScale::tiny());
        assert!(a.plausibility.separation_paper > 0.0);
        assert!(a.measures.order_agreement > 0.5);
        assert!(render(&a).contains("Ablation 3"));
    }
}
