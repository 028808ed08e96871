//! Figure 5: F1-score vs similarity threshold for the three record
//! matchers on NC1/NC2/NC3 and on the Cora/Census/CDDB comparators.

use nc_docstore::doc;
use nc_docstore::value::Value;

use nc_core::customize::{customize, CustomizeParams};
use nc_core::heterogeneity::Scope;
use nc_datasets::{cddb, census, cora};
use nc_detect::blocking::SortedNeighborhood;
use nc_detect::dataset::Dataset;
use nc_detect::eval::{linspace, score_candidates_streaming, threshold_sweep};
use nc_detect::matcher::{MeasureKind, RecordMatcher};

use crate::context::NcContext;
use crate::table3::NcBandSizes;

/// One F1 curve.
#[derive(Debug, Clone)]
pub struct Curve {
    /// Measure label (ME/Lev, JaroWinkler, Jaccard).
    pub measure: String,
    /// Thresholds.
    pub thresholds: Vec<f64>,
    /// F1 at each threshold.
    pub f1: Vec<f64>,
    /// Best threshold.
    pub best_threshold: f64,
    /// Best F1.
    pub best_f1: f64,
}

impl Curve {
    /// The result as a JSON document (see [`crate::output::write_json`]).
    pub fn to_value(&self) -> Value {
        Value::Doc(doc! {
            "measure" => self.measure.as_str(),
            "thresholds" => self.thresholds.clone(),
            "f1" => self.f1.clone(),
            "best_threshold" => self.best_threshold,
            "best_f1" => self.best_f1,
        })
    }
}

/// One panel (one dataset, three curves).
#[derive(Debug, Clone)]
pub struct Panel {
    /// Dataset label.
    pub dataset: String,
    /// Records evaluated.
    pub records: usize,
    /// Gold pairs.
    pub gold_pairs: usize,
    /// One curve per matcher.
    pub curves: Vec<Curve>,
}

impl Panel {
    /// The result as a JSON document (see [`crate::output::write_json`]).
    pub fn to_value(&self) -> Value {
        Value::Doc(doc! {
            "dataset" => self.dataset.as_str(),
            "records" => self.records,
            "gold_pairs" => self.gold_pairs,
            "curves" => Value::Array(self.curves.iter().map(Curve::to_value).collect()),
        })
    }
}

/// The full Figure 5.
#[derive(Debug, Clone)]
pub struct Figure5 {
    /// Six panels: NC1, NC2, NC3, Cora, Census, CDDB.
    pub panels: Vec<Panel>,
}

impl Figure5 {
    /// The result as a JSON document (see [`crate::output::write_json`]).
    pub fn to_value(&self) -> Value {
        Value::Doc(doc! {
            "panels" => Value::Array(self.panels.iter().map(Panel::to_value).collect()),
        })
    }
}

/// Evaluate the three matchers over one dataset.
pub fn panel(label: &str, data: &Dataset, name_group: Vec<usize>) -> Panel {
    let thresholds = linspace(0.30, 0.98, 35);
    let keys = data.top_entropy_attrs(5.min(data.num_attrs()));
    let blocker = SortedNeighborhood::multi_pass(keys);
    let weights = data.entropy_weights();
    let gold = data.gold_pairs();

    let curves = MeasureKind::ALL
        .iter()
        .map(|&kind| {
            let matcher = RecordMatcher::with_kind(kind, weights.clone(), name_group.clone());
            let scored = score_candidates_streaming(data, &blocker, &matcher);
            let sweep = threshold_sweep(&scored, &gold, &thresholds);
            let f1: Vec<f64> = sweep.iter().map(|p| p.prf.f1).collect();
            let (best_idx, best_f1) = f1
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, &v)| (i, v))
                .unwrap_or((0, 0.0));
            Curve {
                measure: kind.label().to_owned(),
                thresholds: thresholds.clone(),
                f1,
                best_threshold: thresholds[best_idx],
                best_f1,
            }
        })
        .collect();

    Panel {
        dataset: label.to_owned(),
        records: data.len(),
        gold_pairs: gold.len(),
        curves,
    }
}

/// Run the full experiment.
pub fn run(ctx: &NcContext, sizes: &NcBandSizes, seed: u64) -> Figure5 {
    let attrs = Scope::Person.attrs();
    let name_group = nc_suite::bridge::name_group_positions(attrs);

    let mut panels = Vec::new();
    for (label, params) in [
        ("NC1", CustomizeParams::nc1(sizes.sample, sizes.output, seed)),
        ("NC2", CustomizeParams::nc2(sizes.sample, sizes.output, seed)),
        ("NC3", CustomizeParams::nc3(sizes.sample, sizes.output, seed)),
    ] {
        let ds = customize(&ctx.outcome.store, &ctx.het_person, &params);
        let data = nc_suite::bridge::dataset_from_custom(&ds, attrs);
        panels.push(panel(label, &data, name_group.clone()));
    }
    panels.push(panel("Cora", &cora::generate(seed), vec![]));
    panels.push(panel("Census", &census::generate(seed), vec![]));
    panels.push(panel("CDDB", &cddb::generate(seed), vec![]));
    Figure5 { panels }
}

/// Render the curves as compact text plots.
pub fn render(f: &Figure5) -> String {
    let mut out = String::new();
    out.push_str("Figure 5: F1 vs similarity threshold\n");
    for p in &f.panels {
        out.push_str(&format!(
            "\n-- {} ({} records, {} gold pairs) --\n",
            p.dataset, p.records, p.gold_pairs
        ));
        out.push_str("threshold  ");
        for c in &p.curves {
            out.push_str(&format!("{:>12}", c.measure));
        }
        out.push('\n');
        let n = p.curves.first().map_or(0, |c| c.thresholds.len());
        for i in (0..n).step_by(2) {
            out.push_str(&format!("  {:>6.2}   ", p.curves[0].thresholds[i]));
            for c in &p.curves {
                out.push_str(&format!("{:>12.3}", c.f1[i]));
            }
            out.push('\n');
        }
        for c in &p.curves {
            out.push_str(&format!(
                "  best {}: F1 {:.3} at threshold {:.2}\n",
                c.measure, c.best_f1, c.best_threshold
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExperimentScale;

    #[test]
    fn figure5_produces_six_panels_with_sane_curves() {
        let ctx = NcContext::build(&ExperimentScale::tiny());
        let f = run(&ctx, &NcBandSizes { sample: 150, output: 40 }, 1);
        assert_eq!(f.panels.len(), 6);
        for p in &f.panels {
            assert_eq!(p.curves.len(), 3, "{}", p.dataset);
            for c in &p.curves {
                assert!(c.f1.iter().all(|&v| (0.0..=1.0).contains(&v)));
                assert!(c.best_f1 >= 0.0);
            }
        }
        // NC1 is nearly clean → some matcher achieves a very high F1.
        let nc1_best = f.panels[0]
            .curves
            .iter()
            .map(|c| c.best_f1)
            .fold(0.0, f64::max);
        assert!(nc1_best > 0.85, "NC1 best {nc1_best}");
        assert!(render(&f).contains("best"));
    }
}
