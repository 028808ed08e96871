//! Pollution extension experiment (the paper's future work, Section 8):
//! inject additional errors into a customized dataset and measure how
//! detection quality responds.
//!
//! This demonstrates the combination the paper proposes — real outdated
//! values from the history *plus* injectable errors at will — and
//! provides a dirtiness dial beyond the heterogeneity bands.

use nc_docstore::doc;
use nc_docstore::value::Value;

use nc_core::customize::{customize, CustomizeParams};
use nc_core::heterogeneity::Scope;
use nc_core::pollute::{pollute, PollutionConfig, PollutionStats};
use nc_detect::blocking::SortedNeighborhood;
use nc_detect::eval::{best_f1, linspace, score_candidates_streaming, threshold_sweep};
use nc_detect::matcher::{MeasureKind, RecordMatcher};
use nc_votergen::config::ErrorRates;

use crate::context::NcContext;
use crate::table3::NcBandSizes;

/// One pollution level's outcome.
#[derive(Debug, Clone)]
pub struct Level {
    /// Multiplier applied to the default error rates.
    pub rate_multiplier: f64,
    /// Records after pollution (duplicate synthesis included).
    pub records: usize,
    /// Gold pairs after pollution.
    pub gold_pairs: usize,
    /// Values corrupted by the pass.
    pub corrupted_values: u64,
    /// Synthetic duplicates added.
    pub duplicates_added: u64,
    /// Best F1 per matcher (ME/Lev, JaroWinkler, Jaccard).
    pub best_f1: Vec<f64>,
}

impl Level {
    /// The result as a JSON document (see [`crate::output::write_json`]).
    pub fn to_value(&self) -> Value {
        Value::Doc(doc! {
            "rate_multiplier" => self.rate_multiplier,
            "records" => self.records,
            "gold_pairs" => self.gold_pairs,
            "corrupted_values" => self.corrupted_values,
            "duplicates_added" => self.duplicates_added,
            "best_f1" => self.best_f1.clone(),
        })
    }
}

/// The pollution experiment result.
#[derive(Debug, Clone)]
pub struct Pollution {
    /// Levels in increasing pollution order (multiplier 0 = untouched).
    pub levels: Vec<Level>,
}

impl Pollution {
    /// The result as a JSON document (see [`crate::output::write_json`]).
    pub fn to_value(&self) -> Value {
        Value::Doc(doc! {
            "levels" => Value::Array(self.levels.iter().map(Level::to_value).collect()),
        })
    }
}

/// Run the experiment over the NC1 band of a built context.
pub fn run(ctx: &NcContext, sizes: &NcBandSizes, seed: u64) -> Pollution {
    let attrs = Scope::Person.attrs();
    let name_group = nc_suite::bridge::name_group_positions(attrs);
    let base = customize(
        &ctx.outcome.store,
        &ctx.het_person,
        &CustomizeParams::nc1(sizes.sample, sizes.output, seed),
    );

    let mut levels = Vec::new();
    for multiplier in [0.0, 2.0, 6.0, 15.0] {
        let mut ds = base.clone();
        let defaults = ErrorRates::default();
        let cfg = PollutionConfig {
            rates: ErrorRates {
                typo: (defaults.typo * multiplier).min(0.4),
                ocr: (defaults.ocr * multiplier).min(0.05),
                phonetic: (defaults.phonetic * multiplier).min(0.2),
                abbreviation: (defaults.abbreviation * multiplier).min(0.2),
                missing: (defaults.missing * multiplier).min(0.1),
                case_flip: (defaults.case_flip * multiplier).min(0.05),
            },
            whitespace_rate: 0.0,
            confusion_rate: (0.004 * multiplier).min(0.2),
            duplicate_rate: if multiplier > 0.0 { 0.1 } else { 0.0 },
            person_attrs_only: true,
            seed: seed ^ 0xDA90,
        };
        let stats: PollutionStats = pollute(&mut ds, &cfg);

        let data = nc_suite::bridge::dataset_from_custom(&ds, attrs);
        let blocker = SortedNeighborhood::multi_pass(data.top_entropy_attrs(5));
        let weights = data.entropy_weights();
        let gold = data.gold_pairs();
        let thresholds = linspace(0.3, 0.98, 35);
        let best: Vec<f64> = MeasureKind::ALL
            .iter()
            .map(|&kind| {
                let matcher =
                    RecordMatcher::with_kind(kind, weights.clone(), name_group.clone());
                let scored = score_candidates_streaming(&data, &blocker, &matcher);
                best_f1(&threshold_sweep(&scored, &gold, &thresholds))
                    .map(|p| p.prf.f1)
                    .unwrap_or(0.0)
            })
            .collect();

        levels.push(Level {
            rate_multiplier: multiplier,
            records: data.len(),
            gold_pairs: gold.len(),
            corrupted_values: stats.corrupted_values,
            duplicates_added: stats.duplicates_added,
            best_f1: best,
        });
    }
    Pollution { levels }
}

/// Render the pollution sweep.
pub fn render(p: &Pollution) -> String {
    let mut out = String::new();
    out.push_str("Pollution extension (Section 8): injecting errors into NC1\n");
    out.push_str(
        "rate xN   records  gold pairs  corrupted  added dups     ME/Lev  JaroWink.    Jaccard\n",
    );
    for l in &p.levels {
        out.push_str(&format!(
            "{:>7.1} {:>9} {:>11} {:>10} {:>11} {:>10.3} {:>10.3} {:>10.3}\n",
            l.rate_multiplier,
            l.records,
            l.gold_pairs,
            l.corrupted_values,
            l.duplicates_added,
            l.best_f1[0],
            l.best_f1[1],
            l.best_f1[2],
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExperimentScale;

    #[test]
    fn pollution_degrades_detection() {
        let ctx = NcContext::build(&ExperimentScale::tiny());
        let p = run(&ctx, &NcBandSizes { sample: 150, output: 40 }, 1);
        assert_eq!(p.levels.len(), 4);
        let clean = &p.levels[0];
        let dirty = p.levels.last().unwrap();
        assert_eq!(clean.corrupted_values, 0);
        assert!(dirty.corrupted_values > 0);
        assert!(dirty.duplicates_added > 0);
        // Best achievable quality must not improve under pollution.
        let best = |l: &Level| l.best_f1.iter().copied().fold(0.0f64, f64::max);
        assert!(
            best(dirty) <= best(clean) + 0.02,
            "clean {} vs dirty {}",
            best(clean),
            best(dirty)
        );
        assert!(render(&p).contains("Pollution"));
    }
}
