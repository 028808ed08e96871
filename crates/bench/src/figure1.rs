//! Figure 1: number of duplicate clusters per cluster size — (a) a
//! single snapshot vs (b) the whole archive, for all attributes and for
//! person data only.

use std::collections::BTreeMap;

use nc_docstore::doc;
use nc_docstore::value::{Document, Value};

use nc_core::cluster::ClusterStore;
use nc_core::import::import_snapshot;
use nc_core::record::DedupPolicy;
use nc_core::stats::cluster_size_histogram;
use nc_votergen::registry::Registry;
use nc_votergen::snapshot::standard_calendar;

use crate::context::ExperimentScale;
use crate::output::bar;

/// One histogram series.
#[derive(Debug, Clone)]
pub struct Series {
    /// Series label.
    pub label: String,
    /// cluster size → number of clusters.
    pub histogram: BTreeMap<usize, u64>,
}

impl Series {
    /// The result as a JSON document (see [`crate::output::write_json`]).
    pub fn to_value(&self) -> Value {
        Value::Doc(doc! {
            "label" => self.label.as_str(),
            // JSON object keys are strings: `"3": 17` is 17 clusters of size 3.
            "histogram" => self
                .histogram
                .iter()
                .map(|(size, n)| (size.to_string(), Value::from(*n)))
                .collect::<Document>(),
        })
    }
}

/// The Figure 1 result.
#[derive(Debug, Clone)]
pub struct Figure1 {
    /// (a) single snapshot; (b) full archive, all attributes; (c) full
    /// archive, person attributes only.
    pub series: Vec<Series>,
}

impl Figure1 {
    /// The result as a JSON document (see [`crate::output::write_json`]).
    pub fn to_value(&self) -> Value {
        Value::Doc(doc! {
            "series" => Value::Array(self.series.iter().map(Series::to_value).collect()),
        })
    }
}

/// Run the experiment.
pub fn run(scale: &ExperimentScale) -> Figure1 {
    // (a) a single snapshot (the paper found essentially no duplicates
    // within one snapshot — clusters of size 1 dominate).
    let mut registry = Registry::new(scale.generator());
    let calendar = standard_calendar();
    let snap = registry.generate_snapshot(&calendar[0]);
    let mut single = ClusterStore::new();
    import_snapshot(&mut single, &snap, DedupPolicy::Trimmed, 1);

    // (b)+(c) the full archive under both attribute scopes.
    let all = scale.run(DedupPolicy::Trimmed);
    let person = scale.run(DedupPolicy::PersonData);

    Figure1 {
        series: vec![
            Series {
                label: "single snapshot".into(),
                histogram: cluster_size_histogram(&single),
            },
            Series {
                label: "all snapshots, all attributes".into(),
                histogram: cluster_size_histogram(&all.store),
            },
            Series {
                label: "all snapshots, person data".into(),
                histogram: cluster_size_histogram(&person.store),
            },
        ],
    }
}

/// Render the histograms.
pub fn render(f: &Figure1) -> String {
    let mut out = String::new();
    out.push_str("Figure 1: #clusters per cluster size\n");
    for s in &f.series {
        out.push_str(&format!("\n-- {} --\n", s.label));
        let max = s.histogram.values().copied().max().unwrap_or(1);
        for (&size, &count) in &s.histogram {
            out.push_str(&format!(
                "  size {size:>3}: {count:>8} {}\n",
                bar(count as f64 / max as f64, 40)
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_snapshot_is_mostly_singletons() {
        let f = run(&ExperimentScale::tiny());
        assert_eq!(f.series.len(), 3);
        let single = &f.series[0].histogram;
        let singletons = single.get(&1).copied().unwrap_or(0);
        let total: u64 = single.values().sum();
        assert!(singletons as f64 > total as f64 * 0.95, "{singletons}/{total}");
        // Full archive grows real clusters.
        let full = &f.series[1].histogram;
        assert!(full.keys().any(|&s| s >= 2));
        // Person-only scope compresses further: its average size is <=
        // the all-attribute average.
        let avg = |h: &BTreeMap<usize, u64>| {
            let records: u64 = h.iter().map(|(&s, &c)| s as u64 * c).sum();
            let clusters: u64 = h.values().sum();
            records as f64 / clusters as f64
        };
        assert!(avg(&f.series[2].histogram) <= avg(&f.series[1].histogram) + 1e-9);
        assert!(render(&f).contains("single snapshot"));
    }
}
