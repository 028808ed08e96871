//! Table 4: statistics of the different irregularity types for the NC
//! data, Cora and Census.

use nc_docstore::doc;
use nc_docstore::value::Value;

use nc_analysis::report::{analyze, AnalysisConfig, ErrorProfile};
use nc_analysis::singleton::SingletonConfig;
use nc_core::heterogeneity::Scope;
use nc_datasets::{census, cora};
use nc_suite::bridge;

use crate::context::NcContext;

/// One rendered cell: a dataset's stat for one error type.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Occurrences in the most common attribute.
    pub count: u64,
    /// Occurrences over all attributes.
    pub total_count: u64,
    /// Normalized rate (by records or pairs).
    pub percentage: f64,
    /// Attribute with the most occurrences.
    pub most_common_attr: Option<String>,
}

impl Cell {
    /// The result as a JSON document (see [`crate::output::write_json`]).
    pub fn to_value(&self) -> Value {
        Value::Doc(doc! {
            "count" => self.count,
            "total_count" => self.total_count,
            "percentage" => self.percentage,
            "most_common_attr" => self.most_common_attr.clone(),
        })
    }
}

/// The full Table 4.
#[derive(Debug, Clone)]
pub struct Table4 {
    /// Dataset labels, in column order (NC, Cora, Census).
    pub datasets: Vec<String>,
    /// Records per dataset.
    pub records: Vec<u64>,
    /// Duplicate pairs per dataset.
    pub pairs: Vec<u64>,
    /// error type label → one cell per dataset.
    pub rows: Vec<(String, Vec<Cell>)>,
}

impl Table4 {
    /// The result as a JSON document (see [`crate::output::write_json`]).
    pub fn to_value(&self) -> Value {
        Value::Doc(doc! {
            "datasets" => self.datasets.clone(),
            "records" => self.records.clone(),
            "pairs" => self.pairs.clone(),
            "rows" => Value::Array(
                self.rows
                    .iter()
                    .map(|(error_type, cells)| {
                        Value::Array(vec![
                            error_type.as_str().into(),
                            Value::Array(cells.iter().map(Cell::to_value).collect()),
                        ])
                    })
                    .collect(),
            ),
        })
    }
}

fn cells(profile: &ErrorProfile) -> Vec<(String, Cell)> {
    profile
        .stats
        .iter()
        .map(|s| {
            (
                s.error_type.label().to_owned(),
                Cell {
                    count: s.count,
                    total_count: s.total_count,
                    percentage: s.percentage,
                    most_common_attr: s.most_common_attr.clone(),
                },
            )
        })
        .collect()
}

/// Run the experiment.
pub fn run(ctx: &NcContext, seed: u64) -> Table4 {
    // NC data, person attributes (the paper analyzes the personal
    // attributes of the person-data dataset).
    let attrs = Scope::Person.attrs();
    let nc_data = bridge::dataset_from_store(&ctx.outcome.store, attrs);
    let nc_profile = analyze(&nc_data, &bridge::nc_analysis_config(attrs));

    // Cora: bibliographic; name-like attributes are authors/title.
    let cora_data = cora::generate(seed);
    let cora_cfg = AnalysisConfig {
        singleton: SingletonConfig {
            numeric_ranges: vec![(7, 1900, 2030)], // year
            alpha_attrs: vec![],
        },
        confusable_pairs: vec![(2, 3), (2, 4), (3, 4)], // venue/journal/booktitle
        analyzed_attrs: Vec::new(),
        threads: 0,
    };
    let cora_profile = analyze(&cora_data, &cora_cfg);

    // Census: person data.
    let census_data = census::generate(seed);
    let census_cfg = AnalysisConfig {
        singleton: SingletonConfig {
            numeric_ranges: vec![],
            alpha_attrs: vec![0, 1, 2],
        },
        confusable_pairs: vec![(0, 1), (1, 2), (0, 2)],
        analyzed_attrs: Vec::new(),
        threads: 0,
    };
    let census_profile = analyze(&census_data, &census_cfg);

    let profiles = [&nc_profile, &cora_profile, &census_profile];
    let per_dataset: Vec<Vec<(String, Cell)>> = profiles.iter().map(|p| cells(p)).collect();
    let rows = per_dataset[0]
        .iter()
        .enumerate()
        .map(|(i, (label, _))| {
            (
                label.clone(),
                per_dataset.iter().map(|d| d[i].1.clone()).collect(),
            )
        })
        .collect();

    Table4 {
        datasets: vec!["NC".into(), "Cora".into(), "Census".into()],
        records: profiles.iter().map(|p| p.records).collect(),
        pairs: profiles.iter().map(|p| p.duplicate_pairs).collect(),
        rows,
    }
}

/// Render as the paper's table layout.
pub fn render(t: &Table4) -> String {
    let mut out = String::new();
    out.push_str("Table 4: irregularity statistics\n");
    out.push_str(&format!("{:<18}", "error type"));
    for (i, d) in t.datasets.iter().enumerate() {
        out.push_str(&format!(
            "{:>24}",
            format!("{d} ({} rec/{} pr)", t.records[i], t.pairs[i])
        ));
    }
    out.push('\n');
    for (label, cells) in &t.rows {
        out.push_str(&format!("{label:<18}"));
        for c in cells {
            out.push_str(&format!(
                "{:>15} {:>7.2}%",
                c.count,
                100.0 * c.percentage
            ));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExperimentScale;

    #[test]
    fn table4_shape_matches_paper_claims() {
        let ctx = NcContext::build(&ExperimentScale::tiny());
        let t = run(&ctx, 1);
        assert_eq!(t.datasets.len(), 3);
        assert_eq!(t.rows.len(), 13);

        let get = |label: &str, ds: usize| -> &Cell {
            &t.rows.iter().find(|(l, _)| l == label).unwrap().1[ds]
        };
        // Census's last-name typo percentage far exceeds NC's (Table 4:
        // 65 % vs 0.9 %).
        assert!(get("typo", 2).percentage > get("typo", 0).percentage);
        // NC contains error classes the comparators (almost) lack.
        assert!(get("missing", 0).count > 0);
        let rendered = render(&t);
        assert!(rendered.contains("value confusion"));
        assert!(rendered.contains("Census"));
    }
}
