//! Table 3: characteristics of all evaluated datasets — the three
//! comparators plus the customized NC1/NC2/NC3.

use nc_docstore::doc;
use nc_docstore::value::Value;

use nc_core::customize::{customize, CustomizeParams};
use nc_core::heterogeneity::Scope;
use nc_datasets::characteristics::{characteristics, Characteristics};
use nc_datasets::{cddb, census, cora};
use nc_suite::bridge;

use crate::context::NcContext;

/// Serializable Table 3 row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Dataset label.
    pub name: String,
    /// Record count.
    pub records: usize,
    /// Attribute count.
    pub attributes: usize,
    /// Gold duplicate pairs.
    pub duplicate_pairs: usize,
    /// Cluster count.
    pub clusters: usize,
    /// Clusters with ≥ 2 records.
    pub non_singletons: usize,
    /// Largest cluster.
    pub max_cluster_size: usize,
    /// Average cluster size.
    pub avg_cluster_size: f64,
    /// Maximum gold-pair heterogeneity.
    pub max_heterogeneity: f64,
    /// Average gold-pair heterogeneity.
    pub avg_heterogeneity: f64,
}

impl Row {
    /// The result as a JSON document (see [`crate::output::write_json`]).
    pub fn to_value(&self) -> Value {
        Value::Doc(doc! {
            "name" => self.name.as_str(),
            "records" => self.records,
            "attributes" => self.attributes,
            "duplicate_pairs" => self.duplicate_pairs,
            "clusters" => self.clusters,
            "non_singletons" => self.non_singletons,
            "max_cluster_size" => self.max_cluster_size,
            "avg_cluster_size" => self.avg_cluster_size,
            "max_heterogeneity" => self.max_heterogeneity,
            "avg_heterogeneity" => self.avg_heterogeneity,
        })
    }
}

impl From<Characteristics> for Row {
    fn from(c: Characteristics) -> Self {
        Row {
            name: c.name,
            records: c.records,
            attributes: c.attributes,
            duplicate_pairs: c.duplicate_pairs,
            clusters: c.clusters,
            non_singletons: c.non_singletons,
            max_cluster_size: c.max_cluster_size,
            avg_cluster_size: c.avg_cluster_size,
            max_heterogeneity: c.max_heterogeneity,
            avg_heterogeneity: c.avg_heterogeneity,
        }
    }
}

/// The full Table 3.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// One row per dataset.
    pub rows: Vec<Row>,
}

impl Table3 {
    /// The result as a JSON document (see [`crate::output::write_json`]).
    pub fn to_value(&self) -> Value {
        Value::Doc(doc! {
            "rows" => Value::Array(self.rows.iter().map(Row::to_value).collect()),
        })
    }
}

/// Customization sample/output sizes for the NC bands, scaled down from
/// the paper's 100 K / 10 K.
pub struct NcBandSizes {
    /// Clusters sampled from the store.
    pub sample: usize,
    /// Largest reduced clusters kept.
    pub output: usize,
}

/// Run the experiment.
pub fn run(ctx: &NcContext, sizes: &NcBandSizes, seed: u64) -> Table3 {
    let mut rows: Vec<Row> = vec![
        characteristics("Cora", &cora::generate(seed)).into(),
        characteristics("Census", &census::generate(seed)).into(),
        characteristics("CDDB", &cddb::generate(seed)).into(),
    ];

    let attrs = Scope::Person.attrs();
    for (name, params) in [
        ("NC1", CustomizeParams::nc1(sizes.sample, sizes.output, seed)),
        ("NC2", CustomizeParams::nc2(sizes.sample, sizes.output, seed)),
        ("NC3", CustomizeParams::nc3(sizes.sample, sizes.output, seed)),
    ] {
        let ds = customize(&ctx.outcome.store, &ctx.het_person, &params);
        let data = bridge::dataset_from_custom(&ds, attrs);
        rows.push(characteristics(name, &data).into());
    }
    Table3 { rows }
}

/// Render as the paper's table layout.
pub fn render(t: &Table3) -> String {
    let mut out = String::new();
    out.push_str("Table 3: characteristics of evaluated datasets\n");
    out.push_str(&format!(
        "{:<22}{}\n",
        "dataset",
        t.rows
            .iter()
            .map(|r| format!("{:>10}", r.name))
            .collect::<String>()
    ));
    let line = |label: &str, f: &dyn Fn(&Row) -> String| {
        format!(
            "{:<22}{}\n",
            label,
            t.rows.iter().map(|r| format!("{:>10}", f(r))).collect::<String>()
        )
    };
    out.push_str(&line("#records", &|r| r.records.to_string()));
    out.push_str(&line("#attributes", &|r| r.attributes.to_string()));
    out.push_str(&line("#duplicate pairs", &|r| r.duplicate_pairs.to_string()));
    out.push_str(&line("#clusters", &|r| r.clusters.to_string()));
    out.push_str(&line("#non-singletons", &|r| r.non_singletons.to_string()));
    out.push_str(&line("max cluster size", &|r| r.max_cluster_size.to_string()));
    out.push_str(&line("avg cluster size", &|r| format!("{:.2}", r.avg_cluster_size)));
    out.push_str(&line("max heterogeneity", &|r| format!("{:.2}", r.max_heterogeneity)));
    out.push_str(&line("avg heterogeneity", &|r| format!("{:.3}", r.avg_heterogeneity)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExperimentScale;

    #[test]
    fn table3_orders_nc_bands_by_dirtiness() {
        let ctx = NcContext::build(&ExperimentScale::tiny());
        let t = run(&ctx, &NcBandSizes { sample: 150, output: 40 }, 1);
        assert_eq!(t.rows.len(), 6);
        let nc1 = t.rows.iter().find(|r| r.name == "NC1").unwrap();
        let nc2 = t.rows.iter().find(|r| r.name == "NC2").unwrap();
        assert!(
            nc1.avg_heterogeneity <= nc2.avg_heterogeneity + 1e-9,
            "NC1 {} vs NC2 {}",
            nc1.avg_heterogeneity,
            nc2.avg_heterogeneity
        );
        assert!(render(&t).contains("avg heterogeneity"));
    }
}
