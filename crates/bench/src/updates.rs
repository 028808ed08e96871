//! The update process and reproducibility (Figure 2 / Section 5):
//! incremental imports, version publishing and reconstruction.

use nc_docstore::doc;
use nc_docstore::value::Value;

use nc_core::pipeline::{GenerationConfig, TestDataGenerator};
use nc_core::record::DedupPolicy;

use crate::context::ExperimentScale;

/// One published version in the report.
#[derive(Debug, Clone)]
pub struct VersionRow {
    /// Version number.
    pub version: u32,
    /// Snapshots imported by this version.
    pub snapshots: Vec<String>,
    /// Records after publishing.
    pub records: u64,
    /// Clusters after publishing.
    pub clusters: u64,
    /// Records obtained by reconstructing this version from the final
    /// store (must equal `records`).
    pub reconstructed_records: u64,
}

impl VersionRow {
    /// The result as a JSON document (see [`crate::output::write_json`]).
    pub fn to_value(&self) -> Value {
        Value::Doc(doc! {
            "version" => self.version,
            "snapshots" => self.snapshots.clone(),
            "records" => self.records,
            "clusters" => self.clusters,
            "reconstructed_records" => self.reconstructed_records,
        })
    }
}

/// The updates experiment result.
#[derive(Debug, Clone)]
pub struct Updates {
    /// One row per published version.
    pub versions: Vec<VersionRow>,
    /// Whether every reconstruction matched its published totals.
    pub reconstruction_ok: bool,
}

impl Updates {
    /// The result as a JSON document (see [`crate::output::write_json`]).
    pub fn to_value(&self) -> Value {
        Value::Doc(doc! {
            "versions" => Value::Array(self.versions.iter().map(VersionRow::to_value).collect()),
            "reconstruction_ok" => self.reconstruction_ok,
        })
    }
}

/// Run the experiment: one version per snapshot, then reconstruct each.
pub fn run(scale: &ExperimentScale) -> Updates {
    let outcome = TestDataGenerator::run_incremental(GenerationConfig {
        generator: scale.generator(),
        policy: DedupPolicy::Trimmed,
        snapshots: scale.snapshots,
    });
    let mut versions = Vec::new();
    let mut ok = true;
    for v in outcome.versions.history() {
        let rec = outcome.versions.reconstruct(&outcome.store, v.number);
        let reconstructed: u64 = rec.iter().map(|(_, rows)| rows.len() as u64).sum();
        ok &= reconstructed == v.records_total;
        versions.push(VersionRow {
            version: v.number,
            snapshots: v.snapshots.clone(),
            records: v.records_total,
            clusters: v.clusters_total,
            reconstructed_records: reconstructed,
        });
    }
    Updates {
        versions,
        reconstruction_ok: ok,
    }
}

/// Render the version table.
pub fn render(u: &Updates) -> String {
    let mut out = String::new();
    out.push_str("Update process: one published version per snapshot (Figure 2)\n");
    out.push_str("version   records  clusters  reconstructed  snapshots\n");
    for v in &u.versions {
        out.push_str(&format!(
            "{:>7} {:>9} {:>9} {:>14}  {}\n",
            v.version,
            v.records,
            v.clusters,
            v.reconstructed_records,
            v.snapshots.join(",")
        ));
    }
    out.push_str(&format!(
        "reconstruction check: {}\n",
        if u.reconstruction_ok { "OK" } else { "FAILED" }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn updates_reconstruct_exactly() {
        let u = run(&ExperimentScale::tiny());
        assert_eq!(u.versions.len(), 6);
        assert!(u.reconstruction_ok);
        for w in u.versions.windows(2) {
            assert!(w[0].records <= w[1].records);
        }
        assert!(render(&u).contains("reconstruction check: OK"));
    }
}
