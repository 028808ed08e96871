//! Table 2: statistical results of the generation process under the
//! four duplicate-removal policies.

use nc_docstore::doc;
use nc_docstore::value::Value;

use nc_core::record::DedupPolicy;
use nc_core::stats::generation_table_row;

use crate::context::ExperimentScale;
use crate::output::{num, pct};

/// Serializable Table 2 row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Policy label.
    pub policy: String,
    /// Records kept.
    pub records: u64,
    /// Duplicate pairs among kept records.
    pub duplicate_pairs: u64,
    /// Average cluster size.
    pub avg_cluster_size: f64,
    /// Maximum cluster size.
    pub max_cluster_size: u64,
    /// Rows removed as duplicates.
    pub removed_records: u64,
    /// Fraction of rows removed.
    pub removed_record_rate: f64,
    /// Duplicate pairs removed vs the no-removal baseline.
    pub removed_pairs: u64,
    /// Fraction of baseline pairs removed.
    pub removed_pair_rate: f64,
}

impl Row {
    /// The result as a JSON document (see [`crate::output::write_json`]).
    pub fn to_value(&self) -> Value {
        Value::Doc(doc! {
            "policy" => self.policy.as_str(),
            "records" => self.records,
            "duplicate_pairs" => self.duplicate_pairs,
            "avg_cluster_size" => self.avg_cluster_size,
            "max_cluster_size" => self.max_cluster_size,
            "removed_records" => self.removed_records,
            "removed_record_rate" => self.removed_record_rate,
            "removed_pairs" => self.removed_pairs,
            "removed_pair_rate" => self.removed_pair_rate,
        })
    }
}

/// The full Table 2 result.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Number of objects (identical across policies).
    pub clusters: u64,
    /// One row per policy.
    pub rows: Vec<Row>,
}

impl Table2 {
    /// The result as a JSON document (see [`crate::output::write_json`]).
    pub fn to_value(&self) -> Value {
        Value::Doc(doc! {
            "clusters" => self.clusters,
            "rows" => Value::Array(self.rows.iter().map(Row::to_value).collect()),
        })
    }
}

/// Run the experiment: four imports of the same archive.
pub fn run(scale: &ExperimentScale) -> Table2 {
    let mut rows = Vec::new();
    let mut clusters = 0;
    for policy in DedupPolicy::ALL {
        let outcome = scale.run(policy);
        let s = generation_table_row(&outcome.store, policy.label());
        clusters = s.clusters;
        rows.push(Row {
            policy: s.policy.to_owned(),
            records: s.records,
            duplicate_pairs: s.duplicate_pairs,
            avg_cluster_size: s.avg_cluster_size,
            max_cluster_size: s.max_cluster_size,
            removed_records: s.removed_records,
            removed_record_rate: s.removed_record_rate,
            removed_pairs: s.removed_pairs,
            removed_pair_rate: s.removed_pair_rate,
        });
    }
    Table2 { clusters, rows }
}

/// Render as the paper's table layout.
pub fn render(t: &Table2) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Table 2: generation statistics (number of objects was always {})\n",
        t.clusters
    ));
    out.push_str(
        "removal       #records  #dupl pairs   avg size  max   #removed    rate   rm pairs    rate\n",
    );
    for r in &t.rows {
        out.push_str(&format!(
            "{:<12} {} {} {:>10.2} {:>4} {} {} {} {}\n",
            r.policy,
            num(r.records),
            num(r.duplicate_pairs),
            r.avg_cluster_size,
            r.max_cluster_size,
            num(r.removed_records),
            pct(r.removed_record_rate),
            num(r.removed_pairs),
            pct(r.removed_pair_rate),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_compress_progressively() {
        let t = run(&ExperimentScale::tiny());
        assert_eq!(t.rows.len(), 4);
        assert_eq!(t.rows[0].policy, "no");
        assert_eq!(t.rows[0].removed_records, 0);
        // Monotone record compression across policies.
        for w in t.rows.windows(2) {
            assert!(w[0].records >= w[1].records, "{w:?}");
        }
        let rendered = render(&t);
        assert!(rendered.contains("person data"));
    }
}
