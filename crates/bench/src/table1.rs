//! Table 1: snapshot statistics per year.

use nc_docstore::doc;
use nc_docstore::value::Value;

use nc_core::record::DedupPolicy;
use nc_core::stats::{snapshot_table, YearStats};

use crate::context::ExperimentScale;
use crate::output::{num, pct};

/// Serializable Table 1 row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Calendar year.
    pub year: i32,
    /// Snapshots that year.
    pub snapshots: usize,
    /// Total rows.
    pub total_rows: u64,
    /// New records.
    pub new_records: u64,
    /// New objects (clusters).
    pub new_objects: u64,
    /// new_records / total_rows.
    pub new_record_rate: f64,
    /// new_objects / new_records.
    pub new_object_rate: f64,
}

impl Row {
    /// The result as a JSON document (see [`crate::output::write_json`]).
    pub fn to_value(&self) -> Value {
        Value::Doc(doc! {
            "year" => self.year,
            "snapshots" => self.snapshots,
            "total_rows" => self.total_rows,
            "new_records" => self.new_records,
            "new_objects" => self.new_objects,
            "new_record_rate" => self.new_record_rate,
            "new_object_rate" => self.new_object_rate,
        })
    }
}

impl From<&YearStats> for Row {
    fn from(y: &YearStats) -> Self {
        Row {
            year: y.year,
            snapshots: y.snapshots,
            total_rows: y.total_rows,
            new_records: y.new_records,
            new_objects: y.new_objects,
            new_record_rate: y.new_record_rate(),
            new_object_rate: y.new_object_rate(),
        }
    }
}

/// The full Table 1 result.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Per-year rows.
    pub rows: Vec<Row>,
    /// Grand totals.
    pub total: Row,
}

impl Table1 {
    /// The result as a JSON document (see [`crate::output::write_json`]).
    pub fn to_value(&self) -> Value {
        Value::Doc(doc! {
            "rows" => Value::Array(self.rows.iter().map(Row::to_value).collect()),
            "total" => self.total.to_value(),
        })
    }
}

/// Run the experiment.
pub fn run(scale: &ExperimentScale) -> Table1 {
    let outcome = scale.run(DedupPolicy::Trimmed);
    let years = snapshot_table(&outcome.imports);
    let rows: Vec<Row> = years.iter().map(Row::from).collect();
    let total_rows: u64 = rows.iter().map(|r| r.total_rows).sum();
    let new_records: u64 = rows.iter().map(|r| r.new_records).sum();
    let new_objects: u64 = rows.iter().map(|r| r.new_objects).sum();
    let total = Row {
        year: 0,
        snapshots: rows.iter().map(|r| r.snapshots).sum(),
        total_rows,
        new_records,
        new_objects,
        new_record_rate: if total_rows == 0 {
            0.0
        } else {
            new_records as f64 / total_rows as f64
        },
        new_object_rate: if new_records == 0 {
            0.0
        } else {
            new_objects as f64 / new_records as f64
        },
    };
    Table1 { rows, total }
}

/// Render as the paper's table layout.
pub fn render(t: &Table1) -> String {
    let mut out = String::new();
    out.push_str("Table 1: snapshot statistics of the (synthetic) voter archive\n");
    out.push_str(
        "year   #snaps  total rows  new records  new objects  new rec rate  new obj rate\n",
    );
    for r in &t.rows {
        out.push_str(&format!(
            "{:<6} {:>6} {} {} {}   {}  {}\n",
            r.year,
            r.snapshots,
            num(r.total_rows),
            num(r.new_records),
            num(r.new_objects),
            pct(r.new_record_rate),
            pct(r.new_object_rate),
        ));
    }
    out.push_str(&format!(
        "total  {:>6} {} {} {}   {}  {}\n",
        t.total.snapshots,
        num(t.total.total_rows),
        num(t.total.new_records),
        num(t.total.new_objects),
        pct(t.total.new_record_rate),
        pct(t.total.new_object_rate),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_table1_has_expected_shape() {
        let t = run(&ExperimentScale::tiny());
        assert_eq!(t.rows[0].year, 2008);
        assert!((t.rows[0].new_record_rate - 1.0).abs() < 1e-12);
        assert_eq!(
            t.total.total_rows,
            t.rows.iter().map(|r| r.total_rows).sum::<u64>()
        );
        let rendered = render(&t);
        assert!(rendered.contains("2008"));
        assert!(rendered.contains("total"));
    }
}
