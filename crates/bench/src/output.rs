//! Rendering helpers shared by the experiment reports.

use std::path::Path;

use nc_docstore::value::Value;

/// Render a right-aligned numeric cell of width 10.
pub fn num<T: std::fmt::Display>(x: T) -> String {
    format!("{x:>10}")
}

/// Render a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:>7.1}%", 100.0 * x)
}

/// Render a fixed-precision float.
pub fn f3(x: f64) -> String {
    format!("{x:>8.3}")
}

/// An ASCII bar for inline histograms (length proportional to `frac`).
pub fn bar(frac: f64, width: usize) -> String {
    let n = ((frac.clamp(0.0, 1.0)) * width as f64).round() as usize;
    "#".repeat(n)
}

/// Write a result (a report's `to_value()`) under `dir/name.json` in
/// the canonical rendering: one line, keys sorted.
pub fn write_json(dir: &Path, name: &str, value: &Value) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut json = value.to_json();
    json.push('\n');
    std::fs::write(dir.join(format!("{name}.json")), json)
}

/// Histogram bins rendered as `lo..hi count bar` lines.
pub fn render_histogram(counts: &[u64], bins: usize, out: &mut String) {
    let max = counts.iter().copied().max().unwrap_or(1).max(1);
    for (i, &c) in counts.iter().enumerate() {
        let lo = i as f64 / bins as f64;
        let hi = (i + 1) as f64 / bins as f64;
        out.push_str(&format!(
            "  [{lo:>4.2}, {hi:>4.2}) {c:>9} {}\n",
            bar(c as f64 / max as f64, 40)
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(num(42), "        42");
        assert_eq!(pct(0.765), "   76.5%");
        assert_eq!(f3(0.1234), "   0.123");
        assert_eq!(bar(0.5, 10), "#####");
        assert_eq!(bar(2.0, 4), "####");
        assert_eq!(bar(-1.0, 4), "");
    }

    #[test]
    fn histogram_rendering() {
        let mut s = String::new();
        render_histogram(&[1, 3, 0], 3, &mut s);
        assert_eq!(s.lines().count(), 3);
        assert!(s.contains("[0.33, 0.67)"));
    }

    #[test]
    fn json_round_trip() {
        let row = crate::table1::Row {
            year: 2008,
            snapshots: 1,
            total_rows: 2000,
            new_records: 158,
            new_objects: 11,
            new_record_rate: 1.0,
            new_object_rate: 0.06962025316455696,
        };
        let table = crate::table1::Table1 {
            rows: vec![row.clone()],
            total: row,
        };
        let dir = std::env::temp_dir().join(format!("nc_bench_out_{}", std::process::id()));
        write_json(&dir, "t", &table.to_value()).unwrap();
        let content = std::fs::read_to_string(dir.join("t.json")).unwrap();
        let row_json = "{\"new_object_rate\":0.06962025316455696,\"new_objects\":11,\
                        \"new_record_rate\":1.0,\"new_records\":158,\"snapshots\":1,\
                        \"total_rows\":2000,\"year\":2008}";
        assert_eq!(content, format!("{{\"rows\":[{row_json}],\"total\":{row_json}}}\n"));
        assert_eq!(
            nc_docstore::json::parse(content.as_bytes()).unwrap(),
            table.to_value()
        );
        std::fs::remove_dir_all(dir).unwrap();
    }
}
