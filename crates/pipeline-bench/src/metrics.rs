//! The benchmark's fixed vocabulary: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics, and the result line.
//!
//! This table is the single source of `BENCHMARK.json` (`bench_pipeline
//! manifest` prints it; a test keeps the committed file equal to it), so
//! a metric cannot be emitted under a name the manifest does not list.

use crate::harness::{json_number, json_string, Checks};

/// Seconds one run measures for (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 20;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The manifest's spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// The four workloads and the one-line reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "build_cold",
        "TSV archive to first carve through WAL ingest, publish and full scoring, then a WAL-replay restart; only here do core.tsv, shard.wal and full scoring dominate and serve.* idles",
    ),
    (
        "refresh",
        "a new snapshot arrives on a serving, cache-primed system: founding calendar rounds and revise-only 0.1% churn rounds, the input property cache carry-forward branches on",
    ),
    (
        "serve_mix",
        "closed-loop clients over real TCP, 80% hot requests answered from the carve cache and 20% never-repeated misses that carve, query, encode and render",
    ),
    (
        "detect_carved",
        "paper-shape NC2 carve fed to indexed blocking, matching and classification; the only workload where detect.* and the similarity kernels dominate",
    ),
];

/// End-to-end metrics: `(name, unit, better, bound)`. Every workload
/// reports every one of them; `main_op_ms`, `alt_op_ms` and
/// `throughput_per_s` name the workload's own two user-visible
/// operations (see the README's glossary):
///
/// | workload | `main_op_ms` | `alt_op_ms` | `throughput_per_s` |
/// |---|---|---|---|
/// | `build_cold` | archive → first carve answered | restart: WAL replay → publish | archive rows ÷ main op |
/// | `refresh` | calendar-snapshot round | 0.1 % churn round | delta rows applied ÷ round time |
/// | `serve_mix` | hot-class request p50 | miss-class request p50 | requests completed ÷ wall |
/// | `detect_carved` | dataset build → evaluate | paper-shape NC2 carve | dataset records ÷ main op |
pub const END_TO_END: &[(&str, &str, Better, f64)] = &[
    ("main_op_ms", "ms", Lower, 0.25),
    ("alt_op_ms", "ms", Lower, 0.25),
    ("throughput_per_s", "1/s", Higher, 0.25),
    ("peak_rss_mb", "MB", Lower, 0.05),
    ("setup_s", "s", Lower, 0.25),
];

/// Per-layer metrics: `(name, unit, better)`, from the traced run only.
/// A workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    // set-up, all workloads
    ("votergen.generate_s", "s", Lower),
    ("votergen.rows", "count", Higher),
    ("core.tsv.write_s", "s", Lower),
    ("core.tsv.archive_bytes", "bytes", Lower),
    // build_cold
    ("core.tsv.read_s", "s", Lower),
    ("shard.store.ingest_mem_s", "s", Lower),
    ("shard.ingest_s", "s", Lower),
    ("shard.ingest_rows_per_s", "1/s", Higher),
    ("shard.wal.overhead_share", "ratio", Lower),
    ("shard.wal.bytes", "bytes", Lower),
    ("shard.wal.segments", "count", Lower),
    ("shard.disk_bytes_per_input_byte", "ratio", Lower),
    ("shard.publish_cold_s", "s", Lower),
    ("shard.publish_noop_s", "s", Lower),
    ("shard.replay_s", "s", Lower),
    ("shard.replay_rows_per_s", "1/s", Higher),
    ("core.scoring.full_s", "s", Lower),
    ("core.scoring.records_per_s", "1/s", Higher),
    ("core.snapshot.entropy_s", "s", Lower),
    ("query.catalog.build_s", "s", Lower),
    ("query.catalog.docs", "count", Higher),
    ("serve.engine.first_carve_ms", "ms", Lower),
    // refresh
    ("shard.ingest_delta_s", "s", Lower),
    ("stream.drain_s", "s", Lower),
    ("stream.rows", "count", Higher),
    ("stream.fold_s", "s", Lower),
    ("stream.dirty_clusters", "count", Lower),
    ("shard.publish_incr_s", "s", Lower),
    ("core.scoring.incr_s", "s", Lower),
    ("core.scoring.dirty_share", "ratio", Lower),
    ("serve.engine.publish_s", "s", Lower),
    ("serve.cache.carried", "count", Higher),
    ("serve.cache.invalidated", "count", Lower),
    ("serve.cache.carry_ratio", "ratio", Higher),
    ("serve.engine.recarve_s", "s", Lower),
    ("serve.cache.post_publish_hit_ratio", "ratio", Higher),
    // serve_mix
    ("serve.client.hot_tail_ms", "ms", Lower),
    ("serve.client.hot_tail_pct", "%", Higher),
    ("serve.client.miss_tail_ms", "ms", Lower),
    ("serve.client.miss_tail_pct", "%", Higher),
    ("serve.http.parse_us", "us", Lower),
    ("serve.http.write_us", "us", Lower),
    ("serve.engine.warm_us", "us", Lower),
    ("serve.http.overhead_ms", "ms", Lower),
    ("serve.engine.cold_preset_ms", "ms", Lower),
    ("serve.engine.cold_knob_ms", "ms", Lower),
    ("serve.engine.cold_query_ms", "ms", Lower),
    ("serve.engine.cold_clk_ms", "ms", Lower),
    ("serve.engine.render_ms", "ms", Lower),
    ("query.json.parse_us", "us", Lower),
    ("query.exec.plan_us", "us", Lower),
    ("query.exec.execute_ms", "ms", Lower),
    ("query.exec.rows_examined_per_result", "ratio", Lower),
    ("query.exec.conjuncts_scanned", "count", Lower),
    ("pprl.encode_records_per_s", "1/s", Higher),
    ("serve.cache.hit_ratio", "ratio", Higher),
    ("serve.cache.evictions", "count", Lower),
    ("serve.server.saturated", "count", Lower),
    ("serve.server.worker_panics", "count", Lower),
    // serve_mix and detect_carved
    ("core.customize.carve_ms", "ms", Lower),
    // detect_carved
    ("detect.dataset.build_s", "s", Lower),
    ("detect.blocking.indexed_s", "s", Lower),
    ("detect.blocking.candidates", "count", Lower),
    ("detect.blocking.candidates_per_record", "ratio", Lower),
    ("detect.blocking.completeness", "ratio", Higher),
    ("detect.blocking.snm_s", "s", Lower),
    ("detect.blocking.snm_candidates", "count", Lower),
    ("detect.matcher.score_s", "s", Lower),
    ("detect.matcher.pairs_per_s", "1/s", Higher),
    ("detect.classify_s", "s", Lower),
    ("detect.precision", "ratio", Higher),
    ("detect.recall", "ratio", Higher),
    ("detect.f1", "ratio", Higher),
    ("similarity.ns_per_pair", "ns", Lower),
    // all workloads
    ("trace.stage_coverage_min", "ratio", Higher),
    ("trace.spans", "count", Lower),
    ("trace.overhead_share", "ratio", Lower),
];

/// Unit of a metric of either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
}

/// The metrics of one run, filled in by a workload.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Record a metric. Panics on a name outside the tables or set
    /// twice: both are bugs in a workload, not run-time conditions.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric `{name}` is not in the tables"
        );
        assert!(
            !self.values.iter().any(|(n, _)| *n == name),
            "metric `{name}` set twice"
        );
        self.values.push((name, value));
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

/// The outcome of one run of one workload.
#[derive(Debug)]
pub struct Report {
    /// Whether every operation and correctness check passed.
    pub correct: bool,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    /// One line per failure, for the log.
    pub messages: Vec<String>,
    /// `(name, value)` in table order: every end-to-end metric for an
    /// untraced run, every per-layer metric for a traced one.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// Assemble the report of a run. An untraced run must have set every
    /// end-to-end metric; a traced run reports 0 for the per-layer
    /// metrics of layers the workload never called.
    pub fn new(traced: bool, checks: Checks, metrics: Metrics) -> Report {
        let values: Vec<(&'static str, f64)> = if traced {
            PER_LAYER
                .iter()
                .map(|m| (m.0, metrics.get(m.0).unwrap_or(0.0)))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    let v = metrics.get(m.0);
                    (
                        m.0,
                        v.unwrap_or_else(|| panic!("end-to-end metric `{}` not set", m.0)),
                    )
                })
                .collect()
        };
        Report {
            correct: checks.failed == 0,
            attempted: checks.attempted.max(1),
            failed: checks.failed,
            messages: checks.messages,
            metrics: values,
        }
    }

    /// The result line of the benchmark contract.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(*value),
                json_string(unit_of(name).expect("report names come from the tables")),
            ));
        }
        out.push_str("}}");
        out
    }
}

/// The contents of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"crates/pipeline-bench/run.sh\"],\n");
    out.push_str("  \"paths\": [\"crates/pipeline-bench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{}\n",
            json_string(name),
            json_string(why),
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{}\n",
            json_string(name),
            json_string(unit),
            json_string(better.label()),
            json_number(*bound),
            if i + 1 < END_TO_END.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{}\n",
            json_string(name),
            json_string(unit),
            json_string(better.label()),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0));
        for name in names {
            assert!(name_ok(name), "bad name {name}");
            assert!(seen.insert(name), "name {name} used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.1)
            .chain(PER_LAYER.iter().map(|m| m.1))
        {
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "bad unit {unit}"
            );
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.3 > 0.0 && m.3 <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == Better::Lower));
    }

    #[test]
    fn report_line_lists_every_metric_of_its_mode() {
        let mut m = Metrics::default();
        for (name, ..) in END_TO_END {
            m.set(name, 1.5);
        }
        let mut checks = Checks::default();
        checks.check(true, String::new);
        let line = Report::new(false, checks, m).to_json();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
        for (name, unit, ..) in END_TO_END {
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
            )));
        }

        let traced = Report::new(true, Checks::default(), Metrics::default());
        assert_eq!(traced.metrics.len(), PER_LAYER.len());
        assert!(traced.metrics.iter().all(|(_, v)| *v == 0.0));
    }

    #[test]
    #[should_panic(expected = "set twice")]
    fn setting_a_metric_twice_is_a_bug() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.0);
        m.set("setup_s", 2.0);
    }
}
