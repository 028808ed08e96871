//! Planning and executing a [`CarveQuery`] over a [`ClusterCatalog`].
//!
//! A leading `match` stage is pushed onto the catalog collection's
//! indexes through [`Collection::plan`]: when any conjunct is indexed,
//! candidates come from posting-list intersection and the snapshot is
//! never fully scanned. Every other stage is delegated, one stage at a
//! time, to the docstore's own [`Stage::apply`], so planned execution is
//! equivalent to a naive [`Pipeline::run_docs`] by construction — the
//! only part the planner changes is how the first stage sources rows.
//! The `sample` stage (which docstore pipelines do not model) is a
//! partial Fisher–Yates shuffle over the workspace PRNG
//! ([`nc_votergen::rng`]), so the same `(seed, query, version)`
//! reproduces the same sample on every build.

use nc_docstore::pipeline::Pipeline;
use nc_docstore::plan::{ConjunctAccess, ConjunctDecision};
use nc_docstore::value::{Document, Value};
use nc_votergen::rng::Rng;

use crate::ast::{CarveQuery, QueryStage};
use crate::catalog::ClusterCatalog;

/// Execution knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecOptions {
    /// Ignore indexes and scan every cluster document. The bench harness
    /// uses this to measure the indexed-vs-scan speedup; the equivalence
    /// suite uses it to check both paths produce identical bytes.
    pub force_scan: bool,
}

/// What the final stage stream contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputKind {
    /// Whole clusters — the carve renders labeled record lines.
    Clusters,
    /// Transformed documents (after `project`/`group`/`count`) — the
    /// carve renders one JSON document per line.
    Docs,
}

impl OutputKind {
    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            OutputKind::Clusters => "clusters",
            OutputKind::Docs => "docs",
        }
    }
}

/// Per-stage row accounting for the explain report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTrace {
    /// Stage name.
    pub stage: &'static str,
    /// Rows flowing out of the stage; `None` when the plan was not
    /// executed (`/carve/explain`).
    pub rows_out: Option<usize>,
}

/// The query plan report: how the leading conjuncts were accessed,
/// estimated vs actual row counts, and per-stage row flow.
#[derive(Debug, Clone)]
pub struct Explain {
    /// Snapshot version the plan targets.
    pub version: u32,
    /// Clusters in the snapshot.
    pub total_clusters: usize,
    /// Whether index use was disabled by [`ExecOptions::force_scan`].
    pub forced_scan: bool,
    /// Whether execution reads every cluster document (no indexed
    /// conjunct, no leading match, or a forced scan).
    pub full_scan: bool,
    /// Rows the index layer expects the leading match to touch (posting
    /// intersection size), before residual filtering.
    pub estimated_rows: usize,
    /// Rows the leading match actually produced; `None` when the plan
    /// was not executed.
    pub actual_rows: Option<usize>,
    /// Per-conjunct access decisions for the leading match.
    pub decisions: Vec<ConjunctDecision>,
    /// Per-stage row flow.
    pub stages: Vec<StageTrace>,
    /// What the final stream contains.
    pub output: OutputKind,
}

impl Explain {
    /// Leading-match conjuncts served by an index.
    pub fn indexed_conjuncts(&self) -> usize {
        self.decisions.iter().filter(|d| d.is_indexed()).count()
    }

    /// Leading-match conjuncts that fall back to residual scan.
    pub fn scanned_conjuncts(&self) -> usize {
        self.decisions.len() - self.indexed_conjuncts()
    }

    /// Render as a JSON object (canonical sorted-key form).
    pub fn render_json(&self) -> String {
        let mut doc = Document::new();
        doc.set("version", i64::from(self.version));
        doc.set("total_clusters", self.total_clusters as i64);
        doc.set("forced_scan", self.forced_scan);
        doc.set("full_scan", self.full_scan);
        doc.set("estimated_rows", self.estimated_rows as i64);
        if let Some(n) = self.actual_rows {
            doc.set("actual_rows", n as i64);
        }
        doc.set("indexed_conjuncts", self.indexed_conjuncts() as i64);
        doc.set("scanned_conjuncts", self.scanned_conjuncts() as i64);
        let conjuncts: Vec<Value> = self
            .decisions
            .iter()
            .map(|d| {
                let mut c = Document::new();
                c.set("conjunct", d.conjunct.as_str());
                if let Some(p) = &d.path {
                    c.set("path", p.as_str());
                }
                match &d.access {
                    ConjunctAccess::IndexedEq { postings } => {
                        c.set("access", "indexed-eq");
                        c.set("postings", *postings as i64);
                    }
                    ConjunctAccess::IndexedRange { postings } => {
                        c.set("access", "indexed-range");
                        c.set("postings", *postings as i64);
                    }
                    ConjunctAccess::Scanned(reason) => {
                        c.set("access", "scan");
                        c.set("reason", reason.label());
                    }
                }
                Value::Doc(c)
            })
            .collect();
        doc.set("conjuncts", Value::Array(conjuncts));
        let stages: Vec<Value> = self
            .stages
            .iter()
            .map(|t| {
                let mut s = Document::new();
                s.set("stage", t.stage);
                if let Some(n) = t.rows_out {
                    s.set("rows_out", n as i64);
                }
                Value::Doc(s)
            })
            .collect();
        doc.set("stages", Value::Array(stages));
        doc.set("output", self.output.label());
        doc.to_json()
    }
}

/// The result of executing a carve query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// NCIDs matching the query's combined match predicate, sorted.
    /// This is the matched-set half of the cache footprint: a later
    /// publish revising any of these clusters invalidates the carve.
    pub matched: Vec<String>,
    /// Capture positions (snapshot cluster indexes) of the final
    /// clusters, in output order. `None` when the output is documents.
    pub positions: Option<Vec<usize>>,
    /// The final document stream (cluster docs, or transformed docs).
    pub docs: Vec<Document>,
    /// The plan report with actual row counts filled in.
    pub explain: Explain,
}

/// What the final stream of `stages` contains, without executing.
pub fn output_kind(stages: &[QueryStage]) -> OutputKind {
    let transforms = stages.iter().any(|s| {
        matches!(
            s,
            QueryStage::Project(_) | QueryStage::Group { .. } | QueryStage::Count
        )
    });
    if transforms {
        OutputKind::Docs
    } else {
        OutputKind::Clusters
    }
}

fn base_explain(catalog: &ClusterCatalog, query: &CarveQuery, opts: ExecOptions) -> Explain {
    let coll = catalog.collection();
    let total = coll.len();
    let mut decisions = Vec::new();
    let mut estimated = total;
    let mut full_scan = true;
    if let Some(QueryStage::Match(f)) = query.stages.first() {
        let plan = coll.plan(f);
        estimated = if opts.force_scan {
            total
        } else {
            plan.estimated_rows(total)
        };
        full_scan = opts.force_scan || plan.is_full_scan();
        decisions = plan.decisions;
    }
    Explain {
        version: catalog.version(),
        total_clusters: total,
        forced_scan: opts.force_scan,
        full_scan,
        estimated_rows: estimated,
        actual_rows: None,
        decisions,
        stages: query
            .stages
            .iter()
            .map(|s| StageTrace {
                stage: s.name(),
                rows_out: None,
            })
            .collect(),
        output: output_kind(&query.stages),
    }
}

/// Produce the plan report without executing (`POST /carve/explain`).
pub fn plan_query(catalog: &ClusterCatalog, query: &CarveQuery, opts: ExecOptions) -> Explain {
    base_explain(catalog, query, opts)
}

/// Execute the query over the catalog.
pub fn execute(catalog: &ClusterCatalog, query: &CarveQuery, opts: ExecOptions) -> QueryOutcome {
    let coll = catalog.collection();
    let mut explain = base_explain(catalog, query, opts);

    // Source the initial stream: a leading match goes through the
    // planner (posting-list intersection + residual filter) unless the
    // caller forced a scan; anything else starts from every cluster doc.
    let (mut docs, rest): (Vec<Document>, &[QueryStage]) = match query.stages.split_first() {
        Some((QueryStage::Match(f), rest)) => {
            let docs: Vec<Document> = if opts.force_scan {
                coll.iter_ordered()
                    .map(|(_, d)| d.clone())
                    .filter(|d| f.matches(d))
                    .collect()
            } else {
                coll.find(f).into_iter().cloned().collect()
            };
            (docs, rest)
        }
        _ => (
            coll.iter_ordered().map(|(_, d)| d.clone()).collect(),
            &query.stages[..],
        ),
    };
    let had_leading_match = rest.len() != query.stages.len();
    if had_leading_match {
        explain.actual_rows = Some(docs.len());
        explain.stages[0].rows_out = Some(docs.len());
    } else {
        explain.actual_rows = Some(docs.len());
    }

    // When the only match stage is the leading one, the footprint filter
    // is exactly that filter and `docs` already holds every admitted
    // cluster — record the matched set now instead of re-running the
    // index intersection + residual filter after the pipeline.
    let single_leading_match = had_leading_match
        && !rest.iter().any(|s| matches!(s, QueryStage::Match(_)));
    let matched_early: Option<Vec<String>> = single_leading_match.then(|| {
        docs.iter()
            .filter_map(|d| d.get("ncid").and_then(Value::as_str).map(str::to_owned))
            .collect()
    });

    let trace_offset = if had_leading_match { 1 } else { 0 };
    for (i, stage) in rest.iter().enumerate() {
        docs = match stage {
            QueryStage::Sample { size, seed, by } => {
                sample_docs(docs, *size, *seed, by.as_deref())
            }
            other => other
                .to_docstore_stage()
                .expect("only sample lacks a docstore stage")
                .apply(docs),
        };
        explain.stages[trace_offset + i].rows_out = Some(docs.len());
    }

    // The matched set for the cache footprint: every cluster the
    // recorded footprint admits (not just the sampled survivors). A
    // `None` filter (no match stage, or a match over a transformed
    // stream) records the full snapshot.
    let footprint = query.footprint();
    let mut matched: Vec<String> = match matched_early {
        Some(m) => m,
        None => match &footprint.filter {
            Some(f) => coll
                .find(f)
                .into_iter()
                .filter_map(|d| d.get("ncid").and_then(Value::as_str).map(str::to_owned))
                .collect(),
            None => coll
                .iter_ordered()
                .filter_map(|(_, d)| d.get("ncid").and_then(Value::as_str).map(str::to_owned))
                .collect(),
        },
    };
    matched.sort_unstable();

    let positions = match explain.output {
        OutputKind::Clusters => Some(
            docs.iter()
                .filter_map(|d| match d.get("_id") {
                    Some(Value::Int(i)) if *i >= 0 => Some(*i as usize),
                    _ => None,
                })
                .collect(),
        ),
        OutputKind::Docs => None,
    };

    QueryOutcome {
        matched,
        positions,
        docs,
        explain,
    }
}

/// The naive reference execution: every cluster doc through
/// [`Pipeline::run_docs`], with `sample` applied by the same sampler.
/// The equivalence suite asserts [`execute`] matches this byte for byte.
pub fn execute_naive(catalog: &ClusterCatalog, query: &CarveQuery) -> Vec<Document> {
    let mut docs: Vec<Document> = catalog
        .collection()
        .iter_ordered()
        .map(|(_, d)| d.clone())
        .collect();
    for stage in &query.stages {
        docs = match stage {
            QueryStage::Sample { size, seed, by } => {
                sample_docs(docs, *size, *seed, by.as_deref())
            }
            other => {
                let ds = other
                    .to_docstore_stage()
                    .expect("only sample lacks a docstore stage");
                Pipeline::from_stages(vec![ds]).run_docs(docs)
            }
        };
    }
    docs
}

/// Seeded deterministic sampling. Keeps up to `size` documents (per
/// stratum when `by` is set), preserving the incoming stream order of
/// the survivors. The sample depends only on `(seed, stream length,
/// strata)`, making carves reproducible across builds.
pub fn sample_docs(docs: Vec<Document>, size: usize, seed: u64, by: Option<&str>) -> Vec<Document> {
    match by {
        None => {
            let keep = choose(docs.len(), size, seed);
            take_indices(docs, keep)
        }
        Some(path) => {
            // Strata in first-occurrence order; each stratum draws from
            // its own seeded stream so adding one stratum never perturbs
            // another's picks.
            let mut strata: Vec<(u64, Vec<usize>)> = Vec::new();
            for (i, doc) in docs.iter().enumerate() {
                let key = doc
                    .get_path(path)
                    .map(Value::stable_hash)
                    .unwrap_or(u64::MAX);
                match strata.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, members)) => members.push(i),
                    None => strata.push((key, vec![i])),
                }
            }
            let mut keep: Vec<usize> = Vec::new();
            for (key, members) in &strata {
                let stratum_seed = seed ^ key.rotate_left(17);
                for pick in choose(members.len(), size, stratum_seed) {
                    keep.push(members[pick]);
                }
            }
            keep.sort_unstable();
            take_indices(docs, keep)
        }
    }
}

/// `k` distinct indices from `0..n`, ascending, via partial
/// Fisher–Yates.
fn choose(n: usize, k: usize, seed: u64) -> Vec<usize> {
    if k >= n {
        return (0..n).collect();
    }
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = Rng::seed_from_u64(seed ^ 0x6C62_272E_07BB_0142);
    for i in 0..k {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    let mut keep = idx[..k].to_vec();
    keep.sort_unstable();
    keep
}

fn take_indices(docs: Vec<Document>, keep: Vec<usize>) -> Vec<Document> {
    let mut slots: Vec<Option<Document>> = docs.into_iter().map(Some).collect();
    keep.into_iter()
        .filter_map(|i| slots.get_mut(i).and_then(Option::take))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::CarveQuery;
    use nc_core::heterogeneity::Scope;
    use nc_core::snapshot::StoreSnapshot;
    use nc_votergen::schema::{Row, FIRST_NAME, LAST_NAME, NCID, SNAPSHOT_DT};

    fn row(ncid: &str, first: &str, last: &str, snap: &str) -> Row {
        let mut r = Row::empty();
        r.set(NCID, ncid);
        r.set(FIRST_NAME, first);
        r.set(LAST_NAME, last);
        r.set(SNAPSHOT_DT, snap);
        r
    }

    fn catalog(n: usize) -> ClusterCatalog {
        let mut clusters = Vec::new();
        for i in 0..n {
            let ncid = format!("C{i:04}");
            let mut rows = vec![row(&ncid, "ANNA", "SMITH", "2020-01-01")];
            // Every third cluster gets a second record (size 2).
            if i % 3 == 0 {
                rows.push(row(&ncid, "ANNA", "SMYTH", "2021-01-01"));
            }
            clusters.push((ncid, rows));
        }
        let snapshot = StoreSnapshot::from_clusters(7, clusters);
        let het = snapshot.entropy_scorer(Scope::Person);
        ClusterCatalog::build(&snapshot, &het)
    }

    /// Recorded before `choose` moved onto the workspace PRNG: a served
    /// `sample` carve must not move a byte.
    #[test]
    fn choose_stream_is_pinned() {
        assert_eq!(choose(10, 3, 0), [2, 4, 5]);
        assert_eq!(choose(1000, 5, 42), [55, 357, 477, 727, 960]);
        assert_eq!(choose(7, 6, u64::MAX), [0, 1, 2, 3, 5, 6]);
        assert_eq!(choose(5, 5, 9), [0, 1, 2, 3, 4]);
        assert_eq!(
            choose(100, 20, 7),
            [7, 10, 14, 16, 17, 19, 26, 28, 41, 42, 45, 49, 55, 56, 69, 72, 81, 84, 86, 96]
        );
    }

    #[test]
    fn indexed_match_is_not_a_full_scan() {
        let cat = catalog(30);
        let q = CarveQuery::parse(
            br#"{"pipeline": [{"match": {"size": {"gte": 2}}}, {"limit": 5}]}"#,
        )
        .unwrap();
        let out = execute(&cat, &q, ExecOptions::default());
        assert!(!out.explain.full_scan);
        assert_eq!(out.explain.indexed_conjuncts(), 1);
        assert_eq!(out.explain.actual_rows, Some(10));
        assert_eq!(out.docs.len(), 5);
        let positions = out.positions.as_deref().unwrap();
        assert_eq!(positions, &[0, 3, 6, 9, 12]);
        // Matched set covers every admitted cluster, not just the limit.
        assert_eq!(out.matched.len(), 10);
    }

    #[test]
    fn forced_scan_matches_indexed_results() {
        let cat = catalog(40);
        let q = CarveQuery::parse(
            br#"{"pipeline": [
                {"match": {"size": {"gte": 2}}},
                {"sort": {"by": "ncid", "descending": true}},
                {"sample": {"size": 4, "seed": 9}}
            ]}"#,
        )
        .unwrap();
        let fast = execute(&cat, &q, ExecOptions::default());
        let slow = execute(&cat, &q, ExecOptions { force_scan: true });
        assert!(!fast.explain.full_scan);
        assert!(slow.explain.full_scan);
        let fast_json: Vec<String> = fast.docs.iter().map(Document::to_json).collect();
        let slow_json: Vec<String> = slow.docs.iter().map(Document::to_json).collect();
        assert_eq!(fast_json, slow_json);
        assert_eq!(fast.positions, slow.positions);
    }

    #[test]
    fn execute_matches_naive_pipeline() {
        let cat = catalog(25);
        let q = CarveQuery::parse(
            br#"{"pipeline": [
                {"match": {"size": {"gte": 1}}},
                {"group": {"by": "size", "agg": {"n": "count", "avg_het": {"avg": "het"}}}},
                {"sort": {"by": "n", "descending": true}}
            ]}"#,
        )
        .unwrap();
        let planned = execute(&cat, &q, ExecOptions::default());
        let naive = execute_naive(&cat, &q);
        assert_eq!(planned.explain.output, OutputKind::Docs);
        assert!(planned.positions.is_none());
        let a: Vec<String> = planned.docs.iter().map(Document::to_json).collect();
        let b: Vec<String> = naive.iter().map(Document::to_json).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn sample_is_deterministic_and_order_preserving() {
        let cat = catalog(50);
        let q = CarveQuery::parse(br#"{"pipeline": [{"sample": {"size": 10, "seed": 123}}]}"#)
            .unwrap();
        let a = execute(&cat, &q, ExecOptions::default());
        let b = execute(&cat, &q, ExecOptions::default());
        assert_eq!(a.positions, b.positions);
        let pos = a.positions.unwrap();
        assert_eq!(pos.len(), 10);
        let mut sorted = pos.clone();
        sorted.sort_unstable();
        assert_eq!(pos, sorted, "sample preserves stream order");

        let q2 = CarveQuery::parse(br#"{"pipeline": [{"sample": {"size": 10, "seed": 124}}]}"#)
            .unwrap();
        let c = execute(&cat, &q2, ExecOptions::default());
        assert_ne!(b.positions, c.positions, "different seed, different sample");
    }

    #[test]
    fn stratified_sample_caps_each_stratum() {
        let cat = catalog(30);
        let q = CarveQuery::parse(
            br#"{"pipeline": [{"sample": {"size": 3, "seed": 5, "by": "size"}}]}"#,
        )
        .unwrap();
        let out = execute(&cat, &q, ExecOptions::default());
        // Two strata (size 1 and size 2), up to 3 each.
        assert_eq!(out.docs.len(), 6);
        let mut by_size = std::collections::HashMap::new();
        for d in &out.docs {
            let Some(Value::Int(s)) = d.get("size") else {
                panic!()
            };
            *by_size.entry(*s).or_insert(0usize) += 1;
        }
        assert_eq!(by_size.get(&1), Some(&3));
        assert_eq!(by_size.get(&2), Some(&3));
    }

    #[test]
    fn explain_renders_decisions_and_stages() {
        let cat = catalog(10);
        let q = CarveQuery::parse(
            br#"{"pipeline": [
                {"match": {"size": {"gte": 2}, "errors.typo": {"gte": 0}}},
                {"count": true}
            ]}"#,
        )
        .unwrap();
        let plan = plan_query(&cat, &q, ExecOptions::default());
        assert_eq!(plan.indexed_conjuncts(), 1);
        assert_eq!(plan.scanned_conjuncts(), 1);
        assert!(!plan.full_scan);
        assert_eq!(plan.actual_rows, None);
        let json = plan.render_json();
        assert!(json.contains("\"access\":\"indexed-range\""), "{json}");
        assert!(json.contains("\"access\":\"scan\""), "{json}");
        assert!(json.contains("\"reason\":\"no-index\""), "{json}");
        assert!(json.contains("\"output\":\"docs\""), "{json}");

        let out = execute(&cat, &q, ExecOptions::default());
        assert_eq!(out.docs.len(), 1);
        assert_eq!(out.docs[0].get("count"), Some(&Value::Int(4)));
        let json = out.explain.render_json();
        assert!(json.contains("\"actual_rows\":4"), "{json}");
    }

    #[test]
    fn no_leading_match_scans_everything() {
        let cat = catalog(8);
        let q = CarveQuery::parse(br#"{"pipeline": [{"limit": 3}]}"#).unwrap();
        let out = execute(&cat, &q, ExecOptions::default());
        assert!(out.explain.full_scan);
        assert_eq!(out.explain.estimated_rows, 8);
        assert_eq!(out.matched.len(), 8, "footprint covers the snapshot");
        assert_eq!(out.positions.as_deref(), Some(&[0usize, 1, 2][..]));
    }
}
