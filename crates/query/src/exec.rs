//! Planning and executing a [`CarveQuery`] over a [`ClusterCatalog`].
//!
//! A leading `match` is planned and filtered on the catalog's columns:
//! when any conjunct is indexed, candidates come from the sorted
//! permutations' posting lists and no other row is read. Positions then
//! flow through the stages that read no field (`skip`, `limit`, an
//! unstratified `sample`); from the first stage that reads one, the
//! stream is the clusters' [`Document`]s and each stage runs through
//! [`QueryStage::apply`], as in the naive [`execute_naive`]. Every filter
//! comparison is [`Value::total_cmp`] either way, so planned execution
//! equals the naive one by construction. `sample` is a partial
//! Fisher–Yates shuffle over the workspace PRNG ([`nc_votergen::rng`]),
//! so the same `(seed, query, version)` reproduces the same sample on
//! every build.

use nc_docstore::query::Filter;
use nc_docstore::value::{Document, Value};
use nc_votergen::rng::Rng;

use crate::ast::{CarveQuery, QueryStage};
use crate::catalog::{index_of, ClusterCatalog, INDEXED};

/// Execution knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecOptions {
    /// Ignore the sorted permutations and filter every cluster's row.
    /// The bench harness uses this to measure the indexed-vs-scan
    /// speedup; the equivalence suite uses it to check both paths
    /// produce identical bytes.
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

/// Why a conjunct could not be answered from an index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanReason {
    /// No index exists on the conjunct's path.
    NoIndex,
    /// The path's index (`ncid`'s) answers equality only.
    RangeOnHashIndex,
    /// The predicate shape is not indexable (`ne`, `in`, `exists`,
    /// `contains`, `or`, `not`). The label names the shape.
    UnsupportedPredicate(&'static str),
}

impl ScanReason {
    /// Stable, lowercase label for explain output and metrics.
    pub fn label(&self) -> &'static str {
        match self {
            ScanReason::NoIndex => "no-index",
            ScanReason::RangeOnHashIndex => "range-on-hash-index",
            ScanReason::UnsupportedPredicate(_) => "unsupported-predicate",
        }
    }
}

/// How one leaf conjunct is answered.
#[derive(Debug, Clone, PartialEq)]
pub enum ConjunctAccess {
    /// Served by an equality posting-list lookup.
    IndexedEq {
        /// Length of the posting list the index returned.
        postings: usize,
    },
    /// Served by a range lookup (bounds are inclusive, a superset of a
    /// strict predicate; the residual filter tightens them).
    IndexedRange {
        /// Length of the posting list the index returned.
        postings: usize,
    },
    /// Evaluated only by the residual filter.
    Scanned(ScanReason),
}

/// The planner's verdict on one leaf conjunct of a filter.
#[derive(Debug, Clone, PartialEq)]
pub struct ConjunctDecision {
    /// Human-readable rendering of the conjunct (`size >= 2`).
    pub conjunct: String,
    /// The dotted path the conjunct constrains, when it has one.
    pub path: Option<String>,
    /// The chosen access method.
    pub access: ConjunctAccess,
}

impl ConjunctDecision {
    /// Whether an index serves this conjunct.
    pub fn is_indexed(&self) -> bool {
        !matches!(self.access, ConjunctAccess::Scanned(_))
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
    /// Whether execution reads every cluster's row (no indexed
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

/// The positions among `candidates` (every position when `None`) whose
/// rows `filter` admits, ascending.
fn select(catalog: &ClusterCatalog, filter: &Filter, candidates: Option<Vec<usize>>) -> Vec<usize> {
    let candidates = candidates.unwrap_or_else(|| (0..catalog.len()).collect());
    candidates
        .into_iter()
        .filter(|&pos| filter.matches(&catalog.row(pos)))
        .collect()
}

/// Candidate positions for a filter, ascending, or `None` when only a
/// full scan will do. Each indexed path the filter pins with an
/// equality or (where the index answers ranges) an inclusive range —
/// `equality_on` / `range_on` descend `And` conjuncts — gives one
/// posting list; the smallest is read, and each of its positions kept
/// when its value lies within every other list's bounds. Candidates are
/// a superset of the matches; callers always re-filter.
fn index_candidates(catalog: &ClusterCatalog, filter: &Filter) -> Option<Vec<usize>> {
    let bounds: Vec<(&str, Option<&Value>, Option<&Value>)> = INDEXED
        .iter()
        .filter_map(|&(path, ranges)| match filter.equality_on(path) {
            Some(v) => Some((path, Some(v), Some(v))),
            None if ranges => filter.range_on(path).map(|(lo, hi)| (path, lo, hi)),
            None => None,
        })
        .collect();
    let (smallest, postings) = bounds
        .iter()
        .map(|&(path, lo, hi)| catalog.postings(path, lo, hi))
        .enumerate()
        .min_by_key(|(_, postings)| postings.len())?;
    let mut out: Vec<usize> = postings.iter().map(|&p| p as usize).collect();
    out.sort_unstable();
    out.retain(|&pos| {
        let row = catalog.row(pos);
        let mut others = bounds.iter().enumerate().filter(|&(i, _)| i != smallest);
        others.all(|(_, &(path, lo, hi))| row.within(path, lo, hi))
    });
    Some(out)
}

/// Walk `And` conjuncts (the only shape index selection descends)
/// and record a decision for every leaf.
fn collect_decisions(catalog: &ClusterCatalog, filter: &Filter, out: &mut Vec<ConjunctDecision>) {
    match filter {
        Filter::And(fs) => {
            for f in fs {
                collect_decisions(catalog, f, out);
            }
        }
        Filter::True => {}
        leaf => out.push(decide(catalog, leaf)),
    }
}

/// The verdict on one leaf conjunct, with its one-line rendering.
fn decide(catalog: &ClusterCatalog, leaf: &Filter) -> ConjunctDecision {
    let value = |v: &Value| match v {
        Value::Str(s) => format!("{s:?}"),
        other => other.to_json(),
    };
    let eq = |p: &str, v: &Value| match index_of(p) {
        Some(_) => ConjunctAccess::IndexedEq {
            postings: catalog.postings(p, Some(v), Some(v)).len(),
        },
        None => ConjunctAccess::Scanned(ScanReason::NoIndex),
    };
    let range = |p: &str, lo: Option<&Value>, hi: Option<&Value>| match index_of(p) {
        Some(true) => ConjunctAccess::IndexedRange {
            postings: catalog.postings(p, lo, hi).len(),
        },
        Some(false) => ConjunctAccess::Scanned(ScanReason::RangeOnHashIndex),
        None => ConjunctAccess::Scanned(ScanReason::NoIndex),
    };
    let unsupported = |shape| ConjunctAccess::Scanned(ScanReason::UnsupportedPredicate(shape));
    let cmp = |p: &str, op: &str, v: &Value| format!("{p} {op} {}", value(v));
    let (conjunct, path, access) = match leaf {
        Filter::Eq(p, v) => (cmp(p, "==", v), Some(p), eq(p, v)),
        Filter::Ne(p, v) => (cmp(p, "!=", v), Some(p), unsupported("ne")),
        Filter::Gt(p, v) => (cmp(p, ">", v), Some(p), range(p, Some(v), None)),
        Filter::Gte(p, v) => (cmp(p, ">=", v), Some(p), range(p, Some(v), None)),
        Filter::Lt(p, v) => (cmp(p, "<", v), Some(p), range(p, None, Some(v))),
        Filter::Lte(p, v) => (cmp(p, "<=", v), Some(p), range(p, None, Some(v))),
        Filter::In(p, vs) => (format!("{p} in [{} values]", vs.len()), Some(p), unsupported("in")),
        Filter::Exists(p) => (format!("exists({p})"), Some(p), unsupported("exists")),
        Filter::Contains(p, s) => {
            (format!("contains({p}, {s:?})"), Some(p), unsupported("contains"))
        }
        Filter::Or(fs) => (format!("or[{}]", fs.len()), None, unsupported("or")),
        Filter::Not(_) => ("not(..)".to_owned(), None, unsupported("not")),
        Filter::True | Filter::And(_) => unreachable!("handled by collect_decisions"),
    };
    ConjunctDecision {
        conjunct,
        path: path.cloned(),
        access,
    }
}

/// The explain report before execution, and the candidates an index
/// gives the leading match (`None`: no index applies, or no leading
/// match).
fn base_explain(
    catalog: &ClusterCatalog,
    query: &CarveQuery,
    opts: ExecOptions,
) -> (Explain, Option<Vec<usize>>) {
    let total = catalog.len();
    let mut decisions = Vec::new();
    let mut candidates = None;
    if let Some(QueryStage::Match(f)) = query.stages.first() {
        collect_decisions(catalog, f, &mut decisions);
        candidates = index_candidates(catalog, f);
    }
    let estimated = match &candidates {
        Some(ids) if !opts.force_scan => ids.len(),
        _ => total,
    };
    let explain = Explain {
        version: catalog.version(),
        total_clusters: total,
        forced_scan: opts.force_scan,
        full_scan: opts.force_scan || candidates.is_none(),
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
    };
    (explain, candidates)
}

/// Produce the plan report without executing (`POST /carve/explain`).
pub fn plan_query(catalog: &ClusterCatalog, query: &CarveQuery, opts: ExecOptions) -> Explain {
    base_explain(catalog, query, opts).0
}

/// Execute the query over the catalog.
pub fn execute(catalog: &ClusterCatalog, query: &CarveQuery, opts: ExecOptions) -> QueryOutcome {
    let (mut explain, candidates) = base_explain(catalog, query, opts);

    // Source the initial stream: a leading match reads the planned
    // candidates (every row under a forced scan); anything else starts
    // from every cluster.
    let (mut positions, rest): (Vec<usize>, &[QueryStage]) = match query.stages.split_first() {
        Some((QueryStage::Match(f), rest)) => {
            (select(catalog, f, candidates.filter(|_| !opts.force_scan)), rest)
        }
        _ => ((0..catalog.len()).collect(), &query.stages[..]),
    };
    let had_leading_match = rest.len() != query.stages.len();
    explain.actual_rows = Some(positions.len());
    if had_leading_match {
        explain.stages[0].rows_out = Some(positions.len());
    }

    // The matched set for the cache footprint: every cluster the
    // recorded footprint admits (not just the sampled survivors). When
    // the only match stage is the leading one, those are `positions`; a
    // `None` filter (no match stage, or a match over a transformed
    // stream) records the full snapshot.
    let admitted = if had_leading_match && !rest.iter().any(|s| matches!(s, QueryStage::Match(_))) {
        positions.clone()
    } else {
        match &query.footprint().filter {
            Some(f) => select(catalog, f, index_candidates(catalog, f)),
            None => (0..catalog.len()).collect(),
        }
    };
    let mut matched: Vec<String> =
        admitted.into_iter().map(|pos| catalog.ncid(pos).to_owned()).collect();
    matched.sort_unstable();

    // Positions flow through the stages that read no field; from the
    // first stage that reads one, the stream is the clusters' documents.
    let trace_offset = usize::from(had_leading_match);
    let field_free = rest
        .iter()
        .take_while(|s| {
            matches!(
                s,
                QueryStage::Skip(_) | QueryStage::Limit(_) | QueryStage::Sample { by: None, .. }
            )
        })
        .count();
    for (i, stage) in rest[..field_free].iter().enumerate() {
        match stage {
            QueryStage::Sample { size, seed, .. } => {
                positions = sample(positions, *size, *seed, None);
            }
            window => window.apply_window(&mut positions),
        }
        explain.stages[trace_offset + i].rows_out = Some(positions.len());
    }
    let mut docs: Vec<Document> = positions.iter().filter_map(|&p| catalog.doc(p)).collect();
    for (i, stage) in rest.iter().enumerate().skip(field_free) {
        docs = stage.apply(docs);
        explain.stages[trace_offset + i].rows_out = Some(docs.len());
    }

    let positions = match explain.output {
        OutputKind::Docs => None,
        OutputKind::Clusters if field_free == rest.len() => Some(positions),
        OutputKind::Clusters => Some(
            docs.iter()
                .filter_map(|d| match d.get("_id") {
                    Some(Value::Int(i)) if *i >= 0 => Some(*i as usize),
                    _ => None,
                })
                .collect(),
        ),
    };

    QueryOutcome {
        matched,
        positions,
        docs,
        explain,
    }
}

/// The naive reference execution: every cluster's document through
/// [`QueryStage::apply`], one stage at a time. The equivalence suite
/// asserts [`execute`] matches this byte for byte.
pub fn execute_naive(catalog: &ClusterCatalog, query: &CarveQuery) -> Vec<Document> {
    let docs = catalog.documents().map(|(_, d)| d).collect();
    query
        .stages
        .iter()
        .fold(docs, |docs, stage| stage.apply(docs))
}

/// Seeded deterministic sampling. Keeps up to `size` documents (per
/// stratum when `by` is set), preserving the incoming stream order of
/// the survivors. The sample depends only on `(seed, stream length,
/// strata)`, making carves reproducible across builds.
pub fn sample_docs(docs: Vec<Document>, size: usize, seed: u64, by: Option<&str>) -> Vec<Document> {
    let strata = by.map(|path| {
        docs.iter()
            .map(|doc| doc.get_path(path).map_or(u64::MAX, Value::stable_hash))
            .collect()
    });
    sample(docs, size, seed, strata)
}

/// [`sample_docs`] over any stream, stratified by one key per item
/// when `strata` is given.
fn sample<T>(items: Vec<T>, size: usize, seed: u64, strata: Option<Vec<u64>>) -> Vec<T> {
    let Some(keys) = strata else {
        let keep = choose(items.len(), size, seed);
        return take_indices(items, keep);
    };
    // Strata in first-occurrence order; each stratum draws from its own
    // seeded stream so adding one stratum never perturbs another's picks.
    let mut strata: Vec<(u64, Vec<usize>)> = Vec::new();
    for (i, key) in keys.into_iter().enumerate() {
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
    take_indices(items, keep)
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

fn take_indices<T>(items: Vec<T>, keep: Vec<usize>) -> Vec<T> {
    let mut slots: Vec<Option<T>> = items.into_iter().map(Some).collect();
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
