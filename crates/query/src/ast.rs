//! The typed query AST: parsing a JSON query document into
//! [`CarveQuery`], validating it against the catalog schema, and
//! rendering the canonical fingerprint text.
//!
//! A query document looks like:
//!
//! ```json
//! {
//!   "version": 3,
//!   "pipeline": [
//!     {"match": {"size": {"gte": 2, "lte": 10}, "errors.typo": {"gt": 0}}},
//!     {"sort": {"by": "het", "descending": true}},
//!     {"sample": {"size": 100, "seed": 42, "by": "size"}},
//!     {"limit": 50}
//!   ]
//! }
//! ```
//!
//! Parsing is structural (stage shapes, operand types); validation then
//! checks every dotted path against [`crate::catalog::SCHEMA`] and every
//! operand against the field's kind, so a typo like `"hetero"` fails
//! with a typed, stage-indexed error instead of matching nothing.

use nc_docstore::query::Filter;
use nc_docstore::value::{Document, Value};

use crate::catalog::{field_kind, FieldKind};
use crate::json::{self, JsonError};
use crate::pipeline::Accumulator;

/// Error classes a query request can fail with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryErrorKind {
    /// The body is not well-formed JSON (`offset` is set).
    Json,
    /// The JSON is well-formed but not a valid query document shape.
    Structure,
    /// The query references unknown fields or ill-typed operands.
    Validation,
    /// The query pins a snapshot version that is not being served.
    UnknownVersion,
}

impl QueryErrorKind {
    /// Stable lowercase label used in error bodies.
    pub fn label(self) -> &'static str {
        match self {
            QueryErrorKind::Json => "json",
            QueryErrorKind::Structure => "structure",
            QueryErrorKind::Validation => "validation",
            QueryErrorKind::UnknownVersion => "unknown-version",
        }
    }
}

/// A typed, position-carrying query error. `POST /carve` renders this
/// as the JSON body of a 400 response.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryError {
    /// Error class.
    pub kind: QueryErrorKind,
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the request body (JSON syntax errors).
    pub offset: Option<usize>,
    /// Index of the offending pipeline stage.
    pub stage: Option<usize>,
    /// The dotted field path involved.
    pub path: Option<String>,
}

impl QueryError {
    fn structure(message: impl Into<String>) -> Self {
        QueryError {
            kind: QueryErrorKind::Structure,
            message: message.into(),
            offset: None,
            stage: None,
            path: None,
        }
    }

    fn at_stage(stage: usize, message: impl Into<String>) -> Self {
        QueryError {
            stage: Some(stage),
            ..Self::structure(message)
        }
    }

    fn validation(stage: usize, path: impl Into<String>, message: impl Into<String>) -> Self {
        QueryError {
            kind: QueryErrorKind::Validation,
            message: message.into(),
            offset: None,
            stage: Some(stage),
            path: Some(path.into()),
        }
    }

    /// An unknown-version error (raised by the serve layer when the
    /// pinned snapshot is not in the registry).
    pub fn unknown_version(version: u32) -> Self {
        QueryError {
            kind: QueryErrorKind::UnknownVersion,
            message: format!("version {version} not available"),
            offset: None,
            stage: None,
            path: None,
        }
    }

    /// Render as the JSON error body:
    /// `{"error":{"kind":"...","message":"...","offset":N,"stage":N,"path":"..."}}`
    /// (absent positions are omitted).
    pub fn render_json(&self) -> String {
        let mut inner = Document::new();
        inner.set("kind", self.kind.label());
        inner.set("message", self.message.as_str());
        if let Some(o) = self.offset {
            inner.set("offset", o as i64);
        }
        if let Some(s) = self.stage {
            inner.set("stage", s as i64);
        }
        if let Some(p) = &self.path {
            inner.set("path", p.as_str());
        }
        let mut body = Document::new();
        body.set("error", inner);
        body.to_json()
    }
}

impl From<JsonError> for QueryError {
    fn from(e: JsonError) -> Self {
        QueryError {
            kind: QueryErrorKind::Json,
            message: e.message,
            offset: Some(e.offset),
            stage: None,
            path: None,
        }
    }
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.label(), self.message)?;
        if let Some(s) = self.stage {
            write!(f, " (stage {s})")?;
        }
        if let Some(p) = &self.path {
            write!(f, " (path {p})")?;
        }
        if let Some(o) = self.offset {
            write!(f, " (byte {o})")?;
        }
        Ok(())
    }
}

/// One pipeline stage of a carve query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryStage {
    /// Keep clusters matching the filter.
    Match(Filter),
    /// Seeded deterministic sample of the current stream.
    Sample {
        /// Number of clusters to keep (per stratum when `by` is set).
        size: usize,
        /// Sampling seed; the same seed always reproduces the sample.
        seed: u64,
        /// Stratify by this path: take up to `size` clusters per
        /// distinct value instead of `size` overall.
        by: Option<String>,
    },
    /// Sort by a path.
    Sort {
        /// Sorting path.
        by: String,
        /// Descending instead of ascending.
        descending: bool,
    },
    /// Keep only the listed paths (switches output to document lines).
    Project(Vec<String>),
    /// Group by a path with named accumulators (document output).
    Group {
        /// Grouping path.
        by: String,
        /// `(output field, accumulator)` pairs in canonical (sorted
        /// field-name) order.
        accumulators: Vec<(String, Accumulator)>,
    },
    /// Skip the first `n` clusters.
    Skip(usize),
    /// Keep at most `n` clusters.
    Limit(usize),
    /// Replace the stream by one `{count: n}` document.
    Count,
}

impl QueryStage {
    /// Lowercase stage name (for explain traces and canonical text).
    pub fn name(&self) -> &'static str {
        match self {
            QueryStage::Match(_) => "match",
            QueryStage::Sample { .. } => "sample",
            QueryStage::Sort { .. } => "sort",
            QueryStage::Project(_) => "project",
            QueryStage::Group { .. } => "group",
            QueryStage::Skip(_) => "skip",
            QueryStage::Limit(_) => "limit",
            QueryStage::Count => "count",
        }
    }
}

/// A parsed, validated carve query.
#[derive(Debug, Clone, PartialEq)]
pub struct CarveQuery {
    /// Snapshot version to carve from (`None` = current).
    pub version: Option<u32>,
    /// The pipeline stages, in order.
    pub stages: Vec<QueryStage>,
}

/// The predicate footprint a cached query carve records, used by the
/// publish-time carry-forward decision (see `nc-serve`).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryFootprint {
    /// Conjunction of every `match` stage's filter; `None` when the
    /// query has no match stage (matches everything).
    pub filter: Option<Filter>,
    /// Whether any stage reads the `het` field. Heterogeneity is scored
    /// against snapshot-wide entropy weights, so *founding* any cluster
    /// shifts every cluster's score — a scorer-dependent carve cannot
    /// survive a publish that founds clusters, even non-matching ones.
    pub scorer_dependent: bool,
}

impl QueryFootprint {
    /// Whether a cluster doc (from the *new* snapshot's catalog)
    /// matches the recorded predicate.
    pub fn matches(&self, doc: &Document) -> bool {
        self.filter.as_ref().is_none_or(|f| f.matches(doc))
    }
}

impl CarveQuery {
    /// Parse and validate a JSON query document.
    pub fn parse(body: &[u8]) -> Result<CarveQuery, QueryError> {
        let value = json::parse(body)?;
        let query = Self::from_value(&value)?;
        query.validate()?;
        Ok(query)
    }

    /// Structural parse from an already-parsed JSON value.
    pub fn from_value(value: &Value) -> Result<CarveQuery, QueryError> {
        let doc = value
            .as_doc()
            .ok_or_else(|| QueryError::structure("query must be a JSON object"))?;
        for (key, _) in doc.iter() {
            if key != "version" && key != "pipeline" {
                return Err(QueryError::structure(format!(
                    "unknown top-level key `{key}` (expected `version`, `pipeline`)"
                )));
            }
        }
        let version = match doc.get("version") {
            None | Some(Value::Null) => None,
            Some(Value::Int(i)) if *i >= 1 && *i <= i64::from(u32::MAX) => Some(*i as u32),
            Some(_) => {
                return Err(QueryError::structure(
                    "`version` must be a positive integer",
                ))
            }
        };
        let stages_val = doc
            .get("pipeline")
            .ok_or_else(|| QueryError::structure("missing `pipeline` array"))?;
        let Some(items) = stages_val.as_array() else {
            return Err(QueryError::structure("`pipeline` must be an array"));
        };
        let mut stages = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            stages.push(parse_stage(i, item)?);
        }
        Ok(CarveQuery { version, stages })
    }

    /// Validate every referenced path and operand against the document
    /// shape flowing through the pipeline: initially the catalog schema,
    /// then whatever `project`/`group`/`count` reshape it into (a sort
    /// after a group may reference `_key` or any accumulator output).
    /// Errors carry the stage index and the offending path.
    pub fn validate(&self) -> Result<(), QueryError> {
        let mut shape = Shape::Catalog;
        for (i, stage) in self.stages.iter().enumerate() {
            match stage {
                QueryStage::Match(f) => validate_filter(i, f, &shape)?,
                QueryStage::Sample { size, by, .. } => {
                    if *size == 0 {
                        return Err(QueryError::at_stage(i, "`sample.size` must be >= 1"));
                    }
                    if let Some(by) = by {
                        shape.require(i, by)?;
                    }
                }
                QueryStage::Sort { by, .. } => {
                    shape.require(i, by)?;
                }
                QueryStage::Project(paths) => {
                    if paths.is_empty() {
                        return Err(QueryError::at_stage(i, "`project` must list at least one path"));
                    }
                    let mut fields = Vec::with_capacity(paths.len());
                    for p in paths {
                        let kind = shape.require(i, p)?;
                        fields.push((p.clone(), kind));
                    }
                    shape = Shape::Fields(fields);
                }
                QueryStage::Group { by, accumulators } => {
                    let key_kind = shape.require(i, by)?;
                    let mut fields = vec![("_key".to_owned(), key_kind)];
                    for (name, acc) in accumulators {
                        let kind = match acc {
                            Accumulator::Count => Some(FieldKind::Int),
                            Accumulator::Sum(p) | Accumulator::Avg(p) => {
                                if shape.require(i, p)? == Some(FieldKind::Str) {
                                    return Err(QueryError::validation(
                                        i,
                                        p.clone(),
                                        "sum/avg need a numeric field",
                                    ));
                                }
                                Some(FieldKind::Float)
                            }
                            Accumulator::Min(p) | Accumulator::Max(p) | Accumulator::First(p) => {
                                shape.require(i, p)?
                            }
                            // Push yields an array; comparisons against it
                            // are untyped.
                            Accumulator::Push(p) => {
                                shape.require(i, p)?;
                                None
                            }
                        };
                        fields.push((name.clone(), kind));
                    }
                    shape = Shape::Fields(fields);
                }
                QueryStage::Count => {
                    shape = Shape::Fields(vec![("count".to_owned(), Some(FieldKind::Int))]);
                }
                QueryStage::Skip(_) | QueryStage::Limit(_) => {}
            }
        }
        Ok(())
    }

    /// The canonical fingerprint text: a deterministic rendering of the
    /// validated AST. Two JSON bodies that differ only in key order or
    /// whitespace canonicalize identically, so they share one carve
    /// cache entry.
    pub fn canonical(&self) -> String {
        let mut out = String::from("q1");
        if let Some(v) = self.version {
            out.push_str(";version=");
            out.push_str(&v.to_string());
        }
        for stage in &self.stages {
            out.push(';');
            out.push_str(stage.name());
            out.push('(');
            match stage {
                QueryStage::Match(f) => render_filter(f, &mut out),
                QueryStage::Sample { size, seed, by } => {
                    out.push_str(&format!("size={size},seed={seed}"));
                    if let Some(by) = by {
                        out.push_str(",by=");
                        out.push_str(by);
                    }
                }
                QueryStage::Sort { by, descending } => {
                    out.push_str(by);
                    if *descending {
                        out.push_str(",desc");
                    }
                }
                QueryStage::Project(paths) => out.push_str(&paths.join(",")),
                QueryStage::Group { by, accumulators } => {
                    out.push_str("by=");
                    out.push_str(by);
                    for (name, acc) in accumulators {
                        out.push(',');
                        out.push_str(name);
                        out.push('=');
                        render_accumulator(acc, &mut out);
                    }
                }
                QueryStage::Skip(n) | QueryStage::Limit(n) => out.push_str(&n.to_string()),
                QueryStage::Count => {}
            }
            out.push(')');
        }
        out
    }

    /// The predicate footprint for cache carry-forward.
    ///
    /// Only `match` stages that see the catalog shape — those before the
    /// first `project`/`group`/`count` — translate to predicates over
    /// catalog docs. A match over a transformed stream (accumulator
    /// outputs, `_key`, `count`) references paths that are always absent
    /// from catalog docs, so conjoining it would make the footprint
    /// match *nothing* and the carve would silently survive every
    /// publish. When such a stage exists the filter degrades to `None`
    /// (matches everything): the matched set becomes the full snapshot
    /// and any dirty cluster conservatively invalidates the entry.
    pub fn footprint(&self) -> QueryFootprint {
        let boundary = self
            .stages
            .iter()
            .position(|s| {
                matches!(
                    s,
                    QueryStage::Project(_) | QueryStage::Group { .. } | QueryStage::Count
                )
            })
            .unwrap_or(self.stages.len());
        let late_match = self.stages[boundary..]
            .iter()
            .any(|s| matches!(s, QueryStage::Match(_)));
        let filter = if late_match {
            None
        } else {
            let mut matches: Vec<Filter> = self.stages[..boundary]
                .iter()
                .filter_map(|s| match s {
                    QueryStage::Match(f) => Some(f.clone()),
                    _ => None,
                })
                .collect();
            match matches.len() {
                0 => None,
                1 => Some(matches.remove(0)),
                _ => Some(Filter::And(matches)),
            }
        };
        let scorer_dependent = self.referenced_paths().iter().any(|p| p == "het");
        QueryFootprint {
            filter,
            scorer_dependent,
        }
    }

    /// Every dotted path the query reads, in first-use order (duplicates
    /// removed).
    pub fn referenced_paths(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        let mut push = |p: &str| {
            if !out.iter().any(|q| q == p) {
                out.push(p.to_owned());
            }
        };
        for stage in &self.stages {
            match stage {
                QueryStage::Match(f) => {
                    let mut paths = Vec::new();
                    collect_filter_paths(f, &mut paths);
                    for p in paths {
                        push(&p);
                    }
                }
                QueryStage::Sample { by: Some(by), .. } => push(by),
                QueryStage::Sample { .. } => {}
                QueryStage::Sort { by, .. } => push(by),
                QueryStage::Project(paths) => {
                    for p in paths {
                        push(p);
                    }
                }
                QueryStage::Group { by, accumulators } => {
                    push(by);
                    for (_, acc) in accumulators {
                        if let (_, Some(p)) = acc.op() {
                            push(p);
                        }
                    }
                }
                QueryStage::Skip(_) | QueryStage::Limit(_) | QueryStage::Count => {}
            }
        }
        out
    }
}

/// The field shape of the document stream at one point in the pipeline.
enum Shape {
    /// The catalog's cluster-doc schema (initial shape).
    Catalog,
    /// An explicit field list (after `project`/`group`/`count`); `None`
    /// kind means comparisons against the field are untyped.
    Fields(Vec<(String, Option<FieldKind>)>),
}

impl Shape {
    /// Resolve a path against this shape, or fail with a typed error.
    fn require(&self, stage: usize, path: &str) -> Result<Option<FieldKind>, QueryError> {
        match self {
            Shape::Catalog => field_kind(path).map(Some).ok_or_else(|| {
                QueryError::validation(stage, path, format!("unknown field `{path}`"))
            }),
            Shape::Fields(fields) => fields
                .iter()
                .find(|(name, _)| name == path)
                .map(|(_, kind)| *kind)
                .ok_or_else(|| {
                    QueryError::validation(
                        stage,
                        path,
                        format!("field `{path}` is not produced by the preceding stage"),
                    )
                }),
        }
    }
}

fn validate_filter(stage: usize, f: &Filter, shape: &Shape) -> Result<(), QueryError> {
    let check_operand = |path: &str, v: &Value| -> Result<(), QueryError> {
        let ok = match shape.require(stage, path)? {
            Some(FieldKind::Str) => matches!(v, Value::Str(_)),
            Some(FieldKind::Int | FieldKind::Float) => {
                matches!(v, Value::Int(_) | Value::Float(_))
            }
            None => true,
        };
        if ok {
            Ok(())
        } else {
            Err(QueryError::validation(
                stage,
                path,
                format!("operand type does not match field `{path}`"),
            ))
        }
    };
    match f {
        Filter::True => Ok(()),
        Filter::Eq(p, v)
        | Filter::Ne(p, v)
        | Filter::Gt(p, v)
        | Filter::Gte(p, v)
        | Filter::Lt(p, v)
        | Filter::Lte(p, v) => check_operand(p, v),
        Filter::In(p, vs) => {
            for v in vs {
                check_operand(p, v)?;
            }
            Ok(())
        }
        Filter::Exists(p) => shape.require(stage, p).map(|_| ()),
        Filter::Contains(p, _) => match shape.require(stage, p)? {
            Some(FieldKind::Str) | None => Ok(()),
            _ => Err(QueryError::validation(
                stage,
                p.clone(),
                "contains needs a string field",
            )),
        },
        Filter::And(fs) | Filter::Or(fs) => {
            for f in fs {
                validate_filter(stage, f, shape)?;
            }
            Ok(())
        }
        Filter::Not(f) => validate_filter(stage, f, shape),
    }
}

fn collect_filter_paths(f: &Filter, out: &mut Vec<String>) {
    match f {
        Filter::True => {}
        Filter::Eq(p, _)
        | Filter::Ne(p, _)
        | Filter::Gt(p, _)
        | Filter::Gte(p, _)
        | Filter::Lt(p, _)
        | Filter::Lte(p, _)
        | Filter::In(p, _)
        | Filter::Exists(p)
        | Filter::Contains(p, _) => out.push(p.clone()),
        Filter::And(fs) | Filter::Or(fs) => {
            for f in fs {
                collect_filter_paths(f, out);
            }
        }
        Filter::Not(f) => collect_filter_paths(f, out),
    }
}

fn parse_stage(index: usize, item: &Value) -> Result<QueryStage, QueryError> {
    let doc = item
        .as_doc()
        .ok_or_else(|| QueryError::at_stage(index, "stage must be an object"))?;
    if doc.len() != 1 {
        return Err(QueryError::at_stage(
            index,
            "stage must have exactly one key (the stage name)",
        ));
    }
    let (name, spec) = doc.iter().next().expect("len checked");
    match name.as_str() {
        "match" => parse_match(index, spec).map(QueryStage::Match),
        "sample" => parse_sample(index, spec),
        "sort" => parse_sort(index, spec),
        "project" => {
            let Some(items) = spec.as_array() else {
                return Err(QueryError::at_stage(index, "`project` must be an array of paths"));
            };
            let mut paths = Vec::with_capacity(items.len());
            for it in items {
                match it.as_str() {
                    Some(s) => paths.push(s.to_owned()),
                    None => {
                        return Err(QueryError::at_stage(index, "`project` entries must be strings"))
                    }
                }
            }
            Ok(QueryStage::Project(paths))
        }
        "group" => parse_group(index, spec),
        "skip" => parse_nonneg(index, spec, "skip").map(QueryStage::Skip),
        "limit" => parse_nonneg(index, spec, "limit").map(QueryStage::Limit),
        "count" => match spec {
            Value::Bool(true) | Value::Doc(_) => Ok(QueryStage::Count),
            _ => Err(QueryError::at_stage(index, "`count` takes `true` or `{}`")),
        },
        other => Err(QueryError::at_stage(
            index,
            format!("unknown stage `{other}`"),
        )),
    }
}

fn parse_nonneg(index: usize, spec: &Value, name: &str) -> Result<usize, QueryError> {
    match spec {
        Value::Int(i) if *i >= 0 => Ok(*i as usize),
        _ => Err(QueryError::at_stage(
            index,
            format!("`{name}` must be a non-negative integer"),
        )),
    }
}

fn parse_sample(index: usize, spec: &Value) -> Result<QueryStage, QueryError> {
    let Some(doc) = spec.as_doc() else {
        return Err(QueryError::at_stage(index, "`sample` must be an object"));
    };
    let mut size = None;
    let mut seed = 0u64;
    let mut by = None;
    for (key, v) in doc.iter() {
        match key.as_str() {
            "size" => match v {
                Value::Int(i) if *i >= 1 => size = Some(*i as usize),
                _ => return Err(QueryError::at_stage(index, "`sample.size` must be >= 1")),
            },
            "seed" => match v {
                Value::Int(i) if *i >= 0 => seed = *i as u64,
                _ => {
                    return Err(QueryError::at_stage(
                        index,
                        "`sample.seed` must be a non-negative integer",
                    ))
                }
            },
            "by" => match v.as_str() {
                Some(s) => by = Some(s.to_owned()),
                None => return Err(QueryError::at_stage(index, "`sample.by` must be a path string")),
            },
            other => {
                return Err(QueryError::at_stage(
                    index,
                    format!("unknown `sample` key `{other}`"),
                ))
            }
        }
    }
    let size =
        size.ok_or_else(|| QueryError::at_stage(index, "`sample` requires a `size`"))?;
    Ok(QueryStage::Sample { size, seed, by })
}

fn parse_sort(index: usize, spec: &Value) -> Result<QueryStage, QueryError> {
    let Some(doc) = spec.as_doc() else {
        return Err(QueryError::at_stage(index, "`sort` must be an object"));
    };
    let mut by = None;
    let mut descending = false;
    for (key, v) in doc.iter() {
        match key.as_str() {
            "by" => match v.as_str() {
                Some(s) => by = Some(s.to_owned()),
                None => return Err(QueryError::at_stage(index, "`sort.by` must be a path string")),
            },
            "descending" => match v {
                Value::Bool(b) => descending = *b,
                _ => {
                    return Err(QueryError::at_stage(index, "`sort.descending` must be a boolean"))
                }
            },
            other => {
                return Err(QueryError::at_stage(
                    index,
                    format!("unknown `sort` key `{other}`"),
                ))
            }
        }
    }
    let by = by.ok_or_else(|| QueryError::at_stage(index, "`sort` requires `by`"))?;
    Ok(QueryStage::Sort { by, descending })
}

fn parse_group(index: usize, spec: &Value) -> Result<QueryStage, QueryError> {
    let Some(doc) = spec.as_doc() else {
        return Err(QueryError::at_stage(index, "`group` must be an object"));
    };
    let mut by = None;
    let mut accumulators = Vec::new();
    for (key, v) in doc.iter() {
        match key.as_str() {
            "by" => match v.as_str() {
                Some(s) => by = Some(s.to_owned()),
                None => return Err(QueryError::at_stage(index, "`group.by` must be a path string")),
            },
            "agg" => {
                let Some(aggs) = v.as_doc() else {
                    return Err(QueryError::at_stage(index, "`group.agg` must be an object"));
                };
                // Document iteration is sorted by field name, so the
                // accumulator order — and with it the canonical text and
                // output field order — is deterministic.
                for (name, acc) in aggs.iter() {
                    accumulators.push((name.clone(), parse_accumulator(index, name, acc)?));
                }
            }
            other => {
                return Err(QueryError::at_stage(
                    index,
                    format!("unknown `group` key `{other}`"),
                ))
            }
        }
    }
    let by = by.ok_or_else(|| QueryError::at_stage(index, "`group` requires `by`"))?;
    Ok(QueryStage::Group { by, accumulators })
}

fn parse_accumulator(index: usize, name: &str, spec: &Value) -> Result<Accumulator, QueryError> {
    if let Some("count") = spec.as_str() {
        return Ok(Accumulator::Count);
    }
    let Some(doc) = spec.as_doc() else {
        return Err(QueryError::at_stage(
            index,
            format!("accumulator `{name}` must be \"count\" or {{op: path}}"),
        ));
    };
    if doc.len() != 1 {
        return Err(QueryError::at_stage(
            index,
            format!("accumulator `{name}` must have exactly one op"),
        ));
    }
    let (op, v) = doc.iter().next().expect("len checked");
    let Some(path) = v.as_str() else {
        return Err(QueryError::at_stage(
            index,
            format!("accumulator `{name}` operand must be a path string"),
        ));
    };
    let path = path.to_owned();
    match op.as_str() {
        "sum" => Ok(Accumulator::Sum(path)),
        "avg" => Ok(Accumulator::Avg(path)),
        "min" => Ok(Accumulator::Min(path)),
        "max" => Ok(Accumulator::Max(path)),
        "push" => Ok(Accumulator::Push(path)),
        "first" => Ok(Accumulator::First(path)),
        other => Err(QueryError::at_stage(
            index,
            format!("unknown accumulator op `{other}`"),
        )),
    }
}

/// Parse a match document into a [`Filter`]. Top-level keys are field
/// paths (conjoined), plus `or` (array of match docs) and `not` (match
/// doc). A field's spec is either a bare scalar (equality) or an object
/// of operators: `eq`, `ne`, `gt`, `gte`, `lt`, `lte`, `in`, `exists`,
/// `contains`.
fn parse_match(index: usize, spec: &Value) -> Result<Filter, QueryError> {
    let Some(doc) = spec.as_doc() else {
        return Err(QueryError::at_stage(index, "`match` must be an object"));
    };
    let mut conjuncts = Vec::new();
    for (key, v) in doc.iter() {
        match key.as_str() {
            "or" => {
                let Some(items) = v.as_array() else {
                    return Err(QueryError::at_stage(index, "`or` must be an array of match objects"));
                };
                let mut arms = Vec::with_capacity(items.len());
                for item in items {
                    arms.push(parse_match(index, item)?);
                }
                conjuncts.push(Filter::Or(arms));
            }
            "not" => conjuncts.push(Filter::Not(Box::new(parse_match(index, v)?))),
            path => conjuncts.extend(parse_field_spec(index, path, v)?),
        }
    }
    Ok(match conjuncts.len() {
        0 => Filter::True,
        1 => conjuncts.remove(0),
        _ => Filter::And(conjuncts),
    })
}

fn parse_field_spec(index: usize, path: &str, spec: &Value) -> Result<Vec<Filter>, QueryError> {
    match spec {
        Value::Doc(ops) => {
            let mut out = Vec::with_capacity(ops.len());
            for (op, operand) in ops.iter() {
                out.push(parse_op(index, path, op, operand)?);
            }
            if out.is_empty() {
                return Err(QueryError::at_stage(
                    index,
                    format!("empty operator object for `{path}`"),
                ));
            }
            Ok(out)
        }
        Value::Array(_) => Err(QueryError::at_stage(
            index,
            format!("field `{path}` spec must be a scalar or an operator object"),
        )),
        scalar => Ok(vec![Filter::Eq(path.to_owned(), scalar.clone())]),
    }
}

fn parse_op(index: usize, path: &str, op: &str, v: &Value) -> Result<Filter, QueryError> {
    let p = path.to_owned();
    match op {
        "eq" => Ok(Filter::Eq(p, v.clone())),
        "ne" => Ok(Filter::Ne(p, v.clone())),
        "gt" => Ok(Filter::Gt(p, v.clone())),
        "gte" => Ok(Filter::Gte(p, v.clone())),
        "lt" => Ok(Filter::Lt(p, v.clone())),
        "lte" => Ok(Filter::Lte(p, v.clone())),
        "in" => match v.as_array() {
            Some(items) => Ok(Filter::In(p, items.to_vec())),
            None => Err(QueryError::at_stage(index, format!("`{path}.in` must be an array"))),
        },
        "exists" => match v {
            Value::Bool(true) => Ok(Filter::Exists(p)),
            Value::Bool(false) => Ok(Filter::Not(Box::new(Filter::Exists(p)))),
            _ => Err(QueryError::at_stage(index, format!("`{path}.exists` must be a boolean"))),
        },
        "contains" => match v.as_str() {
            Some(s) => Ok(Filter::Contains(p, s.to_owned())),
            None => Err(QueryError::at_stage(
                index,
                format!("`{path}.contains` must be a string"),
            )),
        },
        other => Err(QueryError::at_stage(
            index,
            format!("unknown operator `{other}` on `{path}`"),
        )),
    }
}

/// Deterministic rendering of a filter for the canonical text.
fn render_filter(f: &Filter, out: &mut String) {
    match f {
        Filter::True => out.push_str("true"),
        Filter::Eq(p, v) => render_cmp(out, p, "==", v),
        Filter::Ne(p, v) => render_cmp(out, p, "!=", v),
        Filter::Gt(p, v) => render_cmp(out, p, ">", v),
        Filter::Gte(p, v) => render_cmp(out, p, ">=", v),
        Filter::Lt(p, v) => render_cmp(out, p, "<", v),
        Filter::Lte(p, v) => render_cmp(out, p, "<=", v),
        Filter::In(p, vs) => {
            out.push_str(p);
            out.push_str(" in ");
            Value::Array(vs.clone()).render_json(out);
        }
        Filter::Exists(p) => {
            out.push_str("exists ");
            out.push_str(p);
        }
        Filter::Contains(p, s) => {
            out.push_str(p);
            out.push_str(" contains ");
            Value::Str(s.clone()).render_json(out);
        }
        Filter::And(fs) => render_list(out, "and", fs),
        Filter::Or(fs) => render_list(out, "or", fs),
        Filter::Not(f) => {
            out.push_str("not[");
            render_filter(f, out);
            out.push(']');
        }
    }
}

fn render_cmp(out: &mut String, p: &str, op: &str, v: &Value) {
    out.push_str(p);
    out.push(' ');
    out.push_str(op);
    out.push(' ');
    v.render_json(out);
}

fn render_list(out: &mut String, name: &str, fs: &[Filter]) {
    out.push_str(name);
    out.push('[');
    for (i, f) in fs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        render_filter(f, out);
    }
    out.push(']');
}

fn render_accumulator(acc: &Accumulator, out: &mut String) {
    let (op, path) = acc.op();
    out.push_str(op);
    if let Some(p) = path {
        out.push(':');
        out.push_str(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_pipeline() {
        let q = CarveQuery::parse(
            br#"{
                "version": 2,
                "pipeline": [
                    {"match": {"size": {"gte": 2, "lte": 10}, "errors.typo": {"gt": 0}}},
                    {"sort": {"by": "het", "descending": true}},
                    {"sample": {"size": 100, "seed": 42, "by": "size"}},
                    {"limit": 50}
                ]
            }"#,
        )
        .unwrap();
        assert_eq!(q.version, Some(2));
        assert_eq!(q.stages.len(), 4);
        assert!(matches!(&q.stages[0], QueryStage::Match(Filter::And(fs)) if fs.len() == 3));
        assert!(matches!(
            &q.stages[2],
            QueryStage::Sample { size: 100, seed: 42, by: Some(b) } if b == "size"
        ));
    }

    #[test]
    fn bare_scalar_is_equality() {
        let q = CarveQuery::parse(br#"{"pipeline": [{"match": {"ncid": "AA1"}}]}"#).unwrap();
        assert_eq!(
            q.stages[0],
            QueryStage::Match(Filter::eq("ncid", "AA1"))
        );
    }

    #[test]
    fn or_not_exists_contains() {
        let q = CarveQuery::parse(
            br#"{"pipeline": [{"match": {
                "or": [{"size": 1}, {"size": {"gte": 5}}],
                "not": {"plaus": {"lt": 0.2}},
                "ncid": {"contains": "A", "exists": true}
            }}]}"#,
        )
        .unwrap();
        let QueryStage::Match(f) = &q.stages[0] else {
            panic!()
        };
        // Keys iterate sorted: ncid (contains, exists), not, or.
        let Filter::And(fs) = f else { panic!("{f:?}") };
        assert_eq!(fs.len(), 4);
    }

    #[test]
    fn json_errors_carry_offset() {
        let e = CarveQuery::parse(b"{\"pipeline\": [}").unwrap_err();
        assert_eq!(e.kind, QueryErrorKind::Json);
        assert_eq!(e.offset, Some(14));
        let body = e.render_json();
        assert!(body.contains("\"offset\":14"), "{body}");
        assert!(body.contains("\"kind\":\"json\""), "{body}");
    }

    #[test]
    fn structure_errors_carry_stage() {
        let e = CarveQuery::parse(br#"{"pipeline": [{"match": {}}, {"frobnicate": 1}]}"#)
            .unwrap_err();
        assert_eq!(e.kind, QueryErrorKind::Structure);
        assert_eq!(e.stage, Some(1));
        assert!(e.message.contains("frobnicate"));
    }

    #[test]
    fn validation_rejects_unknown_paths_and_bad_operands() {
        let e = CarveQuery::parse(br#"{"pipeline": [{"match": {"hetero": {"gt": 0}}}]}"#)
            .unwrap_err();
        assert_eq!(e.kind, QueryErrorKind::Validation);
        assert_eq!(e.stage, Some(0));
        assert_eq!(e.path.as_deref(), Some("hetero"));

        let e = CarveQuery::parse(br#"{"pipeline": [{"match": {"size": {"gt": "two"}}}]}"#)
            .unwrap_err();
        assert_eq!(e.kind, QueryErrorKind::Validation);
        assert_eq!(e.path.as_deref(), Some("size"));

        let e = CarveQuery::parse(br#"{"pipeline": [{"sort": {"by": "sizes"}}]}"#).unwrap_err();
        assert_eq!(e.kind, QueryErrorKind::Validation);
        assert_eq!(e.stage, Some(0));
    }

    #[test]
    fn canonical_is_key_order_independent() {
        let a = CarveQuery::parse(
            br#"{"pipeline": [{"match": {"size": {"gte": 2, "lte": 9}, "ncid": {"contains": "A"}}}], "version": 1}"#,
        )
        .unwrap();
        let b = CarveQuery::parse(
            br#"{"version": 1, "pipeline": [{"match": {"ncid": {"contains": "A"}, "size": {"lte": 9, "gte": 2}}}]}"#,
        )
        .unwrap();
        assert_eq!(a.canonical(), b.canonical());
        assert!(a.canonical().starts_with("q1;version=1;match("));
    }

    #[test]
    fn footprint_combines_matches_and_flags_het() {
        let q = CarveQuery::parse(
            br#"{"pipeline": [{"match": {"size": {"gte": 2}}}, {"sort": {"by": "het"}}]}"#,
        )
        .unwrap();
        let fp = q.footprint();
        assert!(fp.scorer_dependent, "sort by het is scorer-dependent");
        assert_eq!(fp.filter, Some(Filter::gte("size", 2_i64)));

        let q = CarveQuery::parse(
            br#"{"pipeline": [{"match": {"size": {"gte": 2}}}, {"sort": {"by": "plaus"}}]}"#,
        )
        .unwrap();
        assert!(!q.footprint().scorer_dependent);

        let q = CarveQuery::parse(br#"{"pipeline": [{"limit": 3}]}"#).unwrap();
        let fp = q.footprint();
        assert_eq!(fp.filter, None);
        let mut d = Document::new();
        d.set("size", 1_i64);
        assert!(fp.matches(&d), "no filter matches everything");
    }

    #[test]
    fn footprint_degrades_to_match_everything_after_transform_match() {
        // The match on `n` sees the group's output shape, not catalog
        // docs — conjoining it would match nothing and the carve would
        // never be invalidated. The footprint must match everything.
        let q = CarveQuery::parse(
            br#"{"pipeline": [
                {"group": {"by": "size", "agg": {"n": "count"}}},
                {"match": {"n": {"gte": 5}}}
            ]}"#,
        )
        .unwrap();
        let fp = q.footprint();
        assert_eq!(fp.filter, None);
        let mut d = Document::new();
        d.set("size", 1_i64);
        assert!(fp.matches(&d), "conservative footprint matches any doc");

        // A catalog-shape match before the transform still degrades:
        // the late match can widen membership beyond the early filter.
        let q = CarveQuery::parse(
            br#"{"pipeline": [
                {"match": {"size": {"gte": 2}}},
                {"project": ["size", "het"]},
                {"match": {"het": {"gte": 0.0}}}
            ]}"#,
        )
        .unwrap();
        assert_eq!(q.footprint().filter, None);

        // With no match after the transform, the leading match still
        // forms the footprint as before.
        let q = CarveQuery::parse(
            br#"{"pipeline": [
                {"match": {"size": {"gte": 2}}},
                {"group": {"by": "size", "agg": {"n": "count"}}}
            ]}"#,
        )
        .unwrap();
        assert_eq!(q.footprint().filter, Some(Filter::gte("size", 2_i64)));
    }

    #[test]
    fn group_accumulators_parse_in_sorted_order() {
        let q = CarveQuery::parse(
            br#"{"pipeline": [{"group": {"by": "size", "agg": {
                "n": "count", "avg_het": {"avg": "het"}, "max_p": {"max": "plaus"}
            }}}]}"#,
        )
        .unwrap();
        let QueryStage::Group { accumulators, .. } = &q.stages[0] else {
            panic!()
        };
        let names: Vec<&str> = accumulators.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["avg_het", "max_p", "n"]);
    }

    #[test]
    fn rejects_sum_over_string_field() {
        let e = CarveQuery::parse(
            br#"{"pipeline": [{"group": {"by": "size", "agg": {"s": {"sum": "ncid"}}}}]}"#,
        )
        .unwrap_err();
        assert_eq!(e.kind, QueryErrorKind::Validation);
        assert_eq!(e.path.as_deref(), Some("ncid"));
    }

    #[test]
    fn version_and_pipeline_shape_checks() {
        assert!(CarveQuery::parse(b"[1]").is_err());
        assert!(CarveQuery::parse(br#"{"pipeline": {}}"#).is_err());
        assert!(CarveQuery::parse(br#"{"version": 0, "pipeline": []}"#).is_err());
        assert!(CarveQuery::parse(br#"{"pipelines": []}"#).is_err());
        let q = CarveQuery::parse(br#"{"pipeline": []}"#).unwrap();
        assert!(q.stages.is_empty());
    }
}
