//! Carve-by-query: compile a JSON query document into an executable,
//! index-aware carve plan over a published store snapshot.
//!
//! The paper's test-dataset generator hands users a MongoDB instance and
//! tells them to customize their dataset with aggregation pipelines —
//! "multi-stage pipelines can be used to transform documents into an
//! aggregated result". This crate brings that instrument to the serving
//! layer: instead of the fixed carve knobs (`clusters`, `min_size`,
//! `seed`), a client POSTs a typed JSON pipeline and gets a carve that
//! was *planned* — read off the catalog's sorted permutations — rather
//! than scanned.
//!
//! The flow is three layers, each independently testable:
//!
//! 1. **Parse + validate** ([`ast`], on top of the docstore's JSON
//!    reader, [`json`]): a query document becomes a [`CarveQuery`] or
//!    a typed [`QueryError`] carrying the byte offset (JSON errors) or
//!    the stage index and field path (structure/validation errors).
//! 2. **Catalog** ([`catalog`]): one row per cluster, column by column
//!    — `ncid`, `size`, `het`, `plaus`, `snapshot.first/.last`, and the
//!    per-error-type counts under `errors.*` — rendered as a [`Document`]
//!    on demand, with a sorted permutation per selective field.
//! 3. **Plan + execute** ([`exec`]): a leading `match` is planned and
//!    filtered on the columns (never a full scan when a permutation
//!    covers a conjunct); the stages that read fields run through
//!    [`QueryStage::apply`] ([`pipeline`]), a seeded deterministic
//!    `sample` among them. [`Explain`] reports indexed vs scanned
//!    conjuncts and estimated vs actual rows.
//!
//! [`Document`]: nc_docstore::value::Document
//! [`CarveQuery`]: ast::CarveQuery
//! [`QueryError`]: ast::QueryError
//! [`QueryStage::apply`]: ast::QueryStage::apply
//! [`Explain`]: exec::Explain

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod catalog;
pub mod exec;
pub mod pipeline;

/// The workspace's JSON reader, which lives beside the `Value` it
/// produces; re-exported so `nc_query::json::parse` stays a valid path.
pub use nc_docstore::json;

pub use ast::{CarveQuery, QueryError, QueryErrorKind, QueryFootprint, QueryStage};
pub use catalog::{ClusterCatalog, FieldKind, ERROR_KINDS, SCHEMA};
pub use exec::{
    execute, execute_naive, plan_query, sample_docs, ExecOptions, Explain, OutputKind,
    QueryOutcome, StageTrace,
};
pub use pipeline::Accumulator;
