//! An embeddable, aggregate-oriented document store.
//!
//! The paper stores its test dataset in MongoDB because the data is (i)
//! naturally *aggregate-oriented* — all records of one voter live inside
//! one cluster document — (ii) sparse — most of the 90 attributes are
//! missing in most records — and (iii) large. This crate implements the
//! capabilities the paper actually relies on, as an embeddable Rust
//! library:
//!
//! * a schema-less, nested [`value::Value`]/[`value::Document`] data model
//!   with dotted-path access (`"records.0.person.last_name"`), and its
//!   one JSON form: [`value::Value::render_json`] writes it,
//!   [`json::parse`] reads it back,
//! * [`collection::Collection`]s with automatic `_id` assignment, CRUD,
//!   and secondary [`index`]es (hash and ordered) over dotted paths,
//! * an aggregation [`pipeline`] with `match`, `project`, `unwind`,
//!   `group`, `sort`, `skip`, `limit` and `count` stages — enough to
//!   express the paper's customization queries,
//! * crash-safe file [`persist`]ence (atomic JSON-lines snapshots with
//!   per-line CRC-32 checksums, a count/checksum footer, and a
//!   salvage-on-load recovery path),
//! * a deterministic [`faults`] injection harness for testing the IO
//!   path against truncation, torn lines, and bit rot, and
//! * a thread-safe [`store::DocStore`] holding named collections.
//!
//! # Example
//!
//! ```
//! use nc_docstore::prelude::*;
//!
//! let mut coll = Collection::new("voters");
//! coll.insert(doc! { "name" => "ANNA", "age" => 44_i64 });
//! coll.insert(doc! { "name" => "BOB", "age" => 71_i64 });
//!
//! let hits = coll.find(&Filter::gt("age", Value::from(50_i64)));
//! assert_eq!(hits.len(), 1);
//! assert_eq!(hits[0].get_str("name"), Some("BOB"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collection;
pub mod crc32;
pub mod faults;
pub mod index;
pub mod json;
pub mod persist;
pub mod pipeline;
pub mod plan;
pub mod query;
pub mod store;
pub mod value;

/// Convenient glob import for typical usage.
pub mod prelude {
    pub use crate::collection::{Collection, DocId};
    pub use crate::doc;
    pub use crate::index::IndexKind;
    pub use crate::persist::{FooterStatus, Salvage, SalvageReport};
    pub use crate::pipeline::{Accumulator, Pipeline, Stage};
    pub use crate::plan::{AccessPlan, ConjunctAccess, ConjunctDecision, ScanReason};
    pub use crate::query::Filter;
    pub use crate::store::DocStore;
    pub use crate::value::{Document, Value};
}
