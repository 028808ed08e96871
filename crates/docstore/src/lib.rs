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
//! * [`collection::Collection`]s: documents kept in ascending `_id`
//!   order, with automatic `_id` assignment, insert / get,
//! * [`query::Filter`]s over dotted paths and [`value::Document`]
//!   projection, the primitives `nc-query`'s aggregation stages are
//!   built from, and
//! * crash-safe file [`persist`]ence (atomic JSON-lines snapshots with
//!   per-line CRC-32 checksums, a count/checksum footer, and a
//!   salvage-on-load recovery path).
//!
//! Fault injection for the IO path lives in `nc_vfs::fault`.
//!
//! # Example
//!
//! ```
//! use nc_docstore::prelude::*;
//!
//! let mut coll = Collection::new("voters");
//! coll.insert(doc! { "name" => "ANNA", "age" => 44_i64 }).unwrap();
//! coll.insert(doc! { "name" => "BOB", "age" => 71_i64 }).unwrap();
//!
//! let over_50 = Filter::gt("age", Value::from(50_i64));
//! let hits: Vec<&Document> = coll
//!     .iter_ordered()
//!     .map(|(_, d)| d)
//!     .filter(|&d| over_50.matches(d))
//!     .collect();
//! assert_eq!(hits.len(), 1);
//! assert_eq!(hits[0].get_str("name"), Some("BOB"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collection;
pub mod crc32;
pub mod json;
pub mod persist;
pub mod query;
pub mod value;

/// Convenient glob import for typical usage.
pub mod prelude {
    pub use crate::collection::{Collection, DocId, IdsExhausted};
    pub use crate::doc;
    pub use crate::persist::{FooterStatus, Salvage, SalvageReport};
    pub use crate::query::{Fields, Filter};
    pub use crate::value::{Document, Value};
}
