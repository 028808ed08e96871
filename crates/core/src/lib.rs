//! The paper's primary contribution: a pipeline that turns a historical,
//! snapshotted voter register into a large labeled test dataset for
//! duplicate detection.
//!
//! The pipeline mirrors Sections 4–5 of *"Generating Realistic Test
//! Datasets for Duplicate Detection at Scale Using Historical Voter
//! Data"* (EDBT 2021):
//!
//! 1. **Import** ([`import`]): snapshots are read row by row; every row
//!    is fingerprinted with [`md5`] over its relevant attributes and
//!    dropped when its duplicate cluster already contains the same
//!    fingerprint. Four removal policies are supported
//!    ([`record::DedupPolicy`]): keep everything, drop exact duplicates,
//!    drop duplicates that are exact after trimming, and drop duplicates
//!    whose *person data* is equivalent (Table 2).
//! 2. **Storage** ([`cluster`]): one aggregate document per voter
//!    (duplicate cluster) in an embedded [`nc_docstore`] collection,
//!    with records nested inside and split into person / district /
//!    election / meta sub-documents.
//! 3. **Statistics** ([`plausibility`], [`heterogeneity`], [`stats`]):
//!    precalculated similarity scores that let users repair unsound
//!    clusters and select data of a chosen dirtiness.
//! 4. **Versioning** ([`version`]): monotone version numbers, snapshot
//!    membership arrays and per-snapshot insert counters that make every
//!    published version reconstructible (Section 5.1–5.2).
//! 5. **Customization** ([`customize`]): heterogeneity-bounded cluster
//!    selection producing datasets like the paper's NC1/NC2/NC3.
//! 6. **Fault tolerance** ([`tsv`]): quarantine-mode import that
//!    diverts malformed archive input instead of aborting, and the one
//!    archive loop ([`tsv::import_archive_pending`]) that `nc-shard`'s
//!    WAL engine runs to resume an interrupted ingest after the last
//!    committed snapshot.
//! 7. **Serving hooks** ([`snapshot`]): immutable version-pinned
//!    [`snapshot::StoreSnapshot`] exports that the `nc-serve` crate
//!    carves concurrent customized datasets from.
//!
//! # Quickstart
//!
//! ```
//! use nc_core::pipeline::{GenerationConfig, TestDataGenerator};
//! use nc_core::record::DedupPolicy;
//! use nc_votergen::config::GeneratorConfig;
//!
//! let gen_cfg = GeneratorConfig { initial_population: 150, seed: 42, ..Default::default() };
//! let cfg = GenerationConfig {
//!     generator: gen_cfg,
//!     policy: DedupPolicy::Trimmed,
//!     snapshots: 6, // first six snapshots only, for the doctest
//! };
//! let outcome = TestDataGenerator::run(cfg);
//! assert!(outcome.store.cluster_count() >= 150);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod customize;
pub mod heterogeneity;
pub mod import;
pub mod md5;
pub mod pipeline;
pub mod plausibility;
pub mod pollute;
pub mod record;
pub mod repair;
pub mod scoring;
pub mod snapshot;
pub mod stats;
pub mod tsv;
pub mod version;
