//! Synthetic historical voter-register simulator.
//!
//! The paper builds its test dataset from the North Carolina voter
//! registration archive — 40 snapshots (2008–2020) of the full voter
//! roll, collected through manually filled registration forms. That
//! archive is hundreds of gigabytes and access-restricted, so this crate
//! provides a faithful *simulation* of it: a seeded population of voters
//! whose lives (moves, marriages, party switches, removals) unfold over
//! the real snapshot calendar, and whose records are re-entered "by hand"
//! at re-registration events, picking up exactly the error classes the
//! paper observes in the real data (Section 6.4):
//!
//! * typos, OCR confusions and phonetic misspellings,
//! * abbreviations, missing values and stray whitespace,
//! * values confused between, integrated into or scattered across the
//!   name attributes,
//! * outdated values (old addresses, maiden names, previous parties),
//! * per-era *format drift* of district labels (`64TH HOUSE` →
//!   `NC HOUSE DISTRICT 64`), which the paper identifies as the cause of
//!   surprising new-record spikes in Table 1, and
//! * a small rate of *NCID reuse*, producing the unsound clusters the
//!   plausibility check exists to catch (Figure 3).
//!
//! Records carry the voter's stable `NCID`, so the gold standard comes
//! for free — exactly the property the paper exploits.
//!
//! Generation is deterministic given a [`config::GeneratorConfig`] seed
//! — the stream behind it is the in-tree [`rng::Rng`], so the same seed
//! yields the same bytes on every build — and streaming: snapshots are
//! produced one at a time so that archives far larger than memory can
//! be fed into the `nc-core` import pipeline.
//!
//! # Example
//!
//! ```
//! use nc_votergen::config::GeneratorConfig;
//! use nc_votergen::registry::Registry;
//!
//! let cfg = GeneratorConfig { initial_population: 200, seed: 7, ..Default::default() };
//! let mut registry = Registry::new(cfg);
//! let calendar = nc_votergen::snapshot::standard_calendar();
//! let snap = registry.generate_snapshot(&calendar[0]);
//! assert_eq!(snap.date, "2008-11-04");
//! assert!(snap.rows.len() >= 200);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod date;
pub mod errors;
pub mod names;
pub mod person;
pub mod registry;
pub mod rng;
pub mod schema;
pub mod snapshot;
