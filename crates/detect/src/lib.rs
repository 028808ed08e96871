//! Duplicate detection algorithms and their evaluation.
//!
//! This crate implements the detection pipelines the paper runs over its
//! customized datasets (Section 6.5, Figure 5):
//!
//! * [`dataset`] — a schema-agnostic labeled dataset (records + gold
//!   standard), usable for the NC data as well as the Cora/Census/CDDB
//!   comparators;
//! * [`blocking`] — search-space reduction: multi-pass Sorted
//!   Neighborhood (the paper's choice: one pass per unique attribute,
//!   window 20), standard blocking and full pairwise enumeration, all
//!   streaming through the [`sink`] API, and [`blocking::blocking_quality`],
//!   the one measure of a blocker (distinct candidates, reduction
//!   ratio, pair completeness);
//! * [`sink`] — streaming candidate emission: blockers push pairs into
//!   a [`sink::CandidateSink`], which deduplicates or measures them;
//! * [`postings`] — inverted-index primitives: interned terms, sorted
//!   posting lists, galloping intersection, weighted unions;
//! * [`index`] — indexed candidate generation: q-gram and token
//!   inverted indexes and Soundex buckets, unioned by a composite
//!   blocker, with a deterministic parallel probe;
//! * [`matcher`] — record similarity as the entropy-weighted average of
//!   attribute similarities, with the best 1:1 matching over the name
//!   attributes (names are often confused between fields); a dataset is
//!   scored through its prepared form: interned values, and a bounded
//!   memo so each distinct value pair reaches the kernel once;
//! * [`classify`] — threshold classification of scored pairs;
//! * [`bitsample`] — encoded-space blocking: bit-sampling LSH buckets
//!   over fixed-width bitset encodings (e.g. nc-pprl CLKs), streaming
//!   through the same [`sink`] API as the plaintext blockers;
//! * [`eval`] — scoring a blocker's candidates
//!   ([`eval::score_candidates_streaming`]), pairwise precision /
//!   recall / F1 and full threshold sweeps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitsample;
pub mod blocking;
pub mod classify;
pub mod dataset;
pub mod eval;
pub mod index;
pub mod matcher;
pub mod postings;
pub mod sink;
