//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each module implements one experiment and returns a serializable
//! result that the `experiments` binary renders as text and JSON:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`table1`] | Table 1 — snapshot statistics per year |
//! | [`table2`] | Table 2 — the four dedup policies |
//! | [`figure1`] | Figure 1 — cluster-size distributions |
//! | [`figure4`] | Figures 4a–4c — plausibility & heterogeneity distributions |
//! | [`table3`] | Table 3 — characteristics of all evaluated datasets |
//! | [`table4`] | Table 4 — error-type statistics |
//! | [`figure5`] | Figure 5 — F1 vs threshold per measure and dataset |
//! | [`updates`] | Figure 2 / §5 — incremental updates & reconstruction |
//! | [`ablation`] | Design-choice ablations (blocking, weights, measures) |
//! | [`pollution`] | §8 future-work extension: pollution on top of history |
//!
//! The scale knob ([`context::ExperimentScale`]) trades runtime for
//! fidelity; defaults are laptop-sized. The `bench_*` binaries share
//! [`bench`] (flags, timings, report, gates) and the stores and archives of
//! [`context`]. Absolute numbers differ from the
//! paper (the substrate is a simulator), but the shapes reproduce.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod bench;
pub mod context;
pub mod figure1;
pub mod figure4;
pub mod figure5;
pub mod output;
pub mod pollution;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod updates;
