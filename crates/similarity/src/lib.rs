//! String, token and record similarity measures for duplicate detection.
//!
//! This crate implements every similarity measure used by the EDBT 2021
//! paper *"Generating Realistic Test Datasets for Duplicate Detection at
//! Scale Using Historical Voter Data"*:
//!
//! * [`damerau`] — Damerau–Levenshtein distance and similarity, plus the
//!   paper's *extended* variant that treats missing values and prefixes as
//!   perfect matches (Section 6.2).
//! * [`jaro`] — Jaro and Jaro–Winkler similarity.
//! * [`ngram`] — q-gram (default: trigram) Jaccard similarity.
//! * [`monge_elkan`] — the (symmetrized) Monge–Elkan hybrid measure.
//! * [`gen_jaccard`] — the Generalized Jaccard Coefficient with an exact
//!   maximum-weight 1:1 token matching (via the Hungarian algorithm in
//!   [`assignment`]).
//! * [`soundex`] — American Soundex phonetic codes.
//! * [`entropy`] — Shannon-entropy based attribute uniqueness weighting
//!   (Section 6.3).
//! * [`token`] — whitespace tokenization helpers shared by the hybrid
//!   measures.
//!
//! All measures return scores in `[0, 1]` where `1` means identical. They
//! are defined over `char` sequences, so multi-byte UTF-8 input is handled
//! correctly. The scratch-based kernels ([`scratch`]) compute the same
//! scores faster where the input allows: over bytes when both values are
//! ASCII, and Jaro over one `u64` word per value when both are also at
//! most 64 bytes long.
//!
//! # Example
//!
//! ```
//! use nc_similarity::{StringSimilarity, damerau::DamerauLevenshtein, jaro::JaroWinkler};
//!
//! let dl = DamerauLevenshtein::new();
//! assert!(dl.sim("JONATHAN", "JONATHAN") == 1.0);
//! assert!(dl.sim("JONATHAN", "JONATHAM") > 0.8);
//!
//! let jw = JaroWinkler::default();
//! assert!(jw.sim("MARTHA", "MARHTA") > 0.9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assignment;
pub mod damerau;
pub mod entropy;
pub mod gen_jaccard;
pub mod jaro;
pub mod monge_elkan;
pub mod ngram;
pub mod scratch;
pub mod soundex;
pub mod token;

pub use scratch::Scratch;

/// A normalized similarity measure over strings.
///
/// Implementations must return values in `[0, 1]`, with `1.0` meaning the
/// two inputs are considered identical by the measure.
pub trait StringSimilarity {
    /// Similarity between `a` and `b` in `[0, 1]`.
    fn sim(&self, a: &str, b: &str) -> f64;
}

/// A similarity measure aware of missing (NULL) values.
///
/// The paper's plausibility scoring (Section 6.2) demands that comparisons
/// against a missing value yield `1.0` ("no evidence to mistrust the
/// data"). Measures used there implement this trait.
pub trait OptionalSimilarity {
    /// Similarity between two possibly-missing values in `[0, 1]`.
    fn sim_opt(&self, a: Option<&str>, b: Option<&str>) -> f64;
}

impl<T: StringSimilarity> OptionalSimilarity for T {
    /// Default lifting: any comparison involving a missing value is `1.0`.
    fn sim_opt(&self, a: Option<&str>, b: Option<&str>) -> f64 {
        match (a, b) {
            (Some(a), Some(b)) => self.sim(a, b),
            _ => 1.0,
        }
    }
}

/// A similarity measure with an allocation-free entry point.
///
/// `sim_scratch` must return exactly the same value as
/// [`StringSimilarity::sim`] — the scratch only changes *where*
/// working memory lives, never the arithmetic. Implemented by the
/// kernels on the scoring hot path (Damerau–Levenshtein and its
/// extended variant, Jaro, Jaro–Winkler, and the hybrid measures
/// built from them).
pub trait ScratchSimilarity: StringSimilarity {
    /// Similarity between `a` and `b` using caller-provided buffers.
    fn sim_scratch(&self, scratch: &mut Scratch, a: &str, b: &str) -> f64;
}

thread_local! {
    static THREAD_SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::new(Scratch::new());
}

/// Run `f` with this thread's shared scratch. The plain `sim()`
/// wrappers route through here so every existing call site becomes
/// allocation-free after warm-up; downstream scorers can use it the
/// same way to offer scratch-based fast paths behind unchanged
/// signatures. Falls back to a fresh scratch if the thread-local is
/// already borrowed (a custom inner measure re-entering `sim()`
/// mid-kernel) rather than panicking.
pub fn with_thread_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    THREAD_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut Scratch::new()),
    })
}

/// Clamp a floating-point score into `[0, 1]`, mapping NaN to `0`.
#[inline]
pub(crate) fn clamp01(x: f64) -> f64 {
    if x.is_nan() {
        0.0
    } else {
        x.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::damerau::DamerauLevenshtein;

    #[test]
    fn optional_lifting_treats_missing_as_match() {
        let dl = DamerauLevenshtein::new();
        assert_eq!(dl.sim_opt(None, Some("ABC")), 1.0);
        assert_eq!(dl.sim_opt(Some("ABC"), None), 1.0);
        assert_eq!(dl.sim_opt(None, None), 1.0);
        assert_eq!(dl.sim_opt(Some("ABC"), Some("ABC")), 1.0);
    }

    #[test]
    fn clamp01_handles_edge_values() {
        assert_eq!(clamp01(f64::NAN), 0.0);
        assert_eq!(clamp01(-0.5), 0.0);
        assert_eq!(clamp01(1.5), 1.0);
        assert_eq!(clamp01(0.25), 0.25);
    }
}
