//! Property-based tests for the similarity measures.

use nc_propcheck::{check, Gen, LOWER, UPPER};
use nc_similarity::damerau::{distance, DamerauLevenshtein, ExtendedDamerauLevenshtein};
use nc_similarity::gen_jaccard::GeneralizedJaccard;
use nc_similarity::jaro::{Jaro, JaroWinkler};
use nc_similarity::monge_elkan::MongeElkan;
use nc_similarity::ngram::NgramJaccard;
use nc_similarity::soundex::soundex;
use nc_similarity::StringSimilarity;

fn word(g: &mut Gen) -> String {
    g.string(UPPER, 0..=12)
}

fn phrase(g: &mut Gen) -> String {
    g.vec(0..4, word).join(" ")
}

macro_rules! measure_properties {
    ($name:ident, $measure:expr, $gen:expr) => {
        mod $name {
            use super::*;

            #[test]
            fn bounded() {
                check(concat!(stringify!($name), "::bounded"), |g| {
                    let (a, b) = ($gen(g), $gen(g));
                    let s = $measure.sim(&a, &b);
                    assert!((0.0..=1.0).contains(&s), "sim out of range: {s}");
                });
            }

            #[test]
            fn symmetric() {
                check(concat!(stringify!($name), "::symmetric"), |g| {
                    let (a, b) = ($gen(g), $gen(g));
                    let ab = $measure.sim(&a, &b);
                    let ba = $measure.sim(&b, &a);
                    assert!((ab - ba).abs() < 1e-9, "asymmetric: {ab} vs {ba}");
                });
            }

            #[test]
            fn reflexive() {
                check(concat!(stringify!($name), "::reflexive"), |g| {
                    let a = $gen(g);
                    assert_eq!($measure.sim(&a, &a), 1.0);
                });
            }
        }
    };
}

measure_properties!(damerau_props, DamerauLevenshtein::new(), word);
measure_properties!(ext_damerau_props, ExtendedDamerauLevenshtein::new(), word);
measure_properties!(jaro_props, Jaro::new(), word);
measure_properties!(jaro_winkler_props, JaroWinkler::new(), word);
measure_properties!(ngram_props, NgramJaccard::trigram(), word);
measure_properties!(
    monge_elkan_props,
    MongeElkan::new(DamerauLevenshtein::new()),
    phrase
);
measure_properties!(
    gen_jaccard_props,
    GeneralizedJaccard::new(DamerauLevenshtein::new()),
    phrase
);

/// Edit distance is a metric on the OSA-reachable space: triangle
/// inequality holds for the OSA distance on short strings.
#[test]
fn damerau_triangle_inequality() {
    check("damerau_triangle_inequality", |g| {
        let a = g.string(UPPER, 0..=6);
        let b = g.string(UPPER, 0..=6);
        let c = g.string(UPPER, 0..=6);
        let ab = distance(&a, &b);
        let bc = distance(&b, &c);
        let ac = distance(&a, &c);
        assert!(
            ac <= ab + bc,
            "triangle violated: d({a},{c})={ac} > {ab}+{bc}"
        );
    });
}

/// Single-character edits move the distance by at most one.
#[test]
fn damerau_edit_changes_distance_by_at_most_one() {
    check("damerau_edit_changes_distance_by_at_most_one", |g| {
        let a = g.string(UPPER, 1..=10);
        let b = g.string(UPPER, 1..=10);
        let mut chars: Vec<char> = a.chars().collect();
        let idx = g.range(0..chars.len());
        chars[idx] = g.range(b'A'..=b'Z') as char;
        let a2: String = chars.iter().collect();
        let d1 = distance(&a, &b);
        let d2 = distance(&a2, &b);
        assert!(d1.abs_diff(d2) <= 1);
    });
}

/// Soundex always yields a letter followed by three digits.
#[test]
fn soundex_shape() {
    let alphabet = format!("{UPPER}{LOWER}'- ");
    check("soundex_shape", |g| {
        let s = g.string(&alphabet, 1..=20);
        if let Some(code) = soundex(&s) {
            assert_eq!(code.len(), 4);
            let cs: Vec<char> = code.chars().collect();
            assert!(cs[0].is_ascii_uppercase());
            assert!(cs[1..].iter().all(|c| c.is_ascii_digit()));
        }
    });
}

/// Soundex is insensitive to case and non-letter characters.
#[test]
fn soundex_case_insensitive() {
    let alphabet = format!("{UPPER}{LOWER}");
    check("soundex_case_insensitive", |g| {
        let s = g.string(&alphabet, 1..=12);
        assert_eq!(soundex(&s), soundex(&s.to_uppercase()));
        assert_eq!(soundex(&s), soundex(&s.to_lowercase()));
    });
}

/// The extended measure dominates the plain one (its relaxations can
/// only raise similarity).
#[test]
fn extended_damerau_dominates_plain() {
    check("extended_damerau_dominates_plain", |g| {
        let (a, b) = (word(g), word(g));
        let plain = DamerauLevenshtein::new().sim(&a, &b);
        let ext = ExtendedDamerauLevenshtein::new().sim(&a, &b);
        assert!(ext >= plain - 1e-12, "ext {ext} < plain {plain}");
    });
}
