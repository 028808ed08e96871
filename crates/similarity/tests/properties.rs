//! Property-based tests for the similarity measures.

use nc_propcheck::{check, check_n, Gen, LOWER, UPPER};
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

            fn bounded_prop(g: &mut Gen) {
                let (a, b) = ($gen(g), $gen(g));
                let s = $measure.sim(&a, &b);
                assert!((0.0..=1.0).contains(&s), "sim out of range: {s}");
            }

            fn symmetric_prop(g: &mut Gen) {
                let (a, b) = ($gen(g), $gen(g));
                let ab = $measure.sim(&a, &b);
                let ba = $measure.sim(&b, &a);
                assert!((ab - ba).abs() < 1e-9, "asymmetric: {ab} vs {ba}");
            }

            fn reflexive_prop(g: &mut Gen) {
                let a = $gen(g);
                assert_eq!($measure.sim(&a, &a), 1.0);
            }

            #[test]
            fn bounded() {
                check(concat!(stringify!($name), "::bounded"), bounded_prop);
            }

            #[test]
            fn symmetric() {
                check(concat!(stringify!($name), "::symmetric"), symmetric_prop);
            }

            #[test]
            fn reflexive() {
                check(concat!(stringify!($name), "::reflexive"), reflexive_prop);
            }

            #[test]
            #[ignore = "wide sweep: cargo test -- --ignored"]
            fn bounded_wide() {
                check_n(concat!(stringify!($name), "::bounded"), 3_000, bounded_prop);
            }

            #[test]
            #[ignore = "wide sweep: cargo test -- --ignored"]
            fn symmetric_wide() {
                check_n(
                    concat!(stringify!($name), "::symmetric"),
                    3_000,
                    symmetric_prop,
                );
            }

            #[test]
            #[ignore = "wide sweep: cargo test -- --ignored"]
            fn reflexive_wide() {
                check_n(
                    concat!(stringify!($name), "::reflexive"),
                    3_000,
                    reflexive_prop,
                );
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
fn damerau_triangle_inequality_prop(g: &mut Gen) {
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
}

#[test]
fn damerau_triangle_inequality() {
    check(
        "damerau_triangle_inequality",
        damerau_triangle_inequality_prop,
    );
}

/// Single-character edits move the distance by at most one.
fn damerau_edit_prop(g: &mut Gen) {
    let a = g.string(UPPER, 1..=10);
    let b = g.string(UPPER, 1..=10);
    let mut chars: Vec<char> = a.chars().collect();
    let idx = g.range(0..chars.len());
    chars[idx] = g.range(b'A'..=b'Z') as char;
    let a2: String = chars.iter().collect();
    let d1 = distance(&a, &b);
    let d2 = distance(&a2, &b);
    assert!(d1.abs_diff(d2) <= 1);
}

#[test]
fn damerau_edit_changes_distance_by_at_most_one() {
    check(
        "damerau_edit_changes_distance_by_at_most_one",
        damerau_edit_prop,
    );
}

/// Soundex always yields a letter followed by three digits.
fn soundex_shape_prop(g: &mut Gen) {
    let s = g.string(&format!("{UPPER}{LOWER}'- "), 1..=20);
    if let Some(code) = soundex(&s) {
        assert_eq!(code.len(), 4);
        let cs: Vec<char> = code.chars().collect();
        assert!(cs[0].is_ascii_uppercase());
        assert!(cs[1..].iter().all(|c| c.is_ascii_digit()));
    }
}

#[test]
fn soundex_shape() {
    check("soundex_shape", soundex_shape_prop);
}

/// Soundex is insensitive to case and non-letter characters.
fn soundex_case_insensitive_prop(g: &mut Gen) {
    let s = g.string(&format!("{UPPER}{LOWER}"), 1..=12);
    assert_eq!(soundex(&s), soundex(&s.to_uppercase()));
    assert_eq!(soundex(&s), soundex(&s.to_lowercase()));
}

#[test]
fn soundex_case_insensitive() {
    check("soundex_case_insensitive", soundex_case_insensitive_prop);
}

/// The extended measure dominates the plain one (its relaxations can
/// only raise similarity).
fn extended_damerau_dominates_plain_prop(g: &mut Gen) {
    let (a, b) = (word(g), word(g));
    let plain = DamerauLevenshtein::new().sim(&a, &b);
    let ext = ExtendedDamerauLevenshtein::new().sim(&a, &b);
    assert!(ext >= plain - 1e-12, "ext {ext} < plain {plain}");
}

#[test]
fn extended_damerau_dominates_plain() {
    check(
        "extended_damerau_dominates_plain",
        extended_damerau_dominates_plain_prop,
    );
}

// The wide twins run 3 000 cases under the tier-1 names. Case seeds
// derive from the name, so they run the tier-1 cases first, then more.
#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn damerau_triangle_inequality_wide() {
    check_n(
        "damerau_triangle_inequality",
        3_000,
        damerau_triangle_inequality_prop,
    );
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn damerau_edit_changes_distance_by_at_most_one_wide() {
    check_n(
        "damerau_edit_changes_distance_by_at_most_one",
        3_000,
        damerau_edit_prop,
    );
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn soundex_shape_wide() {
    check_n("soundex_shape", 3_000, soundex_shape_prop);
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn soundex_case_insensitive_wide() {
    check_n(
        "soundex_case_insensitive",
        3_000,
        soundex_case_insensitive_prop,
    );
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn extended_damerau_dominates_plain_wide() {
    check_n(
        "extended_damerau_dominates_plain",
        3_000,
        extended_damerau_dominates_plain_prop,
    );
}
