//! The error-injection engine.
//!
//! Re-registration forms are filled by hand and typed in by county staff;
//! this module reproduces the error classes the paper measures in its
//! Table 4 analysis. Single-value corruptions ([`typo`], [`ocr_corrupt`],
//! [`phonetic_corrupt`], [`abbreviate`], [`pad_whitespace`],
//! [`lowercase_value`], [`make_outlier_age`]) act on one string;
//! multi-attribute corruptions ([`confuse_values`], [`integrate_value`],
//! [`scatter_values`]) act on the (first, middle, last) name triple.

use crate::config::ErrorRates;
use crate::rng::Rng;
use crate::schema::{Row, FIRST_NAME, LAST_NAME, MIDL_NAME};

/// Visually confusable (letter, digit) pairs used for OCR errors.
const OCR_PAIRS: &[(char, char)] = &[
    ('O', '0'),
    ('I', '1'),
    ('L', '1'),
    ('S', '5'),
    ('B', '8'),
    ('Z', '2'),
    ('G', '6'),
    ('T', '7'),
];

/// Phonetic-preserving rewrites (applied left to right, first match).
/// Each rewrite keeps the Soundex code intact for typical names.
const PHONETIC_REWRITES: &[(&str, &str)] = &[
    ("PH", "F"),
    ("CK", "K"),
    ("EE", "EA"),
    ("EY", "IE"),
    ("Y", "IE"),
    ("AI", "AY"),
    ("OU", "OW"),
    ("KS", "X"),
    ("C", "K"),
];

/// Characters used for random substitutions/insertions.
const ALPHABET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ";

/// Introduce a single random typo (insert, delete, substitute or
/// transpose). Values shorter than two characters are returned unchanged.
pub fn typo(rng: &mut Rng, s: &str) -> String {
    let chars: Vec<char> = s.chars().collect();
    if chars.len() < 2 {
        return s.to_owned();
    }
    let mut out = chars.clone();
    match rng.gen_range(0..4u8) {
        0 => {
            // substitution
            let i = rng.gen_range(0..out.len());
            let c = ALPHABET[rng.gen_range(0..ALPHABET.len())] as char;
            out[i] = c;
        }
        1 => {
            // deletion
            let i = rng.gen_range(0..out.len());
            out.remove(i);
        }
        2 => {
            // insertion
            let i = rng.gen_range(0..=out.len());
            let c = ALPHABET[rng.gen_range(0..ALPHABET.len())] as char;
            out.insert(i, c);
        }
        _ => {
            // adjacent transposition
            let i = rng.gen_range(0..out.len() - 1);
            out.swap(i, i + 1);
        }
    }
    out.into_iter().collect()
}

/// Replace one letter with its visually confusable digit (an OCR error).
/// Returns the input unchanged if it contains no confusable letter.
pub fn ocr_corrupt(rng: &mut Rng, s: &str) -> String {
    let positions: Vec<(usize, char)> = s
        .char_indices()
        .filter_map(|(i, c)| {
            OCR_PAIRS
                .iter()
                .find(|(l, _)| *l == c.to_ascii_uppercase())
                .map(|(_, d)| (i, *d))
        })
        .collect();
    if positions.is_empty() {
        return s.to_owned();
    }
    let (byte_idx, digit) = positions[rng.gen_range(0..positions.len())];
    let mut out = String::with_capacity(s.len());
    for (i, c) in s.char_indices() {
        out.push(if i == byte_idx { digit } else { c });
    }
    out
}

/// Apply a phonetic-preserving misspelling. Returns the input unchanged
/// when no rewrite applies.
pub fn phonetic_corrupt(rng: &mut Rng, s: &str) -> String {
    let applicable: Vec<&(&str, &str)> = PHONETIC_REWRITES
        .iter()
        .filter(|(from, _)| s.contains(from))
        .collect();
    if applicable.is_empty() {
        return s.to_owned();
    }
    let (from, to) = applicable[rng.gen_range(0..applicable.len())];
    s.replacen(from, to, 1)
}

/// Abbreviate a value to its first letter, optionally followed by a
/// period.
pub fn abbreviate(rng: &mut Rng, s: &str) -> String {
    match s.chars().next() {
        Some(c) if c.is_alphabetic() => {
            if rng.gen_bool(0.5) {
                format!("{c}.")
            } else {
                c.to_string()
            }
        }
        _ => s.to_owned(),
    }
}

/// Add stray leading and/or trailing whitespace.
pub fn pad_whitespace(rng: &mut Rng, s: &str) -> String {
    if s.is_empty() {
        return s.to_owned();
    }
    match rng.gen_range(0..3u8) {
        0 => format!(" {s}"),
        1 => format!("{s} "),
        _ => format!(" {s} "),
    }
}

/// Lowercase the value (a data-entry case inconsistency).
pub fn lowercase_value(s: &str) -> String {
    s.to_lowercase()
}

/// Produce an outlier age value such as the paper's `age = 5069`.
pub fn make_outlier_age(rng: &mut Rng) -> String {
    if rng.gen_bool(0.5) {
        // Concatenation artifact: two plausible ages glued together.
        format!("{}{}", rng.gen_range(18..99), rng.gen_range(18..99))
    } else {
        // Sentinel/garbage values seen in the wild.
        ["0", "999", "110", "150"][rng.gen_range(0..4)].to_owned()
    }
}

/// Swap the values of two name attributes (a value confusion).
pub fn confuse_values(rng: &mut Rng, row: &mut Row) {
    let pairs = [
        (FIRST_NAME, MIDL_NAME),
        (MIDL_NAME, LAST_NAME),
        (FIRST_NAME, LAST_NAME),
    ];
    let (a, b) = pairs[rng.gen_range(0..pairs.len())];
    let (va, vb) = (row.get(a).to_owned(), row.get(b).to_owned());
    row.set(a, vb);
    row.set(b, va);
}

/// Integrate the middle name into the first name (`MARY` + `ANN` →
/// `MARY ANN`, middle name emptied). No-op when the middle name is
/// missing.
pub fn integrate_value(row: &mut Row) {
    let midl = row.get(MIDL_NAME).trim().to_owned();
    if midl.is_empty() {
        return;
    }
    let first = row.get(FIRST_NAME).trim().to_owned();
    row.set(FIRST_NAME, format!("{first} {midl}").trim());
    row.set(MIDL_NAME, "");
}

/// Scatter the tokens of first + middle name across the two attributes
/// differently (e.g. `AN LE` + `MA` → `AN` + `LE MA`). No-op when there
/// are fewer than two tokens in total.
pub fn scatter_values(rng: &mut Rng, row: &mut Row) {
    let first_tokens = row.get(FIRST_NAME).split_whitespace().count();
    let mut toks: Vec<String> = Vec::new();
    toks.extend(row.get(FIRST_NAME).split_whitespace().map(str::to_owned));
    toks.extend(row.get(MIDL_NAME).split_whitespace().map(str::to_owned));
    if toks.len() < 2 {
        return;
    }
    // Pick a split point different from the current one so the scatter
    // actually changes the assignment. Splits range over 1..len; when
    // the only alternative is the current split (two tokens currently
    // split 1|1), fall back to merging everything into the first name.
    let candidates: Vec<usize> = (1..toks.len()).filter(|&s| s != first_tokens).collect();
    let split = if candidates.is_empty() {
        toks.len()
    } else {
        candidates[rng.gen_range(0..candidates.len())]
    };
    row.set(FIRST_NAME, toks[..split].join(" "));
    row.set(MIDL_NAME, toks[split..].join(" "));
}

/// Corrupt a single value according to the configured rates. Applies at
/// most one corruption class (the paper's detectors classify pairwise
/// differences; stacking many corruptions on one value would mostly
/// create unclassifiable noise, which exists in the real data but is
/// rare).
pub fn corrupt_value(rng: &mut Rng, rates: &ErrorRates, s: &str) -> String {
    if s.is_empty() {
        return s.to_owned();
    }
    let roll: f64 = rng.gen();
    let mut acc = rates.typo;
    if roll < acc {
        return typo(rng, s);
    }
    acc += rates.ocr;
    if roll < acc {
        return ocr_corrupt(rng, s);
    }
    acc += rates.phonetic;
    if roll < acc {
        return phonetic_corrupt(rng, s);
    }
    acc += rates.abbreviation;
    if roll < acc {
        return abbreviate(rng, s);
    }
    acc += rates.missing;
    if roll < acc {
        return String::new();
    }
    acc += rates.case_flip;
    if roll < acc {
        return lowercase_value(s);
    }
    s.to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_similarity::soundex::soundex;

    fn rng() -> Rng {
        Rng::seed_from_u64(42)
    }

    #[test]
    fn typo_changes_string_by_one_edit() {
        let mut r = rng();
        for _ in 0..100 {
            let out = typo(&mut r, "WILLIAMS");
            let d = nc_similarity::damerau::distance("WILLIAMS", &out);
            assert!(d <= 1, "typo produced distance {d}: {out}");
        }
    }

    #[test]
    fn typo_leaves_short_values() {
        let mut r = rng();
        assert_eq!(typo(&mut r, "A"), "A");
        assert_eq!(typo(&mut r, ""), "");
    }

    #[test]
    fn ocr_introduces_digit() {
        let mut r = rng();
        let out = ocr_corrupt(&mut r, "NICOLE");
        assert!(out.chars().any(|c| c.is_ascii_digit()), "{out}");
        assert_eq!(out.len(), "NICOLE".len());
    }

    #[test]
    fn ocr_noop_without_confusable() {
        let mut r = rng();
        assert_eq!(ocr_corrupt(&mut r, "ANNA"), "ANNA");
    }

    #[test]
    fn phonetic_preserves_soundex_mostly() {
        let mut r = rng();
        let mut preserved = 0;
        let names = ["PHILIP", "BAILEY", "JACKSON", "KATHLEEN", "MCKEE"];
        for name in names {
            let out = phonetic_corrupt(&mut r, name);
            assert_ne!(out, name, "rewrite should apply to {name}");
            if soundex(&out) == soundex(name) {
                preserved += 1;
            }
        }
        assert!(preserved >= 3, "only {preserved} soundex-preserving");
    }

    #[test]
    fn abbreviate_keeps_first_letter() {
        let mut r = rng();
        for _ in 0..10 {
            let out = abbreviate(&mut r, "KIMBERLY");
            assert!(out == "K" || out == "K.");
        }
        assert_eq!(abbreviate(&mut r, ""), "");
    }

    #[test]
    fn whitespace_padding_trims_back() {
        let mut r = rng();
        for _ in 0..10 {
            let out = pad_whitespace(&mut r, "SMITH");
            assert_eq!(out.trim(), "SMITH");
            assert_ne!(out, "SMITH");
        }
        assert_eq!(pad_whitespace(&mut r, ""), "");
    }

    #[test]
    fn outlier_age_is_out_of_range() {
        let mut r = rng();
        for _ in 0..20 {
            let out = make_outlier_age(&mut r);
            let v: i64 = out.parse().unwrap();
            assert!(!(18..=105).contains(&v), "{v} not an outlier");
        }
    }

    #[test]
    fn confusion_swaps_two_name_fields() {
        let mut r = rng();
        let mut row = Row::empty();
        row.set(FIRST_NAME, "JOSE");
        row.set(MIDL_NAME, "JUAN");
        row.set(LAST_NAME, "GARCIA");
        confuse_values(&mut r, &mut row);
        let mut after = [
            row.get(FIRST_NAME).to_owned(),
            row.get(MIDL_NAME).to_owned(),
            row.get(LAST_NAME).to_owned(),
        ];
        after.sort();
        assert_eq!(after, ["GARCIA", "JOSE", "JUAN"]);
    }

    #[test]
    fn integrate_moves_middle_into_first() {
        let mut row = Row::empty();
        row.set(FIRST_NAME, "MARY");
        row.set(MIDL_NAME, "ANN");
        integrate_value(&mut row);
        assert_eq!(row.get(FIRST_NAME), "MARY ANN");
        assert_eq!(row.get(MIDL_NAME), "");
        // No-op without a middle name.
        integrate_value(&mut row);
        assert_eq!(row.get(FIRST_NAME), "MARY ANN");
    }

    #[test]
    fn scatter_preserves_token_multiset() {
        let mut r = rng();
        let mut row = Row::empty();
        row.set(FIRST_NAME, "AN LE");
        row.set(MIDL_NAME, "MA");
        scatter_values(&mut r, &mut row);
        let mut toks: Vec<&str> = row
            .get(FIRST_NAME)
            .split_whitespace()
            .chain(row.get(MIDL_NAME).split_whitespace())
            .collect();
        toks.sort_unstable();
        assert_eq!(toks, ["AN", "LE", "MA"]);
    }

    #[test]
    fn corrupt_value_rate_zero_is_identity() {
        let mut r = rng();
        let rates = ErrorRates::none();
        for _ in 0..50 {
            assert_eq!(corrupt_value(&mut r, &rates, "SMITH"), "SMITH");
        }
    }

    #[test]
    fn corrupt_value_rate_one_always_dispatches_to_typo() {
        // `typo` itself may be a no-op on the value (a substitution can
        // redraw the same letter, a transposition can swap `LL`), so
        // assert the dispatch: after the one roll, `corrupt_value` is
        // exactly `typo` on the same stream.
        let rates = ErrorRates {
            typo: 1.0,
            ..ErrorRates::none()
        };
        let (mut dispatched, mut direct) = (rng(), rng());
        for _ in 0..20 {
            let out = corrupt_value(&mut dispatched, &rates, "WILLIAMS");
            let _roll: f64 = direct.gen();
            assert_eq!(out, typo(&mut direct, "WILLIAMS"));
        }
    }
}
