//! Pair-based irregularities: detectable only between two duplicate
//! records (Section 6.4).

use nc_similarity::damerau;
use nc_similarity::soundex::phonetic_match;
use nc_similarity::token::{same_token_multiset, strip_non_alnum};

/// Strip one trailing punctuation mark (the paper allows one at the end
/// of the shorter value in prefix/postfix checks).
fn strip_trailing_punct(s: &str) -> &str {
    s.strip_suffix(['.', ',', ';']).unwrap_or(s)
}

/// Typo: lowercase versions differ in exactly one character edit or one
/// adjacent transposition (Damerau–Levenshtein distance 1); both values
/// longer than two characters.
pub fn is_typo(a: &str, b: &str) -> bool {
    let (a, b) = (a.trim(), b.trim());
    if a.chars().count() <= 2 || b.chars().count() <= 2 {
        return false;
    }
    let (la, lb) = (a.to_lowercase(), b.to_lowercase());
    if la == lb {
        return false;
    }
    damerau::distance(&la, &lb) == 1
}

/// Phonetic error: same Soundex code, not identical after removing
/// non-letter characters, both longer than two (delegates to
/// [`nc_similarity::soundex::phonetic_match`]).
pub fn is_phonetic(a: &str, b: &str) -> bool {
    phonetic_match(a.trim(), b.trim())
}

/// Token transposition: identical token multisets in a different order.
pub fn is_token_transposition(a: &str, b: &str) -> bool {
    let (a, b) = (a.trim(), b.trim());
    if a == b {
        return false;
    }
    let ta: Vec<&str> = a.split_whitespace().collect();
    let tb: Vec<&str> = b.split_whitespace().collect();
    if ta.len() < 2 || ta.len() != tb.len() {
        return false;
    }
    same_token_multiset(a, b)
}

/// Prefix: the shorter value (after stripping a trailing punctuation
/// mark) is a proper prefix of the longer one.
pub fn is_prefix(a: &str, b: &str) -> bool {
    let (a, b) = (a.trim(), b.trim());
    if a == b || a.is_empty() || b.is_empty() {
        return false;
    }
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let s = strip_trailing_punct(short);
    !s.is_empty() && s != long && long.starts_with(s)
}

/// Postfix: the shorter value (after stripping a trailing punctuation
/// mark) is a proper suffix of the longer one.
pub fn is_postfix(a: &str, b: &str) -> bool {
    let (a, b) = (a.trim(), b.trim());
    if a == b || a.is_empty() || b.is_empty() {
        return false;
    }
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let s = strip_trailing_punct(short);
    !s.is_empty() && s != long && long.ends_with(s)
}

/// OCR error: equal length, all differing positions involve exactly one
/// digit (digit vs letter confusion); positions where both characters
/// are digits must agree.
pub fn is_ocr_error(a: &str, b: &str) -> bool {
    let (a, b) = (a.trim(), b.trim());
    let ca: Vec<char> = a.chars().collect();
    let cb: Vec<char> = b.chars().collect();
    if ca.len() != cb.len() || ca == cb {
        return false;
    }
    let mut diffs = 0;
    for (x, y) in ca.iter().zip(cb.iter()) {
        if x == y {
            continue;
        }
        diffs += 1;
        match (x.is_ascii_digit(), y.is_ascii_digit()) {
            (true, false) | (false, true) => {}
            _ => return false,
        }
    }
    diffs > 0
}

/// Different representation / formatting: values differ only in
/// non-alphanumeric characters (hyphens, spaces, punctuation).
pub fn is_formatting(a: &str, b: &str) -> bool {
    let (a, b) = (a.trim(), b.trim());
    a != b && !a.is_empty() && strip_non_alnum(a) == strip_non_alnum(b) && !strip_non_alnum(a).is_empty()
}

/// Value confusion between two attributes: the records carry the same
/// two values with the attributes swapped.
pub fn is_value_confusion(a1: &str, b1: &str, a2: &str, b2: &str) -> bool {
    let (a1, b1, a2, b2) = (a1.trim(), b1.trim(), a2.trim(), b2.trim());
    !a1.is_empty() && !b1.is_empty() && a1 != b1 && a1 == b2 && b1 == a2
}

/// Integrated value: record 2 stores attribute `a`'s and `b`'s tokens
/// merged inside attribute `a`, leaving `b` empty
/// (`("MARY", "ANN")` vs `("MARY ANN", "")`).
pub fn is_integrated_value(a1: &str, b1: &str, a2: &str, b2: &str) -> bool {
    fn one_way(a1: &str, b1: &str, a2: &str, b2: &str) -> bool {
        if b2.trim().is_empty() && !b1.trim().is_empty() && !a1.trim().is_empty() {
            let merged = format!("{} {}", a1.trim(), b1.trim());
            let merged_rev = format!("{} {}", b1.trim(), a1.trim());
            let a2 = a2.trim();
            return a2 == merged || a2 == merged_rev;
        }
        false
    }
    one_way(a1, b1, a2, b2) || one_way(a2, b2, a1, b1)
}

/// Scattered values: the union of the two attributes' tokens is the
/// same in both records, but split differently — excluding plain
/// confusions and integrations, which are counted separately.
pub fn is_scattered_values(a1: &str, b1: &str, a2: &str, b2: &str) -> bool {
    let u1 = format!("{} {}", a1.trim(), b1.trim());
    let u2 = format!("{} {}", a2.trim(), b2.trim());
    if !same_token_multiset(&u1, &u2) {
        return false;
    }
    if a1.trim() == a2.trim() && b1.trim() == b2.trim() {
        return false;
    }
    !is_value_confusion(a1, b1, a2, b2) && !is_integrated_value(a1, b1, a2, b2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typos() {
        assert!(is_typo("ADELL", "ADELLE"));
        assert!(is_typo("OEHRIE", "OEHRLE"));
        assert!(is_typo("MARTHA", "MARHTA")); // transposition
        assert!(is_typo("Smith", "SMITH2") || !is_typo("Smith", "SMITH2"));
        assert!(!is_typo("ADELL", "ADELL"));
        assert!(!is_typo("AB", "AC")); // too short
        assert!(!is_typo("SMITH", "JONES")); // too far
        assert!(!is_typo("smith", "SMITH")); // case only
    }

    #[test]
    fn phonetic() {
        assert!(is_phonetic("BAILEY", "BAYLEE"));
        assert!(!is_phonetic("BAILEY", "BAILEY"));
        assert!(!is_phonetic("SMITH", "JONES"));
    }

    #[test]
    fn token_transpositions() {
        assert!(is_token_transposition("ANH THI", "THI ANH"));
        assert!(!is_token_transposition("ANH THI", "ANH THI"));
        assert!(!is_token_transposition("ANH", "THI"));
        assert!(!is_token_transposition("ANH THI", "ANH"));
    }

    #[test]
    fn prefix_postfix() {
        assert!(is_prefix("KIM", "KIMBERLY"));
        assert!(is_prefix("KIMBERLY", "KIM")); // symmetric
        assert!(is_prefix("K.", "KIM")); // trailing punctuation stripped
        assert!(!is_prefix("KIM", "KIM"));
        assert!(!is_prefix("KIM", "HAKIM"));
        assert!(is_postfix("BRAGG", "FORT BRAGG"));
        assert!(!is_postfix("BRAGG", "BRAGG"));
        assert!(!is_postfix("FORT", "FORT BRAGG"));
    }

    #[test]
    fn ocr_errors() {
        assert!(is_ocr_error("NIC0LE", "NICOLE"));
        assert!(is_ocr_error("DIC0L3", "DICOLE"));
        assert!(!is_ocr_error("NICOLE", "NICOLE"));
        assert!(!is_ocr_error("NICOLE", "NICOLA")); // letter vs letter
        assert!(!is_ocr_error("N1COLE", "NICOL")); // length mismatch
        assert!(!is_ocr_error("123", "124")); // digit vs digit must agree
    }

    #[test]
    fn formatting_differences() {
        assert!(is_formatting("MARY-ANN", "MARY ANN"));
        assert!(is_formatting("O'BRIEN", "OBRIEN"));
        assert!(is_formatting("J R S RIDGE", "JRS RIDGE"));
        assert!(!is_formatting("MARY ANN", "MARY ANN"));
        assert!(!is_formatting("MARY", "ANNE"));
        assert!(!is_formatting("---", "--"));
    }

    #[test]
    fn value_confusion() {
        assert!(is_value_confusion("JOSE", "JUAN", "JUAN", "JOSE"));
        assert!(!is_value_confusion("JOSE", "JUAN", "JOSE", "JUAN"));
        assert!(!is_value_confusion("", "JUAN", "JUAN", ""));
        assert!(!is_value_confusion("A", "A", "A", "A"));
    }

    #[test]
    fn integrated_values() {
        // (first="MARY", midl="ANN") vs (first="MARY ANN", midl="").
        assert!(is_integrated_value("MARY", "ANN", "MARY ANN", ""));
        assert!(is_integrated_value("MARY ANN", "", "MARY", "ANN"));
        assert!(is_integrated_value("MAN", "LL", "MAN LL", ""));
        assert!(!is_integrated_value("MARY", "ANN", "MARY", "ANN"));
        assert!(!is_integrated_value("MARY", "", "MARY", ""));
    }

    #[test]
    fn scattered_values() {
        // (first="AN LE", midl="MA") vs (first="AN", midl="LE MA").
        assert!(is_scattered_values("AN LE", "MA", "AN", "LE MA"));
        assert!(!is_scattered_values("AN LE", "MA", "AN LE", "MA"));
        // A pure confusion is not counted as scattered.
        assert!(!is_scattered_values("JOSE", "JUAN", "JUAN", "JOSE"));
        // A pure integration is not counted as scattered.
        assert!(!is_scattered_values("MARY", "ANN", "MARY ANN", ""));
        // Different token sets are not scattered.
        assert!(!is_scattered_values("AN LE", "MA", "AN", "LE MO"));
    }
}
