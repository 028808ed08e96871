//! Shared corruption helpers for the comparator generators.
//!
//! These mirror the error classes of the original datasets: citation
//! strings accumulate abbreviations and token drops, census records are
//! dominated by typos, CD titles differ in punctuation and casing.

use nc_votergen::rng::Rng;

/// Abbreviate every token of a phrase to its first letter with a dot
/// (`COMPUTER SCIENCE` → `C. S.`).
pub fn abbreviate_tokens(s: &str) -> String {
    s.split_whitespace()
        .filter_map(|t| t.chars().next())
        .map(|c| format!("{c}."))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Drop one random token from a phrase (no-op on single-token strings).
pub fn drop_token(rng: &mut Rng, s: &str) -> String {
    let toks: Vec<&str> = s.split_whitespace().collect();
    if toks.len() < 2 {
        return s.to_owned();
    }
    let drop = rng.gen_range(0..toks.len());
    toks.iter()
        .enumerate()
        .filter(|(i, _)| *i != drop)
        .map(|(_, t)| *t)
        .collect::<Vec<_>>()
        .join(" ")
}

/// Swap two adjacent tokens (token transposition).
pub fn swap_tokens(rng: &mut Rng, s: &str) -> String {
    let mut toks: Vec<&str> = s.split_whitespace().collect();
    if toks.len() < 2 {
        return s.to_owned();
    }
    let i = rng.gen_range(0..toks.len() - 1);
    toks.swap(i, i + 1);
    toks.join(" ")
}

/// Re-punctuate: replace spaces with a random separator style.
pub fn repunctuate(rng: &mut Rng, s: &str) -> String {
    let sep = [" ", "-", ", ", " / "][rng.gen_range(0..4)];
    s.split_whitespace().collect::<Vec<_>>().join(sep)
}

/// Title-case a phrase (`THE WALL` → `The Wall`).
pub fn title_case(s: &str) -> String {
    s.split_whitespace()
        .map(|t| {
            let mut cs = t.chars();
            match cs.next() {
                Some(first) => {
                    first.to_uppercase().collect::<String>()
                        + &cs.as_str().to_lowercase()
                }
                None => String::new(),
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Initialize a first name (`DANIEL` → `D.`).
pub fn initialize(s: &str) -> String {
    match s.chars().next() {
        Some(c) => format!("{c}."),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::seed_from_u64(9)
    }

    #[test]
    fn abbreviation() {
        assert_eq!(abbreviate_tokens("COMPUTER SCIENCE DEPT"), "C. S. D.");
        assert_eq!(abbreviate_tokens(""), "");
    }

    #[test]
    fn token_ops() {
        let mut r = rng();
        let dropped = drop_token(&mut r, "A B C");
        assert_eq!(dropped.split_whitespace().count(), 2);
        assert_eq!(drop_token(&mut r, "SOLO"), "SOLO");

        let swapped = swap_tokens(&mut r, "A B");
        assert_eq!(swapped, "B A");
        assert_eq!(swap_tokens(&mut r, "SOLO"), "SOLO");
    }

    #[test]
    fn punctuation_and_case() {
        let mut r = rng();
        let p = repunctuate(&mut r, "DARK SIDE");
        assert!(p.contains("DARK") && p.contains("SIDE"));
        assert_eq!(title_case("THE DARK SIDE"), "The Dark Side");
        assert_eq!(initialize("DANIEL"), "D.");
        assert_eq!(initialize(""), "");
    }
}
