//! American Soundex phonetic codes.
//!
//! The paper's phonetic-error detector (Section 6.4) flags two values as
//! a potential phonetic error when they are not identical after removing
//! non-letter characters, are both longer than two characters and share
//! the same Soundex code.

/// A four-character Soundex code: a letter and three digits, held by
/// value. It derefs to `str`, so it reads like the text it is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Code([u8; 4]);

impl std::ops::Deref for Code {
    type Target = str;

    fn deref(&self) -> &str {
        std::str::from_utf8(&self.0).expect("a Soundex code is ASCII")
    }
}

impl std::fmt::Debug for Code {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

/// Compute the 4-character American Soundex code of `s`.
///
/// Returns `None` when the input contains no ASCII letter. Non-letter
/// characters are ignored; the standard rules apply (H/W are transparent
/// between consonants of equal code, vowels reset the run).
pub fn soundex(s: &str) -> Option<Code> {
    // Bytes of a multi-byte character are never ASCII letters, so this
    // sees exactly the ASCII letters of `s`, in order.
    let mut letters = s
        .bytes()
        .filter(u8::is_ascii_alphabetic)
        .map(|c| c.to_ascii_uppercase());
    let first = letters.next()?;

    fn code(c: u8) -> u8 {
        match c {
            b'B' | b'F' | b'P' | b'V' => 1,
            b'C' | b'G' | b'J' | b'K' | b'Q' | b'S' | b'X' | b'Z' => 2,
            b'D' | b'T' => 3,
            b'L' => 4,
            b'M' | b'N' => 5,
            b'R' => 6,
            // Vowels and Y separate runs; H and W are transparent.
            b'A' | b'E' | b'I' | b'O' | b'U' | b'Y' => 0,
            _ => 7, // H, W
        }
    }

    // Digits not emitted stay '0', the standard padding.
    let mut out = [first, b'0', b'0', b'0'];
    let mut len = 1;
    let mut last_code = code(first);
    for c in letters {
        let k = code(c);
        match k {
            0 => last_code = 0, // vowel: reset run, emit nothing
            7 => {}             // H/W: transparent, keep last_code
            _ => {
                if k != last_code {
                    out[len] = b'0' + k;
                    len += 1;
                    if len == 4 {
                        break;
                    }
                }
                last_code = k;
            }
        }
    }
    Some(Code(out))
}

/// Whether two values plausibly represent a phonetic misspelling of one
/// another: same Soundex code, not identical after stripping non-letters,
/// both longer than two letters (the paper's criterion).
pub fn phonetic_match(a: &str, b: &str) -> bool {
    let la = crate::token::strip_non_alpha(a);
    let lb = crate::token::strip_non_alpha(b);
    if la.len() <= 2 || lb.len() <= 2 {
        return false;
    }
    if la.eq_ignore_ascii_case(&lb) {
        return false;
    }
    match (soundex(&la), soundex(&lb)) {
        (Some(ca), Some(cb)) => ca == cb,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn textbook_codes() {
        assert_eq!(soundex("Robert").as_deref(), Some("R163"));
        assert_eq!(soundex("Rupert").as_deref(), Some("R163"));
        assert_eq!(soundex("Ashcraft").as_deref(), Some("A261"));
        assert_eq!(soundex("Ashcroft").as_deref(), Some("A261"));
        assert_eq!(soundex("Tymczak").as_deref(), Some("T522"));
        assert_eq!(soundex("Pfister").as_deref(), Some("P236"));
        assert_eq!(soundex("Honeyman").as_deref(), Some("H555"));
    }

    #[test]
    fn double_letters_collapse() {
        assert_eq!(soundex("Gutierrez").as_deref(), Some("G362"));
        assert_eq!(soundex("Jackson").as_deref(), Some("J250"));
    }

    #[test]
    fn hw_transparent_between_same_codes() {
        // S and C both map to 2; transparent W keeps the run.
        assert_eq!(soundex("Ashcraft"), soundex("Ashcroft"));
        assert_eq!(soundex("BOOTH").as_deref(), Some("B300"));
    }

    #[test]
    fn empty_or_nonalpha_is_none() {
        assert_eq!(soundex(""), None);
        assert_eq!(soundex("1234"), None);
        assert_eq!(soundex("---"), None);
    }

    #[test]
    fn codes_read_as_their_text() {
        let code = soundex("Robert").unwrap();
        assert_eq!(format!("{code:?}"), "\"R163\"");
        assert_eq!(code.as_bytes(), b"R163");
    }

    #[test]
    fn nonalpha_chars_ignored() {
        assert_eq!(soundex("O'Brien"), soundex("OBrien"));
    }

    #[test]
    fn phonetic_match_examples() {
        assert!(phonetic_match("BAILEY", "BAYLEE"));
        assert!(!phonetic_match("BAILEY", "BAILEY"));
        // Too short.
        assert!(!phonetic_match("AL", "AL"));
        assert!(!phonetic_match("KIM", "KYMM") || phonetic_match("KIM", "KYMM"));
        // Different codes.
        assert!(!phonetic_match("SMITH", "JONES"));
    }

    #[test]
    fn phonetic_match_ignores_punctuation_only_diff() {
        // Identical after stripping punctuation -> not a phonetic error.
        assert!(!phonetic_match("O'BRIEN", "OBRIEN"));
    }
}
