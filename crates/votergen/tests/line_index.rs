//! `Row::from_tsv` finds the tabs of a line a word at a time; these
//! tests hold it to a byte loop over the same line: the same values,
//! and `None` exactly when the line does not have one field per
//! attribute.
//!
//! The inputs put tabs at every offset modulo 8 and next to the bytes
//! the word test can flag without being tabs (`\x08` and `\x01` after a
//! tab, `0x89` inside a multi-byte character), with 43, 44 and 45
//! fields. The property has an `#[ignore]`d 3 000-case twin under the
//! same name (`cargo test -- --ignored`).

use nc_propcheck::{check, check_n, Gen};
use nc_votergen::schema::{Row, NUM_ATTRS};

/// The fields of `line` by a byte loop, when it has one per attribute.
fn fields_by_byte_loop(line: &str) -> Option<Vec<&str>> {
    let mut fields = Vec::new();
    let mut start = 0;
    for (at, &byte) in line.as_bytes().iter().enumerate() {
        if byte == b'\t' {
            fields.push(&line[start..at]);
            start = at + 1;
        }
    }
    fields.push(&line[start..]);
    (fields.len() == NUM_ATTRS).then_some(fields)
}

fn assert_indexed_like_byte_loop(line: &str) {
    let indexed = Row::from_tsv(line);
    let values: Option<Vec<&str>> = indexed.as_ref().map(|row| row.values().collect());
    assert_eq!(values, fields_by_byte_loop(line), "{line:?}");
    if let Some(row) = &indexed {
        assert_eq!(row.as_tsv(), line);
    }
}

/// Characters of generated fields: ASCII, the SWAR near-misses `\x08`
/// and `\x01`, `ɉ` (`C9 89`), and two-, three- and four-byte letters.
const ALPHABET: &str = "AB \x08\x01ɉÅ€𝄞";

fn line_prop(g: &mut Gen) {
    let fields = g.pick(&[NUM_ATTRS - 1, NUM_ATTRS, NUM_ATTRS, NUM_ATTRS + 1]);
    let values: Vec<String> = (0..fields).map(|_| g.string(ALPHABET, 0..12)).collect();
    assert_indexed_like_byte_loop(&values.join("\t"));
}

#[test]
fn from_tsv_matches_byte_loop() {
    check("from_tsv_matches_byte_loop", line_prop);
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn from_tsv_matches_byte_loop_wide() {
    check_n("from_tsv_matches_byte_loop", 3_000, line_prop);
}

/// A tab at every offset modulo 8 and on both sides of the 64-byte
/// mask boundary, followed by each byte the word test may flag, in
/// lines of 43, 44 and 45 fields.
#[test]
fn tabs_at_every_offset_and_beside_near_misses() {
    for fields in [NUM_ATTRS - 1, NUM_ATTRS, NUM_ATTRS + 1] {
        for lead in 0..80 {
            for next in ["", "\x08", "\x01", "\x08\x08", "ɉ", "\t", "x"] {
                let mut values = vec![next.to_owned(); fields];
                values[0] = "a".repeat(lead);
                assert_indexed_like_byte_loop(&values.join("\t"));
                values[fields - 1] = "ɉ".repeat(lead);
                assert_indexed_like_byte_loop(&values.join("\t"));
            }
        }
    }
    // Nothing but tabs: one empty value per attribute, or one too many.
    assert_indexed_like_byte_loop(&"\t".repeat(NUM_ATTRS - 1));
    assert_indexed_like_byte_loop(&"\t".repeat(NUM_ATTRS));
    assert_indexed_like_byte_loop("");
}
