//! The CRC-32 line framing held to the `fmt` / `rfind` forms it
//! replaced: `frame_line` writes the same bytes as
//! `write!("{body}\t#crc:{crc:08x}")`, and `read_framed` accepts
//! exactly the lines the search for the last separator accepted —
//! bodies that contain the separator themselves, suffixes of 7 and 9
//! digits, uppercase hex, a leading `+`, and non-ASCII before the
//! suffix included. The property has an `#[ignore]`d 3 000-case twin
//! under the same name (`cargo test -- --ignored`).

use nc_docstore::crc32::crc32;
use nc_docstore::persist::{frame_in_place, frame_line, read_framed};
use nc_propcheck::{check, check_n, Gen};

const SEP: &str = "\t#crc:";

fn frame_by_fmt(body: &str) -> String {
    format!("{body}{SEP}{:08x}", crc32(body.as_bytes()))
}

fn read_by_rfind(line: &str) -> Option<&str> {
    let idx = line.rfind(SEP)?;
    let (body, hex) = (&line[..idx], &line[idx + SEP.len()..]);
    if hex.len() != 8 {
        return None;
    }
    let crc = u32::from_str_radix(hex, 16).ok()?;
    (crc32(body.as_bytes()) == crc).then_some(body)
}

/// Bodies built from pieces of the separator, hex digits of both cases,
/// signs and non-ASCII text.
fn body(g: &mut Gen) -> String {
    let pieces = ["\t", "#", "crc", ":", SEP, "0f", "A9", "+", "-", "é", "名", "{\"_id\":1}", " "];
    g.vec(0..8, |g| g.pick(&pieces)).concat()
}

/// A suffix for `body`: its own checksum in several renderings, or
/// something that only resembles one.
fn suffix(g: &mut Gen, body: &str) -> String {
    let crc = crc32(body.as_bytes());
    let digits = "0123456789abcdefABCDEF+-g ";
    match g.range(0..8) {
        0 => format!("{SEP}{crc:08x}"),
        1 => format!("{SEP}{crc:08X}"),
        2 => format!("{SEP}{:07x}", crc & 0x0fff_ffff),
        3 => format!("{SEP}+{:07x}", crc & 0x0fff_ffff),
        4 => format!("{SEP}{crc:09x}"),
        5 => format!("{SEP}{}", g.string(digits, 7..=9)),
        6 => format!("{SEP}{crc:08x}{}", g.string(digits, 0..3)),
        _ => g.string(digits, 0..10),
    }
}

fn framing_prop(g: &mut Gen) {
    let body = body(g);
    let framed = frame_line(&body);
    assert_eq!(framed, frame_by_fmt(&body), "{body:?}");
    let mut reused = String::from(body.as_str());
    frame_in_place(&mut reused);
    assert_eq!(reused, framed);
    assert_eq!(read_framed(&framed), Some(body.as_str()));
    for _ in 0..4 {
        let line = format!("{body}{}", suffix(g, &body));
        assert_eq!(read_framed(&line), read_by_rfind(&line), "{line:?}");
    }
}

#[test]
fn framing_matches_fmt_and_rfind() {
    check("framing_matches_fmt_and_rfind", framing_prop);
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn framing_matches_fmt_and_rfind_wide() {
    check_n("framing_matches_fmt_and_rfind", 3_000, framing_prop);
}

/// The edge cases by name: a checksum whose value starts with zeros,
/// uppercase and `+`-signed renderings of a valid checksum (accepted,
/// as `from_str_radix` accepts them), separators inside the body, and
/// lines shorter than a suffix.
#[test]
fn framing_edge_cases() {
    for body in ["", "x", "{\"_id\":0}", "a\t#crc:00000000", "é\t#crc:", "名前"] {
        let framed = frame_line(body);
        assert_eq!(framed, frame_by_fmt(body));
        assert_eq!(read_framed(&framed), Some(body));
        let crc = crc32(body.as_bytes());
        for line in [
            format!("{body}{SEP}{crc:08X}"),
            format!("{body}{SEP}+{:07x}", crc & 0x0fff_ffff),
            format!("{body}{SEP}{:07x}", crc & 0x0fff_ffff),
            format!("{body}{SEP}0{crc:08x}"),
            format!("{body}{SEP}{crc:08x}{SEP}{crc:08x}"),
            format!("{framed}{SEP}"),
        ] {
            assert_eq!(read_framed(&line), read_by_rfind(&line), "{line:?}");
        }
    }
    // Short lines: no room for a suffix.
    for line in ["", "\t#crc:", "\t#crc:0000000", "é#crc:00000000"] {
        assert_eq!(read_framed(line), read_by_rfind(line), "{line:?}");
        assert_eq!(read_framed(line), None);
    }
}
