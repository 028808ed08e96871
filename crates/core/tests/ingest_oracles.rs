//! The ingest row path held to the plain forms it replaced:
//!
//! * `record::repeats`, which compares runs of hashed attributes as
//!   slices of the packed line, against the value-by-value check;
//! * `md5::md5`, whose block function is written out round by round,
//!   against the loop that asks each step which round it is in;
//! * `record::fingerprint`, which hashes one assembled buffer, against
//!   the MD5 of the joined values, on both sides of its stack buffer.
//!
//! Each property has an `#[ignore]`d 3 000-case twin under the same
//! name (`cargo test -- --ignored`).

use nc_core::md5::{md5, md5_str, Digest, Md5};
use nc_core::record::{fingerprint, repeats, DedupPolicy};
use nc_propcheck::{check, check_n, Gen};
use nc_votergen::schema::{Row, NUM_ATTRS, SCHEMA};

/// Characters of generated values: letters, blanks (ASCII and
/// Unicode), digits, punctuation and multi-byte letters.
const ALPHABET: &str = "ABCJSMITH  \u{a0}\u{2003}09-'.ÅÖßé名";

/// `repeats` as it was: every hashed attribute compared on its own,
/// trimmed only on a mismatch and only when the policy trims.
fn repeats_per_value(row: &Row, stored: &Row, policy: DedupPolicy) -> bool {
    SCHEMA.iter().enumerate().all(|(id, attr)| {
        if !policy.hashes(attr) {
            return true;
        }
        let (v, kept) = (row.get(id), stored.get(id));
        v == kept || (policy.trims() && v.trim() == kept)
    })
}

/// A value: blank, padded or plain, from [`ALPHABET`].
fn value(g: &mut Gen) -> String {
    match g.range(0..6) {
        0 => String::new(),
        1 => " ".repeat(g.range(1..3)),
        2 => format!(" {} ", g.string(ALPHABET, 1..8)),
        _ => g.string(ALPHABET, 0..10),
    }
}

fn row(g: &mut Gen) -> Row {
    let mut row = Row::empty();
    for id in 0..NUM_ATTRS {
        row.set(id, value(g));
    }
    row
}

/// `value` with one difference planted: padding added, the value
/// emptied, replaced, or extended by a (possibly multi-byte) character.
fn plant(g: &mut Gen, value: &str) -> String {
    match g.range(0..5) {
        0 => format!(" {value}"),
        1 => format!("{value}\u{a0}"),
        2 => String::new(),
        3 => g.string(ALPHABET, 0..6),
        _ => format!("{value}{}", g.string(ALPHABET, 1..2)),
    }
}

/// For every policy and every attribute (hash-excluded ones included),
/// a row against its own stored form with a difference planted at that
/// attribute, and against an unrelated row.
fn repeats_matches_per_value_prop(g: &mut Gen) {
    let base = row(g);
    let other = row(g);
    for policy in DedupPolicy::ALL {
        let mut stored = base.clone();
        if policy.trims() {
            stored.trim_values();
        }
        let agree = |row: &Row, stored: &Row| {
            assert_eq!(
                repeats(row, stored, policy),
                repeats_per_value(row, stored, policy),
                "{policy:?}: {row:?} vs {stored:?}"
            );
        };
        agree(&base, &stored);
        agree(&base, &base);
        agree(&other, &stored);
        for id in 0..NUM_ATTRS {
            let mut changed = base.clone();
            changed.set(id, plant(g, base.get(id)));
            agree(&changed, &stored);
            agree(&stored, &changed);
        }
    }
}

#[test]
fn repeats_matches_per_value() {
    check("repeats_matches_per_value", repeats_matches_per_value_prop);
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn repeats_matches_per_value_wide() {
    check_n("repeats_matches_per_value", 3_000, repeats_matches_per_value_prop);
}

/// Shift amounts of the reference block function.
const S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
];

/// The block function as a loop over the 64 steps, each step matching
/// on its round (RFC 1321 §3.4); `k` is the RFC's table of sines.
fn reference_compress(state: &mut [u32; 4], block: &[u8], k: &[u32; 64]) {
    let mut m = [0u32; 16];
    for (i, w) in block.chunks_exact(4).enumerate() {
        m[i] = u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
    }
    let [mut a, mut b, mut c, mut d] = *state;
    for i in 0..64 {
        let (f, g) = match i {
            0..=15 => ((b & c) | (!b & d), i),
            16..=31 => ((d & b) | (!d & c), (5 * i + 1) % 16),
            32..=47 => (b ^ c ^ d, (3 * i + 5) % 16),
            _ => (c ^ (b | !d), (7 * i) % 16),
        };
        let tmp = d;
        d = c;
        c = b;
        b = b.wrapping_add(a.wrapping_add(f).wrapping_add(k[i]).wrapping_add(m[g]).rotate_left(S[i]));
        a = tmp;
    }
    for (word, add) in state.iter_mut().zip([a, b, c, d]) {
        *word = word.wrapping_add(add);
    }
}

/// MD5 of a whole message through [`reference_compress`].
fn reference_md5(input: &[u8]) -> Digest {
    let mut message = input.to_vec();
    message.push(0x80);
    while message.len() % 64 != 56 {
        message.push(0);
    }
    message.extend_from_slice(&(input.len() as u64).wrapping_mul(8).to_le_bytes());
    // `K[i]`, computed as the RFC defines it: ⌊|sin(i + 1)| · 2³²⌋.
    let k = std::array::from_fn(|i| ((i as f64 + 1.0).sin().abs() * 4_294_967_296.0) as u32);
    let mut state = [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476];
    for block in message.chunks_exact(64) {
        reference_compress(&mut state, block, &k);
    }
    let mut out = [0u8; 16];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_le_bytes());
    }
    Digest(out)
}

/// Every length from 0 to 300 bytes, one shot and fed in two pieces.
fn md5_matches_loop_compress_prop(g: &mut Gen) {
    let bytes: Vec<u8> = (0..300).map(|_| g.u64() as u8).collect();
    for len in 0..=bytes.len() {
        let input = &bytes[..len];
        let expected = reference_md5(input);
        assert_eq!(md5(input), expected, "len {len}");
        let split = g.range(0..=len);
        let mut hash = Md5::new();
        hash.update(&input[..split]);
        hash.update(&input[split..]);
        assert_eq!(hash.finish(), expected, "len {len} split {split}");
    }
}

#[test]
fn md5_matches_loop_compress() {
    check_n("md5_matches_loop_compress", 16, md5_matches_loop_compress_prop);
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn md5_matches_loop_compress_wide() {
    check_n("md5_matches_loop_compress", 3_000, md5_matches_loop_compress_prop);
}

/// The reference block function is the RFC's: it reproduces the
/// Appendix A.5 digests.
#[test]
fn reference_md5_reproduces_rfc1321() {
    assert_eq!(reference_md5(b"").to_hex(), "d41d8cd98f00b204e9800998ecf8427e");
    assert_eq!(reference_md5(b"message digest").to_hex(), "f96b697d7cb7938d525a2f31aaf161d0");
    let digits = b"12345678901234567890123456789012345678901234567890123456789012345678901234567890";
    assert_eq!(reference_md5(digits).to_hex(), "57edf4a22be3c955ac49da2e2107b67a");
}

/// The fingerprint's definition: the hashed values, trimmed when the
/// policy trims, each followed by `0x1f`.
fn joined_values(row: &Row, policy: DedupPolicy) -> String {
    let mut input = String::new();
    for (attr, v) in SCHEMA.iter().zip(row.values()) {
        if policy.hashes(attr) {
            input.push_str(if policy.trims() { v.trim() } else { v });
            input.push('\u{1f}');
        }
    }
    input
}

/// Rows from near-empty to well past the 512-byte stack buffer (values
/// up to 48 characters, some of them three bytes long).
fn fingerprint_matches_joined_values_prop(g: &mut Gen) {
    let longest = g.pick(&[2, 8, 24, 48]);
    let mut row = Row::empty();
    for id in 0..NUM_ATTRS {
        let mut v = g.string(ALPHABET, 0..longest);
        if g.bool() {
            v = format!("  {v} ");
        }
        row.set(id, v);
    }
    for policy in DedupPolicy::ALL {
        assert_eq!(
            fingerprint(&row, policy),
            md5_str(&joined_values(&row, policy)),
            "{policy:?}: {row:?}"
        );
    }
}

#[test]
fn fingerprint_matches_joined_values() {
    check("fingerprint_matches_joined_values", fingerprint_matches_joined_values_prop);
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn fingerprint_matches_joined_values_wide() {
    check_n("fingerprint_matches_joined_values", 3_000, fingerprint_matches_joined_values_prop);
}

/// Hash inputs of exactly the stack buffer's size, one byte either
/// side of it, and far above it.
#[test]
fn fingerprint_across_the_stack_buffer_boundary() {
    // Under `Exact` each of the 38 hashed values adds its length plus
    // one separator: 38 × 13 = 494 bytes, and 14..=22 more in the first
    // value give 508..=516.
    for extra in 14..=22 {
        let mut row = Row::empty();
        for id in 0..NUM_ATTRS {
            row.set(id, "x".repeat(12));
        }
        row.set(0, "x".repeat(12 + extra));
        for policy in DedupPolicy::ALL {
            let input = joined_values(&row, policy);
            assert_eq!(fingerprint(&row, policy), md5_str(&input), "{policy:?} {}", input.len());
        }
    }
    let mut row = Row::empty();
    for id in 0..NUM_ATTRS {
        row.set(id, format!(" {} ", "Å".repeat(100)));
    }
    for policy in DedupPolicy::ALL {
        assert_eq!(fingerprint(&row, policy), md5_str(&joined_values(&row, policy)), "{policy:?}");
    }
}
