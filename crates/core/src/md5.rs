//! MD5 (RFC 1321), implemented from scratch.
//!
//! The paper fingerprints every record with MD5 over the concatenation
//! of its relevant attribute values to detect (near-)exact duplicates
//! during import (Section 4). Cryptographic strength is irrelevant here —
//! a collision merely drops one duplicate record — but the 128-bit digest
//! makes accidental collisions vanishingly unlikely.

/// Per-round shift amounts.
const S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
];

/// Binary integer parts of `abs(sin(i + 1)) * 2^32`.
const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613,
    0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193,
    0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d,
    0x02441453, 0xd8a1e681, 0xe7d3fbc8, 0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed,
    0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122,
    0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
    0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665, 0xf4292244,
    0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb,
    0xeb86d391,
];

/// A 128-bit MD5 digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 16]);

impl Digest {
    /// Lowercase hex rendering (32 characters).
    pub fn to_hex(self) -> String {
        let mut s = String::with_capacity(32);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Incremental MD5 state: feed the message in any number of
/// [`Md5::update`] calls, then [`Md5::finish`].
#[derive(Debug, Clone)]
pub struct Md5 {
    state: [u32; 4],
    /// Bytes of the current, not yet full block.
    block: [u8; 64],
    /// Message bytes fed so far.
    len: u64,
}

impl Default for Md5 {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5 {
    /// State of the empty message.
    pub fn new() -> Self {
        Md5 {
            state: [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476],
            block: [0; 64],
            len: 0,
        }
    }

    /// Append bytes to the message.
    pub fn update(&mut self, mut input: &[u8]) {
        let filled = (self.len % 64) as usize;
        self.len = self.len.wrapping_add(input.len() as u64);
        if filled > 0 {
            let take = input.len().min(64 - filled);
            self.block[filled..filled + take].copy_from_slice(&input[..take]);
            input = &input[take..];
            if filled + take < 64 {
                return;
            }
            compress(&mut self.state, &self.block);
        }
        let mut blocks = input.chunks_exact(64);
        for block in &mut blocks {
            compress(&mut self.state, block.try_into().expect("64-byte chunk"));
        }
        let rest = blocks.remainder();
        self.block[..rest.len()].copy_from_slice(rest);
    }

    /// Pad the message and return its digest.
    pub fn finish(mut self) -> Digest {
        // Message padding: 0x80, zeros, then the 64-bit bit length.
        let bit_len = self.len.wrapping_mul(8);
        let filled = (self.len % 64) as usize;
        let zeros = if filled < 56 { 55 - filled } else { 119 - filled };
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        pad[1 + zeros..9 + zeros].copy_from_slice(&bit_len.to_le_bytes());
        self.update(&pad[..9 + zeros]);
        let mut out = [0u8; 16];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_le_bytes());
        }
        Digest(out)
    }
}

/// The message word each step reads (RFC 1321 §3.4): in order, then
/// `(5i + 1) mod 16`, `(3i + 5) mod 16` and `7i mod 16`.
const G: [usize; 64] = [
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, //
    1, 6, 11, 0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, //
    5, 8, 11, 14, 1, 4, 7, 10, 13, 0, 3, 6, 9, 12, 15, 2, //
    0, 7, 14, 5, 12, 3, 10, 1, 8, 15, 6, 13, 4, 11, 2, 9,
];

/// Fold one 64-byte block into the state: four rounds of sixteen steps,
/// each round with its own boolean function, written out so that no
/// step has to ask which round it is in.
fn compress(state: &mut [u32; 4], block: &[u8; 64]) {
    let mut m = [0u32; 16];
    for (word, bytes) in m.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    // One step of step `i`: `a = b + ((a + f + K[i] + M[G[i]]) <<< S[i])`.
    let step = |a: u32, b: u32, f: u32, i: usize| {
        b.wrapping_add(a.wrapping_add(f).wrapping_add(K[i]).wrapping_add(m[G[i]]).rotate_left(S[i]))
    };
    let [mut a, mut b, mut c, mut d] = *state;
    // Sixteen steps of one round; the roles of a, b, c, d rotate by one
    // each step.
    macro_rules! round {
        ($f:expr, $($i:expr),+) => {
            $(
                a = step(a, b, $f(b, c, d), $i);
                d = step(d, a, $f(a, b, c), $i + 1);
                c = step(c, d, $f(d, a, b), $i + 2);
                b = step(b, c, $f(c, d, a), $i + 3);
            )+
        };
    }
    round!(|x: u32, y: u32, z: u32| (x & y) | (!x & z), 0, 4, 8, 12);
    round!(|x: u32, y: u32, z: u32| (x & z) | (y & !z), 16, 20, 24, 28);
    round!(|x: u32, y: u32, z: u32| x ^ y ^ z, 32, 36, 40, 44);
    round!(|x: u32, y: u32, z: u32| y ^ (x | !z), 48, 52, 56, 60);
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
}

/// Compute the MD5 digest of a byte string.
pub fn md5(input: &[u8]) -> Digest {
    let mut hash = Md5::new();
    hash.update(input);
    hash.finish()
}

/// MD5 of a string.
pub fn md5_str(input: &str) -> Digest {
    md5(input.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 1321 Appendix A.5 test suite: input, digest.
    const RFC1321_VECTORS: [(&str, &str); 7] = [
        ("", "d41d8cd98f00b204e9800998ecf8427e"),
        ("a", "0cc175b9c0f1b6a831c399e269772661"),
        ("abc", "900150983cd24fb0d6963f7d28e17f72"),
        ("message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
        ("abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b"),
        (
            "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
            "d174ab98d277d9f5a5611c2c9f419d9f",
        ),
        (
            "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
            "57edf4a22be3c955ac49da2e2107b67a",
        ),
    ];

    #[test]
    fn rfc1321_test_vectors() {
        for (input, expected) in RFC1321_VECTORS {
            assert_eq!(md5_str(input).to_hex(), expected, "input: {input:?}");
        }
    }

    /// Feeding a message in two pieces, split at every position, gives
    /// the one-shot digest — over the RFC vectors and the lengths around
    /// the padding and block edges.
    #[test]
    fn chunked_updates_equal_one_shot() {
        let mut inputs: Vec<String> =
            RFC1321_VECTORS.iter().map(|(input, _)| (*input).to_owned()).collect();
        for len in [55, 56, 63, 64, 65, 127, 128, 129] {
            inputs.push((0..len).map(|i| (b'a' + (i % 26) as u8) as char).collect());
        }
        for input in &inputs {
            let bytes = input.as_bytes();
            let whole = md5(bytes);
            for split in 0..=bytes.len() {
                let mut hash = Md5::new();
                hash.update(&bytes[..split]);
                hash.update(&bytes[split..]);
                assert_eq!(hash.finish(), whole, "len {} split {split}", bytes.len());
            }
            // Byte at a time.
            let mut hash = Md5::new();
            for b in bytes {
                hash.update(std::slice::from_ref(b));
            }
            assert_eq!(hash.finish(), whole, "len {} bytewise", bytes.len());
        }
    }

    #[test]
    fn padding_boundaries() {
        // Lengths around the 55/56/64-byte padding edges.
        for len in [54, 55, 56, 57, 63, 64, 65, 119, 120, 128] {
            let s = "x".repeat(len);
            let d = md5_str(&s);
            // Digest must be deterministic and 16 bytes.
            assert_eq!(md5_str(&s), d);
            assert_eq!(d.to_hex().len(), 32);
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(md5_str("SMITH|JOHN"), md5_str("SMITH|JOHN "));
        assert_ne!(md5_str("a|b"), md5_str("a|b|"));
    }

    #[test]
    fn display_matches_hex() {
        let d = md5_str("abc");
        assert_eq!(format!("{d}"), d.to_hex());
    }

    #[test]
    fn binary_input_supported() {
        let d = md5(&[0u8, 255, 128, 7]);
        assert_eq!(d.to_hex().len(), 32);
    }
}
