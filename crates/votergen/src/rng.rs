//! The workspace's one seeded PRNG.
//!
//! Every "seed → bytes" contract in the repo — a generated archive, a
//! comparator dataset, an NC1–NC3 carve, a pollution pass, a served
//! `sample` stage — draws from this [`Rng`], so which bytes a seed
//! produces is decided here and nowhere else: not by the build
//! environment, not by a dependency's release notes. The stream and
//! every reduction below are pinned by the unit tests of this module
//! and by the MD5 pins in `crates/core/tests/golden_archive.rs`,
//! `tests/detection.rs` and `nc-query`'s `exec` tests; changing any of
//! them moves every seeded dataset.
//!
//! The generator is SplitMix64 (Steele, Lea & Flood 2014): the state
//! advances by the golden-ratio increment and is finalised with the
//! 30/27/31 mixer. Integer ranges reduce with a plain modulo, whose
//! bias is at most `span · 2⁻⁶⁴` — under 10⁻¹¹ even for a span of 10⁸
//! clusters, and part of the pinned contract either way.

use std::ops::{Range, RangeInclusive};

/// A seeded SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// The stream of `seed`: the state starts at `seed` itself.
    pub fn seed_from_u64(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// The next 64 bits of the stream.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform `f64` in `[0, 1)`: the top 53 bits of one draw.
    #[inline]
    pub fn gen(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (one draw). Panics unless
    /// `0 ≤ p ≤ 1`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p out of range: {p}");
        self.gen() < p
    }

    /// A uniform value from `lo..hi` or `lo..=hi` (one draw). Panics on
    /// an empty range.
    pub fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }

    /// Fisher–Yates shuffle in place, from the last position down, one
    /// draw per position.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(0..=i);
            slice.swap(i, j);
        }
    }
}

/// A type [`Rng::gen_range`] can draw: the integers and `f64`.
pub trait SampleUniform: Copy + PartialOrd {
    /// One draw from `[lo, hi)`, or `[lo, hi]` when `inclusive`.
    fn sample_between(rng: &mut Rng, lo: Self, hi: Self, inclusive: bool) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between(rng: &mut Rng, lo: Self, hi: Self, inclusive: bool) -> Self {
                // The span is taken in `i128` so that signed bounds and
                // a full-width inclusive range neither overflow nor wrap.
                let span = (hi as i128 - lo as i128) as u128 + u128::from(inclusive);
                (lo as i128 + (u128::from(rng.next_u64()) % span) as i128) as $t
            }
        }
    )*};
}
// The widths the workspace draws; another is one more entry here.
uniform_int!(u8, u32, u64, usize, i32);

impl SampleUniform for f64 {
    fn sample_between(rng: &mut Rng, lo: Self, hi: Self, _inclusive: bool) -> Self {
        lo + rng.gen() * (hi - lo)
    }
}

/// The range forms [`Rng::gen_range`] accepts. One blanket impl per
/// form (rather than one impl per element type), so an unsuffixed
/// literal range infers its element type from the call's context.
pub trait SampleRange<T> {
    /// One draw from the range.
    fn sample(self, rng: &mut Rng) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample(self, rng: &mut Rng) -> T {
        assert!(self.start < self.end, "empty range");
        T::sample_between(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample(self, rng: &mut Rng) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "empty range");
        T::sample_between(rng, lo, hi, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first draws of seed 1 — the stream every pinned digest in
    /// the workspace was recorded on.
    const SEED_1: [u64; 3] = [
        0x910a_2dec_8902_5cc1,
        0xbeeb_8da1_658e_ec67,
        0xf893_a2ee_fb32_555e,
    ];

    #[test]
    fn stream_of_seed_one_is_pinned() {
        let mut rng = Rng::seed_from_u64(1);
        assert_eq!([rng.next_u64(), rng.next_u64(), rng.next_u64()], SEED_1);
        // A clone continues the same stream.
        let mut fork = rng.clone();
        assert_eq!(rng.next_u64(), fork.next_u64());
    }

    /// The top 53 bits of a draw as a fraction of 2⁵³.
    fn unit(x: u64) -> f64 {
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn floats_take_the_top_53_bits() {
        let mut rng = Rng::seed_from_u64(1);
        assert_eq!(rng.gen(), unit(SEED_1[0]));
        let x = rng.gen_range(2.0..4.0);
        assert_eq!(x, 2.0 + unit(SEED_1[1]) * 2.0);
        assert!((2.0..4.0).contains(&x));
    }

    #[test]
    fn gen_bool_compares_one_float_draw() {
        let first = unit(SEED_1[0]);
        assert!(!Rng::seed_from_u64(1).gen_bool(first), "strictly below p");
        let mut rng = Rng::seed_from_u64(1);
        assert!(rng.gen_bool(first + f64::EPSILON));
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    #[should_panic(expected = "p out of range")]
    fn gen_bool_rejects_probabilities_above_one() {
        Rng::seed_from_u64(1).gen_bool(1.5);
    }

    #[test]
    #[should_panic(expected = "p out of range")]
    fn gen_bool_rejects_nan() {
        Rng::seed_from_u64(1).gen_bool(f64::NAN);
    }

    /// Every width the call sites draw reduces the same draw the same
    /// way: `lo + x mod span`.
    #[test]
    fn integer_ranges_reduce_by_modulo_at_every_width() {
        let x = SEED_1[0];
        let draw = || Rng::seed_from_u64(1);
        assert_eq!(draw().gen_range(0..4u8), (x % 4) as u8);
        assert_eq!(draw().gen_range(0..10_000_000u32), (x % 10_000_000) as u32);
        assert_eq!(draw().gen_range(0..10_000u64), x % 10_000);
        assert_eq!(draw().gen_range(3..26usize), 3 + (x % 23) as usize);
        assert_eq!(draw().gen_range(-9i32..=9), -9 + (x % 19) as i32);
        // An unsuffixed literal range takes its type from the context.
        let year: i32 = 2008 - draw().gen_range(0..10);
        assert_eq!(year, 2008 - (x % 10) as i32);
        // Spans the element type cannot hold.
        assert_eq!(draw().gen_range(0..=usize::MAX), x as usize);
        assert_eq!(draw().gen_range(0..=u64::MAX), x);
        let full = draw().gen_range(i32::MIN..=i32::MAX);
        assert_eq!(
            i64::from(full),
            i64::from(i32::MIN) + (x % (1 << 32)) as i64
        );
    }

    #[test]
    fn inclusive_ranges_reach_both_ends() {
        let mut rng = Rng::seed_from_u64(7);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[rng.gen_range(0..=3usize)] = true;
            assert!(rng.gen_range(0..3usize) < 3);
        }
        assert_eq!(seen, [true; 4]);
        assert_eq!(rng.gen_range(5..=5), 5);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        Rng::seed_from_u64(1).gen_range(3..3);
    }

    #[test]
    fn shuffle_walks_down_with_inclusive_draws() {
        let mut rng = Rng::seed_from_u64(1);
        let mut none: [u8; 0] = [];
        rng.shuffle(&mut none);
        let mut one = [9];
        rng.shuffle(&mut one);
        assert_eq!(one, [9]);
        assert_eq!(rng.next_u64(), SEED_1[0], "0 and 1 elements draw nothing");

        // n elements: position i swaps with `draw mod (i + 1)`, i = n-1..1.
        let mut rng = Rng::seed_from_u64(1);
        let mut items: Vec<usize> = (0..4).collect();
        rng.shuffle(&mut items);
        let mut expect: Vec<usize> = (0..4).collect();
        for (i, x) in [(3, SEED_1[0]), (2, SEED_1[1]), (1, SEED_1[2])] {
            expect.swap(i, (x % (i as u64 + 1)) as usize);
        }
        assert_eq!(items, expect);
    }
}
