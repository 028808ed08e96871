//! The workspace's property runner: seeded cases, plain `assert!`s.
//!
//! A property is a closure over a [`Gen`]. [`check`] runs it on
//! [`CASES`] inputs, each drawn from its own [`Rng`] stream. The case
//! seeds derive from the property's *name* — not from a file line, the
//! clock or the environment — so a run is the same every time on every
//! machine, and editing a test file does not reshuffle its cases.
//!
//! There is no shrinking. A failing case panics with its seed in the
//! message, and [`replay`] re-runs exactly that case:
//!
//! ```should_panic
//! nc_propcheck::check("sum_is_small", |g| {
//!     let xs = g.vec(0..8, |g| g.range(0..100u32));
//!     assert!(xs.iter().sum::<u32>() < 300, "{xs:?}");
//! });
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};

use nc_votergen::rng::{Rng, SampleRange};

/// Cases [`check`] runs per property.
pub const CASES: u32 = 64;

/// `A`–`Z`, the alphabet of most generated names and codes.
pub const UPPER: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZ";
/// `a`–`z`.
pub const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";
/// `0`–`9`.
pub const DIGITS: &str = "0123456789";

/// One case's input source: a seeded stream and the draws properties
/// build their inputs from. A generator is a plain `fn(&mut Gen) -> T`.
pub struct Gen(Rng);

impl Gen {
    /// A uniform value from `lo..hi` or `lo..=hi` (integers and `f64`).
    pub fn range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        self.0.gen_range(range)
    }

    /// Any `u64`.
    pub fn u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    /// One of `items`, uniformly. Panics on an empty slice.
    pub fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.range(0..items.len())].clone()
    }

    /// A string of `len` characters drawn from `alphabet`.
    pub fn string(&mut self, alphabet: &str, len: impl SampleRange<usize>) -> String {
        let alphabet: Vec<char> = alphabet.chars().collect();
        self.vec(len, |g| g.pick(&alphabet)).into_iter().collect()
    }

    /// `len` values of `item`.
    pub fn vec<T>(
        &mut self,
        len: impl SampleRange<usize>,
        mut item: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let len = self.range(len);
        (0..len).map(|_| item(self)).collect()
    }
}

/// Run `prop` on [`CASES`] cases seeded from `name`.
pub fn check(name: &str, prop: impl Fn(&mut Gen)) {
    check_n(name, CASES, prop);
}

/// [`check`] with its own case count, for a property whose cases are
/// expensive.
pub fn check_n(name: &str, cases: u32, prop: impl Fn(&mut Gen)) {
    // FNV-1a of the name seeds the stream the case seeds are drawn from.
    let hash = name.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    let mut seeds = Rng::seed_from_u64(hash);
    for case in 1..=cases {
        let seed = seeds.next_u64();
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| replay(seed, &prop))) {
            let why = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("(non-string panic)");
            panic!(
                "property `{name}` failed at case {case}/{cases}; re-run it alone \
                 with nc_propcheck::replay({seed:#018x}, ..): {why}"
            );
        }
    }
}

/// Run `prop` on the one case `seed` names — the seed a failing
/// [`check`] printed.
pub fn replay(seed: u64, prop: impl Fn(&mut Gen)) {
    prop(&mut Gen(Rng::seed_from_u64(seed)));
}
