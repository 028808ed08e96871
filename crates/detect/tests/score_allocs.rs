//! Allocation guard for the prepared matcher: once the dataset is
//! interned and the buffers are warm, scoring a candidate pair
//! allocates nothing — not on a memo hit, not on a miss that goes to
//! the kernel, not in the name-group assignment. The per-pair entry
//! point this replaced in the scoring drivers built two `Vec<&str>`, a
//! `Vec<Vec<f64>>` and an assignment's working set for every pair.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nc_detect::dataset::{Dataset, Pair};
use nc_detect::matcher::{MeasureKind, RecordMatcher};

thread_local! {
    /// Allocations made by this thread (the harness' other threads
    /// allocate too, and must not be counted).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// System allocator with a per-thread counter; test only, so the
/// library's `forbid(unsafe_code)` is untouched.
struct CountingAllocator;

// SAFETY: delegates directly to `System`; the counter has no effect on
// the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

/// 120 records: three name attributes over a pool of 12 (memoised in
/// full), a city out of five, a street that never repeats (compared by
/// the kernel every time) and a mostly missing phone number. One name
/// is not ASCII and every fourth street runs past 64 bytes, so both of
/// Jaro's paths run: the word-parallel one and the scalar fallback.
fn register() -> Dataset {
    let names = [
        "ANNA", "BOB", "CARLA", "DEBRA", "EARL", "FAYE", "GUS", "HANNAH", "IVAN", "JOSÉ", "", "KIM",
    ];
    let mut data = Dataset::new(
        ["first", "midl", "last", "city", "street", "phone"].map(String::from).to_vec(),
    );
    for i in 0..120usize {
        data.push(
            vec![
                names[i % 12].into(),
                names[(i / 3) % 12].into(),
                names[(i * 7 + 1) % 12].into(),
                format!("CITY {}", i % 5),
                if i % 4 == 0 {
                    format!(
                        "{i} OLD MAIN STREET EXTENSION NORTHWEST CORNER BUILDING {} REAR APARTMENT",
                        i * 31 % 17
                    )
                } else {
                    format!("{i} MAIN STREET APT {}", i * 31 % 17)
                },
                if i % 9 == 0 { format!("919555{i:04}") } else { String::new() },
            ],
            i / 2,
        );
    }
    data
}

#[test]
fn scoring_a_pair_allocates_nothing_after_warm_up() {
    let data = register();
    assert!(data.records.iter().any(|r| r.values[4].len() > 64));
    let pairs: Vec<Pair> = (0..data.len())
        .flat_map(|a| (a + 1..data.len()).map(move |b| Pair(a, b)))
        .collect();
    // Jaro–Winkler runs on the thread's scratch, so even the street and
    // the phone number, which go to the kernel for every pair, allocate
    // nothing. Monge–Elkan tokenizes and trigram Jaccard builds gram
    // maps per kernel call: a miss of theirs allocates in the kernel,
    // so they are held to the memoised attributes, where the second
    // pass is all hits.
    let every = data.entropy_weights();
    let mut memoised = every.clone();
    memoised[4..].fill(0.0);
    for (kind, weights) in [
        (MeasureKind::JaroWinkler, every),
        (MeasureKind::MongeElkanLevenshtein, memoised.clone()),
        (MeasureKind::TrigramJaccard, memoised),
    ] {
        let matcher = RecordMatcher::with_kind(kind, weights, vec![0, 1, 2]);
        let mut prepared = matcher.prepare(&data);
        let mut score_all = || pairs.iter().map(|&pair| prepared.score(pair)).sum::<f64>();
        let warm = score_all();
        let (again, allocations) = allocations_during(&mut score_all);
        assert_eq!(again.to_bits(), warm.to_bits());
        assert_eq!(allocations, 0, "{kind:?}: {} pairs", pairs.len());
    }
}
