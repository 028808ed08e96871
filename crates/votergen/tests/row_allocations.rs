//! Allocation guard for [`Row`]: a row is one heap allocation. Parsing
//! or cloning one allocates exactly once and reading it never does, so
//! a refactor cannot quietly bring back an allocation per value.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nc_votergen::schema::{Row, LAST_NAME, NUM_ATTRS};

thread_local! {
    /// Allocations made by this thread (the harness' other threads
    /// allocate too, and must not be counted).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// System allocator with a per-thread allocation counter; test only, so
/// the library's `forbid(unsafe_code)` is untouched.
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

#[test]
fn a_row_is_one_allocation() {
    let line = (0..NUM_ATTRS)
        .map(|id| format!("value {id} of a realistic length"))
        .collect::<Vec<_>>()
        .join("\t");

    let (row, n) = allocations_during(|| Row::from_tsv(&line).unwrap());
    assert_eq!(n, 1, "from_tsv");
    let (copy, n) = allocations_during(|| row.clone());
    assert_eq!(n, 1, "clone");
    let (_, n) = allocations_during(Row::empty);
    assert_eq!(n, 1, "empty");
    let values: [&str; NUM_ATTRS] = std::array::from_fn(|id| row.get(id));
    let (built, n) = allocations_during(|| Row::from_values(&values));
    assert_eq!(n, 1, "from_values");
    assert_eq!(built, row);
    let (_, n) = allocations_during(|| Row::from_tsv("too\tfew"));
    assert_eq!(n, 0, "a rejected line is never copied");

    let (bytes, n) = allocations_during(|| {
        let mut bytes = row.as_tsv().len() + row.ncid().len();
        for id in 0..NUM_ATTRS {
            bytes += row.get(id).len();
        }
        bytes + row.values().map(str::len).sum::<usize>()
    });
    assert_eq!(n, 0, "get / values / as_tsv / ncid only borrow");
    assert!(bytes > 0);
    let (equal, n) = allocations_during(|| copy == row);
    assert_eq!(n, 0, "==");
    assert!(equal);

    // Overwriting a value with one no longer than it splices in place.
    let mut copy = copy;
    let (_, n) = allocations_during(|| copy.set(LAST_NAME, "SHORT"));
    assert_eq!(n, 0, "set without growth");
    assert_eq!(copy.get(LAST_NAME), "SHORT");
}
