//! Footprint guard for [`ClusterCatalog`]: a cluster costs under 200
//! bytes, its sorted permutations included. The catalog stores columns,
//! not documents; a `Document` per cluster with six maintained indexes
//! cost ≈ 1 024 requested bytes per cluster, and a `BTreeMap` per
//! (sub)document ≈ 2 430, so neither form can come back unnoticed. A
//! serving system holds one catalog per retained version, so this is
//! per cluster per version.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nc_core::cluster::ClusterStore;
use nc_core::heterogeneity::{PairTable, Scope};
use nc_core::import::import_snapshot;
use nc_core::record::DedupPolicy;
use nc_core::snapshot::StoreSnapshot;
use nc_query::catalog::ClusterCatalog;
use nc_votergen::config::GeneratorConfig;
use nc_votergen::registry::Registry;
use nc_votergen::snapshot::standard_calendar;

thread_local! {
    /// Requested bytes this thread holds: allocated minus freed.
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

/// System allocator with a per-thread byte counter; test only, so the
/// library's `forbid(unsafe_code)` is untouched.
struct CountingAllocator;

// SAFETY: delegates directly to `System`; the counter has no effect on
// the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.with(|n| n.set(n.get() + layout.size() as isize));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.with(|n| n.set(n.get() - layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.with(|n| n.set(n.get() + new_size as isize - layout.size() as isize));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn live_bytes() -> isize {
    LIVE_BYTES.with(Cell::get)
}

/// The first four calendar snapshots of 1 500 voters.
fn world() -> StoreSnapshot {
    let mut registry = Registry::new(GeneratorConfig {
        seed: 2021,
        initial_population: 1_500,
        ..Default::default()
    });
    let mut store = ClusterStore::new();
    for (i, info) in standard_calendar().iter().take(4).enumerate() {
        let snapshot = registry.generate_snapshot(info);
        import_snapshot(&mut store, &snapshot, DedupPolicy::Trimmed, i as u32 + 1);
    }
    StoreSnapshot::capture(&store, 4)
}

#[test]
fn a_catalog_row_costs_under_200_bytes() {
    let snapshot = world();
    let table = PairTable::build(snapshot.clusters(), &snapshot.entropy_scorer(Scope::All));
    let before = live_bytes();
    let catalog = ClusterCatalog::build_from(&snapshot, &table);
    let per_document = (live_bytes() - before) as usize / catalog.len();
    assert!(catalog.len() > 1_500);
    // 88 when written: 64 bytes of columns (size, two dates, nine error
    // counts as u32; het and plaus as f64) and six u32 permutations.
    assert!(
        per_document <= 200,
        "{per_document} bytes per catalog document"
    );
}
