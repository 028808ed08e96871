//! Micro-benchmark of the `StoreSnapshot::capture_version` fast path:
//! when the requested version is the current one (and no unpublished
//! rows exist), capture skips `VersionManager::reconstruct` and its
//! per-cluster re-collect allocations entirely.
//!
//! Besides the timing groups, the harness counts global-allocator
//! calls for one capture on each path and prints the difference, so
//! the allocation claim is measured, not inferred. (Measured result:
//! row materialization dominates and the naive filter re-collects in
//! place, so the fast path saves bookkeeping work far more than it
//! saves allocations.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use nc_core::cluster::ClusterStore;
use nc_core::import::ImportStats;
use nc_core::record::DedupPolicy;
use nc_core::snapshot::StoreSnapshot;
use nc_core::version::VersionManager;
use nc_votergen::schema::{Row, FIRST_NAME, LAST_NAME, NCID};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// System allocator with an allocation counter; benches only, so the
/// workspace's `forbid(unsafe_code)` library policy is untouched.
struct CountingAllocator;

// SAFETY: delegates directly to `System`; the counter has no effect on
// the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let value = f();
    (value, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// A two-version store with `clusters` clusters of three records each:
/// two imported at version 1, one at version 2.
fn sample_store(clusters: usize) -> (ClusterStore, VersionManager) {
    let mut store = ClusterStore::new();
    let mut versions = VersionManager::new();
    let import = |store: &mut ClusterStore, i: usize, last: &str, snap: &str, version| {
        let mut row = Row::empty();
        row.set(NCID, format!("VB{i:06}"));
        row.set(FIRST_NAME, "QUINN");
        row.set(LAST_NAME, last);
        store.import_row(row, DedupPolicy::Trimmed, snap, version);
    };
    let stats = |date: &str| ImportStats {
        date: date.into(),
        total_rows: 0,
        new_records: 0,
        new_clusters: 0,
        quarantined: 0,
    };
    for i in 0..clusters {
        import(&mut store, i, "ALPHA", "s1", 1);
        import(&mut store, i, "ALPHB", "s1", 1);
    }
    versions.publish(&store, std::slice::from_ref(&stats("s1")));
    for i in 0..clusters {
        import(&mut store, i, "BRAVO", "s2", 2);
    }
    versions.publish(&store, std::slice::from_ref(&stats("s2")));
    (store, versions)
}

/// The pre-fast-path behavior: version-filter and re-collect every
/// cluster, no shortcuts — the baseline both the `capture_version`
/// fast path and `reconstruct`'s all-qualifying shortcut improve on.
fn naive_reconstruct(
    store: &ClusterStore,
    versions: &VersionManager,
    version: u32,
) -> StoreSnapshot {
    let _ = versions;
    let mut out = Vec::new();
    for (ncid, rows) in store.iter_clusters() {
        let record_versions = store.record_versions(ncid).expect("version info");
        let kept: Vec<Row> = rows
            .iter()
            .zip(record_versions)
            .filter(|(_, &v)| v <= version)
            .map(|(r, _)| r.clone())
            .collect();
        if !kept.is_empty() {
            out.push((ncid.to_owned(), kept));
        }
    }
    StoreSnapshot::from_clusters(version, out)
}

fn bench_capture_version(c: &mut Criterion) {
    let (store, versions) = sample_store(4_000);
    let current = versions.current().unwrap().number;

    // All three routes to the current version must agree before any is
    // worth timing.
    let (fast, fast_allocs) = allocations_during(|| {
        StoreSnapshot::capture_version(&store, &versions, current).unwrap()
    });
    let (slow, slow_allocs) = allocations_during(|| {
        StoreSnapshot::from_clusters(current, versions.reconstruct(&store, current))
    });
    let (naive, naive_allocs) =
        allocations_during(|| naive_reconstruct(&store, &versions, current));
    assert_eq!(fast.clusters(), slow.clusters());
    assert_eq!(fast.clusters(), naive.clusters());
    assert_eq!(fast.record_count(), slow.record_count());
    // Row materialization dominates the allocation profile on every
    // path, and the naive re-collect's `into_iter().filter().collect()`
    // collects in place — so the fast path's allocation saving is
    // small; its real win is skipping the per-cluster version
    // bookkeeping. The counter keeps that claim measured instead of
    // assumed.
    assert!(
        fast_allocs <= naive_allocs,
        "fast path must not allocate more than a naive re-collect \
         ({fast_allocs} vs {naive_allocs})"
    );
    assert!(
        fast_allocs <= slow_allocs,
        "fast path must not allocate more than reconstruct \
         ({fast_allocs} vs {slow_allocs})"
    );
    println!(
        "capture_version allocations at current version: fast path {fast_allocs}, \
         reconstruct {slow_allocs}, naive re-collect {naive_allocs} \
         ({} saved vs naive)",
        naive_allocs - fast_allocs
    );

    let mut group = c.benchmark_group("capture_version");
    group.sample_size(20);
    group.bench_function("fast_path_current", |b| {
        b.iter(|| {
            black_box(StoreSnapshot::capture_version(&store, &versions, black_box(current)).unwrap())
        })
    });
    group.bench_function("reconstruct_current", |b| {
        b.iter(|| {
            black_box(StoreSnapshot::from_clusters(
                current,
                versions.reconstruct(&store, black_box(current)),
            ))
        })
    });
    group.bench_function("naive_recollect_current", |b| {
        b.iter(|| black_box(naive_reconstruct(&store, &versions, black_box(current))))
    });
    // The slow path stays the only way to see the past; time it too so
    // a regression there is visible alongside the fast-path win.
    group.bench_function("reconstruct_past", |b| {
        b.iter(|| {
            black_box(StoreSnapshot::capture_version(&store, &versions, black_box(1)).unwrap())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_capture_version);
criterion_main!(benches);
