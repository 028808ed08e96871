//! Footprint guard for [`ClusterStore`]: a stored record costs about
//! its packed [`Row`], and importing a row allocates a handful of
//! times, so a materialised document per record — ≈ 8 000 bytes and
//! ≈ 105 allocations when the store kept one — cannot come back
//! unnoticed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nc_core::cluster::{ClusterStore, RowOutcome};
use nc_core::import::{import_snapshot, ImportStats};
use nc_core::record::DedupPolicy;
use nc_core::snapshot::StoreSnapshot;
use nc_core::version::VersionManager;
use nc_votergen::config::GeneratorConfig;
use nc_votergen::registry::Registry;
use nc_votergen::schema::{Row, FIRST_NAME, LAST_NAME, NCID};
use nc_votergen::snapshot::{standard_calendar, Snapshot};

thread_local! {
    /// Allocations made by this thread (the harness' other threads
    /// allocate too, and must not be counted).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Requested bytes this thread holds: allocated minus freed.
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

/// System allocator with per-thread counters; test only, so the
/// library's `forbid(unsafe_code)` is untouched.
struct CountingAllocator;

// SAFETY: delegates directly to `System`; the counters have no effect
// on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        LIVE_BYTES.with(|n| n.set(n.get() + layout.size() as isize));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.with(|n| n.set(n.get() - layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        LIVE_BYTES.with(|n| n.set(n.get() + new_size as isize - layout.size() as isize));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn live_bytes() -> isize {
    LIVE_BYTES.with(Cell::get)
}

fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

/// The first calendar snapshots of the `s10k` benchmark scale.
fn calendar_snapshots(n: usize) -> Vec<Snapshot> {
    let mut registry = Registry::new(GeneratorConfig {
        seed: 2021,
        initial_population: 5_000,
        ..Default::default()
    });
    standard_calendar()
        .iter()
        .take(n)
        .map(|info| registry.generate_snapshot(info))
        .collect()
}

#[test]
fn a_stored_record_costs_about_its_row() {
    let snapshots = calendar_snapshots(8);
    let empty = live_bytes();
    let mut store = ClusterStore::new();
    for snapshot in &snapshots {
        import_snapshot(&mut store, snapshot, DedupPolicy::Trimmed, 1);
        // 827–898 when written: the 525-byte packed row, its meta data
        // and its share of the cluster and of the NCID table.
        let per_record = (live_bytes() - empty) as u64 / store.record_count();
        assert!(
            per_record <= 1_000,
            "{per_record} bytes per record after {}",
            snapshot.date
        );
    }
    assert!(store.record_count() > 9_000 && store.rows_imported() > 40_000);

    // The document view is derived and handed over: none of it stays.
    let stored = live_bytes();
    let view = store.to_collection();
    assert_eq!(view.len(), store.cluster_count());
    assert!(
        live_bytes() - stored > 8 * (stored - empty),
        "the view is the expensive form"
    );
    drop(view);
    assert_eq!(live_bytes(), stored);
}

/// Import every row of a snapshot; returns the rows kept and the
/// allocations made.
fn import_rows(store: &mut ClusterStore, snapshot: &Snapshot) -> (u64, u64) {
    allocations_during(|| {
        let kept = snapshot.rows.iter().filter(|row| {
            let outcome = store.import_row_ref(row, DedupPolicy::Trimmed, &snapshot.date, 1);
            outcome != RowOutcome::DuplicateDropped
        });
        kept.count() as u64
    })
}

#[test]
fn importing_a_row_allocates_a_handful_of_times() {
    let mut snapshot = calendar_snapshots(1).remove(0);
    let rows = snapshot.rows.len() as u64;
    let mut store = ClusterStore::new();

    // Founding a cluster (8.2 when written): the row, the NCID key and
    // six one-element vectors, plus the growth of the cluster list and
    // the NCID table.
    let (kept, n) = import_rows(&mut store, &snapshot);
    assert_eq!((kept, store.cluster_count() as u64), (rows, rows));
    assert!(n <= 9 * rows, "{n} allocations for {rows} founding rows");

    // A dropped duplicate allocates nothing in a snapshot its cluster
    // has seen, and grows two small vectors in the first new one.
    assert_eq!(import_rows(&mut store, &snapshot), (0, 0));
    snapshot.date = "2099-01-01".to_owned();
    let (kept, n) = import_rows(&mut store, &snapshot);
    assert_eq!(kept, 0);
    assert!(
        n <= 2 * rows + 1,
        "{n} allocations for {rows} duplicates in a new snapshot"
    );

    // A record joining a cluster (6.2 when written): the row, its
    // snapshot list and one step of growth in each per-record vector
    // (a row that has to be trimmed is trimmed within its allocation).
    for row in &mut snapshot.rows {
        row.set(LAST_NAME, "REVISED");
    }
    let (kept, n) = import_rows(&mut store, &snapshot);
    assert_eq!((kept, store.cluster_count() as u64), (rows, rows));
    assert!(n <= 7 * rows, "{n} allocations for {rows} joining rows");

    // A row handed over by value — WAL replay parses a log line into a
    // `Row` and gives it away — is the store's copy: the one allocation
    // of the parse, trimmed in place, plus one step of growth in each of
    // the five per-record vectors. No second copy.
    let lines: Vec<String> = snapshot
        .rows
        .iter_mut()
        .map(|row| {
            row.set(LAST_NAME, "  REVISED AGAIN ");
            row.to_tsv()
        })
        .collect();
    let (kept, n) = allocations_during(|| {
        let kept = lines.iter().filter(|line| {
            let row = Row::from_tsv(line).expect("a row's own line");
            store.import_row(row, DedupPolicy::Trimmed, &snapshot.date, 1) == RowOutcome::NewRecord
        });
        kept.count() as u64
    });
    assert_eq!(kept, rows);
    assert!(n <= (1 + 5) * rows, "{n} allocations for {rows} replayed joining rows");
    let stored = store.cluster_rows(snapshot.rows[0].ncid().trim());
    assert_eq!(stored.last().unwrap().get(LAST_NAME), "REVISED AGAIN");
}

/// Capturing the current version takes the fast path, which allocates
/// no more than [`VersionManager::reconstruct`] and no more than a
/// version filter re-collecting every cluster. (That the three routes
/// agree is `capture_version_fast_path_matches_reconstruction`.)
#[test]
fn capturing_the_current_version_allocates_no_more_than_rebuilding_it() {
    // Three records per cluster: two at version 1, one at version 2.
    let mut store = ClusterStore::new();
    let mut versions = VersionManager::new();
    for (version, lasts) in [(1, &["ALPHA", "ALPHB"][..]), (2, &["BRAVO"])] {
        let date = format!("s{version}");
        for last in lasts {
            for i in 0..2_000 {
                let mut row = Row::empty();
                row.set(NCID, format!("VB{i:06}"));
                row.set(FIRST_NAME, "QUINN");
                row.set(LAST_NAME, *last);
                store.import_row(row, DedupPolicy::Trimmed, &date, version);
            }
        }
        let stats = ImportStats {
            date,
            total_rows: 0,
            new_records: 0,
            new_clusters: 0,
            quarantined: 0,
        };
        versions.publish(&store, std::slice::from_ref(&stats));
    }
    let current = versions.current().unwrap().number;
    assert_eq!((current, store.record_count()), (2, 6_000));

    let (fast, fast_allocs) =
        allocations_during(|| StoreSnapshot::capture_version(&store, &versions, current).unwrap());
    let (_, rebuilt_allocs) = allocations_during(|| {
        StoreSnapshot::from_clusters(current, versions.reconstruct(&store, current))
    });
    let (naive, naive_allocs) = allocations_during(|| {
        let clusters = store.iter_clusters().map(|(ncid, rows)| {
            let kept = rows
                .iter()
                .zip(store.record_versions(ncid).expect("version info"))
                .filter(|(_, &v)| v <= current)
                .map(|(row, _)| row.clone());
            (ncid.to_owned(), kept.collect::<Vec<Row>>())
        });
        StoreSnapshot::from_clusters(current, clusters.collect())
    });
    assert_eq!(fast.clusters(), naive.clusters());
    assert!(
        fast_allocs <= rebuilt_allocs && fast_allocs <= naive_allocs,
        "fast path {fast_allocs}, reconstruct {rebuilt_allocs}, naive re-collect {naive_allocs}"
    );
}
