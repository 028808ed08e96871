//! Versioned snapshot publication and lock-free snapshot reads.
//!
//! A [`ServeSnapshot`] bundles an immutable
//! [`nc_core::snapshot::StoreSnapshot`] with the entropy-weighted
//! heterogeneity scorer derived from it (one record per cluster, as the
//! paper prescribes), so every carve against the same version uses the
//! same weights. The [`SnapshotRegistry`] holds the current snapshot
//! behind an `Arc` that is *swapped* on publish: readers take a brief
//! read lock only to clone the `Arc`, then carve against the pinned,
//! immutable data with no lock held — a publish never blocks or
//! invalidates an in-flight carve.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

use nc_core::cluster::ClusterStore;
use nc_core::customize::{CustomDataset, CustomizeParams};
use nc_core::heterogeneity::{HeterogeneityScorer, Scope};
use nc_core::snapshot::StoreSnapshot;
use nc_query::ClusterCatalog;

/// An immutable snapshot ready to serve carve requests.
#[derive(Debug)]
pub struct ServeSnapshot {
    store: StoreSnapshot,
    scorer: HeterogeneityScorer,
    /// The query catalog, built lazily on the first carve-by-query and
    /// shared by every subsequent query against this version.
    catalog: OnceLock<Arc<ClusterCatalog>>,
}

impl ServeSnapshot {
    /// Wrap a captured store snapshot, deriving its entropy scorer
    /// (deterministic for a given snapshot).
    pub fn new(store: StoreSnapshot) -> Self {
        let scorer = store.entropy_scorer(Scope::Person);
        ServeSnapshot {
            store,
            scorer,
            catalog: OnceLock::new(),
        }
    }

    /// Capture the current contents of a store under `version` and wrap
    /// them (convenience for [`StoreSnapshot::capture`] + [`Self::new`]).
    pub fn capture(store: &ClusterStore, version: u32) -> Self {
        Self::new(StoreSnapshot::capture(store, version))
    }

    /// The pinned version identifier.
    pub fn version(&self) -> u32 {
        self.store.version()
    }

    /// Number of clusters in the snapshot.
    pub fn cluster_count(&self) -> usize {
        self.store.cluster_count()
    }

    /// Number of records in the snapshot.
    pub fn record_count(&self) -> u64 {
        self.store.record_count()
    }

    /// The underlying store snapshot.
    pub fn store(&self) -> &StoreSnapshot {
        &self.store
    }

    /// The snapshot's entropy-weighted scorer.
    pub fn scorer(&self) -> &HeterogeneityScorer {
        &self.scorer
    }

    /// The cluster catalog query pipelines run against: seeded at
    /// publish when it could be carried forward from the previous
    /// version (see [`crate::carve::CarveEngine::publish`]), otherwise
    /// built on first use (one scoring pass over the snapshot). Cached
    /// for the snapshot's lifetime and valid only for this snapshot —
    /// the catalog's heterogeneity values depend on this version's
    /// entropy weights.
    pub fn catalog(&self) -> &Arc<ClusterCatalog> {
        self.catalog_or_build(|| {})
    }

    /// [`ServeSnapshot::catalog`], calling `on_build` first when this
    /// call is the one that runs the full build.
    pub(crate) fn catalog_or_build(&self, on_build: impl FnOnce()) -> &Arc<ClusterCatalog> {
        self.catalog.get_or_init(|| {
            on_build();
            Arc::new(ClusterCatalog::build(&self.store, &self.scorer))
        })
    }

    /// The catalog, if it has been seeded or built already.
    pub(crate) fn built_catalog(&self) -> Option<&Arc<ClusterCatalog>> {
        self.catalog.get()
    }

    /// Install a catalog derived elsewhere; a no-op when one exists.
    pub(crate) fn seed_catalog(&self, catalog: ClusterCatalog) {
        let _ = self.catalog.set(Arc::new(catalog));
    }

    /// Carve a customized dataset out of this snapshot. Pure function
    /// of `(snapshot, params)`; bit-identical to
    /// [`nc_core::customize::customize`] on the source store.
    pub fn carve(&self, params: &CustomizeParams) -> CustomDataset {
        self.store.customize(&self.scorer, params)
    }
}

/// The cluster-level difference between two consecutively published
/// versions, derived from the shard WAL by the change stream
/// (`nc-stream`) and threaded through publishes so downstream caches
/// invalidate *only* what actually changed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PublishDelta {
    /// The version this delta publishes (the transition's target).
    pub version: u32,
    /// Date label of the last source snapshot folded in (informational).
    pub date: String,
    /// Trimmed NCIDs of clusters founded since the previous version,
    /// first-seen order.
    pub founded: Vec<String>,
    /// Trimmed NCIDs of pre-existing clusters whose WAL rows changed
    /// since the previous version, first-seen order. Conservative:
    /// includes clusters whose new rows were all duplicate-dropped.
    pub revised: Vec<String>,
}

impl PublishDelta {
    /// Every dirty cluster id (founded then revised), for incremental
    /// re-scoring.
    pub fn dirty_clusters(&self) -> impl Iterator<Item = &str> {
        self.founded
            .iter()
            .chain(self.revised.iter())
            .map(String::as_str)
    }

    /// True when nothing changed between the two versions.
    pub fn is_empty(&self) -> bool {
        self.founded.is_empty() && self.revised.is_empty()
    }
}

/// What a [`SnapshotRegistry::publish_with_delta`] did, for callers
/// that reconcile downstream state (the carve cache).
#[derive(Debug)]
pub struct PublishOutcome {
    /// The newly current snapshot.
    pub snapshot: Arc<ServeSnapshot>,
    /// The version that was current before this publish.
    pub previous_version: u32,
    /// Versions evicted from history by the retention limit.
    pub evicted: Vec<u32>,
}

/// The set of published snapshots: one *current* version plus a history
/// of still-pinnable older versions.
///
/// Lock poisoning is tolerated on every path: the guarded data is a
/// pair of `Arc`s whose every mutation is a single assignment, so a
/// panic between lock and unlock cannot leave it half-updated, and a
/// registry shared with a panicking worker keeps serving.
#[derive(Debug)]
pub struct SnapshotRegistry {
    inner: RwLock<Inner>,
    /// Maximum number of versions kept pinnable (0 = unlimited). The
    /// current version is never evicted.
    history_limit: usize,
}

#[derive(Debug)]
struct Inner {
    current: Arc<ServeSnapshot>,
    history: BTreeMap<u32, Arc<ServeSnapshot>>,
    /// Per-version publish deltas, for `/watch` and cache
    /// reconciliation. A version published without a delta leaves a
    /// gap here, which `watch_since` reports honestly.
    deltas: BTreeMap<u32, Arc<PublishDelta>>,
}

impl SnapshotRegistry {
    /// Create a registry serving `initial` as the current version, with
    /// unlimited version retention.
    pub fn new(initial: ServeSnapshot) -> Self {
        Self::with_retention(initial, 0)
    }

    /// Create a registry keeping at most `history_limit` versions
    /// pinnable (`0` = unlimited). Older versions are evicted on
    /// publish, oldest first; the current version always survives.
    pub fn with_retention(initial: ServeSnapshot, history_limit: usize) -> Self {
        let current = Arc::new(initial);
        let mut history = BTreeMap::new();
        history.insert(current.version(), Arc::clone(&current));
        SnapshotRegistry {
            inner: RwLock::new(Inner {
                current,
                history,
                deltas: BTreeMap::new(),
            }),
            history_limit,
        }
    }

    /// Publish a new snapshot: it becomes the current version and stays
    /// addressable by its version number. In-flight carves against the
    /// previous snapshot are unaffected — they hold their own `Arc`.
    pub fn publish(&self, snapshot: ServeSnapshot) -> Arc<ServeSnapshot> {
        self.publish_with_delta(snapshot, None).snapshot
    }

    /// Publish a new snapshot together with the cluster-level delta
    /// that produced it. The delta is retained (keyed by the new
    /// version) for `/watch` subscribers and cache reconciliation, and
    /// the retention limit evicts the oldest versions (and their
    /// deltas) beyond `history_limit`.
    pub fn publish_with_delta(
        &self,
        snapshot: ServeSnapshot,
        delta: Option<PublishDelta>,
    ) -> PublishOutcome {
        let snapshot = Arc::new(snapshot);
        // Whatever this publish unpins may be the last reference to a
        // full store copy and its catalog; it is freed after the guard
        // is released so no `current()` / `pinned()` reader waits on it.
        let mut retired: Vec<Arc<ServeSnapshot>> = Vec::new();
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        let previous_version = inner.current.version();
        retired.extend(inner.history.insert(snapshot.version(), Arc::clone(&snapshot)));
        retired.push(std::mem::replace(&mut inner.current, Arc::clone(&snapshot)));
        if let Some(delta) = delta {
            inner.deltas.insert(snapshot.version(), Arc::new(delta));
        }
        let mut evicted = Vec::new();
        if self.history_limit > 0 {
            let current_version = snapshot.version();
            while inner.history.len() > self.history_limit {
                let Some((&oldest, _)) = inner.history.iter().next() else {
                    break;
                };
                if oldest == current_version {
                    break; // never evict the current version
                }
                retired.extend(inner.history.remove(&oldest));
                inner.deltas.remove(&oldest);
                evicted.push(oldest);
            }
        }
        drop(inner);
        drop(retired);
        PublishOutcome {
            snapshot,
            previous_version,
            evicted,
        }
    }

    /// The current snapshot (brief read lock, then lock-free use).
    pub fn current(&self) -> Arc<ServeSnapshot> {
        Arc::clone(&self.inner.read().unwrap_or_else(PoisonError::into_inner).current)
    }

    /// The snapshot for `version`, or the current one when `None`.
    /// Returns `None` for versions that were never published here.
    pub fn pinned(&self, version: Option<u32>) -> Option<Arc<ServeSnapshot>> {
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        match version {
            None => Some(Arc::clone(&inner.current)),
            Some(v) => inner.history.get(&v).map(Arc::clone),
        }
    }

    /// The published version numbers, ascending.
    pub fn versions(&self) -> Vec<u32> {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .history
            .keys()
            .copied()
            .collect()
    }

    /// The delta window a `/watch` subscriber at version `from` needs
    /// to catch up to the current version.
    ///
    /// The window is *complete* only when a recorded delta exists for
    /// every version in `from+1 ..= current`; any hole (a version
    /// published without a delta, a delta evicted by retention, or a
    /// cursor predating this registry) flips `gap` and empties the
    /// delta list, because a partial delta chain cannot be applied
    /// soundly — the client must re-fetch a full carve instead.
    pub fn watch_since(&self, from: u32) -> WatchWindow {
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        let current = inner.current.version();
        let mut deltas = Vec::new();
        let mut gap = false;
        let mut v = from;
        while v < current {
            v += 1;
            match inner.deltas.get(&v) {
                Some(delta) => deltas.push(Arc::clone(delta)),
                None => {
                    gap = true;
                    deltas.clear();
                    break;
                }
            }
        }
        WatchWindow {
            current,
            deltas,
            gap,
        }
    }
}

/// The answer to [`SnapshotRegistry::watch_since`].
#[derive(Debug)]
pub struct WatchWindow {
    /// The currently published version.
    pub current: u32,
    /// Deltas for versions `from+1 ..= current`, ascending; empty when
    /// the subscriber is already current or when `gap` is set.
    pub deltas: Vec<Arc<PublishDelta>>,
    /// True when the recorded delta chain does not reach back to
    /// `from`; the subscriber must re-fetch a full carve.
    pub gap: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_core::record::DedupPolicy;
    use nc_votergen::schema::{FIRST_NAME, LAST_NAME, NCID, Row};

    fn store(tag: &str, n: usize) -> ClusterStore {
        let mut store = ClusterStore::new();
        for i in 0..n {
            let mut r = Row::empty();
            r.set(NCID, format!("{tag}{i}"));
            r.set(FIRST_NAME, "PAT");
            r.set(LAST_NAME, format!("SMITH{i}"));
            store.import_row(r, DedupPolicy::Trimmed, "s1", 1);
        }
        store
    }

    #[test]
    fn publish_swaps_current_and_keeps_history() {
        let registry = SnapshotRegistry::new(ServeSnapshot::capture(&store("A", 3), 1));
        assert_eq!(registry.current().version(), 1);

        let old = registry.current();
        registry.publish(ServeSnapshot::capture(&store("B", 5), 2));
        assert_eq!(registry.current().version(), 2);
        assert_eq!(registry.versions(), vec![1, 2]);

        // The old Arc still reads the old data.
        assert_eq!(old.cluster_count(), 3);
        assert_eq!(registry.pinned(Some(1)).unwrap().cluster_count(), 3);
        assert_eq!(registry.pinned(Some(2)).unwrap().cluster_count(), 5);
        assert_eq!(registry.pinned(None).unwrap().version(), 2);
        assert!(registry.pinned(Some(9)).is_none());
    }

    fn delta(version: u32, founded: &[&str], revised: &[&str]) -> PublishDelta {
        PublishDelta {
            version,
            date: format!("d{version}"),
            founded: founded.iter().map(|s| s.to_string()).collect(),
            revised: revised.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn retention_evicts_oldest_versions_but_never_current() {
        let registry =
            SnapshotRegistry::with_retention(ServeSnapshot::capture(&store("A", 2), 1), 2);
        let v1 = Arc::downgrade(&registry.current());
        let out2 = registry
            .publish_with_delta(ServeSnapshot::capture(&store("B", 2), 2), Some(delta(2, &[], &[])));
        assert_eq!(out2.previous_version, 1);
        assert!(out2.evicted.is_empty());
        let out3 = registry
            .publish_with_delta(ServeSnapshot::capture(&store("C", 2), 3), Some(delta(3, &[], &[])));
        assert_eq!(out3.evicted, vec![1]);
        assert_eq!(registry.versions(), vec![2, 3]);
        assert!(registry.pinned(Some(1)).is_none(), "evicted version is gone");
        assert!(v1.upgrade().is_none(), "and freed by the publish that evicted it");
        assert_eq!(registry.current().version(), 3);
    }

    #[test]
    fn watch_since_returns_complete_windows_or_reports_gaps() {
        let registry = SnapshotRegistry::new(ServeSnapshot::capture(&store("A", 2), 1));
        registry.publish_with_delta(
            ServeSnapshot::capture(&store("B", 2), 2),
            Some(delta(2, &["N1"], &["A0"])),
        );
        registry.publish_with_delta(
            ServeSnapshot::capture(&store("C", 2), 3),
            Some(delta(3, &[], &["A1"])),
        );

        let w = registry.watch_since(1);
        assert!(!w.gap);
        assert_eq!(w.current, 3);
        assert_eq!(w.deltas.len(), 2);
        assert_eq!(w.deltas[0].version, 2);
        assert_eq!(w.deltas[0].founded, vec!["N1".to_string()]);
        assert_eq!(w.deltas[1].version, 3);

        // Already current: empty window, no gap.
        let w3 = registry.watch_since(3);
        assert!(!w3.gap && w3.deltas.is_empty());

        // A cursor predating the registry's first version hits the
        // missing delta for version 1 and reports a gap.
        let w0 = registry.watch_since(0);
        assert!(w0.gap && w0.deltas.is_empty());

        // A publish without a delta punches a hole in later windows.
        registry.publish(ServeSnapshot::capture(&store("D", 2), 4));
        let w = registry.watch_since(2);
        assert!(w.gap);
        assert_eq!(w.current, 4);
    }

    #[test]
    fn carve_is_deterministic_per_snapshot() {
        let snap = ServeSnapshot::capture(&store("A", 6), 1);
        let params = CustomizeParams::nc3(4, 4, 7);
        let a = snap.carve(&params);
        let b = snap.carve(&params);
        assert_eq!(a.clusters.len(), b.clusters.len());
        for (x, y) in a.clusters.iter().zip(&b.clusters) {
            assert_eq!(x.ncid, y.ncid);
            assert_eq!(x.records.len(), y.records.len());
        }
    }
}
