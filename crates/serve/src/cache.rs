//! A bounded LRU cache for carve results, keyed by md5 fingerprints.
//!
//! Carving is deterministic — the same `(version, params)` always
//! produces the same dataset — so the cache can hand out shared
//! `Arc`s of previously carved results and a warm request skips the
//! cluster scan entirely. The cache is bounded: inserting beyond
//! capacity evicts the least-recently-used entry. Hit, miss and
//! eviction counters are lock-free atomics exported via `/metrics`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use nc_core::md5::Digest;

/// Point-in-time counter snapshot of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum resident entries (0 disables the cache).
    pub capacity: usize,
}

#[derive(Debug)]
struct LruInner<V> {
    /// key → (last-use tick, tag, value).
    map: HashMap<Digest, (u64, u64, Arc<V>)>,
    /// Monotonic use counter; higher = more recently used.
    tick: u64,
}

/// A thread-safe, bounded least-recently-used cache.
///
/// Recency is tracked with a monotonic tick per entry; eviction scans
/// for the minimum tick. The scan is O(capacity), which is fine for
/// the intended capacities (tens of carve results, each worth an
/// entire cluster scan).
#[derive(Debug)]
pub struct LruCache<V> {
    capacity: usize,
    inner: Mutex<LruInner<V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<V> LruCache<V> {
    /// Create a cache holding at most `capacity` entries. A capacity of
    /// 0 disables caching: every lookup misses and inserts are dropped.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            inner: Mutex::new(LruInner {
                map: HashMap::new(),
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Look up a key, bumping its recency on a hit.
    pub fn get(&self, key: &Digest) -> Option<Arc<V>> {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some((stamp, _, value)) => {
                *stamp = tick;
                let value = Arc::clone(value);
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            None => {
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert a value with tag 0, evicting the least-recently-used
    /// entry when the cache is full and the key is new. Re-inserting an
    /// existing key replaces its value and bumps recency without
    /// evicting.
    pub fn insert(&self, key: Digest, value: Arc<V>) {
        self.insert_tagged(key, 0, value);
    }

    /// [`LruCache::insert`] with an explicit tag. Tags carry
    /// caller-defined grouping (the carve cache tags every entry with
    /// the snapshot version it was carved against) and drive
    /// [`LruCache::retain`]-based invalidation.
    pub fn insert_tagged(&self, key: Digest, tag: u64, value: Arc<V>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.map.contains_key(&key) && inner.map.len() >= self.capacity {
            // Evict the stalest entry (minimum tick; key order breaks
            // exact ties deterministically — only reachable when two
            // entries share a tick, which the monotonic counter rules
            // out, but the tiebreak keeps eviction fully deterministic).
            if let Some(stale) = inner
                .map
                .iter()
                .min_by_key(|(k, (stamp, _, _))| (*stamp, **k))
                .map(|(k, _)| *k)
            {
                inner.map.remove(&stale);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.map.insert(key, (tick, tag, value));
    }

    /// Snapshot of the resident entries as `(tag, value)` pairs, in
    /// deterministic key order. Used by publish-time reconciliation to
    /// find entries worth carrying forward to a new version.
    pub fn entries(&self) -> Vec<(u64, Arc<V>)> {
        let inner = self.inner.lock().expect("cache lock");
        let mut items: Vec<(Digest, u64, Arc<V>)> = inner
            .map
            .iter()
            .map(|(k, (_, tag, v))| (*k, *tag, Arc::clone(v)))
            .collect();
        items.sort_by_key(|(k, _, _)| *k);
        items.into_iter().map(|(_, tag, v)| (tag, v)).collect()
    }

    /// Drop every entry whose `(tag, value)` fails the predicate,
    /// returning how many were dropped. Unlike capacity evictions these
    /// are *invalidations*: they do not increment the eviction counter,
    /// so the two causes stay distinguishable in metrics. The dropped
    /// values are freed after the lock is released — a swept entry may
    /// be the last reference to a whole rendered carve.
    pub fn retain<F>(&self, keep: F) -> u64
    where
        F: Fn(u64, &V) -> bool,
    {
        let mut inner = self.inner.lock().expect("cache lock");
        let dead: Vec<Digest> = inner
            .map
            .iter()
            .filter(|(_, (_, tag, v))| !keep(*tag, v))
            .map(|(k, _)| *k)
            .collect();
        let dropped: Vec<_> = dead.iter().filter_map(|k| inner.map.remove(k)).collect();
        drop(inner);
        dropped.len() as u64
    }

    /// Current counter values.
    pub fn stats(&self) -> CacheStats {
        let entries = self.inner.lock().expect("cache lock").map.len();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_core::md5::md5;

    fn key(s: &str) -> Digest {
        md5(s.as_bytes())
    }

    #[test]
    fn hit_miss_and_eviction_counters() {
        let cache: LruCache<String> = LruCache::new(2);
        assert!(cache.get(&key("a")).is_none());
        cache.insert(key("a"), Arc::new("A".into()));
        cache.insert(key("b"), Arc::new("B".into()));
        assert_eq!(*cache.get(&key("a")).unwrap(), "A");
        // "b" is now least recently used; inserting "c" evicts it.
        cache.insert(key("c"), Arc::new("C".into()));
        assert!(cache.get(&key("b")).is_none());
        assert_eq!(*cache.get(&key("a")).unwrap(), "A");
        assert_eq!(*cache.get(&key("c")).unwrap(), "C");

        let stats = cache.stats();
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.capacity, 2);
    }

    #[test]
    fn reinserting_existing_key_does_not_evict() {
        let cache: LruCache<u32> = LruCache::new(2);
        cache.insert(key("a"), Arc::new(1));
        cache.insert(key("b"), Arc::new(2));
        cache.insert(key("a"), Arc::new(3));
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(*cache.get(&key("a")).unwrap(), 3);
        assert_eq!(*cache.get(&key("b")).unwrap(), 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache: LruCache<u32> = LruCache::new(0);
        cache.insert(key("a"), Arc::new(1));
        assert!(cache.get(&key("a")).is_none());
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn tags_drive_retain_and_entries() {
        let cache: LruCache<String> = LruCache::new(8);
        cache.insert_tagged(key("a"), 1, Arc::new("A".into()));
        cache.insert_tagged(key("b"), 1, Arc::new("B".into()));
        cache.insert_tagged(key("c"), 2, Arc::new("C".into()));

        let entries = cache.entries();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries.iter().filter(|(tag, _)| *tag == 1).count(), 2);

        // Invalidate everything tagged 1.
        let dropped = cache.retain(|tag, _| tag != 1);
        assert_eq!(dropped, 2);
        assert!(cache.get(&key("a")).is_none());
        assert_eq!(*cache.get(&key("c")).unwrap(), "C");
        // Invalidations are not capacity evictions.
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn shared_access_from_threads() {
        let cache: Arc<LruCache<u64>> = Arc::new(LruCache::new(8));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..50u64 {
                        let k = key(&format!("k{}", i % 6));
                        if cache.get(&k).is_none() {
                            cache.insert(k, Arc::new(t * 1000 + i));
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 200);
        assert!(stats.entries <= 8);
    }
}
