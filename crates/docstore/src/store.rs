//! A thread-safe container of named collections.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, PoisonError, RwLock};

use crate::collection::Collection;
use crate::persist::{self, PersistError, SalvageReport};

/// A database: a set of named [`Collection`]s behind reader/writer locks.
///
/// Collections are created lazily on first access. Each collection has
/// its own lock so that independent collections can be written in
/// parallel (the paper's update process imports several snapshots
/// concurrently).
///
/// The store's own methods recover a poisoned lock instead of failing:
/// a writer that panicked leaves its collection as far as it got, and
/// one lost writer must not wedge `save_all` and every later reader.
/// Callers locking a [`DocStore::collection`] handle themselves choose
/// per call site (`unwrap`, or `PoisonError::into_inner`).
#[derive(Debug, Default)]
pub struct DocStore {
    collections: RwLock<HashMap<String, Arc<RwLock<Collection>>>>,
}

impl DocStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get (or create) the collection with the given name.
    pub fn collection(&self, name: &str) -> Arc<RwLock<Collection>> {
        let map = self.collections.read().unwrap_or_else(PoisonError::into_inner);
        if let Some(c) = map.get(name) {
            return Arc::clone(c);
        }
        drop(map);
        let mut map = self.collections.write().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(
            map.entry(name.to_owned())
                .or_insert_with(|| Arc::new(RwLock::new(Collection::new(name)))),
        )
    }

    /// Names of all existing collections, sorted.
    pub fn collection_names(&self) -> Vec<String> {
        let map = self.collections.read().unwrap_or_else(PoisonError::into_inner);
        let mut names: Vec<String> = map.keys().cloned().collect();
        names.sort();
        names
    }

    /// Drop a collection. Returns `true` if it existed.
    pub fn drop_collection(&self, name: &str) -> bool {
        let mut map = self.collections.write().unwrap_or_else(PoisonError::into_inner);
        map.remove(name).is_some()
    }

    /// Persist every collection into `dir` as `<name>.jsonl`.
    ///
    /// Crash-safe end to end: each file is saved atomically
    /// (temp + fsync + rename), and after the batch of renames the
    /// directory itself is fsynced once more so that none of the
    /// renames can be lost to a crash — `save` syncs the directory per
    /// file, but a directory entry written between two saves could
    /// otherwise still be sitting in a dirty directory block when the
    /// last save returns.
    pub fn save_all(&self, dir: &Path) -> Result<(), PersistError> {
        std::fs::create_dir_all(dir)?;
        for name in self.collection_names() {
            let coll = self.collection(&name);
            let coll = coll.read().unwrap_or_else(PoisonError::into_inner);
            persist::save(&coll, &dir.join(format!("{name}.jsonl")))?;
        }
        persist::sync_dir(dir)?;
        Ok(())
    }

    /// Load every `*.jsonl` file in `dir` as a collection.
    ///
    /// Loading is strict: a single damaged file fails the whole load.
    /// Use [`DocStore::salvage_all`] to recover what is intact instead.
    pub fn load_all(dir: &Path) -> Result<Self, PersistError> {
        let mut map = HashMap::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let path = entry.path();
            if path.extension().is_some_and(|e| e == "jsonl") {
                let name = path
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or("unnamed")
                    .to_owned();
                let coll = persist::load(&name, &path)?;
                map.insert(name, Arc::new(RwLock::new(coll)));
            }
        }
        Ok(DocStore { collections: RwLock::new(map) })
    }

    /// Salvage every `*.jsonl` file in `dir`: each collection keeps its
    /// intact prefix, and the per-collection [`SalvageReport`]s say
    /// exactly what (if anything) was dropped. Only failing to read the
    /// directory or a file at all is an error.
    pub fn salvage_all(dir: &Path) -> Result<(Self, Vec<(String, SalvageReport)>), PersistError> {
        let mut map = HashMap::new();
        let mut reports = Vec::new();
        let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|e| e == "jsonl"))
            .collect();
        files.sort();
        for path in files {
            let name = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("unnamed")
                .to_owned();
            let salvage = persist::salvage(&name, &path)?;
            reports.push((name.clone(), salvage.report));
            map.insert(name, Arc::new(RwLock::new(salvage.collection)));
        }
        Ok((DocStore { collections: RwLock::new(map) }, reports))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;
    use crate::query::Filter;

    #[test]
    fn lazily_creates_collections() {
        let store = DocStore::new();
        assert!(store.collection_names().is_empty());
        store.collection("a").write().unwrap().insert(doc! { "x" => 1_i64 });
        store.collection("b");
        assert_eq!(store.collection_names(), vec!["a", "b"]);
    }

    #[test]
    fn collection_handles_are_shared() {
        let store = DocStore::new();
        let h1 = store.collection("shared");
        let h2 = store.collection("shared");
        h1.write().unwrap().insert(doc! { "x" => 1_i64 });
        assert_eq!(h2.read().unwrap().len(), 1);
    }

    #[test]
    fn drop_collection_works() {
        let store = DocStore::new();
        store.collection("gone");
        assert!(store.drop_collection("gone"));
        assert!(!store.drop_collection("gone"));
    }

    #[test]
    fn concurrent_writes_to_distinct_collections() {
        let store = Arc::new(DocStore::new());
        let mut handles = Vec::new();
        for i in 0..4 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                let coll = store.collection(&format!("c{i}"));
                for j in 0..100_i64 {
                    coll.write().unwrap().insert(doc! { "j" => j });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for i in 0..4 {
            assert_eq!(store.collection(&format!("c{i}")).read().unwrap().len(), 100);
        }
    }

    #[test]
    fn save_and_load_all() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("nc_docstore_store_{}", std::process::id()));
        let store = DocStore::new();
        store.collection("x").write().unwrap().insert(doc! { "v" => "one" });
        store.collection("y").write().unwrap().insert(doc! { "v" => "two" });
        store.save_all(&dir).unwrap();

        let loaded = DocStore::load_all(&dir).unwrap();
        assert_eq!(loaded.collection_names(), vec!["x", "y"]);
        let y = loaded.collection("y");
        let y = y.read().unwrap();
        assert!(y.find_one(&Filter::eq("v", "two")).is_some());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn salvage_all_recovers_intact_collections() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("nc_docstore_salvage_{}", std::process::id()));
        let store = DocStore::new();
        store.collection("ok").write().unwrap().insert(doc! { "v" => "fine" });
        store.collection("hurt").write().unwrap().insert(doc! { "v" => "gone" });
        store.save_all(&dir).unwrap();

        // Tear the second collection's file mid-line.
        let hurt = dir.join("hurt.jsonl");
        let bytes = std::fs::read(&hurt).unwrap();
        std::fs::write(&hurt, &bytes[..bytes.len() / 2]).unwrap();

        assert!(DocStore::load_all(&dir).is_err(), "strict load must fail");
        let (salvaged, reports) = DocStore::salvage_all(&dir).unwrap();
        assert_eq!(salvaged.collection_names(), vec!["hurt", "ok"]);
        let by_name: HashMap<_, _> = reports.into_iter().collect();
        assert!(by_name["ok"].is_clean());
        assert!(!by_name["hurt"].is_clean());
        assert_eq!(salvaged.collection("ok").read().unwrap().len(), 1);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A writer that panics while holding a collection's write lock
    /// poisons it; the store keeps reading, saving and salvaging what
    /// the writer had completed.
    #[test]
    fn a_panicking_writer_does_not_wedge_the_store() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("nc_docstore_poison_{}", std::process::id()));
        let store = DocStore::new();
        store.collection("calm").write().unwrap().insert(doc! { "v" => "fine" });
        let writer = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let coll = store.collection("hit");
                let mut coll = coll.write().unwrap();
                coll.insert(doc! { "v" => "kept" });
                panic!("writer dies holding the lock");
            });
            writer.join()
        });
        assert!(writer.is_err());

        let hit = store.collection("hit");
        assert!(hit.read().is_err(), "std reports the poison to direct lockers");
        assert_eq!(hit.read().unwrap_or_else(PoisonError::into_inner).len(), 1);
        assert_eq!(store.collection_names(), vec!["calm", "hit"]);
        store.save_all(&dir).unwrap();
        let (salvaged, reports) = DocStore::salvage_all(&dir).unwrap();
        assert!(reports.iter().all(|(_, report)| report.is_clean()));
        assert_eq!(salvaged.collection("hit").read().unwrap().len(), 1);
        assert_eq!(salvaged.collection("calm").read().unwrap().len(), 1);
        assert!(store.drop_collection("hit"));
        std::fs::remove_dir_all(dir).unwrap();
    }
}
