//! Secondary indexes over dotted paths.
//!
//! Two index kinds are supported: a hash index for equality lookups and
//! an ordered index for range scans. Index keys are the values found at
//! the indexed path; documents lacking the path are not indexed (sparse
//! semantics — essential for the voter data where most of the 90
//! attributes are missing in most records).

use std::collections::{BTreeMap, HashMap};

use crate::collection::DocId;
use crate::value::Value;

/// The kind of a secondary index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Hash index: O(1) equality lookups.
    Hash,
    /// Ordered index: range scans via a B-tree.
    Ordered,
}

/// An ordered key wrapper giving [`Value`] a total order for B-tree use.
#[derive(Debug, Clone)]
pub struct OrdKey(pub Value);

impl PartialEq for OrdKey {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == std::cmp::Ordering::Equal
    }
}
impl Eq for OrdKey {}
impl PartialOrd for OrdKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A secondary index instance. A posting list is a sorted `Vec` of
/// distinct ids: one `u64` per posting, kept in order by binary-search
/// insert and remove.
#[derive(Debug, Clone)]
pub enum Index {
    /// Hash-based equality index (buckets by stable hash; collisions
    /// resolved by `query_eq`).
    Hash {
        /// stable_hash(value) → (value, posting list) entries.
        buckets: HashMap<u64, Vec<(Value, Vec<DocId>)>>,
    },
    /// Ordered B-tree index.
    Ordered {
        /// value → posting list, ordered by `total_cmp`.
        tree: BTreeMap<OrdKey, Vec<DocId>>,
    },
}

impl Index {
    /// Create an empty index of the given kind.
    pub fn new(kind: IndexKind) -> Self {
        match kind {
            IndexKind::Hash => Index::Hash {
                buckets: HashMap::new(),
            },
            IndexKind::Ordered => Index::Ordered {
                tree: BTreeMap::new(),
            },
        }
    }

    /// The index kind.
    pub fn kind(&self) -> IndexKind {
        match self {
            Index::Hash { .. } => IndexKind::Hash,
            Index::Ordered { .. } => IndexKind::Ordered,
        }
    }

    /// Add a (value, doc) posting.
    pub fn insert(&mut self, value: &Value, id: DocId) {
        match self {
            Index::Hash { buckets } => {
                let h = value.stable_hash();
                let bucket = buckets.entry(h).or_default();
                if let Some((_, ids)) = bucket.iter_mut().find(|(v, _)| v.query_eq(value)) {
                    insert_posting(ids, id);
                } else {
                    bucket.push((value.clone(), vec![id]));
                }
            }
            Index::Ordered { tree } => {
                insert_posting(tree.entry(OrdKey(value.clone())).or_default(), id);
            }
        }
    }

    /// Remove a (value, doc) posting.
    pub fn remove(&mut self, value: &Value, id: DocId) {
        match self {
            Index::Hash { buckets } => {
                let h = value.stable_hash();
                if let Some(bucket) = buckets.get_mut(&h) {
                    if let Some((_, ids)) = bucket.iter_mut().find(|(v, _)| v.query_eq(value)) {
                        remove_posting(ids, id);
                    }
                    bucket.retain(|(_, ids)| !ids.is_empty());
                    if bucket.is_empty() {
                        buckets.remove(&h);
                    }
                }
            }
            Index::Ordered { tree } => {
                let key = OrdKey(value.clone());
                if let Some(ids) = tree.get_mut(&key) {
                    remove_posting(ids, id);
                    if ids.is_empty() {
                        tree.remove(&key);
                    }
                }
            }
        }
    }

    /// Equality lookup (works for both kinds).
    pub fn lookup_eq(&self, value: &Value) -> Vec<DocId> {
        let mut ids: Vec<DocId> = match self {
            Index::Hash { buckets } => buckets
                .get(&value.stable_hash())
                .into_iter()
                .flatten()
                .filter(|(v, _)| v.query_eq(value))
                .flat_map(|(_, ids)| ids.iter().copied())
                .collect(),
            Index::Ordered { tree } => tree
                .get(&OrdKey(value.clone()))
                .into_iter()
                .flat_map(|ids| ids.iter().copied())
                .collect(),
        };
        ids.sort_unstable();
        ids
    }

    /// Inclusive range lookup; only supported on ordered indexes.
    pub fn lookup_range(&self, lo: Option<&Value>, hi: Option<&Value>) -> Option<Vec<DocId>> {
        match self {
            Index::Hash { .. } => None,
            Index::Ordered { tree } => {
                use std::ops::Bound;
                let lo_b = lo.map_or(Bound::Unbounded, |v| Bound::Included(OrdKey(v.clone())));
                let hi_b = hi.map_or(Bound::Unbounded, |v| Bound::Included(OrdKey(v.clone())));
                let mut ids: Vec<DocId> = tree
                    .range((lo_b, hi_b))
                    .flat_map(|(_, ids)| ids.iter().copied())
                    .collect();
                ids.sort_unstable();
                ids
            }
            .into(),
        }
    }

    /// Number of distinct keys in the index.
    pub fn distinct_keys(&self) -> usize {
        match self {
            Index::Hash { buckets } => buckets.values().map(Vec::len).sum(),
            Index::Ordered { tree } => tree.len(),
        }
    }
}

/// Add `id` to a sorted posting list unless it is already there.
fn insert_posting(ids: &mut Vec<DocId>, id: DocId) {
    if let Err(pos) = ids.binary_search(&id) {
        ids.insert(pos, id);
    }
}

/// Drop `id` from a sorted posting list if it is there.
fn remove_posting(ids: &mut Vec<DocId>, id: DocId) {
    if let Ok(pos) = ids.binary_search(&id) {
        ids.remove(pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Value {
        Value::Str(s.into())
    }

    #[test]
    fn hash_index_equality() {
        let mut ix = Index::new(IndexKind::Hash);
        ix.insert(&v("SMITH"), 1);
        ix.insert(&v("SMITH"), 2);
        ix.insert(&v("JONES"), 3);
        assert_eq!(ix.lookup_eq(&v("SMITH")), vec![1, 2]);
        assert_eq!(ix.lookup_eq(&v("JONES")), vec![3]);
        assert!(ix.lookup_eq(&v("NOPE")).is_empty());
        assert_eq!(ix.distinct_keys(), 2);
    }

    #[test]
    fn hash_index_removal() {
        let mut ix = Index::new(IndexKind::Hash);
        ix.insert(&v("A"), 1);
        ix.insert(&v("A"), 2);
        ix.remove(&v("A"), 1);
        assert_eq!(ix.lookup_eq(&v("A")), vec![2]);
        ix.remove(&v("A"), 2);
        assert!(ix.lookup_eq(&v("A")).is_empty());
        assert_eq!(ix.distinct_keys(), 0);
    }

    #[test]
    fn ordered_index_range() {
        let mut ix = Index::new(IndexKind::Ordered);
        for (i, age) in [30_i64, 40, 50, 60].iter().enumerate() {
            ix.insert(&Value::Int(*age), i as DocId);
        }
        let ids = ix.lookup_range(Some(&Value::Int(40)), Some(&Value::Int(50))).unwrap();
        assert_eq!(ids, vec![1, 2]);
        let all = ix.lookup_range(None, None).unwrap();
        assert_eq!(all, vec![0, 1, 2, 3]);
        let upper = ix.lookup_range(Some(&Value::Int(55)), None).unwrap();
        assert_eq!(upper, vec![3]);
    }

    #[test]
    fn ordered_index_eq_and_remove() {
        let mut ix = Index::new(IndexKind::Ordered);
        ix.insert(&Value::Int(5), 10);
        ix.insert(&Value::Int(5), 11);
        assert_eq!(ix.lookup_eq(&Value::Int(5)), vec![10, 11]);
        ix.remove(&Value::Int(5), 10);
        assert_eq!(ix.lookup_eq(&Value::Int(5)), vec![11]);
    }

    #[test]
    fn postings_stay_sorted_and_distinct() {
        for kind in [IndexKind::Hash, IndexKind::Ordered] {
            let mut ix = Index::new(kind);
            for id in [7, 3, 9, 3, 1, 7] {
                ix.insert(&v("A"), id);
            }
            assert_eq!(ix.lookup_eq(&v("A")), vec![1, 3, 7, 9], "{kind:?}");
            ix.remove(&v("A"), 3);
            ix.remove(&v("A"), 4);
            assert_eq!(ix.lookup_eq(&v("A")), vec![1, 7, 9], "{kind:?}");
        }
    }

    #[test]
    fn hash_index_refuses_range() {
        let ix = Index::new(IndexKind::Hash);
        assert!(ix.lookup_range(None, None).is_none());
    }

    #[test]
    fn cross_type_numeric_keys_unify() {
        let mut ix = Index::new(IndexKind::Hash);
        ix.insert(&Value::Int(3), 1);
        assert_eq!(ix.lookup_eq(&Value::Float(3.0)), vec![1]);
    }
}
