//! Document collections with secondary indexes.

use std::collections::HashMap;

use crate::index::{Index, IndexKind};
use crate::plan::{describe_conjunct, AccessPlan, ConjunctAccess, ConjunctDecision, ScanReason};
use crate::query::Filter;
use crate::value::Document;

/// Identifier assigned to every stored document (the `_id` field).
pub type DocId = u64;

/// A named collection of documents.
///
/// Documents receive a monotonically increasing `_id` on insert. Indexes
/// declared via [`Collection::create_index`] are maintained on every
/// mutation and used automatically by [`Collection::find`] when a filter
/// pins the indexed path.
#[derive(Debug, Clone, Default)]
pub struct Collection {
    name: String,
    /// `(id, document)` in strictly ascending id order. A loaded file
    /// may leave gaps between ids; a new document takes the last id + 1.
    docs: Vec<(DocId, Document)>,
    indexes: HashMap<String, Index>,
}

impl Collection {
    /// Create an empty collection.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            docs: Vec::new(),
            indexes: HashMap::new(),
        }
    }

    /// A collection holding `docs`, each already carrying its `_id`.
    /// The ids must be distinct; their order does not matter.
    pub(crate) fn from_docs(name: &str, mut docs: Vec<(DocId, Document)>) -> Self {
        docs.sort_unstable_by_key(|&(id, _)| id);
        debug_assert!(docs.windows(2).all(|w| w[0].0 < w[1].0), "distinct ids");
        Self {
            name: name.to_owned(),
            docs,
            indexes: HashMap::new(),
        }
    }

    /// The collection name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of stored documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Insert a document, assigning and returning its `_id`.
    pub fn insert(&mut self, mut doc: Document) -> DocId {
        let id = self.docs.last().map_or(0, |&(last, _)| last + 1);
        doc.set("_id", id as i64);
        for (path, index) in &mut self.indexes {
            if let Some(v) = doc.get_path(path) {
                index.insert(v, id);
            }
        }
        self.docs.push((id, doc));
        id
    }

    /// Position of document `id` in `docs`.
    fn position(&self, id: DocId) -> Option<usize> {
        self.docs.binary_search_by_key(&id, |&(id, _)| id).ok()
    }

    /// Fetch a document by id.
    pub fn get(&self, id: DocId) -> Option<&Document> {
        self.position(id).map(|at| &self.docs[at].1)
    }

    /// Replace the document with the given id. Returns `false` when the
    /// id is unknown.
    pub fn replace(&mut self, id: DocId, mut doc: Document) -> bool {
        let Some(at) = self.position(id) else {
            return false;
        };
        doc.set("_id", id as i64);
        let old = std::mem::replace(&mut self.docs[at].1, doc);
        let new = &self.docs[at].1;
        for (path, index) in &mut self.indexes {
            // Move the posting only when the indexed value changed.
            let (old, new) = (old.get_path(path), new.get_path(path));
            if let (Some(o), Some(n)) = (old, new) {
                if o.query_eq(n) {
                    continue;
                }
            }
            if let Some(o) = old {
                index.remove(o, id);
            }
            if let Some(n) = new {
                index.insert(n, id);
            }
        }
        true
    }

    /// Declare a secondary index over `path`. Existing documents are
    /// indexed immediately. Re-declaring an existing path rebuilds it with
    /// the new kind.
    pub fn create_index(&mut self, path: impl Into<String>, kind: IndexKind) {
        let path = path.into();
        let mut index = Index::new(kind);
        for (id, doc) in self.iter_ordered() {
            if let Some(v) = doc.get_path(&path) {
                index.insert(v, id);
            }
        }
        self.indexes.insert(path, index);
    }

    /// The paths that currently have indexes.
    pub fn indexed_paths(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.indexes.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    /// Iterate over `(id, document)` pairs in ascending id order.
    pub fn iter_ordered(&self) -> impl Iterator<Item = (DocId, &Document)> {
        self.docs.iter().map(|(id, doc)| (*id, doc))
    }

    /// Candidate document ids for a filter, using every applicable
    /// index, or `None` when only a full scan will do.
    ///
    /// Each indexed path contributes one candidate list when the filter
    /// pins it with an equality (`equality_on` descends into `And`
    /// conjuncts at any depth) or, on an ordered index, a closed range
    /// (`range_on`, likewise conjunct-aware). Multiple lists — the
    /// dominant shape for carve filters like
    /// `and(eq(status), between(age))` — are intersected, so the
    /// residual `matches` pass only sees documents every indexed
    /// conjunct admits. Candidates are a superset of the true matches;
    /// callers always re-filter.
    fn index_candidates(&self, filter: &Filter) -> Option<Vec<DocId>> {
        let mut lists: Vec<Vec<DocId>> = Vec::new();
        for (path, index) in &self.indexes {
            if let Some(v) = filter.equality_on(path) {
                lists.push(index.lookup_eq(v));
            } else if index.kind() == IndexKind::Ordered {
                if let Some((lo, hi)) = filter.range_on(path) {
                    if let Some(ids) = index.lookup_range(lo, hi) {
                        lists.push(ids);
                    }
                }
            }
        }
        // Drive the intersection from the smallest list: `retain`
        // touches every element of it once per sibling list.
        lists.sort_by_key(Vec::len);
        let mut lists = lists.into_iter();
        let mut out = lists.next()?;
        for other in lists {
            // Posting lists come back sorted ascending, so candidates
            // stay ordered by `_id` through the intersection and
            // membership is a binary search.
            out.retain(|id| other.binary_search(id).is_ok());
            if out.is_empty() {
                break;
            }
        }
        Some(out)
    }

    /// Plan the access path for `filter`: the candidate posting list the
    /// private index-selection fast path would use (`None` = full scan),
    /// plus one [`ConjunctDecision`] per leaf conjunct explaining
    /// whether — and why not — an index serves it.
    ///
    /// `find`/`find_ids` share the same candidate computation, so a
    /// plan's `candidates` are exactly the documents a query would
    /// touch before the residual `matches` pass.
    pub fn plan(&self, filter: &Filter) -> AccessPlan {
        let mut decisions = Vec::new();
        self.collect_decisions(filter, &mut decisions);
        AccessPlan {
            candidates: self.index_candidates(filter),
            decisions,
        }
    }

    /// Walk `And` conjuncts (the only shape index selection descends)
    /// and record a decision for every leaf.
    fn collect_decisions(&self, filter: &Filter, out: &mut Vec<ConjunctDecision>) {
        match filter {
            Filter::And(fs) => {
                for f in fs {
                    self.collect_decisions(f, out);
                }
            }
            Filter::True => {}
            leaf => out.push(self.decide(leaf)),
        }
    }

    fn decide(&self, leaf: &Filter) -> ConjunctDecision {
        let conjunct = describe_conjunct(leaf);
        let (path, access) = match leaf {
            Filter::Eq(p, v) => (
                Some(p.clone()),
                match self.indexes.get(p) {
                    Some(ix) => ConjunctAccess::IndexedEq {
                        postings: ix.lookup_eq(v).len(),
                    },
                    None => ConjunctAccess::Scanned(ScanReason::NoIndex),
                },
            ),
            Filter::Gt(p, v) | Filter::Gte(p, v) => (
                Some(p.clone()),
                match self.indexes.get(p) {
                    Some(ix) if ix.kind() == IndexKind::Ordered => ConjunctAccess::IndexedRange {
                        postings: ix.lookup_range(Some(v), None).map_or(0, |ids| ids.len()),
                    },
                    Some(_) => ConjunctAccess::Scanned(ScanReason::RangeOnHashIndex),
                    None => ConjunctAccess::Scanned(ScanReason::NoIndex),
                },
            ),
            Filter::Lt(p, v) | Filter::Lte(p, v) => (
                Some(p.clone()),
                match self.indexes.get(p) {
                    Some(ix) if ix.kind() == IndexKind::Ordered => ConjunctAccess::IndexedRange {
                        postings: ix.lookup_range(None, Some(v)).map_or(0, |ids| ids.len()),
                    },
                    Some(_) => ConjunctAccess::Scanned(ScanReason::RangeOnHashIndex),
                    None => ConjunctAccess::Scanned(ScanReason::NoIndex),
                },
            ),
            Filter::Ne(p, _) => (
                Some(p.clone()),
                ConjunctAccess::Scanned(ScanReason::UnsupportedPredicate("ne")),
            ),
            Filter::In(p, _) => (
                Some(p.clone()),
                ConjunctAccess::Scanned(ScanReason::UnsupportedPredicate("in")),
            ),
            Filter::Exists(p) => (
                Some(p.clone()),
                ConjunctAccess::Scanned(ScanReason::UnsupportedPredicate("exists")),
            ),
            Filter::Contains(p, _) => (
                Some(p.clone()),
                ConjunctAccess::Scanned(ScanReason::UnsupportedPredicate("contains")),
            ),
            Filter::Or(_) => (
                None,
                ConjunctAccess::Scanned(ScanReason::UnsupportedPredicate("or")),
            ),
            Filter::Not(_) => (
                None,
                ConjunctAccess::Scanned(ScanReason::UnsupportedPredicate("not")),
            ),
            Filter::True | Filter::And(_) => unreachable!("handled by collect_decisions"),
        };
        ConjunctDecision {
            conjunct,
            path,
            access,
        }
    }

    /// Find all documents matching `filter`, ordered by `_id`.
    pub fn find(&self, filter: &Filter) -> Vec<&Document> {
        match self.index_candidates(filter) {
            Some(ids) => ids
                .into_iter()
                .filter_map(|id| self.get(id))
                .filter(|d| filter.matches(d))
                .collect(),
            None => self
                .iter_ordered()
                .map(|(_, d)| d)
                .filter(|d| filter.matches(d))
                .collect(),
        }
    }

    /// Find matching document ids, ordered ascending.
    pub fn find_ids(&self, filter: &Filter) -> Vec<DocId> {
        match self.index_candidates(filter) {
            Some(ids) => ids
                .into_iter()
                .filter(|&id| self.get(id).is_some_and(|d| filter.matches(d)))
                .collect(),
            None => self
                .iter_ordered()
                .filter(|(_, d)| filter.matches(d))
                .map(|(id, _)| id)
                .collect(),
        }
    }

    /// Count matching documents.
    pub fn count(&self, filter: &Filter) -> usize {
        self.find_ids(filter).len()
    }

    /// First matching document, by ascending `_id`.
    pub fn find_one(&self, filter: &Filter) -> Option<&Document> {
        self.find_ids(filter).first().and_then(|&id| self.get(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;

    fn voters() -> Collection {
        let mut c = Collection::new("voters");
        c.insert(doc! { "ncid" => "A1", "name" => "SMITH", "age" => 40_i64 });
        c.insert(doc! { "ncid" => "A2", "name" => "JONES", "age" => 55_i64 });
        c.insert(doc! { "ncid" => "A3", "name" => "SMITH", "age" => 70_i64 });
        c
    }

    #[test]
    fn insert_assigns_sequential_ids() {
        let c = voters();
        let ids: Vec<i64> = c
            .iter_ordered()
            .map(|(_, d)| d.get_i64("_id").unwrap())
            .collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn find_without_index_scans() {
        let c = voters();
        let hits = c.find(&Filter::eq("name", "SMITH"));
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn find_uses_hash_index() {
        let mut c = voters();
        c.create_index("name", IndexKind::Hash);
        let hits = c.find(&Filter::eq("name", "SMITH"));
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn find_uses_ordered_index_for_ranges() {
        let mut c = voters();
        c.create_index("age", IndexKind::Ordered);
        let hits = c.find(&Filter::between("age", 50_i64, 80_i64));
        assert_eq!(hits.len(), 2);
        let one = c.find(&Filter::and(vec![
            Filter::gte("age", 50_i64),
            Filter::lt("age", 60_i64),
        ]));
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].get_str("ncid"), Some("A2"));
    }

    /// Ids of the documents the `name` index (not a scan) yields.
    fn by_name(c: &Collection, name: &str) -> Vec<DocId> {
        assert_eq!(c.indexed_paths(), vec!["name"]);
        c.plan(&Filter::eq("name", name)).candidates.expect("index is used")
    }

    #[test]
    fn replace_reindexes_exactly_what_changed() {
        let mut c = voters();
        c.create_index("name", IndexKind::Hash);
        // Indexed path untouched: postings stay as they were.
        assert!(c.replace(0, doc! { "ncid" => "A1", "name" => "SMITH", "age" => 41_i64 }));
        assert_eq!(by_name(&c, "SMITH"), vec![0, 2]);
        assert_eq!(c.get(0).unwrap().get_i64("age"), Some(41));
        // Indexed path removed: the posting goes too.
        assert!(c.replace(0, doc! { "ncid" => "A1" }));
        assert_eq!(by_name(&c, "SMITH"), vec![2]);
        // Indexed path added: the document becomes findable.
        assert!(c.replace(0, doc! { "ncid" => "A1", "name" => "JONES" }));
        assert_eq!(by_name(&c, "JONES"), vec![0, 1]);
        // Changed: old posting dropped, new one added.
        assert!(c.replace(1, doc! { "ncid" => "A2", "name" => "SMITH" }));
        assert_eq!(by_name(&c, "JONES"), vec![0]);
        assert_eq!(by_name(&c, "SMITH"), vec![1, 2]);
        assert!(!c.replace(999, Document::new()));
    }

    #[test]
    fn late_index_creation_indexes_existing_docs() {
        let mut c = voters();
        c.create_index("ncid", IndexKind::Hash);
        assert_eq!(c.find(&Filter::eq("ncid", "A2")).len(), 1);
        assert_eq!(c.indexed_paths(), vec!["ncid"]);
    }

    #[test]
    fn find_one_and_count() {
        let c = voters();
        assert_eq!(c.count(&Filter::eq("name", "SMITH")), 2);
        let first = c.find_one(&Filter::eq("name", "SMITH")).unwrap();
        assert_eq!(first.get_str("ncid"), Some("A1"));
        assert!(c.find_one(&Filter::eq("name", "NOPE")).is_none());
    }

    #[test]
    fn sparse_index_skips_docs_without_path() {
        let mut c = Collection::new("sparse");
        c.insert(doc! { "a" => 1_i64 });
        c.insert(doc! { "b" => 2_i64 });
        c.create_index("a", IndexKind::Hash);
        assert_eq!(c.find(&Filter::eq("a", 1_i64)).len(), 1);
        // The doc without "a" is still reachable by scan.
        assert_eq!(c.find(&Filter::eq("b", 2_i64)).len(), 1);
    }

    /// A bigger collection where every document has indexable fields, so
    /// conjunctive filters have non-trivial index selectivity.
    fn big() -> Collection {
        let mut c = Collection::new("big");
        for i in 0..40_i64 {
            c.insert(doc! {
                "name" => if i % 3 == 0 { "SMITH" } else { "JONES" },
                "age" => 20 + (i % 10),
                "county" => format!("C{}", i % 4),
            });
        }
        c
    }

    /// The satellite guarantee: for eq/range conjuncts nested inside
    /// `Filter::and` — the dominant predicate shape for carve filters —
    /// the indexed path and the unindexed scan path agree exactly.
    #[test]
    fn and_conjunct_index_path_agrees_with_scan_path() {
        let scan = big();
        let mut indexed = big();
        indexed.create_index("name", IndexKind::Hash);
        indexed.create_index("age", IndexKind::Ordered);
        indexed.create_index("county", IndexKind::Hash);

        let filters = vec![
            Filter::and(vec![Filter::eq("name", "SMITH"), Filter::between("age", 22_i64, 27_i64)]),
            Filter::and(vec![
                Filter::eq("county", "C1"),
                Filter::and(vec![Filter::eq("name", "JONES"), Filter::gte("age", 25_i64)]),
            ]),
            Filter::and(vec![Filter::gt("age", 23_i64), Filter::lt("age", 26_i64)]),
            Filter::and(vec![Filter::eq("name", "SMITH"), Filter::eq("county", "C0")]),
            // Contradictory conjuncts: the intersection must be empty.
            Filter::and(vec![Filter::eq("name", "SMITH"), Filter::eq("name", "JONES")]),
            // Crossed bounds: an empty range, not a panic.
            Filter::and(vec![Filter::gte("age", 27_i64), Filter::lte("age", 22_i64)]),
            // Unindexable residue alongside indexable conjuncts.
            Filter::and(vec![
                Filter::eq("name", "JONES"),
                Filter::Contains("county".into(), "2".into()),
            ]),
        ];
        for f in &filters {
            assert_eq!(
                indexed.find_ids(f),
                scan.find_ids(f),
                "index path and scan path disagree on {f:?}"
            );
        }
        // Sanity: at least one of these actually exercises intersection.
        let f = &filters[0];
        assert!(!indexed.find_ids(f).is_empty());
    }

    #[test]
    fn nested_and_equality_uses_index_candidates() {
        let mut c = big();
        c.create_index("name", IndexKind::Hash);
        c.create_index("age", IndexKind::Ordered);
        // A filter whose only match lives behind both conjuncts.
        let f = Filter::and(vec![Filter::eq("name", "SMITH"), Filter::between("age", 20_i64, 21_i64)]);
        let hits = c.find(&f);
        assert!(!hits.is_empty());
        for d in &hits {
            assert_eq!(d.get_str("name"), Some("SMITH"));
            let age = d.get_i64("age").unwrap();
            assert!((20..=21).contains(&age));
        }
    }

    #[test]
    fn replace_rewrites_document() {
        let mut c = voters();
        assert!(c.replace(1, doc! { "ncid" => "B9", "_id" => 77_i64 }));
        let d = c.get(1).unwrap();
        assert_eq!(d.get_str("ncid"), Some("B9"));
        assert_eq!(d.get_i64("_id"), Some(1));
        assert!(d.get_path("name").is_none());
    }
}
