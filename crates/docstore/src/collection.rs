//! Document collections: documents in ascending `_id` order.

use crate::value::{Document, Key};

/// Identifier assigned to every stored document (the `_id` field).
pub type DocId = u64;

/// [`Collection::insert`] into a collection whose last `_id` is
/// `i64::MAX`: there is no next id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdsExhausted;

impl std::fmt::Display for IdsExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "no _id left: the last document holds i64::MAX")
    }
}

impl std::error::Error for IdsExhausted {}

/// A named collection of documents.
///
/// Documents receive a monotonically increasing `_id` on insert.
#[derive(Debug, Clone, Default)]
pub struct Collection {
    name: String,
    /// `(id, document)` in strictly ascending id order. A loaded file
    /// may leave gaps between ids; a new document takes the last id + 1.
    docs: Vec<(DocId, Document)>,
    id_key: IdKey,
}

/// The `_id` field name: one allocation per collection, shared by every
/// document it stores.
#[derive(Debug, Clone)]
struct IdKey(Key);

impl Default for IdKey {
    fn default() -> Self {
        IdKey(Key::new("_id"))
    }
}

impl Collection {
    /// Create an empty collection.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            docs: Vec::new(),
            id_key: IdKey::default(),
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
            id_key: IdKey::default(),
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

    /// Insert a document, assigning and returning its `_id`: the last
    /// id + 1, or 0 in an empty collection. An `_id` is stored as an
    /// `i64`, so a collection whose last document holds `i64::MAX` (a
    /// loaded file may) refuses the insert instead of wrapping to a
    /// negative id that no later load would accept.
    pub fn insert(&mut self, mut doc: Document) -> Result<DocId, IdsExhausted> {
        let id = match self.docs.last() {
            None => 0,
            Some(&(last, _)) => last + 1,
        };
        let stored = i64::try_from(id).map_err(|_| IdsExhausted)?;
        doc.set_key(&self.id_key.0, stored);
        self.docs.push((id, doc));
        Ok(id)
    }

    /// Fetch a document by id.
    pub fn get(&self, id: DocId) -> Option<&Document> {
        let at = self.docs.binary_search_by_key(&id, |&(id, _)| id).ok()?;
        Some(&self.docs[at].1)
    }

    /// Iterate over `(id, document)` pairs in ascending id order.
    pub fn iter_ordered(&self) -> impl Iterator<Item = (DocId, &Document)> {
        self.docs.iter().map(|(id, doc)| (*id, doc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;

    fn voters() -> Collection {
        let mut c = Collection::new("voters");
        c.insert(doc! { "ncid" => "A1", "name" => "SMITH", "age" => 40_i64 })
            .unwrap();
        c.insert(doc! { "ncid" => "A2", "name" => "JONES", "age" => 55_i64 })
            .unwrap();
        c.insert(doc! { "ncid" => "A3", "name" => "SMITH", "age" => 70_i64 })
            .unwrap();
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
}
