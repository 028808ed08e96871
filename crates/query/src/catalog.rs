//! The per-snapshot cluster catalog: one queryable [`Document`] per
//! cluster, with secondary indexes over the scored fields.
//!
//! The catalog is what query pipelines actually run against. Each
//! cluster of a [`StoreSnapshot`] contributes one flat document of
//! *derived* facts — size, heterogeneity, plausibility, snapshot date
//! range, per-error-type difference counts — inserted in capture order,
//! so a catalog `_id` doubles as the cluster's position in
//! [`StoreSnapshot::clusters`]. Indexes over the selective fields give
//! the planner posting lists; the unindexed `errors.*` counts
//! deliberately exercise the residual-scan path.
//!
//! Heterogeneity depends on the snapshot-wide entropy weights, so a
//! catalog is valid only for the snapshot it was built from — the serve
//! layer caches one per published `ServeSnapshot`. A publish that
//! founds no cluster leaves positions and weights alone, so its catalog
//! is the previous one with the revised clusters' documents replaced
//! ([`ClusterCatalog::carry_forward`]); any other publish builds afresh
//! on the first query.

use std::sync::OnceLock;

use nc_core::heterogeneity::{HeterogeneityScorer, PairTable};
use nc_core::plausibility::PlausibilityScorer;
use nc_core::snapshot::{ClusterFacts, StoreSnapshot};
use nc_docstore::collection::{Collection, DocId};
use nc_docstore::index::IndexKind;
use nc_docstore::query::Filter;
use nc_docstore::value::{Document, Key};
use nc_similarity::damerau;
use nc_similarity::soundex::soundex;
use nc_similarity::{with_thread_scratch, Scratch};
use nc_votergen::schema::{Row, AGE, NCID, NUM_ATTRS, SNAPSHOT_DT};

/// Value type of a catalog field, for operand validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    /// String-valued field.
    Str,
    /// Integer-valued field.
    Int,
    /// Float-valued field.
    Float,
}

/// The error-count buckets derived per cluster, in render order. Each
/// mirrors one error class of the votergen injection engine (see
/// `nc-votergen::errors`); `other` collects differences no single-value
/// class explains (value confusions, scattered values, heavy edits).
pub const ERROR_KINDS: &[&str] = &[
    "typo",
    "ocr",
    "phonetic",
    "abbrev",
    "whitespace",
    "case",
    "outlier",
    "missing",
    "other",
];

/// Queryable catalog fields and their kinds. Validation rejects any
/// dotted path outside this set, so typos in query documents fail
/// loudly instead of matching nothing.
pub const SCHEMA: &[(&str, FieldKind)] = &[
    ("ncid", FieldKind::Str),
    ("size", FieldKind::Int),
    ("het", FieldKind::Float),
    ("plaus", FieldKind::Float),
    ("snapshot.first", FieldKind::Str),
    ("snapshot.last", FieldKind::Str),
    ("errors.typo", FieldKind::Int),
    ("errors.ocr", FieldKind::Int),
    ("errors.phonetic", FieldKind::Int),
    ("errors.abbrev", FieldKind::Int),
    ("errors.whitespace", FieldKind::Int),
    ("errors.case", FieldKind::Int),
    ("errors.outlier", FieldKind::Int),
    ("errors.missing", FieldKind::Int),
    ("errors.other", FieldKind::Int),
    ("errors.total", FieldKind::Int),
];

/// Look up a catalog field's kind.
pub fn field_kind(path: &str) -> Option<FieldKind> {
    SCHEMA
        .iter()
        .find(|(p, _)| *p == path)
        .map(|(_, k)| *k)
}

/// The indexed catalog paths (everything selective; `errors.*` counts
/// stay scan-only on purpose).
const INDEXES: &[(&str, IndexKind)] = &[
    ("ncid", IndexKind::Hash),
    ("size", IndexKind::Ordered),
    ("het", IndexKind::Ordered),
    ("plaus", IndexKind::Ordered),
    ("snapshot.first", IndexKind::Ordered),
    ("snapshot.last", IndexKind::Ordered),
];

/// The catalog's field names, allocated once and shared by every
/// catalog document ([`Document::set_key`]).
struct Keys {
    ncid: Key,
    size: Key,
    het: Key,
    plaus: Key,
    snapshot: Key,
    first: Key,
    last: Key,
    errors: Key,
    /// One per [`ERROR_KINDS`] entry, in its order.
    kinds: Vec<Key>,
    total: Key,
}

fn keys() -> &'static Keys {
    static KEYS: OnceLock<Keys> = OnceLock::new();
    KEYS.get_or_init(|| Keys {
        ncid: Key::new("ncid"),
        size: Key::new("size"),
        het: Key::new("het"),
        plaus: Key::new("plaus"),
        snapshot: Key::new("snapshot"),
        first: Key::new("first"),
        last: Key::new("last"),
        errors: Key::new("errors"),
        kinds: ERROR_KINDS.iter().map(|&k| Key::new(k)).collect(),
        total: Key::new("total"),
    })
}

/// One queryable document per cluster of a snapshot, with indexes.
#[derive(Debug)]
pub struct ClusterCatalog {
    collection: Collection,
    version: u32,
}

impl ClusterCatalog {
    /// Build the catalog for `snapshot`. The heterogeneity scorer must
    /// be the snapshot's own entropy scorer
    /// ([`StoreSnapshot::entropy_scorer`]); plausibility needs no
    /// snapshot state and is built internally. Scores the snapshot's
    /// [`PairTable`], then builds from it ([`ClusterCatalog::build_from`]).
    pub fn build(snapshot: &StoreSnapshot, heterogeneity: &HeterogeneityScorer) -> Self {
        Self::build_from(
            snapshot,
            &PairTable::build(snapshot.clusters(), heterogeneity),
        )
    }

    /// Build the catalog for `snapshot` from `table`, its pair table
    /// under the snapshot's entropy scorer: a cluster's heterogeneity is
    /// [`PairTable::cluster`] of its position.
    ///
    /// # Panics
    /// If `table` covers a different number of clusters.
    pub fn build_from(snapshot: &StoreSnapshot, table: &PairTable) -> Self {
        let clusters = snapshot.clusters();
        assert_eq!(
            table.len(),
            clusters.len(),
            "a pair table of other clusters"
        );
        let plausibility = PlausibilityScorer::new();
        let mut collection = Collection::new("clusters");
        // Index before inserting: Collection maintains indexes on every
        // insert, which is cheaper than a create_index rebuild pass over
        // an already-full collection.
        for (path, kind) in INDEXES {
            collection.create_index(*path, *kind);
        }
        with_thread_scratch(|scratch| {
            for (pos, (ncid, rows)) in clusters.iter().enumerate() {
                let facts = ClusterFacts::compute_with(
                    scratch,
                    ncid,
                    rows,
                    table.cluster(pos),
                    &plausibility,
                );
                collection
                    .insert(Self::doc_from_facts(scratch, &facts, rows))
                    .expect("a catalog starts empty: one id per cluster, from 0");
            }
        });
        ClusterCatalog {
            collection,
            version: snapshot.version(),
        }
    }

    /// The catalog for `snapshot` derived from `previous`, the catalog
    /// of the version before it: a clone of `previous` with the
    /// documents in `dirty` — `(capture position, document)` pairs
    /// scored from `table` — replaced in place.
    ///
    /// The caller vouches that `table` is `snapshot`'s pair table under
    /// the same weights `previous` was scored with, and that clusters
    /// only ever gain records. Everything else is checked here: `None`
    /// unless both catalogs cover the same NCIDs at the same positions.
    /// A cluster whose record count moved but which `dirty` omits is
    /// re-derived, so an incomplete `dirty` costs extra work, never a
    /// stale document.
    pub fn carry_forward(
        previous: &ClusterCatalog,
        snapshot: &StoreSnapshot,
        table: &PairTable,
        dirty: &[(usize, Document)],
    ) -> Option<Self> {
        let clusters = snapshot.clusters();
        if previous.len() != clusters.len() || table.len() != clusters.len() {
            return None;
        }
        let mut resized = Vec::new();
        for (pos, (ncid, rows)) in clusters.iter().enumerate() {
            let doc = previous.collection.get(pos as DocId)?;
            if doc.get_str("ncid") != Some(ncid.as_str()) {
                return None;
            }
            if doc.get_i64("size") != Some(rows.len() as i64) {
                resized.push(pos);
            }
        }
        let mut collection = previous.collection.clone();
        for (pos, doc) in dirty {
            let (ncid, _) = clusters.get(*pos)?;
            if doc.get_str("ncid") != Some(ncid.as_str()) {
                return None;
            }
            collection.replace(*pos as DocId, doc.clone());
        }
        let plausibility = PlausibilityScorer::new();
        for pos in resized {
            let (ncid, rows) = &clusters[pos];
            let replaced = collection.get(pos as DocId).and_then(|d| d.get_i64("size"));
            if replaced != Some(rows.len() as i64) {
                let doc = Self::cluster_doc(ncid, rows, table.cluster(pos), &plausibility);
                collection.replace(pos as DocId, doc);
            }
        }
        Some(ClusterCatalog {
            collection,
            version: snapshot.version(),
        })
    }

    /// The catalog document for one cluster of heterogeneity
    /// `heterogeneity`, independent of any built catalog. The serve
    /// layer uses this at publish time to test whether a founded or
    /// revised cluster matches a cached carve's predicate footprint
    /// under the *new* snapshot's scores.
    pub fn cluster_doc(
        ncid: &str,
        rows: &[Row],
        heterogeneity: f64,
        plausibility: &PlausibilityScorer,
    ) -> Document {
        with_thread_scratch(|scratch| {
            let facts =
                ClusterFacts::compute_with(scratch, ncid, rows, heterogeneity, plausibility);
            Self::doc_from_facts(scratch, &facts, rows)
        })
    }

    fn doc_from_facts(scratch: &mut Scratch, facts: &ClusterFacts, rows: &[Row]) -> Document {
        let keys = keys();
        // Six fields and the `_id` the collection adds.
        let mut doc = Document::with_capacity(7);
        doc.set_key(&keys.ncid, facts.ncid.as_str());
        doc.set_key(&keys.size, facts.size as i64);
        doc.set_key(&keys.het, facts.heterogeneity);
        doc.set_key(&keys.plaus, facts.plausibility);
        let mut snap = Document::with_capacity(2);
        snap.set_key(&keys.first, facts.first_snapshot.as_str());
        snap.set_key(&keys.last, facts.last_snapshot.as_str());
        doc.set_key(&keys.snapshot, snap);
        doc.set_key(&keys.errors, error_counts(scratch, rows));
        doc
    }

    /// The snapshot version this catalog was built from.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Number of cluster documents.
    pub fn len(&self) -> usize {
        self.collection.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.collection.is_empty()
    }

    /// The underlying collection (documents in capture order by `_id`).
    pub fn collection(&self) -> &Collection {
        &self.collection
    }

    /// Whether the cluster with `ncid` matches `filter`. `None` when the
    /// catalog has no such cluster. Served by the hash index on `ncid`.
    pub fn cluster_matches(&self, ncid: &str, filter: &Filter) -> Option<bool> {
        self.collection
            .find_one(&Filter::eq("ncid", ncid))
            .map(|doc| filter.matches(doc))
    }
}

/// Classify the attribute-level differences between every record of a
/// cluster and its founding (first) record, bucketed by the votergen
/// error taxonomy. Differences on `ncid`/`snapshot_dt` are skipped —
/// those legitimately vary across re-registrations.
fn error_counts(scratch: &mut Scratch, rows: &[Row]) -> Document {
    let mut counts = [0i64; ERROR_KINDS.len()];
    if let Some((first, rest)) = rows.split_first() {
        for row in rest {
            for attr in 0..NUM_ATTRS {
                if attr == NCID || attr == SNAPSHOT_DT {
                    continue;
                }
                let a = first.get(attr);
                let b = row.get(attr);
                if a == b {
                    continue;
                }
                let kind = classify_difference(scratch, attr, a, b);
                let idx = ERROR_KINDS
                    .iter()
                    .position(|k| *k == kind)
                    .expect("classifier returns a known kind");
                counts[idx] += 1;
            }
        }
    }
    let keys = keys();
    let mut doc = Document::with_capacity(ERROR_KINDS.len() + 1);
    let mut total = 0i64;
    for (kind, n) in keys.kinds.iter().zip(counts) {
        doc.set_key(kind, n);
        total += n;
    }
    doc.set_key(&keys.total, total);
    doc
}

/// Decide which error class best explains `a` (founding value) vs `b`
/// (later value) differing. Heuristic mirror of the injection engine:
/// the checks run from the most structurally specific class down to
/// edit-distance fallbacks, so e.g. a soundex-preserving rewrite counts
/// as `phonetic` even though its edit distance would also pass `typo`.
/// Values of at most 64 bytes are uppercased on the stack, so a
/// classification allocates nothing.
fn classify_difference(scratch: &mut Scratch, attr: usize, a: &str, b: &str) -> &'static str {
    if attr == AGE && is_outlier_age(a, b) {
        return "outlier";
    }
    let (ta, tb) = (a.trim(), b.trim());
    if ta.is_empty() || tb.is_empty() {
        return "missing";
    }
    if ta == tb {
        return "whitespace";
    }
    if ta.eq_ignore_ascii_case(tb) {
        return "case";
    }
    let (mut buf_a, mut buf_b) = ([0u8; 64], [0u8; 64]);
    match (upper_into(ta, &mut buf_a), upper_into(tb, &mut buf_b)) {
        (Some(ua), Some(ub)) => classify_uppercased(scratch, ua, ub),
        _ => classify_uppercased(scratch, &ta.to_ascii_uppercase(), &tb.to_ascii_uppercase()),
    }
}

/// `s` with ASCII letters uppercased, written into `buf`; `None` when
/// it does not fit.
fn upper_into<'b>(s: &str, buf: &'b mut [u8; 64]) -> Option<&'b str> {
    let out = buf.get_mut(..s.len())?;
    out.copy_from_slice(s.as_bytes());
    let out = std::str::from_utf8_mut(out).expect("copied from a str");
    out.make_ascii_uppercase();
    Some(out)
}

/// The classes of [`classify_difference`] that compare the trimmed,
/// uppercased values `ua` and `ub`.
fn classify_uppercased(scratch: &mut Scratch, ua: &str, ub: &str) -> &'static str {
    if is_abbreviation(ua, ub) || is_abbreviation(ub, ua) {
        return "abbrev";
    }
    if is_ocr_confusion(ua, ub) {
        return "ocr";
    }
    if let (Some(sa), Some(sb)) = (soundex(ua), soundex(ub)) {
        if sa == sb {
            return "phonetic";
        }
    }
    if damerau::distance_with(scratch, ua, ub) <= 2 {
        return "typo";
    }
    "other"
}

/// One of the two ages falls outside the plausible human range while
/// the other does not — the signature of `make_outlier_age` (glued
/// ages like `5069`, sentinels like `0`/`999`).
fn is_outlier_age(a: &str, b: &str) -> bool {
    fn plausible(s: &str) -> Option<bool> {
        s.trim().parse::<i64>().ok().map(|v| (1..=110).contains(&v))
    }
    matches!(
        (plausible(a), plausible(b)),
        (Some(true), Some(false) | None) | (Some(false) | None, Some(true))
    )
}

/// `short` is a single-letter abbreviation of `long` (optionally with a
/// trailing period), the shape `abbreviate` produces.
fn is_abbreviation(short: &str, long: &str) -> bool {
    let stem = short.strip_suffix('.').unwrap_or(short);
    let mut chars = stem.chars();
    match (chars.next(), chars.next()) {
        (Some(c), None) => long.len() > 1 && long.starts_with(c),
        _ => false,
    }
}

/// Visually confusable (letter, digit) pairs — kept in sync with the
/// injection engine's `OCR_PAIRS`.
const OCR_PAIRS: &[(char, char)] = &[
    ('O', '0'),
    ('I', '1'),
    ('L', '1'),
    ('S', '5'),
    ('B', '8'),
    ('Z', '2'),
    ('G', '6'),
    ('T', '7'),
];

/// Same length, and every differing position swaps a letter for its
/// confusable digit (either direction) — the shape `ocr_corrupt`
/// produces.
fn is_ocr_confusion(a: &str, b: &str) -> bool {
    if a.chars().count() != b.chars().count() {
        return false;
    }
    let mut any = false;
    for (ca, cb) in a.chars().zip(b.chars()) {
        if ca == cb {
            continue;
        }
        let confusable = OCR_PAIRS
            .iter()
            .any(|&(l, d)| (ca == l && cb == d) || (ca == d && cb == l));
        if !confusable {
            return false;
        }
        any = true;
    }
    any
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_core::heterogeneity::Scope;
    use nc_votergen::schema::{FIRST_NAME, LAST_NAME, MIDL_NAME, SEX_CODE};

    fn row(ncid: &str, first: &str, last: &str, snap: &str, age: &str) -> Row {
        let mut r = Row::empty();
        r.set(NCID, ncid);
        r.set(FIRST_NAME, first);
        r.set(MIDL_NAME, "ANN");
        r.set(LAST_NAME, last);
        r.set(SEX_CODE, "F");
        r.set(AGE, age);
        r.set(SNAPSHOT_DT, snap);
        r
    }

    fn snapshot() -> StoreSnapshot {
        StoreSnapshot::from_clusters(
            1,
            vec![
                (
                    "A1".into(),
                    vec![
                        row("A1", "MARY", "SMITH", "2008-01-01", "40"),
                        row("A1", "MARY", "SMYTH", "2010-05-06", "42"),
                    ],
                ),
                ("B2".into(), vec![row("B2", "CARL", "OXENDINE", "2009-03-04", "55")]),
                (
                    "C3".into(),
                    vec![
                        row("C3", "PAT", "JONES", "2008-01-01", "30"),
                        row("C3", "P.", "JONES", "2009-03-04", "31"),
                        row("C3", "PAT", "J0NE5", "2010-05-06", "32"),
                    ],
                ),
            ],
        )
    }

    #[test]
    fn build_produces_one_doc_per_cluster_in_capture_order() {
        let snap = snapshot();
        let scorer = snap.entropy_scorer(Scope::Person);
        let cat = ClusterCatalog::build(&snap, &scorer);
        assert_eq!(cat.len(), 3);
        assert_eq!(cat.version(), 1);
        let ids: Vec<(u64, String)> = cat
            .collection()
            .iter_ordered()
            .map(|(id, d)| (id, d.get_str("ncid").unwrap().to_owned()))
            .collect();
        assert_eq!(
            ids,
            vec![(0, "A1".into()), (1, "B2".into()), (2, "C3".into())]
        );
    }

    #[test]
    fn docs_carry_scored_fields_and_date_ranges() {
        let snap = snapshot();
        let scorer = snap.entropy_scorer(Scope::Person);
        let cat = ClusterCatalog::build(&snap, &scorer);
        let a1 = cat.collection().find_one(&Filter::eq("ncid", "A1")).unwrap();
        assert_eq!(a1.get_i64("size"), Some(2));
        assert!(a1.get_f64("het").unwrap() > 0.0);
        assert!(a1.get_f64("plaus").unwrap() > 0.5);
        assert_eq!(a1.get_str("snapshot.first"), Some("2008-01-01"));
        assert_eq!(a1.get_str("snapshot.last"), Some("2010-05-06"));
        let b2 = cat.collection().find_one(&Filter::eq("ncid", "B2")).unwrap();
        assert_eq!(b2.get_i64("size"), Some(1));
        assert_eq!(b2.get_f64("plaus"), Some(1.0));
        assert_eq!(b2.get_i64("errors.total"), Some(0));
    }

    #[test]
    fn error_classification_buckets() {
        let snap = snapshot();
        let scorer = snap.entropy_scorer(Scope::Person);
        let cat = ClusterCatalog::build(&snap, &scorer);
        // A1: SMITH→SMYTH keeps the soundex code (phonetic), ages differ
        // legitimately (typo bucket at distance ≤ 2 — not outlier).
        let a1 = cat.collection().find_one(&Filter::eq("ncid", "A1")).unwrap();
        assert_eq!(a1.get_i64("errors.phonetic"), Some(1));
        // C3: "P." abbreviates PAT; J0NE5 is an OCR confusion of JONES.
        let c3 = cat.collection().find_one(&Filter::eq("ncid", "C3")).unwrap();
        assert_eq!(c3.get_i64("errors.abbrev"), Some(1));
        assert_eq!(c3.get_i64("errors.ocr"), Some(1));
        assert!(c3.get_i64("errors.total").unwrap() >= 2);
    }

    #[test]
    fn classifier_unit_cases() {
        let mut scratch = Scratch::new();
        let mut classify = |attr, a, b| classify_difference(&mut scratch, attr, a, b);
        assert_eq!(classify(FIRST_NAME, "MARY", " MARY "), "whitespace");
        assert_eq!(classify(FIRST_NAME, "MARY", "mary"), "case");
        assert_eq!(classify(FIRST_NAME, "MARY", ""), "missing");
        assert_eq!(classify(FIRST_NAME, "MARY", "M"), "abbrev");
        assert_eq!(classify(FIRST_NAME, "MARY", "M."), "abbrev");
        assert_eq!(classify(FIRST_NAME, "MARY", "MARYX"), "typo");
        assert_eq!(classify(LAST_NAME, "OXENDINE", "0XEND1NE"), "ocr");
        assert_eq!(classify(AGE, "40", "5069"), "outlier");
        assert_eq!(classify(AGE, "40", "999"), "outlier");
        assert_eq!(classify(FIRST_NAME, "MARY", "ELIZABETH"), "other");
    }

    #[test]
    fn classifier_agrees_across_the_stack_buffer_boundary() {
        let mut scratch = Scratch::new();
        let w64 = "abcd".repeat(16);
        let w65 = format!("{w64}e");
        let mut buf = [0u8; 64];
        assert_eq!(upper_into(&w64, &mut buf), Some(w64.to_ascii_uppercase().as_str()));
        assert_eq!(upper_into(&w65, &mut buf), None);
        assert_eq!(upper_into("müller", &mut buf), Some("MüLLER"));
        // A typo, a phonetic rewrite and a case flip, each with one or
        // both sides past the buffer, classify as they do inside it.
        for (a, b, kind) in [
            (&w64[..], format!("X{w64}"), "typo"),
            (&w65[..], format!("X{w65}"), "typo"),
            (&w65[..], w65.to_ascii_uppercase(), "case"),
            ("SMITH", "SMYTH".to_owned(), "phonetic"),
        ] {
            assert_eq!(classify_difference(&mut scratch, FIRST_NAME, a, &b), kind, "{a} {b}");
        }
    }

    #[test]
    fn selective_fields_are_indexed() {
        let snap = snapshot();
        let scorer = snap.entropy_scorer(Scope::Person);
        let cat = ClusterCatalog::build(&snap, &scorer);
        let paths = cat.collection().indexed_paths();
        for (p, _) in INDEXES {
            assert!(paths.contains(p), "missing index on {p}");
        }
        // errors.* stays scan-only.
        assert!(!paths.iter().any(|p| p.starts_with("errors")));
        let plan = cat.collection().plan(&Filter::between("size", 2_i64, 3_i64));
        assert!(!plan.is_full_scan());
    }

    #[test]
    fn cluster_matches_uses_ncid_index() {
        let snap = snapshot();
        let scorer = snap.entropy_scorer(Scope::Person);
        let cat = ClusterCatalog::build(&snap, &scorer);
        assert_eq!(
            cat.cluster_matches("A1", &Filter::gte("size", 2_i64)),
            Some(true)
        );
        assert_eq!(
            cat.cluster_matches("B2", &Filter::gte("size", 2_i64)),
            Some(false)
        );
        assert_eq!(cat.cluster_matches("ZZ", &Filter::True), None);
    }

    /// `snapshot()` at version 2 with B2 revised (one more record).
    fn revised_snapshot() -> StoreSnapshot {
        let mut clusters = snapshot().clusters().to_vec();
        clusters[1]
            .1
            .push(row("B2", "KARL", "OXENDINE", "2011-07-08", "57"));
        StoreSnapshot::from_clusters(2, clusters)
    }

    fn docs_by_id(cat: &ClusterCatalog) -> Vec<(u64, Document)> {
        cat.collection()
            .iter_ordered()
            .map(|(id, d)| (id, d.clone()))
            .collect()
    }

    /// The `(position, doc)` pair `carry_forward` takes for one cluster.
    fn dirty_doc(
        snap: &StoreSnapshot,
        pos: usize,
        scorer: &HeterogeneityScorer,
    ) -> (usize, Document) {
        let (ncid, rows) = &snap.clusters()[pos];
        let plausibility = PlausibilityScorer::new();
        let doc = ClusterCatalog::cluster_doc(ncid, rows, scorer.cluster(rows), &plausibility);
        (pos, doc)
    }

    #[test]
    fn carried_catalog_equals_a_fresh_build_and_answers_like_one() {
        let v1 = snapshot();
        let v2 = revised_snapshot();
        // No cluster founded, so the first-record weights are unchanged.
        let scorer = v2.entropy_scorer(Scope::Person);
        let previous = ClusterCatalog::build(&v1, &v1.entropy_scorer(Scope::Person));
        let fresh = ClusterCatalog::build(&v2, &scorer);

        let dirty = [dirty_doc(&v2, 1, &scorer)];
        let table = PairTable::build(v2.clusters(), &scorer);
        let carried = ClusterCatalog::carry_forward(&previous, &v2, &table, &dirty)
            .expect("same NCIDs at the same positions");
        assert_eq!(carried.version(), 2);
        assert_eq!(docs_by_id(&carried), docs_by_id(&fresh));
        assert_ne!(docs_by_id(&carried), docs_by_id(&previous));

        // The cloned-then-patched indexes answer like freshly built ones
        // on every indexed path, for postings that moved and ones that
        // did not.
        let b2 = fresh.collection().get(1).unwrap();
        let filters = [
            Filter::eq("ncid", "B2"),
            Filter::eq("size", 1_i64),
            Filter::eq("size", 2_i64),
            Filter::between("size", 2_i64, 3_i64),
            Filter::gte("het", b2.get_f64("het").unwrap()),
            Filter::lt("het", b2.get_f64("het").unwrap()),
            Filter::lte("plaus", b2.get_f64("plaus").unwrap()),
            Filter::eq("plaus", 1.0),
            Filter::eq("snapshot.first", "2009-03-04"),
            Filter::gte("snapshot.last", "2010-05-06"),
            Filter::eq("snapshot.last", "2009-03-04"),
        ];
        for f in &filters {
            assert!(!carried.collection().plan(f).is_full_scan(), "{f:?} is indexed");
            assert_eq!(
                carried.collection().find_ids(f),
                fresh.collection().find_ids(f),
                "carried and fresh disagree on {f:?}"
            );
        }
        // The source catalog is untouched by the carry.
        assert_eq!(previous.collection().get(1).unwrap().get_i64("size"), Some(1));
    }

    #[test]
    fn carry_rederives_a_grown_cluster_the_dirty_list_omits() {
        let v1 = snapshot();
        let v2 = revised_snapshot();
        let scorer = v2.entropy_scorer(Scope::Person);
        let previous = ClusterCatalog::build(&v1, &v1.entropy_scorer(Scope::Person));
        let table = PairTable::build(v2.clusters(), &scorer);
        let carried = ClusterCatalog::carry_forward(&previous, &v2, &table, &[])
            .expect("an incomplete dirty list is repaired, not refused");
        assert_eq!(
            docs_by_id(&carried),
            docs_by_id(&ClusterCatalog::build(&v2, &scorer))
        );
    }

    #[test]
    fn carry_refuses_mismatched_shapes() {
        let v1 = snapshot();
        let scorer = v1.entropy_scorer(Scope::Person);
        let previous = ClusterCatalog::build(&v1, &scorer);

        // A founded cluster: the counts differ.
        let mut grown = v1.clusters().to_vec();
        grown.push(("D4".into(), vec![row("D4", "NEW", "VOTER", "2011-07-08", "20")]));
        let grown = StoreSnapshot::from_clusters(2, grown);
        let table = PairTable::build(grown.clusters(), &scorer);
        assert!(ClusterCatalog::carry_forward(&previous, &grown, &table, &[]).is_none());

        // Same count, but a position holds a different cluster.
        let mut swapped = v1.clusters().to_vec();
        swapped.swap(0, 2);
        let swapped = StoreSnapshot::from_clusters(2, swapped);
        let table = PairTable::build(swapped.clusters(), &scorer);
        assert!(ClusterCatalog::carry_forward(&previous, &swapped, &table, &[]).is_none());

        // A dirty document that names another cluster than its position.
        let v2 = revised_snapshot();
        let (_, doc) = dirty_doc(&v2, 1, &scorer);
        let table = PairTable::build(v2.clusters(), &scorer);
        let misplaced = [(0, doc.clone())];
        assert!(ClusterCatalog::carry_forward(&previous, &v2, &table, &misplaced).is_none());
        let out_of_range = [(9, doc)];
        assert!(ClusterCatalog::carry_forward(&previous, &v2, &table, &out_of_range).is_none());
    }

    #[test]
    fn schema_covers_all_rendered_fields() {
        let snap = snapshot();
        let scorer = snap.entropy_scorer(Scope::Person);
        let cat = ClusterCatalog::build(&snap, &scorer);
        let doc = cat.collection().get(0).unwrap();
        for (path, kind) in SCHEMA {
            let v = doc.get_path(path).unwrap_or_else(|| panic!("{path} absent"));
            let ok = match kind {
                FieldKind::Str => v.as_str().is_some(),
                FieldKind::Int => v.as_i64().is_some(),
                FieldKind::Float => v.as_f64().is_some(),
            };
            assert!(ok, "{path} has wrong kind");
        }
        assert_eq!(field_kind("het"), Some(FieldKind::Float));
        assert_eq!(field_kind("nope"), None);
    }
}
