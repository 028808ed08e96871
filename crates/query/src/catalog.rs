//! The per-snapshot cluster catalog: a table of derived facts, one row
//! per cluster, stored column by column.
//!
//! Query pipelines run against the catalog. Each cluster of a
//! [`StoreSnapshot`] contributes one row — size, heterogeneity,
//! plausibility, snapshot date range, per-error-type difference counts
//! — at its position in [`StoreSnapshot::clusters`]; NCIDs are read from
//! the snapshot the catalog keeps. Each selective field also keeps its
//! positions sorted by value, the planner's posting lists; the
//! `errors.*` counts deliberately have none and exercise the scan path.
//! A row becomes a [`Document`] only when a query returns it or a stage
//! reads it ([`ClusterCatalog::doc`]).
//!
//! Heterogeneity depends on the snapshot-wide entropy weights, so a
//! catalog is valid only for the snapshot it was built from. A publish
//! that founds no cluster leaves positions and weights alone, so its
//! catalog is the previous one with the revised clusters' rows
//! re-derived ([`ClusterCatalog::carry_forward`]); any other publish
//! builds afresh on the first query.

use std::cmp::Ordering;
use std::sync::OnceLock;

use nc_core::heterogeneity::{HeterogeneityScorer, PairTable};
use nc_core::plausibility::PlausibilityScorer;
use nc_core::snapshot::{ClusterFacts, StoreSnapshot};
use nc_docstore::query::Fields;
use nc_docstore::value::{Document, Key, Value};
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

/// Per-cluster counts, one per [`ERROR_KINDS`] entry.
type ErrorCounts = [u32; ERROR_KINDS.len()];

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
/// stay scan-only on purpose), each with one sorted permutation of
/// positions, and whether it answers ranges: `ncid`'s answers equality
/// only, so explain reports a range on it as `range-on-hash-index`.
pub(crate) const INDEXED: [(&str, bool); 6] = [
    ("ncid", false),
    ("size", true),
    ("het", true),
    ("plaus", true),
    ("snapshot.first", true),
    ("snapshot.last", true),
];

/// Whether `path` is indexed and, if so, whether its index answers
/// ranges.
pub(crate) fn index_of(path: &str) -> Option<bool> {
    INDEXED.iter().find(|(p, _)| *p == path).map(|&(_, ranges)| ranges)
}

/// The catalog's field names, allocated once and shared by every
/// rendered document.
struct Keys {
    id: Key,
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
        id: Key::new("_id"),
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

/// One cluster's catalog fields besides its NCID: a row of the table.
struct Entry<'a> {
    size: u32,
    het: f64,
    plaus: f64,
    first: &'a str,
    last: &'a str,
    errors: ErrorCounts,
}

impl<'a> Entry<'a> {
    fn from_facts(facts: &'a ClusterFacts, errors: ErrorCounts) -> Self {
        Entry {
            size: u32::try_from(facts.size).expect("a cluster of fewer than 2^32 records"),
            het: facts.heterogeneity,
            plaus: facts.plausibility,
            first: &facts.first_snapshot,
            last: &facts.last_snapshot,
            errors,
        }
    }

    /// The catalog document of cluster `ncid`, with `_id` when given.
    fn render(&self, ncid: &str, id: Option<usize>) -> Document {
        let keys = keys();
        let snapshot = [
            (keys.first.clone(), Value::from(self.first)),
            (keys.last.clone(), Value::from(self.last)),
        ];
        let counts = self.errors.iter().map(|&n| Value::Int(i64::from(n)));
        let errors = keys.kinds.iter().cloned().zip(counts);
        let sum = (keys.total.clone(), Value::Int(total(&self.errors)));
        let fields = [
            (keys.ncid.clone(), Value::from(ncid)),
            (keys.size.clone(), Value::Int(i64::from(self.size))),
            (keys.het.clone(), Value::Float(self.het)),
            (keys.plaus.clone(), Value::Float(self.plaus)),
            (keys.snapshot.clone(), Value::Doc(snapshot.into_iter().collect())),
            (keys.errors.clone(), Value::Doc(errors.chain([sum]).collect())),
        ];
        let id = id.map(|id| (keys.id.clone(), Value::Int(id as i64)));
        fields.into_iter().chain(id).collect()
    }
}

fn total(errors: &ErrorCounts) -> i64 {
    errors.iter().map(|&n| i64::from(n)).sum()
}

/// One row per cluster of a snapshot, column by column, with one sorted
/// permutation of positions per [`INDEXED`] path.
#[derive(Debug, Clone)]
pub struct ClusterCatalog {
    snapshot: StoreSnapshot,
    size: Vec<u32>,
    het: Vec<f64>,
    plaus: Vec<f64>,
    /// The snapshot dates, as indices into `dates`.
    first: Vec<u32>,
    last: Vec<u32>,
    /// Every distinct snapshot date of the table, ascending.
    dates: Vec<Value>,
    errors: Vec<ErrorCounts>,
    /// Per [`INDEXED`] path, every position ordered by (value, position).
    orders: [Vec<u32>; INDEXED.len()],
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
        let n = clusters.len();
        let mut catalog = ClusterCatalog {
            snapshot: snapshot.clone(),
            size: Vec::with_capacity(n),
            het: Vec::with_capacity(n),
            plaus: Vec::with_capacity(n),
            first: Vec::with_capacity(n),
            last: Vec::with_capacity(n),
            dates: Vec::new(),
            errors: Vec::with_capacity(n),
            orders: Default::default(),
        };
        let plausibility = PlausibilityScorer::new();
        with_thread_scratch(|scratch| {
            for (pos, (ncid, rows)) in clusters.iter().enumerate() {
                let het = table.cluster(pos);
                let facts = ClusterFacts::compute_with(scratch, ncid, rows, het, &plausibility);
                let errors = error_counts(scratch, rows);
                catalog.push(&Entry::from_facts(&facts, errors));
            }
        });
        for index in 0..INDEXED.len() {
            let mut order: Vec<u32> = (0..n as u32).collect();
            order.sort_unstable_by(|&a, &b| catalog.cmp_at(index, a, b));
            catalog.orders[index] = order;
        }
        catalog
    }

    /// The catalog for `snapshot` derived from `previous`, the catalog
    /// of the version before it: a copy of `previous`'s columns with the
    /// row of every cluster whose record count moved re-derived from
    /// `table`, and only those positions moved in the sorted
    /// permutations.
    ///
    /// The caller vouches that `table` is `snapshot`'s pair table under
    /// the same weights `previous` was scored with, and that clusters
    /// only ever gain records, so a revised cluster is a resized one.
    /// Everything else is checked here: `None` unless both catalogs
    /// cover the same NCIDs at the same positions.
    pub fn carry_forward(
        previous: &ClusterCatalog,
        snapshot: &StoreSnapshot,
        table: &PairTable,
    ) -> Option<Self> {
        let clusters = snapshot.clusters();
        if previous.len() != clusters.len() || table.len() != clusters.len() {
            return None;
        }
        if clusters.iter().enumerate().any(|(pos, (ncid, _))| previous.ncid(pos) != ncid) {
            return None;
        }
        let mut catalog = previous.clone();
        catalog.snapshot = snapshot.clone();
        let mut moved = Vec::new();
        let plausibility = PlausibilityScorer::new();
        with_thread_scratch(|scratch| {
            for (pos, (ncid, rows)) in clusters.iter().enumerate() {
                if catalog.size[pos] as usize != rows.len() {
                    let het = table.cluster(pos);
                    let facts = ClusterFacts::compute_with(scratch, ncid, rows, het, &plausibility);
                    catalog.set(pos, &Entry::from_facts(&facts, error_counts(scratch, rows)));
                    moved.push(pos as u32);
                }
            }
        });
        catalog.reorder(moved);
        Some(catalog)
    }

    /// The catalog document for one cluster of heterogeneity
    /// `heterogeneity`, independent of any built catalog and without an
    /// `_id`. The serve layer uses this at publish time to test whether
    /// a founded or revised cluster matches a cached carve's predicate
    /// footprint under the *new* snapshot's scores.
    pub fn cluster_doc(
        ncid: &str,
        rows: &[Row],
        heterogeneity: f64,
        plausibility: &PlausibilityScorer,
    ) -> Document {
        with_thread_scratch(|scratch| {
            let facts =
                ClusterFacts::compute_with(scratch, ncid, rows, heterogeneity, plausibility);
            Entry::from_facts(&facts, error_counts(scratch, rows)).render(ncid, None)
        })
    }

    /// The snapshot version this catalog was built from.
    pub fn version(&self) -> u32 {
        self.snapshot.version()
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.size.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.size.is_empty()
    }

    /// The catalog document of the cluster at capture position `pos`,
    /// with `_id` set to `pos`: [`ClusterCatalog::cluster_doc`]'s bytes
    /// plus that field.
    pub fn doc(&self, pos: usize) -> Option<Document> {
        Some(self.entry(pos)?.render(self.ncid(pos), Some(pos)))
    }

    /// Every cluster's document ([`ClusterCatalog::doc`]) with its
    /// position, in capture order.
    pub fn documents(&self) -> impl Iterator<Item = (usize, Document)> + '_ {
        (0..self.len()).filter_map(|pos| Some((pos, self.doc(pos)?)))
    }

    /// The NCID of the cluster at capture position `pos`.
    pub(crate) fn ncid(&self, pos: usize) -> &str {
        &self.snapshot.clusters()[pos].0
    }

    /// The fields of the cluster at `pos`, read from the columns.
    pub(crate) fn row(&self, pos: usize) -> CatalogRow<'_> {
        CatalogRow { catalog: self, pos }
    }

    /// The positions whose value at `path`, an [`INDEXED`] one, lies
    /// within `lo ..= hi` by [`Value::total_cmp`], in the permutation's
    /// order; empty when the bounds cross.
    pub(crate) fn postings(&self, path: &str, lo: Option<&Value>, hi: Option<&Value>) -> &[u32] {
        if lo.zip(hi).is_some_and(|(lo, hi)| lo.total_cmp(hi).is_gt()) {
            return &[];
        }
        let index = INDEXED.iter().position(|(p, _)| *p == path).expect("an indexed path");
        let order = &self.orders[index];
        let cmp = |pos: u32, v: &Value| {
            self.row(pos as usize).with_path(path, |x| x.expect("a field").total_cmp(v))
        };
        let start = lo.map_or(0, |lo| order.partition_point(|&p| cmp(p, lo).is_lt()));
        let end = hi.map_or(order.len(), |hi| order.partition_point(|&p| !cmp(p, hi).is_gt()));
        &order[start..end.max(start)]
    }

    fn entry(&self, pos: usize) -> Option<Entry<'_>> {
        let date = |i: u32| self.dates[i as usize].as_str().expect("dates are strings");
        Some(Entry {
            size: *self.size.get(pos)?,
            het: self.het[pos],
            plaus: self.plaus[pos],
            first: date(self.first[pos]),
            last: date(self.last[pos]),
            errors: self.errors[pos],
        })
    }

    fn push(&mut self, entry: &Entry) {
        let (first, last) = (self.date_index(entry.first), self.date_index(entry.last));
        self.size.push(entry.size);
        self.het.push(entry.het);
        self.plaus.push(entry.plaus);
        self.first.push(first);
        self.last.push(last);
        self.errors.push(entry.errors);
    }

    fn set(&mut self, pos: usize, entry: &Entry) {
        let (first, last) = (self.date_index(entry.first), self.date_index(entry.last));
        self.size[pos] = entry.size;
        self.het[pos] = entry.het;
        self.plaus[pos] = entry.plaus;
        self.first[pos] = first;
        self.last[pos] = last;
        self.errors[pos] = entry.errors;
    }

    /// The index of `date` in `dates`, inserted when new; the date
    /// columns are renumbered past an insertion, so the sorted
    /// permutations stay sorted.
    fn date_index(&mut self, date: &str) -> u32 {
        match self.dates.binary_search_by(|d| d.as_str().cmp(&Some(date))) {
            Ok(at) => at as u32,
            Err(at) => {
                self.dates.insert(at, Value::from(date));
                for i in self.first.iter_mut().chain(&mut self.last) {
                    *i += u32::from(*i >= at as u32);
                }
                at as u32
            }
        }
    }

    /// Positions `a` and `b` in the order of `INDEXED[index]`'s
    /// permutation: by value, then by position. The native orders here agree with [`Value::total_cmp`]
    /// on the rendered values, and `dates` is sorted.
    fn cmp_at(&self, index: usize, a: u32, b: u32) -> Ordering {
        let (a, b) = (a as usize, b as usize);
        let by_value = match index {
            0 => self.ncid(a).cmp(self.ncid(b)),
            1 => self.size[a].cmp(&self.size[b]),
            2 => self.het[a].total_cmp(&self.het[b]),
            3 => self.plaus[a].total_cmp(&self.plaus[b]),
            4 => self.first[a].cmp(&self.first[b]),
            _ => self.last[a].cmp(&self.last[b]),
        };
        by_value.then(a.cmp(&b))
    }

    /// Re-sort the `moved` positions into every permutation but
    /// `ncid`'s (a position's NCID never changes): take them out, sort
    /// them, and merge them back in one pass.
    fn reorder(&mut self, mut moved: Vec<u32>) {
        if moved.is_empty() {
            return;
        }
        moved.sort_unstable();
        moved.dedup();
        let mut is_moved = vec![false; self.len()];
        for &pos in &moved {
            is_moved[pos as usize] = true;
        }
        for index in 1..INDEXED.len() {
            let cmp = |a: &u32, b: &u32| self.cmp_at(index, *a, *b);
            moved.sort_unstable_by(cmp);
            let mut merged = Vec::with_capacity(self.len());
            let mut pending = moved.iter().copied().peekable();
            for &pos in self.orders[index].iter().filter(|&&p| !is_moved[p as usize]) {
                while let Some(next) = pending.next_if(|next| cmp(next, &pos).is_lt()) {
                    merged.push(next);
                }
                merged.push(pos);
            }
            merged.extend(pending);
            self.orders[index] = merged;
        }
    }
}

/// One cluster's fields as a [`Filter`](nc_docstore::query::Filter)
/// reads them: numbers and dates straight from the columns, anything
/// outside [`SCHEMA`] from the rendered document.
pub(crate) struct CatalogRow<'a> {
    catalog: &'a ClusterCatalog,
    pos: usize,
}

impl CatalogRow<'_> {
    /// Whether the value at `path` lies within `lo ..= hi` by
    /// [`Value::total_cmp`].
    pub(crate) fn within(&self, path: &str, lo: Option<&Value>, hi: Option<&Value>) -> bool {
        self.with_path(path, |x| {
            x.is_some_and(|x| {
                lo.is_none_or(|lo| x.total_cmp(lo).is_ge())
                    && hi.is_none_or(|hi| x.total_cmp(hi).is_le())
            })
        })
    }
}

impl Fields for CatalogRow<'_> {
    fn with_path<R>(&self, path: &str, f: impl FnOnce(Option<&Value>) -> R) -> R {
        let (cat, pos) = (self.catalog, self.pos);
        let count = |kind: &str| {
            let errors = &cat.errors[pos];
            match ERROR_KINDS.iter().position(|k| *k == kind) {
                Some(at) => Some(i64::from(errors[at])),
                None => (kind == "total").then(|| total(errors)),
            }
        };
        match path {
            "ncid" => f(Some(&Value::from(cat.ncid(pos)))),
            "size" => f(Some(&Value::Int(i64::from(cat.size[pos])))),
            "het" => f(Some(&Value::Float(cat.het[pos]))),
            "plaus" => f(Some(&Value::Float(cat.plaus[pos]))),
            "snapshot.first" => f(Some(&cat.dates[cat.first[pos] as usize])),
            "snapshot.last" => f(Some(&cat.dates[cat.last[pos] as usize])),
            _ => match path.strip_prefix("errors.").and_then(count) {
                Some(n) => f(Some(&Value::Int(n))),
                None => f(cat.doc(pos).as_ref().and_then(|d| d.get_path(path))),
            },
        }
    }
}

/// Classify the attribute-level differences between every record of a
/// cluster and its founding (first) record, bucketed by the votergen
/// error taxonomy. Differences on `ncid`/`snapshot_dt` are skipped —
/// those legitimately vary across re-registrations.
fn error_counts(scratch: &mut Scratch, rows: &[Row]) -> ErrorCounts {
    let mut counts = ErrorCounts::default();
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
    counts
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
    use crate::ast::{CarveQuery, QueryStage};
    use crate::exec::{execute, ExecOptions};
    use nc_core::heterogeneity::Scope;
    use nc_docstore::query::Filter;
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
        let ids: Vec<(usize, String)> = cat
            .documents()
            .map(|(pos, d)| (pos, d.get_str("ncid").unwrap().to_owned()))
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
        let a1 = cat.doc(0).unwrap();
        assert_eq!(a1.get_i64("size"), Some(2));
        assert!(a1.get_f64("het").unwrap() > 0.0);
        assert!(a1.get_f64("plaus").unwrap() > 0.5);
        assert_eq!(a1.get_str("snapshot.first"), Some("2008-01-01"));
        assert_eq!(a1.get_str("snapshot.last"), Some("2010-05-06"));
        let b2 = cat.doc(1).unwrap();
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
        let a1 = cat.doc(0).unwrap();
        assert_eq!(a1.get_i64("errors.phonetic"), Some(1));
        // C3: "P." abbreviates PAT; J0NE5 is an OCR confusion of JONES.
        let c3 = cat.doc(2).unwrap();
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

    /// Every selective field has a permutation listing each position
    /// once, ascending by its rendered value; `errors.*` has none.
    #[test]
    fn selective_fields_are_indexed() {
        let snap = snapshot();
        let scorer = snap.entropy_scorer(Scope::Person);
        let cat = ClusterCatalog::build(&snap, &scorer);
        for (path, _) in SCHEMA {
            assert_eq!(index_of(path).is_some(), !path.starts_with("errors"), "{path}");
        }
        for (path, _) in INDEXED {
            let order = cat.postings(path, None, None);
            let value = |p: u32| cat.doc(p as usize).unwrap().get_path(path).unwrap().clone();
            assert_eq!(order.iter().map(|&p| 1 << p).sum::<u32>(), 0b111, "{path}");
            assert!(order.windows(2).all(|w| value(w[0]).total_cmp(&value(w[1])).is_le()));
        }
    }

    /// `snapshot()` at version 2 with B2 revised (one more record).
    fn revised_snapshot() -> StoreSnapshot {
        let mut clusters = snapshot().clusters().to_vec();
        clusters[1]
            .1
            .push(row("B2", "KARL", "OXENDINE", "2011-07-08", "57"));
        StoreSnapshot::from_clusters(2, clusters)
    }

    fn docs_by_id(cat: &ClusterCatalog) -> Vec<(usize, Document)> {
        cat.documents().collect()
    }

    #[test]
    fn carried_catalog_equals_a_fresh_build_and_answers_like_one() {
        let v1 = snapshot();
        let v2 = revised_snapshot();
        // No cluster founded, so the first-record weights are unchanged.
        let scorer = v2.entropy_scorer(Scope::Person);
        let previous = ClusterCatalog::build(&v1, &v1.entropy_scorer(Scope::Person));
        let fresh = ClusterCatalog::build(&v2, &scorer);

        let table = PairTable::build(v2.clusters(), &scorer);
        let carried = ClusterCatalog::carry_forward(&previous, &v2, &table)
            .expect("same NCIDs at the same positions");
        assert_eq!(carried.version(), 2);
        assert_eq!(docs_by_id(&carried), docs_by_id(&fresh));
        assert_ne!(docs_by_id(&carried), docs_by_id(&previous));

        // The copied-then-patched permutations answer like freshly
        // built ones on every indexed path, for positions that moved
        // and ones that did not.
        let het = fresh.doc(1).unwrap().get_f64("het").unwrap();
        let filters = [
            Filter::eq("ncid", "B2"),
            Filter::between("size", 2_i64, 3_i64),
            Filter::gte("het", het),
            Filter::eq("plaus", 1.0),
            Filter::eq("snapshot.first", "2009-03-04"),
            Filter::gte("snapshot.last", "2010-05-06"),
        ];
        for f in filters {
            let query = CarveQuery {
                version: None,
                stages: vec![QueryStage::Match(f)],
            };
            let (got, want) = (
                execute(&carried, &query, ExecOptions::default()),
                execute(&fresh, &query, ExecOptions::default()),
            );
            assert!(!got.explain.full_scan, "{query:?} is indexed");
            assert_eq!(got.explain.render_json(), want.explain.render_json());
            assert_eq!(got.positions, want.positions, "{query:?}");
        }
        // The source catalog is untouched by the carry.
        assert_eq!(previous.doc(1).unwrap().get_i64("size"), Some(1));
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
        assert!(ClusterCatalog::carry_forward(&previous, &grown, &table).is_none());

        // Same count, but a position holds a different cluster.
        let mut swapped = v1.clusters().to_vec();
        swapped.swap(0, 2);
        let swapped = StoreSnapshot::from_clusters(2, swapped);
        let table = PairTable::build(swapped.clusters(), &scorer);
        assert!(ClusterCatalog::carry_forward(&previous, &swapped, &table).is_none());

        // A pair table of another snapshot.
        let table = PairTable::build(&v1.clusters()[..2], &scorer);
        assert!(ClusterCatalog::carry_forward(&previous, &v1, &table).is_none());
    }

    #[test]
    fn schema_covers_all_rendered_fields() {
        let snap = snapshot();
        let scorer = snap.entropy_scorer(Scope::Person);
        let cat = ClusterCatalog::build(&snap, &scorer);
        let doc = cat.doc(0).unwrap();
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
