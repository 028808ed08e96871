//! The carve engine: versioned carve requests, canonical parameter
//! fingerprints, and the cached execution path.
//!
//! A [`CarveRequest`] names a snapshot version (or "current"), the
//! customization parameters — explicit heterogeneity bounds or one of
//! the paper's `nc1`/`nc2`/`nc3` presets — an optional privacy
//! encoding (`encode=clk` renders CLK-encoded records via `nc-pprl`
//! instead of plaintext), and a page window over the resulting labeled
//! records. Because carving is a pure function of
//! `(version, params, encoding)`, the engine fingerprints that triple
//! via [`crate::fingerprint`] and consults a bounded LRU cache before
//! scanning clusters; pagination slices the cached result, so paging
//! through a large carve costs one carve total. Plaintext and encoded
//! carves of the same dataset never share a cache entry — the encoding
//! (key and geometry) is part of the fingerprint.

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use nc_core::customize::{CustomDataset, CustomizeParams};
use nc_core::plausibility::PlausibilityScorer;
use nc_core::snapshot::StoreSnapshot;
use nc_docstore::json;
use nc_docstore::value::Document;
use nc_query::{
    execute, plan_query, CarveQuery, ClusterCatalog, ExecOptions, Explain, QueryFootprint,
    QueryOutcome,
};
use nc_pprl::{render_encoded_record, EncodeScratch, EncodingParams, RecordEncoder};
use nc_votergen::schema::{Row, SCHEMA};

use crate::cache::{CacheStats, LruCache};
use crate::fingerprint::{knob_fingerprint, query_fingerprint};
use crate::snapshot::{PublishDelta, ServeSnapshot, SnapshotRegistry};

/// A request to carve one page of a customized dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct CarveRequest {
    /// Snapshot version to pin, or `None` for the current one.
    pub version: Option<u32>,
    /// Customization parameters (bounds, sample/output sizes, seed).
    pub params: CustomizeParams,
    /// Privacy encoding: `Some` renders CLK-encoded records instead of
    /// plaintext, keyed separately in the cache.
    pub encoding: Option<EncodingParams>,
    /// Zero-based page index over the labeled records.
    pub page: usize,
    /// Records per page.
    pub page_size: usize,
}

/// Defaults used when a request names a preset or omits parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestDefaults {
    /// Default number of clusters to sample.
    pub sample: usize,
    /// Default number of output clusters.
    pub output: usize,
    /// Default sampling seed.
    pub seed: u64,
    /// Default page size.
    pub page_size: usize,
    /// Upper bound on the page size a client may request.
    pub max_page_size: usize,
}

/// Whether a carve was answered from the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Served from the cache.
    Hit,
    /// Carved fresh and inserted into the cache.
    Miss,
}

impl CacheStatus {
    /// The value reported in the `X-Cache` response header.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
        }
    }
}

/// Why a carve request was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum CarveError {
    /// The requested snapshot version was never published.
    UnknownVersion(u32),
    /// The parameters are malformed (reason attached).
    InvalidParams(String),
}

impl fmt::Display for CarveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CarveError::UnknownVersion(v) => write!(f, "unknown snapshot version {v}"),
            CarveError::InvalidParams(why) => write!(f, "invalid parameters: {why}"),
        }
    }
}

impl std::error::Error for CarveError {}

/// A fully carved dataset with its JSON lines pre-rendered, shared via
/// `Arc` between the cache and any number of concurrent responses.
#[derive(Debug)]
pub struct CarveResult {
    /// The snapshot version the carve was pinned to *when first
    /// computed*. A carried-forward cache entry keeps this original
    /// version — responses report the resolved version from
    /// [`CarveOutcome::version`], not from here.
    pub version: u32,
    /// The parameters the carve was computed with (needed to re-key a
    /// carried-forward entry under a new version's fingerprint).
    pub params: CustomizeParams,
    /// The privacy encoding the lines were rendered under (`None` =
    /// plaintext). Part of the cache key, so a carried-forward entry
    /// must re-key with it — encoded lines are a pure function of
    /// `(dataset, encoding)`, which keeps the carry-forward soundness
    /// argument unchanged.
    pub encoding: Option<EncodingParams>,
    /// NCIDs of every cluster the carve *sampled* (pre-ranking),
    /// sorted ascending for binary search. A publish delta whose
    /// revised set is disjoint from this makes the entry bit-identical
    /// at the new version (see [`CarveEngine::publish`]).
    pub sampled: Vec<String>,
    /// Number of clusters in the carved dataset.
    pub clusters: usize,
    /// Total number of labeled records (== `lines.len()`).
    pub records: usize,
    /// Duplicate pairs in the gold standard.
    pub duplicate_pairs: u64,
    /// One JSON object per labeled record, in dataset order.
    pub lines: Vec<String>,
    /// Set for carve-by-query results: the recorded query footprint the
    /// publish-time carry-forward check runs against. `None` for knob
    /// carves.
    pub query: Option<QueryCarve>,
}

/// What a cached query carve remembers about the query that produced
/// it, so a publish can decide soundly whether the entry survives.
#[derive(Debug)]
pub struct QueryCarve {
    /// The canonical query text (re-keys the entry under a new
    /// version's fingerprint on carry-forward).
    pub canonical: String,
    /// The predicate footprint: the conjunction of every `match` stage
    /// plus whether any stage reads the scorer-dependent `het` field.
    pub footprint: QueryFootprint,
    /// Whether the query pinned an explicit version. Pinned entries are
    /// never carried forward — the same request body keeps resolving to
    /// the pinned version, so a re-keyed entry could never be hit.
    pub pinned: bool,
}

impl CarveResult {
    /// Render a carved dataset into its response form: plaintext JSON
    /// lines, or CLK-encoded lines when an encoding is given.
    pub fn render(
        version: u32,
        params: &CustomizeParams,
        encoding: Option<&EncodingParams>,
        dataset: &CustomDataset,
    ) -> Self {
        let lines = match encoding {
            None => render_lines(dataset),
            Some(enc) => render_encoded_lines(dataset, enc),
        };
        let mut sampled = dataset.sampled.clone();
        sampled.sort_unstable();
        CarveResult {
            version,
            params: params.clone(),
            encoding: encoding.copied(),
            sampled,
            clusters: dataset.clusters.len(),
            records: lines.len(),
            duplicate_pairs: dataset.duplicate_pairs(),
            lines,
            query: None,
        }
    }

    /// Render an executed query carve into its response form. Cluster
    /// output becomes the same labeled JSON-lines format as knob carves
    /// (cluster index in output order, NCID, non-empty attributes);
    /// document output (project/group/count pipelines) becomes one
    /// canonical JSON object per line.
    ///
    /// # Panics
    /// When an encoding is given for a document-output pipeline — the
    /// engine rejects that combination with `InvalidParams` before
    /// rendering (projected documents would expose plaintext).
    pub fn render_query(
        version: u32,
        canonical: String,
        footprint: QueryFootprint,
        pinned: bool,
        encoding: Option<&EncodingParams>,
        outcome: &QueryOutcome,
        snapshot: &StoreSnapshot,
    ) -> Self {
        let all = snapshot.clusters();
        let (lines, clusters, duplicate_pairs) = match &outcome.positions {
            Some(positions) => {
                let encoder = encoding.map(|enc| RecordEncoder::new(*enc));
                let mut scratch = EncodeScratch::new();
                let mut lines = Vec::new();
                let mut pairs = 0u64;
                for (out_idx, &pos) in positions.iter().enumerate() {
                    let (ncid, rows) = &all[pos];
                    let n = rows.len() as u64;
                    pairs += n * n.saturating_sub(1) / 2;
                    match &encoder {
                        None => {
                            for record in rows {
                                lines.push(render_record(out_idx, ncid, record));
                            }
                        }
                        Some(encoder) => {
                            // Gold linkage comes from the cluster label,
                            // not from whatever the NCID column holds.
                            let token = encoder.ncid_token(ncid);
                            for record in rows {
                                let mut encoded = encoder.encode_row(record, &mut scratch);
                                encoded.ncid_token = token;
                                lines.push(render_encoded_record(out_idx, &encoded));
                            }
                        }
                    }
                }
                (lines, positions.len(), pairs)
            }
            None => {
                assert!(
                    encoding.is_none(),
                    "document-output pipelines cannot be encoded"
                );
                let lines: Vec<String> = outcome.docs.iter().map(Document::to_json).collect();
                (lines, 0, 0)
            }
        };
        CarveResult {
            version,
            // Knob parameters do not apply to a query carve; the cache
            // key comes from `query_fingerprint`, never from here.
            params: CustomizeParams::nc1(0, 0, 0),
            encoding: encoding.copied(),
            sampled: outcome.matched.clone(),
            clusters,
            records: lines.len(),
            duplicate_pairs,
            lines,
            query: Some(QueryCarve {
                canonical,
                footprint,
                pinned,
            }),
        }
    }

    /// The lines of one page (empty when the page is past the end).
    pub fn page(&self, page: usize, page_size: usize) -> &[String] {
        let start = page.saturating_mul(page_size).min(self.lines.len());
        let end = start.saturating_add(page_size).min(self.lines.len());
        &self.lines[start..end]
    }
}

/// The outcome of a successful carve.
#[derive(Debug)]
pub struct CarveOutcome {
    /// The version actually served (resolved from "current" if unpinned).
    pub version: u32,
    /// Whether the result came from the cache.
    pub status: CacheStatus,
    /// The shared carve result.
    pub result: Arc<CarveResult>,
}

/// Publish-time cache reconciliation counters, exported via `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Entries invalidated because their version died or their carve
    /// intersected a publish delta.
    pub invalidated: u64,
    /// Entries re-keyed to a new version because the publish delta
    /// provably did not affect them.
    pub carried_forward: u64,
    /// Publishes whose query catalog was carried forward from the
    /// previous version (dirty documents replaced in a clone).
    pub catalog_carried: u64,
    /// Catalogs built in full, on the first query against a version
    /// that could not be carried.
    pub catalog_rebuilt: u64,
}

/// Planner access-decision counters for the query path, exported via
/// `/metrics` (`nc_query_conjuncts_*_total`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Leading-match conjuncts answered from an index posting list.
    pub conjuncts_indexed: u64,
    /// Leading-match conjuncts that fell back to the residual scan.
    pub conjuncts_scanned: u64,
}

/// The carve engine: snapshot resolution + fingerprinted cache + carve.
#[derive(Debug)]
pub struct CarveEngine {
    registry: Arc<SnapshotRegistry>,
    cache: LruCache<CarveResult>,
    invalidated: std::sync::atomic::AtomicU64,
    carried_forward: std::sync::atomic::AtomicU64,
    catalog_carried: std::sync::atomic::AtomicU64,
    catalog_rebuilt: std::sync::atomic::AtomicU64,
    conjuncts_indexed: std::sync::atomic::AtomicU64,
    conjuncts_scanned: std::sync::atomic::AtomicU64,
}

impl CarveEngine {
    /// Create an engine over a snapshot registry with a cache of
    /// `cache_capacity` carve results (0 disables caching).
    pub fn new(registry: Arc<SnapshotRegistry>, cache_capacity: usize) -> Self {
        CarveEngine {
            registry,
            cache: LruCache::new(cache_capacity),
            invalidated: std::sync::atomic::AtomicU64::new(0),
            carried_forward: std::sync::atomic::AtomicU64::new(0),
            catalog_carried: std::sync::atomic::AtomicU64::new(0),
            catalog_rebuilt: std::sync::atomic::AtomicU64::new(0),
            conjuncts_indexed: std::sync::atomic::AtomicU64::new(0),
            conjuncts_scanned: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The registry this engine serves from.
    pub fn registry(&self) -> &Arc<SnapshotRegistry> {
        &self.registry
    }

    /// Cache counters for `/metrics`.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Publish-time reconciliation counters for `/metrics`.
    pub fn delta_stats(&self) -> DeltaStats {
        use std::sync::atomic::Ordering;
        DeltaStats {
            invalidated: self.invalidated.load(Ordering::Relaxed),
            carried_forward: self.carried_forward.load(Ordering::Relaxed),
            catalog_carried: self.catalog_carried.load(Ordering::Relaxed),
            catalog_rebuilt: self.catalog_rebuilt.load(Ordering::Relaxed),
        }
    }

    /// Planner access-decision counters for `/metrics`: how many
    /// leading-match conjuncts were answered from posting lists vs left
    /// for the residual scan, summed over every planned query (cold
    /// `POST /carve` and `POST /carve/explain`).
    pub fn query_stats(&self) -> QueryStats {
        use std::sync::atomic::Ordering;
        QueryStats {
            conjuncts_indexed: self.conjuncts_indexed.load(Ordering::Relaxed),
            conjuncts_scanned: self.conjuncts_scanned.load(Ordering::Relaxed),
        }
    }

    fn note_plan(&self, explain: &Explain) {
        use std::sync::atomic::Ordering;
        self.conjuncts_indexed
            .fetch_add(explain.indexed_conjuncts() as u64, Ordering::Relaxed);
        self.conjuncts_scanned
            .fetch_add(explain.scanned_conjuncts() as u64, Ordering::Relaxed);
    }

    /// Publish a snapshot through the registry and reconcile the carve
    /// cache against it.
    ///
    /// Three steps run, in order; the first two need a `delta` for the
    /// exact `current → new` transition:
    ///
    /// 1. **Catalog carry** (before the snapshot becomes visible): when
    ///    the delta founded no cluster, the previous version's catalog
    ///    has been built and the entropy weights are bit-equal, the new
    ///    snapshot's catalog is seeded with a clone of the previous one
    ///    whose dirty clusters' documents are replaced
    ///    ([`ClusterCatalog::carry_forward`]). Otherwise the catalog is
    ///    built in full by the first query, as for any fresh snapshot.
    /// 2. **Cache carry-forward**: a cached carve transfers to the
    ///    new version bit-identically when the delta founded no cluster
    ///    (cluster count unchanged ⇒ the seeded sampling permutation
    ///    and the first-record entropy scorer are unchanged) and none
    ///    of the carve's *sampled* clusters was revised (rows only
    ///    append, so unrevised clusters reduce and rank identically).
    ///    Qualifying entries are re-keyed under the new version's
    ///    fingerprint — the same `Arc`, no re-render — which is what
    ///    keeps the warm-cache hit rate non-zero across low-churn
    ///    publishes. This bit-identity is property-tested against
    ///    fresh carves in `nc-stream`'s churn suite.
    /// 3. **Dead-version eviction**: entries tagged with a version no
    ///    longer in the registry (evicted by retention) are dropped
    ///    immediately instead of lingering until LRU pressure pushes
    ///    them out.
    ///
    /// Without a delta only step 3 runs: old-version entries stay
    /// correct (they serve pinned-version requests) but nothing can be
    /// carried forward.
    pub fn publish(
        &self,
        snapshot: crate::snapshot::ServeSnapshot,
        delta: Option<PublishDelta>,
    ) -> Arc<crate::snapshot::ServeSnapshot> {
        use std::sync::atomic::Ordering;
        let previous = self.registry.current();
        let new_version = snapshot.version();
        let transition = delta
            .as_ref()
            .filter(|d| d.version == new_version && previous.version() != new_version);
        // Catalog docs for the delta's dirty clusters, scored under the
        // *new* snapshot; derived at most once per publish, by whichever
        // of the catalog carry and the footprint check needs them first.
        let mut dirty_docs: Option<Vec<(usize, Document)>> = None;
        if let Some(delta) = transition {
            if let Some(catalog) = carried_catalog(&previous, &snapshot, delta, &mut dirty_docs) {
                snapshot.seed_catalog(catalog);
                self.catalog_carried.fetch_add(1, Ordering::Relaxed);
            }
        }
        let outcome = self.registry.publish_with_delta(snapshot, delta.clone());

        // A concurrent publisher may have moved `current` in between;
        // cache entries carry only across the transition the delta names.
        let transition = transition.filter(|_| outcome.previous_version == previous.version());
        if let Some(delta) = transition {
            let knob_ok = delta.founded.is_empty();
            for (tag, result) in self.cache.entries() {
                if tag != u64::from(outcome.previous_version) {
                    continue;
                }
                let revised_hits_sampled = delta
                    .revised
                    .iter()
                    .any(|ncid| result.sampled.binary_search(ncid).is_ok());
                let carry = match &result.query {
                    // Knob carves are sound only when nothing was
                    // founded (founding changes the sampling
                    // permutation and the entropy weights) and no
                    // sampled cluster was revised.
                    None => knob_ok && !revised_hits_sampled,
                    // Query carves survive a founding publish too,
                    // provided (a) the query never reads `het`
                    // (whose entropy weights shift when a cluster
                    // is founded), (b) no cluster of the recorded
                    // matched set was revised, and (c) no dirty
                    // cluster matches the recorded predicate
                    // footprint under the new snapshot's scores —
                    // i.e. nothing could join the matched set.
                    Some(qc) => {
                        !qc.pinned
                            && (!qc.footprint.scorer_dependent || delta.founded.is_empty())
                            && !revised_hits_sampled
                            && !dirty_docs
                                .get_or_insert_with(|| dirty_cluster_docs(&outcome.snapshot, delta))
                                .iter()
                                .any(|(_, doc)| qc.footprint.matches(doc))
                    }
                };
                if carry {
                    let encoding = result.encoding.as_ref();
                    let key = match &result.query {
                        None => knob_fingerprint(new_version, &result.params, encoding),
                        Some(qc) => query_fingerprint(new_version, &qc.canonical, encoding),
                    };
                    self.cache.insert_tagged(key, u64::from(new_version), result);
                    self.carried_forward.fetch_add(1, Ordering::Relaxed);
                }
            }
        }

        let live: std::collections::BTreeSet<u64> = self
            .registry
            .versions()
            .into_iter()
            .map(u64::from)
            .collect();
        let dropped = self.cache.retain(|tag, _| live.contains(&tag));
        self.invalidated.fetch_add(dropped, Ordering::Relaxed);
        outcome.snapshot
    }

    /// The snapshot's query catalog, counting the call that has to
    /// build it in full.
    fn catalog_of<'a>(&self, snapshot: &'a ServeSnapshot) -> &'a Arc<ClusterCatalog> {
        snapshot.catalog_or_build(|| {
            self.catalog_rebuilt
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        })
    }

    /// Execute a carve request: resolve the snapshot, consult the cache,
    /// carve on a miss. Pagination is applied by the caller via
    /// [`CarveResult::page`] — the cache stores whole carves.
    pub fn carve(&self, request: &CarveRequest) -> Result<CarveOutcome, CarveError> {
        validate_params(&request.params)?;
        if let Some(enc) = &request.encoding {
            enc.validate().map_err(CarveError::InvalidParams)?;
        }
        let snapshot = self
            .registry
            .pinned(request.version)
            .ok_or(CarveError::UnknownVersion(request.version.unwrap_or(0)))?;
        let version = snapshot.version();

        let key = knob_fingerprint(version, &request.params, request.encoding.as_ref());
        if let Some(result) = self.cache.get(&key) {
            return Ok(CarveOutcome {
                version,
                status: CacheStatus::Hit,
                result,
            });
        }

        let dataset = snapshot.carve(&request.params);
        let result = Arc::new(CarveResult::render(
            version,
            &request.params,
            request.encoding.as_ref(),
            &dataset,
        ));
        self.cache
            .insert_tagged(key, u64::from(version), Arc::clone(&result));
        Ok(CarveOutcome {
            version,
            status: CacheStatus::Miss,
            result,
        })
    }

    /// Execute a carve-by-query request: resolve the snapshot, consult
    /// the cache under the query fingerprint, plan + execute on a miss.
    /// The cached entry records the query's predicate footprint and
    /// matched NCID set so [`CarveEngine::publish`] can carry it
    /// forward across deltas that provably cannot affect it.
    pub fn carve_query(&self, query: &CarveQuery) -> Result<CarveOutcome, CarveError> {
        self.carve_query_encoded(query, None)
    }

    /// [`CarveEngine::carve_query`] with an optional privacy encoding.
    /// Encoded query carves are keyed separately from plaintext ones
    /// and require a cluster-output pipeline: document output
    /// (project/group/count) is a plaintext projection, so requesting
    /// it encoded is `InvalidParams` and nothing is cached.
    pub fn carve_query_encoded(
        &self,
        query: &CarveQuery,
        encoding: Option<&EncodingParams>,
    ) -> Result<CarveOutcome, CarveError> {
        if let Some(enc) = encoding {
            enc.validate().map_err(CarveError::InvalidParams)?;
        }
        let snapshot = self
            .registry
            .pinned(query.version)
            .ok_or(CarveError::UnknownVersion(query.version.unwrap_or(0)))?;
        let version = snapshot.version();
        let canonical = query.canonical();

        let key = query_fingerprint(version, &canonical, encoding);
        if let Some(result) = self.cache.get(&key) {
            return Ok(CarveOutcome {
                version,
                status: CacheStatus::Hit,
                result,
            });
        }

        let catalog = self.catalog_of(&snapshot);
        let outcome = execute(catalog, query, ExecOptions { force_scan: false });
        self.note_plan(&outcome.explain);
        if encoding.is_some() && outcome.positions.is_none() {
            return Err(CarveError::InvalidParams(
                "encoded carves require a cluster-output pipeline \
                 (document output would expose plaintext)"
                    .into(),
            ));
        }
        let result = Arc::new(CarveResult::render_query(
            version,
            canonical,
            query.footprint(),
            query.version.is_some(),
            encoding,
            &outcome,
            snapshot.store(),
        ));
        self.cache
            .insert_tagged(key, u64::from(version), Arc::clone(&result));
        Ok(CarveOutcome {
            version,
            status: CacheStatus::Miss,
            result,
        })
    }

    /// Plan a query without executing it (`POST /carve/explain`). Never
    /// cached — the report is cheap and callers want the plan for the
    /// catalog as it stands now.
    pub fn explain_query(&self, query: &CarveQuery) -> Result<Explain, CarveError> {
        let snapshot = self
            .registry
            .pinned(query.version)
            .ok_or(CarveError::UnknownVersion(query.version.unwrap_or(0)))?;
        let catalog = self.catalog_of(&snapshot);
        let explain = plan_query(catalog, query, ExecOptions { force_scan: false });
        self.note_plan(&explain);
        Ok(explain)
    }
}

/// The one place that decides whether `snapshot`'s catalog is carried
/// forward from `previous` or left to the lazy full build. The caller
/// has established that `delta` describes `previous → snapshot`.
///
/// No founding means capture positions (the catalog `_id`s) are
/// unchanged, and — the entropy weights deriving from each cluster's
/// first record — so is the scorer; the latter is verified rather than
/// assumed. A previous catalog that was never built is not built here:
/// a deployment that never queries never pays for a catalog at publish.
fn carried_catalog(
    previous: &ServeSnapshot,
    snapshot: &ServeSnapshot,
    delta: &PublishDelta,
    dirty_docs: &mut Option<Vec<(usize, Document)>>,
) -> Option<ClusterCatalog> {
    if !delta.founded.is_empty() {
        return None;
    }
    let carried = previous.built_catalog()?;
    if !snapshot
        .scorer()
        .weights()
        .bit_eq(previous.scorer().weights())
    {
        return None;
    }
    let docs = dirty_docs.get_or_insert_with(|| dirty_cluster_docs(snapshot, delta));
    ClusterCatalog::carry_forward(carried, snapshot.store(), snapshot.scorer(), docs)
}

/// Catalog documents for every cluster named by `delta`, scored under
/// `snapshot` (the version being published), each with its capture
/// position. One pass of set lookups over the snapshot's clusters;
/// only the delta's clusters are scored.
fn dirty_cluster_docs(snapshot: &ServeSnapshot, delta: &PublishDelta) -> Vec<(usize, Document)> {
    let dirty: HashSet<&str> = delta.dirty_clusters().collect();
    if dirty.is_empty() {
        return Vec::new();
    }
    let plausibility = PlausibilityScorer::new();
    snapshot
        .store()
        .clusters()
        .iter()
        .enumerate()
        .filter(|(_, (ncid, _))| dirty.contains(ncid.as_str()))
        .map(|(pos, (ncid, rows))| {
            let doc = ClusterCatalog::cluster_doc(ncid, rows, snapshot.scorer(), &plausibility);
            (pos, doc)
        })
        .collect()
}

/// Reject parameters that would panic or wedge the carve path.
fn validate_params(params: &CustomizeParams) -> Result<(), CarveError> {
    if !params.h_low.is_finite() || !params.h_high.is_finite() {
        return Err(CarveError::InvalidParams(
            "heterogeneity bounds must be finite".into(),
        ));
    }
    if params.h_low > params.h_high {
        return Err(CarveError::InvalidParams(format!(
            "h_low ({}) must not exceed h_high ({})",
            params.h_low, params.h_high
        )));
    }
    Ok(())
}

/// Render a carved dataset as JSON lines: one object per record,
/// labeled with its gold-standard cluster index and NCID, with the
/// non-empty attributes in schema order. The line is a template (schema
/// order, not a `Value`'s sorted keys); every string in it goes through
/// the workspace's one escaper, [`json::escape_into`].
pub fn render_lines(dataset: &CustomDataset) -> Vec<String> {
    let mut lines = Vec::with_capacity(dataset.record_count());
    for (cluster, cluster_data) in dataset.clusters.iter().enumerate() {
        for record in &cluster_data.records {
            lines.push(render_record(cluster, &cluster_data.ncid, record));
        }
    }
    lines
}

/// Render a carved dataset as CLK-encoded JSON lines: one object per
/// record with the gold cluster index, the keyed NCID token, the
/// record-level CLK and the per-field encodings — no plaintext
/// attribute ever appears. The caller validates the parameters first
/// (the encoder panics on invalid geometry).
pub fn render_encoded_lines(dataset: &CustomDataset, params: &EncodingParams) -> Vec<String> {
    let encoder = RecordEncoder::new(*params);
    let mut scratch = EncodeScratch::new();
    let mut lines = Vec::with_capacity(dataset.record_count());
    for (cluster, cluster_data) in dataset.clusters.iter().enumerate() {
        // Gold linkage comes from the cluster label, not from whatever
        // the NCID column holds.
        let token = encoder.ncid_token(&cluster_data.ncid);
        for record in &cluster_data.records {
            let mut encoded = encoder.encode_row(record, &mut scratch);
            encoded.ncid_token = token;
            lines.push(render_encoded_record(cluster, &encoded));
        }
    }
    lines
}

fn render_record(cluster: usize, ncid: &str, record: &Row) -> String {
    let mut line = String::with_capacity(128);
    line.push_str("{\"cluster\":");
    line.push_str(&cluster.to_string());
    line.push_str(",\"ncid\":\"");
    json::escape_into(&mut line, ncid);
    line.push_str("\",\"record\":{");
    let mut first = true;
    for (attr, value) in SCHEMA.iter().zip(record.values()) {
        if value.is_empty() {
            continue;
        }
        if !first {
            line.push(',');
        }
        first = false;
        line.push('"');
        json::escape_into(&mut line, attr.name);
        line.push_str("\":\"");
        json::escape_into(&mut line, value);
        line.push('"');
    }
    line.push_str("}}");
    line
}

/// Build a [`CarveRequest`] from decoded key/value pairs (query string
/// or form body). Recognized keys:
///
/// * `preset` — `nc1` | `nc2` | `nc3` (bounds from the paper);
/// * `h_low`, `h_high` — explicit bounds (override the preset's);
/// * `sample`, `output`, `seed` — sampling knobs;
/// * `version` — pin a published snapshot version;
/// * `page`, `page_size` — page window;
/// * `encode`, `encode_key`, `encode_bits`, `encode_hashes`,
///   `encode_q` — privacy encoding (see [`parse_encoding_params`]).
///
/// Unknown keys are rejected so that typos fail loudly instead of
/// silently carving the default dataset.
pub fn parse_carve_request(
    pairs: &[(String, String)],
    defaults: &RequestDefaults,
) -> Result<CarveRequest, CarveError> {
    let (encode_pairs, knob_pairs): (Vec<_>, Vec<_>) = pairs
        .iter()
        .cloned()
        .partition(|(key, _)| key == "encode" || key.starts_with("encode_"));
    let encoding = parse_encoding_params(&encode_pairs)?;
    let pairs = &knob_pairs;

    let mut params = CustomizeParams::nc1(defaults.sample, defaults.output, defaults.seed);
    // Presets must apply before explicit bounds regardless of key order.
    for (key, value) in pairs {
        if key == "preset" {
            params = preset_params(value, defaults)?;
        }
    }

    let mut request = CarveRequest {
        version: None,
        params,
        encoding,
        page: 0,
        page_size: defaults.page_size,
    };

    for (key, value) in pairs {
        match key.as_str() {
            "preset" => {}
            "version" => request.version = Some(parse_num(key, value)?),
            "h_low" => request.params.h_low = parse_float(key, value)?,
            "h_high" => request.params.h_high = parse_float(key, value)?,
            "sample" => request.params.sample_clusters = parse_num(key, value)?,
            "output" => request.params.output_clusters = parse_num(key, value)?,
            "seed" => request.params.seed = parse_num(key, value)?,
            "page" => request.page = parse_num(key, value)?,
            "page_size" => request.page_size = parse_num(key, value)?,
            other => {
                return Err(CarveError::InvalidParams(format!(
                    "unknown parameter `{other}`"
                )))
            }
        }
    }

    if request.page_size == 0 || request.page_size > defaults.max_page_size {
        return Err(CarveError::InvalidParams(format!(
            "page_size must be in 1..={}",
            defaults.max_page_size
        )));
    }
    validate_params(&request.params)?;
    Ok(request)
}

/// Parse the privacy-encoding keys shared by knob carves (form body or
/// query string) and query carves (query string only):
///
/// * `encode=clk` — request CLK-encoded output with the default
///   parameters;
/// * `encode_key` — the linkage key (decimal u64);
/// * `encode_bits`, `encode_hashes`, `encode_q` — CLK geometry.
///
/// The `encode_*` knobs require `encode=clk` (in any key order), and
/// the assembled parameters are validated before use. Any other key is
/// rejected — callers pass only the pairs they have not already
/// consumed.
pub fn parse_encoding_params(
    pairs: &[(String, String)],
) -> Result<Option<EncodingParams>, CarveError> {
    let mut encoding: Option<EncodingParams> = None;
    // `encode` must apply before the knobs regardless of key order.
    for (key, value) in pairs {
        if key == "encode" {
            match value.as_str() {
                "clk" => encoding = Some(EncodingParams::default()),
                other => {
                    return Err(CarveError::InvalidParams(format!(
                        "unknown encoding `{other}` (expected `clk`)"
                    )))
                }
            }
        }
    }
    for (key, value) in pairs {
        match key.as_str() {
            "encode" => {}
            "encode_key" => require_encode(&mut encoding, key)?.key = parse_num(key, value)?,
            "encode_bits" => require_encode(&mut encoding, key)?.bits = parse_num(key, value)?,
            "encode_hashes" => {
                require_encode(&mut encoding, key)?.hashes = parse_num(key, value)?
            }
            "encode_q" => require_encode(&mut encoding, key)?.q = parse_num(key, value)?,
            other => {
                return Err(CarveError::InvalidParams(format!(
                    "unknown parameter `{other}`"
                )))
            }
        }
    }
    if let Some(enc) = &encoding {
        enc.validate().map_err(CarveError::InvalidParams)?;
    }
    Ok(encoding)
}

fn require_encode<'a>(
    encoding: &'a mut Option<EncodingParams>,
    key: &str,
) -> Result<&'a mut EncodingParams, CarveError> {
    encoding
        .as_mut()
        .ok_or_else(|| CarveError::InvalidParams(format!("`{key}` requires `encode=clk`")))
}

/// Parameters for a named preset with the default sampling knobs.
pub fn preset_params(
    name: &str,
    defaults: &RequestDefaults,
) -> Result<CustomizeParams, CarveError> {
    match name {
        "nc1" => Ok(CustomizeParams::nc1(
            defaults.sample,
            defaults.output,
            defaults.seed,
        )),
        "nc2" => Ok(CustomizeParams::nc2(
            defaults.sample,
            defaults.output,
            defaults.seed,
        )),
        "nc3" => Ok(CustomizeParams::nc3(
            defaults.sample,
            defaults.output,
            defaults.seed,
        )),
        other => Err(CarveError::InvalidParams(format!(
            "unknown preset `{other}` (expected nc1, nc2 or nc3)"
        ))),
    }
}

fn parse_num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, CarveError> {
    value
        .parse()
        .map_err(|_| CarveError::InvalidParams(format!("`{key}` must be an integer, got `{value}`")))
}

fn parse_float(key: &str, value: &str) -> Result<f64, CarveError> {
    let parsed: f64 = value.parse().map_err(|_| {
        CarveError::InvalidParams(format!("`{key}` must be a number, got `{value}`"))
    })?;
    if !parsed.is_finite() {
        return Err(CarveError::InvalidParams(format!(
            "`{key}` must be finite, got `{value}`"
        )));
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::ServeSnapshot;
    use nc_core::cluster::ClusterStore;
    use nc_core::record::DedupPolicy;
    use nc_votergen::schema::{FIRST_NAME, LAST_NAME, NCID};

    fn small_store() -> ClusterStore {
        let mut store = ClusterStore::new();
        for i in 0..8 {
            let mut r = Row::empty();
            r.set(NCID, format!("C{i}"));
            r.set(FIRST_NAME, "PAT");
            r.set(LAST_NAME, format!("SMITH{i}"));
            store.import_row(r, DedupPolicy::Trimmed, "s1", 1);
            // A second, slightly different record in even clusters.
            if i % 2 == 0 {
                let mut r = Row::empty();
                r.set(NCID, format!("C{i}"));
                r.set(FIRST_NAME, "PAT");
                r.set(LAST_NAME, format!("SMYTH{i}"));
                store.import_row(r, DedupPolicy::Trimmed, "s2", 1);
            }
        }
        store
    }

    fn engine(capacity: usize) -> CarveEngine {
        let registry = Arc::new(SnapshotRegistry::new(ServeSnapshot::capture(
            &small_store(),
            1,
        )));
        CarveEngine::new(registry, capacity)
    }

    fn request(seed: u64) -> CarveRequest {
        CarveRequest {
            version: None,
            params: CustomizeParams {
                h_low: 0.0,
                h_high: 1.0,
                sample_clusters: 8,
                output_clusters: 8,
                seed,
            },
            encoding: None,
            page: 0,
            page_size: 100,
        }
    }

    const DEFAULTS: RequestDefaults = RequestDefaults {
        sample: 100,
        output: 50,
        seed: 42,
        page_size: 25,
        max_page_size: 1000,
    };

    #[test]
    fn miss_then_hit_shares_the_same_result() {
        let engine = engine(4);
        let first = engine.carve(&request(7)).unwrap();
        assert_eq!(first.status, CacheStatus::Miss);
        let second = engine.carve(&request(7)).unwrap();
        assert_eq!(second.status, CacheStatus::Hit);
        assert!(Arc::ptr_eq(&first.result, &second.result));
        assert_eq!(engine.cache_stats().hits, 1);
        assert_eq!(engine.cache_stats().misses, 1);
    }

    #[test]
    fn different_seeds_use_different_cache_entries() {
        let engine = engine(4);
        assert_eq!(engine.carve(&request(1)).unwrap().status, CacheStatus::Miss);
        assert_eq!(engine.carve(&request(2)).unwrap().status, CacheStatus::Miss);
        assert_eq!(engine.carve(&request(1)).unwrap().status, CacheStatus::Hit);
    }

    #[test]
    fn unknown_version_is_rejected() {
        let engine = engine(4);
        let mut req = request(1);
        req.version = Some(99);
        assert_eq!(
            engine.carve(&req).unwrap_err(),
            CarveError::UnknownVersion(99)
        );
    }

    #[test]
    fn invalid_bounds_are_rejected_not_panicking() {
        let engine = engine(4);
        let mut req = request(1);
        req.params.h_low = 0.9;
        req.params.h_high = 0.1;
        assert!(matches!(
            engine.carve(&req),
            Err(CarveError::InvalidParams(_))
        ));
        req.params.h_low = f64::NAN;
        assert!(matches!(
            engine.carve(&req),
            Err(CarveError::InvalidParams(_))
        ));
    }

    /// The v1 store plus a revised copy where cluster C1 gained a row
    /// (no cluster founded).
    fn revised_store() -> ClusterStore {
        let mut store = small_store();
        let mut r = Row::empty();
        r.set(NCID, "C1");
        r.set(FIRST_NAME, "PATRICIA");
        r.set(LAST_NAME, "CHANGED");
        store.import_row(r, DedupPolicy::Trimmed, "s3", 2);
        store
    }

    fn revise_delta() -> PublishDelta {
        PublishDelta {
            version: 2,
            date: "s3".into(),
            founded: Vec::new(),
            revised: vec!["C1".into()],
        }
    }

    #[test]
    fn publish_carries_forward_unaffected_carves_bit_identically() {
        let engine = engine(32);
        // Carve with several small samples; split them by whether C1
        // (the cluster about to be revised) was sampled.
        let mut req = request(0);
        req.params.sample_clusters = 3;
        let mut touched = Vec::new();
        let mut untouched = Vec::new();
        for seed in 0..12 {
            req.params.seed = seed;
            let out = engine.carve(&req).unwrap();
            if out.result.sampled.binary_search(&"C1".to_string()).is_ok() {
                touched.push(seed);
            } else {
                untouched.push(seed);
            }
        }
        assert!(!touched.is_empty() && !untouched.is_empty(), "need both kinds");

        let store2 = revised_store();
        engine.publish(ServeSnapshot::capture(&store2, 2), Some(revise_delta()));
        assert!(engine.delta_stats().carried_forward >= untouched.len() as u64);

        let fresh = ServeSnapshot::capture(&revised_store(), 2);
        for &seed in &untouched {
            req.params.seed = seed;
            let out = engine.carve(&req).unwrap();
            assert_eq!(out.status, CacheStatus::Hit, "seed {seed} carried forward");
            assert_eq!(out.version, 2, "served as the new version");
            // The carried-forward lines are bit-identical to a fresh
            // carve at the new version.
            let fresh_lines = render_lines(&fresh.carve(&req.params));
            assert_eq!(out.result.lines, fresh_lines);
        }
        for &seed in &touched {
            req.params.seed = seed;
            let out = engine.carve(&req).unwrap();
            assert_eq!(out.status, CacheStatus::Miss, "seed {seed} sampled C1");
        }
    }

    #[test]
    fn founding_a_cluster_blocks_all_carry_forward() {
        let engine = engine(32);
        let mut req = request(3);
        req.params.sample_clusters = 3;
        engine.carve(&req).unwrap();

        let mut store2 = revised_store();
        let mut r = Row::empty();
        r.set(NCID, "C99");
        r.set(FIRST_NAME, "NEW");
        r.set(LAST_NAME, "CLUSTER");
        store2.import_row(r, DedupPolicy::Trimmed, "s3", 2);
        let mut delta = revise_delta();
        delta.founded.push("C99".into());

        engine.publish(ServeSnapshot::capture(&store2, 2), Some(delta));
        assert_eq!(engine.delta_stats().carried_forward, 0);
        assert_eq!(engine.carve(&req).unwrap().status, CacheStatus::Miss);
    }

    #[test]
    fn publish_evicts_dead_version_entries_under_retention() {
        let registry = Arc::new(SnapshotRegistry::with_retention(
            ServeSnapshot::capture(&small_store(), 1),
            1,
        ));
        let engine = CarveEngine::new(registry, 8);
        engine.carve(&request(5)).unwrap();
        assert_eq!(engine.cache_stats().entries, 1);

        // No delta: nothing carries forward; version 1 dies under the
        // retention limit and its entry is invalidated immediately.
        engine.publish(ServeSnapshot::capture(&revised_store(), 2), None);
        assert_eq!(engine.cache_stats().entries, 0);
        assert_eq!(engine.delta_stats().invalidated, 1);
        assert_eq!(
            engine.cache_stats().evictions,
            0,
            "invalidation is not a capacity eviction"
        );
    }

    #[test]
    fn fingerprint_distinguishes_bit_level_params() {
        let base = request(1).params;
        let mut other = base.clone();
        assert_eq!(
            knob_fingerprint(1, &base, None),
            knob_fingerprint(1, &other, None)
        );
        other.h_high -= f64::EPSILON;
        assert_ne!(
            knob_fingerprint(1, &base, None),
            knob_fingerprint(1, &other, None)
        );
        assert_ne!(
            knob_fingerprint(1, &base, None),
            knob_fingerprint(2, &base, None)
        );
    }

    #[test]
    fn json_lines_are_labeled_and_escaped() {
        use nc_core::customize::CustomCluster;
        let mut r = Row::empty();
        r.set(NCID, "Q\"1");
        r.set(LAST_NAME, "O\\BRIEN\n");
        let ds = CustomDataset {
            clusters: vec![CustomCluster {
                ncid: "Q\"1".to_string(),
                records: vec![r],
            }],
            sampled: vec!["Q\"1".to_string()],
        };
        let lines = render_lines(&ds);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with("{\"cluster\":0,\"ncid\":\"Q\\\"1\""));
        assert!(lines[0].contains("\"last_name\":\"O\\\\BRIEN\\n\""));
        // Empty attributes are omitted.
        assert!(!lines[0].contains("first_name"));
    }

    #[test]
    fn pagination_slices_without_overlap() {
        let result = CarveResult {
            version: 1,
            params: request(1).params,
            encoding: None,
            sampled: Vec::new(),
            clusters: 1,
            records: 5,
            duplicate_pairs: 10,
            lines: (0..5).map(|i| format!("line{i}")).collect(),
            query: None,
        };
        assert_eq!(result.page(0, 2), ["line0", "line1"]);
        assert_eq!(result.page(1, 2), ["line2", "line3"]);
        assert_eq!(result.page(2, 2), ["line4"]);
        assert!(result.page(3, 2).is_empty());
        assert!(result.page(usize::MAX, usize::MAX).is_empty());
    }

    fn pairs(spec: &[(&str, &str)]) -> Vec<(String, String)> {
        spec.iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn parse_preset_then_overrides() {
        let req = parse_carve_request(
            &pairs(&[
                ("preset", "nc2"),
                ("seed", "9"),
                ("page", "3"),
                ("page_size", "10"),
            ]),
            &DEFAULTS,
        )
        .unwrap();
        assert_eq!(req.params.h_low, 0.2);
        assert_eq!(req.params.h_high, 0.4);
        assert_eq!(req.params.seed, 9);
        assert_eq!(req.params.sample_clusters, 100);
        assert_eq!(req.page, 3);
        assert_eq!(req.page_size, 10);
        assert_eq!(req.version, None);
    }

    #[test]
    fn preset_applies_before_explicit_bounds_regardless_of_order() {
        let req = parse_carve_request(
            &pairs(&[("h_high", "0.9"), ("preset", "nc1")]),
            &DEFAULTS,
        )
        .unwrap();
        assert_eq!(req.params.h_low, 0.06);
        assert_eq!(req.params.h_high, 0.9);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(parse_carve_request(&pairs(&[("preset", "nc9")]), &DEFAULTS).is_err());
        assert!(parse_carve_request(&pairs(&[("frobnicate", "1")]), &DEFAULTS).is_err());
        assert!(parse_carve_request(&pairs(&[("seed", "abc")]), &DEFAULTS).is_err());
        assert!(parse_carve_request(&pairs(&[("h_low", "inf")]), &DEFAULTS).is_err());
        assert!(parse_carve_request(&pairs(&[("page_size", "0")]), &DEFAULTS).is_err());
        assert!(parse_carve_request(&pairs(&[("page_size", "100000")]), &DEFAULTS).is_err());
        assert!(
            parse_carve_request(&pairs(&[("h_low", "0.5"), ("h_high", "0.1")]), &DEFAULTS)
                .is_err()
        );
    }

    fn query(body: &str) -> CarveQuery {
        CarveQuery::parse(body.as_bytes()).expect("test query parses")
    }

    #[test]
    fn query_carve_miss_then_hit_replays_bit_identically() {
        let engine = engine(8);
        let q = query(r#"{"pipeline": [{"match": {"size": {"gte": 2}}}]}"#);
        let first = engine.carve_query(&q).unwrap();
        assert_eq!(first.status, CacheStatus::Miss);
        assert!(!first.result.lines.is_empty());
        // Even clusters have two records; the matched set is recorded.
        assert_eq!(
            first.result.sampled,
            vec!["C0", "C2", "C4", "C6"]
        );
        assert_eq!(first.result.clusters, 4);
        // Each 2-record cluster contributes one duplicate pair.
        assert_eq!(first.result.duplicate_pairs, 4);

        let second = engine.carve_query(&q).unwrap();
        assert_eq!(second.status, CacheStatus::Hit);
        assert!(Arc::ptr_eq(&first.result, &second.result));

        // The same pipeline written with different key order and
        // whitespace lands on the same fingerprint.
        let reordered = query(r#"{ "pipeline":[ {"match":{"size":{"gte":2}}} ] }"#);
        assert_eq!(engine.carve_query(&reordered).unwrap().status, CacheStatus::Hit);
    }

    #[test]
    fn query_carve_survives_disjoint_publish() {
        let engine = engine(8);
        let q = query(r#"{"pipeline": [{"match": {"ncid": {"eq": "C3"}}}]}"#);
        let first = engine.carve_query(&q).unwrap();
        assert_eq!(first.status, CacheStatus::Miss);

        // Revises C1 only; C1 is not in the matched set and its new
        // catalog doc does not match `ncid == C3`.
        engine.publish(ServeSnapshot::capture(&revised_store(), 2), Some(revise_delta()));
        assert_eq!(engine.delta_stats().carried_forward, 1);

        let after = engine.carve_query(&q).unwrap();
        assert_eq!(after.status, CacheStatus::Hit, "carried forward across the delta");
        assert_eq!(after.version, 2);
        assert_eq!(after.result.lines, first.result.lines, "bit-identical replay");
    }

    #[test]
    fn query_carve_invalidated_when_dirty_cluster_matches_footprint() {
        let engine = engine(8);
        // C1 has one record at v1, so it is outside the matched set —
        // but the revision grows it to size 2, which matches.
        let q = query(r#"{"pipeline": [{"match": {"size": {"gte": 2}}}]}"#);
        assert_eq!(engine.carve_query(&q).unwrap().status, CacheStatus::Miss);

        engine.publish(ServeSnapshot::capture(&revised_store(), 2), Some(revise_delta()));
        assert_eq!(engine.delta_stats().carried_forward, 0);
        let after = engine.carve_query(&q).unwrap();
        assert_eq!(after.status, CacheStatus::Miss, "C1 joined the matched set");
        assert!(after
            .result
            .sampled
            .binary_search(&"C1".to_string())
            .is_ok());
    }

    #[test]
    fn scorer_dependent_query_blocked_by_founding_only() {
        let engine = engine(8);
        // Matches nothing, but reads `het` — entropy weights change
        // whenever a cluster is founded.
        let q = query(r#"{"pipeline": [{"match": {"het": {"lt": -1.0}}}]}"#);
        assert_eq!(engine.carve_query(&q).unwrap().status, CacheStatus::Miss);

        // A revise-only delta leaves the weights alone: carried forward.
        engine.publish(ServeSnapshot::capture(&revised_store(), 2), Some(revise_delta()));
        assert_eq!(engine.carve_query(&q).unwrap().status, CacheStatus::Hit);

        // A founding delta shifts them: invalidated.
        let mut store3 = revised_store();
        let mut r = Row::empty();
        r.set(NCID, "C99");
        r.set(FIRST_NAME, "NEW");
        r.set(LAST_NAME, "CLUSTER");
        store3.import_row(r, DedupPolicy::Trimmed, "s4", 3);
        let delta = PublishDelta {
            version: 3,
            date: "s4".into(),
            founded: vec!["C99".into()],
            revised: Vec::new(),
        };
        engine.publish(ServeSnapshot::capture(&store3, 3), Some(delta));
        assert_eq!(engine.carve_query(&q).unwrap().status, CacheStatus::Miss);
    }

    #[test]
    fn transform_match_query_invalidated_on_any_revision() {
        let engine = engine(8);
        // The match runs over the group's output (`n` is an accumulator
        // field, absent from catalog docs); the footprint must degrade
        // to match-everything so any revision invalidates the entry —
        // revising C1 changes the size-2 group count from 4 to 5.
        let q = query(
            r#"{"pipeline": [
                {"group": {"by": "size", "agg": {"n": "count"}}},
                {"match": {"n": {"gte": 5}}}
            ]}"#,
        );
        let first = engine.carve_query(&q).unwrap();
        assert_eq!(first.status, CacheStatus::Miss);
        assert!(first.result.lines.is_empty(), "no group reaches 5 at v1");
        // The recorded matched set is the full snapshot, not empty.
        assert_eq!(first.result.sampled.len(), 8);

        engine.publish(ServeSnapshot::capture(&revised_store(), 2), Some(revise_delta()));
        assert_eq!(engine.delta_stats().carried_forward, 0);
        let after = engine.carve_query(&q).unwrap();
        assert_eq!(after.status, CacheStatus::Miss, "stale entry must not survive");
        assert_eq!(
            after.result.lines,
            vec![r#"{"_key":2,"n":5}"#.to_string()],
            "fresh carve sees the revised counts"
        );
    }

    #[test]
    fn pinned_query_stays_at_its_version_across_publishes() {
        let engine = engine(8);
        let q = query(r#"{"version": 1, "pipeline": [{"match": {"ncid": {"eq": "C3"}}}]}"#);
        assert_eq!(engine.carve_query(&q).unwrap().status, CacheStatus::Miss);
        engine.publish(ServeSnapshot::capture(&revised_store(), 2), Some(revise_delta()));
        let after = engine.carve_query(&q).unwrap();
        assert_eq!(after.status, CacheStatus::Hit, "version-1 entry still serves");
        assert_eq!(after.version, 1);
    }

    /// Build the current version's catalog the way a deployment does:
    /// by planning a query against it (explain is never cached, so
    /// this reaches the catalog at every version).
    fn build_catalog(engine: &CarveEngine) {
        engine
            .explain_query(&query(r#"{"pipeline": [{"limit": 1}]}"#))
            .unwrap();
    }

    fn catalog_docs(catalog: &ClusterCatalog) -> Vec<(u64, Document)> {
        catalog
            .collection()
            .iter_ordered()
            .map(|(id, doc)| (id, doc.clone()))
            .collect()
    }

    /// Whatever path produced the current snapshot's catalog, it equals
    /// a from-scratch build, doc for doc by `_id`.
    fn assert_catalog_is_fresh(engine: &CarveEngine) {
        let current = engine.registry().current();
        let fresh = ClusterCatalog::build(current.store(), current.scorer());
        assert_eq!(catalog_docs(current.catalog()), catalog_docs(&fresh));
    }

    #[test]
    fn revise_only_publish_seeds_a_carried_catalog() {
        let engine = engine(8);
        build_catalog(&engine);
        assert_eq!(engine.delta_stats().catalog_rebuilt, 1);

        let revised = ServeSnapshot::capture(&revised_store(), 2);
        let current = engine.publish(revised, Some(revise_delta()));
        assert!(current.built_catalog().is_some(), "seeded at publish, before any query");
        assert_eq!(current.built_catalog().unwrap().version(), 2);
        assert_eq!(engine.delta_stats().catalog_carried, 1);
        assert_catalog_is_fresh(&engine);

        // Queries at the new version run on the carried catalog (no
        // rebuild) and answer byte-for-byte like a cold engine.
        let cold = CarveEngine::new(
            Arc::new(SnapshotRegistry::new(ServeSnapshot::capture(&revised_store(), 2))),
            0,
        );
        for body in [
            r#"{"pipeline": [{"match": {"size": {"gte": 2}}}]}"#,
            r#"{"pipeline": [{"match": {"ncid": {"eq": "C1"}}}]}"#,
            r#"{"pipeline": [{"match": {"het": {"gt": 0.0}}}, {"sort": {"by": "het", "descending": true}}]}"#,
        ] {
            let q = query(body);
            let served = engine.carve_query(&q).unwrap();
            assert_eq!(served.version, 2);
            assert_eq!(served.result.lines, cold.carve_query(&q).unwrap().result.lines, "{body}");
        }
        assert_eq!(engine.delta_stats().catalog_rebuilt, 1, "v2 never built in full");
    }

    /// Publish `store` as version 2 and require that the catalog was
    /// left to the lazy full build — which then still comes out right.
    fn assert_carry_refused(
        engine: &CarveEngine,
        store: &ClusterStore,
        delta: Option<PublishDelta>,
        why: &str,
    ) {
        let rebuilt = engine.delta_stats().catalog_rebuilt;
        let current = engine.publish(ServeSnapshot::capture(store, 2), delta);
        assert!(current.built_catalog().is_none(), "{why}: nothing seeded");
        assert_eq!(engine.delta_stats().catalog_carried, 0, "{why}");
        build_catalog(engine);
        let built = engine.delta_stats().catalog_rebuilt - rebuilt;
        assert_eq!(built, 1, "{why}: built in full by the first query");
        assert_catalog_is_fresh(engine);
    }

    fn founding_store() -> ClusterStore {
        let mut store = revised_store();
        let mut r = Row::empty();
        r.set(NCID, "C99");
        r.set(FIRST_NAME, "NEW");
        r.set(LAST_NAME, "CLUSTER");
        store.import_row(r, DedupPolicy::Trimmed, "s3", 2);
        store
    }

    #[test]
    fn catalog_carry_is_refused_without_a_sound_transition() {
        // A founding delta: positions and entropy weights may move.
        let e = engine(8);
        build_catalog(&e);
        let mut founding = revise_delta();
        founding.founded.push("C99".into());
        assert_carry_refused(&e, &founding_store(), Some(founding), "founding delta");

        // No delta at all.
        let e = engine(8);
        build_catalog(&e);
        assert_carry_refused(&e, &revised_store(), None, "no delta");

        // A delta for some other version.
        let e = engine(8);
        build_catalog(&e);
        let mut stale = revise_delta();
        stale.version = 9;
        assert_carry_refused(&e, &revised_store(), Some(stale), "version mismatch");

        // The previous catalog was never built: a deployment that never
        // queries pays for no catalog at publish.
        let e = engine(8);
        assert_carry_refused(&e, &revised_store(), Some(revise_delta()), "previous never built");

        // The delta claims no founding, the snapshot says otherwise.
        let e = engine(8);
        build_catalog(&e);
        assert_carry_refused(&e, &founding_store(), Some(revise_delta()), "cluster-count mismatch");

        // Same NCIDs and sizes but other first records: the entropy
        // weights differ bit-wise, so carried `het` values would be stale.
        let e = engine(8);
        build_catalog(&e);
        let mut other = ClusterStore::new();
        for i in 0..8 {
            let mut r = Row::empty();
            r.set(NCID, format!("C{i}"));
            r.set(FIRST_NAME, format!("PAT{}", i % 3));
            r.set(LAST_NAME, "SMITH");
            other.import_row(r, DedupPolicy::Trimmed, "s1", 1);
        }
        let mut nothing = revise_delta();
        nothing.revised.clear();
        assert_carry_refused(&e, &other, Some(nothing), "entropy weights moved");
    }

    #[test]
    fn republishing_the_current_version_carries_nothing() {
        let engine = engine(8);
        build_catalog(&engine);
        let mut delta = revise_delta();
        delta.version = 1;
        let current = engine.publish(ServeSnapshot::capture(&revised_store(), 1), Some(delta));
        assert!(current.built_catalog().is_none());
        assert_eq!(engine.delta_stats().catalog_carried, 0);
        assert_catalog_is_fresh(&engine);
    }

    #[test]
    fn delta_omitting_a_changed_cluster_still_yields_a_fresh_catalog() {
        let engine = engine(8);
        build_catalog(&engine);
        // C1 gained a record, but the delta names nothing.
        let mut incomplete = revise_delta();
        incomplete.revised.clear();
        let current = engine.publish(ServeSnapshot::capture(&revised_store(), 2), Some(incomplete));
        assert!(current.built_catalog().is_some(), "carried, with C1 re-derived");
        assert_eq!(engine.delta_stats().catalog_carried, 1);
        assert_catalog_is_fresh(&engine);
        assert_eq!(current.catalog().collection().get(1).unwrap().get_i64("size"), Some(2));
    }

    #[test]
    fn snapshot_is_never_visible_without_its_seeded_catalog() {
        let engine = engine(8);
        build_catalog(&engine);
        let registry = Arc::clone(engine.registry());
        let ready = Arc::new(std::sync::Barrier::new(2));
        let reader = {
            let ready = Arc::clone(&ready);
            std::thread::spawn(move || {
                ready.wait();
                // Poll until the new version shows; the first sight of
                // it must already carry the catalog.
                loop {
                    let current = registry.current();
                    if current.version() == 2 {
                        return current.built_catalog().is_some();
                    }
                    std::hint::spin_loop();
                }
            })
        };
        ready.wait();
        engine.publish(ServeSnapshot::capture(&revised_store(), 2), Some(revise_delta()));
        assert!(
            reader.join().expect("reader thread"),
            "version 2 was observable before its catalog was seeded"
        );
    }

    #[test]
    fn query_carve_docs_output_renders_json_objects() {
        let engine = engine(8);
        let q = query(
            r#"{"pipeline": [
                {"match": {"size": {"gte": 2}}},
                {"group": {"by": "size", "agg": {"n": "count"}}}
            ]}"#,
        );
        let out = engine.carve_query(&q).unwrap();
        assert_eq!(out.result.clusters, 0, "document output carries no clusters");
        assert_eq!(out.result.lines, vec![r#"{"_key":2,"n":4}"#.to_string()]);
    }

    #[test]
    fn explain_and_carve_feed_the_conjunct_counters() {
        let engine = engine(8);
        // `size` rides its ordered index; `errors.total` is unindexed.
        let q = query(
            r#"{"pipeline": [{"match": {"size": {"gte": 2}, "errors.total": {"gte": 0}}}]}"#,
        );
        let explain = engine.explain_query(&q).unwrap();
        assert!(!explain.full_scan, "indexed conjunct prevents the full scan");
        assert_eq!(explain.indexed_conjuncts(), 1);
        assert_eq!(explain.scanned_conjuncts(), 1);
        let stats = engine.query_stats();
        assert_eq!(stats.conjuncts_indexed, 1);
        assert_eq!(stats.conjuncts_scanned, 1);

        engine.carve_query(&q).unwrap();
        let stats = engine.query_stats();
        assert_eq!(stats.conjuncts_indexed, 2);
        assert_eq!(stats.conjuncts_scanned, 2);

        let unknown = query(r#"{"version": 9, "pipeline": [{"limit": 1}]}"#);
        assert_eq!(
            engine.explain_query(&unknown).unwrap_err(),
            CarveError::UnknownVersion(9)
        );
    }

    #[test]
    fn defaults_produce_nc1_with_default_knobs() {
        let req = parse_carve_request(&[], &DEFAULTS).unwrap();
        assert_eq!(req.params, CustomizeParams::nc1(100, 50, 42));
        assert_eq!(req.encoding, None);
        assert_eq!(req.page, 0);
        assert_eq!(req.page_size, 25);
    }

    #[test]
    fn parse_encoding_knobs_in_any_order() {
        let req = parse_carve_request(
            &pairs(&[
                ("encode_bits", "512"),
                ("encode", "clk"),
                ("encode_key", "7"),
                ("seed", "9"),
            ]),
            &DEFAULTS,
        )
        .unwrap();
        let enc = req.encoding.unwrap();
        assert_eq!(enc.key, 7);
        assert_eq!(enc.bits, 512);
        assert_eq!(enc.hashes, EncodingParams::default().hashes);
        assert_eq!(req.params.seed, 9);
    }

    #[test]
    fn parse_rejects_bad_encoding_input() {
        // Knobs without `encode=clk` fail loudly.
        assert!(parse_carve_request(&pairs(&[("encode_key", "7")]), &DEFAULTS).is_err());
        // Unknown encoding name.
        assert!(parse_carve_request(&pairs(&[("encode", "rot13")]), &DEFAULTS).is_err());
        // Invalid geometry is rejected at parse time.
        assert!(parse_carve_request(
            &pairs(&[("encode", "clk"), ("encode_bits", "100")]),
            &DEFAULTS
        )
        .is_err());
        // Typo'd encode_* key.
        assert!(parse_carve_request(
            &pairs(&[("encode", "clk"), ("encode_qq", "2")]),
            &DEFAULTS
        )
        .is_err());
    }

    fn encoded_request(seed: u64, key: u64) -> CarveRequest {
        let mut req = request(seed);
        req.encoding = Some(EncodingParams {
            key,
            ..Default::default()
        });
        req
    }

    #[test]
    fn encoded_and_plaintext_carves_never_share_a_cache_entry() {
        let engine = engine(8);
        let plain = engine.carve(&request(7)).unwrap();
        assert_eq!(plain.status, CacheStatus::Miss);
        // Same (version, params): the encoding must still miss.
        let encoded = engine.carve(&encoded_request(7, 0)).unwrap();
        assert_eq!(encoded.status, CacheStatus::Miss);
        assert!(!Arc::ptr_eq(&plain.result, &encoded.result));
        // A different key is yet another entry.
        assert_eq!(
            engine.carve(&encoded_request(7, 99)).unwrap().status,
            CacheStatus::Miss
        );
        // Each replays from its own entry.
        assert_eq!(engine.carve(&request(7)).unwrap().status, CacheStatus::Hit);
        assert_eq!(
            engine.carve(&encoded_request(7, 0)).unwrap().status,
            CacheStatus::Hit
        );
    }

    #[test]
    fn encoded_lines_carry_labels_but_no_plaintext() {
        let engine = engine(8);
        let out = engine.carve(&encoded_request(3, 5)).unwrap();
        assert_eq!(out.result.records, out.result.lines.len());
        assert!(!out.result.lines.is_empty());
        for line in &out.result.lines {
            assert!(line.starts_with("{\"cluster\":"));
            assert!(line.contains("\"record_clk\":\""));
            // Store values (names, NCIDs) must never appear.
            assert!(!line.contains("SMITH") && !line.contains("PAT"));
            assert!(!line.contains("\"ncid\":"));
        }
        // Records of one cluster share their NCID token; bit-identical
        // replay on the cache hit.
        let replay = engine.carve(&encoded_request(3, 5)).unwrap();
        assert_eq!(replay.result.lines, out.result.lines);
    }

    #[test]
    fn encoded_carves_carry_forward_under_their_own_key() {
        let engine = engine(32);
        let mut req = encoded_request(0, 9);
        req.params.sample_clusters = 3;
        let mut untouched = None;
        for seed in 0..12 {
            req.params.seed = seed;
            let out = engine.carve(&req).unwrap();
            if out.result.sampled.binary_search(&"C1".to_string()).is_err() {
                untouched = Some(seed);
                break;
            }
        }
        let seed = untouched.expect("some small sample avoids C1");

        engine.publish(ServeSnapshot::capture(&revised_store(), 2), Some(revise_delta()));

        req.params.seed = seed;
        let carried = engine.carve(&req).unwrap();
        assert_eq!(carried.status, CacheStatus::Hit, "encoded entry re-keyed");
        assert_eq!(carried.version, 2);
        // The carried-forward encoded lines equal a fresh encode of the
        // new version's carve.
        let fresh = ServeSnapshot::capture(&revised_store(), 2);
        let fresh_lines =
            render_encoded_lines(&fresh.carve(&req.params), req.encoding.as_ref().unwrap());
        assert_eq!(carried.result.lines, fresh_lines);
        // The plaintext twin was never cached: still a miss.
        let mut plain = req.clone();
        plain.encoding = None;
        assert_eq!(engine.carve(&plain).unwrap().status, CacheStatus::Miss);
    }

    #[test]
    fn encoded_query_carve_keys_and_renders_separately() {
        let engine = engine(8);
        let q = query(r#"{"pipeline": [{"match": {"size": {"gte": 2}}}]}"#);
        let enc = EncodingParams::default();
        let plain = engine.carve_query(&q).unwrap();
        let encoded = engine.carve_query_encoded(&q, Some(&enc)).unwrap();
        assert_eq!(encoded.status, CacheStatus::Miss, "not the plaintext entry");
        assert_eq!(encoded.result.records, plain.result.records);
        assert_eq!(encoded.result.clusters, plain.result.clusters);
        assert!(encoded.result.lines[0].contains("\"record_clk\":\""));
        assert!(!encoded.result.lines[0].contains("SMITH"));
        // Both replay from their own entries.
        assert_eq!(engine.carve_query(&q).unwrap().status, CacheStatus::Hit);
        assert_eq!(
            engine.carve_query_encoded(&q, Some(&enc)).unwrap().status,
            CacheStatus::Hit
        );
    }

    #[test]
    fn encoded_query_carve_rejects_document_output() {
        let engine = engine(8);
        let q = query(
            r#"{"pipeline": [{"group": {"by": "size", "agg": {"n": "count"}}}]}"#,
        );
        let enc = EncodingParams::default();
        assert!(matches!(
            engine.carve_query_encoded(&q, Some(&enc)),
            Err(CarveError::InvalidParams(_))
        ));
        // Nothing was cached under the encoded key.
        assert!(matches!(
            engine.carve_query_encoded(&q, Some(&enc)),
            Err(CarveError::InvalidParams(_))
        ));
        assert_eq!(engine.cache_stats().entries, 0);
        // The plaintext form still works.
        assert_eq!(engine.carve_query(&q).unwrap().status, CacheStatus::Miss);
    }
}
