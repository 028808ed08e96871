//! Property tests: random churn driven through the shard engine, the
//! change stream, incremental scoring and the carve engine's
//! delta-aware publish — asserting, at every committed version, that
//!
//! * the stream classifies every touched cluster correctly
//!   (founded vs revised, first-touch order, exact row counts),
//! * [`nc_core::scoring::score_clusters_incremental`] over the
//!   stream-derived dirty set is **bit-identical** to a full scoring
//!   pass,
//! * NC1–NC3 carves and a CLK-encoded NC2 carve served through a
//!   delta-published [`nc_serve::CarveEngine`] (including
//!   carry-forward cache hits, re-keyed with their encoding) are
//!   **byte-identical** to fresh carves of the same snapshot,
//! * the engine's query catalog — carried forward across revise-only
//!   publishes, built in full otherwise — equals
//!   [`nc_query::ClusterCatalog::build`] on that snapshot by rendered
//!   bytes, executes indexed matches like it, and serves query carves,
//!   plaintext and encoded, byte-identical to a cold, cache-less engine,
//! * pinned re-reads of every version, after all the churn, serve the
//!   bytes each carve and query carve served at that version,
//! * the engine's pair table — carried or built the same way — equals
//!   [`nc_core::heterogeneity::PairTable::build`] on that snapshot by
//!   bits,
//! * replaying the stream from scratch, from `open_at`, or from a
//!   saved cursor reproduces the same batches.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use nc_core::customize::CustomizeParams;
use nc_core::heterogeneity::PairTable;
use nc_core::plausibility::PlausibilityScorer;
use nc_core::record::DedupPolicy;
use nc_core::scoring::{score_clusters, score_clusters_incremental, ClusterScore, ScoringConfig};
use nc_core::tsv::{write_snapshot, ImportOptions};
use nc_docstore::query::Filter;
use nc_pprl::EncodingParams;
use nc_propcheck::check_n;
use nc_query::{execute, CarveQuery, ClusterCatalog, ExecOptions, QueryStage};
use nc_serve::{CarveEngine, CarveRequest, ServeSnapshot, SnapshotRegistry};
use nc_shard::{ShardEngine, ShardEngineConfig};
use nc_stream::{fold_delta, ChangeKind, ChangeStream};
use nc_votergen::schema::{Row, FIRST_NAME, LAST_NAME, NCID};
use nc_votergen::snapshot::Snapshot;

static CASE: AtomicUsize = AtomicUsize::new(0);

fn scratch_dir(label: &str) -> PathBuf {
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let mut dir = std::env::temp_dir();
    dir.push(format!(
        "nc_stream_{label}_{}_{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One churn snapshot: each touch appends one fresh row to cluster
/// `NC<id>`; ids never seen before found new clusters.
fn churn_snapshot(index: usize, touches: &[u32]) -> Snapshot {
    let date = format!("2020-01-{:02}", index);
    let rows = touches
        .iter()
        .enumerate()
        .map(|(i, id)| {
            let mut row = Row::empty();
            row.set(NCID, format!("NC{id:04}"));
            row.set(FIRST_NAME, "AVA");
            row.set(LAST_NAME, format!("L{index}_{i}"));
            row
        })
        .collect();
    Snapshot {
        index,
        date,
        rows,
    }
}

fn assert_scores_bit_equal(full: &[ClusterScore], inc: &[ClusterScore]) {
    assert_eq!(full.len(), inc.len());
    for (f, i) in full.iter().zip(inc) {
        assert_eq!(f.ncid, i.ncid);
        assert_eq!(f.records, i.records);
        assert_eq!(f.plausibility.to_bits(), i.plausibility.to_bits());
        assert_eq!(f.heterogeneity.to_bits(), i.heterogeneity.to_bits());
    }
}

/// Every record line of a carve, rendered for byte comparison.
fn carve_lines(engine: &CarveEngine, request: &CarveRequest) -> Vec<String> {
    let outcome = engine.carve(request).expect("carve");
    outcome.result.page(0, usize::MAX).to_vec()
}

/// The NC1–NC3 presets in plaintext, and NC2 CLK-encoded under a
/// per-case key.
fn preset_requests(seed: u64) -> Vec<CarveRequest> {
    let clk = EncodingParams {
        key: seed,
        ..EncodingParams::default()
    };
    [
        (CustomizeParams::nc1(12, 5, seed), None),
        (CustomizeParams::nc2(12, 5, seed), None),
        (CustomizeParams::nc3(12, 5, seed), None),
        (CustomizeParams::nc2(12, 5, seed), Some(clk)),
    ]
    .into_iter()
    .map(|(params, encoding)| CarveRequest {
        version: None,
        params,
        page: 0,
        page_size: usize::MAX,
        encoding,
    })
    .collect()
}

/// Query carves over indexed, scanned and scorer-dependent fields, and
/// a cluster-output one CLK-encoded.
fn query_requests() -> Vec<(CarveQuery, Option<EncodingParams>)> {
    [
        (r#"{"pipeline": [{"match": {"size": {"gte": 2}}}]}"#, None),
        (r#"{"pipeline": [{"match": {"het": {"gt": 0.0}}}, {"sort": {"by": "het", "descending": true}}, {"limit": 5}]}"#, None),
        (r#"{"pipeline": [{"match": {"errors.total": {"gte": 1}}}, {"group": {"by": "size", "agg": {"n": "count"}}}]}"#, None),
        (r#"{"pipeline": [{"match": {"size": {"gte": 2}}}, {"sort": {"by": "het"}}]}"#, Some(EncodingParams::default())),
    ]
    .into_iter()
    .map(|(body, encoding)| {
        (CarveQuery::parse(body.as_bytes()).expect("test query parses"), encoding)
    })
    .collect()
}

/// Every line of a query carve.
fn query_lines(
    engine: &CarveEngine,
    query: &CarveQuery,
    encoding: Option<&EncodingParams>,
) -> Vec<String> {
    let outcome = engine
        .carve_query_encoded(query, encoding)
        .expect("query carve");
    outcome.result.lines.clone()
}

/// The serving catalog of the current version against a from-scratch
/// build: the same rendered documents by position, and the same
/// `execute` outcome — explain, positions, rendered documents and
/// matched set — for a match on every indexed path, whose
/// (possibly copied-and-patched) sorted permutations answer it.
fn assert_catalog_matches_fresh_build(serving: &CarveEngine) {
    let current = serving.registry().current();
    let served = current.catalog();
    let fresh = ClusterCatalog::build(current.store(), current.scorer());
    let docs = |catalog: &ClusterCatalog| -> Vec<(usize, String)> {
        catalog.documents().map(|(pos, doc)| (pos, doc.to_json())).collect()
    };
    assert_eq!(docs(served), docs(&fresh), "version {}", current.version());
    // Filter operands come from a real document so they hit postings.
    let probe = fresh.doc(0).expect("non-empty store");
    let het = probe.get_f64("het").unwrap();
    let last = probe.get_str("snapshot.last").unwrap();
    let filters = [
        Filter::eq("ncid", probe.get_str("ncid").unwrap()),
        Filter::eq("size", probe.get_i64("size").unwrap()),
        Filter::gte("size", 2_i64),
        Filter::gte("het", het),
        Filter::lt("het", het),
        Filter::lte("plaus", probe.get_f64("plaus").unwrap()),
        Filter::eq("snapshot.first", probe.get_str("snapshot.first").unwrap()),
        Filter::between("snapshot.last", "", last),
    ];
    let outcome = |catalog: &ClusterCatalog, query: &CarveQuery| {
        let out = execute(catalog, query, ExecOptions::default());
        let docs: Vec<String> = out.docs.iter().map(|d| d.to_json()).collect();
        (out.explain.render_json(), out.positions, docs, out.matched)
    };
    for filter in filters {
        let query = CarveQuery {
            version: None,
            stages: vec![QueryStage::Match(filter)],
        };
        assert_eq!(
            outcome(served, &query),
            outcome(&fresh, &query),
            "catalogs disagree on {query:?} at version {}",
            current.version()
        );
    }
}

/// The serving pair table of the current version (carried or built)
/// against a from-scratch build, by bits.
fn assert_pair_table_matches_fresh_build(serving: &CarveEngine) {
    let current = serving.registry().current();
    let fresh = PairTable::build(current.store().clusters(), current.scorer());
    assert!(
        current.pair_table().bit_eq(&fresh),
        "pair table drifted at version {}",
        current.version()
    );
}

#[test]
fn churn_streams_score_and_carve_bit_identically() {
    // Each case runs an engine, a stream and a carve service on disk.
    check_n("churn_streams_score_and_carve_bit_identically", 24, |g| {
        let shards = g.range(1usize..4);
        let seed = g.range(0u64..1_000);
        // The first snapshot must found at least one cluster so every
        // published version has a scorable, carvable store.
        let mut plan = g.vec(2..5, |g| g.vec(0..16, |g| g.range(0..24u32)));
        plan[0].push(0);
        // And the last one only revises that cluster, so at least one
        // publish carries the catalog forward.
        plan.push(vec![0]);

        let state_dir = scratch_dir("state");
        let archive_dir = scratch_dir("archive");
        let config = ShardEngineConfig::new(shards, DedupPolicy::Trimmed, 1);
        let mut engine = ShardEngine::open(&state_dir, config).unwrap();
        let mut stream = ChangeStream::open(&state_dir);

        let plausibility = PlausibilityScorer::new();
        let scoring = ScoringConfig::with_threads(1);

        let mut model_known: HashSet<String> = HashSet::new();
        let mut all_batches = Vec::new();
        let mut carve_engine: Option<CarveEngine> = None;
        let mut previous_scores: Vec<ClusterScore> = Vec::new();
        let mut expected_carves: HashMap<(u32, usize), Vec<String>> = HashMap::new();
        let mut expected_queries: HashMap<(u32, usize), Vec<String>> = HashMap::new();

        for (i, touches) in plan.iter().enumerate() {
            let version = (i + 1) as u32;
            let snapshot = churn_snapshot(i + 1, touches);
            write_snapshot(&archive_dir, &snapshot).unwrap();
            engine.ingest_archive(&archive_dir, &ImportOptions::strict()).unwrap();

            // Exactly one new committed snapshot; classification must
            // match the model exactly, in first-touch order.
            let batches = stream.drain().unwrap();
            assert_eq!(batches.len(), 1);
            let batch = &batches[0];
            assert_eq!(batch.index, i + 1);
            assert_eq!(&batch.date, &snapshot.date);
            assert_eq!(batch.rows, touches.len() as u64);
            let mut expected_order: Vec<String> = Vec::new();
            let mut expected_rows: HashMap<String, u64> = HashMap::new();
            for id in touches {
                let ncid = format!("NC{id:04}");
                if !expected_rows.contains_key(&ncid) {
                    expected_order.push(ncid.clone());
                }
                *expected_rows.entry(ncid).or_insert(0) += 1;
            }
            assert_eq!(batch.changes.len(), expected_order.len());
            for (change, ncid) in batch.changes.iter().zip(&expected_order) {
                assert_eq!(&change.ncid, ncid);
                assert_eq!(change.rows, expected_rows[ncid]);
                let expected_kind = if model_known.contains(ncid) {
                    ChangeKind::Revised
                } else {
                    ChangeKind::Founded
                };
                assert_eq!(change.kind, expected_kind);
            }
            model_known.extend(expected_order.iter().cloned());

            // Incremental scoring over the stream's dirty set splices
            // bit-identically to a full pass.
            let delta = fold_delta(&batches, version);
            let dirty: HashSet<String> =
                delta.dirty_clusters().map(str::to_owned).collect();
            let published = engine.publish(version);
            let entropy = published.entropy_scorer(nc_core::heterogeneity::Scope::Person);
            let full = score_clusters(
                published.clusters(), &plausibility, &entropy, &scoring,
            );
            let incremental = score_clusters_incremental(
                published.clusters(), &previous_scores, &dirty,
                &plausibility, &entropy, &scoring,
            );
            assert_scores_bit_equal(&full, &incremental);
            previous_scores = full;

            // Publish into the carve engine with the folded delta (the
            // first version seeds the registry), then compare NC1–NC3
            // carves — cached, carried forward or fresh — against an
            // uncached engine over the same snapshot.
            let serving = match &carve_engine {
                None => {
                    let registry = Arc::new(SnapshotRegistry::new(
                        ServeSnapshot::new(published.clone()),
                    ));
                    carve_engine = Some(CarveEngine::new(registry, 16));
                    carve_engine.as_ref().unwrap()
                }
                Some(serving) => {
                    serving.publish(ServeSnapshot::new(published.clone()), Some(delta));
                    serving
                }
            };
            // Checked before any carve at this version could build it.
            assert_pair_table_matches_fresh_build(serving);
            let fresh = CarveEngine::new(
                Arc::new(SnapshotRegistry::new(ServeSnapshot::new(published))),
                0,
            );
            for (p, request) in preset_requests(seed).iter().enumerate() {
                let served = carve_lines(serving, request);
                let direct = carve_lines(&fresh, request);
                assert_eq!(&served, &direct,
                    "preset {} differs at version {}", p, version);
                expected_carves.insert((version, p), served);
            }
            // Query carves run on the engine's catalog; the first one at
            // version 1 builds it, so later revise-only publishes have a
            // catalog to carry.
            for (q, (query, encoding)) in query_requests().iter().enumerate() {
                let served = serving
                    .carve_query_encoded(query, encoding.as_ref())
                    .expect("query carve");
                let direct = query_lines(&fresh, query, encoding.as_ref());
                assert_eq!(served.version, version);
                assert_eq!(&served.result.lines, &direct,
                    "query {} differs at version {}", q, version);
                expected_queries.insert((version, q), direct);
            }
            assert_catalog_matches_fresh_build(serving);
            all_batches.extend(batches);
        }

        let stats = carve_engine.as_ref().unwrap().delta_stats();
        assert!(
            stats.catalog_carried >= 1 && stats.pairs_carried >= 1,
            "the closing revise-only publish carries the catalog and the pair table"
        );

        // Pinned re-reads of every historical version stay byte-stable
        // after all the churn (cache entries may have been carried
        // forward or invalidated in between).
        let serving = carve_engine.as_ref().unwrap();
        for ((version, p), expected) in &expected_carves {
            let mut request = preset_requests(seed).swap_remove(*p);
            request.version = Some(*version);
            let lines = carve_lines(serving, &request);
            assert_eq!(&lines, expected,
                "pinned carve of preset {} at version {} drifted", p, version);
        }
        for ((version, q), expected) in &expected_queries {
            let (mut query, encoding) = query_requests().swap_remove(*q);
            query.version = Some(*version);
            let lines = query_lines(serving, &query, encoding.as_ref());
            assert_eq!(&lines, expected,
                "pinned query carve {} at version {} drifted", q, version);
        }

        // Replay equivalence: from scratch, from open_at, and from a
        // saved cursor, the stream reproduces the same batches.
        let replayed = ChangeStream::open(&state_dir).drain().unwrap();
        assert_eq!(&replayed, &all_batches);

        let mid = all_batches.len() / 2;
        let tail = ChangeStream::open_at(&state_dir, mid).unwrap().drain().unwrap();
        assert_eq!(&tail, &all_batches[mid..].to_vec());

        let cursor_path = state_dir.join("consumer.cursor");
        let parked = ChangeStream::open_at(&state_dir, mid).unwrap();
        assert_eq!(parked.cursor_version(), mid);
        parked.save_cursor(&cursor_path).unwrap();
        let mut resumed = ChangeStream::resume(&state_dir, &cursor_path).unwrap();
        assert_eq!(&resumed.drain().unwrap(), &all_batches[mid..].to_vec());

        let _ = std::fs::remove_dir_all(&state_dir);
        let _ = std::fs::remove_dir_all(&archive_dir);
    });
}
