//! End-to-end tests of the carving service: concurrent carves pinned to
//! a version are bit-identical to calling `customize` directly, pages
//! reassemble losslessly, the cache engages, old versions stay
//! pinnable after a publish, and shutdown is graceful.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use nc_suite::core::cluster::ClusterStore;
use nc_suite::core::customize::{customize, CustomizeParams};
use nc_suite::core::heterogeneity::{AttributeWeights, HeterogeneityScorer, PairTable, Scope};
use nc_suite::core::pipeline::{GenerationConfig, TestDataGenerator};
use nc_suite::core::record::DedupPolicy;
use nc_suite::serve::{
    CarveResult, PublishDelta, Server, ServerHandle, ServeConfig, ServeSnapshot, ServeState,
    SnapshotRegistry,
};
use nc_suite::votergen::config::GeneratorConfig;

fn build_store(seed: u64, population: usize, snapshots: usize) -> ClusterStore {
    TestDataGenerator::run(GenerationConfig {
        generator: GeneratorConfig {
            seed,
            initial_population: population,
            ..Default::default()
        },
        policy: DedupPolicy::Trimmed,
        snapshots,
    })
    .store
}

/// The same scorer derivation the serve layer uses: entropy weights
/// from one record per cluster, person scope.
fn scorer_for(store: &ClusterStore) -> HeterogeneityScorer {
    let firsts = store.iter_clusters().map(|(_, rows)| &rows[0]);
    HeterogeneityScorer::new(AttributeWeights::from_rows(Scope::Person, firsts))
}

fn spawn_server(registry: SnapshotRegistry) -> (Arc<ServeState>, ServerHandle) {
    let state = Arc::new(ServeState::new(Arc::new(registry), ServeConfig::default()));
    let handle = Server::spawn(Arc::clone(&state)).expect("bind ephemeral port");
    (state, handle)
}

/// A minimal HTTP/1.1 response as seen by the tests.
struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Send one raw request and read the (Connection: close) response.
fn send(addr: SocketAddr, raw: &str) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("write request");
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).expect("read response");
    let text = String::from_utf8(buf).expect("utf-8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("response head");
    let mut lines = head.split("\r\n");
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Reply {
        status,
        headers,
        body: body.to_string(),
    }
}

fn get(addr: SocketAddr, target: &str) -> Reply {
    send(addr, &format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

fn post_form(addr: SocketAddr, target: &str, form: &str) -> Reply {
    send(
        addr,
        &format!(
            "POST {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{form}",
            form.len()
        ),
    )
}

fn post_json(addr: SocketAddr, target: &str, body: &str) -> Reply {
    send(
        addr,
        &format!(
            "POST {target} HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

#[test]
fn carve_by_query_plans_executes_and_caches() {
    let store = build_store(32, 300, 8);
    let (_state, handle) = spawn_server(SnapshotRegistry::new(ServeSnapshot::capture(&store, 1)));
    let addr = handle.addr();

    let q = r#"{"pipeline": [
        {"match": {"size": {"gte": 2}, "plaus": {"lt": 1.0}}},
        {"sample": {"size": 10, "seed": 7}}
    ]}"#;

    // The plan never falls back to a full scan: both conjuncts ride
    // ordered indexes.
    let explain = post_json(addr, "/carve/explain", q);
    assert_eq!(explain.status, 200, "{}", explain.body);
    assert_eq!(
        explain.header("content-type"),
        Some("application/json; charset=utf-8")
    );
    assert!(explain.body.contains("\"full_scan\":false"), "{}", explain.body);
    assert!(explain.body.contains("\"indexed-range\""), "{}", explain.body);
    assert!(explain.body.contains("\"indexed_conjuncts\":2"), "{}", explain.body);

    // Cold execution, then a byte-identical warm replay.
    let cold = post_json(addr, "/carve", q);
    assert_eq!(cold.status, 200, "{}", cold.body);
    assert_eq!(cold.header("x-cache"), Some("miss"));
    assert_eq!(cold.header("x-version"), Some("1"));
    assert!(!cold.body.is_empty(), "selective query should carve records");
    let records: usize = cold.header("x-total-records").unwrap().parse().unwrap();
    assert_eq!(cold.body.lines().count(), records);

    let warm = post_json(addr, "/carve", q);
    assert_eq!(warm.header("x-cache"), Some("hit"));
    assert_eq!(warm.body, cold.body, "replay must be bit-identical");

    // A reformatted body (different key order, different whitespace)
    // canonicalizes onto the same cache entry.
    let reformatted = r#"{"pipeline":[{"match":{"plaus":{"lt":1.0},"size":{"gte":2}}},{"sample":{"seed":7,"size":10}}]}"#;
    let same = post_json(addr, "/carve", reformatted);
    assert_eq!(same.header("x-cache"), Some("hit"));
    assert_eq!(same.body, cold.body);

    // The planner counters are exported.
    let metrics = get(addr, "/metrics");
    let indexed: u64 = metrics
        .body
        .lines()
        .find_map(|l| l.strip_prefix("nc_query_conjuncts_indexed_total "))
        .expect("query counter exported")
        .parse()
        .unwrap();
    assert!(indexed >= 2, "{indexed}");

    // Document pipelines come back as canonical JSON objects.
    let count = post_json(addr, "/carve", r#"{"pipeline": [{"count": true}]}"#);
    assert_eq!(count.status, 200, "{}", count.body);
    assert_eq!(
        count.body.trim(),
        format!("{{\"count\":{}}}", store.cluster_ids().len())
    );

    // Method guard on the explain route.
    assert_eq!(get(addr, "/carve/explain").status, 405);

    handle.shutdown();
}

#[test]
fn query_errors_are_typed_json_with_positions() {
    let store = build_store(33, 200, 5);
    let (_state, handle) = spawn_server(SnapshotRegistry::new(ServeSnapshot::capture(&store, 1)));
    let addr = handle.addr();

    // Malformed JSON: the 400 body carries the byte offset.
    let bad_json = post_json(addr, "/carve", r#"{"pipeline": [}"#);
    assert_eq!(bad_json.status, 400, "{}", bad_json.body);
    assert_eq!(
        bad_json.header("content-type"),
        Some("application/json; charset=utf-8")
    );
    assert!(bad_json.body.contains("\"kind\":\"json\""), "{}", bad_json.body);
    assert!(bad_json.body.contains("\"offset\":14"), "{}", bad_json.body);

    // Structurally invalid: the body names the offending stage index.
    let bad_stage = post_json(
        addr,
        "/carve",
        r#"{"pipeline": [{"limit": 3}, {"frobnicate": {}}]}"#,
    );
    assert_eq!(bad_stage.status, 400);
    assert!(bad_stage.body.contains("\"kind\":\"structure\""), "{}", bad_stage.body);
    assert!(bad_stage.body.contains("\"stage\":1"), "{}", bad_stage.body);

    // Validation failure: stage index plus the dotted field path.
    let bad_field = post_json(
        addr,
        "/carve",
        r#"{"pipeline": [{"match": {"sizes": {"gte": 2}}}]}"#,
    );
    assert_eq!(bad_field.status, 400);
    assert!(bad_field.body.contains("\"kind\":\"validation\""), "{}", bad_field.body);
    assert!(bad_field.body.contains("\"path\":\"sizes\""), "{}", bad_field.body);

    // Unknown pinned version: 404 with the same typed shape.
    let unknown = post_json(addr, "/carve", r#"{"version": 9, "pipeline": [{"count": true}]}"#);
    assert_eq!(unknown.status, 404);
    assert!(unknown.body.contains("\"kind\":\"unknown-version\""), "{}", unknown.body);
    let unknown = post_json(addr, "/carve/explain", r#"{"version": 9, "pipeline": []}"#);
    assert_eq!(unknown.status, 404);

    // The form-encoded knob path still works beside the JSON path.
    let form = post_form(addr, "/carve", "preset=nc1&sample=50&output=10");
    assert_eq!(form.status, 200, "{}", form.body);

    handle.shutdown();
}

#[test]
fn body_cap_is_configurable_and_answers_413_json() {
    let store = build_store(34, 200, 5);
    let config = ServeConfig {
        max_body_bytes: 96,
        ..ServeConfig::default()
    };
    let state = Arc::new(ServeState::new(
        Arc::new(SnapshotRegistry::new(ServeSnapshot::capture(&store, 1))),
        config,
    ));
    let handle = Server::spawn(Arc::clone(&state)).expect("bind ephemeral port");
    let addr = handle.addr();

    let small = r#"{"pipeline": [{"count": true}]}"#;
    assert!(small.len() <= 96);
    assert_eq!(post_json(addr, "/carve", small).status, 200);

    let big = format!(
        r#"{{"pipeline": [{{"match": {{"ncid": {{"eq": "{}"}}}}}}]}}"#,
        "X".repeat(96)
    );
    let rejected = post_json(addr, "/carve", &big);
    assert_eq!(rejected.status, 413, "{}", rejected.body);
    assert_eq!(
        rejected.header("content-type"),
        Some("application/json; charset=utf-8")
    );
    assert!(rejected.body.contains("\"kind\":\"too-large\""), "{}", rejected.body);
    assert!(rejected.body.contains("96"), "{}", rejected.body);

    // The connection-level rejection leaves the service healthy.
    assert_eq!(get(addr, "/healthz").status, 200);

    handle.shutdown();
}

#[test]
fn query_carve_survives_non_intersecting_publish() {
    let store = build_store(35, 300, 8);
    let (state, handle) = spawn_server(SnapshotRegistry::new(ServeSnapshot::capture(&store, 1)));
    let addr = handle.addr();

    // Pick a real cluster and pin the query to it by ncid.
    let snapshot = state.registry().current();
    let target = snapshot.store().clusters()[0].0.clone();
    let other = snapshot.store().clusters()[1].0.clone();
    let q = format!(
        r#"{{"pipeline": [{{"match": {{"ncid": {{"eq": "{target}"}}}}}}]}}"#
    );

    let cold = post_json(addr, "/carve", &q);
    assert_eq!(cold.status, 200, "{}", cold.body);
    assert_eq!(cold.header("x-cache"), Some("miss"));
    assert_eq!(cold.header("x-matched-clusters"), Some("1"));

    // Publish v2 with a delta that revises a *different* cluster: the
    // cached query carve provably cannot change and is carried forward.
    state.publish(
        ServeSnapshot::capture(&store, 2),
        Some(PublishDelta {
            version: 2,
            date: "s9".to_string(),
            founded: Vec::new(),
            revised: vec![other],
        }),
    );

    let after = post_json(addr, "/carve", &q);
    assert_eq!(after.status, 200, "{}", after.body);
    assert_eq!(after.header("x-cache"), Some("hit"), "carried forward");
    assert_eq!(after.header("x-version"), Some("2"));
    assert_eq!(after.body, cold.body, "bit-identical across the publish");

    // A delta revising the matched cluster itself invalidates the entry.
    state.publish(
        ServeSnapshot::capture(&store, 3),
        Some(PublishDelta {
            version: 3,
            date: "s10".to_string(),
            founded: Vec::new(),
            revised: vec![target],
        }),
    );
    let recomputed = post_json(addr, "/carve", &q);
    assert_eq!(recomputed.header("x-cache"), Some("miss"));
    assert_eq!(recomputed.body, cold.body, "same store contents, same carve");

    handle.shutdown();
}

#[test]
fn concurrent_carves_match_direct_customize_bit_for_bit() {
    let store = build_store(21, 400, 10);
    let scorer = scorer_for(&store);
    let params = CustomizeParams {
        h_low: 0.0,
        h_high: 0.5,
        sample_clusters: 200,
        output_clusters: 40,
        seed: 5,
    };
    let direct = customize(&store, &scorer, &params);
    let mut expected = CarveResult::render(1, &params, None, &direct).lines.join("\n");
    if !expected.is_empty() {
        expected.push('\n');
    }

    let (_state, handle) = spawn_server(SnapshotRegistry::new(ServeSnapshot::capture(&store, 1)));
    let addr = handle.addr();
    let form = format!(
        "version=1&h_low={}&h_high={}&sample={}&output={}&seed={}&page_size=10000",
        params.h_low, params.h_high, params.sample_clusters, params.output_clusters, params.seed
    );

    let total_records = direct.record_count();
    std::thread::scope(|scope| {
        for _ in 0..6 {
            let expected = &expected;
            let form = &form;
            scope.spawn(move || {
                let reply = post_form(addr, "/carve", form);
                assert_eq!(reply.status, 200, "{}", reply.body);
                assert_eq!(reply.header("x-version"), Some("1"));
                assert_eq!(
                    reply.header("x-total-records"),
                    Some(total_records.to_string().as_str())
                );
                assert_eq!(&reply.body, expected, "carve differs from direct customize");
            });
        }
    });

    handle.shutdown();
}

#[test]
fn pages_reassemble_the_full_carve() {
    let store = build_store(22, 300, 8);
    let (_state, handle) = spawn_server(SnapshotRegistry::new(ServeSnapshot::capture(&store, 1)));
    let addr = handle.addr();

    let full = get(addr, "/datasets/nc3?seed=3&sample=150&output=30&page_size=10000");
    assert_eq!(full.status, 200);
    let total: usize = full.header("x-total-records").unwrap().parse().unwrap();
    assert!(total > 0, "carve should produce records");

    let mut reassembled = String::new();
    let mut page = 0;
    loop {
        let reply = get(
            addr,
            &format!("/datasets/nc3?seed=3&sample=150&output=30&page_size=7&page={page}"),
        );
        assert_eq!(reply.status, 200);
        let got: usize = reply.header("x-page-records").unwrap().parse().unwrap();
        if got == 0 {
            break;
        }
        assert!(got <= 7);
        reassembled.push_str(&reply.body);
        page += 1;
    }
    assert_eq!(reassembled, full.body, "paged body differs from full body");
    assert_eq!(page, total.div_ceil(7));

    handle.shutdown();
}

#[test]
fn cache_serves_repeats_and_counts_hits() {
    let store = build_store(23, 300, 8);
    let (state, handle) = spawn_server(SnapshotRegistry::new(ServeSnapshot::capture(&store, 1)));
    let addr = handle.addr();

    let cold = get(addr, "/datasets/nc1?seed=8&sample=100&output=20");
    assert_eq!(cold.status, 200);
    assert_eq!(cold.header("x-cache"), Some("miss"));

    let warm = get(addr, "/datasets/nc1?seed=8&sample=100&output=20");
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("x-cache"), Some("hit"));
    assert_eq!(warm.body, cold.body);

    // Pagination hits the same cache entry instead of re-carving.
    let paged = get(addr, "/datasets/nc1?seed=8&sample=100&output=20&page_size=5&page=1");
    assert_eq!(paged.header("x-cache"), Some("hit"));

    let stats = state.engine().cache_stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, 2);

    let metrics = get(addr, "/metrics");
    assert_eq!(metrics.status, 200);
    assert!(metrics.body.contains("nc_serve_cache_hits_total 2\n"));
    assert!(metrics.body.contains("nc_serve_cache_misses_total 1\n"));
    assert!(metrics
        .body
        .contains("nc_serve_endpoint_requests_total{endpoint=\"datasets\"} 3\n"));

    handle.shutdown();
}

/// A version's pair scores are computed once: the first carve of a
/// version that could not be carried scores its table, a revise-only
/// publish carries the previous table, and the carves and the catalog
/// build after a carry score nothing.
#[test]
fn pair_table_is_built_once_and_carried_across_revise_only_publishes() {
    let store = build_store(36, 300, 8);
    let (state, handle) = spawn_server(SnapshotRegistry::new(ServeSnapshot::capture(&store, 1)));
    let addr = handle.addr();
    let counts = || {
        let stats = state.engine().delta_stats();
        (stats.pairs_built, stats.pairs_carried)
    };
    let carve = |seed: u32| {
        let reply = get(
            addr,
            &format!("/datasets/nc2?seed={seed}&sample=100&output=20"),
        );
        assert_eq!(reply.status, 200, "{}", reply.body);
        assert_eq!(reply.header("x-cache"), Some("miss"));
    };
    carve(1);
    assert_eq!(counts(), (1, 0), "the first carve scores version 1");

    // A founding publish moves positions and weights: nothing carries,
    // and the first carve at version 2 scores its table.
    let ncids: Vec<String> = store.iter_clusters().map(|(n, _)| n.to_owned()).collect();
    state.publish(
        ServeSnapshot::capture(&store, 2),
        Some(PublishDelta {
            version: 2,
            date: "s9".to_string(),
            founded: vec![ncids[0].clone()],
            revised: Vec::new(),
        }),
    );
    assert_eq!(counts(), (1, 0));
    carve(2);
    assert_eq!(counts(), (2, 0), "one build for a carved founding publish");

    // A revise-only publish carries version 2's table; neither a carve
    // nor the catalog build at version 3 scores one.
    state.publish(
        ServeSnapshot::capture(&store, 3),
        Some(PublishDelta {
            version: 3,
            date: "s10".to_string(),
            founded: Vec::new(),
            revised: vec![ncids[1].clone()],
        }),
    );
    assert_eq!(counts(), (2, 1), "one carry for a revise-only publish");
    carve(3);
    let query = post_json(
        addr,
        "/carve",
        r#"{"pipeline": [{"match": {"size": {"gte": 2}}}]}"#,
    );
    assert_eq!(query.status, 200, "{}", query.body);
    assert_eq!(counts(), (2, 1), "zero builds after a carry");

    let current = state.registry().current();
    let fresh = PairTable::build(current.store().clusters(), current.scorer());
    assert!(
        current.pair_table().bit_eq(&fresh),
        "the carried table is a fresh build"
    );

    let metrics = get(addr, "/metrics");
    assert!(metrics.body.contains("nc_serve_pair_table_built_total 2\n"));
    assert!(metrics
        .body
        .contains("nc_serve_pair_table_carried_total 1\n"));
    handle.shutdown();
}

#[test]
fn publish_swaps_current_while_old_versions_stay_pinnable() {
    let store_v1 = build_store(24, 250, 6);
    let store_v2 = build_store(25, 350, 6);
    let (state, handle) = spawn_server(SnapshotRegistry::new(ServeSnapshot::capture(&store_v1, 1)));
    let addr = handle.addr();

    let before = get(addr, "/datasets/nc2?seed=2&sample=100&output=20");
    assert_eq!(before.header("x-version"), Some("1"));

    state.registry().publish(ServeSnapshot::capture(&store_v2, 2));

    // Unpinned requests now carve the new version...
    let after = get(addr, "/datasets/nc2?seed=2&sample=100&output=20");
    assert_eq!(after.header("x-version"), Some("2"));
    // ...while the old version stays addressable and bit-stable.
    let pinned = get(addr, "/datasets/nc2?seed=2&sample=100&output=20&version=1");
    assert_eq!(pinned.header("x-version"), Some("1"));
    assert_eq!(pinned.header("x-cache"), Some("hit"), "same carve as `before`");
    assert_eq!(pinned.body, before.body);

    // Never-published versions are a 404.
    let missing = get(addr, "/datasets/nc2?version=9");
    assert_eq!(missing.status, 404);

    let health = get(addr, "/healthz");
    assert_eq!(health.status, 200);
    assert!(health.body.starts_with("ok\nversion 2\n"));

    handle.shutdown();
}

/// Reassemble a `Transfer-Encoding: chunked` body: strip the hex size
/// lines and the zero-length terminator.
fn dechunk(body: &str) -> String {
    let mut out = String::new();
    let mut rest = body;
    loop {
        let (size_line, tail) = rest.split_once("\r\n").expect("chunk size line");
        let size = usize::from_str_radix(size_line.trim(), 16).expect("hex chunk size");
        if size == 0 {
            break;
        }
        out.push_str(&tail[..size]);
        rest = &tail[size + 2..]; // skip the chunk's trailing CRLF
    }
    out
}

#[test]
fn watch_streams_deltas_as_chunked_json_lines() {
    let store = build_store(31, 250, 6);
    let (state, handle) = spawn_server(SnapshotRegistry::new(ServeSnapshot::capture(&store, 1)));
    let addr = handle.addr();

    // A subscriber already at the current version gets an empty window.
    let current = get(addr, "/watch?from=1");
    assert_eq!(current.status, 200, "{}", current.body);
    assert_eq!(current.header("transfer-encoding"), Some("chunked"));
    assert_eq!(current.header("x-version"), Some("1"));
    assert_eq!(current.header("x-deltas"), Some("0"));
    assert_eq!(dechunk(&current.body), "{\"from\":1,\"current\":1,\"deltas\":0}\n");

    // Publish v2 with a recorded delta; the window now carries it.
    state.publish(
        ServeSnapshot::capture(&store, 2),
        Some(PublishDelta {
            version: 2,
            date: "s2".to_string(),
            founded: vec!["F1".to_string()],
            revised: vec!["C1".to_string(), "C2".to_string()],
        }),
    );
    let caught_up = get(addr, "/watch?from=1");
    assert_eq!(caught_up.status, 200, "{}", caught_up.body);
    assert_eq!(caught_up.header("x-version"), Some("2"));
    assert_eq!(caught_up.header("x-deltas"), Some("1"));
    assert_eq!(
        dechunk(&caught_up.body),
        "{\"from\":1,\"current\":2,\"deltas\":1}\n\
         {\"version\":2,\"date\":\"s2\",\"founded\":[\"F1\"],\"revised\":[\"C1\",\"C2\"]}\n"
    );

    // Version 1 was published without a delta, so a subscriber from 0
    // hits a hole in the chain and must re-fetch a full carve.
    let gapped = get(addr, "/watch?from=0");
    assert_eq!(gapped.status, 410, "{}", gapped.body);
    assert_eq!(gapped.header("x-version"), Some("2"));

    // Parameter validation and method guard.
    assert_eq!(get(addr, "/watch").status, 400);
    assert_eq!(get(addr, "/watch?from=banana").status, 400);
    assert_eq!(get(addr, "/watch?from=1&bogus=1").status, 400);
    assert_eq!(
        send(addr, "POST /watch HTTP/1.1\r\nHost: t\r\n\r\n").status,
        405
    );

    let metrics = get(addr, "/metrics");
    assert!(metrics
        .body
        .contains("nc_serve_endpoint_requests_total{endpoint=\"watch\"} 6\n"));

    handle.shutdown();
}

#[test]
fn error_paths_return_4xx_not_5xx() {
    let store = build_store(26, 200, 5);
    let (_state, handle) = spawn_server(SnapshotRegistry::new(ServeSnapshot::capture(&store, 1)));
    let addr = handle.addr();

    assert_eq!(get(addr, "/no/such/route").status, 404);
    assert_eq!(get(addr, "/datasets/nc9").status, 400);
    assert_eq!(get(addr, "/datasets/nc1?frobnicate=1").status, 400);
    assert_eq!(get(addr, "/datasets/nc1?h_low=0.9&h_high=0.1").status, 400);
    assert_eq!(get(addr, "/datasets/nc1?page_size=0").status, 400);
    assert_eq!(get(addr, "/datasets/nc1?seed=NaN").status, 400);
    // Wrong method — on fixed routes and on the /datasets/* prefix alike.
    assert_eq!(get(addr, "/carve").status, 405);
    assert_eq!(
        send(addr, "DELETE /healthz HTTP/1.1\r\nHost: t\r\n\r\n").status,
        405
    );
    assert_eq!(
        send(addr, "POST /datasets/nc1 HTTP/1.1\r\nHost: t\r\n\r\n").status,
        405
    );
    // Not HTTP at all.
    assert_eq!(send(addr, "gibberish\r\n\r\n").status, 400);
    // A multibyte char straddling a percent escape must be answered
    // (400), not panic the worker; the server must still serve after.
    assert_eq!(get(addr, "/datasets/nc1?a=%€x").status, 400);
    assert_eq!(get(addr, "/healthz").status, 200);

    handle.shutdown();
}

#[test]
fn saturated_queue_returns_503_with_retry_after() {
    let store = build_store(28, 200, 5);
    // One worker and a one-slot queue so two idle connections saturate
    // the service deterministically.
    let config = ServeConfig {
        workers: 1,
        queue_depth: 1,
        ..ServeConfig::default()
    };
    let state = Arc::new(ServeState::new(
        Arc::new(SnapshotRegistry::new(ServeSnapshot::capture(&store, 1))),
        config,
    ));
    let handle = Server::spawn(Arc::clone(&state)).expect("bind ephemeral port");
    let addr = handle.addr();
    let pause = std::time::Duration::from_millis(300);

    // Occupy the only worker: a connection that sends nothing keeps it
    // blocked in read until we hang up.
    let worker_hog = TcpStream::connect(addr).expect("connect worker hog");
    std::thread::sleep(pause);
    // Fill the single queue slot the same way.
    let queue_hog = TcpStream::connect(addr).expect("connect queue hog");
    std::thread::sleep(pause);

    // The next connection must be turned away immediately — not parked
    // in the queue behind the hogs.
    let reply = get(addr, "/healthz");
    assert_eq!(reply.status, 503, "{}", reply.body);
    assert_eq!(reply.header("retry-after"), Some("1"));
    assert!(state.metrics().saturated() >= 1);

    // Release the hogs: the service recovers and reports the episode.
    // (Recovery is not instant — the worker still has to drain the two
    // dead connections — so give it a few tries.)
    drop(worker_hog);
    drop(queue_hog);
    let mut health = get(addr, "/healthz");
    for _ in 0..20 {
        if health.status == 200 {
            break;
        }
        std::thread::sleep(pause);
        health = get(addr, "/healthz");
    }
    assert_eq!(health.status, 200, "{}", health.body);
    let metrics = get(addr, "/metrics");
    let saturated = metrics
        .body
        .lines()
        .find_map(|l| l.strip_prefix("nc_serve_queue_saturated_total "))
        .expect("saturation counter exported");
    assert!(saturated.parse::<u64>().unwrap() >= 1);

    handle.shutdown();
}

#[test]
fn panicking_handler_returns_500_and_the_worker_pool_survives() {
    let store = build_store(29, 200, 5);
    // A single worker: if the panic killed it, no later request could
    // ever be answered.
    let config = ServeConfig {
        workers: 1,
        panic_probe: true,
        ..ServeConfig::default()
    };
    let state = Arc::new(ServeState::new(
        Arc::new(SnapshotRegistry::new(ServeSnapshot::capture(&store, 1))),
        config,
    ));
    let handle = Server::spawn(Arc::clone(&state)).expect("bind ephemeral port");
    let addr = handle.addr();

    for round in 0..3 {
        let reply = get(addr, "/debug/panic");
        assert_eq!(reply.status, 500, "round {round}: {}", reply.body);
        assert!(reply.body.contains("panicked"), "round {round}: {}", reply.body);

        // The same (only) worker keeps serving.
        let health = get(addr, "/healthz");
        assert_eq!(health.status, 200, "round {round}: {}", health.body);
    }

    assert!(state.metrics().worker_panics() >= 3);
    let metrics = get(addr, "/metrics");
    let panics = metrics
        .body
        .lines()
        .find_map(|l| l.strip_prefix("nc_serve_worker_panics_total "))
        .expect("panic counter exported");
    assert!(panics.parse::<u64>().unwrap() >= 3, "{panics}");
    handle.shutdown();

    // Without the probe flag the route does not exist at all.
    let (_, handle) = spawn_server(SnapshotRegistry::new(ServeSnapshot::capture(&store, 2)));
    let reply = get(handle.addr(), "/debug/panic");
    assert_eq!(reply.status, 404, "{}", reply.body);
    handle.shutdown();
}

#[test]
fn shutdown_drains_and_releases_the_port() {
    let store = build_store(27, 200, 5);
    let (state, handle) = spawn_server(SnapshotRegistry::new(ServeSnapshot::capture(&store, 1)));
    let addr = handle.addr();

    // A few requests in flight from multiple clients, then shut down.
    std::thread::scope(|scope| {
        for i in 0..4 {
            scope.spawn(move || {
                let reply = get(addr, &format!("/datasets/nc1?seed={i}&sample=50&output=10"));
                assert_eq!(reply.status, 200);
            });
        }
    });
    let served = state.metrics().requests_total();
    assert_eq!(served, 4);
    assert_eq!(state.metrics().in_flight(), 0);

    // shutdown() joins the accept thread, which joins the worker scope:
    // returning at all proves queued work was drained, not aborted.
    handle.shutdown();

    // The state survives the server and a fresh server can be spawned
    // over it (e.g. after a config change).
    let restarted = Server::spawn(Arc::clone(&state)).expect("respawn");
    let reply = get(restarted.addr(), "/healthz");
    assert_eq!(reply.status, 200);
    restarted.shutdown();
}

/// Pull the first `first_name` value out of a plaintext carve body so
/// the encoded body can be checked for plaintext leaks.
fn first_name_in(body: &str) -> String {
    let start = body.find("\"first_name\":\"").expect("plaintext first_name") + 14;
    let rest = &body[start..];
    let end = rest.find('"').expect("closing quote");
    rest[..end].to_string()
}

#[test]
fn encoded_carve_never_shares_a_cache_entry_with_plaintext() {
    let store = build_store(41, 300, 8);
    let (state, handle) = spawn_server(SnapshotRegistry::new(ServeSnapshot::capture(&store, 1)));
    let addr = handle.addr();

    // Warm the plaintext entry.
    let plain = get(addr, "/datasets/nc1?seed=8&sample=100&output=20");
    assert_eq!(plain.status, 200);
    assert_eq!(plain.header("x-cache"), Some("miss"));
    assert_eq!(plain.header("x-encoding"), None);
    assert_eq!(
        get(addr, "/datasets/nc1?seed=8&sample=100&output=20").header("x-cache"),
        Some("hit")
    );

    // The same knobs with `encode=clk` must MISS: a warm plaintext
    // entry can never answer an encoded request.
    let target = "/datasets/nc1?seed=8&sample=100&output=20&encode=clk&encode_key=5";
    let encoded = get(addr, target);
    assert_eq!(encoded.status, 200, "{}", encoded.body);
    assert_eq!(encoded.header("x-cache"), Some("miss"));
    assert_eq!(
        encoded.header("x-encoding"),
        Some("enc=clk1|key=5|bits=1024|k=10|q=2")
    );

    // Same labels, no plaintext: every line carries the keyed token and
    // record CLK, and the plaintext values are gone.
    assert_eq!(
        encoded.body.lines().count(),
        plain.body.lines().count(),
        "one encoded line per plaintext record"
    );
    for line in encoded.body.lines() {
        assert!(line.contains("\"ncid_token\":\""), "{line}");
        assert!(line.contains("\"record_clk\":\""), "{line}");
    }
    let leaked = first_name_in(&plain.body);
    assert!(!leaked.is_empty());
    assert!(
        !encoded.body.contains(&leaked),
        "plaintext {leaked:?} leaked into the encoded body"
    );

    // The encoded entry is cached under its own key; replaying it does
    // not disturb the plaintext entry, and a different key misses again.
    assert_eq!(get(addr, target).header("x-cache"), Some("hit"));
    assert_eq!(
        get(addr, "/datasets/nc1?seed=8&sample=100&output=20").header("x-cache"),
        Some("hit"),
        "plaintext entry survives beside the encoded one"
    );
    let rekeyed = get(
        addr,
        "/datasets/nc1?seed=8&sample=100&output=20&encode=clk&encode_key=6",
    );
    assert_eq!(rekeyed.header("x-cache"), Some("miss"));
    assert_ne!(rekeyed.body, encoded.body, "different key, different encodings");

    // POST /carve with form knobs rides the same engine and cache.
    let form = post_form(
        addr,
        "/carve",
        "preset=nc1&seed=8&sample=100&output=20&encode=clk&encode_key=5",
    );
    assert_eq!(form.status, 200, "{}", form.body);
    assert_eq!(form.header("x-cache"), Some("hit"), "same encoded carve");
    assert_eq!(form.body, encoded.body);

    assert_eq!(state.engine().cache_stats().entries, 3);
    handle.shutdown();
}

#[test]
fn encoded_query_carves_key_separately_and_reject_document_output() {
    let store = build_store(42, 300, 8);
    let (state, handle) = spawn_server(SnapshotRegistry::new(ServeSnapshot::capture(&store, 1)));
    let addr = handle.addr();

    let q = r#"{"pipeline": [
        {"match": {"size": {"gte": 2}}},
        {"sample": {"size": 10, "seed": 3}}
    ]}"#;

    let plain = post_json(addr, "/carve", q);
    assert_eq!(plain.status, 200, "{}", plain.body);
    assert_eq!(plain.header("x-cache"), Some("miss"));

    // The encoded twin of a warm plaintext query carve still misses,
    // carries the negotiated encoding, and leaks no plaintext.
    let encoded = post_json(addr, "/carve?encode=clk&encode_key=9", q);
    assert_eq!(encoded.status, 200, "{}", encoded.body);
    assert_eq!(encoded.header("x-cache"), Some("miss"));
    assert_eq!(
        encoded.header("x-encoding"),
        Some("enc=clk1|key=9|bits=1024|k=10|q=2")
    );
    assert_eq!(encoded.body.lines().count(), plain.body.lines().count());
    let leaked = first_name_in(&plain.body);
    assert!(!encoded.body.contains(&leaked), "{leaked:?} leaked");

    // Both twins stay warm under their own fingerprints.
    assert_eq!(post_json(addr, "/carve", q).header("x-cache"), Some("hit"));
    assert_eq!(
        post_json(addr, "/carve?encode=clk&encode_key=9", q).header("x-cache"),
        Some("hit")
    );

    // A document-output pipeline cannot be encoded: its projections
    // would expose plaintext. Typed 400, and nothing is cached for it.
    let entries = state.engine().cache_stats().entries;
    let doc = post_json(
        addr,
        "/carve?encode=clk",
        r#"{"pipeline": [{"count": true}]}"#,
    );
    assert_eq!(doc.status, 400, "{}", doc.body);
    assert!(doc.body.contains("cluster-output"), "{}", doc.body);
    assert_eq!(state.engine().cache_stats().entries, entries);

    // Bad encoding knobs answer 400 before the query is even parsed.
    let bad = post_json(addr, "/carve?encode=rot13", q);
    assert_eq!(bad.status, 400);
    assert!(bad.body.contains("unknown encoding"), "{}", bad.body);
    let orphan = post_json(addr, "/carve?encode_key=4", q);
    assert_eq!(orphan.status, 400);
    assert!(orphan.body.contains("requires `encode=clk`"), "{}", orphan.body);

    handle.shutdown();
}
