//! What the carve service serves is pinned to the byte, over one seeded
//! world: an MD5 over the line set of every carve form the engine
//! answers (preset and knob bounds, each plaintext and CLK-encoded;
//! a cluster-output query, plaintext and encoded; a `group` query with
//! document output), and an MD5 over the whole HTTP exchange for a fixed
//! request sequence — status lines, headers and bodies, cold and then
//! cached, plus a `/carve/explain`. Responses carry no date or other
//! time-dependent field, so a change to how carves are rendered, keyed
//! or answered that moves one byte moves a digest.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use nc_core::cluster::ClusterStore;
use nc_core::import::import_snapshot;
use nc_core::md5::md5;
use nc_core::record::DedupPolicy;
use nc_pprl::EncodingParams;
use nc_query::CarveQuery;
use nc_serve::carve::{parse_carve_request, RequestDefaults};
use nc_serve::{
    CacheStatus, CarveEngine, CarveOutcome, ServeConfig, ServeSnapshot, ServeState, Server,
    SnapshotRegistry,
};
use nc_votergen::config::{ErrorRates, GeneratorConfig};
use nc_votergen::registry::Registry;
use nc_votergen::snapshot::standard_calendar;

/// The MD5 of each carve of [`engine_carves`], in order.
const LINE_PINS: [&str; 7] = [
    "256ee2956c05bb0488c1169af9dacd55",
    "34832c48cca66d6f81adc08032d89c50",
    "745aab49faa0f7af7c0556b8e9f9c5af",
    "8d375e7b659c22961bd64f2f715c3f8d",
    "32a3c678036c24c9c596ec98972cb395",
    "57ac472203be950bc9f3842e1d0e1690",
    "82f9f7e63229731b0db14faa0ad90a54",
];

/// The MD5 of every response to [`REQUESTS`], played twice, then the
/// explain request.
const HTTP_PIN: &str = "623a71d5817ba0f71b7d9cd708a14636";

const DEFAULTS: RequestDefaults = RequestDefaults {
    sample: 400,
    output: 60,
    seed: 42,
    page_size: 50,
    max_page_size: 10_000,
};

const KNOBS: &str = "h_low=0.1&h_high=0.5&sample=300&output=50&seed=7";
const CLUSTER_QUERY: &str = r#"{"pipeline": [{"match": {"size": {"gte": 2}}}, {"sort": {"by": "het", "descending": true}}, {"sample": {"size": 40, "seed": 3}}]}"#;
const GROUP_QUERY: &str = r#"{"pipeline": [{"match": {"size": {"gte": 1}}}, {"group": {"by": "size", "agg": {"n": "count", "h": {"avg": "het"}, "p": {"max": "plaus"}}}}, {"sort": {"by": "_key"}}]}"#;

/// Six snapshots of 1 000 voters, every error and irregularity rate
/// raised so that clusters hold differing, padded, multi-token values.
fn world() -> ServeSnapshot {
    let mut registry = Registry::new(GeneratorConfig {
        seed: 2021,
        initial_population: 1_000,
        error_rates: ErrorRates {
            typo: 0.08,
            ocr: 0.04,
            phonetic: 0.04,
            abbreviation: 0.04,
            missing: 0.04,
            case_flip: 0.04,
        },
        whitespace_rate: 0.05,
        confusion_rate: 0.05,
        integration_rate: 0.05,
        scatter_rate: 0.05,
        age_outlier_rate: 0.03,
        ..Default::default()
    });
    let mut store = ClusterStore::new();
    for (i, info) in standard_calendar().iter().take(6).enumerate() {
        let snapshot = registry.generate_snapshot(info);
        import_snapshot(&mut store, &snapshot, DedupPolicy::Exact, i as u32 + 1);
    }
    ServeSnapshot::capture(&store, 6)
}

fn pairs(form: &str) -> Vec<(String, String)> {
    nc_serve::http::parse_form(form)
}

/// Everything a carve answers with, one field per line, then its lines.
fn digest(outcome: &CarveOutcome) -> String {
    let r = &outcome.result;
    let mut text = format!(
        "{} {} {} {} {:?}\n",
        outcome.version, r.records, r.clusters, r.duplicate_pairs, r.sampled
    );
    for line in &r.lines {
        text.push_str(line);
        text.push('\n');
    }
    md5(text.as_bytes()).to_hex()
}

/// The seven carves, each answered cold by the engine.
fn engine_carves(engine: &CarveEngine) -> Vec<String> {
    let mut digests = Vec::new();
    for form in ["preset=nc2", KNOBS] {
        for encode in ["", "&encode=clk"] {
            let request = parse_carve_request(&pairs(&format!("{form}{encode}")), &DEFAULTS)
                .expect("pinned request parses");
            let outcome = engine.carve(&request).expect("pinned carve");
            assert_eq!(outcome.status, CacheStatus::Miss);
            assert!(outcome.result.records > 0, "{form}{encode} carves records");
            digests.push(digest(&outcome));
        }
    }
    let clusters = CarveQuery::parse(CLUSTER_QUERY.as_bytes()).expect("pinned query parses");
    for encoding in [None, Some(EncodingParams::default())] {
        let outcome = engine
            .carve_query_encoded(&clusters, encoding.as_ref())
            .expect("pinned query carve");
        assert_eq!(outcome.status, CacheStatus::Miss);
        assert_eq!(outcome.result.clusters, 40);
        digests.push(digest(&outcome));
    }
    let group = CarveQuery::parse(GROUP_QUERY.as_bytes()).expect("pinned query parses");
    let outcome = engine.carve_query(&group).expect("pinned group carve");
    assert_eq!(outcome.result.clusters, 0, "document output");
    assert!(!outcome.result.lines.is_empty());
    digests.push(digest(&outcome));
    digests
}

#[test]
fn carve_lines_are_pinned() {
    let engine = CarveEngine::new(Arc::new(SnapshotRegistry::new(world())), 32);
    let digests = engine_carves(&engine);
    assert_eq!(digests, LINE_PINS, "carve lines moved");
}

/// `(method, target, content type, body)`.
const REQUESTS: [(&str, &str, &str, &str); 6] = [
    ("GET", "/datasets/nc2", "", ""),
    ("GET", "/datasets/nc2?encode=clk", "", ""),
    ("POST", "/carve", "application/x-www-form-urlencoded", KNOBS),
    ("POST", "/carve?encode=clk", "application/x-www-form-urlencoded", KNOBS),
    ("POST", "/carve", "application/json", CLUSTER_QUERY),
    ("POST", "/carve?encode=clk", "application/json", CLUSTER_QUERY),
];

/// Send one request and return the raw response bytes.
fn exchange(addr: SocketAddr, method: &str, target: &str, content_type: &str, body: &str) -> Vec<u8> {
    let mut raw = format!("{method} {target} HTTP/1.1\r\nHost: t\r\n");
    if !content_type.is_empty() {
        raw.push_str(&format!("Content-Type: {content_type}\r\n"));
    }
    if method == "POST" {
        raw.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    raw.push_str("\r\n");
    raw.push_str(body);
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("write request");
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("read response");
    reply
}

#[test]
fn http_responses_are_pinned() {
    let config = ServeConfig {
        workers: 1,
        defaults: DEFAULTS,
        ..ServeConfig::default()
    };
    let state = Arc::new(ServeState::new(
        Arc::new(SnapshotRegistry::new(world())),
        config,
    ));
    let handle = Server::spawn(Arc::clone(&state)).expect("bind ephemeral port");
    let addr = handle.addr();

    let mut transcript = Vec::new();
    for round in ["miss", "hit"] {
        for (method, target, content_type, body) in REQUESTS {
            let reply = exchange(addr, method, target, content_type, body);
            let text = String::from_utf8_lossy(&reply);
            assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{target}: {text}");
            assert!(text.contains(&format!("X-Cache: {round}\r\n")), "{target}: {round}");
            transcript.extend_from_slice(&reply);
        }
    }
    let explain = exchange(addr, "POST", "/carve/explain", "application/json", CLUSTER_QUERY);
    assert!(explain.starts_with(b"HTTP/1.1 200 OK\r\n"));
    transcript.extend_from_slice(&explain);
    handle.shutdown();

    assert_eq!(md5(&transcript).to_hex(), HTTP_PIN, "served bytes moved");
}
