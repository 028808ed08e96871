//! Serve carved test datasets over HTTP: build a small archive, publish
//! two store versions into the carving service, and run a scripted
//! client transcript against it (the same endpoints a `curl` user
//! would hit). Doubles as the CI smoke test for `nc-serve`.
//!
//! Run with:
//! ```sh
//! cargo run --release -p nc-suite --example serve_datasets
//! ```

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use nc_suite::core::pipeline::{GenerationConfig, TestDataGenerator};
use nc_suite::core::record::DedupPolicy;
use nc_suite::query::CarveQuery;
use nc_suite::serve::carve::parse_carve_request;
use nc_suite::serve::http::parse_form;
use nc_suite::serve::{
    CarveEngine, Server, ServeConfig, ServeSnapshot, ServeState, SnapshotRegistry,
};
use nc_suite::votergen::config::GeneratorConfig;

const FORM: &str = "application/x-www-form-urlencoded";

fn build_store(snapshots: usize) -> nc_suite::core::cluster::ClusterStore {
    TestDataGenerator::run(GenerationConfig {
        generator: GeneratorConfig {
            seed: 2021,
            initial_population: 1_000,
            ..Default::default()
        },
        policy: DedupPolicy::Trimmed,
        snapshots,
    })
    .store
}

/// One scripted request: print the request line, send it, print the
/// interesting response headers and the first lines of the body.
/// `sent` is `(content type, body)`; the response head is returned.
fn transcript(addr: SocketAddr, method: &str, target: &str, sent: Option<(&str, &str)>) -> String {
    let raw = match sent {
        Some((content_type, body)) => format!(
            "{method} {target} HTTP/1.1\r\nHost: localhost\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
        None => format!("{method} {target} HTTP/1.1\r\nHost: localhost\r\n\r\n"),
    };
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("send");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("recv");
    let text = String::from_utf8_lossy(&response);
    let (head, body) = text.split_once("\r\n\r\n").expect("http response");
    assert!(
        head.starts_with("HTTP/1.1 2"),
        "request {target} failed:\n{head}"
    );

    match sent {
        Some((content_type, body)) => {
            println!(
                "$ curl -s -H 'Content-Type: {content_type}' -d '{body}' http://{addr}{target}"
            )
        }
        None if method == "GET" => println!("$ curl -s http://{addr}{target}"),
        None => println!("$ curl -s -X {method} http://{addr}{target}"),
    }
    for line in head.lines() {
        let keep = line.starts_with("HTTP/")
            || line.starts_with("X-")
            || line.starts_with("Content-Type");
        if keep {
            println!("  {line}");
        }
    }
    for line in body.lines().take(3) {
        let mut shown = line.to_string();
        if shown.len() > 100 {
            shown.truncate(100);
            shown.push('…');
        }
        println!("  {shown}");
    }
    let omitted = body.lines().count().saturating_sub(3);
    if omitted > 0 {
        println!("  … ({omitted} more lines)");
    }
    println!();
    head.to_string()
}

/// The `X-Total-Records` header of a response head.
fn total_records(head: &str) -> usize {
    head.lines()
        .find_map(|line| line.strip_prefix("X-Total-Records: "))
        .and_then(|value| value.parse().ok())
        .expect("a carve response names its total records")
}

fn main() {
    // 1. Build the archive and publish its first version to the service.
    println!("building the voter archive …\n");
    let store_v1 = build_store(8);
    let registry = SnapshotRegistry::new(ServeSnapshot::capture(&store_v1, 1));
    let config = ServeConfig::default();
    let defaults = config.defaults;
    let state = Arc::new(ServeState::new(Arc::new(registry), config));
    let server = Server::spawn(Arc::clone(&state)).expect("bind ephemeral port");
    let addr = server.addr();
    println!("serving on http://{addr}\n");

    // 2. The client transcript.
    transcript(addr, "GET", "/healthz", None);
    transcript(addr, "GET", "/datasets/nc1?sample=400&output=25&seed=7&page_size=5", None);
    // The same carve again: answered from the cache (X-Cache: hit).
    transcript(addr, "GET", "/datasets/nc1?sample=400&output=25&seed=7&page_size=5", None);
    // Explicit bounds via POST, pinned to version 1.
    transcript(
        addr,
        "POST",
        "/carve",
        Some((
            FORM,
            "version=1&h_low=0.2&h_high=0.6&sample=400&output=25&seed=7&page_size=5",
        )),
    );

    // 3. Four more snapshots arrive: publish version 2. Carves keep
    //    working throughout; version 1 stays pinnable.
    println!("publishing version 2 (four more snapshots) …\n");
    let store_v2 = build_store(12);
    state.registry().publish(ServeSnapshot::capture(&store_v2, 2));

    transcript(addr, "GET", "/datasets/nc2?sample=400&output=25&seed=7&page_size=5", None);
    transcript(
        addr,
        "GET",
        "/datasets/nc2?sample=400&output=25&seed=7&page_size=5&version=1",
        None,
    );

    // 4. The other carve forms: a CLK-encoded knob carve and a JSON
    //    query carve. Each must report the records an in-process engine
    //    over the same registry carves for the same request.
    let direct = CarveEngine::new(Arc::clone(state.registry()), 0);
    let encoded = "h_low=0.2&h_high=0.6&sample=400&output=25&seed=7&page_size=5&encode=clk";
    let head = transcript(addr, "POST", "/carve", Some((FORM, encoded)));
    let request = parse_carve_request(&parse_form(encoded), &defaults).expect("form parses");
    let expected = direct
        .carve(&request)
        .expect("in-process carve")
        .result
        .records;
    assert_eq!(
        total_records(&head),
        expected,
        "encoded carve over HTTP vs in process"
    );

    let query = r#"{"pipeline": [{"match": {"size": {"gte": 2}}}, {"sort": {"by": "het", "descending": true}}, {"limit": 20}]}"#;
    let head = transcript(addr, "POST", "/carve", Some(("application/json", query)));
    let parsed = CarveQuery::parse(query.as_bytes()).expect("query parses");
    let expected = direct
        .carve_query(&parsed)
        .expect("in-process query carve")
        .result
        .records;
    assert_eq!(
        total_records(&head),
        expected,
        "query carve over HTTP vs in process"
    );

    transcript(addr, "GET", "/metrics", None);

    // 5. Graceful shutdown: drain in-flight requests, join the workers.
    server.shutdown();
    let stats = state.engine().cache_stats();
    assert_eq!(state.metrics().requests_total(), 9, "all requests served");
    assert!(stats.hits >= 1, "the repeated carve must hit the cache");
    println!(
        "server shut down cleanly after {} requests ({} cache hits, {} misses)",
        state.metrics().requests_total(),
        stats.hits,
        stats.misses
    );
}
