//! Standalone serve-layer benchmark: cold (cache-miss) vs warm
//! (cache-hit) carve latency over real HTTP round trips.
//!
//! ```sh
//! scripts/bench.sh serve                   # BENCH_serve.json at its recorded parameters
//! cargo run --release -p nc-bench --bin bench_serve -- --pop 2000 --reps 20 --out /tmp/s.json
//! ```
//!
//! Cold requests use a fresh seed each time, so every one carves the
//! snapshot from scratch; warm requests repeat one seed, so all but the
//! first are answered from the LRU cache. The run fails unless every
//! request is answered 200 with the expected cache status and every
//! warm body is byte-identical to its cold counterpart.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::sync::Arc;

use nc_bench::bench::{finish, timed, Flags, Timing};
use nc_bench::context::ExperimentScale;
use nc_core::record::DedupPolicy;
use nc_docstore::doc;
use nc_pipeline_bench::harness::Checks;
use nc_serve::{ServeConfig, ServeSnapshot, ServeState, Server, SnapshotRegistry};

/// Clusters each carve samples, and keeps.
const SAMPLE: usize = 600;
const OUTPUT: usize = 100;

/// One full HTTP round trip: seconds, the status line, the X-Cache
/// value and the body.
fn roundtrip(addr: SocketAddr, target: &str) -> (f64, String, String, String) {
    let (secs, response) = timed(|| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())
            .expect("send request");
        let mut response = Vec::new();
        stream.read_to_end(&mut response).expect("read response");
        response
    });
    let text = String::from_utf8(response).expect("utf-8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("http response");
    let status = head.lines().next().unwrap_or_default().to_string();
    let cache = head
        .lines()
        .find_map(|l| l.strip_prefix("X-Cache: "))
        .unwrap_or_default()
        .to_string();
    (secs, status, cache, body.to_string())
}

fn main() -> ExitCode {
    let mut flags = Flags::from_env("bench_serve");
    let scale = ExperimentScale {
        population: flags.get("--pop", 1_000),
        snapshots: flags.get("--snapshots", 12),
        ..ExperimentScale::default()
    };
    let reps = flags.get("--reps", 10usize);
    let out = flags.path("--out", "BENCH_serve.json");
    flags.done();

    let outcome = scale.run(DedupPolicy::Trimmed);
    let store = &outcome.store;
    let registry = SnapshotRegistry::new(ServeSnapshot::capture(store, 1));
    let state = Arc::new(ServeState::new(Arc::new(registry), ServeConfig::default()));
    let server = Server::spawn(Arc::clone(&state)).expect("bind ephemeral port");
    let addr = server.addr();
    let target = |seed: u64| {
        format!("/datasets/nc2?sample={SAMPLE}&output={OUTPUT}&seed={seed}&page_size=10000")
    };
    let mut checks = Checks::default();
    let mut request = |target: &str, expected: &str| {
        let (secs, status, cache, body) = roundtrip(addr, target);
        checks.check(status.starts_with("HTTP/1.1 200"), || {
            format!("request {target} failed: {status}")
        });
        checks.check(cache == expected, || {
            format!("request {target}: X-Cache {cache:?}, expected {expected}")
        });
        (secs, body)
    };

    // Cold: a fresh seed per request — every carve runs the full
    // sampling + reduction pass over the snapshot.
    let cold_secs: Vec<f64> = (0..reps)
        .map(|i| request(&target(1_000 + i as u64), "miss").0)
        .collect();
    // Warm: one seed repeated — the first cold seed is already cached,
    // so every request hits and must return the identical body.
    let warm_target = target(1_000);
    let (_, reference_body) = request(&warm_target, "hit");
    let mut warm_secs = Vec::with_capacity(reps);
    let mut identical = true;
    for _ in 0..reps {
        let (secs, body) = request(&warm_target, "hit");
        identical &= body == reference_body;
        warm_secs.push(secs);
    }
    server.shutdown();
    let stats = state.engine().cache_stats();
    checks.check(identical, || "cached body differs".into());
    checks.check(stats.misses as usize == reps, || {
        format!(
            "{} cache misses, expected one per cold seed ({reps})",
            stats.misses
        )
    });
    checks.check(stats.hits as usize >= reps, || {
        format!("{} cache hits, expected at least {reps}", stats.hits)
    });

    let cold = Timing::of(&cold_secs);
    let warm = Timing::of(&warm_secs);
    let speedup = cold.mean / warm.mean;
    println!(
        "cold: mean {:.1} µs, best {:.1} µs\nwarm: mean {:.1} µs, best {:.1} µs\nwarm speedup: {speedup:.2}x (cache: {} hits, {} misses)",
        cold.mean * 1e6,
        cold.best * 1e6,
        warm.mean * 1e6,
        warm.best * 1e6,
        stats.hits,
        stats.misses
    );
    let report = doc! {
        "population" => scale.population,
        "snapshots" => scale.snapshots,
        "seed" => scale.seed,
        "clusters" => store.cluster_count(),
        "records" => store.record_count(),
        "sample_clusters" => SAMPLE,
        "output_clusters" => OUTPUT,
        "reps" => reps,
        "cold_mean_secs" => cold.mean,
        "cold_best_secs" => cold.best,
        "warm_mean_secs" => warm.mean,
        "warm_best_secs" => warm.best,
        "warm_speedup" => speedup,
        "cache_hits" => stats.hits,
        "cache_misses" => stats.misses,
        "warm_bodies_identical" => identical,
    };
    finish(&out, report, &checks)
}
