//! Standalone shard-engine benchmark: parallel ingest throughput at
//! shards=1 vs shards=N, publish latency (cold, incremental, no-op) and
//! WAL replay time.
//!
//! ```sh
//! cargo run --release -p nc-bench --bin bench_shard -- \
//!     --pop 1200 --snapshots 8 --shards 4 --out BENCH_shard.json
//! ```
//!
//! The in-memory comparison runs the same `ShardedStore` fan-out at
//! both shard counts (shards=1 is the inline no-worker path, and so is
//! shards=N on fewer than N hardware threads), so the speedup isolates
//! what partitioning buys. The engine numbers add the
//! write-ahead log: full archive ingest from TSV files, then a timed
//! reopen that replays every committed row. The JSON is written by hand
//! so the binary has no serialization dependency.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use nc_core::record::DedupPolicy;
use nc_core::tsv::{self, ImportOptions};
use nc_shard::{ShardEngine, ShardEngineConfig, ShardedStore};
use nc_votergen::config::GeneratorConfig;
use nc_votergen::registry::Registry;
use nc_votergen::snapshot::{standard_calendar, Snapshot};

struct Args {
    population: usize,
    snapshots: usize,
    shards: usize,
    seed: u64,
    reps: usize,
    out: PathBuf,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        population: 1_200,
        snapshots: 8,
        shards: 4,
        seed: 2021,
        reps: 5,
        out: PathBuf::from("BENCH_shard.json"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| panic!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--pop" => parsed.population = value().parse().expect("--pop takes a number"),
            "--snapshots" => parsed.snapshots = value().parse().expect("--snapshots takes a number"),
            "--shards" => parsed.shards = value().parse().expect("--shards takes a number"),
            "--seed" => parsed.seed = value().parse().expect("--seed takes a number"),
            "--reps" => parsed.reps = value().parse().expect("--reps takes a number"),
            "--out" => parsed.out = PathBuf::from(value()),
            other => {
                eprintln!("unknown flag: {other}");
                eprintln!("usage: bench_shard [--pop N] [--snapshots N] [--shards N] [--seed N] [--reps N] [--out FILE]");
                std::process::exit(2);
            }
        }
    }
    parsed
}

fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

fn tmp_dir(name: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("nc_bench_shard_{name}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// One full in-memory ingest of `snapshots` into a fresh store with
/// `shards` partitions, returning the wall time.
fn one_memory_ingest(snapshots: &[Snapshot], shards: usize) -> f64 {
    let mut store = ShardedStore::new(shards);
    let start = Instant::now();
    for snap in snapshots {
        store.ingest_snapshot(snap, DedupPolicy::Trimmed, 1);
    }
    start.elapsed().as_secs_f64()
}

/// Best-of-`reps` ingest time for shards=1 and shards=n. The reps are
/// interleaved (1, n, 1, n, …) after one warmup each, so clock drift
/// and cache warmth bias neither side.
fn time_memory_ingest(snapshots: &[Snapshot], n: usize, reps: usize) -> (f64, f64) {
    one_memory_ingest(snapshots, 1);
    one_memory_ingest(snapshots, n);
    let mut one = Vec::with_capacity(reps);
    let mut many = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        one.push(one_memory_ingest(snapshots, 1));
        many.push(one_memory_ingest(snapshots, n));
    }
    (best(&one), best(&many))
}

/// Bytes of every file under `dir`, shard log directories included.
fn dir_bytes(dir: &Path) -> u64 {
    let entries = fs::read_dir(dir).expect("list directory");
    entries
        .map(|entry| {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                dir_bytes(&path)
            } else {
                fs::metadata(&path).expect("file size").len()
            }
        })
        .sum()
}

fn engine_config(shards: usize) -> ShardEngineConfig {
    ShardEngineConfig::new(shards, DedupPolicy::Trimmed, 1)
}

fn open_engine(state: &Path, shards: usize) -> ShardEngine {
    ShardEngine::open(state, engine_config(shards)).expect("open shard engine")
}

fn main() {
    let args = parse_args();
    eprintln!(
        "generating workload: population {}, {} snapshots, seed {}…",
        args.population, args.snapshots, args.seed
    );
    let mut registry = Registry::new(GeneratorConfig {
        seed: args.seed,
        initial_population: args.population,
        ..Default::default()
    });
    let calendar = standard_calendar();
    assert!(
        args.snapshots < calendar.len(),
        "--snapshots must be below {} (one more is ingested incrementally)",
        calendar.len()
    );
    let snapshots: Vec<Snapshot> = calendar
        .iter()
        .take(args.snapshots)
        .map(|info| registry.generate_snapshot(info))
        .collect();
    let rows: u64 = snapshots.iter().map(|s| s.rows.len() as u64).sum();

    let archive = tmp_dir("archive");
    for snap in &snapshots {
        tsv::write_snapshot(&archive, snap).expect("write snapshot");
    }

    // In-memory fan-out: shards=1 (inline) vs shards=N (one worker each,
    // given a hardware thread per shard).
    eprintln!("ingest: {rows} rows, shards=1 vs shards={}…", args.shards);
    let (one_secs, n_secs) = time_memory_ingest(&snapshots, args.shards, args.reps);
    let one_rate = rows as f64 / one_secs;
    let n_rate = rows as f64 / n_secs;

    // WAL-backed engine: archive ingest, publish, and a timed replay.
    let state = tmp_dir("state");
    let mut engine = open_engine(&state, args.shards);
    let start = Instant::now();
    let outcome = engine
        .ingest_archive(&archive, &ImportOptions::strict())
        .expect("engine ingest");
    let engine_secs = start.elapsed().as_secs_f64();
    assert_eq!(outcome.stats.len(), args.snapshots);

    let start = Instant::now();
    let cold = engine.publish(1);
    let publish_cold = start.elapsed().as_secs_f64();
    let clusters = cold.cluster_count();
    let records = cold.record_count();

    let start = Instant::now();
    let noop = engine.publish(1);
    let publish_noop = start.elapsed().as_secs_f64();
    assert_eq!(noop.clusters(), cold.clusters());

    // One more snapshot, then a publish of the grown store.
    let extra = registry.generate_snapshot(&calendar[args.snapshots]);
    tsv::write_snapshot(&archive, &extra).expect("write extra snapshot");
    engine
        .ingest_archive(&archive, &ImportOptions::strict())
        .expect("engine ingest extra");
    let start = Instant::now();
    let incremental = engine.publish(2);
    let publish_incremental = start.elapsed().as_secs_f64();
    // How much of the store changed under that publish: clusters the
    // extra snapshot founded or gave a record. With the default
    // arguments that is every cluster — the ninth calendar snapshot
    // adds a record to each.
    let changed = incremental
        .clusters()
        .iter()
        .enumerate()
        .filter(|(i, (_, rows))| {
            cold.clusters().get(*i).map(|(_, old)| old.len()) != Some(rows.len())
        })
        .count();
    drop(engine);
    // What the restart below has to read: the logs hold a kept row in
    // full and a dropped one as a short `D` record.
    let (archive_bytes, state_bytes) = (dir_bytes(&archive), dir_bytes(&state));

    eprintln!("replaying WAL…");
    let start = Instant::now();
    let mut replayed = open_engine(&state, args.shards);
    let replay_secs = start.elapsed().as_secs_f64();
    assert!(replayed.recovery().is_clean(), "replay must be clean");
    let replayed_rows = replayed.store().rows_imported();
    // The reopened engine publishes the very store the live engine
    // just published: the two must be equal, and this is the time to
    // compare against (`publish_cold_secs` read one snapshot less).
    let start = Instant::now();
    let recold = replayed.publish(2);
    let publish_cold_same_state = start.elapsed().as_secs_f64();
    assert_eq!(
        incremental.clusters(),
        recold.clusters(),
        "incremental publish differs from a cold publish of the same state"
    );
    drop(replayed);

    fs::remove_dir_all(&archive).ok();
    fs::remove_dir_all(&state).ok();

    let speedup = n_rate / one_rate;
    println!(
        "ingest: 1 shard {one_rate:.0} rows/s, {} shards {n_rate:.0} rows/s ({speedup:.2}x)\n\
         engine ingest (WAL on): {:.0} rows/s\n\
         publish: cold {:.1} ms, incremental {:.1} ms over {changed} changed clusters \
         (cold on the same state {:.1} ms), no-op {:.1} ms\n\
         replay: {replayed_rows} rows in {:.1} ms ({:.0} rows/s) from {state_bytes} bytes of state \
         ({archive_bytes} of archive)",
        args.shards,
        rows as f64 / engine_secs,
        publish_cold * 1e3,
        publish_incremental * 1e3,
        publish_cold_same_state * 1e3,
        publish_noop * 1e3,
        replay_secs * 1e3,
        replayed_rows as f64 / replay_secs,
    );

    // Hand-rolled JSON: flat object, stable key order.
    let json = format!(
        concat!(
            "{{\n",
            "  \"population\": {},\n",
            "  \"snapshots\": {},\n",
            "  \"shards\": {},\n",
            "  \"seed\": {},\n",
            "  \"hardware_threads\": {},\n",
            "  \"rows\": {},\n",
            "  \"clusters\": {},\n",
            "  \"records\": {},\n",
            "  \"ingest_rows_per_sec_one_shard\": {:.1},\n",
            "  \"ingest_rows_per_sec_sharded\": {:.1},\n",
            "  \"ingest_speedup\": {:.4},\n",
            "  \"engine_ingest_rows_per_sec\": {:.1},\n",
            "  \"publish_cold_secs\": {:.6},\n",
            "  \"publish_incremental_secs\": {:.6},\n",
            "  \"publish_incremental_changed_clusters\": {},\n",
            "  \"publish_cold_same_state_secs\": {:.6},\n",
            "  \"publish_noop_secs\": {:.6},\n",
            "  \"archive_bytes\": {},\n",
            "  \"state_bytes\": {},\n",
            "  \"state_bytes_per_archive_byte\": {:.4},\n",
            "  \"wal_replay_secs\": {:.6},\n",
            "  \"wal_replay_rows_per_sec\": {:.1}\n",
            "}}\n"
        ),
        args.population,
        args.snapshots,
        args.shards,
        args.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        rows,
        clusters,
        records,
        one_rate,
        n_rate,
        speedup,
        rows as f64 / engine_secs,
        publish_cold,
        publish_incremental,
        changed,
        publish_cold_same_state,
        publish_noop,
        archive_bytes,
        state_bytes,
        state_bytes as f64 / archive_bytes as f64,
        replay_secs,
        replayed_rows as f64 / replay_secs,
    );
    std::fs::write(&args.out, json).expect("write benchmark json");
    eprintln!("wrote {}", args.out.display());
}
