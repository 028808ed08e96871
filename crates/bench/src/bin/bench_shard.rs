//! Standalone shard-engine benchmark: parallel ingest throughput at
//! shards=1 vs shards=N, publish latency (cold, incremental, no-op) and
//! WAL replay time.
//!
//! ```sh
//! scripts/bench.sh shard                   # BENCH_shard.json at its recorded parameters
//! cargo run --release -p nc-bench --bin bench_shard -- --pop 5000 --shards 8 --out /tmp/s.json
//! ```
//!
//! The in-memory comparison runs the same `ShardedStore` fan-out at
//! both shard counts (shards=1 is the inline no-worker path, and so is
//! shards=N on fewer than N hardware threads), so the speedup isolates
//! what partitioning buys. The engine numbers add the
//! write-ahead log: full archive ingest from TSV files, then a timed
//! reopen that replays every committed row.

use std::process::ExitCode;

use nc_bench::bench::{finish, timed, Flags, Timing};
use nc_bench::context::{temp_dir, ExperimentScale};
use nc_core::record::DedupPolicy;
use nc_core::tsv::ImportOptions;
use nc_docstore::doc;
use nc_pipeline_bench::harness::{dir_usage, Checks};
use nc_shard::{ShardEngine, ShardedStore};
use nc_votergen::snapshot::{standard_calendar, Snapshot};

/// One full in-memory ingest of `snapshots` into a fresh store with
/// `shards` partitions, returning the wall time.
fn one_memory_ingest(snapshots: &[Snapshot], shards: usize) -> f64 {
    let mut store = ShardedStore::new(shards);
    timed(|| {
        for snap in snapshots {
            store.ingest_snapshot(snap, DedupPolicy::Trimmed, 1);
        }
    })
    .0
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
    (Timing::of(&one).best, Timing::of(&many).best)
}

fn main() -> ExitCode {
    let mut flags = Flags::from_env("bench_shard");
    let scale = ExperimentScale {
        population: flags.get("--pop", 1_200),
        snapshots: flags.get("--snapshots", 8),
        ..ExperimentScale::default()
    };
    let shards = flags.get("--shards", 4usize);
    let reps = flags.get("--reps", 5usize);
    let out = flags.path("--out", "BENCH_shard.json");
    flags.done();
    let calendar = standard_calendar();
    if scale.snapshots >= calendar.len() {
        eprintln!(
            "--snapshots must be below {} (one more is ingested incrementally)",
            calendar.len()
        );
        return ExitCode::from(2);
    }

    let mut archive = scale.archive(shards);
    let rows = archive.rows();
    let mut checks = Checks::default();

    // In-memory fan-out: shards=1 (inline) vs shards=N (one worker each,
    // given a hardware thread per shard).
    eprintln!("ingest: {rows} rows, shards=1 vs shards={shards}…");
    let (one_secs, n_secs) = time_memory_ingest(&archive.snapshots, shards, reps);
    let one_rate = rows as f64 / one_secs;
    let n_rate = rows as f64 / n_secs;

    // WAL-backed engine: archive ingest, publish, and a timed replay.
    let state = temp_dir("state");
    let open = || ShardEngine::open(state.path(), archive.config).expect("open shard engine");
    let mut engine = open();
    let options = ImportOptions::strict();
    let (engine_secs, outcome) = timed(|| {
        engine
            .ingest_archive(archive.dir.path(), &options)
            .expect("engine ingest")
    });
    checks.check(outcome.stats.len() == scale.snapshots, || {
        format!(
            "ingested {} snapshots of {}",
            outcome.stats.len(),
            scale.snapshots
        )
    });

    let (publish_cold, cold) = timed(|| engine.publish(1));
    let (publish_noop, noop) = timed(|| engine.publish(1));
    checks.check(noop.clusters() == cold.clusters(), || {
        "a no-op publish changed the store".into()
    });

    // One more snapshot, then a publish of the grown store.
    let extra = archive
        .registry
        .generate_snapshot(&calendar[scale.snapshots]);
    archive.write(&extra);
    engine
        .ingest_archive(archive.dir.path(), &options)
        .expect("engine ingest extra");
    let (publish_incremental, incremental) = timed(|| engine.publish(2));
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
    let archive_bytes = dir_usage(archive.dir.path(), &|_| true).0;
    let state_bytes = dir_usage(state.path(), &|_| true).0;

    eprintln!("replaying WAL…");
    let (replay_secs, mut replayed) = timed(open);
    checks.check(replayed.recovery().is_clean(), || {
        "replay must be clean".into()
    });
    let replayed_rows = replayed.store().rows_imported();
    // The reopened engine publishes the very store the live engine
    // just published: the two must be equal, and this is the time to
    // compare against (`publish_cold_secs` read one snapshot less).
    let (publish_cold_same_state, recold) = timed(|| replayed.publish(2));
    checks.check(incremental.clusters() == recold.clusters(), || {
        "incremental publish differs from a cold publish of the same state".into()
    });

    let speedup = n_rate / one_rate;
    println!(
        "ingest: 1 shard {one_rate:.0} rows/s, {shards} shards {n_rate:.0} rows/s ({speedup:.2}x)\n\
         engine ingest (WAL on): {:.0} rows/s\n\
         publish: cold {:.1} ms, incremental {:.1} ms over {changed} changed clusters \
         (cold on the same state {:.1} ms), no-op {:.1} ms\n\
         replay: {replayed_rows} rows in {:.1} ms ({:.0} rows/s) from {state_bytes} bytes of state \
         ({archive_bytes} of archive)",
        rows as f64 / engine_secs,
        publish_cold * 1e3,
        publish_incremental * 1e3,
        publish_cold_same_state * 1e3,
        publish_noop * 1e3,
        replay_secs * 1e3,
        replayed_rows as f64 / replay_secs,
    );
    let report = doc! {
        "population" => scale.population,
        "snapshots" => scale.snapshots,
        "shards" => shards,
        "seed" => scale.seed,
        "rows" => rows,
        "clusters" => cold.cluster_count(),
        "records" => cold.record_count(),
        "ingest_rows_per_sec_one_shard" => one_rate,
        "ingest_rows_per_sec_sharded" => n_rate,
        "ingest_speedup" => speedup,
        "engine_ingest_rows_per_sec" => rows as f64 / engine_secs,
        "publish_cold_secs" => publish_cold,
        "publish_incremental_secs" => publish_incremental,
        "publish_incremental_changed_clusters" => changed,
        "publish_cold_same_state_secs" => publish_cold_same_state,
        "publish_noop_secs" => publish_noop,
        "archive_bytes" => archive_bytes,
        "state_bytes" => state_bytes,
        "state_bytes_per_archive_byte" => state_bytes as f64 / archive_bytes as f64,
        "wal_replay_secs" => replay_secs,
        "wal_replay_rows_per_sec" => replayed_rows as f64 / replay_secs,
    };
    finish(&out, report, &checks)
}
