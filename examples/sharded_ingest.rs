//! Sharded, WAL-backed ingest: partition an archive over N shards,
//! crash, recover, resume and publish — the `nc-shard` quickstart.
//!
//! The engine splits the cluster store into `--shards N` hash
//! partitions, write-ahead logs every row per shard, and commits each
//! snapshot through an atomic manifest. This example ingests half an
//! archive, "crashes" (drops the engine and tears the last WAL lines),
//! reopens to show exact-loss recovery, resumes over the full archive,
//! and proves the final store is identical to an unsharded import —
//! the contract that lets scoring and carving run unchanged on shards.
//!
//! Run with:
//! ```sh
//! cargo run --release -p nc-suite --example sharded_ingest -- --shards 4
//! ```

use nc_suite::core::cluster::ClusterStore;
use nc_suite::core::import::import_snapshot;
use nc_suite::core::record::DedupPolicy;
use nc_suite::core::tsv::{self, ImportOptions};
use nc_suite::docstore::faults::{self, Fault};
use nc_suite::shard::{shard_of, ShardEngine, ShardEngineConfig};
use nc_suite::votergen::config::GeneratorConfig;
use nc_suite::votergen::registry::Registry;
use nc_suite::votergen::snapshot::standard_calendar;

fn main() {
    let mut shards = 4usize;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--shards" => {
                shards = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--shards takes a number")
            }
            other => panic!("unknown flag {other}; usage: sharded_ingest [--shards N]"),
        }
    }
    let base = std::env::temp_dir().join("ncvoter_sharded_ingest_example");
    let _ = std::fs::remove_dir_all(&base);
    let archive = base.join("archive");
    let state = base.join("state");

    // 1. Publish six snapshots as TSV files, and build the unsharded
    //    reference store the sharded result must match exactly.
    let mut registry = Registry::new(GeneratorConfig {
        seed: 42,
        initial_population: 600,
        ..Default::default()
    });
    let mut reference = ClusterStore::new();
    for info in standard_calendar().iter().take(6) {
        let snapshot = registry.generate_snapshot(info);
        tsv::write_snapshot(&archive, &snapshot).expect("write snapshot");
        import_snapshot(&mut reference, &snapshot, DedupPolicy::Trimmed, 1);
    }

    // 2. Ingest the first half of the archive through the shard engine:
    //    every row is WAL-logged on its shard before it is applied.
    let config = ShardEngineConfig::new(shards, DedupPolicy::Trimmed, 1);
    let half = base.join("half");
    for path in tsv::archive_files(&archive).expect("list").into_iter().take(3) {
        std::fs::create_dir_all(&half).expect("mkdir");
        std::fs::copy(&path, half.join(path.file_name().unwrap())).expect("copy");
    }
    let mut engine = ShardEngine::open(&state, config).expect("open engine");
    let outcome = engine
        .ingest_archive(&half, &ImportOptions::strict())
        .expect("ingest half");
    println!(
        "partial ingest : {} snapshots over {} shards, {} clusters",
        outcome.stats.len(),
        shards,
        engine.store().cluster_count()
    );
    drop(engine); // "crash"

    // 3. Tear the tail of every shard's log, as a real crash would.
    for shard in 0..shards {
        let dir = state.join(format!("shard-{shard}"));
        let mut segments: Vec<_> = std::fs::read_dir(&dir)
            .expect("read shard dir")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        segments.sort();
        let last = segments.last().expect("segment");
        faults::inject(last, &Fault::AppendPartial(b"TORN-MID-ROW".to_vec())).expect("tear");
    }

    // 4. Reopen: recovery truncates the torn tails with exact loss
    //    accounting and replays every committed snapshot.
    let mut engine = ShardEngine::open(&state, config).expect("recover");
    let recovery = engine.recovery();
    println!(
        "recovery       : {} snapshots replayed, {} torn tails, {} bytes dropped",
        recovery.snapshots_applied, recovery.torn_tails, recovery.bytes_discarded
    );

    // 5. Resume over the full archive — committed snapshots are skipped.
    let resumed = engine
        .ingest_archive(&archive, &ImportOptions::strict())
        .expect("resume");
    println!(
        "resumed ingest : {} snapshots skipped, {} ingested",
        resumed.resumed,
        resumed.stats.len()
    );

    // 6. The sharded store is identical to the unsharded import: same
    //    clusters, same founding order, same rows.
    let published = engine.publish(1);
    let plain: Vec<(String, Vec<_>)> = reference
        .iter_clusters()
        .map(|(ncid, rows)| (ncid.to_owned(), rows.to_vec()))
        .collect();
    assert_eq!(published.clusters(), &plain[..], "sharded == unsharded");
    let sample = &plain[0].0;
    println!(
        "published      : {} clusters, {} records — identical to the \
         unsharded store (cluster {} lives on shard {})",
        published.cluster_count(),
        published.record_count(),
        sample,
        shard_of(sample, shards)
    );

    std::fs::remove_dir_all(&base).ok();
}
