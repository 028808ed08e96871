//! `build_cold`: the dataset builder's batch path, then a restart.
//!
//! Main operation: a TSV archive on disk → `ShardEngine::ingest_archive`
//! (4 shards, WAL on, strict import) → `publish(1)` → `ServeSnapshot::new`
//! → full `score_clusters` → `catalog()` → first NC2 preset carve.
//! Alternative operation: drop the engine, `ShardEngine::open` the same
//! state directory (WAL replay) and `publish` again.
//!
//! It is the only workload where `core.tsv`, `shard.wal` and full
//! `core.scoring` do most of the work and `serve.*` does almost none,
//! and the restart half reads the same WAL the build half writes, so a
//! write-side gain that costs replay shows.

use std::sync::Arc;
use std::time::Instant;

use nc_core::customize::CustomizeParams;
use nc_core::md5::Digest;
use nc_core::plausibility::PlausibilityScorer;
use nc_core::record::DedupPolicy;
use nc_core::scoring::{score_clusters, ScoringConfig};
use nc_core::tsv::{self, ImportOptions};
use nc_serve::{
    CacheStatus, CarveEngine, CarveRequest, ServeConfig, ServeSnapshot, SnapshotRegistry,
};
use nc_shard::ShardedStore;

use crate::harness::{dir_usage, median, Phase, TmpDir};
use crate::metrics::Report;
use crate::requests::{CARVE_OUTPUT, CARVE_SAMPLE};
use crate::world::{generate, open_engine, scores_digest, snapshot_digest, write_archive, SHARDS};
use crate::{world, Config, Run};

/// Run the workload.
pub fn run(cfg: &Config) -> Report {
    let mut run = Run::new(cfg, "build_cold");

    let ((inputs, archive, archive_bytes), setup_s) =
        world::repeat_setup(cfg, &mut run.tracer, |tracer| {
            let inputs = generate(cfg, tracer);
            let archive = TmpDir::new(&cfg.work_dir, "archive");
            let bytes = write_archive(archive.path(), &inputs.snapshots, tracer);
            (inputs, archive, bytes)
        });
    let rows = inputs.rows;

    let plausibility = PlausibilityScorer::new();
    let scoring = ScoringConfig::with_threads(0);
    let first_carve = CarveRequest {
        version: None,
        params: CustomizeParams::nc2(CARVE_SAMPLE, CARVE_OUTPUT, cfg.seed),
        encoding: None,
        page: 0,
        page_size: ServeConfig::default().defaults.page_size,
    };

    let phase = Phase::start(cfg.seconds);
    let mut build_secs = Vec::new();
    let mut restart_secs = Vec::new();
    // (snapshot digest, score digest) of the first repetition: every
    // later build and every replay must reproduce them.
    let mut reference: Option<(Digest, Digest)> = None;
    let mut records = 0u64;
    let mut catalog_docs = 0usize;
    let mut disk = (0u64, 0u64, 0u64);
    while phase.more(build_secs.len(), cfg.scale.min_reps) {
        let state = TmpDir::new(&cfg.work_dir, "state");

        let start = Instant::now();
        let op = run.tracer.begin_op("build_cold.build");
        let mut engine = run.tracer.span("shard.open", || open_engine(state.path()));
        let ingested = run.tracer.span("shard.ingest", || {
            engine.ingest_archive(archive.path(), &ImportOptions::strict())
        });
        let published = run.tracer.span("shard.publish_cold", || engine.publish(1));
        let snapshot = run
            .tracer
            .span("core.snapshot.entropy", || ServeSnapshot::new(published));
        let scores = run.tracer.span("core.scoring.full", || {
            score_clusters(
                snapshot.store().clusters(),
                &plausibility,
                snapshot.scorer(),
                &scoring,
            )
        });
        catalog_docs = run
            .tracer
            .span("query.catalog.build", || snapshot.catalog().len());
        let (carver, carved) = run.tracer.span("serve.engine.first_carve", || {
            let carver = CarveEngine::new(Arc::new(SnapshotRegistry::new(snapshot)), 32);
            let carved = carver.carve(&first_carve);
            (carver, carved)
        });
        run.tracer.end(op);
        build_secs.push(start.elapsed().as_secs_f64());

        let imported: u64 = ingested
            .as_ref()
            .map_or(0, |o| o.stats.iter().map(|s| s.total_rows).sum());
        run.checks.check(
            imported == rows && engine.store().rows_imported() == rows,
            || format!("build imported {imported} of {rows} archive rows"),
        );
        run.checks.check(
            matches!(&carved, Ok(c) if c.status == CacheStatus::Miss && c.result.records > 0),
            || {
                format!(
                    "first carve did not produce a fresh dataset: {:?}",
                    carved.as_ref().map(|c| c.status)
                )
            },
        );
        let current = carver.registry().current();
        records = current.record_count();
        let digests = (snapshot_digest(current.store()), scores_digest(&scores));
        let expected = *reference.get_or_insert(digests);
        run.checks.check(digests == expected, || {
            "a build repetition published a different snapshot or score vector".to_string()
        });
        let (disk_bytes, _) = dir_usage(state.path(), &|_| true);
        let (wal_bytes, wal_segments) = dir_usage(state.path(), &|name| name.starts_with("wal-"));
        disk = (disk_bytes, wal_bytes, wal_segments);
        drop((engine, carver, current, scores));

        let start = Instant::now();
        let op = run.tracer.begin_op("build_cold.restart");
        let mut replayed = run
            .tracer
            .span("shard.replay", || open_engine(state.path()));
        let republished = run
            .tracer
            .span("shard.publish_replayed", || replayed.publish(1));
        run.tracer.end(op);
        restart_secs.push(start.elapsed().as_secs_f64());

        run.checks.check(
            replayed.recovery().is_clean() && replayed.recovery().rows_replayed == rows,
            || format!("replay was not clean: {:?}", replayed.recovery()),
        );
        run.checks
            .check(snapshot_digest(&republished) == expected.0, || {
                "the replayed engine published a different snapshot".to_string()
            });
        if cfg.trace {
            run.tracer
                .span("shard.publish_noop", || replayed.publish(1));
        }
    }
    let measured = phase.elapsed();

    let build_s = median(&build_secs);
    run.metrics.set("main_op_ms", build_s * 1e3);
    run.metrics.set("alt_op_ms", median(&restart_secs) * 1e3);
    run.metrics.set("throughput_per_s", rows as f64 / build_s);
    run.metrics.set("setup_s", setup_s);

    if cfg.trace {
        // Side measurements: the two parts of an ingest that are not the
        // WAL, each through its public function in isolation.
        run.tracer.span("core.tsv.read", || {
            for file in tsv::archive_files(archive.path()).expect("list archive") {
                std::hint::black_box(tsv::read_snapshot(&file).expect("read snapshot"));
            }
        });
        run.tracer.span("shard.store.ingest_mem", || {
            let mut store = ShardedStore::new(SHARDS);
            for snap in &inputs.snapshots {
                store.ingest_snapshot(snap, DedupPolicy::Trimmed, 1);
            }
            std::hint::black_box(store.rows_imported());
        });

        run.setup_metrics(rows, archive_bytes);
        run.span_median("core.tsv.read", "core.tsv.read_s", 1.0);
        run.span_median("shard.store.ingest_mem", "shard.store.ingest_mem_s", 1.0);
        run.span_median("shard.ingest", "shard.ingest_s", 1.0);
        let ingest_s = run.span_secs("shard.ingest");
        let wal_s =
            ingest_s - run.span_secs("core.tsv.read") - run.span_secs("shard.store.ingest_mem");
        run.metrics
            .set("shard.ingest_rows_per_s", rows as f64 / ingest_s);
        run.metrics
            .set("shard.wal.overhead_share", wal_s / ingest_s);
        run.metrics.set("shard.wal.bytes", disk.1 as f64);
        run.metrics.set("shard.wal.segments", disk.2 as f64);
        run.metrics.set(
            "shard.disk_bytes_per_input_byte",
            disk.0 as f64 / archive_bytes as f64,
        );
        run.span_median("shard.publish_cold", "shard.publish_cold_s", 1.0);
        run.span_median("shard.publish_noop", "shard.publish_noop_s", 1.0);
        run.span_median("shard.replay", "shard.replay_s", 1.0);
        run.metrics.set(
            "shard.replay_rows_per_s",
            rows as f64 / run.span_secs("shard.replay"),
        );
        run.span_median("core.scoring.full", "core.scoring.full_s", 1.0);
        run.metrics.set(
            "core.scoring.records_per_s",
            records as f64 / run.span_secs("core.scoring.full"),
        );
        run.span_median("core.snapshot.entropy", "core.snapshot.entropy_s", 1.0);
        run.span_median("query.catalog.build", "query.catalog.build_s", 1.0);
        run.metrics.set("query.catalog.docs", catalog_docs as f64);
        run.span_median(
            "serve.engine.first_carve",
            "serve.engine.first_carve_ms",
            1e3,
        );
    }
    run.finish(measured, &["build_cold.build", "build_cold.restart"])
}
