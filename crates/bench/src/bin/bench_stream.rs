//! Change-stream benchmark: full re-scoring vs dirty-only incremental
//! re-scoring at several churn rates, plus the warm-carve hit rate a
//! delta-aware publish preserves that a blind publish throws away.
//!
//! ```sh
//! scripts/bench.sh stream                  # BENCH_stream.json at its recorded parameters
//! cargo run --release -p nc-bench --bin bench_stream -- --pop 95000 --publishes 5 --out /tmp/s.json
//! ```
//!
//! The store is built once through the WAL-backed shard engine; each
//! churn level then ingests a revise-only snapshot touching the given
//! fraction of clusters, derives the dirty set from the change stream
//! (never from the snapshot itself), and times a full
//! `score_clusters` pass against `score_clusters_incremental` over the
//! stream's dirty set, checking **bit-identical** output on every
//! repetition, so a reported speedup can never come from a wrong
//! answer. The carve phase publishes further low-churn versions into
//! two cache-backed carve engines — one fed the folded
//! [`PublishDelta`], one publishing blind — and counts warm hits on a
//! fixed request mix. The run fails unless the incremental pass wins by
//! `--min-speedup` at 1% churn and the delta-fed cache serves at least
//! one warm hit.

use std::collections::HashSet;
use std::process::ExitCode;
use std::sync::Arc;

use nc_bench::bench::{finish, timed, Flags, Timing};
use nc_bench::context::{temp_dir, ExperimentScale};
use nc_core::customize::CustomizeParams;
use nc_core::heterogeneity::Scope;
use nc_core::plausibility::PlausibilityScorer;
use nc_core::scoring::{score_clusters, score_clusters_incremental, ClusterScore, ScoringConfig};
use nc_core::snapshot::StoreSnapshot;
use nc_core::tsv::ImportOptions;
use nc_docstore::doc;
use nc_pipeline_bench::harness::Checks;
use nc_serve::{
    CacheStatus, CarveEngine, CarveRequest, PublishDelta, ServeSnapshot, SnapshotRegistry,
};
use nc_shard::ShardEngine;
use nc_stream::{fold_delta, ChangeStream};
use nc_votergen::schema::{Row, FIRST_NAME, LAST_NAME, NCID};
use nc_votergen::snapshot::Snapshot;

const CHURN_FRACTIONS: [f64; 3] = [0.001, 0.01, 0.1];

fn pick_ncids(clusters: &[(String, Vec<Row>)], count: usize, offset: usize) -> Vec<String> {
    let n = clusters.len();
    let count = count.clamp(1, n);
    (0..count)
        .map(|i| clusters[(offset + i * n / count) % n].0.clone())
        .collect()
}

/// A revise-only churn snapshot: one fresh (never duplicate-dropped)
/// row appended to each picked cluster.
fn churn_snapshot(index: usize, date: &str, ncids: &[String]) -> Snapshot {
    let rows = ncids
        .iter()
        .enumerate()
        .map(|(i, ncid)| {
            let mut row = Row::empty();
            row.set(NCID, ncid);
            row.set(FIRST_NAME, "ZELDA");
            row.set(LAST_NAME, format!("CHURN{index}X{i}"));
            row
        })
        .collect();
    Snapshot {
        index,
        date: date.to_string(),
        rows,
    }
}

/// Bit-exact score comparison; a speedup must never come from a wrong
/// answer, so any drift fails the run.
fn check_bit_identical(
    checks: &mut Checks,
    full: &[ClusterScore],
    incremental: &[ClusterScore],
    label: &str,
) {
    let drift = if full.len() != incremental.len() {
        Some(format!("{} vs {} clusters", full.len(), incremental.len()))
    } else {
        full.iter().zip(incremental).find_map(|(f, i)| {
            let same = f.ncid == i.ncid
                && f.records == i.records
                && f.plausibility.to_bits() == i.plausibility.to_bits()
                && f.heterogeneity.to_bits() == i.heterogeneity.to_bits();
            (!same).then(|| format!("cluster {}", f.ncid))
        })
    };
    checks.check(drift.is_none(), || {
        format!(
            "incremental scores drift from full at {label}: {}",
            drift.unwrap_or_default()
        )
    });
}

/// The fixed request mix for the carve phase: NC1–NC3 at two seeds.
fn carve_requests(sample: usize, output: usize, seed: u64) -> Vec<CarveRequest> {
    let mut requests = Vec::new();
    for s in [seed, seed + 1] {
        for params in [
            CustomizeParams::nc1(sample, output, s),
            CustomizeParams::nc2(sample, output, s),
            CustomizeParams::nc3(sample, output, s),
        ] {
            requests.push(CarveRequest {
                version: None,
                params,
                page: 0,
                page_size: usize::MAX,
                encoding: None,
            });
        }
    }
    requests
}

fn main() -> ExitCode {
    let mut flags = Flags::from_env("bench_stream");
    let scale = ExperimentScale {
        population: flags.get("--pop", 52_000),
        snapshots: flags.get("--snapshots", 8),
        ..ExperimentScale::default()
    };
    let shards = flags.get("--shards", 4usize);
    let reps = flags.get("--reps", 3usize).max(1);
    let publishes = flags.get("--publishes", 3usize);
    let min_speedup = flags.get("--min-speedup", 5.0f64);
    let out = flags.path("--out", "BENCH_stream.json");
    flags.done();

    let archive = scale.archive(shards);
    let rows = archive.rows();
    let state = temp_dir("state");
    let mut engine = ShardEngine::open(state.path(), archive.config).expect("open shard engine");
    let options = ImportOptions::strict();
    eprintln!("ingesting {rows} rows through the WAL…");
    engine
        .ingest_archive(archive.dir.path(), &options)
        .expect("engine ingest");
    let mut checks = Checks::default();

    // The stream replays the base ingest; its batches seed the
    // known-cluster set so later churn classifies as revisions.
    let mut stream = ChangeStream::open(state.path());
    let base_batches = stream.drain().expect("stream drain");
    checks.check(base_batches.len() == scale.snapshots, || {
        format!(
            "the stream replayed {} of {} snapshots",
            base_batches.len(),
            scale.snapshots
        )
    });

    let mut version = 1u32;
    let base = engine.publish(version);
    let clusters = base.cluster_count();
    let records = base.record_count();
    eprintln!("store: {clusters} clusters, {records} records");

    let plausibility = PlausibilityScorer::new();
    let scoring = ScoringConfig::default();

    // Baseline full pass (and the previous-scores seed for churn 1).
    let entropy = base.entropy_scorer(Scope::Person);
    let (base_full_secs, mut previous) =
        timed(|| score_clusters(base.clusters(), &plausibility, &entropy, &scoring));
    eprintln!("baseline full score: {:.1} ms", base_full_secs * 1e3);

    // Churn levels: ingest, stream, fold, then full vs incremental.
    let mut churn = Vec::new();
    let mut gated_speedup = 0.0;
    let mut snapshot_index = scale.snapshots;
    for (level, &fraction) in CHURN_FRACTIONS.iter().enumerate() {
        version += 1;
        snapshot_index += 1;
        let touch = ((clusters as f64 * fraction).round() as usize).max(1);
        let ncids = pick_ncids(base.clusters(), touch, level * 17 + 1);
        let date = format!("2040-01-{:02}", level + 1);
        archive.write(&churn_snapshot(snapshot_index, &date, &ncids));
        engine
            .ingest_archive(archive.dir.path(), &options)
            .expect("ingest churn");
        let batches = stream.drain().expect("stream drain");
        checks.check(batches.len() == 1, || {
            format!(
                "{} committed snapshots at churn level {level}, expected one",
                batches.len()
            )
        });
        let delta = fold_delta(&batches, version);
        checks.check(delta.founded.is_empty(), || {
            "revise-only churn must not found clusters".into()
        });
        checks.check(delta.revised.len() == ncids.len(), || {
            format!(
                "{} clusters revised of {} touched",
                delta.revised.len(),
                ncids.len()
            )
        });
        let dirty: HashSet<String> = delta.dirty_clusters().map(str::to_owned).collect();

        let published = engine.publish(version);
        let entropy = published.entropy_scorer(Scope::Person);
        let label = format!("churn {fraction}");
        let full_pass = || score_clusters(published.clusters(), &plausibility, &entropy, &scoring);
        let incremental_pass = || {
            score_clusters_incremental(
                published.clusters(),
                &previous,
                &dirty,
                &plausibility,
                &entropy,
                &scoring,
            )
        };

        // Warmup both sides once, then interleave best-of-reps so
        // clock drift and cache warmth bias neither.
        let full = full_pass();
        check_bit_identical(&mut checks, &full, &incremental_pass(), &label);
        let mut full_samples = Vec::with_capacity(reps);
        let mut incremental_samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            let (secs, f) = timed(full_pass);
            full_samples.push(secs);
            let (secs, incremental) = timed(incremental_pass);
            incremental_samples.push(secs);
            check_bit_identical(&mut checks, &f, &incremental, &label);
        }
        previous = full;

        let full_secs = Timing::of(&full_samples).best;
        let incremental_secs = Timing::of(&incremental_samples).best;
        let speedup = full_secs / incremental_secs;
        if fraction == 0.01 {
            gated_speedup = speedup;
        }
        eprintln!(
            "churn {:.1}%: {} dirty, full {:.1} ms, incremental {:.1} ms ({speedup:.1}x)",
            fraction * 100.0,
            dirty.len(),
            full_secs * 1e3,
            incremental_secs * 1e3,
        );
        churn.push(doc! {
            "fraction" => fraction,
            "dirty_clusters" => dirty.len(),
            "full_secs" => full_secs,
            "incremental_secs" => incremental_secs,
            "speedup" => speedup,
        });
    }
    checks.check(gated_speedup >= min_speedup, || {
        format!("incremental speedup {gated_speedup:.2}x at 1% churn is below {min_speedup:.2}x")
    });

    // Carve phase: the same low-churn publishes flow into two cached
    // engines — one told what changed, one publishing blind — and the
    // request mix re-runs after every publish. Range invalidation is
    // what lets the delta-aware engine keep serving warm entries.
    let current: StoreSnapshot = engine.publish(version);
    let sample = 200.min(clusters.max(1));
    let output = 50.min(sample);
    let requests = carve_requests(sample, output, scale.seed);
    let cached = || {
        CarveEngine::new(
            Arc::new(SnapshotRegistry::new(ServeSnapshot::new(current.clone()))),
            64,
        )
    };
    let with_delta = cached();
    let without_delta = cached();
    for request in &requests {
        with_delta.carve(request).expect("prime carve");
        without_delta.carve(request).expect("prime carve");
    }

    let mut hits_with_delta = 0usize;
    let mut hits_without_delta = 0usize;
    let mut carves = 0usize;
    for publish in 0..publishes {
        version += 1;
        snapshot_index += 1;
        let touch = ((clusters as f64 * 0.001).round() as usize).max(1);
        let ncids = pick_ncids(current.clusters(), touch, 7919 * (publish + 1));
        let date = format!("2041-01-{:02}", publish + 1);
        archive.write(&churn_snapshot(snapshot_index, &date, &ncids));
        engine
            .ingest_archive(archive.dir.path(), &options)
            .expect("ingest churn");
        let batches = stream.drain().expect("stream drain");
        let delta: PublishDelta = fold_delta(&batches, version);
        let published = engine.publish(version);
        with_delta.publish(ServeSnapshot::new(published.clone()), Some(delta));
        without_delta.publish(ServeSnapshot::new(published), None);
        for request in &requests {
            let warm = with_delta.carve(request).expect("carve");
            let blind = without_delta.carve(request).expect("carve");
            carves += 1;
            hits_with_delta += usize::from(warm.status == CacheStatus::Hit);
            hits_without_delta += usize::from(blind.status == CacheStatus::Hit);
            // A carried-forward entry must still be byte-identical to
            // a fresh carve of the new snapshot.
            checks.check(
                warm.result.page(0, usize::MAX) == blind.result.page(0, usize::MAX),
                || format!("carve drift at version {version}: cached != fresh"),
            );
        }
    }
    checks.check(hits_with_delta > 0, || {
        "delta-aware carve cache produced no warm hits".into()
    });
    let stats = with_delta.delta_stats();
    eprintln!(
        "carve: {carves} post-publish carves, warm hits {hits_with_delta} with deltas \
         vs {hits_without_delta} blind (carried forward {}, invalidated {})",
        stats.carried_forward, stats.invalidated,
    );

    let carve = doc! {
        "requests" => requests.len(),
        "publishes" => publishes,
        "post_publish_carves" => carves,
        "hits_with_delta" => hits_with_delta,
        "hits_without_delta" => hits_without_delta,
        "hit_rate_with_delta" => hits_with_delta as f64 / carves.max(1) as f64,
        "hit_rate_without_delta" => hits_without_delta as f64 / carves.max(1) as f64,
        "carried_forward" => stats.carried_forward,
        "invalidated" => stats.invalidated,
    };
    let report = doc! {
        "population" => scale.population,
        "snapshots" => scale.snapshots,
        "shards" => shards,
        "seed" => scale.seed,
        "rows" => rows,
        "clusters" => clusters,
        "records" => records,
        "scoring_threads" => scoring.effective_threads(),
        "base_full_score_secs" => base_full_secs,
        "churn" => churn,
        "carve" => carve,
        "min_speedup_gate" => min_speedup,
    };
    finish(&out, report, &checks)
}
