//! Seeded inputs and the built system the workloads start from.
//!
//! Everything here is set-up: it runs before a workload's timed region
//! and is what `setup_s` measures. Each call into a layer is wrapped in
//! a span so the traced run attributes set-up time too.

use std::path::Path;
use std::time::Instant;

use nc_core::md5::{md5, Digest};
use nc_core::record::DedupPolicy;
use nc_core::scoring::ClusterScore;
use nc_core::snapshot::StoreSnapshot;
use nc_core::tsv::{self, ImportOptions};
use nc_shard::{ShardEngine, ShardEngineConfig};
use nc_votergen::config::GeneratorConfig;
use nc_votergen::date::Date;
use nc_votergen::registry::Registry;
use nc_votergen::schema::{Row, FIRST_NAME, LAST_NAME, NCID};
use nc_votergen::snapshot::{standard_calendar, Snapshot, SnapshotInfo};

use crate::harness::{median, TmpDir};
use crate::trace::Tracer;
use crate::Config;

/// Hash partitions of the shard engine, as in `BENCH_shard.json`.
pub const SHARDS: usize = 4;

/// The shard-engine configuration every workload uses.
pub fn engine_config() -> ShardEngineConfig {
    ShardEngineConfig::new(SHARDS, DedupPolicy::Trimmed, 1)
}

/// Open (or replay) the engine on `state`.
pub fn open_engine(state: &Path) -> ShardEngine {
    ShardEngine::open(state, engine_config()).expect("open shard engine")
}

/// The generated base archive and the generator that continues it.
pub struct Inputs {
    /// The registry after the base snapshots; `refresh` draws the next
    /// calendar snapshots from it.
    pub registry: Registry,
    /// The 40-entry standard calendar.
    pub calendar: Vec<SnapshotInfo>,
    /// The base snapshots, in calendar order.
    pub snapshots: Vec<Snapshot>,
    /// Rows over all base snapshots.
    pub rows: u64,
}

/// Generate the base snapshots of `cfg.scale` from `cfg.seed`.
pub fn generate(cfg: &Config, tracer: &mut Tracer) -> Inputs {
    let mut registry = Registry::new(GeneratorConfig {
        seed: cfg.seed,
        initial_population: cfg.scale.population,
        ..Default::default()
    });
    let calendar = standard_calendar();
    assert!(
        cfg.scale.snapshots < calendar.len(),
        "scale needs calendar room"
    );
    let snapshots: Vec<Snapshot> = tracer.span("votergen.generate", || {
        calendar[..cfg.scale.snapshots]
            .iter()
            .map(|info| registry.generate_snapshot(info))
            .collect()
    });
    let rows = snapshots.iter().map(|s| s.rows.len() as u64).sum();
    Inputs {
        registry,
        calendar,
        snapshots,
        rows,
    }
}

/// Write snapshots as TSV files into `dir`; returns the bytes written.
pub fn write_archive(dir: &Path, snapshots: &[Snapshot], tracer: &mut Tracer) -> u64 {
    tracer.span("core.tsv.write", || {
        snapshots
            .iter()
            .map(|snap| {
                let path = tsv::write_snapshot(dir, snap).expect("write snapshot");
                std::fs::metadata(path).map_or(0, |m| m.len())
            })
            .sum()
    })
}

/// A generated archive ingested through the WAL and published once: the
/// starting state of `refresh`, `serve_mix` and `detect_carved`.
pub struct Built {
    /// The inputs the archive was written from.
    pub inputs: Inputs,
    /// The TSV archive directory.
    pub archive: TmpDir,
    /// Bytes of TSV in it.
    pub archive_bytes: u64,
    /// The engine's state directory (WAL + manifest).
    pub state: TmpDir,
    /// The engine, holding every base snapshot.
    pub engine: ShardEngine,
}

/// Generate, archive, ingest and publish version 1.
pub fn build(cfg: &Config, tracer: &mut Tracer) -> (Built, StoreSnapshot) {
    let inputs = generate(cfg, tracer);
    let archive = TmpDir::new(&cfg.work_dir, "archive");
    let archive_bytes = write_archive(archive.path(), &inputs.snapshots, tracer);
    let state = TmpDir::new(&cfg.work_dir, "state");
    let mut engine = open_engine(state.path());
    tracer
        .span("shard.ingest", || {
            engine.ingest_archive(archive.path(), &ImportOptions::strict())
        })
        .expect("ingest base archive");
    let published = tracer.span("shard.publish_cold", || engine.publish(1));
    let built = Built {
        inputs,
        archive,
        archive_bytes,
        state,
        engine,
    };
    (built, published)
}

/// Run a workload's set-up `cfg.scale.setup_reps` times (once when
/// traced: the traced run reports no `setup_s`), dropping each result
/// before the next so only one is ever alive, and return the last one
/// with the median set-up time in seconds. A set-up far shorter than a
/// second is repeated up to three times as often, until a second has been
/// spent on it: its median would otherwise be the noisiest number of the
/// run.
pub fn repeat_setup<T>(
    cfg: &Config,
    tracer: &mut Tracer,
    mut setup: impl FnMut(&mut Tracer) -> T,
) -> (T, f64) {
    let reps = if cfg.trace {
        1
    } else {
        cfg.scale.setup_reps.max(1)
    };
    let mut secs: Vec<f64> = Vec::with_capacity(3 * reps);
    let mut last = None;
    while secs.len() < reps
        || (!cfg.trace && secs.len() < 3 * reps && secs.iter().sum::<f64>() < 1.0)
    {
        drop(last.take());
        let start = Instant::now();
        let op = tracer.begin_op("setup");
        last = Some(setup(tracer));
        tracer.end(op);
        secs.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up repetition"), median(&secs))
}

/// Digest of a published snapshot: version-independent, over every
/// cluster's NCID and rows in publish order.
pub fn snapshot_digest(snapshot: &StoreSnapshot) -> Digest {
    let mut text = String::new();
    for (ncid, rows) in snapshot.clusters() {
        text.push_str(ncid);
        text.push('\n');
        for row in rows {
            text.push_str(&row.to_tsv());
            text.push('\n');
        }
    }
    md5(text.as_bytes())
}

/// Digest of a score vector, bit-exact in both scores.
pub fn scores_digest(scores: &[ClusterScore]) -> Digest {
    let mut bytes = Vec::with_capacity(scores.len() * 40);
    for s in scores {
        bytes.extend_from_slice(s.ncid.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&(s.records as u64).to_le_bytes());
        bytes.extend_from_slice(&s.plausibility.to_bits().to_le_bytes());
        bytes.extend_from_slice(&s.heterogeneity.to_bits().to_le_bytes());
    }
    md5(&bytes)
}

/// A revise-only churn snapshot, built as `bench_stream` builds them:
/// one fresh (never duplicate-dropped) row appended to `count` clusters
/// strided evenly over the store and rotated by `offset`.
pub fn churn_snapshot(
    clusters: &[(String, Vec<Row>)],
    count: usize,
    offset: usize,
    index: usize,
    date: &str,
) -> Snapshot {
    let n = clusters.len();
    let count = count.clamp(1, n);
    let rows = (0..count)
        .map(|i| {
            let mut row = Row::empty();
            row.set(NCID, clusters[(offset + i * n / count) % n].0.as_str());
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

/// The day after a calendar date, as `YYYY-MM-DD`: where a churn
/// snapshot sorts in the archive (calendar days stop at the 26th, so the
/// next day always exists and is never itself a calendar date).
pub fn day_after(date: Date) -> String {
    Date::new(date.year, date.month, date.day + 1).to_string()
}
