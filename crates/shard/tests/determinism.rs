//! Property tests: a [`ShardedStore`] is *bit-identical* to the
//! unsharded [`ClusterStore`] for every shard count — same per-snapshot
//! stats, same merged cluster order, same published snapshot, same
//! scores (to the last mantissa bit) and same carved NC1–NC3 datasets.
//!
//! This is the contract that lets the rest of the pipeline (scoring,
//! customization, nc-serve carving) run unchanged on top of shards.

use nc_core::cluster::ClusterStore;
use nc_core::customize::{customize, CustomDataset, CustomizeParams};
use nc_core::heterogeneity::Scope;
use nc_core::import::{import_snapshot, ImportStats};
use nc_core::plausibility::PlausibilityScorer;
use nc_core::record::DedupPolicy;
use nc_core::scoring::{score_clusters, score_store, ScoringConfig};
use nc_core::snapshot::StoreSnapshot;
use nc_propcheck::check_n;
use nc_shard::ShardedStore;
use nc_votergen::config::GeneratorConfig;
use nc_votergen::registry::Registry;
use nc_votergen::schema::Row;
use nc_votergen::snapshot::{standard_calendar, Snapshot};

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// Each case generates a registry and builds it once per shard count.
const CASES: u32 = 24;

fn generate_snapshots(seed: u64, population: usize, count: usize) -> Vec<Snapshot> {
    let mut registry = Registry::new(GeneratorConfig {
        seed,
        initial_population: population,
        ..Default::default()
    });
    standard_calendar()
        .iter()
        .take(count)
        .map(|info| registry.generate_snapshot(info))
        .collect()
}

/// Bit-exact rendering of a carved dataset: cluster NCIDs plus every
/// record as its TSV line, in order.
fn render(ds: &CustomDataset) -> Vec<String> {
    ds.clusters
        .iter()
        .flat_map(|c| {
            std::iter::once(format!("# {}", c.ncid)).chain(c.records.iter().map(Row::to_tsv))
        })
        .collect()
}

#[test]
fn sharded_store_is_bit_identical_to_unsharded() {
    check_n("sharded_store_is_bit_identical_to_unsharded", CASES, |g| {
        let seed = g.range(0u64..10_000);
        let population = g.range(40usize..80);
        let snapshot_count = g.range(1usize..4);
        let snapshots = generate_snapshots(seed, population, snapshot_count);

        // Unsharded reference: store, stats, snapshot, scores.
        let mut plain = ClusterStore::new();
        let mut plain_stats: Vec<ImportStats> = Vec::new();
        for snap in &snapshots {
            plain_stats.push(import_snapshot(&mut plain, snap, DedupPolicy::Trimmed, 1));
        }
        let reference = StoreSnapshot::capture(&plain, 1);
        let plausibility = PlausibilityScorer::new();
        let entropy = reference.entropy_scorer(Scope::Person);
        let plain_scores = score_store(
            &plain,
            &plausibility,
            &entropy,
            &ScoringConfig::with_threads(1),
        );
        let plain_carves: Vec<Vec<String>> = [
            CustomizeParams::nc1(30, 10, seed),
            CustomizeParams::nc2(30, 10, seed),
            CustomizeParams::nc3(30, 10, seed),
        ]
        .iter()
        .map(|params| render(&customize(&plain, &entropy, params)))
        .collect();

        for shards in SHARD_COUNTS {
            let mut sharded = ShardedStore::new(shards);
            let stats: Vec<ImportStats> = snapshots
                .iter()
                .map(|snap| sharded.ingest_snapshot(snap, DedupPolicy::Trimmed, 1))
                .collect();
            assert_eq!(&stats, &plain_stats, "stats, shards={}", shards);

            // Merged iteration order is the unsharded founding order.
            let plain_ids: Vec<&str> = reference
                .clusters()
                .iter()
                .map(|(ncid, _)| ncid.as_str())
                .collect();
            let sharded_ids: Vec<String> = sharded
                .cluster_ids()
                .into_iter()
                .map(|(ncid, _)| ncid)
                .collect();
            assert_eq!(&sharded_ids, &plain_ids, "order, shards={}", shards);

            // The published snapshot is the same object, byte for byte.
            let published = sharded.publish(1);
            assert_eq!(
                published.clusters(),
                reference.clusters(),
                "published clusters, shards={}",
                shards
            );

            // Scoring through the shared score_clusters path is
            // bit-identical (and thread-count independent: the
            // reference ran single-threaded, this one on hardware).
            let scores = score_clusters(
                published.clusters(),
                &plausibility,
                &published.entropy_scorer(Scope::Person),
                &ScoringConfig::with_threads(0),
            );
            assert_eq!(scores.len(), plain_scores.len());
            for (got, want) in scores.iter().zip(&plain_scores) {
                assert_eq!(&got.ncid, &want.ncid);
                assert_eq!(got.records, want.records);
                assert_eq!(
                    got.plausibility.to_bits(),
                    want.plausibility.to_bits(),
                    "plausibility of {} differs, shards={}",
                    got.ncid.clone(),
                    shards
                );
                assert_eq!(
                    got.heterogeneity.to_bits(),
                    want.heterogeneity.to_bits(),
                    "heterogeneity of {} differs, shards={}",
                    got.ncid.clone(),
                    shards
                );
            }

            // Carved NC1–NC3 presets are bit-identical too.
            let carves: Vec<Vec<String>> = [
                CustomizeParams::nc1(30, 10, seed),
                CustomizeParams::nc2(30, 10, seed),
                CustomizeParams::nc3(30, 10, seed),
            ]
            .iter()
            .map(|params| {
                render(&published.customize(&published.entropy_scorer(Scope::Person), params))
            })
            .collect();
            assert_eq!(&carves, &plain_carves, "carves, shards={}", shards);
        }
    });
}

/// One step of the publish oracle's plan.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Ingest the next generated calendar snapshot (founds and revises).
    Calendar,
    /// Ingest one fresh row for every third known cluster (revises only).
    Revise,
    /// Re-ingest the last ingested rows (every row duplicate-dropped).
    Duplicate,
    /// Publish and compare against both oracles.
    Publish,
    /// Publish twice more with nothing new (both must be no-ops).
    PublishAgain,
    /// Drop the engine and reopen it from its state dir (WAL replay).
    Reopen,
}

impl Step {
    fn from_code(code: u8) -> Step {
        match code % 6 {
            0 => Step::Calendar,
            1 => Step::Revise,
            2 => Step::Duplicate,
            3 => Step::Publish,
            4 => Step::PublishAgain,
            _ => Step::Reopen,
        }
    }
}

fn oracle_dir(name: &str) -> std::path::PathBuf {
    static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let mut dir = std::env::temp_dir();
    dir.push(format!(
        "nc_shard_oracle_{name}_{}_{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The engine's publish against two oracles that share none of its
/// history: whatever interleaving of ingests, publishes and restarts
/// came before, `publish(v)` equals — to the byte — the publish of a
/// from-scratch in-memory [`ShardedStore`] fed the same rows and the
/// capture of the unsharded twin.
#[test]
fn engine_publish_equals_from_scratch_oracles_under_any_interleaving() {
    check_n("engine_publish_equals_from_scratch_oracles_under_any_interleaving", CASES, |g| {
        let seed = g.range(0u64..10_000);
        let population = g.range(30usize..60);
        let codes = g.vec(4..12, |g| g.range(0u8..6));
        use nc_core::tsv::{self, ImportOptions};
        use nc_shard::{ShardEngine, ShardEngineConfig};
        use nc_votergen::schema::{FIRST_NAME, LAST_NAME, NCID};

        // Every plan starts from a populated store and ends on a publish.
        let mut plan = vec![Step::Calendar];
        plan.extend(codes.iter().map(|&c| Step::from_code(c)));
        plan.push(Step::Publish);

        for shards in SHARD_COUNTS {
            let state = oracle_dir("state");
            let archive = oracle_dir("archive");
            let config = ShardEngineConfig::new(shards, DedupPolicy::Trimmed, 1);
            let mut engine = ShardEngine::open(&state, config).unwrap();
            let mut registry = Registry::new(GeneratorConfig {
                seed,
                initial_population: population,
                ..Default::default()
            });
            let calendar = standard_calendar();
            let mut next_calendar = 0;
            let mut plain = ClusterStore::new();
            // The rows as the engine read them back from disk.
            let mut ingested: Vec<Snapshot> = Vec::new();
            let mut version = 0u32;

            for (i, step) in plan.iter().enumerate() {
                let rows: Option<Vec<Row>> = match step {
                    Step::Calendar => {
                        let snap = registry.generate_snapshot(&calendar[next_calendar]);
                        next_calendar += 1;
                        Some(snap.rows)
                    }
                    Step::Revise => Some(
                        StoreSnapshot::capture(&plain, 0)
                            .clusters()
                            .iter()
                            .step_by(3)
                            .map(|(ncid, _)| {
                                let mut row = Row::empty();
                                row.set(NCID, ncid.as_str());
                                row.set(FIRST_NAME, "ZELDA");
                                row.set(LAST_NAME, format!("REVISED{i}"));
                                row
                            })
                            .collect(),
                    ),
                    Step::Duplicate => {
                        let last = ingested.last().expect("plan starts with an ingest");
                        Some(last.rows.clone())
                    }
                    Step::Publish | Step::PublishAgain | Step::Reopen => None,
                };
                if let Some(rows) = rows {
                    // Synthetic, strictly increasing dates: the archive
                    // is ingested in file-name order.
                    let snap = Snapshot { index: i, date: format!("{:04}-01-01", 2000 + i), rows };
                    let path = tsv::write_snapshot(&archive, &snap).unwrap();
                    let before = matches!(step, Step::Duplicate).then(|| engine.publish(version));
                    let outcome = engine
                        .ingest_archive(&archive, &ImportOptions::strict())
                        .unwrap();
                    assert_eq!(outcome.stats.len(), 1);
                    let read_back = tsv::read_snapshot(&path).unwrap();
                    let stats = import_snapshot(&mut plain, &read_back, DedupPolicy::Trimmed, 1);
                    assert_eq!(&outcome.stats[0], &stats);
                    if let Some(before) = before {
                        assert_eq!(stats.new_records, 0);
                        assert_eq!(
                            engine.publish(version).clusters(),
                            before.clusters(),
                            "dropped duplicates change no published cluster, shards={}", shards
                        );
                    }
                    ingested.push(read_back);
                    continue;
                }
                if matches!(step, Step::Reopen) {
                    drop(engine);
                    engine = ShardEngine::open(&state, config).unwrap();
                    assert!(engine.recovery().is_clean());
                    continue;
                }

                version += 1;
                let published = engine.publish(version);
                let twin = StoreSnapshot::capture(&plain, version);
                assert_eq!(
                    published.clusters(), twin.clusters(),
                    "engine vs unsharded twin at step {} ({:?}), shards={}", i, step, shards
                );
                assert_eq!(published.record_count(), twin.record_count());
                let mut scratch = ShardedStore::new(shards);
                for snap in &ingested {
                    scratch.ingest_snapshot(snap, DedupPolicy::Trimmed, 1);
                }
                let cold = scratch.publish(version);
                assert_eq!(
                    published.clusters(), cold.clusters(),
                    "engine vs from-scratch sharded store at step {}, shards={}", i, shards
                );
                if matches!(step, Step::PublishAgain) {
                    // Nothing landed since: repeated publishes publish
                    // the same clusters.
                    for _ in 0..2 {
                        version += 1;
                        let again = engine.publish(version);
                        assert_eq!(again.clusters(), published.clusters());
                        assert_eq!(again.version(), version);
                    }
                }
            }
            let _ = std::fs::remove_dir_all(&state);
            let _ = std::fs::remove_dir_all(&archive);
        }
    });
}

/// Rewrite every shard log under `state` in the format earlier versions
/// wrote: each `D` record becomes the `R` record of the full row it
/// stood for. Returns how many `(R, D)` records the logs held.
fn rewrite_logs_with_full_rows(state: &std::path::Path, shards: usize, rows: &[Row]) -> (usize, usize) {
    use nc_docstore::persist::{frame_line, read_framed};
    let (mut full, mut short) = (0, 0);
    for shard in 0..shards {
        for entry in std::fs::read_dir(nc_shard::shard_log_dir(state, shard)).unwrap() {
            let path = entry.unwrap().path();
            let mut text = String::new();
            for line in std::fs::read_to_string(&path).unwrap().lines() {
                let body = read_framed(line).expect("clean log");
                let fields: Vec<&str> = body.splitn(3, '\t').collect();
                let body = match fields[0] {
                    "D" => {
                        short += 1;
                        let seq: usize = fields[1].parse().unwrap();
                        format!("R\t{seq}\t{}", rows[seq].as_tsv())
                    }
                    kind => {
                        full += usize::from(kind == "R");
                        body.to_owned()
                    }
                };
                text.push_str(&frame_line(&body));
                text.push('\n');
            }
            std::fs::write(path, text).unwrap();
        }
    }
    (full, short)
}

/// A restart redoes logged decisions instead of making them again, and
/// lands where making them again lands: an engine reopened over its own
/// log — kept rows in full, dropped rows as `D` records — and one
/// reopened over the same log with every row in full (what earlier
/// versions wrote) both replay every archive row and equal the
/// unsharded twin, published clusters and per-cluster meta data alike.
#[test]
fn reopened_engine_equals_the_unsharded_twin_from_either_log_format() {
    use nc_core::tsv::{self, ImportOptions};
    use nc_shard::{ShardEngine, ShardEngineConfig};

    let mut snapshots = generate_snapshots(77, 70, 3);
    // A snapshot of nothing but repeats, and rows that repeat a record
    // only once trimmed.
    let mut repeats = snapshots[2].clone();
    repeats.date = "2099-01-01".to_owned();
    for row in repeats.rows.iter_mut().step_by(3) {
        let padded = format!("  {} ", row.get(nc_votergen::schema::LAST_NAME));
        row.set(nc_votergen::schema::LAST_NAME, padded);
    }
    snapshots.push(repeats);

    let archive = oracle_dir("reopen_archive");
    for snapshot in &snapshots {
        tsv::write_snapshot(&archive, snapshot).unwrap();
    }
    let rows: Vec<Row> = snapshots.iter().flat_map(|s| s.rows.iter().cloned()).collect();
    let mut plain = ClusterStore::new();
    for snapshot in &snapshots {
        import_snapshot(&mut plain, snapshot, DedupPolicy::Trimmed, 1);
    }
    let twin = StoreSnapshot::capture(&plain, 1);
    let dropped = (plain.rows_imported() - plain.record_count()) as usize;
    assert!(dropped > snapshots[3].rows.len(), "the archive repeats itself");

    for shards in [1, 3] {
        let state = oracle_dir("reopen_state");
        // Small segments: the logs rotate between snapshots.
        let config = ShardEngineConfig {
            segment_bytes: 16 << 10,
            ..ShardEngineConfig::new(shards, DedupPolicy::Trimmed, 1)
        };
        let mut engine = ShardEngine::open(&state, config).unwrap();
        engine.ingest_archive(&archive, &ImportOptions::strict()).unwrap();
        drop(engine);

        let check_reopened = |what: &str| {
            let mut engine = ShardEngine::open(&state, config).unwrap();
            let recovery = engine.recovery();
            assert!(recovery.is_clean(), "{what}, shards={shards}: {recovery:?}");
            assert_eq!(recovery.rows_replayed, rows.len() as u64, "{what}, shards={shards}");
            assert_eq!(recovery.snapshots_applied, snapshots.len() * shards);
            assert_eq!(engine.store().rows_imported(), plain.rows_imported());
            assert_eq!(engine.publish(1).clusters(), twin.clusters(), "{what}, shards={shards}");
            for (ncid, _) in twin.clusters() {
                let (got, want) = (engine.store().cluster_doc(ncid).unwrap(), plain.cluster_doc(ncid).unwrap());
                for part in ["ncid", "records", "meta"] {
                    assert_eq!(got.get(part), want.get(part), "{what}, shards={shards}: {ncid} {part}");
                }
            }
            // The reopened engine goes on as the dropped one would have.
            let outcome = engine.ingest_archive(&archive, &ImportOptions::strict()).unwrap();
            assert_eq!((outcome.resumed, outcome.stats.len()), (snapshots.len(), 0));
        };
        check_reopened("decisions logged");
        let (full, short) = rewrite_logs_with_full_rows(&state, shards, &rows);
        assert_eq!((full, short), (rows.len() - dropped, dropped), "shards={shards}");
        check_reopened("every row logged in full");
        assert_eq!(rewrite_logs_with_full_rows(&state, shards, &rows), (rows.len(), 0));

        let _ = std::fs::remove_dir_all(&state);
    }
    let _ = std::fs::remove_dir_all(&archive);
}
