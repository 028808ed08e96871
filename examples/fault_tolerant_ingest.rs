//! Fault-tolerant archive ingest: quarantine, resumable ingest, salvage.
//!
//! This example damages an on-disk TSV archive the way real registry
//! exports get damaged — torn lines, garbage sectors — and shows the
//! three robustness layers working together:
//!
//! 1. **Quarantine import**: malformed lines are diverted to a sink
//!    file (with provenance) instead of aborting the whole ingest.
//! 2. **Resumable ingest**: the shard engine write-ahead logs every
//!    row and commits each snapshot through its manifest, so an
//!    interrupted import resumes where it stopped — and damaged state
//!    is discarded, never trusted.
//! 3. **Salvage**: a persisted store truncated by a crash recovers
//!    every intact document and reports exactly what was lost.
//!
//! Run with:
//! ```sh
//! cargo run --release -p nc-suite --example fault_tolerant_ingest
//! ```

use nc_suite::core::cluster::ClusterStore;
use nc_suite::core::record::DedupPolicy;
use nc_suite::core::tsv::{self, ImportOptions};
use nc_suite::docstore::faults::{self, Fault};
use nc_suite::docstore::persist;
use nc_suite::shard::{ShardEngine, ShardEngineConfig};
use nc_suite::votergen::config::GeneratorConfig;
use nc_suite::votergen::registry::Registry;
use nc_suite::votergen::snapshot::standard_calendar;

fn main() {
    let base = std::env::temp_dir().join("ncvoter_fault_ingest_example");
    let _ = std::fs::remove_dir_all(&base);
    let archive = base.join("archive");
    let state = base.join("state");
    let sink = base.join("quarantine.tsv");

    // 1. Publish six snapshots as TSV files.
    let mut registry = Registry::new(GeneratorConfig {
        seed: 77,
        initial_population: 500,
        ..Default::default()
    });
    for info in standard_calendar().iter().take(6) {
        let snapshot = registry.generate_snapshot(info);
        tsv::write_snapshot(&archive, &snapshot).expect("write snapshot");
    }

    // 2. Damage the archive: garbage a sector of one file and tear its
    //    final line, as if a transfer had been cut off.
    let files = tsv::archive_files(&archive).expect("list archive");
    let victim = &files[2];
    let text = std::fs::read_to_string(victim).expect("read victim");
    let mut lines: Vec<&str> = text.lines().collect();
    let mid = lines.len() / 2;
    lines[mid] = "#### unreadable sector ####";
    std::fs::write(victim, lines.join("\n") + "\n").expect("rewrite victim");
    faults::inject(victim, &Fault::AppendPartial(b"TORN".to_vec())).expect("tear line");
    println!("damaged {}", victim.display());

    // 3. Strict import fails fast — the historical contract.
    let mut strict_store = ClusterStore::new();
    let err = tsv::import_archive_dir(&mut strict_store, &archive, DedupPolicy::Trimmed, 1)
        .expect_err("strict import must fail");
    println!("strict import  : failed fast as expected ({err})");

    // 4. Quarantine ingest through the shard engine finishes, diverting
    //    the bad lines. The error budget still caps how much damage we
    //    silently tolerate.
    let options = ImportOptions::quarantine().with_sink(&sink).with_budget(100);
    let config = ShardEngineConfig::new(1, DedupPolicy::Trimmed, 1);
    let mut engine = ShardEngine::open(&state, config).expect("open engine");
    let outcome = engine.ingest_archive(&archive, &options).expect("quarantine ingest");
    println!(
        "quarantine run : {} snapshots, {} records, {} lines quarantined",
        outcome.stats.len(),
        engine.store().record_count(),
        outcome.quarantine.lines_quarantined
    );
    println!("quarantine sink: {}", sink.display());
    drop(engine);

    // 5. Resume: a new process over the same state directory replays
    //    the logs and skips every committed snapshot.
    let mut engine = ShardEngine::open(&state, config).expect("reopen engine");
    let resumed = engine.ingest_archive(&archive, &options).expect("resume");
    println!(
        "resumed run    : {} snapshots skipped, {} imported (stats identical: {})",
        resumed.resumed,
        resumed.stats.len(),
        engine.completed() == outcome.stats
    );
    drop(engine);

    // 6. Crash-safety of a persisted store: save the same archive's
    //    in-memory import, truncate the file mid-way and salvage the
    //    intact prefix.
    let mut store = ClusterStore::new();
    let no_sink = ImportOptions::quarantine();
    tsv::import_archive_dir_with(&mut store, &archive, DedupPolicy::Trimmed, 1, &no_sink)
        .expect("in-memory quarantine import");
    let store_file = base.join("store.jsonl");
    persist::save(&store.to_collection(), &store_file).expect("save store");
    let bytes = std::fs::read(&store_file).expect("read store");
    std::fs::write(&store_file, &bytes[..bytes.len() * 2 / 3]).expect("truncate store");
    let salvaged = persist::salvage("clusters", &store_file).expect("salvage");
    println!(
        "salvage        : {} documents recovered, {} lines / {} bytes lost ({})",
        salvaged.report.docs_recovered,
        salvaged.report.lines_dropped,
        salvaged.report.bytes_dropped,
        salvaged
            .report
            .detail
            .as_deref()
            .unwrap_or("file intact")
    );

    // 7. And an engine whose log rotted under a committed snapshot
    //    notices, discards the state and rebuilds from the archive
    //    instead of trusting it.
    let log = state.join("shard-0").join("wal-000000.log");
    faults::inject(&log, &Fault::FlipBit { offset: 40, bit: 3 }).expect("rot the log");
    let mut engine = ShardEngine::open(&state, config).expect("reopen over damage");
    let why = engine.discarded().map(str::to_owned);
    let rebuilt = engine.ingest_archive(&archive, &options).expect("rebuild");
    println!(
        "rebuild        : state discarded ({}), stats identical: {}",
        why.as_deref().unwrap_or("-"),
        rebuilt.stats == outcome.stats
    );
    assert!(why.is_some(), "damage must be noticed");
    assert_eq!(rebuilt.stats, outcome.stats);

    std::fs::remove_dir_all(&base).ok();
}
