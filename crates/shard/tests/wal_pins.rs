//! Golden digests of what the engine writes and publishes: for every
//! dedup policy, the bytes of every WAL segment plus the manifest and
//! the clusters `publish(1)` returns are pinned, and the engine that
//! reopens the state by replay publishes the same clusters.
//!
//! The world has padded values (a raised whitespace rate), so rows are
//! trimmed, `R` records carry values that differ from their stored
//! form, and `D` records occur; the segment bound is small enough that
//! the logs rotate. The digests were recorded before the row path
//! (duplicate check, fingerprint, TSV parse, record framing) was
//! rewritten, so they hold every WAL byte and published row to that
//! code.

use std::fs;
use std::path::{Path, PathBuf};

use nc_core::md5::{md5, Md5};
use nc_core::record::DedupPolicy;
use nc_core::tsv::{self, ImportOptions};
use nc_docstore::persist::read_framed;
use nc_shard::{ShardEngine, ShardEngineConfig};
use nc_votergen::config::GeneratorConfig;
use nc_votergen::registry::Registry;
use nc_votergen::snapshot::standard_calendar;

/// Per policy, in `DedupPolicy::ALL` order: the MD5 over the state
/// directory's files ([`state_digest`]) and the MD5 of the published
/// clusters ([`published_digest`]).
const PINS: [(&str, &str); 4] = [
    ("136a36a486d6ed936d94da44bd350549", "cb40cce6254fb9e7f5c4d07aef4020dd"),
    ("b83ff29de38b622e0feb3750b22904d1", "2f45e01a5d16edde4f062a4427bab3f5"),
    ("191cc01ccd73b7ae3b7fbcaf6caf95f8", "565f54a4ce55aa98a233e4d689fa9e96"),
    ("b9be56cb93668174df83b1450f5d9594", "1d63ea0b2bba5802796f12a111965f36"),
];

/// A fresh, empty scratch directory.
fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nc_shard_pins_{name}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Six snapshots of 200 voters with every row-mutating rate raised.
fn write_world(dir: &Path) {
    let mut registry = Registry::new(GeneratorConfig {
        seed: 2021,
        initial_population: 200,
        whitespace_rate: 0.05,
        confusion_rate: 0.05,
        integration_rate: 0.05,
        scatter_rate: 0.05,
        ..Default::default()
    });
    for info in standard_calendar().iter().take(6) {
        tsv::write_snapshot(dir, &registry.generate_snapshot(info)).unwrap();
    }
}

fn config(policy: DedupPolicy) -> ShardEngineConfig {
    ShardEngineConfig {
        segment_bytes: 32 << 10,
        ..ShardEngineConfig::new(3, policy, 1)
    }
}

/// Every file under `dir`, recursively, sorted by path.
fn files(dir: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            found.extend(files(&path));
        } else {
            found.push(path);
        }
    }
    found.sort();
    found
}

/// MD5 over each file's path relative to `state` and its bytes, in
/// path order.
fn state_digest(state: &Path) -> String {
    let mut hash = Md5::new();
    for path in files(state) {
        let relative = path.strip_prefix(state).unwrap().to_str().unwrap();
        hash.update(relative.as_bytes());
        hash.update(b"\n");
        hash.update(&fs::read(&path).unwrap());
    }
    hash.finish().to_hex()
}

/// MD5 over `publish(1)`: each cluster's NCID, then its records as TSV
/// lines.
fn published_digest(engine: &mut ShardEngine) -> String {
    let snapshot = engine.publish(1);
    let mut text = String::new();
    for (ncid, rows) in snapshot.clusters() {
        text.push_str("# ");
        text.push_str(ncid);
        for row in rows {
            text.push('\n');
            text.push_str(row.as_tsv());
        }
        text.push('\n');
    }
    md5(text.as_bytes()).to_hex()
}

/// Record bodies of every WAL segment, in path order.
fn wal_bodies(state: &Path) -> Vec<String> {
    let mut bodies = Vec::new();
    for path in files(state) {
        if path.extension().is_some_and(|e| e == "log") {
            let text = fs::read_to_string(&path).unwrap();
            bodies.extend(text.lines().map(|line| read_framed(line).unwrap().to_owned()));
        }
    }
    bodies
}

#[test]
fn wal_bytes_and_published_clusters_are_pinned() {
    let archive = tmp_dir("pins_archive");
    write_world(&archive);
    for (policy, (wal_pin, published_pin)) in DedupPolicy::ALL.into_iter().zip(PINS) {
        let state = tmp_dir(&format!("pins_state_{policy:?}"));
        let mut engine = ShardEngine::open(&state, config(policy)).unwrap();
        engine.ingest_archive(&archive, &ImportOptions::strict()).unwrap();
        let published = published_digest(&mut engine);
        drop(engine);

        // The world exercises what the pins are meant to hold.
        let bodies = wal_bodies(&state);
        let kept: Vec<&str> = bodies.iter().filter_map(|b| b.strip_prefix("R\t")).collect();
        let padded = kept.iter().any(|b| b.split('\t').any(|v| v.trim() != v));
        assert!(padded, "{policy:?}: a logged row carries a padded value");
        let dropped = bodies.iter().filter(|b| b.starts_with("D\t")).count();
        assert_eq!(dropped > 0, policy != DedupPolicy::None, "{policy:?}: D records");
        let segments = files(&state).iter().filter(|p| p.ends_with("wal-000001.log")).count();
        assert!(segments > 0, "{policy:?}: the logs rotate");

        let digest = state_digest(&state);
        assert_eq!(digest, wal_pin, "{policy:?}: WAL segments and manifest");
        assert_eq!(published, published_pin, "{policy:?}: published clusters");

        let mut reopened = ShardEngine::open(&state, config(policy)).unwrap();
        assert!(reopened.recovery().is_clean(), "{policy:?}");
        assert_eq!(published_digest(&mut reopened), published, "{policy:?}: replayed");
        drop(reopened);
        fs::remove_dir_all(state).unwrap();
    }
    fs::remove_dir_all(archive).unwrap();
}
