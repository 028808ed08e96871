//! The WAL readers take arbitrary bytes: any single-byte change,
//! truncation or splice of one file of a committed state — a log
//! segment or `manifest.tsv` — opens to the uncrashed result, to a
//! typed discard, or to a typed error. It never panics and never lands
//! on a third state, and `tail_group` over the same bytes never panics.
//!
//! "A third state" is checked exactly: an open that succeeds holds the
//! store of the first `n` snapshots, byte for byte, where `n` is the
//! number of snapshots it reports completed — all of them when its
//! recovery dropped nothing, none when it discarded the state.

mod common;

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use common::{archive_prefix, fingerprint, tmp_dir, write_archive, Fingerprint, SNAPSHOTS};
use nc_core::tsv::ImportOptions;
use nc_propcheck::{check, check_n, Gen};
use nc_shard::{shard_log_dir, tail_group, ShardEngine, ShardEngineConfig, TailCursor};

const SHARDS: usize = 2;

fn config() -> ShardEngineConfig {
    // Small segments, so every shard's log rotates.
    common::config(SHARDS, 4 << 10)
}

/// A committed state as bytes, and the store of every committed prefix.
struct World {
    /// Every file of the state directory: path relative to it, bytes.
    files: Vec<(PathBuf, Vec<u8>)>,
    /// `prefixes[n]`: the fingerprint of an engine holding the first
    /// `n` snapshots.
    prefixes: Vec<Fingerprint>,
}

fn files_under(root: &Path, dir: &Path, found: &mut Vec<(PathBuf, Vec<u8>)>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            files_under(root, &path, found);
        } else {
            let relative = path.strip_prefix(root).unwrap().to_path_buf();
            found.push((relative, fs::read(&path).unwrap()));
        }
    }
}

/// The world, built under scratch names that start with `tag`.
fn world(tag: &str) -> World {
    let archive = tmp_dir(&format!("{tag}_archive"));
    write_archive(&archive, 916, 60);
    let prefixes = (0..=SNAPSHOTS)
        .map(|n| {
            let partial = archive_prefix(&archive, n, &format!("{tag}_partial"));
            let state = tmp_dir(&format!("{tag}_prefix"));
            let mut engine = ShardEngine::open(&state, config()).unwrap();
            engine
                .ingest_archive(&partial, &ImportOptions::strict())
                .unwrap();
            let print = fingerprint(&engine);
            drop(engine);
            let mut files = Vec::new();
            if n == SNAPSHOTS {
                files_under(&state, &state, &mut files);
            }
            fs::remove_dir_all(partial).unwrap();
            fs::remove_dir_all(state).unwrap();
            (print, files)
        })
        .collect::<Vec<_>>();
    fs::remove_dir_all(archive).unwrap();
    let mut files = prefixes.last().unwrap().1.clone();
    files.sort();
    let segments = files
        .iter()
        .filter(|(path, _)| path.extension().is_some_and(|e| e == "log"));
    assert!(segments.count() > SHARDS, "the logs rotate");
    World {
        files,
        prefixes: prefixes.into_iter().map(|(print, _)| print).collect(),
    }
}

/// One single-byte change, truncation or splice of `bytes`.
fn damage(g: &mut Gen, bytes: &mut Vec<u8>) {
    let len = bytes.len();
    match g.range(0u8..3) {
        0 if len > 0 => {
            let at = g.range(0..len);
            bytes[at] ^= g.range(1u8..=255);
        }
        1 => bytes.truncate(g.range(0..=len)),
        _ => {
            let from = g.range(0..=len);
            let to = g.range(from..=len.min(from + 256));
            let at = g.range(0..=len);
            let copy = bytes[from..to].to_vec();
            bytes.splice(at..at, copy);
        }
    }
}

fn wal_readers_take_arbitrary_bytes_prop(world: &World, g: &mut Gen) {
    static CASES: AtomicUsize = AtomicUsize::new(0);
    let state = tmp_dir(&format!(
        "bytes_case_{}",
        CASES.fetch_add(1, Ordering::Relaxed)
    ));
    // A segment the writer rotated to after the last commit is empty,
    // and nothing in it can change.
    let files = 0..world.files.len();
    let target = g.pick(
        &files
            .filter(|&i| !world.files[i].1.is_empty())
            .collect::<Vec<_>>(),
    );
    for (i, (relative, bytes)) in world.files.iter().enumerate() {
        let path = state.join(relative);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        let mut bytes = bytes.clone();
        if i == target {
            damage(g, &mut bytes);
        }
        fs::write(path, bytes).unwrap();
    }

    // The tailer walks each shard's log as far as it reads.
    for shard in 0..SHARDS {
        let dir = shard_log_dir(&state, shard);
        let mut cursor = TailCursor::default();
        for _ in 0..=SNAPSHOTS {
            match tail_group(&dir, cursor) {
                Ok(Some(group)) => cursor = group.next,
                _ => break,
            }
        }
    }

    let file = world.files[target].0.display();
    match ShardEngine::open(&state, config()) {
        // A typed error.
        Err(_) => {}
        Ok(engine) => {
            let done = engine.completed().len();
            let print = fingerprint(&engine);
            assert!(done <= SNAPSHOTS, "{file}: {done} snapshots completed");
            assert!(
                print == world.prefixes[done],
                "{file}: a third state, {done} snapshots completed: {:?}",
                engine.recovery()
            );
            if engine.discarded().is_some() {
                assert_eq!(done, 0, "{file}: a discard keeps nothing");
            } else if engine.recovery().is_clean() {
                assert_eq!(done, SNAPSHOTS, "{file}: a clean recovery keeps everything");
            }
        }
    }
    fs::remove_dir_all(state).unwrap();
}

#[test]
fn wal_readers_take_arbitrary_bytes() {
    let world = world("bytes");
    check("wal_readers_take_arbitrary_bytes", |g| {
        wal_readers_take_arbitrary_bytes_prop(&world, g)
    });
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn wal_readers_take_arbitrary_bytes_wide() {
    let world = world("bytes_wide");
    check_n("wal_readers_take_arbitrary_bytes", 3_000, |g| {
        wal_readers_take_arbitrary_bytes_prop(&world, g)
    });
}
