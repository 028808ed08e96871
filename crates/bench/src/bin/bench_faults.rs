//! Bounded syscall-fault sweep over the shard engine, as a benchmark
//! binary: crash the third-snapshot ingest at every K-th mutating
//! syscall, reopen, and count where recovery lands. Zero "third
//! states" is asserted, the pre/post landing counts are the report.
//!
//! ```sh
//! cargo run --release -p nc-bench --bin bench_faults -- \
//!     --pop 120 --shards 2 --stride 7 --chaos-runs 48 --out BENCH_faults.json
//! ```
//!
//! `--stride 1` sweeps every operation (what the CI smoke runs with a
//! larger stride); the chaos phase then replays the same scenario under
//! seeded random fault schedules ([`FaultVfs::with_seed`]) and counts
//! how many injected faults the engine survived. The JSON is written
//! by hand so the binary has no serialization dependency.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use nc_core::record::DedupPolicy;
use nc_core::tsv::{self, ImportOptions};
use nc_shard::{ShardEngine, ShardEngineConfig};
use nc_vfs::fault::FaultVfs;
use nc_votergen::config::GeneratorConfig;
use nc_votergen::registry::Registry;
use nc_votergen::snapshot::standard_calendar;

struct Args {
    population: usize,
    shards: usize,
    seed: u64,
    stride: u64,
    chaos_runs: u64,
    chaos_p: f64,
    out: PathBuf,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        population: 120,
        shards: 2,
        seed: 2021,
        stride: 1,
        chaos_runs: 32,
        chaos_p: 0.02,
        out: PathBuf::from("BENCH_faults.json"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| panic!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--pop" => parsed.population = value().parse().expect("--pop takes a number"),
            "--shards" => parsed.shards = value().parse().expect("--shards takes a number"),
            "--seed" => parsed.seed = value().parse().expect("--seed takes a number"),
            "--stride" => parsed.stride = value().parse().expect("--stride takes a number"),
            "--chaos-runs" => {
                parsed.chaos_runs = value().parse().expect("--chaos-runs takes a number")
            }
            "--chaos-p" => parsed.chaos_p = value().parse().expect("--chaos-p takes a number"),
            "--out" => parsed.out = PathBuf::from(value()),
            other => {
                eprintln!("unknown flag: {other}");
                eprintln!(
                    "usage: bench_faults [--pop N] [--shards N] [--seed N] [--stride N] \
                     [--chaos-runs N] [--chaos-p F] [--out FILE]"
                );
                std::process::exit(2);
            }
        }
    }
    parsed.stride = parsed.stride.max(1);
    parsed
}

fn tmp_dir(name: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("nc_bench_faults_{name}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn copy_dir(from: &Path, to: &Path) {
    fs::create_dir_all(to).expect("create copy target");
    for entry in fs::read_dir(from).expect("read state dir") {
        let entry = entry.expect("dir entry");
        let dst = to.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_dir(&entry.path(), &dst);
        } else {
            fs::copy(entry.path(), &dst).expect("copy state file");
        }
    }
}

fn config(shards: usize) -> ShardEngineConfig {
    ShardEngineConfig {
        segment_bytes: 8 << 10,
        ..ShardEngineConfig::new(shards, DedupPolicy::Trimmed, 1)
    }
}

/// A byte-exact digest of everything observable about an engine.
fn fingerprint(engine: &ShardEngine) -> String {
    let store = engine.store();
    let mut out = String::new();
    for (ncid, _) in store.cluster_ids() {
        out.push_str(&ncid);
        out.push('\n');
        for row in store.cluster_rows(&ncid) {
            out.push_str(&row.to_tsv());
            out.push('\n');
        }
    }
    out.push_str(&format!(
        "records {} rows {} completed {}\n",
        store.record_count(),
        store.rows_imported(),
        engine.completed().len()
    ));
    out
}

fn main() {
    let args = parse_args();
    eprintln!(
        "building scenario: population {}, shards {}, seed {}…",
        args.population, args.shards, args.seed
    );

    let archive = tmp_dir("archive");
    let mut registry = Registry::new(GeneratorConfig {
        seed: args.seed,
        initial_population: args.population,
        ..Default::default()
    });
    for info in standard_calendar().iter().take(3) {
        let snap = registry.generate_snapshot(info);
        tsv::write_snapshot(&archive, &snap).expect("write snapshot");
    }

    // Base state: the first two snapshots committed.
    let partial = tmp_dir("partial");
    for path in tsv::archive_files(&archive)
        .expect("list archive")
        .into_iter()
        .take(2)
    {
        fs::copy(&path, partial.join(path.file_name().expect("file name"))).expect("copy");
    }
    let base = tmp_dir("base");
    let mut engine = ShardEngine::open(&base, config(args.shards)).expect("open base");
    engine
        .ingest_archive(&partial, &ImportOptions::strict())
        .expect("ingest base");
    let pre = fingerprint(&engine);
    drop(engine);

    // Reference: the uninterrupted three-snapshot run.
    let full = tmp_dir("full");
    let mut engine = ShardEngine::open(&full, config(args.shards)).expect("open full");
    engine
        .ingest_archive(&archive, &ImportOptions::strict())
        .expect("ingest full");
    let post = fingerprint(&engine);
    drop(engine);
    fs::remove_dir_all(&full).ok();

    // Learn the syscall trace of the third-snapshot ingest.
    let trace_state = tmp_dir("trace");
    copy_dir(&base, &trace_state);
    let recorder = FaultVfs::recorder();
    let mut engine =
        ShardEngine::open_with_vfs(&trace_state, config(args.shards), Arc::new(recorder.clone()))
            .expect("open recorder");
    engine
        .ingest_archive(&archive, &ImportOptions::strict())
        .expect("recorder ingest");
    drop(engine);
    fs::remove_dir_all(&trace_state).ok();
    let total = recorder.ops();

    // Phase 1: crash sweep at every `stride`-th operation.
    eprintln!("crash sweep: {total} syscalls, stride {}…", args.stride);
    let started = Instant::now();
    let (mut landed_pre, mut landed_post, mut swept) = (0u64, 0u64, 0u64);
    let mut k = 0;
    while k < total {
        swept += 1;
        let state = tmp_dir("sweep");
        copy_dir(&base, &state);
        let vfs = FaultVfs::crash_at(k);
        let failed =
            match ShardEngine::open_with_vfs(&state, config(args.shards), Arc::new(vfs.clone())) {
                Ok(mut engine) => engine
                    .ingest_archive(&archive, &ImportOptions::strict())
                    .is_err(),
                Err(_) => true,
            };
        assert!(failed, "crash at {k} of {total} must surface an error");

        let mut reopened = ShardEngine::open(&state, config(args.shards)).expect("reopen");
        let print = fingerprint(&reopened);
        if print == pre {
            landed_pre += 1;
        } else if print == post {
            landed_post += 1;
        } else {
            panic!("crash at {k} recovered to a third state");
        }
        reopened
            .ingest_archive(&archive, &ImportOptions::strict())
            .expect("resume");
        assert_eq!(fingerprint(&reopened), post, "resume after crash at {k}");
        drop(reopened);
        fs::remove_dir_all(&state).ok();
        k += args.stride;
    }
    let sweep_secs = started.elapsed().as_secs_f64();

    // Phase 2: seeded random chaos. Every run either succeeds (no fault
    // hit a critical op) or fails and must still recover to pre/post.
    eprintln!("chaos: {} seeded runs at p={}…", args.chaos_runs, args.chaos_p);
    let started = Instant::now();
    let (mut chaos_faults, mut chaos_failed, mut chaos_rollbacks) = (0u64, 0u64, 0u64);
    for run in 0..args.chaos_runs {
        let state = tmp_dir("chaos");
        copy_dir(&base, &state);
        let vfs = FaultVfs::with_seed(args.seed ^ (run + 1), args.chaos_p);
        match ShardEngine::open_with_vfs(&state, config(args.shards), Arc::new(vfs.clone())) {
            Ok(mut engine) => {
                if engine
                    .ingest_archive(&archive, &ImportOptions::strict())
                    .is_err()
                {
                    chaos_failed += 1;
                    if engine.last_failure().is_some() {
                        chaos_rollbacks += 1;
                    }
                }
            }
            Err(_) => chaos_failed += 1,
        }
        chaos_faults += vfs.faults_fired();

        let mut reopened = ShardEngine::open(&state, config(args.shards)).expect("chaos reopen");
        let print = fingerprint(&reopened);
        assert!(
            print == pre || print == post,
            "chaos run {run} recovered to a third state"
        );
        reopened
            .ingest_archive(&archive, &ImportOptions::strict())
            .expect("chaos resume");
        assert_eq!(fingerprint(&reopened), post, "chaos run {run} resume");
        drop(reopened);
        fs::remove_dir_all(&state).ok();
    }
    let chaos_secs = started.elapsed().as_secs_f64();

    fs::remove_dir_all(&archive).ok();
    fs::remove_dir_all(&partial).ok();
    fs::remove_dir_all(&base).ok();

    println!(
        "crash sweep: {swept} of {total} syscalls swept, {landed_pre} recovered pre, \
         {landed_post} post, 0 third states ({sweep_secs:.1}s)\n\
         chaos: {} runs, {chaos_faults} faults fired, {chaos_failed} ingests failed, \
         {chaos_rollbacks} clean rollbacks, all recovered ({chaos_secs:.1}s)",
        args.chaos_runs,
    );

    // Hand-rolled JSON: flat object, stable key order.
    let json = format!(
        concat!(
            "{{\n",
            "  \"population\": {},\n",
            "  \"shards\": {},\n",
            "  \"seed\": {},\n",
            "  \"stride\": {},\n",
            "  \"syscalls_total\": {},\n",
            "  \"crash_points_swept\": {},\n",
            "  \"recovered_pre_commit\": {},\n",
            "  \"recovered_post_commit\": {},\n",
            "  \"third_states\": 0,\n",
            "  \"sweep_secs\": {:.3},\n",
            "  \"chaos_runs\": {},\n",
            "  \"chaos_p\": {},\n",
            "  \"chaos_faults_fired\": {},\n",
            "  \"chaos_ingests_failed\": {},\n",
            "  \"chaos_clean_rollbacks\": {},\n",
            "  \"chaos_secs\": {:.3}\n",
            "}}\n"
        ),
        args.population,
        args.shards,
        args.seed,
        args.stride,
        total,
        swept,
        landed_pre,
        landed_post,
        sweep_secs,
        args.chaos_runs,
        args.chaos_p,
        chaos_faults,
        chaos_failed,
        chaos_rollbacks,
        chaos_secs,
    );
    fs::write(&args.out, json).expect("write BENCH_faults.json");
    eprintln!("wrote {}", args.out.display());
}
