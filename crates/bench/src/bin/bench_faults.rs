//! Bounded syscall-fault sweep over the shard engine, as a benchmark
//! binary: crash the third snapshot's ingest at every K-th mutating
//! syscall, reopen, and count where recovery lands: before the commit
//! (pre), after it (post), or in a "third state" that is neither.
//!
//! ```sh
//! scripts/bench.sh faults                  # BENCH_faults.json at its recorded parameters
//! cargo run --release -p nc-bench --bin bench_faults -- --stride 7 --chaos-runs 48 --out /tmp/f.json
//! ```
//!
//! `--stride 1` sweeps every operation (what the CI smoke runs with a
//! larger stride); the chaos phase then replays the same scenario under
//! seeded random fault schedules ([`FaultVfs::with_seed`]) and counts
//! how many injected faults the engine survived. The run fails on any
//! third state, on a crash that does not surface an error, on a reopen
//! that fails, and on a resume that does not reach the uninterrupted
//! state.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use nc_bench::bench::{finish, timed, Flags};
use nc_bench::context::{temp_dir, ExperimentScale};
use nc_core::tsv::{self, ImportOptions};
use nc_docstore::doc;
use nc_pipeline_bench::harness::{Checks, TmpDir};
use nc_shard::{ShardEngine, ShardEngineConfig};
use nc_vfs::fault::FaultVfs;

/// Hash partitions of the engine under fault.
const SHARDS: usize = 2;
/// Chance that a chaos run faults any one syscall.
const CHAOS_P: f64 = 0.02;
/// Calendar snapshots of the scenario: two committed, the third under fault.
const SNAPSHOTS: usize = 3;

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

/// Where a reopened state landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Landing {
    Pre,
    Post,
    Third,
}

/// The committed base state, and the digests of the two states a
/// failed ingest of the third snapshot may recover to.
struct Scenario {
    config: ShardEngineConfig,
    archive: PathBuf,
    base: TmpDir,
    pre: String,
    post: String,
}

impl Scenario {
    /// A fresh copy of the base state.
    fn state(&self) -> TmpDir {
        let state = temp_dir("state");
        copy_dir(self.base.path(), state.path());
        state
    }

    /// Ingest the archive into `state` with `vfs`; on failure, whether
    /// the engine rolled the failed snapshot back.
    fn ingest(&self, state: &Path, vfs: &FaultVfs) -> Result<(), bool> {
        let mut engine = ShardEngine::open_with_vfs(state, self.config, Arc::new(vfs.clone()))
            .map_err(|_| false)?;
        match engine.ingest_archive(&self.archive, &ImportOptions::strict()) {
            Ok(_) => Ok(()),
            Err(_) => Err(engine.last_failure().is_some()),
        }
    }

    /// Reopen a state a faulted ingest left, say where recovery
    /// landed (`None` if the reopen failed), and check that resuming
    /// reaches the uninterrupted state.
    fn recover(&self, state: &Path, checks: &mut Checks, what: &str) -> Option<Landing> {
        let Ok(mut engine) = ShardEngine::open(state, self.config) else {
            checks.check(false, || format!("{what}: reopen failed"));
            return None;
        };
        let print = fingerprint(&engine);
        let landing = if print == self.pre {
            Landing::Pre
        } else if print == self.post {
            Landing::Post
        } else {
            Landing::Third
        };
        checks.check(landing != Landing::Third, || {
            format!("{what} recovered to a third state")
        });
        let resumed = engine
            .ingest_archive(&self.archive, &ImportOptions::strict())
            .is_ok()
            && fingerprint(&engine) == self.post;
        checks.check(resumed, || {
            format!("{what}: resume did not reach the uninterrupted state")
        });
        Some(landing)
    }
}

fn main() -> ExitCode {
    let mut flags = Flags::from_env("bench_faults");
    let scale = ExperimentScale {
        population: flags.get("--pop", 150),
        snapshots: SNAPSHOTS,
        ..ExperimentScale::default()
    };
    let stride = flags.get("--stride", 1u64).max(1);
    let chaos_runs = flags.get("--chaos-runs", 24u64);
    let out = flags.path("--out", "BENCH_faults.json");
    flags.done();

    let mut archive = scale.archive(SHARDS);
    archive.config.segment_bytes = 8 << 10;
    let config = archive.config;

    // Base state: the first two snapshots committed.
    let partial = temp_dir("partial");
    let files = tsv::archive_files(archive.dir.path()).expect("list archive");
    for path in &files[..SNAPSHOTS - 1] {
        fs::copy(
            path,
            partial.path().join(path.file_name().expect("file name")),
        )
        .expect("copy");
    }
    let base = temp_dir("base");
    let mut engine = ShardEngine::open(base.path(), config).expect("open base");
    engine
        .ingest_archive(partial.path(), &ImportOptions::strict())
        .expect("ingest base");
    let pre = fingerprint(&engine);
    drop(engine);

    // Reference: the uninterrupted run.
    let full = temp_dir("full");
    let mut engine = ShardEngine::open(full.path(), config).expect("open full");
    engine
        .ingest_archive(archive.dir.path(), &ImportOptions::strict())
        .expect("ingest full");
    let post = fingerprint(&engine);
    drop(engine);
    drop(full);
    let scenario = Scenario {
        config,
        archive: archive.dir.path().to_path_buf(),
        base,
        pre,
        post,
    };

    // Learn the syscall trace of the third snapshot's ingest.
    let recorder = FaultVfs::recorder();
    let traced = scenario.ingest(scenario.state().path(), &recorder);
    assert!(traced.is_ok(), "the recorder's ingest must succeed");
    let total = recorder.ops();

    // Phase 1: crash sweep at every `stride`-th operation.
    eprintln!("crash sweep: {total} syscalls, stride {stride}…");
    let mut checks = Checks::default();
    let mut landed = [0u64; 3];
    let mut third_states = 0u64;
    let (sweep_secs, swept) = timed(|| {
        let mut swept = 0u64;
        for k in (0..total).step_by(stride as usize) {
            swept += 1;
            let state = scenario.state();
            let failed = scenario
                .ingest(state.path(), &FaultVfs::crash_at(k))
                .is_err();
            checks.check(failed, || {
                format!("crash at {k} of {total} did not surface an error")
            });
            let what = format!("crash at {k}");
            if let Some(landing) = scenario.recover(state.path(), &mut checks, &what) {
                landed[landing as usize] += 1;
            }
        }
        swept
    });

    // Phase 2: seeded random chaos. Every run either succeeds (no fault
    // hit a critical op) or fails and must still recover to pre/post.
    eprintln!("chaos: {chaos_runs} seeded runs at p={CHAOS_P}…");
    let (mut chaos_faults, mut chaos_failed, mut chaos_rollbacks) = (0u64, 0u64, 0u64);
    let (chaos_secs, ()) = timed(|| {
        for run in 0..chaos_runs {
            let state = scenario.state();
            let vfs = FaultVfs::with_seed(scale.seed ^ (run + 1), CHAOS_P);
            if let Err(rolled_back) = scenario.ingest(state.path(), &vfs) {
                chaos_failed += 1;
                chaos_rollbacks += u64::from(rolled_back);
            }
            chaos_faults += vfs.faults_fired();
            let what = format!("chaos run {run}");
            let landing = scenario.recover(state.path(), &mut checks, &what);
            third_states += u64::from(landing == Some(Landing::Third));
        }
    });
    let [landed_pre, landed_post, sweep_third] = landed;
    third_states += sweep_third;

    println!(
        "crash sweep: {swept} of {total} syscalls swept, {landed_pre} recovered pre, \
         {landed_post} post, {third_states} third states ({sweep_secs:.1}s)\n\
         chaos: {chaos_runs} runs, {chaos_faults} faults fired, {chaos_failed} ingests failed, \
         {chaos_rollbacks} clean rollbacks ({chaos_secs:.1}s)",
    );
    let report = doc! {
        "population" => scale.population,
        "snapshots" => scale.snapshots,
        "shards" => SHARDS,
        "seed" => scale.seed,
        "stride" => stride,
        "syscalls_total" => total,
        "crash_points_swept" => swept,
        "recovered_pre_commit" => landed_pre,
        "recovered_post_commit" => landed_post,
        "third_states" => third_states,
        "sweep_secs" => sweep_secs,
        "chaos_runs" => chaos_runs,
        "chaos_p" => CHAOS_P,
        "chaos_faults_fired" => chaos_faults,
        "chaos_ingests_failed" => chaos_failed,
        "chaos_clean_rollbacks" => chaos_rollbacks,
        "chaos_secs" => chaos_secs,
    };
    finish(&out, report, &checks)
}
