//! Crash-at-every-K syscall sweep over [`nc_docstore::persist`]'s
//! atomic save protocol.
//!
//! The claim under test: `save` is `tmp + fsync + rename + dir-fsync`,
//! so a crash at *any* mutating syscall leaves the target file either
//! bit-exactly its previous contents or bit-exactly the new ones —
//! never a third state. The sweep first runs a save fault-free through
//! a recording [`FaultVfs`] to learn the syscall trace, then re-runs
//! it with `crash_at(K)` for every `K`, asserting the invariant at
//! each prefix.

use std::fs;
use std::path::PathBuf;

use nc_docstore::collection::Collection;
use nc_docstore::doc;
use nc_docstore::persist::{load, salvage, save_with};
use nc_vfs::fault::{FaultVfs, InjectedFault};
use nc_vfs::StdVfs;

fn tmp_dir(name: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("nc_persist_sweep_{name}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn collection(tag: &str, n: usize) -> Collection {
    let mut c = Collection::new("sweep");
    for i in 0..n {
        c.insert(doc! { "tag" => tag, "i" => i as i64 });
    }
    c
}

#[test]
fn crash_at_every_syscall_recovers_old_or_new_bit_exactly() {
    let dir = tmp_dir("crash");
    let path = dir.join("coll.jsonl");
    let tmp = dir.join("coll.jsonl.tmp");
    let old = collection("old", 3);
    let new = collection("new", 5);

    save_with(&old, &path, &StdVfs).unwrap();
    let old_bytes = fs::read(&path).unwrap();

    // Learn the syscall trace of the overwrite, fault-free.
    let recorder = FaultVfs::recorder();
    save_with(&new, &path, &recorder).unwrap();
    let new_bytes = fs::read(&path).unwrap();
    assert_ne!(old_bytes, new_bytes);
    let total = recorder.ops();
    let trace = recorder.trace();
    let rename_idx = trace
        .iter()
        .find(|r| r.op == "rename")
        .expect("atomic save must rename")
        .index;
    assert!(
        trace.iter().any(|r| r.op == "sync_file") && trace.iter().any(|r| r.op == "sync_dir"),
        "protocol must fsync both file and directory: {trace:?}"
    );

    let (mut saw_old, mut saw_new) = (0u64, 0u64);
    for k in 0..total {
        fs::write(&path, &old_bytes).unwrap();
        let _ = fs::remove_file(&tmp);

        let vfs = FaultVfs::crash_at(k);
        save_with(&new, &path, &vfs).unwrap_err();
        assert!(vfs.crashed(), "crash point {k} must have fired");

        let after = fs::read(&path).unwrap();
        if k <= rename_idx {
            assert_eq!(after, old_bytes, "crash at {k}: rename never ran, old state");
            saw_old += 1;
        } else {
            assert_eq!(after, new_bytes, "crash at {k}: rename committed, new state");
            saw_new += 1;
        }
        // Whichever side of the commit point, the file loads strictly.
        let loaded = load("sweep", &path).unwrap();
        assert!(loaded.len() == old.len() || loaded.len() == new.len());
    }
    assert!(saw_old > 0 && saw_new > 0, "sweep crossed the commit point");
    fs::remove_dir_all(dir).unwrap();
}

#[test]
fn single_faults_fail_the_save_but_never_corrupt_the_target() {
    let dir = tmp_dir("single");
    let path = dir.join("coll.jsonl");
    let tmp = dir.join("coll.jsonl.tmp");
    let old = collection("old", 4);
    let new = collection("new", 6);

    save_with(&old, &path, &StdVfs).unwrap();
    let old_bytes = fs::read(&path).unwrap();
    let recorder = FaultVfs::recorder();
    save_with(&new, &path, &recorder).unwrap();
    let new_bytes = fs::read(&path).unwrap();
    let total = recorder.ops();
    let rename_idx = recorder
        .trace()
        .iter()
        .find(|r| r.op == "rename")
        .unwrap()
        .index;

    for fault in [
        InjectedFault::Eio,
        InjectedFault::Enospc,
        InjectedFault::ShortWrite,
        InjectedFault::SyncFail,
        InjectedFault::RenameFail,
    ] {
        for k in 0..total {
            fs::write(&path, &old_bytes).unwrap();
            let _ = fs::remove_file(&tmp);
            let vfs = FaultVfs::recorder().fail_op(k, fault);
            save_with(&new, &path, &vfs).unwrap_err();
            let after = fs::read(&path).unwrap();
            if k <= rename_idx {
                assert_eq!(after, old_bytes, "{fault:?} at {k} must not touch the target");
            } else {
                // Only the post-rename dir-fsync can fail here: the
                // data committed, the error reports the lost durability.
                assert_eq!(after, new_bytes, "{fault:?} at {k}: rename already committed");
            }
            load("sweep", &path).unwrap();
        }
    }
    fs::remove_dir_all(dir).unwrap();
}

#[test]
fn torn_tmp_from_short_write_is_salvageable_and_target_untouched() {
    let dir = tmp_dir("torn");
    let path = dir.join("coll.jsonl");
    let tmp = dir.join("coll.jsonl.tmp");
    let old = collection("old", 2);
    let new = collection("new", 64);

    save_with(&old, &path, &StdVfs).unwrap();
    let old_bytes = fs::read(&path).unwrap();

    // Tear the first data write of the tmp file (op 0 is the create).
    let vfs = FaultVfs::recorder().fail_op(1, InjectedFault::ShortWrite);
    let err = save_with(&new, &path, &vfs).unwrap_err();
    assert!(err.to_string().contains("os error 28"), "ENOSPC: {err}");

    assert_eq!(fs::read(&path).unwrap(), old_bytes, "target untouched");
    // The torn tmp is damaged but salvage never panics and recovers
    // only intact prefix lines.
    if tmp.exists() {
        let s = salvage("sweep", &tmp).unwrap();
        assert!(s.collection.len() < 64);
        assert!(s.report.bytes_dropped > 0 || s.report.footer != nc_docstore::persist::FooterStatus::Valid);
    }
    fs::remove_dir_all(dir).unwrap();
}
