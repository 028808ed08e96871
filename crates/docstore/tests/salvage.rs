//! Property tests for the salvage path: a persisted collection
//! truncated at *any* byte offset never panics on load and loses at
//! most the final partial document — with the loss reported accurately.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use nc_docstore::persist::{salvage, save, FooterStatus};
use nc_docstore::prelude::*;
use nc_propcheck::{check, check_n, Gen};

/// A file path of its own for every call, so a property and its wide
/// twin can run side by side.
fn tmp(name: &str) -> PathBuf {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let (pid, call) = (std::process::id(), CALLS.fetch_add(1, Ordering::Relaxed));
    std::env::temp_dir().join(format!("nc_salvage_prop_{pid}_{name}_{call}"))
}

fn build_collection(n: usize) -> Collection {
    let mut c = Collection::new("v");
    for i in 0..n {
        c.insert(doc! {
            "i" => i as i64,
            "name" => format!("VOTER_{i}"),
            "nested" => doc! { "x" => (i as f64) * 0.5 },
        });
    }
    c
}

/// Byte offsets at which each line of `bytes` ends (newline included).
fn line_ends(bytes: &[u8]) -> Vec<usize> {
    bytes
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .map(|(i, _)| i + 1)
        .collect()
}

fn truncation_loses_at_most_the_final_partial_document_prop(g: &mut Gen) {
    let n = g.range(1usize..12);
    let cut = g.range(0.0f64..1.0);
    let c = build_collection(n);
    let path = tmp("trunc");
    save(&c, &path).unwrap();
    let full = std::fs::read(&path).unwrap();
    let k = ((cut * full.len() as f64) as usize).min(full.len());
    std::fs::write(&path, &full[..k]).unwrap();

    let s = salvage("v", &path).unwrap();

    // Every data line (all lines except the trailing footer) that
    // survived the cut in full must be recovered; the line the cut
    // landed in is the only one that may be lost.
    let ends = line_ends(&full);
    let data_lines = ends.len() - 1; // the last line is the footer
    assert_eq!(data_lines, n);
    let expected_docs = ends[..data_lines].iter().filter(|&&e| e <= k).count();
    assert_eq!(s.collection.len(), expected_docs);
    assert_eq!(s.report.docs_recovered, expected_docs);

    // Loss accounting: bytes from the last intact line boundary to
    // the (truncated) EOF, and at most one torn line.
    let boundary = ends.iter().copied().filter(|&e| e <= k).max().unwrap_or(0);
    assert_eq!(s.report.bytes_dropped, (k - boundary) as u64);
    assert!(s.report.lines_dropped <= 1);
    assert_eq!(s.report.lines_dropped, usize::from(k > boundary));

    // The footer cannot survive a real truncation.
    if k == full.len() {
        assert_eq!(s.report.footer, FooterStatus::Valid);
        assert!(s.report.is_clean());
    } else {
        assert_eq!(s.report.footer, FooterStatus::Missing);
        assert_eq!(s.report.detail.is_some(), k > boundary);
    }

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn truncation_loses_at_most_the_final_partial_document() {
    check(
        "truncation_loses_at_most_the_final_partial_document",
        truncation_loses_at_most_the_final_partial_document_prop,
    );
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn truncation_loses_at_most_the_final_partial_document_wide() {
    check_n(
        "truncation_loses_at_most_the_final_partial_document",
        3_000,
        truncation_loses_at_most_the_final_partial_document_prop,
    );
}

fn arbitrary_single_byte_corruption_never_panics_prop(g: &mut Gen) {
    let n = g.range(1usize..8);
    let offset = g.range(0usize..4096);
    let flip = g.range(0u8..8);
    let c = build_collection(n);
    let path = tmp("flip");
    save(&c, &path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let at = offset % bytes.len();
    bytes[at] ^= 1 << flip;
    std::fs::write(&path, &bytes).unwrap();

    // Salvage must never panic or error on a read-able file, and it
    // can only ever recover documents the file actually held.
    let s = salvage("v", &path).unwrap();
    assert!(s.collection.len() <= n);
    // Whatever strict load says, it must not panic either.
    let _ = nc_docstore::persist::load("v", &path);

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn arbitrary_single_byte_corruption_never_panics() {
    check(
        "arbitrary_single_byte_corruption_never_panics",
        arbitrary_single_byte_corruption_never_panics_prop,
    );
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn arbitrary_single_byte_corruption_never_panics_wide() {
    check_n(
        "arbitrary_single_byte_corruption_never_panics",
        3_000,
        arbitrary_single_byte_corruption_never_panics_prop,
    );
}
