//! Property-based tests on the core pipeline invariants.

use std::borrow::Cow;
use std::cell::Cell;

use nc_core::cluster::{ClusterStore, RowDecision, RowOutcome};
use nc_core::md5::{md5_str, Digest};
use nc_core::record::{fingerprint, repeats, trim_row, DedupPolicy};
use nc_core::stats::pairs_in_cluster;
use nc_propcheck::{check, check_n, Gen, DIGITS, LOWER, UPPER};
use nc_votergen::schema::{
    AttrGroup, Row, AGE, FIRST_NAME, LAST_NAME, MIDL_NAME, NCID, NC_HOUSE, PARTY_CD, SCHEMA,
    SNAPSHOT_DT,
};

fn word(g: &mut Gen) -> String {
    g.string(UPPER, 0..=10)
}

/// A value that may be padded, empty, or whitespace only.
fn padded(g: &mut Gen) -> String {
    g.string(" ", 0..=2) + &g.string(UPPER, 0..=4) + &g.string(" ", 0..=2)
}

/// Two letters and three digits.
fn ncid(g: &mut Gen) -> String {
    g.string(UPPER, 2..=2) + &g.string(DIGITS, 3..=3)
}

fn age(g: &mut Gen) -> String {
    g.string(DIGITS, 1..=3)
}

fn row(g: &mut Gen) -> Row {
    let mut r = Row::empty();
    r.set(FIRST_NAME, word(g));
    r.set(LAST_NAME, word(g));
    r.set(NCID, ncid(g));
    r.set(AGE, age(g));
    r.set(SNAPSHOT_DT, "2010-01-01");
    r
}

/// MD5 is deterministic and 32 hex characters.
fn md5_shape_prop(g: &mut Gen) {
    let printable: String = (' '..='~').collect();
    let s = g.string(&printable, 0..=200);
    let d1 = md5_str(&s);
    let d2 = md5_str(&s);
    assert_eq!(d1, d2);
    let hex = d1.to_hex();
    assert_eq!(hex.len(), 32);
    assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
}

#[test]
fn md5_shape() {
    check("md5_shape", md5_shape_prop);
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn md5_shape_wide() {
    check_n("md5_shape", 3_000, md5_shape_prop);
}

/// Distinct inputs virtually never collide (sanity check over small
/// random inputs).
fn md5_injective_on_small_inputs_prop(g: &mut Gen) {
    let (a, b) = (g.string(LOWER, 0..=12), g.string(LOWER, 0..=12));
    if a != b {
        assert_ne!(md5_str(&a), md5_str(&b));
    }
}

#[test]
fn md5_injective_on_small_inputs() {
    check(
        "md5_injective_on_small_inputs",
        md5_injective_on_small_inputs_prop,
    );
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn md5_injective_on_small_inputs_wide() {
    check_n(
        "md5_injective_on_small_inputs",
        3_000,
        md5_injective_on_small_inputs_prop,
    );
}

/// Fingerprints ignore age and snapshot date under every policy.
fn fingerprint_ignores_time_attributes_prop(g: &mut Gen) {
    let row = row(g);
    let age2 = age(g);
    let date2 = format!(
        "20{}{}-0{}-0{}",
        g.range(0..=2),
        g.range(0..=9),
        g.range(1..=9),
        g.range(1..=9)
    );
    let mut other = row.clone();
    other.set(AGE, age2);
    other.set(SNAPSHOT_DT, date2);
    for policy in [
        DedupPolicy::Exact,
        DedupPolicy::Trimmed,
        DedupPolicy::PersonData,
    ] {
        assert_eq!(fingerprint(&row, policy), fingerprint(&other, policy));
    }
}

#[test]
fn fingerprint_ignores_time_attributes() {
    check(
        "fingerprint_ignores_time_attributes",
        fingerprint_ignores_time_attributes_prop,
    );
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn fingerprint_ignores_time_attributes_wide() {
    check_n(
        "fingerprint_ignores_time_attributes",
        3_000,
        fingerprint_ignores_time_attributes_prop,
    );
}

/// Trimmed fingerprints are invariant under added whitespace.
fn trimmed_fingerprint_ignores_padding_prop(g: &mut Gen) {
    let row = row(g);
    let mut padded = row.clone();
    let v = padded.get(LAST_NAME).to_owned();
    padded.set(LAST_NAME, format!("  {v} "));
    assert_eq!(
        fingerprint(&row, DedupPolicy::Trimmed),
        fingerprint(&padded, DedupPolicy::Trimmed)
    );
    // The Exact policy distinguishes them (unless the name is empty).
    if !v.is_empty() {
        assert_ne!(
            fingerprint(&row, DedupPolicy::Exact),
            fingerprint(&padded, DedupPolicy::Exact)
        );
    }
}

#[test]
fn trimmed_fingerprint_ignores_padding() {
    check(
        "trimmed_fingerprint_ignores_padding",
        trimmed_fingerprint_ignores_padding_prop,
    );
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn trimmed_fingerprint_ignores_padding_wide() {
    check_n(
        "trimmed_fingerprint_ignores_padding",
        3_000,
        trimmed_fingerprint_ignores_padding_prop,
    );
}

/// Importing the same row twice is idempotent under any
/// deduplicating policy.
fn import_is_idempotent_prop(g: &mut Gen) {
    let row = row(g);
    let n = g.range(2usize..6);
    for policy in [
        DedupPolicy::Exact,
        DedupPolicy::Trimmed,
        DedupPolicy::PersonData,
    ] {
        let mut store = ClusterStore::new();
        let first = store.import_row(row.clone(), policy, "s1", 1);
        assert_eq!(first, RowOutcome::NewCluster);
        for _ in 1..n {
            let out = store.import_row(row.clone(), policy, "s2", 1);
            assert_eq!(out, RowOutcome::DuplicateDropped);
        }
        assert_eq!(store.record_count(), 1);
        assert_eq!(store.rows_imported(), n as u64);
    }
}

#[test]
fn import_is_idempotent() {
    check("import_is_idempotent", import_is_idempotent_prop);
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn import_is_idempotent_wide() {
    check_n("import_is_idempotent", 3_000, import_is_idempotent_prop);
}

/// The importer that fingerprints every row: per cluster, in founding
/// order, the NCID, the fingerprints of the kept records and the
/// records as the policy stores them.
#[derive(Default)]
struct FingerprintEveryRow {
    clusters: Vec<(String, Vec<Digest>, Vec<Row>)>,
}

impl FingerprintEveryRow {
    fn import(&mut self, row: &Row, policy: DedupPolicy) -> RowDecision {
        let fp = fingerprint(row, policy);
        let cluster = self
            .clusters
            .iter()
            .position(|(ncid, ..)| ncid == row.ncid().trim());
        if let Some(pos) = cluster.filter(|_| policy != DedupPolicy::None) {
            if let Some(record) = self.clusters[pos].1.iter().position(|h| *h == fp) {
                return RowDecision::Duplicate {
                    cluster: pos,
                    record,
                };
            }
        }
        let mut stored = row.clone();
        if policy.trims() {
            trim_row(&mut stored);
        }
        match cluster {
            Some(pos) => {
                self.clusters[pos].1.push(fp);
                self.clusters[pos].2.push(stored);
            }
            None => self
                .clusters
                .push((row.ncid().trim().to_owned(), vec![fp], vec![stored])),
        }
        RowDecision::Keep {
            cluster,
            fingerprint: fp,
        }
    }
}

/// A value out of a small pool of padded, blank, non-ASCII, repeated
/// and near-equal spellings (U+00A0 and U+2003 are whitespace to
/// `str::trim`).
fn spelling(g: &mut Gen) -> &'static str {
    g.pick(&[
        "",
        " ",
        "SMITH",
        "SMITH ",
        "  SMITH",
        "SMYTH",
        "SMITH JR",
        "ÅSA",
        "\u{a0}ÅSA\u{2003}",
        "ÅSE",
        "ASA",
    ])
}

const RESPELLED: [usize; 6] = [LAST_NAME, FIRST_NAME, NC_HOUSE, PARTY_CD, AGE, SNAPSHOT_DT];

/// A history of rows over few NCIDs (padded spellings of the same key
/// included): each row is one of a few base rows with up to two of its
/// hashed person, district and election values or hash-excluded age
/// and date respelled, so rows repeat, nearly repeat and differ.
fn history(g: &mut Gen) -> Vec<Vec<Row>> {
    let bases = g.vec(2..4, |g| {
        let mut row = Row::empty();
        for attr in RESPELLED {
            row.set(attr, spelling(g));
        }
        row
    });
    g.vec(1..4, |g| {
        g.vec(0..14, |g| {
            let mut row = g.pick(&bases);
            row.set(
                NCID,
                g.pick(&["AA1", " AA1", "AA1 ", "BB2", "\u{a0}BB2", "CC3"]),
            );
            for _ in 0..g.range(0usize..3) {
                row.set(g.pick(&RESPELLED), spelling(g));
            }
            row
        })
    })
}

/// Deciding by comparison changes nothing: under every policy the store
/// makes the decision of an importer that fingerprints every row, and
/// ends up — outcomes, stored rows, fingerprints, counters, the derived
/// documents to the byte — where applying that importer's decisions
/// leaves a second store. The lemma it rests on is checked on the way:
/// a row repeats a stored record exactly when their fingerprints match.
///
/// One case; `decided` counts the rows dropped and kept, per policy.
fn deciding_by_comparison_prop(g: &mut Gen, decided: &Cell<[(u32, u32); 4]>) {
    let history = history(g);
    for (p, policy) in DedupPolicy::ALL.into_iter().enumerate() {
        let mut store = ClusterStore::new();
        let mut twin = ClusterStore::new();
        let mut reference = FingerprintEveryRow::default();
        for (s, rows) in history.iter().enumerate() {
            let (date, version) = (format!("s{s}"), s as u32 + 1);
            for row in rows {
                for (_, hashes, records) in &reference.clusters {
                    for (hash, record) in hashes.iter().zip(records) {
                        assert_eq!(
                            repeats(row, record, policy),
                            fingerprint(row, policy) == *hash,
                            "{policy:?}: {row:?} against {record:?}"
                        );
                    }
                }
                let decision = reference.import(row, policy);
                assert_eq!(store.decide(row, policy), decision, "{policy:?}: {row:?}");
                let expected = twin.apply(decision, Cow::Borrowed(row), policy, &date, version);
                let outcome = store.import_row_ref(row, policy, &date, version);
                assert_eq!(outcome, expected, "{policy:?}: {row:?}");
                let mut counts = decided.get();
                match outcome {
                    RowOutcome::DuplicateDropped => counts[p].0 += 1,
                    _ => counts[p].1 += 1,
                }
                decided.set(counts);
            }
        }
        assert_eq!(store.cluster_count(), reference.clusters.len());
        for ((ncid, rows), (ref_ncid, hashes, records)) in
            store.iter_clusters().zip(&reference.clusters)
        {
            assert_eq!(
                (ncid, rows),
                (ref_ncid.as_str(), records.as_slice()),
                "{policy:?}"
            );
            let doc = store.cluster_doc(ncid).unwrap();
            let stored: Vec<&str> = doc
                .get_array("meta.hashes")
                .unwrap()
                .iter()
                .map(|h| h.as_str().unwrap())
                .collect();
            let hexes: Vec<String> = hashes.iter().map(|h| h.to_hex()).collect();
            assert_eq!(stored, hexes, "{policy:?} {ncid}");
            assert_eq!(store.record_versions(ncid), twin.record_versions(ncid));
            assert_eq!(store.record_snapshots(ncid), twin.record_snapshots(ncid));
        }
        assert_eq!(
            (
                store.rows_imported(),
                store.record_count(),
                store.max_record_version()
            ),
            (
                twin.rows_imported(),
                twin.record_count(),
                twin.max_record_version()
            )
        );
        assert_eq!(store.cluster_rows_seen(), twin.cluster_rows_seen());
        let json = |s: &ClusterStore| -> Vec<String> {
            s.to_collection()
                .iter_ordered()
                .map(|(_, doc)| doc.to_json())
                .collect()
        };
        assert_eq!(json(&store), json(&twin), "{policy:?}");
    }
}

/// The property over `cases` cases, then the check that they exercise
/// both decisions under every policy that has two.
fn deciding_by_comparison_sweep(cases: u32) {
    // Rows dropped and rows kept over all cases, per policy.
    let decided = Cell::new([(0u32, 0u32); 4]);
    check_n(
        "deciding_by_comparison_equals_fingerprinting_every_row",
        cases,
        |g| deciding_by_comparison_prop(g, &decided),
    );
    let [none, rest @ ..] = decided.get();
    assert!(none.0 == 0 && none.1 > 500, "{none:?}");
    assert!(
        rest.iter()
            .all(|&(dropped, kept)| dropped > 100 && kept > 100),
        "{rest:?}"
    );
}

#[test]
fn deciding_by_comparison_equals_fingerprinting_every_row() {
    deciding_by_comparison_sweep(nc_propcheck::CASES);
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn deciding_by_comparison_equals_fingerprinting_every_row_wide() {
    deciding_by_comparison_sweep(3_000);
}

/// Clusters partition the imported rows: record counts per cluster
/// sum to the store's record count, and rows seen sum to the rows
/// imported.
fn cluster_accounting_is_consistent_prop(g: &mut Gen) {
    let rows = g.vec(1..30, row);
    let mut store = ClusterStore::new();
    for row in rows {
        store.import_row(row, DedupPolicy::Trimmed, "s1", 1);
    }
    let sizes: u64 = store.cluster_sizes().iter().map(|&s| s as u64).sum();
    assert_eq!(sizes, store.record_count());
    let seen: u64 = store.cluster_rows_seen().iter().sum();
    assert_eq!(seen, store.rows_imported());
    assert!(store.record_count() <= store.rows_imported());
}

#[test]
fn cluster_accounting_is_consistent() {
    check(
        "cluster_accounting_is_consistent",
        cluster_accounting_is_consistent_prop,
    );
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn cluster_accounting_is_consistent_wide() {
    check_n(
        "cluster_accounting_is_consistent",
        3_000,
        cluster_accounting_is_consistent_prop,
    );
}

/// What the store keeps of a row is the row — trimmed when the
/// policy trims, untouched otherwise — and the derived document
/// lists exactly the stored row's non-empty values under their
/// group, so nothing about a record exists only in the view.
fn stored_row_and_its_document_view_agree_prop(g: &mut Gen) {
    let ncid = ncid(g);
    let (first, midl, last) = (padded(g), padded(g), padded(g));
    let (house, party) = (padded(g), padded(g));
    let mut row = Row::empty();
    row.set(NCID, format!(" {ncid} "));
    let values = [
        (FIRST_NAME, first),
        (MIDL_NAME, midl),
        (LAST_NAME, last),
        (NC_HOUSE, house),
        (PARTY_CD, party),
    ];
    for (attr, value) in values {
        row.set(attr, value);
    }
    row.set(SNAPSHOT_DT, "2010-01-01");
    for policy in DedupPolicy::ALL {
        let mut store = ClusterStore::new();
        store.import_row_ref(&row, policy, "2010-01-01", 1);
        let mut expected = row.clone();
        if policy.trims() {
            trim_row(&mut expected);
        }
        assert_eq!(store.cluster_rows(&ncid), std::slice::from_ref(&expected));

        let doc = store.cluster_doc(&ncid).unwrap();
        assert_eq!(doc.get_str("ncid"), Some(ncid.as_str()));
        let records = doc.get_array("records").unwrap();
        assert_eq!(records.len(), 1);
        let record = records[0].as_doc().unwrap();
        for (attr, value) in SCHEMA.iter().zip(expected.values()) {
            let group = match attr.group {
                AttrGroup::Person => "person",
                AttrGroup::District => "district",
                AttrGroup::Election => "election",
                AttrGroup::Meta => "meta",
            };
            let path = format!("{group}.{}", attr.name);
            let expected = (!value.is_empty()).then_some(value);
            assert_eq!(record.get_str(&path), expected, "{:?} {}", policy, path);
        }
    }
}

#[test]
fn stored_row_and_its_document_view_agree() {
    check(
        "stored_row_and_its_document_view_agree",
        stored_row_and_its_document_view_agree_prop,
    );
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn stored_row_and_its_document_view_agree_wide() {
    check_n(
        "stored_row_and_its_document_view_agree",
        3_000,
        stored_row_and_its_document_view_agree_prop,
    );
}

/// trim_row is idempotent.
fn trim_is_idempotent_prop(g: &mut Gen) {
    let row = row(g);
    let mut once = row.clone();
    trim_row(&mut once);
    let mut twice = once.clone();
    trim_row(&mut twice);
    assert_eq!(once, twice);
}

#[test]
fn trim_is_idempotent() {
    check("trim_is_idempotent", trim_is_idempotent_prop);
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn trim_is_idempotent_wide() {
    check_n("trim_is_idempotent", 3_000, trim_is_idempotent_prop);
}

/// The pair-count formula matches the naive loop.
fn pairs_formula_matches_loop_prop(g: &mut Gen) {
    let n = g.range(0u64..200);
    let mut count = 0u64;
    for i in 0..n {
        for _ in (i + 1)..n {
            count += 1;
        }
    }
    assert_eq!(pairs_in_cluster(n), count);
}

#[test]
fn pairs_formula_matches_loop() {
    check(
        "pairs_formula_matches_loop",
        pairs_formula_matches_loop_prop,
    );
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn pairs_formula_matches_loop_wide() {
    check_n(
        "pairs_formula_matches_loop",
        3_000,
        pairs_formula_matches_loop_prop,
    );
}
