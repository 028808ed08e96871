//! Property-based tests for the document store: path access laws,
//! filter/index agreement, total-order invariants, and the JSON
//! writer/reader pair (round trip, truncation, arbitrary bytes, and a
//! file in the spelling the store's earlier writer used).

use nc_docstore::json;
use nc_docstore::prelude::*;
use nc_propcheck::{check, check_n, Gen, DIGITS, LOWER, UPPER};

fn scalar_value(g: &mut Gen) -> Value {
    match g.range(0..5) {
        0 => Value::Null,
        1 => Value::Bool(g.bool()),
        2 => Value::Int(int(g, -1000..1000)),
        3 => Value::Float(g.range(-100.0..100.0)),
        _ => Value::from(g.string(&format!("{LOWER}{UPPER}{DIGITS} "), 0..=12)),
    }
}

/// `[a-z][a-z0-9_]{0,8}`.
fn field_name(g: &mut Gen) -> String {
    g.string(LOWER, 1..=1) + &g.string(&format!("{LOWER}{DIGITS}_"), 0..=8)
}

fn int(g: &mut Gen, range: std::ops::Range<i32>) -> i64 {
    i64::from(g.range(range))
}

/// set_path followed by get_path returns the value just written.
fn set_then_get_round_trips_prop(g: &mut Gen) {
    let segs = g.vec(1..4, field_name);
    let value = scalar_value(g);
    let path = segs.join(".");
    let mut doc = Document::new();
    assert!(doc.set_path(&path, value.clone()));
    let got = doc.get_path(&path).expect("just set");
    assert!(got.query_eq(&value) || (got.is_null() && value.is_null()));
}

#[test]
fn set_then_get_round_trips() {
    check("set_then_get_round_trips", set_then_get_round_trips_prop);
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn set_then_get_round_trips_wide() {
    check_n(
        "set_then_get_round_trips",
        3_000,
        set_then_get_round_trips_prop,
    );
}

/// Writing one path never clobbers a sibling path.
fn sibling_paths_are_independent_prop(g: &mut Gen) {
    let (a, b) = (field_name(g), field_name(g));
    let (va, vb) = (scalar_value(g), scalar_value(g));
    if a == b {
        return;
    }
    let mut doc = Document::new();
    doc.set_path(&a, va.clone());
    doc.set_path(&b, vb);
    let got = doc.get_path(&a).expect("still present");
    assert!(got.query_eq(&va) || (got.is_null() && va.is_null()));
}

#[test]
fn sibling_paths_are_independent() {
    check(
        "sibling_paths_are_independent",
        sibling_paths_are_independent_prop,
    );
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn sibling_paths_are_independent_wide() {
    check_n(
        "sibling_paths_are_independent",
        3_000,
        sibling_paths_are_independent_prop,
    );
}

/// total_cmp is a total order: antisymmetric and transitive on
/// random triples.
fn total_cmp_laws_prop(g: &mut Gen) {
    let (a, b, c) = (scalar_value(g), scalar_value(g), scalar_value(g));
    use std::cmp::Ordering;
    assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
    if a.total_cmp(&b) != Ordering::Greater && b.total_cmp(&c) != Ordering::Greater {
        assert_ne!(a.total_cmp(&c), Ordering::Greater);
    }
    assert_eq!(a.total_cmp(&a), Ordering::Equal);
}

#[test]
fn total_cmp_laws() {
    check("total_cmp_laws", total_cmp_laws_prop);
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn total_cmp_laws_wide() {
    check_n("total_cmp_laws", 3_000, total_cmp_laws_prop);
}

/// Equal values (by query semantics) hash identically.
fn query_eq_implies_hash_eq_prop(g: &mut Gen) {
    let (a, b) = (scalar_value(g), scalar_value(g));
    if a.query_eq(&b) {
        assert_eq!(a.stable_hash(), b.stable_hash());
    }
}

#[test]
fn query_eq_implies_hash_eq() {
    check("query_eq_implies_hash_eq", query_eq_implies_hash_eq_prop);
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn query_eq_implies_hash_eq_wide() {
    check_n(
        "query_eq_implies_hash_eq",
        3_000,
        query_eq_implies_hash_eq_prop,
    );
}

/// An indexed equality find returns exactly what a full scan does.
fn indexed_find_agrees_with_scan_prop(g: &mut Gen) {
    let values = g.vec(1..40, |g| g.string("ABCD", 1..=1));
    let probe = g.string("ABCDE", 1..=1);
    let mut indexed = Collection::new("i");
    indexed.create_index("k", IndexKind::Hash);
    let mut plain = Collection::new("p");
    for v in &values {
        indexed.insert(doc! { "k" => v.as_str() });
        plain.insert(doc! { "k" => v.as_str() });
    }
    let filter = Filter::eq("k", probe.as_str());
    let from_index: Vec<i64> = indexed
        .find(&filter)
        .iter()
        .filter_map(|d| d.get_i64("_id"))
        .collect();
    let from_scan: Vec<i64> = plain
        .find(&filter)
        .iter()
        .filter_map(|d| d.get_i64("_id"))
        .collect();
    assert_eq!(from_index, from_scan);
}

#[test]
fn indexed_find_agrees_with_scan() {
    check(
        "indexed_find_agrees_with_scan",
        indexed_find_agrees_with_scan_prop,
    );
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn indexed_find_agrees_with_scan_wide() {
    check_n(
        "indexed_find_agrees_with_scan",
        3_000,
        indexed_find_agrees_with_scan_prop,
    );
}

/// Range finds via an ordered index agree with scans.
fn range_find_agrees_with_scan_prop(g: &mut Gen) {
    let values = g.vec(1..40, |g| int(g, -50..50));
    let lo = int(g, -60..60);
    let len = int(g, 0..40);
    let hi = lo + len;
    let mut indexed = Collection::new("i");
    indexed.create_index("k", IndexKind::Ordered);
    let mut plain = Collection::new("p");
    for v in &values {
        indexed.insert(doc! { "k" => *v });
        plain.insert(doc! { "k" => *v });
    }
    let filter = Filter::between("k", lo, hi);
    let a: Vec<i64> = indexed
        .find(&filter)
        .iter()
        .filter_map(|d| d.get_i64("_id"))
        .collect();
    let b: Vec<i64> = plain
        .find(&filter)
        .iter()
        .filter_map(|d| d.get_i64("_id"))
        .collect();
    assert_eq!(a, b);
}

#[test]
fn range_find_agrees_with_scan() {
    check(
        "range_find_agrees_with_scan",
        range_find_agrees_with_scan_prop,
    );
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn range_find_agrees_with_scan_wide() {
    check_n(
        "range_find_agrees_with_scan",
        3_000,
        range_find_agrees_with_scan_prop,
    );
}

/// Delete removes exactly the targeted document from finds.
fn delete_removes_from_results_prop(g: &mut Gen) {
    let values = g.vec(2..20, |g| g.string("ABC", 1..=1));
    let mut coll = Collection::new("d");
    coll.create_index("k", IndexKind::Hash);
    let ids: Vec<DocId> = values
        .iter()
        .map(|v| coll.insert(doc! { "k" => v.as_str() }))
        .collect();
    let victim = ids[0];
    let victim_key = values[0].clone();
    coll.delete(victim);
    let hits = coll.find_ids(&Filter::eq("k", victim_key.as_str()));
    assert!(!hits.contains(&victim));
    assert_eq!(coll.len(), values.len() - 1);
}

#[test]
fn delete_removes_from_results() {
    check(
        "delete_removes_from_results",
        delete_removes_from_results_prop,
    );
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn delete_removes_from_results_wide() {
    check_n(
        "delete_removes_from_results",
        3_000,
        delete_removes_from_results_prop,
    );
}

/// Filter::Not is an involution over random documents.
fn not_not_is_identity_prop(g: &mut Gen) {
    let (v, probe) = (scalar_value(g), scalar_value(g));
    let doc = doc! { "k" => v };
    let f = Filter::eq("k", probe);
    let nn = Filter::not(Filter::not(f.clone()));
    assert_eq!(f.matches(&doc), nn.matches(&doc));
}

#[test]
fn not_not_is_identity() {
    check("not_not_is_identity", not_not_is_identity_prop);
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn not_not_is_identity_wide() {
    check_n("not_not_is_identity", 3_000, not_not_is_identity_prop);
}

/// `parse(render(v)) == v`, to the bit, for arbitrary nested values.
fn json_round_trips_arbitrary_values_prop(g: &mut Gen) {
    let value = arbitrary_value(g);
    let rendered = value.to_json();
    let back = json::parse(rendered.as_bytes());
    assert_eq!(back.as_ref(), Ok(&value), "{}", rendered);
    // `PartialEq` calls `-0.0 == 0.0`; the rendering does not.
    assert_eq!(back.unwrap().to_json(), rendered);
}

#[test]
fn json_round_trips_arbitrary_values() {
    check(
        "json_round_trips_arbitrary_values",
        json_round_trips_arbitrary_values_prop,
    );
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn json_round_trips_arbitrary_values_wide() {
    check_n(
        "json_round_trips_arbitrary_values",
        3_000,
        json_round_trips_arbitrary_values_prop,
    );
}

/// Every proper prefix of a valid document is an error inside the
/// input, never a panic and never a value.
fn truncated_documents_are_errors_prop(g: &mut Gen) {
    let rendered = doc! { "v" => arbitrary_value(g) }.to_json();
    for cut in 0..rendered.len() {
        let err = json::parse(&rendered.as_bytes()[..cut]).expect_err("a proper prefix");
        assert!(err.offset <= cut, "cut {} of {}: {}", cut, rendered, err);
    }
}

#[test]
fn truncated_documents_are_errors() {
    check(
        "truncated_documents_are_errors",
        truncated_documents_are_errors_prop,
    );
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn truncated_documents_are_errors_wide() {
    check_n(
        "truncated_documents_are_errors",
        3_000,
        truncated_documents_are_errors_prop,
    );
}

/// Arbitrary bytes — raw, and spliced into a valid document — never
/// panic, and an error points inside the input.
fn arbitrary_bytes_never_panic_prop(g: &mut Gen) {
    let noise = g.vec(0..48, |g| g.range(0..=u8::MAX));
    let mut spliced = arbitrary_value(g).to_json().into_bytes();
    let at = g.range(0..=spliced.len());
    spliced.splice(at..at, noise.iter().copied());
    for input in [&noise, &spliced] {
        if let Err(e) = json::parse(input) {
            assert!(e.offset <= input.len(), "{:?}: {}", input, e);
        }
    }
}

#[test]
fn arbitrary_bytes_never_panic() {
    check(
        "arbitrary_bytes_never_panic",
        arbitrary_bytes_never_panic_prop,
    );
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn arbitrary_bytes_never_panic_wide() {
    check_n(
        "arbitrary_bytes_never_panic",
        3_000,
        arbitrary_bytes_never_panic_prop,
    );
}

/// Strings over the characters the escaper and the reader treat
/// specially: controls, quote, backslash, slash, non-ASCII, astral.
fn arbitrary_string(g: &mut Gen) -> String {
    g.string("aZ7 \"\\/\0\u{8}\u{c}\n\t\u{1f}é\u{ffff}\u{1F600}", 0..6)
}

fn arbitrary_float(g: &mut Gen) -> f64 {
    match g.range(0..6) {
        0 => -0.0,
        1 => g.u64() as i32 as f64,
        2 => f64::from_bits(g.range(0..1u64 << 52)),
        3 => i64::MAX as f64,
        _ => loop {
            let f = f64::from_bits(g.u64());
            if f.is_finite() {
                break f;
            }
        },
    }
}

fn arbitrary_tree(g: &mut Gen, budget: usize) -> Value {
    match g.range(0..if budget == 0 { 6 } else { 10 }) {
        0 => Value::Null,
        1 => Value::Bool(g.bool()),
        2 => Value::Int([i64::MIN, i64::MAX, 0, g.u64() as i64][g.range(0..4usize)]),
        3 | 4 => Value::Float(arbitrary_float(g)),
        5 => Value::Str(arbitrary_string(g)),
        6 | 7 => Value::Array(g.vec(0..4, |g| arbitrary_tree(g, budget - 1))),
        _ => Value::Doc(
            g.vec(0..4, |g| {
                (arbitrary_string(g), arbitrary_tree(g, budget - 1))
            })
            .into_iter()
            .collect(),
        ),
    }
}

/// A small random tree under a random spine of single-child arrays and
/// documents, so the whole value nests anywhere up to the reader's
/// `MAX_DEPTH`.
fn arbitrary_value(g: &mut Gen) -> Value {
    const TREE: usize = 4;
    let mut value = arbitrary_tree(g, TREE);
    for _ in 0..g.range(0..=json::MAX_DEPTH - TREE) {
        value = if g.bool() {
            Value::Array(vec![value])
        } else {
            Value::Doc(doc! { arbitrary_string(g) => value })
        };
    }
    value
}

#[test]
fn nesting_at_the_depth_bound_round_trips_and_one_deeper_is_rejected() {
    let nest = |layers: usize| (0..layers).fold(Value::Int(1), |v, _| Value::Array(vec![v]));
    let deepest = nest(json::MAX_DEPTH);
    assert_eq!(json::parse(deepest.to_json().as_bytes()), Ok(deepest));
    let err = json::parse(nest(json::MAX_DEPTH + 1).to_json().as_bytes()).unwrap_err();
    assert_eq!(err.message, "nesting too deep");
}

/// A collection file as the store's earlier JSON writer spelled it —
/// `1.0`, `1e21`, `\b` `\f` `\/`, raw non-ASCII, surrogate-pair escapes,
/// `{"count":…,"crc":…}` footer — loads to the values it was saved from.
#[test]
fn collection_file_in_the_earlier_spelling_still_loads() {
    use nc_docstore::crc32::Crc32;
    use nc_docstore::persist::{frame_line, load, salvage};

    let bodies = [
        r#"{"_id":0,"big":1e21,"het":1.0,"neg":-0.0,"small":1.5e-7,"whole":3}"#,
        r#"{"_id":1,"esc":"\b\f\/\u001f\"\\","name":"Zoë 😀","pair":"\ud83d\ude00"}"#,
        r#"{"_id":2,"nested":{"list":[1,2.5,null,true,"x"],"none":null}}"#,
    ];
    let mut file = String::new();
    let mut running = Crc32::new();
    for body in bodies {
        running.update(body.as_bytes());
        running.update(b"\n");
        file.push_str(&frame_line(body));
        file.push('\n');
    }
    file.push_str(&format!(
        "#nc-footer:{{\"count\":3,\"crc\":\"{:08x}\"}}\n",
        running.finalize()
    ));
    let path =
        std::env::temp_dir().join(format!("nc_docstore_parent_format_{}", std::process::id()));
    std::fs::write(&path, file).unwrap();

    let loaded = load("v", &path).unwrap();
    assert!(salvage("v", &path).unwrap().report.is_clean());
    std::fs::remove_file(&path).unwrap();

    let expected = [
        doc! { "_id" => 0_i64, "big" => 1e21, "het" => 1.0, "neg" => -0.0, "small" => 1.5e-7, "whole" => 3_i64 },
        doc! { "_id" => 1_i64, "esc" => "\u{8}\u{c}/\u{1f}\"\\", "name" => "Zoë 😀", "pair" => "\u{1F600}" },
        doc! { "_id" => 2_i64, "nested" => doc! {
            "list" => vec![Value::Int(1), Value::Float(2.5), Value::Null, Value::Bool(true), Value::from("x")],
            "none" => Value::Null,
        } },
    ];
    let docs: Vec<&Document> = loaded.iter_ordered().map(|(_, d)| d).collect();
    assert_eq!(docs, expected.iter().collect::<Vec<_>>());
    assert_eq!(
        docs[0].get("het"),
        Some(&Value::Float(1.0)),
        "1.0 stays a float"
    );
    assert_eq!(docs[0].get("whole"), Some(&Value::Int(3)), "3 stays an int");
}
