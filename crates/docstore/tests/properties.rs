//! Property-based tests for the document store: path access laws,
//! filter/index agreement, total-order invariants, and the JSON
//! writer/reader pair (round trip, truncation, arbitrary bytes, and a
//! file in the spelling the store's earlier writer used).

use nc_docstore::json;
use nc_docstore::prelude::*;
use proptest::prelude::*;

fn scalar_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-1000i64..1000).prop_map(Value::Int),
        (-100.0f64..100.0).prop_map(Value::Float),
        "[a-zA-Z0-9 ]{0,12}".prop_map(Value::from),
    ]
}

fn field_name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,8}".prop_map(|s| s)
}

proptest! {
    /// set_path followed by get_path returns the value just written.
    #[test]
    fn set_then_get_round_trips(
        segs in proptest::collection::vec(field_name(), 1..4),
        value in scalar_value(),
    ) {
        let path = segs.join(".");
        let mut doc = Document::new();
        prop_assert!(doc.set_path(&path, value.clone()));
        let got = doc.get_path(&path).expect("just set");
        prop_assert!(got.query_eq(&value) || (got.is_null() && value.is_null()));
    }

    /// Writing one path never clobbers a sibling path.
    #[test]
    fn sibling_paths_are_independent(
        a in field_name(),
        b in field_name(),
        va in scalar_value(),
        vb in scalar_value(),
    ) {
        prop_assume!(a != b);
        let mut doc = Document::new();
        doc.set_path(&a, va.clone());
        doc.set_path(&b, vb);
        let got = doc.get_path(&a).expect("still present");
        prop_assert!(got.query_eq(&va) || (got.is_null() && va.is_null()));
    }

    /// total_cmp is a total order: antisymmetric and transitive on
    /// random triples.
    #[test]
    fn total_cmp_laws(
        a in scalar_value(),
        b in scalar_value(),
        c in scalar_value(),
    ) {
        use std::cmp::Ordering;
        prop_assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
        if a.total_cmp(&b) != Ordering::Greater && b.total_cmp(&c) != Ordering::Greater {
            prop_assert_ne!(a.total_cmp(&c), Ordering::Greater);
        }
        prop_assert_eq!(a.total_cmp(&a), Ordering::Equal);
    }

    /// Equal values (by query semantics) hash identically.
    #[test]
    fn query_eq_implies_hash_eq(a in scalar_value(), b in scalar_value()) {
        if a.query_eq(&b) {
            prop_assert_eq!(a.stable_hash(), b.stable_hash());
        }
    }

    /// An indexed equality find returns exactly what a full scan does.
    #[test]
    fn indexed_find_agrees_with_scan(
        values in proptest::collection::vec("[A-D]", 1..40),
        probe in "[A-E]",
    ) {
        let mut indexed = Collection::new("i");
        indexed.create_index("k", IndexKind::Hash);
        let mut plain = Collection::new("p");
        for v in &values {
            indexed.insert(doc! { "k" => v.as_str() });
            plain.insert(doc! { "k" => v.as_str() });
        }
        let filter = Filter::eq("k", probe.as_str());
        let from_index: Vec<i64> =
            indexed.find(&filter).iter().filter_map(|d| d.get_i64("_id")).collect();
        let from_scan: Vec<i64> =
            plain.find(&filter).iter().filter_map(|d| d.get_i64("_id")).collect();
        prop_assert_eq!(from_index, from_scan);
    }

    /// Range finds via an ordered index agree with scans.
    #[test]
    fn range_find_agrees_with_scan(
        values in proptest::collection::vec(-50i64..50, 1..40),
        lo in -60i64..60,
        len in 0i64..40,
    ) {
        let hi = lo + len;
        let mut indexed = Collection::new("i");
        indexed.create_index("k", IndexKind::Ordered);
        let mut plain = Collection::new("p");
        for v in &values {
            indexed.insert(doc! { "k" => *v });
            plain.insert(doc! { "k" => *v });
        }
        let filter = Filter::between("k", lo, hi);
        let a: Vec<i64> = indexed.find(&filter).iter().filter_map(|d| d.get_i64("_id")).collect();
        let b: Vec<i64> = plain.find(&filter).iter().filter_map(|d| d.get_i64("_id")).collect();
        prop_assert_eq!(a, b);
    }

    /// Delete removes exactly the targeted document from finds.
    #[test]
    fn delete_removes_from_results(values in proptest::collection::vec("[A-C]", 2..20)) {
        let mut coll = Collection::new("d");
        coll.create_index("k", IndexKind::Hash);
        let ids: Vec<DocId> = values.iter().map(|v| coll.insert(doc! { "k" => v.as_str() })).collect();
        let victim = ids[0];
        let victim_key = values[0].clone();
        coll.delete(victim);
        let hits = coll.find_ids(&Filter::eq("k", victim_key.as_str()));
        prop_assert!(!hits.contains(&victim));
        prop_assert_eq!(coll.len(), values.len() - 1);
    }

    /// Filter::Not is an involution over random documents.
    #[test]
    fn not_not_is_identity(v in scalar_value(), probe in scalar_value()) {
        let doc = doc! { "k" => v };
        let f = Filter::eq("k", probe);
        let nn = Filter::not(Filter::not(f.clone()));
        prop_assert_eq!(f.matches(&doc), nn.matches(&doc));
    }

    /// `parse(render(v)) == v`, to the bit, for arbitrary nested values.
    #[test]
    fn json_round_trips_arbitrary_values(seed in any::<u64>()) {
        let value = arbitrary_value(&mut Rng(seed));
        let rendered = value.to_json();
        let back = json::parse(rendered.as_bytes());
        prop_assert_eq!(back.as_ref(), Ok(&value), "{}", rendered);
        // `PartialEq` calls `-0.0 == 0.0`; the rendering does not.
        prop_assert_eq!(back.unwrap().to_json(), rendered);
    }

    /// Every proper prefix of a valid document is an error inside the
    /// input, never a panic and never a value.
    #[test]
    fn truncated_documents_are_errors(seed in any::<u64>()) {
        let rendered = doc! { "v" => arbitrary_value(&mut Rng(seed)) }.to_json();
        for cut in 0..rendered.len() {
            let err = json::parse(&rendered.as_bytes()[..cut]).expect_err("a proper prefix");
            prop_assert!(err.offset <= cut, "cut {} of {}: {}", cut, rendered, err);
        }
    }

    /// Arbitrary bytes — raw, and spliced into a valid document — never
    /// panic, and an error points inside the input.
    #[test]
    fn arbitrary_bytes_never_panic(
        noise in proptest::collection::vec(any::<u8>(), 0..48),
        seed in any::<u64>(),
    ) {
        let mut rng = Rng(seed);
        let mut spliced = arbitrary_value(&mut rng).to_json().into_bytes();
        let at = rng.below(spliced.len() as u64 + 1) as usize;
        spliced.splice(at..at, noise.iter().copied());
        for input in [&noise, &spliced] {
            if let Err(e) = json::parse(input) {
                prop_assert!(e.offset <= input.len(), "{:?}: {}", input, e);
            }
        }
    }
}

/// SplitMix64: the nested-value generator below is driven by one
/// `u64` seed so it runs the same under any proptest.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Strings over the characters the escaper and the reader treat
/// specially: controls, quote, backslash, slash, non-ASCII, astral.
fn arbitrary_string(rng: &mut Rng) -> String {
    const ALPHABET: [char; 16] = [
        'a', 'Z', '7', ' ', '"', '\\', '/', '\0', '\u{8}', '\u{c}', '\n', '\t', '\u{1f}', 'é',
        '\u{ffff}', '\u{1F600}',
    ];
    (0..rng.below(6))
        .map(|_| ALPHABET[rng.below(16) as usize])
        .collect()
}

fn arbitrary_float(rng: &mut Rng) -> f64 {
    match rng.below(6) {
        0 => -0.0,
        1 => rng.next() as i32 as f64,
        2 => f64::from_bits(rng.below(1 << 52)),
        3 => i64::MAX as f64,
        _ => loop {
            let f = f64::from_bits(rng.next());
            if f.is_finite() {
                break f;
            }
        },
    }
}

fn arbitrary_tree(rng: &mut Rng, budget: usize) -> Value {
    match rng.below(if budget == 0 { 6 } else { 10 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 1),
        2 => Value::Int([i64::MIN, i64::MAX, 0, rng.next() as i64][rng.below(4) as usize]),
        3 | 4 => Value::Float(arbitrary_float(rng)),
        5 => Value::Str(arbitrary_string(rng)),
        6 | 7 => Value::Array((0..rng.below(4)).map(|_| arbitrary_tree(rng, budget - 1)).collect()),
        _ => Value::Doc(
            (0..rng.below(4))
                .map(|_| (arbitrary_string(rng), arbitrary_tree(rng, budget - 1)))
                .collect(),
        ),
    }
}

/// A small random tree under a random spine of single-child arrays and
/// documents, so the whole value nests anywhere up to the reader's
/// `MAX_DEPTH`.
fn arbitrary_value(rng: &mut Rng) -> Value {
    const TREE: usize = 4;
    let mut value = arbitrary_tree(rng, TREE);
    for _ in 0..rng.below((json::MAX_DEPTH - TREE + 1) as u64) {
        value = if rng.below(2) == 0 {
            Value::Array(vec![value])
        } else {
            Value::Doc(doc! { arbitrary_string(rng) => value })
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
    let path = std::env::temp_dir().join(format!("nc_docstore_parent_format_{}", std::process::id()));
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
    assert_eq!(docs[0].get("het"), Some(&Value::Float(1.0)), "1.0 stays a float");
    assert_eq!(docs[0].get("whole"), Some(&Value::Int(3)), "3 stays an int");
}
