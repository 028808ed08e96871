//! Model test of the packed [`Row`]: random `set` sequences checked
//! against the plain `Vec<String>` a row used to be, through every
//! read path, plus the edges of `from_tsv` and the tab rule of `set`.

use nc_votergen::rng::Rng;
use nc_votergen::schema::{Row, CANCELLATION_DT, LAST_NAME, NCID, NUM_ATTRS};

/// Values that grow, shrink and empty a field, in one to four bytes
/// per character. None contains a tab.
const VALUES: &[&str] = &[
    "",
    " ",
    "A",
    "SMITH",
    "  padded  ",
    "MÜLLER",
    "Ångström",
    "名前",
    "🗳️ ballot",
    "line\nbreak",
    "quote\"back\\slash",
    "a considerably longer value that forces the line to be reallocated more than once",
];

fn assert_matches_model(row: &Row, model: &[String]) {
    for (id, want) in model.iter().enumerate() {
        assert_eq!(row.get(id), want, "get({id})");
    }
    assert_eq!(row.values().len(), NUM_ATTRS);
    assert!(row.values().eq(model.iter().map(String::as_str)), "values()");
    assert_eq!(row.ncid(), model[NCID]);
    let line = model.join("\t");
    assert_eq!(row.as_tsv(), line);
    assert_eq!(row.to_tsv(), line);
    let parsed = Row::from_tsv(&line).expect("44 fields");
    assert_eq!(&parsed, row, "from_tsv(to_tsv()) == row");
    assert!(parsed.values().eq(row.values()));
    let built = Row::from_values(&std::array::from_fn(|id| model[id].as_str()));
    assert_eq!(&built, row, "from_values(values()) == row");
    assert_eq!(built.get(CANCELLATION_DT), model[CANCELLATION_DT]);
}

#[test]
fn random_sets_match_the_vec_of_strings_model() {
    for seed in 0..40u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let mut row = Row::empty();
        let mut model = vec![String::new(); NUM_ATTRS];
        assert_matches_model(&row, &model);
        for _ in 0..120 {
            // First and last attribute get their share of the traffic.
            let id = match rng.gen_range(0..6) {
                0 => 0,
                1 => NUM_ATTRS - 1,
                _ => rng.gen_range(0..NUM_ATTRS),
            };
            let value = VALUES[rng.gen_range(0..VALUES.len())];
            // `set` takes borrowed and owned strings alike.
            let owned = value.to_owned();
            if rng.gen_bool(0.5) {
                row.set(id, value);
            } else {
                row.set(id, owned.clone());
            }
            model[id] = owned;
            assert_matches_model(&row, &model);

            let mut other = row.clone();
            assert_eq!(other, row);
            let changed = if model[id] == "x" { "y" } else { "x" };
            other.set(id, changed);
            assert_ne!(other, row, "a differing value makes rows differ");
        }
    }
}

#[test]
fn from_tsv_rejects_every_wrong_field_count() {
    let fields = |n: usize| vec!["v"; n].join("\t");
    assert!(Row::from_tsv(&fields(NUM_ATTRS)).is_some());
    assert!(Row::from_tsv(&fields(NUM_ATTRS - 1)).is_none());
    assert!(Row::from_tsv(&fields(NUM_ATTRS + 1)).is_none());
    assert!(Row::from_tsv("").is_none());
    assert!(Row::from_tsv("too\tfew").is_none());
    // A trailing tab is one field too many…
    assert!(Row::from_tsv(&format!("{}\t", fields(NUM_ATTRS))).is_none());
    // …unless it stands for an empty last value.
    let open_end = Row::from_tsv(&format!("{}\t", fields(NUM_ATTRS - 1))).unwrap();
    assert_eq!(open_end.get(NUM_ATTRS - 1), "");
    assert_eq!(open_end.get(NUM_ATTRS - 2), "v");
    // All-empty line: 43 tabs.
    let empty = Row::from_tsv(&"\t".repeat(NUM_ATTRS - 1)).unwrap();
    assert_eq!(empty, Row::empty());
    assert!(empty.values().all(str::is_empty));
}

#[test]
#[should_panic(expected = "last_name")]
fn set_refuses_a_tab_and_names_the_attribute() {
    Row::empty().set(LAST_NAME, "SMITH\tJR");
}

#[test]
#[should_panic(expected = "contains a tab")]
fn from_values_refuses_a_tab() {
    let mut values = [""; NUM_ATTRS];
    values[NCID] = "A\t1";
    let _ = Row::from_values(&values);
}
