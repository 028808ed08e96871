//! Property-based tests on the registry simulator's invariants.

use std::collections::HashSet;

use nc_propcheck::{check, check_n, Gen};
use nc_votergen::config::{ErrorRates, GeneratorConfig};
use nc_votergen::registry::Registry;
use nc_votergen::schema::{self, Row};
use nc_votergen::snapshot::standard_calendar;

fn registry_config(seed: u64, pop: usize) -> GeneratorConfig {
    GeneratorConfig {
        seed,
        initial_population: pop,
        ..Default::default()
    }
}

/// Every emitted row is structurally valid: full arity, an NCID,
/// names present (modulo injected missing values), a parsable
/// snapshot date matching the snapshot, status from the code book.
fn emitted_rows_are_structurally_valid_prop(g: &mut Gen) {
    let seed = g.range(0u64..1000);
    let pop = g.range(20usize..80);
    let mut reg = Registry::new(registry_config(seed, pop));
    let cal = standard_calendar();
    for info in cal.iter().take(3) {
        let snap = reg.generate_snapshot(info);
        assert!(!snap.rows.is_empty());
        for row in &snap.rows {
            assert_eq!(row.values().len(), schema::NUM_ATTRS);
            assert!(!row.ncid().trim().is_empty());
            assert_eq!(row.get(schema::SNAPSHOT_DT).trim(), snap.date.as_str());
            let status = row.get(schema::STATUS).trim();
            assert!(
                ["ACTIVE", "INACTIVE", "REMOVED"].contains(&status),
                "unexpected status {status}"
            );
            // County id is numeric when present.
            let county = row.get(schema::COUNTY_ID).trim();
            assert!(county.parse::<u32>().is_ok(), "county {county}");
        }
    }
}

#[test]
fn emitted_rows_are_structurally_valid() {
    check(
        "emitted_rows_are_structurally_valid",
        emitted_rows_are_structurally_valid_prop,
    );
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn emitted_rows_are_structurally_valid_wide() {
    check_n(
        "emitted_rows_are_structurally_valid",
        3_000,
        emitted_rows_are_structurally_valid_prop,
    );
}

/// NCIDs within one snapshot are unique (each voter appears once).
fn ncids_unique_within_snapshot_prop(g: &mut Gen) {
    let seed = g.range(0u64..1000);
    let mut reg = Registry::new(registry_config(seed, 50));
    let cal = standard_calendar();
    for info in cal.iter().take(2) {
        let snap = reg.generate_snapshot(info);
        let ncids: HashSet<&str> = snap.rows.iter().map(Row::ncid).collect();
        assert_eq!(ncids.len(), snap.rows.len());
    }
}

#[test]
fn ncids_unique_within_snapshot() {
    check(
        "ncids_unique_within_snapshot",
        ncids_unique_within_snapshot_prop,
    );
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn ncids_unique_within_snapshot_wide() {
    check_n(
        "ncids_unique_within_snapshot",
        3_000,
        ncids_unique_within_snapshot_prop,
    );
}

/// With error injection disabled, re-registration is lossless: the
/// same voter emits identical hash-relevant person values across
/// consecutive snapshots unless a life event occurred — so the
/// duplicate rate over hash attributes is exactly the fraction of
/// unchanged voters (no noise).
fn clean_config_produces_pure_exact_duplicates_prop(g: &mut Gen) {
    let seed = g.range(0u64..500);
    let cfg = GeneratorConfig {
        seed,
        initial_population: 40,
        error_rates: ErrorRates::none(),
        whitespace_rate: 0.0,
        confusion_rate: 0.0,
        integration_rate: 0.0,
        scatter_rate: 0.0,
        age_outlier_rate: 0.0,
        move_rate: 0.0,
        name_change_rate: 0.0,
        party_switch_rate: 0.0,
        removal_rate: 0.0,
        reregistration_rate: 1.0, // re-register constantly…
        annual_growth: 0.0,
        ..Default::default()
    };
    let mut reg = Registry::new(cfg);
    let cal = standard_calendar();
    let s0 = reg.generate_snapshot(&cal[0]);
    let s1 = reg.generate_snapshot(&cal[1]);
    let attrs = schema::hash_attrs_person();
    let key = |r: &Row| {
        attrs
            .iter()
            .map(|&a| r.get(a).trim().to_owned())
            .collect::<Vec<_>>()
            .join("\u{1f}")
    };
    let set0: HashSet<String> = s0.rows.iter().map(&key).collect();
    // …but with all noise disabled, every re-registered record equals
    // its predecessor on the person attributes.
    for row in &s1.rows {
        assert!(
            set0.contains(&key(row)),
            "unexpected change for {}",
            row.ncid()
        );
    }
}

#[test]
fn clean_config_produces_pure_exact_duplicates() {
    check(
        "clean_config_produces_pure_exact_duplicates",
        clean_config_produces_pure_exact_duplicates_prop,
    );
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn clean_config_produces_pure_exact_duplicates_wide() {
    check_n(
        "clean_config_produces_pure_exact_duplicates",
        3_000,
        clean_config_produces_pure_exact_duplicates_prop,
    );
}

/// Rows per snapshot never exceed the total population ever created
/// and never fall below the surviving voters.
fn roll_size_is_bounded_prop(g: &mut Gen) {
    let seed = g.range(0u64..500);
    let mut reg = Registry::new(registry_config(seed, 30));
    let cal = standard_calendar();
    for info in cal.iter().take(4) {
        let snap = reg.generate_snapshot(info);
        assert!(snap.rows.len() <= reg.population());
    }
}

#[test]
fn roll_size_is_bounded() {
    check("roll_size_is_bounded", roll_size_is_bounded_prop);
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn roll_size_is_bounded_wide() {
    check_n("roll_size_is_bounded", 3_000, roll_size_is_bounded_prop);
}
