//! End-to-end pipeline tests: archive generation → import → dedup →
//! scoring, checking the paper's qualitative claims.

use nc_suite::core::pipeline::{GenerationConfig, TestDataGenerator};
use nc_suite::core::plausibility::PlausibilityScorer;
use nc_suite::core::record::DedupPolicy;
use nc_suite::core::stats;
use nc_suite::votergen::config::GeneratorConfig;

fn run(policy: DedupPolicy, seed: u64) -> nc_suite::core::pipeline::GenerationOutcome {
    TestDataGenerator::run(GenerationConfig {
        generator: GeneratorConfig {
            seed,
            initial_population: 400,
            ..Default::default()
        },
        policy,
        snapshots: 12,
    })
}

/// Table 2's central claim: naively unioning snapshots yields mostly
/// (near-)exact duplicates, and the removal policies form a strict
/// compression hierarchy.
#[test]
fn dedup_policies_form_a_hierarchy() {
    let none = run(DedupPolicy::None, 1);
    let exact = run(DedupPolicy::Exact, 1);
    let trimmed = run(DedupPolicy::Trimmed, 1);
    let person = run(DedupPolicy::PersonData, 1);

    // Identical input archives.
    assert_eq!(none.store.rows_imported(), exact.store.rows_imported());
    assert_eq!(none.store.rows_imported(), trimmed.store.rows_imported());

    let n = none.store.record_count();
    let e = exact.store.record_count();
    let t = trimmed.store.record_count();
    let p = person.store.record_count();
    assert!(n > e, "exact dedup must remove records ({n} vs {e})");
    assert!(e > t, "trimming must remove further records ({e} vs {t})");
    assert!(t > p, "person-data dedup must remove further records ({t} vs {p})");

    // The paper reports > 60 % exact-duplicate removal; the synthetic
    // archive must reproduce that order of magnitude.
    let removal_rate = 1.0 - (e as f64 / n as f64);
    assert!(removal_rate > 0.5, "exact removal rate too low: {removal_rate}");

    // All policies agree on the number of objects (clusters).
    assert_eq!(none.store.cluster_count(), exact.store.cluster_count());
    assert_eq!(none.store.cluster_count(), person.store.cluster_count());
}

/// Table 1: the first snapshot is all-new; later snapshots contribute
/// mostly known records, with election years spiking new registrations.
#[test]
fn snapshot_statistics_shape() {
    let outcome = run(DedupPolicy::Trimmed, 2);
    let table = stats::snapshot_table(&outcome.imports);
    assert_eq!(table[0].year, 2008);
    assert!((table[0].new_record_rate() - 1.0).abs() < 1e-12);
    assert!((table[0].new_object_rate() - 1.0).abs() < 1e-12);
    // Typical later years: new-record rate drops well below 1…
    let min_later = table[1..]
        .iter()
        .map(|y| y.new_record_rate())
        .fold(1.0f64, f64::min);
    assert!(min_later < 0.6, "{min_later}");
    // …but format-drift years spike, the paper's Table 1 observation: in
    // 2014 the house-district label format changes, so every row counts
    // as a new record even though the voters did not change.
    if let Some(y2014) = table.iter().find(|y| y.year == 2014) {
        assert!(
            y2014.new_record_rate() > 0.9,
            "format drift should spike 2014: {}",
            y2014.new_record_rate()
        );
        assert!(y2014.new_object_rate() < 0.3, "mostly old voters in 2014");
    }
    // Total rows across years equals rows imported.
    let total: u64 = table.iter().map(|y| y.total_rows).sum();
    assert_eq!(total, outcome.store.rows_imported());
}

/// Figure 1: cluster sizes after trimming dedup are small and heavy at
/// the low end.
#[test]
fn cluster_size_histogram_shape() {
    let outcome = run(DedupPolicy::Trimmed, 3);
    let hist = stats::cluster_size_histogram(&outcome.store);
    let total: u64 = hist.values().sum();
    assert_eq!(total as usize, outcome.store.cluster_count());
    // Small clusters dominate.
    let small: u64 = hist.iter().filter(|(&s, _)| s <= 10).map(|(_, &c)| c).sum();
    assert!(small as f64 > total as f64 * 0.6, "small {small} of {total}");
}

/// Figure 4a: most clusters are fully plausible; the injected
/// NCID-reuse clusters fall well below.
#[test]
fn plausibility_flags_unsound_clusters() {
    // High reuse pressure so the test has unsound clusters to find.
    let outcome = TestDataGenerator::run(GenerationConfig {
        generator: GeneratorConfig {
            seed: 4,
            initial_population: 500,
            removal_rate: 0.12,
            removed_retention_years: 1,
            ncid_reuse_rate: 0.6,
            ..Default::default()
        },
        policy: DedupPolicy::Trimmed,
        snapshots: 25,
    });
    let store = &outcome.store;
    let scorer = PlausibilityScorer::new();

    let reused: Vec<&String> = outcome
        .unsound_ncids
        .iter()
        .filter(|n| store.cluster_rows(n).len() >= 2)
        .collect();
    assert!(!reused.is_empty(), "no unsound multi-record clusters generated");

    let mut unsound_scores = Vec::new();
    for ncid in &reused {
        unsound_scores.push(scorer.cluster(store.cluster_rows(ncid)));
    }
    let avg_unsound: f64 = unsound_scores.iter().sum::<f64>() / unsound_scores.len() as f64;

    let mut sound_scores = Vec::new();
    for (ncid, rows) in store.iter_clusters() {
        if !outcome.unsound_ncids.contains(ncid) && rows.len() >= 2 {
            sound_scores.push(scorer.cluster(rows));
        }
        if sound_scores.len() >= 300 {
            break;
        }
    }
    let avg_sound: f64 = sound_scores.iter().sum::<f64>() / sound_scores.len() as f64;

    assert!(
        avg_unsound < avg_sound - 0.1,
        "unsound clusters should score clearly lower: {avg_unsound} vs {avg_sound}"
    );
    assert!(avg_sound > 0.9, "sound clusters should be near 1.0: {avg_sound}");
}

/// Determinism: the whole pipeline is reproducible from the seed.
#[test]
fn pipeline_is_deterministic() {
    let a = run(DedupPolicy::Trimmed, 5);
    let b = run(DedupPolicy::Trimmed, 5);
    assert_eq!(a.store.record_count(), b.store.record_count());
    assert_eq!(a.store.cluster_count(), b.store.cluster_count());
    assert_eq!(a.imports, b.imports);
}
