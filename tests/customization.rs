//! Customization tests: the NC1/NC2/NC3 recipe produces datasets of
//! increasing measured dirtiness (Section 6.5).

use nc_suite::bridge;
use nc_suite::core::customize::{customize, CustomizeParams};
use nc_suite::core::heterogeneity::{AttributeWeights, HeterogeneityScorer, Scope};
use nc_suite::core::pipeline::{GenerationConfig, TestDataGenerator};
use nc_suite::core::record::DedupPolicy;
use nc_suite::votergen::config::GeneratorConfig;

fn build() -> (nc_suite::core::pipeline::GenerationOutcome, HeterogeneityScorer) {
    let outcome = TestDataGenerator::run(GenerationConfig {
        generator: GeneratorConfig {
            seed: 11,
            initial_population: 800,
            ..Default::default()
        },
        policy: DedupPolicy::Trimmed,
        snapshots: 14,
    });
    let firsts = outcome.store.iter_clusters().map(|(_, rows)| &rows[0]);
    let weights = AttributeWeights::from_rows(Scope::Person, firsts);
    (outcome, HeterogeneityScorer::new(weights))
}

/// Measured heterogeneity must increase from the NC1 band to the NC3
/// band.
#[test]
fn bands_order_measured_heterogeneity() {
    let (outcome, scorer) = build();
    let store = &outcome.store;

    let mut avgs = Vec::new();
    for params in [
        CustomizeParams::nc1(600, 150, 3),
        CustomizeParams::nc2(600, 150, 3),
        CustomizeParams::nc3(600, 150, 3),
    ] {
        let ds = customize(store, &scorer, &params);
        let mut sum = 0.0;
        let mut n = 0u64;
        for c in &ds.clusters {
            for h in scorer.pair_scores(&c.records) {
                sum += h;
                n += 1;
            }
        }
        avgs.push(if n == 0 { 0.0 } else { sum / n as f64 });
    }
    assert!(
        avgs[0] < avgs[1],
        "NC1 should be cleaner than NC2: {avgs:?}"
    );
    // NC3 keeps only very heterogeneous pairs; with a small archive it
    // may contain few multi-record clusters, but whatever pairs remain
    // must be at least as dirty as NC2's.
    assert!(
        avgs[2] >= avgs[1] || avgs[2] == 0.0,
        "NC3 should be dirtiest: {avgs:?}"
    );
}

/// Every kept pair of a customized cluster respects the requested
/// heterogeneity band against its predecessors (by construction).
#[test]
fn kept_records_respect_band() {
    let (outcome, scorer) = build();
    let params = CustomizeParams {
        h_low: 0.05,
        h_high: 0.3,
        sample_clusters: 300,
        output_clusters: 60,
        seed: 4,
    };
    let ds = customize(&outcome.store, &scorer, &params);
    for c in ds.clusters.iter().filter(|c| c.records.len() >= 2) {
        for i in 0..c.records.len() {
            for j in (i + 1)..c.records.len() {
                let h = scorer.pair(&c.records[i], &c.records[j]);
                assert!(
                    (params.h_low..=params.h_high).contains(&h),
                    "cluster {} pair ({i},{j}) out of band: {h}",
                    c.ncid
                );
            }
        }
    }
}

/// The customized dataset converts cleanly into the generic detection
/// dataset with the gold standard intact.
#[test]
fn bridge_preserves_gold_standard() {
    let (outcome, scorer) = build();
    let ds = customize(
        &outcome.store,
        &scorer,
        &CustomizeParams::nc1(500, 100, 9),
    );
    let attrs = Scope::Person.attrs();
    let data = bridge::dataset_from_custom(&ds, attrs);
    assert_eq!(data.len(), ds.record_count());
    assert_eq!(data.gold_pairs().len() as u64, ds.duplicate_pairs());
    assert_eq!(data.num_attrs(), attrs.len());
}

/// Customization never invents records: every output record appears in
/// the source cluster.
#[test]
fn customization_is_a_selection() {
    let (outcome, scorer) = build();
    let ds = customize(
        &outcome.store,
        &scorer,
        &CustomizeParams::nc2(400, 80, 12),
    );
    for c in &ds.clusters {
        let source = outcome.store.cluster_rows(&c.ncid);
        for r in &c.records {
            assert!(
                source.iter().any(|s| s == r),
                "record not found in source cluster {}",
                c.ncid
            );
        }
        assert!(c.records.len() <= source.len());
    }
}
