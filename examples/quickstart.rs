//! Quickstart: generate a small historical voter archive, build a
//! labeled test dataset from it and print its headline statistics.
//!
//! Run with:
//! ```sh
//! cargo run --release -p nc-suite --example quickstart
//! ```

use nc_suite::core::heterogeneity::{AttributeWeights, HeterogeneityScorer, Scope};
use nc_suite::core::pipeline::{GenerationConfig, TestDataGenerator};
use nc_suite::core::plausibility::PlausibilityScorer;
use nc_suite::core::record::DedupPolicy;
use nc_suite::core::stats;
use nc_suite::votergen::config::GeneratorConfig;

fn main() {
    // 1. Configure a small synthetic archive: 2,000 voters over the
    //    first 12 snapshots of the 2008–2020 calendar.
    let config = GenerationConfig {
        generator: GeneratorConfig {
            seed: 2021,
            initial_population: 2_000,
            ..Default::default()
        },
        policy: DedupPolicy::Trimmed,
        snapshots: 12,
    };

    // 2. Run the pipeline: simulate, import, dedup, version.
    let outcome = TestDataGenerator::run(config);
    let store = &outcome.store;

    println!("== generation ==");
    println!("rows imported      : {}", store.rows_imported());
    println!("records kept       : {}", store.record_count());
    println!("duplicate clusters : {}", store.cluster_count());
    let row = stats::generation_table_row(store, DedupPolicy::Trimmed.label());
    println!("duplicate pairs    : {}", row.duplicate_pairs);
    println!(
        "avg / max cluster  : {:.2} / {}",
        row.avg_cluster_size, row.max_cluster_size
    );
    println!(
        "removed as dups    : {} rows ({:.1} %)",
        row.removed_records,
        100.0 * row.removed_record_rate
    );

    // 3. Score plausibility (gold-standard soundness) and heterogeneity
    //    (dirtiness) for every cluster.
    let plaus = PlausibilityScorer::new();
    let first_rows = store.iter_clusters().map(|(_, rows)| &rows[0]);
    let weights = AttributeWeights::from_rows(Scope::Person, first_rows);
    let het = HeterogeneityScorer::new(weights);

    let mut plaus_dist = stats::ScoreDistribution::new(20);
    let mut het_dist = stats::ScoreDistribution::new(20);
    for (_, rows) in store.iter_clusters() {
        plaus_dist.observe(plaus.cluster(rows));
        if rows.len() >= 2 {
            het_dist.observe(het.cluster(rows));
        }
    }

    println!("\n== quality scores ==");
    println!(
        "plausibility  : mean {:.3}, min {:.3}, {:.1} % of clusters at 1.0",
        plaus_dist.mean(),
        plaus_dist.min,
        100.0 * plaus_dist.fraction_at_least(1.0)
    );
    println!(
        "heterogeneity : mean {:.3}, max {:.3} (clusters with >= 2 records)",
        het_dist.mean(),
        het_dist.max
    );
    println!(
        "\nknown-unsound clusters injected by the simulator: {}",
        outcome.unsound_ncids.len()
    );
    println!("published version: {:?}", outcome.versions.current().map(|v| v.number));
}
