//! Customize three datasets of increasing dirtiness (the paper's
//! NC1/NC2/NC3) and evaluate three duplicate-detection pipelines on
//! them — a miniature of Section 6.5 / Figure 5.
//!
//! Run with:
//! ```sh
//! cargo run --release -p nc-suite --example customize_and_detect
//! ```

use nc_suite::bridge;
use nc_suite::core::customize::{customize, CustomizeParams};
use nc_suite::core::heterogeneity::{AttributeWeights, HeterogeneityScorer, Scope};
use nc_suite::core::pipeline::{GenerationConfig, TestDataGenerator};
use nc_suite::core::record::DedupPolicy;
use nc_suite::detect::blocking::SortedNeighborhood;
use nc_suite::detect::eval::{best_f1, linspace, score_candidates_streaming, threshold_sweep};
use nc_suite::detect::matcher::{MeasureKind, RecordMatcher};
use nc_suite::votergen::config::GeneratorConfig;

fn main() {
    // Build the full dataset once.
    let outcome = TestDataGenerator::run(GenerationConfig {
        generator: GeneratorConfig {
            seed: 99,
            initial_population: 2_500,
            ..Default::default()
        },
        policy: DedupPolicy::Trimmed,
        snapshots: 14,
    });
    let store = &outcome.store;
    println!(
        "full dataset: {} records in {} clusters",
        store.record_count(),
        store.cluster_count()
    );

    // Heterogeneity scorer with entropy weights from one record per
    // cluster (Section 6.3).
    let firsts = store.iter_clusters().map(|(_, rows)| &rows[0]);
    let weights = AttributeWeights::from_rows(Scope::Person, firsts);
    let scorer = HeterogeneityScorer::new(weights);

    let presets = [
        ("NC1", CustomizeParams::nc1(2_000, 400, 1)),
        ("NC2", CustomizeParams::nc2(2_000, 400, 1)),
        ("NC3", CustomizeParams::nc3(2_000, 400, 1)),
    ];
    let attrs = Scope::Person.attrs();

    for (name, params) in presets {
        let custom = customize(store, &scorer, &params);
        let data = bridge::dataset_from_custom(&custom, attrs);
        println!(
            "\n== {name} (heterogeneity {:.2}..{:.2}) — {} records, {} clusters, {} pairs ==",
            params.h_low,
            params.h_high,
            data.len(),
            custom.clusters.len(),
            custom.duplicate_pairs()
        );

        // The paper's blocking: multi-pass SNM over the five most unique
        // attributes, window 20.
        let blocker = SortedNeighborhood::multi_pass(data.top_entropy_attrs(5));
        let entropy_weights = data.entropy_weights();
        let name_group = bridge::name_group_positions(attrs);
        let gold = data.gold_pairs();

        println!(
            "{:<12} {:>10} {:>10} {:>10} {:>10}",
            "measure", "best thr", "precision", "recall", "F1"
        );
        for kind in MeasureKind::ALL {
            let matcher = RecordMatcher::with_kind(kind, entropy_weights.clone(), name_group.clone());
            let scored = score_candidates_streaming(&data, &blocker, &matcher);
            let sweep = threshold_sweep(&scored, &gold, &linspace(0.3, 0.95, 40));
            if let Some(best) = best_f1(&sweep) {
                println!(
                    "{:<12} {:>10.2} {:>10.3} {:>10.3} {:>10.3}",
                    kind.label(),
                    best.threshold,
                    best.prf.precision,
                    best.prf.recall,
                    best.prf.f1
                );
            }
        }
    }

    println!("\nExpected shape (paper, Figure 5): F1 degrades and the choice of");
    println!("threshold/measure grows more important from NC1 to NC3.");
}
