//! The carves of a seeded world are pinned to the byte: an MD5 over the
//! NCID and `Row::as_tsv()` of every kept record, in output order, and
//! over the sampled NCIDs. `customize_determinism.rs` holds the carve
//! paths to each other; these digests hold the one recipe they share to
//! what it produced before pair scores were read from a table.

use nc_core::cluster::ClusterStore;
use nc_core::customize::{CustomDataset, CustomizeParams};
use nc_core::heterogeneity::Scope;
use nc_core::import::import_snapshot;
use nc_core::md5::md5;
use nc_core::record::DedupPolicy;
use nc_core::snapshot::StoreSnapshot;
use nc_votergen::config::{ErrorRates, GeneratorConfig};
use nc_votergen::registry::Registry;
use nc_votergen::snapshot::standard_calendar;

/// Per seed: the MD5 of every carve of [`carves`], in order.
const PINS: [(u64, [&str; 6]); 2] = [
    (
        2021,
        [
            "de45e28ea942d307a90f6734105351c6",
            "1381ac06558c63e9dfbab402aa204cce",
            "76bbb1453c21222d9a4c37434156c8d5",
            "9bc43102797fa1bb75bf3082c156e7b0",
            "16899f7f4fdd7e79ff13f8cdf674313b",
            "54624e9c572c700ce2f5b3f60d3e03f7",
        ],
    ),
    (
        7,
        [
            "f6d5be12c573c114089d965f4c40430a",
            "782ebaa8bda4a9c578bdddb1cee5436d",
            "58587c51ec216fd2af9f47229065645e",
            "472a8a49fea2c810f65a808fcc0e75ed",
            "ccd3c6fc866989e44d0d1cbb17f4d78a",
            "b2db74a9b65662a062db631dea7675b2",
        ],
    ),
];

/// Six snapshots of 1 000 voters, every error and irregularity rate
/// raised so that clusters hold differing, padded, multi-token values.
fn world(seed: u64) -> StoreSnapshot {
    let mut registry = Registry::new(GeneratorConfig {
        seed,
        initial_population: 1_000,
        error_rates: ErrorRates {
            typo: 0.08,
            ocr: 0.04,
            phonetic: 0.04,
            abbreviation: 0.04,
            missing: 0.04,
            case_flip: 0.04,
        },
        whitespace_rate: 0.05,
        confusion_rate: 0.05,
        integration_rate: 0.05,
        scatter_rate: 0.05,
        age_outlier_rate: 0.03,
        ..Default::default()
    });
    let mut store = ClusterStore::new();
    for (i, info) in standard_calendar().iter().take(6).enumerate() {
        let snapshot = registry.generate_snapshot(info);
        import_snapshot(&mut store, &snapshot, DedupPolicy::Exact, i as u32 + 1);
    }
    StoreSnapshot::capture(&store, 6)
}

/// The three presets, two knob bands (sample 600, output 100) and the
/// detection benchmark's shape: NC2 over every cluster, keep 1 000.
fn carves(snapshot: &StoreSnapshot, seed: u64) -> [CustomizeParams; 6] {
    let knob = |h_low, h_high| CustomizeParams {
        h_low,
        h_high,
        sample_clusters: 600,
        output_clusters: 100,
        seed,
    };
    [
        CustomizeParams::nc1(600, 100, seed),
        CustomizeParams::nc2(600, 100, seed),
        CustomizeParams::nc3(600, 100, seed),
        knob(0.0, 0.15),
        knob(0.1, 0.55),
        CustomizeParams::nc2(snapshot.cluster_count(), 1000, seed),
    ]
}

fn digest(dataset: &CustomDataset) -> String {
    let mut bytes = Vec::new();
    for cluster in &dataset.clusters {
        bytes.extend_from_slice(cluster.ncid.as_bytes());
        bytes.push(b'\n');
        for record in &cluster.records {
            bytes.extend_from_slice(record.as_tsv().as_bytes());
            bytes.push(b'\n');
        }
    }
    bytes.extend_from_slice(b"sampled\n");
    for ncid in &dataset.sampled {
        bytes.extend_from_slice(ncid.as_bytes());
        bytes.push(b'\n');
    }
    md5(&bytes).to_hex()
}

#[test]
fn the_carves_keep_multi_record_clusters() {
    let snapshot = world(2021);
    let scorer = snapshot.entropy_scorer(Scope::Person);
    for params in carves(&snapshot, 2021) {
        let dataset = snapshot.customize(&scorer, &params);
        assert!(dataset.non_singletons() > 0, "{params:?} keeps only singletons");
    }
}

#[test]
fn carves_are_pinned() {
    for (seed, pins) in PINS {
        let snapshot = world(seed);
        let scorer = snapshot.entropy_scorer(Scope::Person);
        let got = carves(&snapshot, seed)
            .map(|params| digest(&snapshot.customize(&scorer, &params)));
        assert_eq!(got, pins, "seed {seed}");
    }
}
