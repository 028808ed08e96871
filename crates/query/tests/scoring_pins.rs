//! The cluster scores and the catalog documents of a seeded world are
//! pinned to the bit: an MD5 over `f64::to_bits` of every
//! `score_clusters` result, and an MD5 over the rendered JSON of every
//! `ClusterCatalog::build` document (`errors.*` included). The digests
//! were recorded before the similarity kernels took their word-parallel
//! paths; a change to a kernel, to the Monge–Elkan read-out or to the
//! catalog classifier that moves one bit moves a digest.

use nc_core::cluster::ClusterStore;
use nc_core::heterogeneity::Scope;
use nc_core::import::import_snapshot;
use nc_core::md5::md5;
use nc_core::plausibility::PlausibilityScorer;
use nc_core::record::DedupPolicy;
use nc_core::scoring::{score_clusters, ScoringConfig};
use nc_core::snapshot::StoreSnapshot;
use nc_query::catalog::ClusterCatalog;
use nc_votergen::config::{ErrorRates, GeneratorConfig};
use nc_votergen::registry::Registry;
use nc_votergen::snapshot::standard_calendar;

/// Per seed: the MD5 of the scores under the `All` and `Person` entropy
/// scorers, and the MD5 of the rendered catalog.
const PINS: [(u64, &str, &str); 2] = [
    (
        2021,
        "464b9cd59e9230ca307eeaf47f6ac6b5",
        "9e563dd04efd9c886dd7e5f8cadfd667",
    ),
    (
        7,
        "66e74b5a214e4e64a7fa775b2cdbc382",
        "f588692940bd0f077eceedf2f87657fc",
    ),
];

/// Six snapshots of 300 voters, every error and irregularity rate
/// raised so that clusters hold differing, padded, multi-token values.
fn world(seed: u64) -> StoreSnapshot {
    let mut registry = Registry::new(GeneratorConfig {
        seed,
        initial_population: 300,
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

fn scores_digest(snapshot: &StoreSnapshot) -> String {
    let mut bytes = Vec::new();
    for scope in [Scope::All, Scope::Person] {
        let scores = score_clusters(
            snapshot.clusters(),
            &PlausibilityScorer::new(),
            &snapshot.entropy_scorer(scope),
            &ScoringConfig::with_threads(1),
        );
        for s in scores {
            bytes.extend_from_slice(s.ncid.as_bytes());
            bytes.extend_from_slice(&(s.records as u64).to_le_bytes());
            bytes.extend_from_slice(&s.plausibility.to_bits().to_le_bytes());
            bytes.extend_from_slice(&s.heterogeneity.to_bits().to_le_bytes());
        }
    }
    md5(&bytes).to_hex()
}

fn catalog_digest(snapshot: &StoreSnapshot) -> String {
    let catalog = ClusterCatalog::build(snapshot, &snapshot.entropy_scorer(Scope::Person));
    let mut text = String::new();
    for (id, doc) in catalog.collection().iter_ordered() {
        text.push_str(&id.to_string());
        text.push('\t');
        text.push_str(&doc.to_json());
        text.push('\n');
    }
    md5(text.as_bytes()).to_hex()
}

#[test]
fn the_world_exercises_multi_token_and_differing_values() {
    let snapshot = world(2021);
    let (mut multi_token, mut differing) = (0, 0);
    for (_, rows) in snapshot.clusters() {
        let Some((first, rest)) = rows.split_first() else {
            continue;
        };
        for attr in Scope::All.attrs() {
            multi_token += usize::from(first.get(*attr).trim().contains(' '));
            differing += rest
                .iter()
                .filter(|r| r.get(*attr) != first.get(*attr))
                .count();
        }
    }
    assert!(multi_token > 100, "{multi_token} multi-token values");
    assert!(differing > 100, "{differing} differing values");
}

#[test]
fn cluster_scores_are_pinned() {
    for (seed, scores, _) in PINS {
        assert_eq!(scores_digest(&world(seed)), scores, "seed {seed}");
    }
}

#[test]
fn catalog_documents_are_pinned() {
    for (seed, _, catalog) in PINS {
        assert_eq!(catalog_digest(&world(seed)), catalog, "seed {seed}");
    }
}
