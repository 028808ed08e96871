//! Property tests: customization is a pure function of
//! `(seed, params, store version)` — the same inputs always carve the
//! same `CustomDataset`, and the borrowed-snapshot path
//! (`customize_clusters` / `StoreSnapshot::customize`, which the serve
//! layer is built on) is bit-identical to `customize` on the store.

use nc_core::cluster::ClusterStore;
use nc_core::customize::{customize, customize_clusters, CustomDataset, CustomizeParams};
use nc_core::heterogeneity::{AttributeWeights, HeterogeneityScorer, Scope};
use nc_core::record::DedupPolicy;
use nc_core::snapshot::StoreSnapshot;
use nc_propcheck::check;
use nc_votergen::schema::{Row, FIRST_NAME, LAST_NAME, MIDL_NAME, NCID, RES_CITY};

const FIRSTS: [&str; 6] = ["MARY", "JAMES", "PATRICIA", "ROBERT", "LINDA", "MICHAEL"];
const LASTS: [&str; 6] = ["SMITH", "JOHNSON", "WILLIAMS", "BROWN", "JONES", "GARCIA"];
const CITIES: [&str; 4] = ["RALEIGH", "DURHAM", "CARY", "APEX"];

/// A deterministic store: `stamp` varies which names land where, index
/// arithmetic varies the per-cluster record count (1–4) and how much
/// records within a cluster differ (exercising all heterogeneity
/// bands) — no RNG, so the store is a pure function of its arguments.
fn build_store(stamp: u64, clusters: usize) -> ClusterStore {
    let mut store = ClusterStore::new();
    for c in 0..clusters {
        let k = stamp as usize + c;
        let size = 1 + k % 4;
        for r in 0..size {
            let mut row = Row::empty();
            row.set(NCID, format!("P{c:04}"));
            // Record 0 is the base; later records drift further away.
            let drift = r * (1 + k % 3);
            row.set(FIRST_NAME, FIRSTS[(k + drift) % FIRSTS.len()]);
            row.set(MIDL_NAME, if (k + r).is_multiple_of(3) { "LEE" } else { "" });
            row.set(LAST_NAME, LASTS[(k + drift / 2) % LASTS.len()]);
            row.set(RES_CITY, CITIES[(k + r) % CITIES.len()]);
            store.import_row(row, DedupPolicy::Trimmed, &format!("s{r}"), 1 + r as u32);
        }
    }
    store
}

/// The scorer derivation used throughout the repo (and by the serve
/// layer): entropy weights from one record per cluster, person scope.
fn scorer_for(store: &ClusterStore) -> HeterogeneityScorer {
    let firsts = store.iter_clusters().map(|(_, rows)| &rows[0]);
    HeterogeneityScorer::new(AttributeWeights::from_rows(Scope::Person, firsts))
}

/// Bit-exact rendering of a dataset for comparison: NCIDs plus every
/// record as its TSV line, in order.
fn render(ds: &CustomDataset) -> Vec<String> {
    ds.clusters
        .iter()
        .flat_map(|c| {
            std::iter::once(format!("# {}", c.ncid)).chain(c.records.iter().map(Row::to_tsv))
        })
        .collect()
}

/// Same `(seed, params, store)` → identical dataset, every time.
#[test]
fn customize_is_deterministic() {
    check("customize_is_deterministic", |g| {
        let stamp = g.range(0u64..40);
        let seed = g.range(0u64..1_000);
        let lo_tenths = g.range(0u32..8);
        let width_tenths = g.range(0u32..10);
        let sample = g.range(1usize..40);
        let output = g.range(1usize..25);
        let store = build_store(stamp, 30);
        let scorer = scorer_for(&store);
        let params = CustomizeParams {
            h_low: f64::from(lo_tenths) / 10.0,
            h_high: (f64::from(lo_tenths) + f64::from(width_tenths)) / 10.0,
            sample_clusters: sample,
            output_clusters: output,
            seed,
        };
        let a = customize(&store, &scorer, &params);
        let b = customize(&store, &scorer, &params);
        assert_eq!(render(&a), render(&b));
    });
}

/// The borrowed-clusters path (what a serve snapshot runs) is
/// bit-identical to customizing the store directly.
#[test]
fn snapshot_path_matches_store_path() {
    check("snapshot_path_matches_store_path", |g| {
        let stamp = g.range(0u64..40);
        let seed = g.range(0u64..1_000);
        let sample = g.range(1usize..40);
        let output = g.range(1usize..25);
        let store = build_store(stamp, 30);
        let scorer = scorer_for(&store);
        let params = CustomizeParams {
            h_low: 0.0,
            h_high: 0.6,
            sample_clusters: sample,
            output_clusters: output,
            seed,
        };
        let direct = customize(&store, &scorer, &params);

        // Through the raw clusters slice…
        let clusters: Vec<(String, Vec<Row>)> = store
            .iter_clusters()
            .map(|(ncid, rows)| (ncid.to_owned(), rows.to_vec()))
            .collect();
        let via_slice = customize_clusters(&clusters, &scorer, &params);
        assert_eq!(render(&direct), render(&via_slice));

        // …and through a captured snapshot with its own derived scorer
        // (the serve layer's exact path).
        let snapshot = StoreSnapshot::capture(&store, 1);
        let via_snapshot = snapshot.customize(&snapshot.entropy_scorer(Scope::Person), &params);
        assert_eq!(render(&direct), render(&via_snapshot));
    });
}

/// Two snapshots captured from the same store version carve
/// identically — a cached serve result can never drift from a
/// fresh one.
#[test]
fn recaptured_snapshots_carve_identically() {
    check("recaptured_snapshots_carve_identically", |g| {
        let stamp = g.range(0u64..40);
        let seed = g.range(0u64..1_000);
        let store = build_store(stamp, 25);
        let params = CustomizeParams {
            h_low: 0.1,
            h_high: 0.9,
            sample_clusters: 20,
            output_clusters: 12,
            seed,
        };
        let snap_a = StoreSnapshot::capture(&store, 3);
        let snap_b = StoreSnapshot::capture(&store, 3);
        let a = snap_a.customize(&snap_a.entropy_scorer(Scope::Person), &params);
        let b = snap_b.customize(&snap_b.entropy_scorer(Scope::Person), &params);
        assert_eq!(render(&a), render(&b));
    });
}

/// Different seeds must be able to produce different samples (the RNG
/// is actually wired through) — a plain sanity check, not a property.
#[test]
fn seeds_influence_sampling() {
    let store = build_store(7, 30);
    let scorer = scorer_for(&store);
    let carve = |seed| {
        customize(
            &store,
            &scorer,
            &CustomizeParams {
                h_low: 0.0,
                h_high: 1.0,
                sample_clusters: 5,
                output_clusters: 5,
                seed,
            },
        )
    };
    let distinct: std::collections::HashSet<Vec<String>> =
        (0..20).map(|s| render(&carve(s))).collect();
    assert!(distinct.len() > 1, "all 20 seeds carved the same sample");
}
