//! Customization: carving user-specific test datasets out of the full
//! cluster store (Section 6.5).
//!
//! The paper's three-step recipe:
//!
//! 1. pick heterogeneity bounds `[h_low, h_high]`,
//! 2. randomly sample clusters; scan each cluster's records in order and
//!    drop every record whose heterogeneity to its preceding *kept*
//!    records falls outside the bounds,
//! 3. sort the reduced clusters by size and keep the largest `k`.
//!
//! Applied with bounds (0.06, 0.2), (0.2, 0.4) and (0.4, 1.0) this
//! produces the paper's NC1, NC2 and NC3 datasets.

use nc_votergen::rng::Rng;
use nc_votergen::schema::Row;

use crate::cluster::ClusterStore;
use crate::heterogeneity::{HeterogeneityScorer, PairTable};

/// Parameters of the customization step.
#[derive(Debug, Clone, PartialEq)]
pub struct CustomizeParams {
    /// Lower heterogeneity bound (inclusive) between kept records.
    pub h_low: f64,
    /// Upper heterogeneity bound (inclusive).
    pub h_high: f64,
    /// Number of clusters to sample from the store (the paper samples
    /// "over 100 thousand"). Capped at the store size.
    pub sample_clusters: usize,
    /// Number of (largest) reduced clusters to keep (the paper keeps
    /// 10 thousand).
    pub output_clusters: usize,
    /// Sampling seed.
    pub seed: u64,
}

impl CustomizeParams {
    /// The paper's NC1 setting (clean: heterogeneity 0.06–0.2).
    pub fn nc1(sample: usize, output: usize, seed: u64) -> Self {
        CustomizeParams { h_low: 0.06, h_high: 0.2, sample_clusters: sample, output_clusters: output, seed }
    }
    /// The paper's NC2 setting (medium: 0.2–0.4).
    pub fn nc2(sample: usize, output: usize, seed: u64) -> Self {
        CustomizeParams { h_low: 0.2, h_high: 0.4, sample_clusters: sample, output_clusters: output, seed }
    }
    /// The paper's NC3 setting (dirty: 0.4–1.0).
    pub fn nc3(sample: usize, output: usize, seed: u64) -> Self {
        CustomizeParams { h_low: 0.4, h_high: 1.0, sample_clusters: sample, output_clusters: output, seed }
    }
}

/// One cluster of a customized dataset.
#[derive(Debug, Clone)]
pub struct CustomCluster {
    /// The gold-standard cluster id (the voter's NCID).
    pub ncid: String,
    /// The kept records.
    pub records: Vec<Row>,
}

/// A customized test dataset with its gold standard.
#[derive(Debug, Clone, Default)]
pub struct CustomDataset {
    /// Clusters, largest first.
    pub clusters: Vec<CustomCluster>,
    /// NCIDs of every cluster drawn in the sampling step (2a), in
    /// sample order — a superset of `clusters`, because ranking may
    /// cut sampled clusters. Cache invalidation needs the *sampled*
    /// set: a revision to any sampled cluster (kept or cut) can change
    /// the ranking outcome, while clusters never sampled cannot affect
    /// this carve at all.
    pub sampled: Vec<String>,
}

impl CustomDataset {
    /// Total number of records.
    pub fn record_count(&self) -> usize {
        self.clusters.iter().map(|c| c.records.len()).sum()
    }

    /// Number of duplicate pairs in the gold standard.
    pub fn duplicate_pairs(&self) -> u64 {
        self.clusters
            .iter()
            .map(|c| crate::stats::pairs_in_cluster(c.records.len() as u64))
            .sum()
    }

    /// Number of clusters with at least two records.
    pub fn non_singletons(&self) -> usize {
        self.clusters.iter().filter(|c| c.records.len() >= 2).count()
    }

    /// Maximum cluster size.
    pub fn max_cluster_size(&self) -> usize {
        self.clusters.iter().map(|c| c.records.len()).max().unwrap_or(0)
    }

    /// Average cluster size.
    pub fn avg_cluster_size(&self) -> f64 {
        if self.clusters.is_empty() {
            0.0
        } else {
            self.record_count() as f64 / self.clusters.len() as f64
        }
    }

    /// Flatten into `(cluster_index, record)` pairs, e.g. as matcher
    /// input. The cluster index is the gold-standard label.
    pub fn labeled_records(&self) -> Vec<(usize, &Row)> {
        self.clusters
            .iter()
            .enumerate()
            .flat_map(|(i, c)| c.records.iter().map(move |r| (i, r)))
            .collect()
    }
}

/// Step 2b of the recipe for one cluster of `n` records: scan the
/// records in order and keep every record whose heterogeneity to all
/// previously *kept* records lies within the bounds (the first record is
/// always kept). `pair(i, j)`, `i < j`, scores records `i` and `j`;
/// returns the indices of the kept records.
fn reduce_cluster(
    n: usize,
    pair: impl Fn(usize, usize) -> f64,
    params: &CustomizeParams,
) -> Vec<usize> {
    let mut kept: Vec<usize> = Vec::new();
    for j in 0..n {
        let ok = kept.iter().all(|&i| {
            let h = pair(i, j);
            (params.h_low..=params.h_high).contains(&h)
        });
        if ok || kept.is_empty() {
            kept.push(j);
        }
    }
    kept
}

/// The recipe, written once over "`count` clusters in
/// [`ClusterStore::cluster_ids`] order, `ncid(c)`, `rows(c)`, and
/// `pair(c, i, j)`, the heterogeneity of records `i < j` of cluster
/// `c`": every public entry point is this function. Sampling shuffles
/// cluster *indices*, so the draw depends only on `count` and the seed;
/// rows are cloned only for the clusters that survive ranking.
fn carve<'a>(
    count: usize,
    ncid: impl Fn(usize) -> &'a str,
    rows: impl Fn(usize) -> &'a [Row],
    pair: impl Fn(usize, usize, usize) -> f64,
    params: &CustomizeParams,
) -> CustomDataset {
    assert!(params.h_low <= params.h_high, "invalid heterogeneity bounds");
    let mut rng = Rng::seed_from_u64(params.seed);

    // Step 2a: random sample of clusters.
    let mut order: Vec<usize> = (0..count).collect();
    rng.shuffle(&mut order);
    order.truncate(params.sample_clusters);

    // Step 2b: reduce every sampled cluster to records within the bounds.
    let mut reduced: Vec<(usize, Vec<usize>)> = order
        .iter()
        .map(|&c| {
            (
                c,
                reduce_cluster(rows(c).len(), |i, j| pair(c, i, j), params),
            )
        })
        .collect();
    let sampled = order.iter().map(|&c| ncid(c).to_owned()).collect();

    // Step 3: largest first (NCID breaks ties), keep the best.
    reduced
        .sort_by(|(a, ka), (b, kb)| kb.len().cmp(&ka.len()).then_with(|| ncid(*a).cmp(ncid(*b))));
    reduced.truncate(params.output_clusters);
    let clusters = reduced
        .into_iter()
        .map(|(c, kept)| {
            let rows = rows(c);
            CustomCluster {
                ncid: ncid(c).to_owned(),
                records: kept.into_iter().map(|k| rows[k].clone()).collect(),
            }
        })
        .collect();
    CustomDataset { clusters, sampled }
}

/// Run the customization recipe over a cluster store.
pub fn customize(
    store: &ClusterStore,
    scorer: &HeterogeneityScorer,
    params: &CustomizeParams,
) -> CustomDataset {
    let clusters: Vec<(&str, &[Row])> = store.iter_clusters().collect();
    carve(
        clusters.len(),
        |c| clusters[c].0,
        |c| clusters[c].1,
        |c, i, j| scorer.pair(&clusters[c].1[i], &clusters[c].1[j]),
        params,
    )
}

/// Run the customization recipe over pre-materialized clusters.
///
/// `clusters` must be in [`ClusterStore::cluster_ids`] order (which is
/// what [`crate::snapshot::StoreSnapshot`] captures); the result is
/// then **bit-identical** to `customize(store, ..)` — asserted by the
/// determinism tests (`crates/core/tests/customize_determinism.rs`).
pub fn customize_clusters(
    clusters: &[(String, Vec<Row>)],
    scorer: &HeterogeneityScorer,
    params: &CustomizeParams,
) -> CustomDataset {
    carve(
        clusters.len(),
        |c| clusters[c].0.as_str(),
        |c| &clusters[c].1,
        |c, i, j| scorer.pair(&clusters[c].1[i], &clusters[c].1[j]),
        params,
    )
}

/// [`customize_clusters`] reading every pair score from `table`, the
/// [`PairTable`] of `clusters`; bit-identical results. A table pays for
/// itself once a snapshot serves more than one carve.
///
/// # Panics
/// If `table` covers a different number of clusters.
pub fn customize_scored(
    clusters: &[(String, Vec<Row>)],
    table: &PairTable,
    params: &CustomizeParams,
) -> CustomDataset {
    assert_eq!(
        table.len(),
        clusters.len(),
        "a pair table of other clusters"
    );
    carve(
        clusters.len(),
        |c| clusters[c].0.as_str(),
        |c| &clusters[c].1,
        |c, i, j| table.pair(c, i, j),
        params,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heterogeneity::{AttributeWeights, Scope};
    use crate::record::DedupPolicy;
    use nc_votergen::schema::{FIRST_NAME, LAST_NAME, MIDL_NAME, NCID};

    fn store_with_clusters() -> ClusterStore {
        let mut store = ClusterStore::new();
        let mut import = |ncid: &str, first: &str, midl: &str, last: &str, snap: &str| {
            let mut r = Row::empty();
            r.set(NCID, ncid);
            r.set(FIRST_NAME, first);
            r.set(MIDL_NAME, midl);
            r.set(LAST_NAME, last);
            store.import_row(r, DedupPolicy::Trimmed, snap, 1);
        };
        // Homogeneous cluster (small typo).
        import("H1", "MARY", "ANN", "SMITH", "s1");
        import("H1", "MARY", "ANN", "SMYTH", "s2");
        import("H1", "MARY", "ANN", "SMITHE", "s3");
        // Very heterogeneous cluster (different person-like records).
        import("X1", "MARY", "ELIZABETH", "FIELDS", "s1");
        import("X1", "JOSHUA", "", "BETHEA", "s2");
        import("X1", "CARL", "RAY", "OXENDINE", "s3");
        // Singleton.
        import("S1", "PAT", "", "JONES", "s1");
        store
    }

    /// Entropy weights from one record per cluster, as the paper does —
    /// this concentrates weight on the varying (name) attributes instead
    /// of diluting it across the many empty ones.
    fn scorer_for(store: &ClusterStore) -> HeterogeneityScorer {
        let firsts = store.iter_clusters().map(|(_, rows)| &rows[0]);
        let weights = AttributeWeights::from_rows(Scope::Person, firsts);
        HeterogeneityScorer::new(weights)
    }

    #[test]
    fn low_band_keeps_homogeneous_cluster_intact() {
        let store = store_with_clusters();
        let params = CustomizeParams {
            h_low: 0.0,
            h_high: 0.2,
            sample_clusters: 10,
            output_clusters: 10,
            seed: 1,
        };
        let ds = customize(&store, &scorer_for(&store), &params);
        let h1 = ds.clusters.iter().find(|c| c.ncid == "H1").unwrap();
        assert_eq!(h1.records.len(), 3, "typo-level records stay in band");
        let x1 = ds.clusters.iter().find(|c| c.ncid == "X1").unwrap();
        assert!(x1.records.len() < 3, "heterogeneous records filtered");
    }

    #[test]
    fn high_band_prunes_homogeneous_cluster() {
        let store = store_with_clusters();
        let params = CustomizeParams {
            h_low: 0.3,
            h_high: 1.0,
            sample_clusters: 10,
            output_clusters: 10,
            seed: 1,
        };
        let ds = customize(&store, &scorer_for(&store), &params);
        let h1 = ds.clusters.iter().find(|c| c.ncid == "H1").unwrap();
        assert_eq!(h1.records.len(), 1, "only the first record survives");
    }

    #[test]
    fn output_is_sorted_by_size_and_truncated() {
        let store = store_with_clusters();
        let params = CustomizeParams {
            h_low: 0.0,
            h_high: 1.0,
            sample_clusters: 10,
            output_clusters: 2,
            seed: 2,
        };
        let ds = customize(&store, &scorer_for(&store), &params);
        assert_eq!(ds.clusters.len(), 2);
        assert!(ds.clusters[0].records.len() >= ds.clusters[1].records.len());
        // The singleton is the smallest and must be cut.
        assert!(ds.clusters.iter().all(|c| c.ncid != "S1"));
    }

    #[test]
    fn dataset_statistics() {
        let store = store_with_clusters();
        let params = CustomizeParams {
            h_low: 0.0,
            h_high: 1.0,
            sample_clusters: 10,
            output_clusters: 10,
            seed: 3,
        };
        let ds = customize(&store, &scorer_for(&store), &params);
        assert_eq!(ds.record_count(), 7);
        assert_eq!(ds.clusters.len(), 3);
        assert_eq!(ds.non_singletons(), 2);
        assert_eq!(ds.max_cluster_size(), 3);
        assert!((ds.avg_cluster_size() - 7.0 / 3.0).abs() < 1e-12);
        assert_eq!(ds.duplicate_pairs(), 3 + 3);
        assert_eq!(ds.labeled_records().len(), 7);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let store = store_with_clusters();
        let mk = |seed| {
            customize(
                &store,
                &scorer_for(&store),
                &CustomizeParams {
                    h_low: 0.0,
                    h_high: 1.0,
                    sample_clusters: 2,
                    output_clusters: 2,
                    seed,
                },
            )
        };
        let a: Vec<String> = mk(5).clusters.iter().map(|c| c.ncid.clone()).collect();
        let b: Vec<String> = mk(5).clusters.iter().map(|c| c.ncid.clone()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn customize_clusters_matches_store_path() {
        let store = store_with_clusters();
        let scorer = scorer_for(&store);
        let snapshot = crate::snapshot::StoreSnapshot::capture(&store, 1);
        let clusters = snapshot.clusters();
        for seed in [0, 1, 7] {
            let params = CustomizeParams {
                h_low: 0.0,
                h_high: 0.3,
                sample_clusters: 2,
                output_clusters: 2,
                seed,
            };
            let from_store = customize(&store, &scorer, &params);
            let from_slice = customize_clusters(clusters, &scorer, &params);
            assert_eq!(from_store.clusters.len(), from_slice.clusters.len());
            for (a, b) in from_store.clusters.iter().zip(&from_slice.clusters) {
                assert_eq!(a.ncid, b.ncid);
                let ta: Vec<String> = a.records.iter().map(Row::to_tsv).collect();
                let tb: Vec<String> = b.records.iter().map(Row::to_tsv).collect();
                assert_eq!(ta, tb);
            }
        }
    }

    #[test]
    fn preset_bounds() {
        assert_eq!(CustomizeParams::nc1(1, 1, 0).h_low, 0.06);
        assert_eq!(CustomizeParams::nc2(1, 1, 0).h_low, 0.2);
        assert_eq!(CustomizeParams::nc3(1, 1, 0).h_high, 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid heterogeneity bounds")]
    fn inverted_bounds_panic() {
        let store = store_with_clusters();
        let params = CustomizeParams {
            h_low: 0.5,
            h_high: 0.1,
            sample_clusters: 1,
            output_clusters: 1,
            seed: 0,
        };
        customize(&store, &scorer_for(&store), &params);
    }
}
