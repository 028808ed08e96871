//! Deterministic parallel cluster scoring.
//!
//! The paper precalculates a plausibility and heterogeneity score for
//! every duplicate cluster (Section 6.2–6.3) — embarrassingly parallel
//! work, since each cluster is scored in isolation. This module shards
//! the cluster list over a scoped worker pool: each worker owns one
//! [`Scratch`] (so the similarity kernels allocate nothing per pair)
//! and scores a contiguous shard; the shard results are concatenated in
//! shard order. Because every score is computed with exactly the same
//! arithmetic as the sequential path and the output order is the input
//! order, the parallel result is **bit-identical** to `threads = 1`.

use std::collections::HashSet;

use nc_similarity::Scratch;
use nc_votergen::schema::Row;

use crate::cluster::ClusterStore;
use crate::heterogeneity::HeterogeneityScorer;
use crate::plausibility::PlausibilityScorer;

/// Worker-pool configuration for cluster scoring.
///
/// The default is the `threads: 0` sentinel: "one worker per available
/// hardware thread", resolved lazily by [`ScoringConfig::effective_threads`]
/// via [`std::thread::available_parallelism`]. On a single-core
/// container the pool therefore degrades to the inline sequential path
/// automatically (the `BENCH_scoring` 0.94x case) instead of paying
/// pool overhead for one worker. Keeping the sentinel in the field —
/// rather than eagerly storing the resolved count — means
/// `default() == with_threads(0)` under `PartialEq` and a defaulted
/// config is machine-independent when compared or persisted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScoringConfig {
    /// Worker threads; `0` means one per available hardware thread.
    pub threads: usize,
}

impl ScoringConfig {
    /// A configuration with an explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        ScoringConfig { threads }
    }

    /// The number of workers that will actually run: `threads`, or the
    /// hardware parallelism when `threads` is `0`.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.threads
        }
    }
}

/// Map `f` over `clusters` with a pool of `config` workers, each owning
/// its own [`Scratch`]. Results come back in input order regardless of
/// the worker count, and `f` must be a pure function of its cluster (it
/// may use the scratch freely — the scratch only changes where working
/// memory lives), so the output is bit-identical for every thread
/// count, including the inline `threads = 1` path.
pub fn map_clusters<C, T, F>(config: &ScoringConfig, clusters: &[C], f: F) -> Vec<T>
where
    C: Sync,
    T: Send,
    F: Fn(&mut Scratch, &C) -> T + Sync,
{
    let threads = config.effective_threads().min(clusters.len()).max(1);
    if threads <= 1 {
        let mut scratch = Scratch::new();
        return clusters.iter().map(|c| f(&mut scratch, c)).collect();
    }
    // Contiguous shards keep the output a plain concatenation; ceil
    // division so at most `threads` shards exist.
    let shard_len = clusters.len().div_ceil(threads);
    let mut out = Vec::with_capacity(clusters.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = clusters
            .chunks(shard_len)
            .map(|shard| {
                let f = &f;
                scope.spawn(move || {
                    let mut scratch = Scratch::new();
                    shard.iter().map(|c| f(&mut scratch, c)).collect::<Vec<T>>()
                })
            })
            .collect();
        for handle in handles {
            out.extend(handle.join().expect("scoring worker panicked"));
        }
    });
    out
}

/// The precalculated scores of one cluster (the per-cluster statistics
/// of Section 6).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterScore {
    /// The cluster's NCID.
    pub ncid: String,
    /// Records in the cluster.
    pub records: usize,
    /// Cluster plausibility (minimum record score; 1 for singletons).
    pub plausibility: f64,
    /// Cluster heterogeneity (mean record score; 0 for singletons).
    pub heterogeneity: f64,
}

/// Score every cluster of a store, sharded over `config` workers.
///
/// Clusters are scored in [`ClusterStore::cluster_ids`] order; the
/// result is bit-identical for every thread count.
pub fn score_store(
    store: &ClusterStore,
    plausibility: &PlausibilityScorer,
    heterogeneity: &HeterogeneityScorer,
    config: &ScoringConfig,
) -> Vec<ClusterScore> {
    let clusters: Vec<(&str, &[Row])> = store.iter_clusters().collect();
    map_clusters(config, &clusters, |scratch, &(ncid, rows)| {
        score(scratch, ncid, rows, plausibility, heterogeneity)
    })
}

/// One cluster's scores: the kernel every entry point below maps.
fn score(
    scratch: &mut Scratch,
    ncid: &str,
    rows: &[Row],
    plausibility: &PlausibilityScorer,
    heterogeneity: &HeterogeneityScorer,
) -> ClusterScore {
    ClusterScore {
        ncid: ncid.to_owned(),
        records: rows.len(),
        plausibility: plausibility.cluster_with(scratch, rows),
        heterogeneity: heterogeneity.cluster_with(scratch, rows),
    }
}

/// Score pre-materialized clusters, sharded over `config` workers.
///
/// The result is in input order and bit-identical for every thread
/// count — [`score_store`] maps the same kernel, and sharded stores
/// (`nc-shard`) score their merged cluster lists through this path,
/// which is what makes sharded and unsharded scoring byte-comparable.
pub fn score_clusters(
    clusters: &[(String, Vec<Row>)],
    plausibility: &PlausibilityScorer,
    heterogeneity: &HeterogeneityScorer,
    config: &ScoringConfig,
) -> Vec<ClusterScore> {
    map_clusters(config, clusters, |scratch, (ncid, rows)| {
        score(scratch, ncid, rows, plausibility, heterogeneity)
    })
}

/// Re-score only the clusters named in `dirty`, splicing everything
/// else from `previous` — the incremental half of the change-stream
/// pipeline.
///
/// `previous` must be the score vector of an earlier version of the
/// same cluster list (cluster order only ever appends: new clusters
/// found at version k+1 sort after every cluster of version k by
/// founding sequence). A position is *reused* from `previous` when all
/// of these hold, and re-scored otherwise:
///
/// * the position exists in `previous` with the same NCID (appended
///   clusters always re-score),
/// * its NCID is not in `dirty`,
/// * its record count is unchanged (a defensive check: rows only ever
///   append, so a grown cluster is always dirty — but an
///   under-approximated dirty set must not silently ship stale
///   scores).
///
/// Because per-cluster scoring is a pure function of the cluster's
/// rows, the spliced output is **bit-identical** to a full
/// [`score_clusters`] pass whenever `dirty` covers every changed
/// cluster (property-tested against random churn in `nc-stream`).
/// NCIDs in both `dirty` and the cluster list are the store's trimmed
/// keys; no further normalization is applied.
pub fn score_clusters_incremental(
    clusters: &[(String, Vec<Row>)],
    previous: &[ClusterScore],
    dirty: &HashSet<String>,
    plausibility: &PlausibilityScorer,
    heterogeneity: &HeterogeneityScorer,
    config: &ScoringConfig,
) -> Vec<ClusterScore> {
    let reusable = |i: usize, ncid: &str, rows: &[Row]| {
        previous
            .get(i)
            .is_some_and(|p| p.ncid == ncid && p.records == rows.len() && !dirty.contains(ncid))
    };
    let stale: Vec<&(String, Vec<Row>)> = clusters
        .iter()
        .enumerate()
        .filter(|(i, (ncid, rows))| !reusable(*i, ncid, rows))
        .map(|(_, c)| c)
        .collect();
    // Score through the same map_clusters kernel path as
    // score_clusters, over borrowed clusters (no row clones).
    let mut rescored = map_clusters(config, &stale, |scratch, (ncid, rows)| {
        score(scratch, ncid, rows, plausibility, heterogeneity)
    })
    .into_iter();
    let spliced: Vec<ClusterScore> = clusters
        .iter()
        .enumerate()
        .map(|(i, (ncid, rows))| {
            if reusable(i, ncid, rows) {
                previous[i].clone()
            } else {
                rescored.next().expect("one rescored entry per stale cluster")
            }
        })
        .collect();
    debug_assert!(rescored.next().is_none());
    spliced
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heterogeneity::{AttributeWeights, Scope};
    use crate::record::DedupPolicy;
    use crate::snapshot::StoreSnapshot;
    use nc_votergen::schema::{FIRST_NAME, LAST_NAME, MIDL_NAME, NCID};

    fn store() -> ClusterStore {
        let mut store = ClusterStore::new();
        let mut import = |ncid: &str, first: &str, midl: &str, last: &str, snap: &str| {
            let mut r = Row::empty();
            r.set(NCID, ncid);
            r.set(FIRST_NAME, first);
            r.set(MIDL_NAME, midl);
            r.set(LAST_NAME, last);
            store.import_row(r, DedupPolicy::Trimmed, snap, 1);
        };
        for i in 0..17 {
            let ncid = format!("C{i}");
            import(&ncid, "MARY", "ANN", &format!("SMITH{i}"), "s1");
            if i % 3 != 0 {
                import(&ncid, "MARY", "A.", &format!("SMYTH{i}"), "s2");
            }
            if i % 4 == 0 {
                import(&ncid, "JO", "", &format!("BLOGGS{i}"), "s3");
            }
        }
        store
    }

    fn scorers() -> (PlausibilityScorer, HeterogeneityScorer) {
        (
            PlausibilityScorer::new(),
            HeterogeneityScorer::new(AttributeWeights::uniform(Scope::Person)),
        )
    }

    #[test]
    fn parallel_scores_are_bit_identical_to_sequential() {
        let store = store();
        let (plaus, het) = scorers();
        let seq = score_store(&store, &plaus, &het, &ScoringConfig::with_threads(1));
        for threads in [2, 3, 8, 64] {
            let par = score_store(&store, &plaus, &het, &ScoringConfig::with_threads(threads));
            assert_eq!(seq.len(), par.len());
            for (s, p) in seq.iter().zip(&par) {
                assert_eq!(s.ncid, p.ncid, "order must be preserved");
                assert_eq!(s.records, p.records);
                assert_eq!(s.plausibility.to_bits(), p.plausibility.to_bits());
                assert_eq!(s.heterogeneity.to_bits(), p.heterogeneity.to_bits());
            }
        }
    }

    #[test]
    fn scores_match_direct_scorer_calls() {
        let store = store();
        let (plaus, het) = scorers();
        let scores = score_store(&store, &plaus, &het, &ScoringConfig::default());
        assert_eq!(scores.len(), store.cluster_count());
        for score in &scores {
            let rows = store.cluster_rows(&score.ncid);
            assert_eq!(score.records, rows.len());
            assert_eq!(score.plausibility.to_bits(), plaus.cluster(rows).to_bits());
            assert_eq!(score.heterogeneity.to_bits(), het.cluster(rows).to_bits());
        }
    }

    #[test]
    fn map_clusters_handles_edge_shapes() {
        let cfg = ScoringConfig::with_threads(4);
        let empty: Vec<u32> = Vec::new();
        assert!(map_clusters(&cfg, &empty, |_, &x: &u32| x).is_empty());
        // Fewer clusters than workers.
        let two = vec![10u32, 20];
        assert_eq!(map_clusters(&cfg, &two, |_, &x| x * 2), vec![20, 40]);
        // More clusters than workers, order preserved.
        let many: Vec<u32> = (0..100).collect();
        let doubled = map_clusters(&cfg, &many, |_, &x| x * 2);
        assert_eq!(doubled, many.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn effective_threads_resolves_zero() {
        assert!(ScoringConfig::default().effective_threads() >= 1);
        assert_eq!(ScoringConfig::with_threads(3).effective_threads(), 3);
    }

    #[test]
    fn default_is_lazy_auto_sentinel() {
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cfg = ScoringConfig::default();
        assert_eq!(cfg, ScoringConfig::with_threads(0), "default stays machine-independent");
        assert_eq!(cfg.effective_threads(), hw, "sentinel resolves to hardware parallelism");
    }

    fn assert_bits_equal(a: &[ClusterScore], b: &[ClusterScore]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.ncid, y.ncid);
            assert_eq!(x.records, y.records);
            assert_eq!(x.plausibility.to_bits(), y.plausibility.to_bits());
            assert_eq!(x.heterogeneity.to_bits(), y.heterogeneity.to_bits());
        }
    }

    #[test]
    fn incremental_scores_splice_bit_identically() {
        let mut store = store();
        let (plaus, het) = scorers();
        let cfg = ScoringConfig::with_threads(1);
        let before = score_store(&store, &plaus, &het, &cfg);

        // Churn: revise two existing clusters, found one new one.
        let mut import = |ncid: &str, last: &str| {
            let mut r = Row::empty();
            r.set(NCID, ncid);
            r.set(FIRST_NAME, "NEW");
            r.set(LAST_NAME, last);
            store.import_row(r, DedupPolicy::Trimmed, "s4", 2);
        };
        import("C3", "CHANGED3");
        import("C11", "CHANGED11");
        import("C99", "FOUNDED");
        let dirty: HashSet<String> = ["C3".to_owned(), "C11".to_owned(), "C99".to_owned()].into();

        let full = score_store(&store, &plaus, &het, &cfg);
        let clusters = StoreSnapshot::capture(&store, 2);
        let clusters = clusters.clusters();
        let inc = score_clusters_incremental(clusters, &before, &dirty, &plaus, &het, &cfg);
        assert_bits_equal(&full, &inc);

        // An empty dirty set over an unchanged store reuses everything.
        let clean = score_clusters_incremental(clusters, &full, &HashSet::new(), &plaus, &het, &cfg);
        assert_bits_equal(&full, &clean);

        // The defensive record-count check catches an under-approximated
        // dirty set.
        let stale_guard =
            score_clusters_incremental(clusters, &before, &HashSet::new(), &plaus, &het, &cfg);
        assert_bits_equal(&full, &stale_guard);
    }
}
