//! Benchmarks of the plausibility and heterogeneity scorers (Figures
//! 4a/4b): per-pair and per-cluster cost.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use nc_core::heterogeneity::{AttributeWeights, HeterogeneityScorer, Scope};
use nc_core::pipeline::{GenerationConfig, TestDataGenerator};
use nc_core::plausibility::PlausibilityScorer;
use nc_core::record::DedupPolicy;
use nc_core::scoring::{map_clusters, ScoringConfig};
use nc_similarity::Scratch;
use nc_votergen::config::GeneratorConfig;
use nc_votergen::schema::Row;

fn sample_clusters() -> Vec<Vec<Row>> {
    let outcome = TestDataGenerator::run(GenerationConfig {
        generator: GeneratorConfig {
            seed: 4,
            initial_population: 300,
            ..Default::default()
        },
        policy: DedupPolicy::Trimmed,
        snapshots: 10,
    });
    outcome
        .store
        .iter_clusters()
        .filter(|(_, rows)| rows.len() >= 2)
        .take(100)
        .map(|(_, rows)| rows.to_vec())
        .collect()
}

fn bench_plausibility(c: &mut Criterion) {
    let clusters = sample_clusters();
    let scorer = PlausibilityScorer::new();
    let mut group = c.benchmark_group("plausibility");
    group.sample_size(20);
    group.bench_function("pair", |b| {
        let (a, x) = (&clusters[0][0], &clusters[0][1]);
        b.iter(|| black_box(scorer.pair(black_box(a), black_box(x))))
    });
    group.bench_function("100_clusters", |b| {
        b.iter(|| {
            let total: f64 = clusters.iter().map(|rows| scorer.cluster(rows)).sum();
            black_box(total)
        })
    });
    group.finish();
}

fn bench_heterogeneity(c: &mut Criterion) {
    let clusters = sample_clusters();
    let firsts: Vec<Row> = clusters.iter().map(|rows| rows[0].clone()).collect();
    let mut group = c.benchmark_group("heterogeneity");
    group.sample_size(10);

    group.bench_function("entropy_weights", |b| {
        b.iter(|| black_box(AttributeWeights::from_rows(Scope::Person, black_box(&firsts))))
    });

    let scorer =
        HeterogeneityScorer::new(AttributeWeights::from_rows(Scope::Person, firsts.iter()));
    group.bench_function("pair_person_scope", |b| {
        let (a, x) = (&clusters[0][0], &clusters[0][1]);
        b.iter(|| black_box(scorer.pair(black_box(a), black_box(x))))
    });

    let scorer_all =
        HeterogeneityScorer::new(AttributeWeights::from_rows(Scope::All, firsts.iter()));
    group.bench_function("pair_all_scope", |b| {
        let (a, x) = (&clusters[0][0], &clusters[0][1]);
        b.iter(|| black_box(scorer_all.pair(black_box(a), black_box(x))))
    });

    group.bench_function("100_clusters_person_scope", |b| {
        b.iter(|| {
            let total: f64 = clusters.iter().map(|rows| scorer.cluster(rows)).sum();
            black_box(total)
        })
    });
    group.finish();
}

/// Scratch reuse vs per-call scratch: the same pair scored through an
/// explicit reused [`Scratch`] (the worker-pool path), the thread-local
/// scratch behind the classic `pair` API, and a fresh scratch per call
/// (the old allocation behavior).
fn bench_scratch_vs_alloc(c: &mut Criterion) {
    let clusters = sample_clusters();
    let firsts: Vec<Row> = clusters.iter().map(|rows| rows[0].clone()).collect();
    let scorer =
        HeterogeneityScorer::new(AttributeWeights::from_rows(Scope::Person, firsts.iter()));
    let (a, x) = (&clusters[0][0], &clusters[0][1]);
    let mut group = c.benchmark_group("scratch_vs_alloc");
    group.sample_size(20);
    group.bench_function("pair_reused_scratch", |b| {
        let mut scratch = Scratch::new();
        let (va, vx) = (scorer.view(a), scorer.view(x));
        b.iter(|| black_box(scorer.pair_with(&mut scratch, black_box(&va), black_box(&vx))))
    });
    group.bench_function("pair_thread_local_scratch", |b| {
        b.iter(|| black_box(scorer.pair(black_box(a), black_box(x))))
    });
    group.bench_function("pair_fresh_scratch_per_call", |b| {
        b.iter(|| {
            let mut scratch = Scratch::new();
            let (va, vx) = (scorer.view(a), scorer.view(x));
            black_box(scorer.pair_with(&mut scratch, black_box(&va), black_box(&vx)))
        })
    });
    group.finish();
}

/// Sequential vs parallel cluster scoring over the full sample.
fn bench_sequential_vs_parallel(c: &mut Criterion) {
    let clusters = sample_clusters();
    let firsts: Vec<Row> = clusters.iter().map(|rows| rows[0].clone()).collect();
    let plaus = PlausibilityScorer::new();
    let het = HeterogeneityScorer::new(AttributeWeights::from_rows(Scope::Person, firsts.iter()));
    let score = |scratch: &mut Scratch, rows: &Vec<Row>| {
        (het.cluster_with(scratch, rows), plaus.cluster_with(scratch, rows))
    };
    let mut group = c.benchmark_group("sequential_vs_parallel");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 0] {
        let label = if threads == 0 {
            "all_hardware_threads".to_owned()
        } else {
            format!("{threads}_threads")
        };
        let cfg = ScoringConfig::with_threads(threads);
        group.bench_function(label, |b| {
            b.iter(|| black_box(map_clusters(&cfg, black_box(&clusters), score)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_plausibility,
    bench_heterogeneity,
    bench_scratch_vs_alloc,
    bench_sequential_vs_parallel
);
criterion_main!(benches);
