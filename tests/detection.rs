//! Detection-pipeline tests across datasets (Section 6.5).

use nc_suite::bridge;
use nc_suite::core::customize::{customize, CustomizeParams};
use nc_suite::core::heterogeneity::{AttributeWeights, HeterogeneityScorer, Scope};
use nc_suite::core::md5::md5;
use nc_suite::core::pipeline::{GenerationConfig, TestDataGenerator};
use nc_suite::core::record::DedupPolicy;
use nc_suite::datasets::{cddb, census, cora};
use nc_suite::detect::blocking::{blocking_quality, FullPairwise, SortedNeighborhood};
use nc_suite::detect::classify::classify;
use nc_suite::detect::dataset::Dataset;
use nc_suite::detect::eval::{best_f1, linspace, score_candidates_streaming, threshold_sweep};
use nc_suite::detect::matcher::{MeasureKind, RecordMatcher};
use nc_suite::similarity::assignment::{
    max_weight_assignment, max_weight_assignment_with, AssignScratch,
};

fn best_f1_for(data: &Dataset, kind: MeasureKind, name_group: Vec<usize>) -> f64 {
    let blocker = SortedNeighborhood::multi_pass(data.top_entropy_attrs(5.min(data.num_attrs())));
    let matcher = RecordMatcher::with_kind(kind, data.entropy_weights(), name_group);
    let scored = score_candidates_streaming(data, &blocker, &matcher);
    let gold = data.gold_pairs();
    let sweep = threshold_sweep(&scored, &gold, &linspace(0.3, 0.98, 35));
    best_f1(&sweep).map(|p| p.prf.f1).unwrap_or(0.0)
}

/// `generate(seed)` of each comparator is pinned to the byte: cluster
/// label and values of every record, in order. Recorded at the commit
/// before the generators moved from the `rand` stand-in to
/// `nc_votergen::rng` (and onto votergen's `typo`).
#[test]
fn comparator_datasets_are_pinned() {
    let digest = |data: &Dataset| {
        let mut text = String::new();
        for record in &data.records {
            text.push_str(&record.cluster.to_string());
            for value in &record.values {
                text.push('\t');
                text.push_str(value);
            }
            text.push('\n');
        }
        md5(text.as_bytes()).to_hex()
    };
    assert_eq!(digest(&cora::generate(1)), "d626e3a06fcadf0880651baaf54d0d64");
    assert_eq!(digest(&census::generate(1)), "8412fe1251ae9425f3111d7501a84b2e");
    assert_eq!(digest(&cddb::generate(1)), "684c302b16c5ce93e0ce4559eb4a4186");
}

/// The Census-like comparator is dominated by single typos — every
/// measure should reach a solid F1 (the paper's Figure 5e tops out
/// around 0.8).
#[test]
fn census_detection_reaches_solid_f1() {
    let data = census::generate(1);
    for kind in MeasureKind::ALL {
        let f1 = best_f1_for(&data, kind, vec![]);
        assert!(f1 > 0.55, "{kind:?}: F1 {f1}");
    }
}

/// CDDB: almost all singletons; precision is the challenge. The sweep
/// must still find a threshold with a reasonable F1 (Figure 5f).
#[test]
fn cddb_detection_works_despite_singletons() {
    let data = cddb::generate(1);
    let f1 = best_f1_for(&data, MeasureKind::TrigramJaccard, vec![]);
    assert!(f1 > 0.4, "F1 {f1}");
}

/// Figure 5a–c: detection quality degrades from NC1 (clean) to NC3
/// (dirty).
#[test]
fn nc_bands_order_detection_quality() {
    let outcome = TestDataGenerator::run(GenerationConfig {
        generator: nc_suite::votergen::config::GeneratorConfig {
            seed: 21,
            initial_population: 900,
            ..Default::default()
        },
        policy: DedupPolicy::Trimmed,
        snapshots: 14,
    });
    let firsts = outcome.store.iter_clusters().map(|(_, rows)| &rows[0]);
    let weights = AttributeWeights::from_rows(Scope::Person, firsts);
    let scorer = HeterogeneityScorer::new(weights);
    let attrs = Scope::Person.attrs();

    let mut results = Vec::new();
    for params in [
        CustomizeParams::nc1(700, 150, 2),
        CustomizeParams::nc3(700, 150, 2),
    ] {
        let ds = customize(&outcome.store, &scorer, &params);
        let data = bridge::dataset_from_custom(&ds, attrs);
        let group = bridge::name_group_positions(attrs);
        let pairs = data.gold_pairs().len();
        results.push((best_f1_for(&data, MeasureKind::JaroWinkler, group), pairs));
    }
    let (nc1_f1, _) = results[0];
    let (nc3_f1, nc3_pairs) = results[1];
    assert!(nc1_f1 > 0.8, "NC1 should be nearly clean: {nc1_f1}");
    assert!(
        nc1_f1 >= nc3_f1 - 1e-9,
        "NC1 must not be harder than NC3: {nc1_f1} vs {nc3_f1}"
    );
    // At this archive scale the 0.4–1.0 band can be nearly empty, in
    // which case NC3 is trivially easy; the strict ordering of Figure 5
    // only applies once the band contains a meaningful pair population.
    if nc3_pairs >= 100 {
        assert!(nc1_f1 > nc3_f1, "NC1 must beat a populated NC3: {results:?}");
    }
}

/// The paper verified that multi-pass SNM with window 20 lost no true
/// duplicates on its customized data; verify the same on the Census
/// comparator, plus the reduction-ratio advantage.
#[test]
fn snm_keeps_recall_and_reduces_pairs() {
    let data = census::generate(2);
    let snm = SortedNeighborhood::multi_pass(data.top_entropy_attrs(5));
    let quality = blocking_quality(&data, &snm);
    assert!(
        quality.pair_completeness > 0.97,
        "completeness {}",
        quality.pair_completeness
    );
    assert!(quality.reduction_ratio > 0.5, "reduction {}", quality.reduction_ratio);

    let full = blocking_quality(&data, &FullPairwise);
    assert!(quality.candidates < full.candidates);
}

/// Blocking ablation: growing the SNM window can only help recall and
/// hurt reduction.
#[test]
fn snm_window_tradeoff() {
    let data = census::generate(3);
    let keys = data.top_entropy_attrs(3);
    let mut prev_candidates = 0usize;
    let mut prev_completeness = 0.0f64;
    for window in [3, 10, 30] {
        let snm = SortedNeighborhood { keys: keys.clone(), window };
        let q = blocking_quality(&data, &snm);
        assert!(q.candidates >= prev_candidates);
        assert!(q.pair_completeness >= prev_completeness - 1e-12);
        prev_candidates = q.candidates;
        prev_completeness = q.pair_completeness;
    }
}

/// The 1:1 name matching should not hurt on data without confusions
/// and must help on data with them.
#[test]
fn name_group_matching_helps_on_confused_names() {
    // Build a tiny dataset with systematic first/last confusion.
    let mut data = Dataset::new(vec!["first".into(), "midl".into(), "last".into()]);
    let names = [
        ("DEBRA", "OEHRIE", "WILLIAMS"),
        ("MARTHA", "LEE", "JOHNSON"),
        ("CARL", "RAY", "OXENDINE"),
        ("JUANITA", "MAE", "LOCKLEAR"),
        ("GEOFFREY", "ALAN", "HINTON"),
        ("ROSS", "D", "QUINLAN"),
    ];
    for (i, (f, m, l)) in names.iter().enumerate() {
        data.push(vec![(*f).into(), (*m).into(), (*l).into()], i);
        // The duplicate has first/last swapped.
        data.push(vec![(*l).into(), (*m).into(), (*f).into()], i);
    }
    let gold = data.gold_pairs();

    let with_group = RecordMatcher::with_kind(
        MeasureKind::JaroWinkler,
        vec![1.0; 3],
        vec![0, 1, 2],
    );
    let without = RecordMatcher::with_kind(MeasureKind::JaroWinkler, vec![1.0; 3], vec![]);

    let scored_g = score_candidates_streaming(&data, &FullPairwise, &with_group);
    let scored_p = score_candidates_streaming(&data, &FullPairwise, &without);
    let f1_g = best_f1(&threshold_sweep(&scored_g, &gold, &linspace(0.3, 0.99, 30)))
        .unwrap()
        .prf
        .f1;
    let f1_p = best_f1(&threshold_sweep(&scored_p, &gold, &linspace(0.3, 0.99, 30)))
        .unwrap()
        .prf
        .f1;
    assert!(f1_g > f1_p, "group {f1_g} vs plain {f1_p}");
    assert!((f1_g - 1.0).abs() < 1e-9, "group matching should be perfect here");
}

/// Detection over the NC2 carve of the fixture above is pinned to the
/// bit: every scored pair with its score (`f64::to_bits`, in output
/// order) and the pair set predicted at threshold 0.8, under each
/// measure with the 1:1 name group. Recorded at the commit before the
/// matcher began scoring interned values through a memo; a failing pin
/// means a score or the order moved — fix the code, do not re-record.
#[test]
fn nc2_detection_is_pinned() {
    let outcome = TestDataGenerator::run(GenerationConfig {
        generator: nc_suite::votergen::config::GeneratorConfig {
            seed: 21,
            initial_population: 900,
            ..Default::default()
        },
        policy: DedupPolicy::Trimmed,
        snapshots: 14,
    });
    let firsts = outcome.store.iter_clusters().map(|(_, rows)| &rows[0]);
    let scorer = HeterogeneityScorer::new(AttributeWeights::from_rows(Scope::Person, firsts));
    let attrs = Scope::Person.attrs();
    let carve = customize(&outcome.store, &scorer, &CustomizeParams::nc2(700, 150, 2));
    let data = bridge::dataset_from_custom(&carve, attrs);
    let blocker = SortedNeighborhood::multi_pass(data.top_entropy_attrs(5));

    let pins = [
        (
            MeasureKind::MongeElkanLevenshtein,
            "e823fc203e2f3954d0dcda9a63fb8394",
            "e4463bcbf2677f73346184281a282676",
        ),
        (
            MeasureKind::JaroWinkler,
            "20c5e387c0f0d7d56b010d76477f3007",
            "3b6c89daa0d30070b535e90a90b54ece",
        ),
        (
            MeasureKind::TrigramJaccard,
            "a29c45634382ba0761c87d21144684f4",
            "35bf5fc0fb73feee81098f50dda11169",
        ),
    ];
    for (kind, scores_pin, predicted_pin) in pins {
        let matcher = RecordMatcher::with_kind(
            kind,
            data.entropy_weights(),
            bridge::name_group_positions(attrs),
        );
        let scored = score_candidates_streaming(&data, &blocker, &matcher);
        assert!(scored.len() > data.len(), "{kind:?}: {} pairs", scored.len());
        let mut bytes = Vec::with_capacity(scored.len() * 24);
        for s in &scored {
            bytes.extend_from_slice(&(s.pair.0 as u64).to_le_bytes());
            bytes.extend_from_slice(&(s.pair.1 as u64).to_le_bytes());
            bytes.extend_from_slice(&s.score.to_bits().to_le_bytes());
        }
        assert_eq!(md5(&bytes).to_hex(), scores_pin, "{kind:?} scores");

        let mut predicted: Vec<_> = classify(&scored, 0.8).into_iter().collect();
        predicted.sort_unstable();
        assert!(!predicted.is_empty(), "{kind:?} predicts nothing");
        let mut bytes = Vec::with_capacity(predicted.len() * 16);
        for pair in &predicted {
            bytes.extend_from_slice(&(pair.0 as u64).to_le_bytes());
            bytes.extend_from_slice(&(pair.1 as u64).to_le_bytes());
        }
        assert_eq!(md5(&bytes).to_hex(), predicted_pin, "{kind:?} predicted pairs");
    }
}

/// Detection over the Cora comparator is pinned to the bit: every
/// scored pair with its score (`f64::to_bits`, in output order) under
/// Jaro–Winkler and multi-pass SNM. Cora's titles and author lists run
/// past 64 bytes, so this pin covers the kernel's long-value path as
/// well as the short one (the NC2 pin above has no value over 64
/// bytes). Recorded before Jaro gained its word-parallel path.
#[test]
fn cora_detection_is_pinned_across_the_64_byte_boundary() {
    let data = cora::generate(1);
    let long: Vec<usize> = data
        .records
        .iter()
        .flat_map(|r| r.values.iter().map(|v| v.trim().len()))
        .filter(|&n| n > 64)
        .collect();
    assert_eq!(long.len(), 366, "values over 64 bytes");
    assert_eq!(long.iter().max(), Some(&89));

    let blocker = SortedNeighborhood::multi_pass(data.top_entropy_attrs(5));
    let matcher = RecordMatcher::with_kind(MeasureKind::JaroWinkler, data.entropy_weights(), vec![]);
    let scored = score_candidates_streaming(&data, &blocker, &matcher);
    let mut bytes = Vec::with_capacity(scored.len() * 24);
    for s in &scored {
        bytes.extend_from_slice(&(s.pair.0 as u64).to_le_bytes());
        bytes.extend_from_slice(&(s.pair.1 as u64).to_le_bytes());
        bytes.extend_from_slice(&s.score.to_bits().to_le_bytes());
    }
    assert_eq!(md5(&bytes).to_hex(), "27457068f95923f6289f811285da46b9", "{} pairs", scored.len());
}

/// The name-group assignment is pinned on the matrices where the
/// Hungarian algorithm's tie-breaking shows: all 3^9 = 19 683 3×3
/// matrices with entries in {0, ½, 1}, each digested as its chosen
/// pairs and the total's bits. Recorded before the assignment moved to
/// stack storage for small matrices; a failing pin means an operation
/// order moved.
#[test]
fn name_group_assignment_is_pinned_on_tie_heavy_matrices() {
    let mut scratch = AssignScratch::default();
    let mut bytes = Vec::new();
    let mut weights = [0.0; 9];
    for code in 0..3usize.pow(9) {
        let mut rest = code;
        for w in &mut weights {
            *w = (rest % 3) as f64 / 2.0;
            rest /= 3;
        }
        let total = max_weight_assignment_with(&mut scratch, &weights, 3, 3);
        let rows: Vec<Vec<f64>> = weights.chunks(3).map(<[f64]>::to_vec).collect();
        let owned = max_weight_assignment(&rows);
        assert_eq!(owned.pairs, scratch.pairs(), "matrix {code}");
        assert_eq!(owned.total.to_bits(), total.to_bits(), "matrix {code}");
        for &(i, j) in scratch.pairs() {
            bytes.push(i as u8);
            bytes.push(j as u8);
        }
        bytes.extend_from_slice(&total.to_bits().to_le_bytes());
    }
    assert_eq!(md5(&bytes).to_hex(), "66629597065e26c38e66dee65534a16e");
}
