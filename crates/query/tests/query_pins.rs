//! Query plans and answers over a seeded world are pinned to the byte:
//! per seed, an MD5 over `plan_query(..).render_json()` of every query
//! below, and an MD5 over what `execute` returns for it — the explain,
//! the capture positions, the rendered documents and the matched set.
//! The list covers every catalog path, every filter shape (crossed range
//! bounds, an int operand on `het`, `ncid` by equality and by range) and
//! every stage kind, so a change to how the catalog stores, plans or
//! filters that moves one byte moves a digest.

use nc_core::cluster::ClusterStore;
use nc_core::heterogeneity::Scope;
use nc_core::import::import_snapshot;
use nc_core::md5::md5;
use nc_core::record::DedupPolicy;
use nc_core::snapshot::StoreSnapshot;
use nc_query::{execute, plan_query, CarveQuery, ClusterCatalog, ExecOptions};
use nc_votergen::config::{ErrorRates, GeneratorConfig};
use nc_votergen::registry::Registry;
use nc_votergen::schema::SNAPSHOT_DT;
use nc_votergen::snapshot::standard_calendar;

/// Per seed: the MD5 of the plans and the MD5 of the outcomes.
const PINS: [(u64, &str, &str); 2] = [
    (
        2021,
        "ef69a1d827900f4b6b81675e9acec3f9",
        "924e180d6992990b26320f3ea8ef4f44",
    ),
    (
        7,
        "c0ae6f91d7c5a1072bf15cd887b6b123",
        "8a069a8eb059da6f41e41e5e037de4c4",
    ),
];

/// Pipelines over `{ncid}` / `{ncid2}` (the NCIDs of the first and the
/// middle cluster) and `{date}` (the first record's snapshot date).
const QUERIES: &[&str] = &[
    r#"[{"match": {"ncid": "{ncid}"}}]"#,
    r#"[{"match": {"ncid": {"gte": "{ncid}", "lt": "{ncid2}"}}}, {"limit": 9}]"#,
    r#"[{"match": {"ncid": {"contains": "1"}}}, {"limit": 20}]"#,
    r#"[{"match": {"size": {"gte": 2}}}, {"sample": {"size": 25, "seed": 99}}]"#,
    r#"[{"match": {"size": {"gte": 3, "lte": 2}}}]"#,
    r#"[{"match": {"size": {"eq": 2, "gte": 1}, "ncid": {"gt": "{ncid}"}}}, {"count": true}]"#,
    r#"[{"match": {"size": {"gte": 2, "gt": 3}}}, {"skip": 1}]"#,
    r#"[{"match": {"het": {"gt": 0}}}, {"sort": {"by": "het", "descending": true}}, {"limit": 10}]"#,
    r#"[{"match": {"het": 0, "size": {"lte": 4}}}, {"sample": {"size": 6, "seed": 3}}]"#,
    r#"[{"match": {"plaus": {"lt": 0.9}, "size": {"ne": 1}}}]"#,
    r#"[{"match": {"snapshot.first": "{date}"}}, {"skip": 3}, {"limit": 7}]"#,
    r#"[{"match": {"snapshot.last": {"gte": "{date}"}, "errors.typo": {"gte": 1}}}, {"count": true}]"#,
    r#"[{"match": {"snapshot.last": {"gt": "{date}", "lt": "9999"}}}, {"sort": {"by": "snapshot.last"}}, {"limit": 5}]"#,
    r#"[{"match": {"errors.ocr": {"in": [1, 2]}}}, {"project": ["ncid", "errors.ocr", "size"]}]"#,
    r#"[{"match": {"errors.phonetic": {"exists": true}, "errors.abbrev": {"gt": 0}}}]"#,
    r#"[{"match": {"or": [{"errors.whitespace": {"gte": 1}}, {"errors.case": {"gte": 1}}]}}]"#,
    r#"[{"match": {"not": {"errors.outlier": 0}}}, {"sample": {"size": 2, "seed": 5, "by": "size"}}]"#,
    r#"[{"match": {"errors.missing": {"gte": 1}, "errors.other": {"lte": 3}, "errors.total": {"gt": 2}}}, {"group": {"by": "size", "agg": {"n": "count", "h": {"avg": "het"}}}}, {"sort": {"by": "n", "descending": true}}]"#,
    r#"[{"match": {"size": {"gte": 3}, "het": {"gte": 0.1}, "plaus": {"gte": 0.5}, "snapshot.first": {"lte": "{date}"}}}, {"match": {"errors.total": {"gte": 1}}}]"#,
    r#"[{"sample": {"size": 10, "seed": 1}}, {"match": {"size": {"gte": 2}}}]"#,
    r#"[{"match": {"size": {"gte": 2}}}, {"project": ["ncid", "size"]}, {"match": {"size": 3}}]"#,
    r#"[{"limit": 4}]"#,
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

/// The MD5 of the plans and of the outcomes of [`QUERIES`] on `seed`'s
/// world, and how many queries returned a non-empty result.
fn digests(seed: u64) -> (String, String, usize) {
    let snapshot = world(seed);
    let catalog = ClusterCatalog::build(&snapshot, &snapshot.entropy_scorer(Scope::Person));
    let clusters = snapshot.clusters();
    let (mut plans, mut outcomes, mut answered) = (String::new(), String::new(), 0);
    for query in QUERIES {
        let body = format!(r#"{{"pipeline": {query}}}"#)
            .replace("{ncid}", &clusters[0].0)
            .replace("{ncid2}", &clusters[clusters.len() / 2].0)
            .replace("{date}", clusters[0].1[0].get(SNAPSHOT_DT).trim());
        let query = CarveQuery::parse(body.as_bytes()).expect("pinned query parses");
        plans.push_str(&plan_query(&catalog, &query, ExecOptions::default()).render_json());
        plans.push('\n');
        let out = execute(&catalog, &query, ExecOptions::default());
        answered += usize::from(!out.docs.is_empty());
        outcomes.push_str(&out.explain.render_json());
        outcomes.push_str(&format!("\n{:?}\n{:?}\n", out.positions, out.matched));
        for doc in &out.docs {
            outcomes.push_str(&doc.to_json());
            outcomes.push('\n');
        }
    }
    (md5(plans.as_bytes()).to_hex(), md5(outcomes.as_bytes()).to_hex(), answered)
}

#[test]
fn query_plans_and_answers_are_pinned() {
    for (seed, plans, outcomes) in PINS {
        let (got_plans, got_outcomes, answered) = digests(seed);
        assert!(answered * 4 >= QUERIES.len() * 3, "{answered} queries answered");
        assert_eq!(got_plans, plans, "plans, seed {seed}");
        assert_eq!(got_outcomes, outcomes, "outcomes, seed {seed}");
    }
}
