//! Equivalence properties for the query planner and executor.
//!
//! The planner is only allowed to change *how rows are sourced* — never
//! what comes out. These properties pin that down over random catalogs
//! and random pipelines:
//!
//! * indexed execution is byte-identical to a forced full scan;
//! * planned execution is byte-identical to the naive reference
//!   (`Pipeline::run_docs` over every cluster doc);
//! * the same `(seed, query, version)` replays the same sampled carve
//!   from a freshly rebuilt catalog — including when the snapshot was
//!   published by a sharded store instead of the sequential one.

use nc_core::heterogeneity::Scope;
use nc_core::snapshot::StoreSnapshot;
use nc_propcheck::{check, check_n, Gen};
use nc_query::{execute, execute_naive, CarveQuery, ClusterCatalog, ExecOptions};
use nc_votergen::schema::{Row, FIRST_NAME, LAST_NAME, NCID, SNAPSHOT_DT};

const FIRSTS: [&str; 4] = ["ANNA", "BRUNO", "CLARA", "DILIP"];
const LASTS: [&str; 4] = ["SMITH", "SMYTH", "NGUYEN", "OKAFOR"];
const DATES: [&str; 3] = ["2019-03-02", "2020-01-01", "2021-07-15"];

fn row(ncid: &str, first: &str, last: &str, snap: &str) -> Row {
    let mut r = Row::empty();
    r.set(NCID, ncid);
    r.set(FIRST_NAME, first);
    r.set(LAST_NAME, last);
    r.set(SNAPSHOT_DT, snap);
    r
}

/// One cluster's shape, drawn per case: how many extra records it
/// holds beyond the founding one, and which name/date variants seed it.
#[derive(Debug, Clone)]
struct ClusterSpec {
    extra: usize,
    name: usize,
    date: usize,
}

fn clusters_from(specs: &[ClusterSpec]) -> Vec<(String, Vec<Row>)> {
    specs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let ncid = format!("C{i:04}");
            let mut rows = vec![row(
                &ncid,
                FIRSTS[s.name % FIRSTS.len()],
                LASTS[s.name % LASTS.len()],
                DATES[s.date % DATES.len()],
            )];
            for k in 0..s.extra {
                rows.push(row(
                    &ncid,
                    FIRSTS[(s.name + k + 1) % FIRSTS.len()],
                    LASTS[(s.name * 2 + k) % LASTS.len()],
                    DATES[(s.date + k + 1) % DATES.len()],
                ));
            }
            (ncid, rows)
        })
        .collect()
}

fn catalog_from(specs: &[ClusterSpec]) -> ClusterCatalog {
    let snapshot = StoreSnapshot::from_clusters(1, clusters_from(specs));
    let het = snapshot.entropy_scorer(Scope::Person);
    ClusterCatalog::build(&snapshot, &het)
}

fn cluster_specs(g: &mut Gen) -> Vec<ClusterSpec> {
    g.vec(1..40, |g| ClusterSpec {
        extra: g.range(0..4),
        name: g.range(0..4),
        date: g.range(0..3),
    })
}

/// One conjunct per field, so the generated match object never has
/// duplicate JSON keys. `size`/`plaus`/`snapshot.first` ride ordered
/// indexes, `ncid` a hash index, and `errors.total` is deliberately
/// unindexed — so random pipelines cover indexed, hash-miss (range on
/// hash) and scan access paths alike.
fn match_stage(g: &mut Gen) -> String {
    let conjuncts = [
        ("size", g.range(0..6u64).to_string()),
        ("plaus", format!("{:?}", f64::from(g.range(-20..60)) / 8.0)),
        ("ncid", format!(r#""C{:04}""#, g.range(0..40))),
        ("snapshot.first", format!(r#""{}""#, g.pick(&DATES))),
        ("errors.total", g.range(0..4u64).to_string()),
    ];
    let mut parts = Vec::new();
    for (field, value) in conjuncts {
        if g.bool() {
            let op = g.pick(&["eq", "ne", "gt", "gte", "lt", "lte"]);
            parts.push(format!(r#""{field}": {{"{op}": {value}}}"#));
        }
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!(r#"{{"match": {{{}}}}}"#, parts.join(", "))
    }
}

fn tail_stage(g: &mut Gen) -> String {
    match g.range(0..5) {
        0 => format!(
            r#"{{"sample": {{"size": {}, "seed": {}}}}}"#,
            g.range(1..8),
            g.range(0..=u32::MAX)
        ),
        1 => format!(
            r#"{{"sample": {{"size": {}, "seed": {}, "by": "size"}}}}"#,
            g.range(1..4),
            g.range(0..=u32::MAX)
        ),
        2 => format!(
            r#"{{"sort": {{"by": "{}", "descending": {}}}}}"#,
            g.pick(&["size", "het", "plaus", "ncid"]),
            g.bool()
        ),
        3 => format!(r#"{{"skip": {}}}"#, g.range(0..6)),
        _ => format!(r#"{{"limit": {}}}"#, g.range(1..10)),
    }
}

fn terminal(g: &mut Gen) -> Option<&'static str> {
    g.pick(&[
        None,
        None,
        Some(r#"{"count": true}"#),
        Some(r#"{"project": ["ncid", "size", "het"]}"#),
        Some(r#"{"group": {"by": "size", "agg": {"n": "count", "max_plaus": {"max": "plaus"}}}}"#),
    ])
}

fn pipeline(g: &mut Gen) -> String {
    let mut stages: Vec<String> = Vec::new();
    let m = match_stage(g);
    if !m.is_empty() {
        stages.push(m);
    }
    stages.extend(g.vec(0..3, tail_stage));
    stages.extend(terminal(g).map(String::from));
    format!(r#"{{"pipeline": [{}]}}"#, stages.join(", "))
}

fn parse(body: &str) -> CarveQuery {
    CarveQuery::parse(body.as_bytes())
        .unwrap_or_else(|e| panic!("generated query must parse: {body}: {}", e.render_json()))
}

fn rendered(docs: &[nc_docstore::value::Document]) -> Vec<String> {
    docs.iter().map(|d| d.to_json()).collect()
}

/// The indexed plan and a forced full scan produce byte-identical
/// results — same matched set, same capture positions, same
/// rendered documents.
fn indexed_plan_matches_forced_scan_prop(g: &mut Gen) {
    let (specs, body) = (cluster_specs(g), pipeline(g));
    let cat = catalog_from(&specs);
    let query = parse(&body);
    let fast = execute(&cat, &query, ExecOptions::default());
    let slow = execute(&cat, &query, ExecOptions { force_scan: true });
    assert!(slow.explain.full_scan);
    assert_eq!(&fast.matched, &slow.matched, "query: {}", body);
    assert_eq!(&fast.positions, &slow.positions, "query: {}", body);
    assert_eq!(
        rendered(&fast.docs),
        rendered(&slow.docs),
        "query: {}",
        body
    );
}

#[test]
fn indexed_plan_matches_forced_scan() {
    check(
        "indexed_plan_matches_forced_scan",
        indexed_plan_matches_forced_scan_prop,
    );
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn indexed_plan_matches_forced_scan_wide() {
    check_n(
        "indexed_plan_matches_forced_scan",
        3_000,
        indexed_plan_matches_forced_scan_prop,
    );
}

/// Planned execution equals the naive reference: every cluster doc
/// pushed through `Pipeline::run_docs` one stage at a time.
fn planned_execution_equals_naive_prop(g: &mut Gen) {
    let (specs, body) = (cluster_specs(g), pipeline(g));
    let cat = catalog_from(&specs);
    let query = parse(&body);
    let planned = execute(&cat, &query, ExecOptions::default());
    let naive = execute_naive(&cat, &query);
    assert_eq!(rendered(&planned.docs), rendered(&naive), "query: {}", body);
}

#[test]
fn planned_execution_equals_naive() {
    check(
        "planned_execution_equals_naive",
        planned_execution_equals_naive_prop,
    );
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn planned_execution_equals_naive_wide() {
    check_n(
        "planned_execution_equals_naive",
        3_000,
        planned_execution_equals_naive_prop,
    );
}

/// Rebuilding the catalog from scratch and replaying the same query
/// (same seed embedded in the body) reproduces the identical carve.
fn replay_from_rebuilt_catalog_is_bit_identical_prop(g: &mut Gen) {
    let (specs, body) = (cluster_specs(g), pipeline(g));
    let first = execute(&catalog_from(&specs), &parse(&body), ExecOptions::default());
    let second = execute(&catalog_from(&specs), &parse(&body), ExecOptions::default());
    assert_eq!(&first.matched, &second.matched);
    assert_eq!(&first.positions, &second.positions);
    assert_eq!(rendered(&first.docs), rendered(&second.docs));
}

#[test]
fn replay_from_rebuilt_catalog_is_bit_identical() {
    check(
        "replay_from_rebuilt_catalog_is_bit_identical",
        replay_from_rebuilt_catalog_is_bit_identical_prop,
    );
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn replay_from_rebuilt_catalog_is_bit_identical_wide() {
    check_n(
        "replay_from_rebuilt_catalog_is_bit_identical",
        3_000,
        replay_from_rebuilt_catalog_is_bit_identical_prop,
    );
}

/// A sampled query carve is reproducible across a *sharded* publish:
/// the sharded store's merged snapshot presents clusters in global
/// founding order, so the catalog, the matched set, the sample and the
/// rendered documents are all byte-identical to the sequential store's
/// at the same version — under any shard count.
#[test]
fn sampled_carve_reproduces_across_sharded_publish() {
    use nc_core::cluster::ClusterStore;
    use nc_core::import::import_snapshot;
    use nc_core::record::DedupPolicy;
    use nc_shard::ShardedStore;
    use nc_votergen::config::GeneratorConfig;
    use nc_votergen::registry::Registry;
    use nc_votergen::snapshot::standard_calendar;

    let mut reg = Registry::new(GeneratorConfig {
        seed: 42,
        initial_population: 400,
        ..Default::default()
    });
    let snaps: Vec<_> = standard_calendar()
        .iter()
        .take(4)
        .map(|info| reg.generate_snapshot(info))
        .collect();

    let mut store = ClusterStore::new();
    for (i, s) in snaps.iter().enumerate() {
        import_snapshot(&mut store, s, DedupPolicy::Trimmed, i as u32 + 1);
    }
    let sequential = StoreSnapshot::capture(&store, 5);
    let het = sequential.entropy_scorer(Scope::Person);
    let reference = ClusterCatalog::build(&sequential, &het);

    let query = parse(
        r#"{"pipeline": [
            {"match": {"size": {"gte": 2}}},
            {"sample": {"size": 25, "seed": 99}}
        ]}"#,
    );
    let want = execute(&reference, &query, ExecOptions::default());
    assert!(!want.docs.is_empty(), "fixture must carve something");
    assert!(!want.explain.full_scan, "size rides an ordered index");

    for shard_count in [1, 3, 7] {
        let mut sharded = ShardedStore::new(shard_count);
        for (i, s) in snaps.iter().enumerate() {
            sharded.ingest_snapshot(s, DedupPolicy::Trimmed, i as u32 + 1);
        }
        let snapshot = sharded.publish(5);
        let het = snapshot.entropy_scorer(Scope::Person);
        let catalog = ClusterCatalog::build(&snapshot, &het);
        let got = execute(&catalog, &query, ExecOptions::default());
        assert_eq!(got.matched, want.matched, "{shard_count} shards");
        assert_eq!(got.positions, want.positions, "{shard_count} shards");
        assert_eq!(
            rendered(&got.docs),
            rendered(&want.docs),
            "{shard_count} shards"
        );
    }
}
