//! Equivalence properties for the column catalog, the planner and the
//! executor.
//!
//! The planner is only allowed to change *how rows are sourced* — never
//! what comes out. These properties pin that down over random catalogs
//! and random pipelines:
//!
//! * every row of the column table renders to `cluster_doc`'s bytes;
//! * planned execution, indexed or scanned, equals the naive reference
//!   (`Stage::apply` over every rendered cluster document) in
//!   positions, documents and matched set;
//! * a catalog carried across append-only churn equals a fresh build,
//!   by rendered bytes and by query answers;
//! * the same `(seed, query, version)` replays the same sampled carve
//!   from a freshly rebuilt catalog — including when the snapshot was
//!   published by a sharded store instead of the sequential one.

use nc_core::heterogeneity::{PairTable, Scope};
use nc_core::plausibility::PlausibilityScorer;
use nc_core::snapshot::StoreSnapshot;
use nc_docstore::value::Document;
use nc_propcheck::{check, check_n, Gen};
use nc_query::exec::output_kind;
use nc_query::{execute, execute_naive, CarveQuery, ClusterCatalog, ExecOptions, OutputKind};
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

/// The paths a generated match reads: every indexed one and two
/// scan-only `errors.*` counts.
const FIELDS: [&str; 8] = [
    "ncid",
    "size",
    "het",
    "plaus",
    "snapshot.first",
    "snapshot.last",
    "errors.total",
    "errors.typo",
];

/// An operand of `field`'s kind; `het` and `plaus` get int operands
/// half the time.
fn operand(g: &mut Gen, field: &str) -> String {
    match field {
        "ncid" => format!(r#""C{:04}""#, g.range(0..40)),
        "snapshot.first" | "snapshot.last" => format!(r#""{}""#, g.pick(&DATES)),
        "het" | "plaus" if g.bool() => format!("{:?}", f64::from(g.range(-8..16)) / 8.0),
        _ => g.range(0..6u64).to_string(),
    }
}

/// One field's operator object: a comparison, a two-sided range that
/// may cross, `in`, `exists`, or `contains` on a string field.
fn field_spec(g: &mut Gen, field: &str) -> String {
    let (a, b) = (operand(g, field), operand(g, field));
    match g.range(0..5) {
        0 => format!(r#"{{"gte": {a}, "lte": {b}}}"#),
        1 => format!(r#"{{"in": [{a}, {b}]}}"#),
        2 => format!(r#"{{"exists": {}}}"#, g.bool()),
        3 if a.starts_with('"') => format!(r#"{{"contains": "{}"}}"#, g.range(0..4)),
        _ => {
            let op = g.pick(&["eq", "ne", "gt", "gte", "lt", "lte"]);
            format!(r#"{{"{op}": {a}}}"#)
        }
    }
}

/// A match object over a random subset of [`FIELDS`] (one spec per
/// field, so no duplicate JSON keys), with `or` / `not` at the top.
fn match_object(g: &mut Gen, top: bool) -> String {
    let mut parts = Vec::new();
    for field in FIELDS {
        if g.range(0..3) == 0 {
            parts.push(format!(r#""{field}": {}"#, field_spec(g, field)));
        }
    }
    if top && g.range(0..4) == 0 {
        let arms = [match_object(g, false), match_object(g, false)];
        parts.push(format!(r#""or": [{}]"#, arms.join(", ")));
    }
    if top && g.range(0..4) == 0 {
        parts.push(format!(r#""not": {}"#, match_object(g, false)));
    }
    format!("{{{}}}", parts.join(", "))
}

fn tail_stage(g: &mut Gen) -> String {
    match g.range(0..6) {
        0 => format!(
            r#"{{"sample": {{"size": {}, "seed": {}}}}}"#,
            g.range(1..8),
            g.range(0..=u32::MAX)
        ),
        1 => format!(
            r#"{{"sample": {{"size": {}, "seed": {}, "by": "{}"}}}}"#,
            g.range(1..4),
            g.range(0..=u32::MAX),
            g.pick(&["size", "snapshot.last"])
        ),
        2 => format!(
            r#"{{"sort": {{"by": "{}", "descending": {}}}}}"#,
            g.pick(&["size", "het", "plaus", "ncid"]),
            g.bool()
        ),
        3 => format!(r#"{{"skip": {}}}"#, g.range(0..6)),
        4 => format!(r#"{{"match": {}}}"#, match_object(g, true)),
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
    let m = match_object(g, true);
    if m != "{}" {
        stages.push(format!(r#"{{"match": {m}}}"#));
    }
    stages.extend(g.vec(0..3, tail_stage));
    stages.extend(terminal(g).map(String::from));
    format!(r#"{{"pipeline": [{}]}}"#, stages.join(", "))
}

fn parse(body: &str) -> CarveQuery {
    CarveQuery::parse(body.as_bytes())
        .unwrap_or_else(|e| panic!("generated query must parse: {body}: {}", e.render_json()))
}

fn rendered(docs: &[Document]) -> Vec<String> {
    docs.iter().map(|d| d.to_json()).collect()
}

/// What [`execute_naive`] implies for a query: the positions (`_id`s)
/// of its output when that is clusters, its rendered documents, and the
/// NCIDs of every rendered document the query's footprint admits.
type Answer = (Option<Vec<usize>>, Vec<String>, Vec<String>);

fn naive_answer(cat: &ClusterCatalog, query: &CarveQuery) -> Answer {
    let docs = execute_naive(cat, query);
    let positions = (output_kind(&query.stages) == OutputKind::Clusters).then(|| {
        docs.iter()
            .map(|d| d.get_i64("_id").expect("a cluster document") as usize)
            .collect()
    });
    let footprint = query.footprint();
    let mut matched: Vec<String> = cat
        .documents()
        .filter(|(_, d)| footprint.matches(d))
        .map(|(_, d)| d.get_str("ncid").expect("an ncid").to_owned())
        .collect();
    matched.sort_unstable();
    (positions, rendered(&docs), matched)
}

/// Planned execution equals the naive reference — every cluster's
/// rendered document pushed through `Stage::apply` one stage at a time
/// — in positions, documents and matched set, both from the indexes and
/// from a forced full scan.
fn planned_execution_equals_naive_prop(g: &mut Gen) {
    let (specs, body) = (cluster_specs(g), pipeline(g));
    let cat = catalog_from(&specs);
    let query = parse(&body);
    let naive = naive_answer(&cat, &query);
    for force_scan in [false, true] {
        let out = execute(&cat, &query, ExecOptions { force_scan });
        assert!(out.explain.full_scan || !force_scan);
        let planned = (out.positions, rendered(&out.docs), out.matched);
        assert_eq!(planned, naive, "force_scan {force_scan}, query: {body}");
    }
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

/// Every row of the column table renders to the bytes of
/// `ClusterCatalog::cluster_doc` for its cluster, plus its `_id`.
fn rows_render_as_cluster_docs_prop(g: &mut Gen) {
    let snapshot = StoreSnapshot::from_clusters(1, clusters_from(&cluster_specs(g)));
    let het = snapshot.entropy_scorer(Scope::Person);
    let cat = ClusterCatalog::build(&snapshot, &het);
    let plausibility = PlausibilityScorer::new();
    assert_eq!(cat.len(), snapshot.clusters().len());
    for (pos, (ncid, rows)) in snapshot.clusters().iter().enumerate() {
        let mut want = ClusterCatalog::cluster_doc(ncid, rows, het.cluster(rows), &plausibility);
        want.set("_id", pos as i64);
        assert_eq!(cat.doc(pos).map(|d| d.to_json()), Some(want.to_json()), "{ncid}");
    }
}

#[test]
fn rows_render_as_cluster_docs() {
    check("rows_render_as_cluster_docs", rows_render_as_cluster_docs_prop);
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn rows_render_as_cluster_docs_wide() {
    check_n("rows_render_as_cluster_docs", 3_000, rows_render_as_cluster_docs_prop);
}

/// Append-only churn: each round appends records — new dates, some
/// sorting between the known ones, and new name variants — to a random
/// subset of clusters. The carried catalog equals a fresh build by
/// rendered bytes and answers every generated query like it, explain
/// included.
fn carried_catalog_equals_fresh_build_prop(g: &mut Gen) {
    let mut clusters = clusters_from(&cluster_specs(g));
    let first = StoreSnapshot::from_clusters(1, clusters.clone());
    let mut carried = ClusterCatalog::build(&first, &first.entropy_scorer(Scope::Person));
    for round in 0..g.range(1..4u32) {
        for (ncid, rows) in clusters.iter_mut() {
            if g.range(0..4) == 0 {
                let date = format!("20{:02}-0{}-15", g.range(18..24), round + 1);
                rows.push(row(ncid, g.pick(&FIRSTS), g.pick(&LASTS), &date));
            }
        }
        let snapshot = StoreSnapshot::from_clusters(round + 2, clusters.clone());
        // No cluster founded, so the first-record weights are unchanged.
        let scorer = snapshot.entropy_scorer(Scope::Person);
        let table = PairTable::build(snapshot.clusters(), &scorer);
        carried = ClusterCatalog::carry_forward(&carried, &snapshot, &table)
            .expect("same NCIDs at the same positions");
        let fresh = ClusterCatalog::build(&snapshot, &scorer);
        let docs = |cat: &ClusterCatalog| rendered(&execute_naive(cat, &parse(r#"{"pipeline": []}"#)));
        assert_eq!(docs(&carried), docs(&fresh), "round {round}");
        for _ in 0..4 {
            let body = pipeline(g);
            let query = parse(&body);
            let (got, want) = (
                execute(&carried, &query, ExecOptions::default()),
                execute(&fresh, &query, ExecOptions::default()),
            );
            assert_eq!(got.explain.render_json(), want.explain.render_json(), "{body}");
            assert_eq!(
                (got.positions, rendered(&got.docs), got.matched),
                (want.positions, rendered(&want.docs), want.matched),
                "round {round}, query: {body}"
            );
        }
    }
}

#[test]
fn carried_catalog_equals_fresh_build() {
    check(
        "carried_catalog_equals_fresh_build",
        carried_catalog_equals_fresh_build_prop,
    );
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn carried_catalog_equals_fresh_build_wide() {
    check_n(
        "carried_catalog_equals_fresh_build",
        3_000,
        carried_catalog_equals_fresh_build_prop,
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
