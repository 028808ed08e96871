//! Property tests: the [`PairTable`] is the scorer, computed once. Over
//! clusters of 0–12 register-shaped rows (case flips, padding, missing,
//! multi-token and non-ASCII values), by `f64::to_bits`:
//!
//! * `table.pair(c, i, j)` is `scorer.pair(&rows[i], &rows[j])`,
//! * `table.cluster(c)` is `scorer.cluster(rows)`,
//! * a table carried over clusters grown by appended rows is a fresh
//!   build,
//! * a carve reading the table is the carve scoring on the fly.

use nc_core::customize::{customize_clusters, customize_scored, CustomDataset, CustomizeParams};
use nc_core::heterogeneity::{AttributeWeights, HeterogeneityScorer, PairTable, Scope};
use nc_propcheck::{check, check_n, Gen};
use nc_votergen::schema::{
    Row, BIRTH_PLACE, FIRST_NAME, LAST_NAME, MIDL_NAME, NCID, RES_CITY, RES_STREET, SEX_CODE,
};

const NAMES: &[&str] = &[
    "MARY",
    "JAMES",
    "ANH THI",
    "JOSÉ LUIS",
    "MÜLLER",
    "O'NEIL",
    "SMITH",
    "NGUYEN",
    "ÅSA",
];
const CITIES: &[&str] = &[
    "RALEIGH",
    "DURHAM",
    "WINSTON SALEM",
    "CARY",
    "KILL DEVIL HILLS",
];

/// One value as a register drifts it: kept, case-flipped, padded,
/// missing, extended by a token, or replaced.
fn drift(g: &mut Gen, base: &str, pool: &[&str]) -> String {
    match g.range(0..8u32) {
        0 => base.to_lowercase(),
        1 => format!("  {base} "),
        2 => String::new(),
        3 => format!("{base} {}", g.pick(pool)),
        4 => g.pick(pool).to_owned(),
        _ => base.to_owned(),
    }
}

/// A cluster: a base record and `n - 1` drifted copies of it.
fn cluster(g: &mut Gen, id: usize, n: usize) -> (String, Vec<Row>) {
    let ncid = format!("N{id:03}");
    let first = g.pick(NAMES);
    let midl = g.pick(NAMES);
    let last = g.pick(NAMES);
    let city = g.pick(CITIES);
    let street = format!("{} MAIN ST", g.range(1..999u32));
    let rows = (0..n)
        .map(|k| {
            let mut r = Row::empty();
            r.set(NCID, &ncid);
            let d = |g: &mut Gen, base: &str, pool: &[&str]| {
                if k == 0 {
                    base.to_owned()
                } else {
                    drift(g, base, pool)
                }
            };
            r.set(FIRST_NAME, d(g, first, NAMES));
            r.set(MIDL_NAME, d(g, midl, NAMES));
            r.set(LAST_NAME, d(g, last, NAMES));
            r.set(RES_CITY, d(g, city, CITIES));
            r.set(RES_STREET, d(g, &street, &["ELM ST", "1 OAK AVE"]));
            r.set(SEX_CODE, d(g, "F", &["M", "U"]));
            r.set(BIRTH_PLACE, d(g, "NORTH CAROLINA", &["NC", "VIRGINIA"]));
            r
        })
        .collect();
    (ncid, rows)
}

fn clusters(g: &mut Gen) -> Vec<(String, Vec<Row>)> {
    let count = g.range(0..10usize);
    (0..count)
        .map(|id| {
            let n = g.range(0..=12usize);
            cluster(g, id, n)
        })
        .collect()
}

/// Entropy weights from one record per cluster, as a snapshot derives
/// them, in either scope; uniform when there is no record.
fn scorer(g: &mut Gen, clusters: &[(String, Vec<Row>)]) -> HeterogeneityScorer {
    let scope = if g.bool() { Scope::All } else { Scope::Person };
    let firsts: Vec<&Row> = clusters
        .iter()
        .filter_map(|(_, rows)| rows.first())
        .collect();
    let weights = if firsts.is_empty() {
        AttributeWeights::uniform(scope)
    } else {
        AttributeWeights::from_rows(scope, firsts)
    };
    HeterogeneityScorer::new(weights)
}

fn table_is_the_scorer_prop(g: &mut Gen) {
    let clusters = clusters(g);
    let scorer = scorer(g, &clusters);
    let table = PairTable::build(&clusters, &scorer);
    assert_eq!(table.len(), clusters.len());
    for (c, (_, rows)) in clusters.iter().enumerate() {
        assert_eq!(table.cluster_size(c), rows.len());
        for j in 0..rows.len() {
            for i in 0..j {
                let want = scorer.pair(&rows[i], &rows[j]);
                assert_eq!(
                    table.pair(c, i, j).to_bits(),
                    want.to_bits(),
                    "pair ({i}, {j}) of {c}"
                );
            }
        }
        let want = scorer.cluster(rows);
        assert_eq!(
            table.cluster(c).to_bits(),
            want.to_bits(),
            "cluster {c} of {}",
            rows.len()
        );
    }
}

#[test]
fn table_is_the_scorer() {
    check("table_is_the_scorer", table_is_the_scorer_prop);
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn table_is_the_scorer_wide() {
    check_n("table_is_the_scorer", 3_000, table_is_the_scorer_prop);
}

fn carried_table_is_a_fresh_build_prop(g: &mut Gen) {
    let grown = clusters(g);
    let scorer = scorer(g, &grown);
    // The version before: every cluster a prefix of itself.
    let before: Vec<(String, Vec<Row>)> = grown
        .iter()
        .map(|(ncid, rows)| {
            let kept = g.range(0..=rows.len());
            (ncid.clone(), rows[..kept].to_vec())
        })
        .collect();
    let previous = PairTable::build(&before, &scorer);
    let carried = PairTable::carry(&previous, &grown, &scorer).expect("clusters only grew");
    assert!(carried.bit_eq(&PairTable::build(&grown, &scorer)));
    // A shrunk cluster or another cluster count is refused.
    if grown
        .iter()
        .zip(&before)
        .any(|((_, a), (_, b))| a.len() > b.len())
    {
        assert!(PairTable::carry(&carried, &before, &scorer).is_none());
    }
    if let Some((_, rest)) = grown.split_last() {
        assert!(PairTable::carry(&previous, rest, &scorer).is_none());
    }
}

#[test]
fn carried_table_is_a_fresh_build() {
    check(
        "carried_table_is_a_fresh_build",
        carried_table_is_a_fresh_build_prop,
    );
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn carried_table_is_a_fresh_build_wide() {
    check_n(
        "carried_table_is_a_fresh_build",
        3_000,
        carried_table_is_a_fresh_build_prop,
    );
}

fn render(ds: &CustomDataset) -> Vec<String> {
    let mut lines = ds.sampled.clone();
    for c in &ds.clusters {
        lines.push(format!("# {}", c.ncid));
        lines.extend(c.records.iter().map(Row::to_tsv));
    }
    lines
}

fn table_carve_is_the_scored_carve_prop(g: &mut Gen) {
    let clusters = clusters(g);
    let scorer = scorer(g, &clusters);
    let table = PairTable::build(&clusters, &scorer);
    let h_low = f64::from(g.range(0..6u32)) / 10.0;
    let params = CustomizeParams {
        h_low,
        h_high: h_low + f64::from(g.range(0..6u32)) / 10.0,
        sample_clusters: g.range(0..12usize),
        output_clusters: g.range(0..12usize),
        seed: g.u64(),
    };
    assert_eq!(
        render(&customize_scored(&clusters, &table, &params)),
        render(&customize_clusters(&clusters, &scorer, &params))
    );
}

#[test]
fn table_carve_is_the_scored_carve() {
    check(
        "table_carve_is_the_scored_carve",
        table_carve_is_the_scored_carve_prop,
    );
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn table_carve_is_the_scored_carve_wide() {
    check_n(
        "table_carve_is_the_scored_carve",
        3_000,
        table_carve_is_the_scored_carve_prop,
    );
}
