//! Property tests on the encoding's reproducibility contract: a fixed
//! `(key, params)` produces byte-identical encodings everywhere — on
//! any thread, and through a sharded ingest + publish + carve — while
//! different keys produce unlinkable encodings.

use nc_core::cluster::ClusterStore;
use nc_core::customize::{customize, customize_clusters, CustomDataset, CustomizeParams};
use nc_core::heterogeneity::Scope;
use nc_core::import::import_snapshot;
use nc_core::record::DedupPolicy;
use nc_core::snapshot::StoreSnapshot;
use nc_pprl::{render_encoded_record, EncodeScratch, EncodingParams, RecordEncoder};
use nc_propcheck::{check, check_n, Gen, DIGITS, UPPER};
use nc_shard::ShardedStore;
use nc_votergen::config::GeneratorConfig;
use nc_votergen::registry::Registry;
use nc_votergen::schema::{Row, FIRST_NAME, LAST_NAME, NCID, RES_STREET};
use nc_votergen::snapshot::{standard_calendar, Snapshot};

fn row(ncid: &str, first: &str, last: &str, street: &str) -> Row {
    let mut r = Row::empty();
    r.set(NCID, ncid);
    r.set(FIRST_NAME, first);
    r.set(LAST_NAME, last);
    r.set(RES_STREET, street);
    r
}

fn name(g: &mut Gen) -> String {
    g.string(UPPER, 1..=12)
}

/// Same `(key, params)` on independent encoders on independent
/// threads: byte-identical rendered lines.
#[test]
fn encoding_is_identical_across_threads() {
    check("encoding_is_identical_across_threads", |g| {
        let key = g.u64();
        let (first, last) = (name(g), name(g));
        let street = g.string(&format!("{UPPER}{DIGITS} "), 0..=20);
        let params = EncodingParams { key, ..Default::default() };
        let r = row("C1", &first, &last, &street);
        let here = {
            let encoder = RecordEncoder::new(params);
            let mut scratch = EncodeScratch::new();
            render_encoded_record(0, &encoder.encode_row(&r, &mut scratch))
        };
        let threads: Vec<String> = std::thread::scope(|scope| {
            (0..2)
                .map(|_| {
                    let r = &r;
                    scope.spawn(move || {
                        let encoder = RecordEncoder::new(params);
                        let mut scratch = EncodeScratch::new();
                        render_encoded_record(0, &encoder.encode_row(r, &mut scratch))
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("encoder thread"))
                .collect()
        });
        for line in threads {
            assert_eq!(&line, &here);
        }
    });
}

/// Different keys never produce linkable encodings: the NCID
/// tokens differ and the record CLKs differ (beyond-chance
/// collisions would need 64 matching bits resp. hundreds).
#[test]
fn different_keys_are_unlinkable() {
    check("different_keys_are_unlinkable", |g| {
        let key_a = g.u64();
        let key_b = g.u64();
        let (first, last) = (name(g), name(g));
        if key_a == key_b {
            return;
        }
        let r = row("C7", &first, &last, "12 OAK ST");
        let mut scratch = EncodeScratch::new();
        let ea = RecordEncoder::new(EncodingParams { key: key_a, ..Default::default() })
            .encode_row(&r, &mut scratch);
        let eb = RecordEncoder::new(EncodingParams { key: key_b, ..Default::default() })
            .encode_row(&r, &mut scratch);
        assert_ne!(ea.ncid_token, eb.ncid_token);
        assert_ne!(ea.record_clk, eb.record_clk);
    });
}

fn generate_snapshots(seed: u64, population: usize, count: usize) -> Vec<Snapshot> {
    let mut registry = Registry::new(GeneratorConfig {
        seed,
        initial_population: population,
        ..Default::default()
    });
    standard_calendar()
        .iter()
        .take(count)
        .map(|info| registry.generate_snapshot(info))
        .collect()
}

/// The full export path is shard-count independent: ingesting the
/// same snapshots through 1/2/3/8 shards, publishing, carving and
/// encoding yields byte-identical encoded lines.
#[test]
fn sharded_publish_encodes_identically() {
    // Each case generates a registry and ingests it once per shard count.
    check_n("sharded_publish_encodes_identically", 24, |g| {
        let seed = g.range(0u64..10_000);
        let key = g.u64();
        let population = g.range(40usize..70);
        let snapshots = generate_snapshots(seed, population, 2);
        let params = CustomizeParams::nc2(20, 8, seed);
        let encoding = EncodingParams { key, ..Default::default() };

        // Unsharded reference: import, capture, carve, encode.
        let mut plain = ClusterStore::new();
        for snap in &snapshots {
            import_snapshot(&mut plain, snap, DedupPolicy::Trimmed, 1);
        }
        let reference = StoreSnapshot::capture(&plain, 1);
        let entropy = reference.entropy_scorer(Scope::Person);
        let reference_lines = encode_carve(&customize(&plain, &entropy, &params), &encoding);
        assert!(!reference_lines.is_empty(), "carve produced no records");

        for shards in [2usize, 3, 8] {
            let mut sharded = ShardedStore::new(shards);
            for snap in &snapshots {
                sharded.ingest_snapshot(snap, DedupPolicy::Trimmed, 1);
            }
            // Carve and encode straight off the sharded publish.
            let published = sharded.publish(1);
            let carved = customize_clusters(
                published.clusters(),
                &published.entropy_scorer(Scope::Person),
                &params,
            );
            let lines = encode_carve(&carved, &encoding);
            assert_eq!(&lines, &reference_lines, "shards={}", shards);
        }
    });
}

/// Encode every record of a carved dataset as its rendered line, with
/// the gold NCID token taken from the cluster label.
fn encode_carve(carved: &CustomDataset, encoding: &EncodingParams) -> Vec<String> {
    let encoder = RecordEncoder::new(*encoding);
    let mut scratch = EncodeScratch::new();
    let mut lines = Vec::new();
    for (cluster, c) in carved.clusters.iter().enumerate() {
        let token = encoder.ncid_token(&c.ncid);
        for record in &c.records {
            let mut encoded = encoder.encode_row(record, &mut scratch);
            encoded.ncid_token = token;
            lines.push(render_encoded_record(cluster, &encoded));
        }
    }
    lines
}
