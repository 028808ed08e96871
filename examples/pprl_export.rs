//! Privacy-preserving linkage export: carve a labeled test dataset and
//! publish it as keyed CLK encodings instead of plaintext — locally via
//! [`nc_suite::serve::carve::render_encoded_lines`] and over HTTP via
//! `POST /carve … encode=clk`. Then show that the encoded space is
//! still useful: encoded Dice tracks plaintext q-gram Dice, and
//! bit-sampling blocking over record CLKs recovers the gold duplicate
//! pairs without ever seeing a name.
//!
//! Run with:
//! ```sh
//! cargo run --release -p nc-suite --example pprl_export
//! ```

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use nc_suite::core::cluster::ClusterStore;
use nc_suite::core::customize::{customize, CustomizeParams};
use nc_suite::core::heterogeneity::{AttributeWeights, HeterogeneityScorer, Scope};
use nc_suite::core::pipeline::{GenerationConfig, TestDataGenerator};
use nc_suite::core::record::DedupPolicy;
use nc_suite::detect::bitsample::BitSampleBlocker;
use nc_suite::detect::dataset::Pair;
use nc_suite::detect::sink::QualitySink;
use nc_suite::pprl::encode::{normalize_into, plaintext_qgram_dice};
use nc_suite::pprl::kernels::dice_bitset;
use nc_suite::pprl::{Bitset, EncodeScratch, EncodingParams, RecordEncoder};
use nc_suite::serve::carve::render_encoded_lines;
use nc_suite::serve::{Server, ServeConfig, ServeSnapshot, ServeState, SnapshotRegistry};
use nc_suite::votergen::config::GeneratorConfig;

fn build_store(seed: u64, population: usize, snapshots: usize) -> ClusterStore {
    TestDataGenerator::run(GenerationConfig {
        generator: GeneratorConfig {
            seed,
            initial_population: population,
            ..Default::default()
        },
        policy: DedupPolicy::Trimmed,
        snapshots,
    })
    .store
}

fn scorer_for(store: &ClusterStore) -> HeterogeneityScorer {
    let firsts = store.iter_clusters().map(|(_, rows)| &rows[0]);
    HeterogeneityScorer::new(AttributeWeights::from_rows(Scope::Person, firsts))
}

/// One scripted request, printed the way a `curl` user would see it.
fn transcript(addr: SocketAddr, target: &str) -> String {
    let raw = format!("GET {target} HTTP/1.1\r\nHost: localhost\r\n\r\n");
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("send");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("recv");
    let text = String::from_utf8_lossy(&response).into_owned();
    let (head, body) = text.split_once("\r\n\r\n").expect("http response");
    assert!(head.starts_with("HTTP/1.1 2"), "request {target} failed:\n{head}");

    println!("$ curl -s 'http://{addr}{target}'");
    for line in head.lines() {
        if line.starts_with("HTTP/") || line.starts_with("X-") {
            println!("  {line}");
        }
    }
    for line in body.lines().take(2) {
        let mut shown = line.to_string();
        if shown.len() > 100 {
            shown.truncate(100);
            shown.push('…');
        }
        println!("  {shown}");
    }
    let omitted = body.lines().count().saturating_sub(2);
    if omitted > 0 {
        println!("  … ({omitted} more lines)");
    }
    println!();
    body.to_string()
}

fn main() {
    // 1. Build the archive and carve an NC2-dirtiness dataset from it.
    println!("building the voter archive …");
    let store = build_store(2021, 1_000, 8);
    let scorer = scorer_for(&store);
    let carved = customize(&store, &scorer, &CustomizeParams::nc2(200, 40, 7));
    println!(
        "carved {} records in {} clusters ({} duplicate pairs)\n",
        carved.record_count(),
        carved.clusters.len(),
        carved.duplicate_pairs()
    );

    // 2. Encode the carve under a data-custodian key. Same labels, no
    //    plaintext: each line carries the gold cluster, a keyed NCID
    //    token, the record-level CLK and per-field encodings.
    let encoding = EncodingParams {
        key: 2021,
        ..Default::default()
    };
    let lines = render_encoded_lines(&carved, &encoding);
    println!("encoded export under {}:", encoding.canonical());
    for line in lines.iter().take(2) {
        let mut shown = line.clone();
        if shown.len() > 100 {
            shown.truncate(100);
            shown.push('…');
        }
        println!("  {shown}");
    }
    println!("  … ({} more lines)\n", lines.len().saturating_sub(2));

    // 3. The encoded space preserves similarity: Dice over CLK bits
    //    tracks Dice over plaintext q-gram sets.
    let encoder = RecordEncoder::new(encoding);
    let (mut norm_a, mut norm_b) = (String::new(), String::new());
    normalize_into("SCARBOROUGH", &mut norm_a);
    normalize_into("SCARBOROUGH", &mut norm_b); // identical
    let mut clk_a = Bitset::zero(encoding.bits);
    let mut clk_b = Bitset::zero(encoding.bits);
    encoder.encode_value(0, &norm_a, &mut clk_a);
    encoder.encode_value(0, &norm_b, &mut clk_b);
    assert_eq!(dice_bitset(&clk_a, &clk_b), 1.0);
    normalize_into("SCARBROUGH", &mut norm_b); // one deletion
    clk_b.clear();
    encoder.encode_value(0, &norm_b, &mut clk_b);
    let encoded_sim = dice_bitset(&clk_a, &clk_b);
    let plain_sim = plaintext_qgram_dice(&norm_a, &norm_b, encoding.q as usize);
    println!(
        "encoded Dice({norm_a}, {norm_b}) = {encoded_sim:.3} (plaintext q-gram Dice {plain_sim:.3})"
    );
    assert!((encoded_sim - plain_sim).abs() <= 0.15);

    // 4. Blocking still works without plaintext: bit-sampling buckets
    //    over the record CLKs recover the carve's gold duplicate pairs.
    let mut scratch = EncodeScratch::new();
    let mut clks: Vec<Vec<u64>> = Vec::new();
    let mut gold: HashSet<Pair> = HashSet::new();
    for c in &carved.clusters {
        let first = clks.len();
        for record in &c.records {
            clks.push(encoder.encode_row(record, &mut scratch).record_clk.words().to_vec());
        }
        for a in first..clks.len() {
            for b in (a + 1)..clks.len() {
                gold.insert(Pair::new(a, b));
            }
        }
    }
    // NC2 duplicates are much dirtier than single-typo pairs (whole
    // fields change between registration snapshots), so recall needs a
    // more forgiving geometry than the default: shorter signatures,
    // more bands.
    let blocker = BitSampleBlocker {
        bands: 48,
        band_bits: 8,
        ..Default::default()
    };
    let mut sink = QualitySink::new(&gold);
    blocker.stream_into(&clks, &mut sink);
    println!(
        "encoded blocking: {}/{} gold pairs found (completeness {:.3})\n",
        sink.gold_hits(),
        gold.len(),
        sink.completeness()
    );
    assert!(sink.completeness() >= 0.8, "encoded blocking lost the gold pairs");

    // 5. The same export over HTTP: `encode=clk` on any carve endpoint
    //    switches the response to encoded lines, keyed separately in
    //    the carve cache (plaintext warm entries never answer encoded
    //    requests).
    let registry = SnapshotRegistry::new(ServeSnapshot::capture(&store, 1));
    let state = Arc::new(ServeState::new(Arc::new(registry), ServeConfig::default()));
    let server = Server::spawn(Arc::clone(&state)).expect("bind ephemeral port");
    let addr = server.addr();
    println!("serving on http://{addr}\n");

    transcript(addr, "/datasets/nc2?sample=200&output=40&seed=7&page_size=3");
    let served = transcript(
        addr,
        "/datasets/nc2?sample=200&output=40&seed=7&encode=clk&encode_key=2021",
    );
    assert_eq!(
        served.lines().collect::<Vec<_>>(),
        lines.iter().map(String::as_str).collect::<Vec<_>>(),
        "HTTP export matches the local encode bit for bit"
    );

    server.shutdown();
    println!("server shut down cleanly; encoded export verified bit-identical");
}
