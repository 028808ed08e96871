//! A Cora-like bibliographic dataset.
//!
//! The real Cora set contains 1,879 citation strings of 182 papers with
//! 17 attributes, very large clusters (up to 238 citations of the same
//! paper, 10.32 on average) and 64,578 duplicate pairs. Citations of the
//! same paper differ in author formatting, venue abbreviations, dropped
//! tokens, page/volume notation and typos.

use nc_detect::dataset::Dataset;
use nc_votergen::errors::typo;
use nc_votergen::rng::Rng;

use crate::corrupt;

/// Attribute names (17, mirroring the Cora schema).
pub const ATTRS: [&str; 17] = [
    "authors", "title", "venue", "journal", "booktitle", "volume", "pages", "year", "month",
    "publisher", "address", "editor", "institution", "note", "tech", "type", "date",
];

const AUTHOR_LAST: &[&str] = &[
    "AHA", "BREIMAN", "QUINLAN", "MITCHELL", "DIETTERICH", "KOHAVI", "FREUND", "SCHAPIRE",
    "VALIANT", "ANGLUIN", "RIVEST", "BLUM", "LITTLESTONE", "WARMUTH", "HAUSSLER", "KEARNS",
    "VAPNIK", "CORTES", "HINTON", "RUMELHART", "JORDAN", "GHAHRAMANI", "PEARL", "HECKERMAN",
];

const AUTHOR_FIRST: &[&str] = &[
    "DAVID", "LEO", "ROSS", "TOM", "THOMAS", "RON", "YOAV", "ROBERT", "LESLIE", "DANA",
    "RONALD", "AVRIM", "NICK", "MANFRED", "MICHAEL", "VLADIMIR", "CORINNA", "GEOFFREY",
];

const TITLE_WORDS: &[&str] = &[
    "LEARNING", "INDUCTION", "DECISION", "TREES", "NETWORKS", "BAYESIAN", "PROBABILISTIC",
    "REASONING", "BOOSTING", "MARGIN", "CLASSIFIERS", "GENERALIZATION", "BOUNDS", "QUERY",
    "CONCEPT", "EFFICIENT", "ALGORITHMS", "INSTANCE", "BASED", "MODELS", "NEURAL", "HIDDEN",
    "MARKOV", "FEATURE", "SELECTION", "CROSS", "VALIDATION", "ERROR", "ESTIMATION",
];

const VENUES: &[(&str, &str)] = &[
    ("MACHINE LEARNING", "ML"),
    ("ARTIFICIAL INTELLIGENCE", "AIJ"),
    ("JOURNAL OF THE ACM", "JACM"),
    ("NEURAL COMPUTATION", "NC"),
    ("INTERNATIONAL CONFERENCE ON MACHINE LEARNING", "ICML"),
    ("NATIONAL CONFERENCE ON ARTIFICIAL INTELLIGENCE", "AAAI"),
    ("COMPUTATIONAL LEARNING THEORY", "COLT"),
    ("NEURAL INFORMATION PROCESSING SYSTEMS", "NIPS"),
];

const PUBLISHERS: &[&str] = &["MORGAN KAUFMANN", "MIT PRESS", "SPRINGER", "ACM PRESS", "KLUWER"];

/// Cluster sizes reproducing Cora's distribution: 182 clusters, 1,879
/// records, max 238, ≈64.6 K duplicate pairs.
pub fn cluster_sizes() -> Vec<usize> {
    let mut sizes = vec![238, 150, 120, 100, 90, 80, 70, 60];
    // 110 mid/small non-singleton clusters summing to 907 records.
    let mut remaining = 1879 - 64 - sizes.iter().sum::<usize>();
    let mut k = 110usize;
    let mut s = 24usize;
    while k > 0 {
        // Decaying size, but never below 2 and never exceeding what is
        // left for the remaining clusters.
        let min_needed = 2 * (k - 1);
        let size = s.clamp(2, remaining.saturating_sub(min_needed).max(2));
        sizes.push(size);
        remaining -= size;
        k -= 1;
        if s > 2 && k.is_multiple_of(6) {
            s -= 1;
        }
        // Shrink faster near the tail so the sum lands exactly.
        if remaining <= 2 * k {
            s = 2;
        }
    }
    // 64 singletons.
    sizes.extend(std::iter::repeat_n(1, 64));
    debug_assert_eq!(sizes.iter().sum::<usize>(), 1879);
    debug_assert_eq!(sizes.len(), 182);
    sizes
}

/// A true paper, prior to citation-style variation.
struct Paper {
    authors: Vec<(String, String)>, // (first, last)
    title: String,
    venue: usize,
    volume: u32,
    pages: (u32, u32),
    year: u32,
    publisher: usize,
}

fn random_paper(rng: &mut Rng) -> Paper {
    let n_authors = rng.gen_range(1..=3);
    let authors = (0..n_authors)
        .map(|_| {
            (
                AUTHOR_FIRST[rng.gen_range(0..AUTHOR_FIRST.len())].to_owned(),
                AUTHOR_LAST[rng.gen_range(0..AUTHOR_LAST.len())].to_owned(),
            )
        })
        .collect();
    let n_words = rng.gen_range(4..=8);
    let title = (0..n_words)
        .map(|_| TITLE_WORDS[rng.gen_range(0..TITLE_WORDS.len())])
        .collect::<Vec<_>>()
        .join(" ");
    let start = rng.gen_range(1..400);
    Paper {
        authors,
        title,
        venue: rng.gen_range(0..VENUES.len()),
        volume: rng.gen_range(1..40),
        pages: (start, start + rng.gen_range(5..40)),
        year: rng.gen_range(1980..2000),
        publisher: rng.gen_range(0..PUBLISHERS.len()),
    }
}

/// Render one citation of a paper with style variation and errors.
fn cite(rng: &mut Rng, paper: &Paper) -> Vec<String> {
    let mut values = vec![String::new(); ATTRS.len()];

    // Authors: one of several common styles.
    let style = rng.gen_range(0..4u8);
    let authors = paper
        .authors
        .iter()
        .map(|(f, l)| match style {
            0 => format!("{f} {l}"),
            1 => format!("{} {l}", corrupt::initialize(f)),
            2 => format!("{l}, {}", corrupt::initialize(f)),
            _ => l.clone(),
        })
        .collect::<Vec<_>>()
        .join(match style {
            2 => "; ",
            _ => " AND ",
        });
    values[0] = authors;

    // Title with occasional corruption.
    let mut title = paper.title.clone();
    if rng.gen_bool(0.25) {
        title = typo(rng, &title);
    }
    if rng.gen_bool(0.15) {
        title = corrupt::drop_token(rng, &title);
    }
    if rng.gen_bool(0.3) {
        title = corrupt::title_case(&title);
    }
    values[1] = title;

    // Venue: full name, abbreviation, or split into journal/booktitle.
    let (full, abbr) = VENUES[paper.venue];
    match rng.gen_range(0..4u8) {
        0 => values[2] = full.to_owned(),
        1 => values[2] = abbr.to_owned(),
        2 => values[3] = full.to_owned(),       // journal
        _ => values[4] = format!("PROCEEDINGS OF {full}"), // booktitle
    }

    if rng.gen_bool(0.7) {
        values[5] = paper.volume.to_string();
    }
    if rng.gen_bool(0.8) {
        values[6] = match rng.gen_range(0..3u8) {
            0 => format!("{}-{}", paper.pages.0, paper.pages.1),
            1 => format!("PP. {}-{}", paper.pages.0, paper.pages.1),
            _ => format!("PAGES {} TO {}", paper.pages.0, paper.pages.1),
        };
    }
    // Year: occasionally wrong by one (citation errors are common).
    let year = if rng.gen_bool(0.05) {
        paper.year + rng.gen_range(0..2) * 2 - 1
    } else {
        paper.year
    };
    values[7] = year.to_string();
    if rng.gen_bool(0.2) {
        values[8] = ["JAN", "MAR", "JUN", "SEP", "DEC"][rng.gen_range(0..5)].to_owned();
    }
    if rng.gen_bool(0.5) {
        values[9] = PUBLISHERS[paper.publisher].to_owned();
    }
    if rng.gen_bool(0.15) {
        values[13] = "TO APPEAR".to_owned(); // note
    }
    if rng.gen_bool(0.1) {
        values[16] = format!("{year}");
    }
    values
}

/// Generate the Cora-like dataset.
pub fn generate(seed: u64) -> Dataset {
    let mut rng = Rng::seed_from_u64(seed ^ 0xC04A);
    let mut data = Dataset::new(ATTRS.iter().map(|s| (*s).to_owned()).collect());
    for (cluster, size) in cluster_sizes().into_iter().enumerate() {
        let paper = random_paper(&mut rng);
        for _ in 0..size {
            data.push(cite(&mut rng, &paper), cluster);
        }
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_published_characteristics() {
        let sizes = cluster_sizes();
        assert_eq!(sizes.len(), 182);
        assert_eq!(sizes.iter().sum::<usize>(), 1879);
        assert_eq!(*sizes.iter().max().unwrap(), 238);
        let non_singleton = sizes.iter().filter(|&&s| s >= 2).count();
        assert_eq!(non_singleton, 118);
        let pairs: usize = sizes.iter().map(|&s| s * (s - 1) / 2).sum();
        // Published: 64,578 — the synthetic distribution lands within 15%.
        assert!(
            (pairs as f64 - 64578.0).abs() / 64578.0 < 0.15,
            "pairs = {pairs}"
        );
    }

    #[test]
    fn dataset_counts() {
        let d = generate(1);
        assert_eq!(d.len(), 1879);
        assert_eq!(d.num_attrs(), 17);
        let gold = d.gold_pairs();
        assert!(gold.len() > 50_000);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = generate(7);
        let b = generate(7);
        assert_eq!(a.records[0].values, b.records[0].values);
        let c = generate(8);
        assert_ne!(
            a.records.iter().map(|r| &r.values).collect::<Vec<_>>(),
            c.records.iter().map(|r| &r.values).collect::<Vec<_>>()
        );
    }

    #[test]
    fn citations_of_one_paper_share_the_year_mostly() {
        let d = generate(2);
        // Take the biggest cluster and check years cluster tightly.
        let years: Vec<i32> = d
            .records
            .iter()
            .filter(|r| r.cluster == 0)
            .filter_map(|r| r.values[7].parse().ok())
            .collect();
        assert!(!years.is_empty());
        let min = years.iter().min().unwrap();
        let max = years.iter().max().unwrap();
        assert!(max - min <= 2, "years spread too far: {min}..{max}");
    }

    #[test]
    fn records_are_sparse_like_citations() {
        let d = generate(3);
        let empty_frac: f64 = d
            .records
            .iter()
            .map(|r| r.values.iter().filter(|v| v.is_empty()).count() as f64 / 17.0)
            .sum::<f64>()
            / d.len() as f64;
        assert!(empty_frac > 0.3, "citations should be sparse: {empty_frac}");
    }
}
