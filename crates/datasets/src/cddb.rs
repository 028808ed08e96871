//! A CDDB-like audio-CD dataset.
//!
//! The real CDDB benchmark contains 9,763 CD records over 7 attributes;
//! almost all clusters are singletons (9,508 clusters, only 221
//! non-singleton, 300 duplicate pairs, max size 6, 1.03 on average).
//! Duplicates differ in punctuation, casing, artist-token order
//! ("BEATLES, THE"), missing years and typos.

use nc_detect::dataset::Dataset;
use nc_votergen::errors::typo;
use nc_votergen::rng::Rng;

use crate::corrupt;

/// Attribute names (7, mirroring the CDDB schema).
pub const ATTRS: [&str; 7] = [
    "artist", "title", "category", "genre", "year", "tracks", "label",
];

const ARTIST_WORDS: &[&str] = &[
    "THE", "BLUE", "RED", "MIDNIGHT", "ELECTRIC", "VELVET", "SILVER", "GOLDEN", "BROKEN",
    "RISING", "FALLING", "WILD", "LONELY", "DANCING", "SCREAMING", "SILENT", "NEON", "COSMIC",
    "STONES", "BIRDS", "WOLVES", "RIDERS", "KINGS", "QUEENS", "SAINTS", "REBELS", "GHOSTS",
    "ANGELS", "TIGERS", "RAVENS",
];

const TITLE_WORDS: &[&str] = &[
    "LOVE", "NIGHT", "DAY", "DREAM", "HEART", "FIRE", "RAIN", "SUMMER", "WINTER", "ROAD",
    "HOME", "CITY", "OCEAN", "MOON", "SUN", "STAR", "SHADOW", "LIGHT", "TIME", "LIFE",
    "SONGS", "GREATEST", "HITS", "LIVE", "SESSIONS", "UNPLUGGED", "VOLUME", "COLLECTION",
];

const CATEGORIES: &[&str] = &["rock", "jazz", "classical", "blues", "country", "folk", "misc"];
const GENRES: &[&str] = &["ROCK", "JAZZ", "CLASSICAL", "BLUES", "COUNTRY", "FOLK", "POP"];
const LABELS: &[&str] = &["EMI", "COLUMBIA", "ATLANTIC", "DECCA", "VERVE", "SUBPOP", "MERGE"];

/// Cluster sizes reproducing the CDDB distribution: 9,508 clusters with
/// 194×2 + 23×3 + 2×4 + 1×5 + 1×6 non-singletons and 9,287 singletons →
/// 9,763 records, 300 duplicate pairs.
pub fn cluster_sizes() -> Vec<usize> {
    let mut sizes = Vec::with_capacity(9508);
    sizes.push(6);
    sizes.push(5);
    sizes.extend(std::iter::repeat_n(4, 2));
    sizes.extend(std::iter::repeat_n(3, 23));
    sizes.extend(std::iter::repeat_n(2, 194));
    sizes.extend(std::iter::repeat_n(1, 9287));
    sizes
}

struct TrueCd {
    artist: String,
    title: String,
    category: usize,
    year: u32,
    tracks: u32,
    label: usize,
}

fn random_cd(rng: &mut Rng) -> TrueCd {
    let artist = {
        let n = rng.gen_range(1..=3);
        (0..n)
            .map(|_| ARTIST_WORDS[rng.gen_range(0..ARTIST_WORDS.len())])
            .collect::<Vec<_>>()
            .join(" ")
    };
    let title = {
        let n = rng.gen_range(1..=4);
        (0..n)
            .map(|_| TITLE_WORDS[rng.gen_range(0..TITLE_WORDS.len())])
            .collect::<Vec<_>>()
            .join(" ")
    };
    TrueCd {
        artist,
        title,
        category: rng.gen_range(0..CATEGORIES.len()),
        year: rng.gen_range(1960..2005),
        tracks: rng.gen_range(6..22),
        label: rng.gen_range(0..LABELS.len()),
    }
}

fn render(rng: &mut Rng, cd: &TrueCd, is_duplicate: bool) -> Vec<String> {
    let mut artist = cd.artist.clone();
    let mut title = cd.title.clone();
    let mut year = cd.year.to_string();

    if is_duplicate {
        // "THE X" ↔ "X, THE" style flips.
        if artist.starts_with("THE ") && rng.gen_bool(0.4) {
            artist = format!("{}, THE", &artist[4..]);
        } else if rng.gen_bool(0.25) {
            artist = corrupt::swap_tokens(rng, &artist);
        }
        if rng.gen_bool(0.35) {
            title = corrupt::title_case(&title);
        }
        if rng.gen_bool(0.3) {
            title = corrupt::repunctuate(rng, &title);
        }
        if rng.gen_bool(0.25) {
            title = typo(rng, &title);
        }
        if rng.gen_bool(0.3) {
            year = String::new();
        }
    }
    vec![
        artist,
        title,
        CATEGORIES[cd.category].to_owned(),
        GENRES[cd.category].to_owned(),
        year,
        cd.tracks.to_string(),
        LABELS[cd.label].to_owned(),
    ]
}

/// Generate the CDDB-like dataset.
pub fn generate(seed: u64) -> Dataset {
    let mut rng = Rng::seed_from_u64(seed ^ 0xCDDB);
    let mut data = Dataset::new(ATTRS.iter().map(|s| (*s).to_owned()).collect());
    for (cluster, size) in cluster_sizes().into_iter().enumerate() {
        let cd = random_cd(&mut rng);
        for i in 0..size {
            data.push(render(&mut rng, &cd, i > 0), cluster);
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
        assert_eq!(sizes.len(), 9508);
        assert_eq!(sizes.iter().sum::<usize>(), 9763);
        assert_eq!(*sizes.iter().max().unwrap(), 6);
        assert_eq!(sizes.iter().filter(|&&s| s >= 2).count(), 221);
        let pairs: usize = sizes.iter().map(|&s| s * (s - 1) / 2).sum();
        assert_eq!(pairs, 300);
        let avg: f64 = 9763.0 / 9508.0;
        assert!((avg - 1.03).abs() < 0.01);
    }

    #[test]
    fn dataset_counts() {
        let d = generate(1);
        assert_eq!(d.len(), 9763);
        assert_eq!(d.num_attrs(), 7);
        assert_eq!(d.gold_pairs().len(), 300);
    }

    #[test]
    fn duplicates_keep_category_and_tracks() {
        let d = generate(2);
        for p in d.gold_pairs().iter().take(50) {
            let a = &d.records[p.0].values;
            let b = &d.records[p.1].values;
            assert_eq!(a[2], b[2], "category is stable");
            assert_eq!(a[5], b[5], "track count is stable");
        }
    }

    #[test]
    fn the_flip_occurs() {
        let d = generate(3);
        let flipped = d
            .records
            .iter()
            .filter(|r| r.values[0].ends_with(", THE"))
            .count();
        assert!(flipped > 0, "expected some 'X, THE' artists");
    }

    #[test]
    fn deterministic_in_seed() {
        assert_eq!(generate(4).records[42].values, generate(4).records[42].values);
    }
}
