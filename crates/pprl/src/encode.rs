//! Field-level record encoders: CLK Bloom filters and keyed
//! exact-hash tokens.
//!
//! A [`RecordEncoder`] maps one voter [`Row`] into an
//! [`EncodedRecord`] under a fixed [`EncodingParams`]:
//!
//! * **CLK fields** (names, street, city — anything duplicates
//!   misspell): the normalized value's q-grams are hashed by `k`
//!   keyed hash functions into a `bits`-wide Bloom filter, using the
//!   double-hashing scheme `idx_i = (h1 + i·h2) mod bits` so only two
//!   base hashes are computed per gram. Encoded-space Dice over two
//!   CLKs tracks plaintext q-gram Dice (property-tested in
//!   `tests/fidelity.rs`).
//! * **Exact fields** (codes, zip, phone — fields matched only on
//!   equality): one keyed 64-bit hash of the normalized value.
//!   Equality is preserved under a fixed key, nothing else.
//! * Everything else (meta dates, derived age fields, the redundant
//!   description columns) is dropped from the encoding entirely.
//!
//! Every hash descends from the linkage key through the HMAC-style
//! salt chain in [`crate::hashing`]: encodings are byte-reproducible
//! for a fixed `(key, params)` and unlinkable across keys. The salts
//! also absorb the parameter rendering, so the *same* key with
//! different `(bits, k, q)` produces unrelated bit patterns rather
//! than truncations of each other.

use nc_votergen::schema::{
    self, AttrId, Row, BIRTH_PLACE, COUNTY_ID, DRIVERS_LIC, FIRST_NAME, FULL_PHONE, LAST_NAME,
    MAIL_ADDR1, MIDL_NAME, NAME_SUFX, PARTY_CD, RACE_CODE, RES_CITY, RES_STREET, SEX_CODE,
    ZIP_CODE,
};

use crate::bitset::Bitset;
use crate::hashing::{derive_salt, keyed_hash};

/// Version tag baked into every salt derivation. Bump it when the
/// encoding semantics change so old and new encodings never mix.
pub const ENCODING_VERSION: &str = "clk1";

/// The reproducibility contract of one encoded dataset: the linkage
/// key plus the CLK geometry. Two encoders with equal params produce
/// byte-identical encodings for the same rows; differing in any field
/// (including the key) produces unrelated encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EncodingParams {
    /// The linkage key. Holders of the key can re-encode plaintext to
    /// probe membership; everyone else sees only bit patterns.
    pub key: u64,
    /// CLK width in bits (a positive multiple of 64, at most 65536).
    pub bits: u32,
    /// Hash functions per q-gram (`k` in Bloom-filter terms), 1..=64.
    pub hashes: u32,
    /// Gram size for the CLK fields, 1..=8 (2 = the PPRL-standard
    /// bigram choice).
    pub q: u32,
}

impl Default for EncodingParams {
    fn default() -> Self {
        EncodingParams {
            key: 0,
            bits: 1024,
            hashes: 10,
            q: 2,
        }
    }
}

impl EncodingParams {
    /// Validate the geometry; the error names the offending knob.
    pub fn validate(&self) -> Result<(), String> {
        if self.bits == 0 || !self.bits.is_multiple_of(64) || self.bits > 65_536 {
            return Err(format!(
                "bits must be a positive multiple of 64 up to 65536, got {}",
                self.bits
            ));
        }
        if self.hashes == 0 || self.hashes > 64 {
            return Err(format!("hashes must be in 1..=64, got {}", self.hashes));
        }
        if self.q == 0 || self.q > 8 {
            return Err(format!("q must be in 1..=8, got {}", self.q));
        }
        Ok(())
    }

    /// The canonical parameter rendering, used both as a salt label
    /// (so geometry changes re-derive every salt) and by the serve
    /// layer's cache-fingerprint grammar.
    pub fn canonical(&self) -> String {
        format!(
            "enc={}|key={}|bits={}|k={}|q={}",
            ENCODING_VERSION, self.key, self.bits, self.hashes, self.q
        )
    }
}

/// How one attribute is encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    /// q-gram CLK Bloom filter (fuzzy-comparable in encoded space).
    Clk,
    /// Keyed exact-hash token (equality-comparable only).
    Exact,
}

/// The per-field encoding plan: which attributes are encoded and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldPlan {
    fields: Vec<(AttrId, FieldKind)>,
}

impl FieldPlan {
    /// The default voter plan: CLKs over the error-prone free-text
    /// fields, exact tokens over the code-like match-only fields,
    /// everything meta/derived dropped.
    pub fn voter_default() -> Self {
        FieldPlan {
            fields: vec![
                (LAST_NAME, FieldKind::Clk),
                (FIRST_NAME, FieldKind::Clk),
                (MIDL_NAME, FieldKind::Clk),
                (RES_STREET, FieldKind::Clk),
                (RES_CITY, FieldKind::Clk),
                (MAIL_ADDR1, FieldKind::Clk),
                (NAME_SUFX, FieldKind::Exact),
                (SEX_CODE, FieldKind::Exact),
                (RACE_CODE, FieldKind::Exact),
                (BIRTH_PLACE, FieldKind::Exact),
                (ZIP_CODE, FieldKind::Exact),
                (COUNTY_ID, FieldKind::Exact),
                (FULL_PHONE, FieldKind::Exact),
                (PARTY_CD, FieldKind::Exact),
                (DRIVERS_LIC, FieldKind::Exact),
            ],
        }
    }

    /// A custom plan. Panics when an attribute id is out of schema
    /// range or listed twice — plans are static configuration.
    pub fn new(fields: Vec<(AttrId, FieldKind)>) -> Self {
        let mut seen = [false; schema::NUM_ATTRS];
        for &(attr, _) in &fields {
            assert!(attr < schema::NUM_ATTRS, "attribute id out of range");
            assert!(!seen[attr], "attribute listed twice in the plan");
            seen[attr] = true;
        }
        FieldPlan { fields }
    }

    /// The planned fields in encoding order.
    pub fn fields(&self) -> &[(AttrId, FieldKind)] {
        &self.fields
    }
}

/// One encoded attribute value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodedField {
    /// A CLK Bloom-filter encoding.
    Clk(Bitset),
    /// A keyed exact-hash token.
    Exact(u64),
}

/// One encoded record: the linkage token of its NCID, the composite
/// record-level CLK (the OR of every field CLK — the classic
/// "cryptographic long-term key" used for blocking), and the per-field
/// encodings in plan order. Empty attribute values are omitted, like
/// the plaintext JSON rendering omits them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedRecord {
    /// Keyed exact-hash of the record's NCID. Equal tokens ⇔ equal
    /// NCIDs under one key; across keys the tokens are unlinkable.
    pub ncid_token: u64,
    /// OR of every present field CLK — the blocking/record-level CLK.
    pub record_clk: Bitset,
    /// Per-field encodings, `(attr, encoding)` in plan order, empty
    /// values omitted.
    pub fields: Vec<(AttrId, EncodedField)>,
}

/// Reusable working memory for the encoder: the normalization buffer.
/// One per thread, like `nc_similarity::Scratch`.
#[derive(Debug, Default)]
pub struct EncodeScratch {
    norm: String,
}

impl EncodeScratch {
    /// An empty scratch; the buffer grows on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Per-field derived salts.
#[derive(Debug, Clone, Copy)]
struct FieldSalts {
    h1: u64,
    h2: u64,
}

/// The record encoder: a [`FieldPlan`] with every salt pre-derived.
#[derive(Debug, Clone)]
pub struct RecordEncoder {
    params: EncodingParams,
    plan: FieldPlan,
    salts: Vec<FieldSalts>,
    ncid_salt: u64,
}

impl RecordEncoder {
    /// An encoder over the default voter plan.
    ///
    /// # Panics
    /// When the parameters fail [`EncodingParams::validate`].
    pub fn new(params: EncodingParams) -> Self {
        Self::with_plan(params, FieldPlan::voter_default())
    }

    /// An encoder over a custom plan.
    pub fn with_plan(params: EncodingParams, plan: FieldPlan) -> Self {
        if let Err(why) = params.validate() {
            panic!("invalid encoding parameters: {why}");
        }
        let geometry = params.canonical();
        let salts = plan
            .fields()
            .iter()
            .map(|&(attr, _)| {
                let name = schema::SCHEMA[attr].name.as_bytes();
                FieldSalts {
                    h1: derive_salt(params.key, &[geometry.as_bytes(), name, b"h1"]),
                    h2: derive_salt(params.key, &[geometry.as_bytes(), name, b"h2"]),
                }
            })
            .collect();
        let ncid_salt = derive_salt(params.key, &[geometry.as_bytes(), b"ncid", b"token"]);
        RecordEncoder {
            params,
            plan,
            salts,
            ncid_salt,
        }
    }

    /// The parameters this encoder was built with.
    pub fn params(&self) -> &EncodingParams {
        &self.params
    }

    /// The field plan this encoder applies.
    pub fn plan(&self) -> &FieldPlan {
        &self.plan
    }

    /// The linkage token of an NCID (also used for gold labels).
    pub fn ncid_token(&self, ncid: &str) -> u64 {
        keyed_hash(self.ncid_salt, ncid.trim().as_bytes())
    }

    /// Encode one row.
    pub fn encode_row(&self, row: &Row, scratch: &mut EncodeScratch) -> EncodedRecord {
        let mut fields = Vec::with_capacity(self.plan.fields().len());
        let mut record_clk = Bitset::zero(self.params.bits);
        for (&(attr, kind), salts) in self.plan.fields().iter().zip(&self.salts) {
            normalize_into(row.get(attr), &mut scratch.norm);
            if scratch.norm.is_empty() {
                continue;
            }
            match kind {
                FieldKind::Clk => {
                    let mut clk = Bitset::zero(self.params.bits);
                    self.clk_into(salts, &scratch.norm, &mut clk);
                    record_clk.union_with(&clk);
                    fields.push((attr, EncodedField::Clk(clk)));
                }
                FieldKind::Exact => {
                    fields.push((
                        attr,
                        EncodedField::Exact(keyed_hash(salts.h1, scratch.norm.as_bytes())),
                    ));
                }
            }
        }
        EncodedRecord {
            ncid_token: self.ncid_token(row.ncid()),
            record_clk,
            fields,
        }
    }

    /// Encode one already-normalized value into `out` (cleared first)
    /// under the salts of plan position `field_index`. Exposed so the
    /// fidelity suite and benches can encode single values without a
    /// whole row.
    pub fn encode_value(&self, field_index: usize, normalized: &str, out: &mut Bitset) {
        out.clear();
        self.clk_into(&self.salts[field_index], normalized, out);
    }

    /// Set the CLK bits of every q-gram of `normalized`.
    fn clk_into(&self, salts: &FieldSalts, normalized: &str, out: &mut Bitset) {
        let bits = self.params.bits;
        for_each_gram(normalized, self.params.q as usize, |gram| {
            let h1 = keyed_hash(salts.h1, gram);
            // Odd h2 is never ≡ 0 mod the (even) width, so the k
            // probes always span k distinct residues when k ≤ bits.
            let h2 = keyed_hash(salts.h2, gram) | 1;
            for i in 0..u64::from(self.params.hashes) {
                let idx = (h1.wrapping_add(i.wrapping_mul(h2)) % u64::from(bits)) as u32;
                out.set(idx);
            }
        });
    }
}

/// Blocking-style normalization: trim + uppercase, with an ASCII fast
/// path. Matches the normalization the detection index applies, so
/// encoded-space and plaintext pipelines see the same tokens.
pub fn normalize_into(raw: &str, out: &mut String) {
    out.clear();
    let trimmed = raw.trim();
    if trimmed.is_ascii() {
        out.reserve(trimmed.len());
        for &b in trimmed.as_bytes() {
            out.push(b.to_ascii_uppercase() as char);
        }
    } else {
        for c in trimmed.chars() {
            out.extend(c.to_uppercase());
        }
    }
}

/// Visit every q-gram of a normalized value as a byte slice: windows
/// of `q` characters (byte windows on the ASCII fast path), the whole
/// value when shorter than `q`, nothing when empty. Same gram
/// semantics as the detection index, so plaintext q-gram Dice and
/// encoded Dice are computed over the same gram sets.
pub fn for_each_gram(value: &str, q: usize, mut f: impl FnMut(&[u8])) {
    let q = q.max(1);
    if value.is_empty() {
        return;
    }
    let bytes = value.as_bytes();
    if value.is_ascii() {
        if bytes.len() < q {
            f(bytes);
        } else {
            for w in bytes.windows(q) {
                f(w);
            }
        }
        return;
    }
    let bounds: Vec<usize> = value
        .char_indices()
        .map(|(i, _)| i)
        .chain(std::iter::once(value.len()))
        .collect();
    let chars = bounds.len() - 1;
    if chars < q {
        f(bytes);
    } else {
        for s in 0..=(chars - q) {
            f(&bytes[bounds[s]..bounds[s + q]]);
        }
    }
}

/// Plaintext q-gram *set* Dice between two already-normalized values:
/// `2·|A∩B| / (|A| + |B|)` over the distinct-gram sets — the quantity
/// a CLK Dice estimates. The fidelity property suite bounds the
/// absolute error between this and [`crate::kernels::dice`].
pub fn plaintext_qgram_dice(a: &str, b: &str, q: usize) -> f64 {
    let mut ga: Vec<Vec<u8>> = Vec::new();
    for_each_gram(a, q, |g| ga.push(g.to_vec()));
    ga.sort_unstable();
    ga.dedup();
    let mut gb: Vec<Vec<u8>> = Vec::new();
    for_each_gram(b, q, |g| gb.push(g.to_vec()));
    gb.sort_unstable();
    gb.dedup();
    if ga.is_empty() && gb.is_empty() {
        return 1.0;
    }
    let inter = ga.iter().filter(|g| gb.binary_search(g).is_ok()).count();
    2.0 * inter as f64 / (ga.len() + gb.len()) as f64
}

/// Render one encoded record as a labeled JSON line:
/// `{"cluster":N,"ncid_token":"…","record_clk":"…","clk":{…},"exact":{…}}`.
/// Hand-rolled like every other renderer in the workspace; all values
/// are hex or decimal, so no JSON escaping is ever needed.
pub fn render_encoded_record(cluster: usize, record: &EncodedRecord) -> String {
    let mut line = String::with_capacity(64 + record.record_clk.words().len() * 20);
    line.push_str("{\"cluster\":");
    line.push_str(&cluster.to_string());
    line.push_str(",\"ncid_token\":\"");
    line.push_str(&format!("{:016x}", record.ncid_token));
    line.push_str("\",\"record_clk\":\"");
    record.record_clk.hex_into(&mut line);
    line.push('"');

    let mut first = true;
    for (attr, field) in &record.fields {
        if let EncodedField::Clk(clk) = field {
            line.push_str(if first { ",\"clk\":{" } else { "," });
            first = false;
            line.push('"');
            line.push_str(schema::SCHEMA[*attr].name);
            line.push_str("\":\"");
            clk.hex_into(&mut line);
            line.push('"');
        }
    }
    if !first {
        line.push('}');
    }

    let mut first = true;
    for (attr, field) in &record.fields {
        if let EncodedField::Exact(token) = field {
            line.push_str(if first { ",\"exact\":{" } else { "," });
            first = false;
            line.push('"');
            line.push_str(schema::SCHEMA[*attr].name);
            line.push_str("\":\"");
            line.push_str(&format!("{token:016x}"));
            line.push('"');
        }
    }
    if !first {
        line.push('}');
    }
    line.push('}');
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_votergen::schema::{AGE, FIRST_NAME, LAST_NAME, NCID, SEX_CODE};

    fn row(ncid: &str, first: &str, last: &str) -> Row {
        let mut r = Row::empty();
        r.set(NCID, ncid);
        r.set(FIRST_NAME, first);
        r.set(LAST_NAME, last);
        r.set(SEX_CODE, "F");
        r
    }

    #[test]
    fn validation_rejects_bad_geometry() {
        let mut p = EncodingParams::default();
        assert!(p.validate().is_ok());
        p.bits = 100;
        assert!(p.validate().is_err());
        p.bits = 0;
        assert!(p.validate().is_err());
        p = EncodingParams {
            hashes: 0,
            ..Default::default()
        };
        assert!(p.validate().is_err());
        p = EncodingParams {
            q: 9,
            ..Default::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn encoding_is_deterministic_for_a_fixed_key() {
        let enc = RecordEncoder::new(EncodingParams::default());
        let mut s1 = EncodeScratch::new();
        let mut s2 = EncodeScratch::new();
        let r = row("C1", "PATRICIA", "SMITH");
        assert_eq!(enc.encode_row(&r, &mut s1), enc.encode_row(&r, &mut s2));
    }

    #[test]
    fn different_keys_produce_unrelated_encodings() {
        let a = RecordEncoder::new(EncodingParams {
            key: 1,
            ..Default::default()
        });
        let b = RecordEncoder::new(EncodingParams {
            key: 2,
            ..Default::default()
        });
        let mut scratch = EncodeScratch::new();
        let r = row("C1", "PATRICIA", "SMITH");
        let ea = a.encode_row(&r, &mut scratch);
        let eb = b.encode_row(&r, &mut scratch);
        assert_ne!(ea.ncid_token, eb.ncid_token);
        assert_ne!(ea.record_clk, eb.record_clk);
    }

    #[test]
    fn geometry_changes_rederive_salts_not_truncate() {
        let wide = RecordEncoder::new(EncodingParams {
            bits: 2048,
            ..Default::default()
        });
        let narrow = RecordEncoder::new(EncodingParams {
            bits: 1024,
            ..Default::default()
        });
        let mut scratch = EncodeScratch::new();
        let r = row("C1", "PATRICIA", "SMITH");
        let ew = wide.encode_row(&r, &mut scratch);
        let en = narrow.encode_row(&r, &mut scratch);
        // Same key, different width: even the exact-hash tokens (which
        // do not depend on the width arithmetically) must differ,
        // because the geometry is absorbed into every salt.
        assert_ne!(ew.ncid_token, en.ncid_token);
    }

    #[test]
    fn empty_fields_are_omitted() {
        let enc = RecordEncoder::new(EncodingParams::default());
        let mut scratch = EncodeScratch::new();
        let r = row("C1", "", "SMITH");
        let e = enc.encode_row(&r, &mut scratch);
        assert!(e.fields.iter().all(|&(attr, _)| attr != FIRST_NAME));
        assert!(e.fields.iter().any(|&(attr, _)| attr == LAST_NAME));
    }

    #[test]
    fn similar_values_share_more_bits_than_dissimilar() {
        let enc = RecordEncoder::new(EncodingParams::default());
        let last = 0usize; // plan position of last_name
        let mut a = Bitset::zero(1024);
        let mut b = Bitset::zero(1024);
        let mut c = Bitset::zero(1024);
        enc.encode_value(last, "WILLIAMS", &mut a);
        enc.encode_value(last, "WILLIAMSON", &mut b);
        enc.encode_value(last, "KRZYZEWSKI", &mut c);
        let near = crate::kernels::dice_bitset(&a, &b);
        let far = crate::kernels::dice_bitset(&a, &c);
        assert!(near > far, "near {near} vs far {far}");
        assert!(near > 0.7, "near {near}");
        assert!(far < 0.35, "far {far}");
    }

    #[test]
    fn record_clk_is_the_union_of_field_clks() {
        let enc = RecordEncoder::new(EncodingParams::default());
        let mut scratch = EncodeScratch::new();
        let e = enc.encode_row(&row("C1", "PATRICIA", "SMITH"), &mut scratch);
        let mut union = Bitset::zero(1024);
        for (_, field) in &e.fields {
            if let EncodedField::Clk(clk) = field {
                union.union_with(clk);
            }
        }
        assert_eq!(union, e.record_clk);
    }

    #[test]
    fn custom_plan_rejects_duplicates_and_bad_ids() {
        let plan = FieldPlan::new(vec![(LAST_NAME, FieldKind::Clk)]);
        assert_eq!(plan.fields().len(), 1);
        assert!(std::panic::catch_unwind(|| {
            FieldPlan::new(vec![(LAST_NAME, FieldKind::Clk), (LAST_NAME, FieldKind::Exact)])
        })
        .is_err());
        assert!(std::panic::catch_unwind(|| {
            FieldPlan::new(vec![(schema::NUM_ATTRS, FieldKind::Clk)])
        })
        .is_err());
    }

    #[test]
    fn default_plan_skips_meta_and_derived_fields() {
        let plan = FieldPlan::voter_default();
        assert!(plan.fields().iter().all(|&(attr, _)| attr != AGE));
        assert!(plan.fields().iter().all(|&(attr, _)| attr != NCID));
    }

    #[test]
    fn rendering_is_labeled_hex_json() {
        let enc = RecordEncoder::new(EncodingParams {
            bits: 64,
            ..Default::default()
        });
        let mut scratch = EncodeScratch::new();
        let e = enc.encode_row(&row("C1", "PAT", "SMITH"), &mut scratch);
        let line = render_encoded_record(3, &e);
        assert!(line.starts_with("{\"cluster\":3,\"ncid_token\":\""));
        assert!(line.contains("\"record_clk\":\""));
        assert!(line.contains("\"clk\":{\"last_name\":\""));
        assert!(line.contains("\"exact\":{"));
        assert!(line.contains("\"sex_code\":\""));
        assert!(line.ends_with("}}"));
        // No plaintext leaks into the line.
        assert!(!line.contains("PAT") && !line.contains("SMITH") && !line.contains("C1"));
    }

    #[test]
    fn normalization_matches_detection_semantics() {
        let mut out = String::new();
        normalize_into("  smith  ", &mut out);
        assert_eq!(out, "SMITH");
        normalize_into("müller", &mut out);
        assert_eq!(out, "MÜLLER");
        normalize_into("   ", &mut out);
        assert_eq!(out, "");
    }

    #[test]
    fn plaintext_dice_reference_values() {
        assert_eq!(plaintext_qgram_dice("", "", 2), 1.0);
        assert_eq!(plaintext_qgram_dice("AB", "AB", 2), 1.0);
        assert_eq!(plaintext_qgram_dice("AB", "CD", 2), 0.0);
        // SMITH: {SM,MI,IT,TH}; SMYTH: {SM,MY,YT,TH} → 2·2/8 = 0.5.
        assert_eq!(plaintext_qgram_dice("SMITH", "SMYTH", 2), 0.5);
    }
}
