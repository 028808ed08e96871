//! Record canonicalization: trimming, fingerprinting and the nested
//! document view of a record.

use std::ops::Range;

use nc_docstore::value::Document;
use nc_votergen::schema::{AttrGroup, AttrId, Attribute, Row, NUM_ATTRS, SCHEMA};

use crate::md5::{md5, Digest};

/// The four duplicate-removal policies of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DedupPolicy {
    /// Keep every row ("no" in Table 2).
    None,
    /// Remove rows whose relevant attributes are byte-identical.
    Exact,
    /// Remove rows identical after trimming whitespace — the policy
    /// behind the published 120 M-record dataset.
    Trimmed,
    /// Remove rows whose trimmed *person data* is identical.
    PersonData,
}

impl DedupPolicy {
    /// All policies in Table 2 order.
    pub const ALL: [DedupPolicy; 4] = [
        DedupPolicy::None,
        DedupPolicy::Exact,
        DedupPolicy::Trimmed,
        DedupPolicy::PersonData,
    ];

    /// Human-readable label matching Table 2's first column.
    pub fn label(self) -> &'static str {
        match self {
            DedupPolicy::None => "no",
            DedupPolicy::Exact => "exact",
            DedupPolicy::Trimmed => "trimming",
            DedupPolicy::PersonData => "person data",
        }
    }

    /// Whether an attribute is hashed under this policy (dates and age
    /// never are; Section 4).
    pub fn hashes(self, attr: &Attribute) -> bool {
        !attr.hash_excluded
            && (self != DedupPolicy::PersonData || attr.group == AttrGroup::Person)
    }

    /// Whether values are trimmed before hashing.
    pub fn trims(self) -> bool {
        matches!(self, DedupPolicy::Trimmed | DedupPolicy::PersonData)
    }

    /// The attributes this policy hashes, as maximal runs of adjacent
    /// attribute ids in schema order (see [`Row::run`]).
    pub fn hashed_runs(self) -> &'static [Range<AttrId>] {
        let (runs, len) = match self {
            DedupPolicy::PersonData => &PERSON_RUNS,
            _ => &ALL_RUNS,
        };
        &runs[..*len]
    }
}

/// The maximal runs of hashed attributes, derived from [`SCHEMA`] the
/// way [`DedupPolicy::hashes`] selects them, and how many there are.
type Runs = ([Range<AttrId>; NUM_ATTRS], usize);

static ALL_RUNS: Runs = hashed_runs(false);
static PERSON_RUNS: Runs = hashed_runs(true);

const fn hashed_runs(person_only: bool) -> Runs {
    let mut runs = [const { 0..0 }; NUM_ATTRS];
    let mut len = 0;
    let mut id = 0;
    while id < NUM_ATTRS {
        let attr = &SCHEMA[id];
        let hashed = !attr.hash_excluded && (!person_only || matches!(attr.group, AttrGroup::Person));
        if hashed {
            if len > 0 && runs[len - 1].end == id {
                runs[len - 1].end = id + 1;
            } else {
                runs[len] = id..id + 1;
                len += 1;
            }
        }
        id += 1;
    }
    (runs, len)
}

/// Bytes of hash input [`fingerprint`] assembles on the stack; a
/// longer input goes to the heap.
const FINGERPRINT_STACK_BYTES: usize = 512;

/// Compute the dedup fingerprint of a row under a policy: the MD5 of the
/// concatenation of the relevant attribute values, each followed by an
/// unambiguous delimiter (the unit separator `0x1f`, which cannot occur
/// in the data).
///
/// The hash input is written into one buffer and hashed in one call.
/// Each run's untrimmed length plus one delimiter per value bounds the
/// input, so the buffer is the stack array whenever that bound fits.
pub fn fingerprint(row: &Row, policy: DedupPolicy) -> Digest {
    let runs = policy.hashed_runs();
    let bound: usize = runs.iter().map(|ids| row.run(ids.clone()).len() + 1).sum();
    let mut stack = [0u8; FINGERPRINT_STACK_BYTES];
    let mut heap = Vec::new();
    let buf = if bound <= stack.len() {
        &mut stack[..]
    } else {
        heap.resize(bound, 0);
        &mut heap[..]
    };
    let mut at = 0;
    for id in runs.iter().flat_map(Clone::clone) {
        let v = row.get(id);
        let v = if policy.trims() { v.trim() } else { v };
        buf[at..at + v.len()].copy_from_slice(v.as_bytes());
        buf[at + v.len()] = 0x1f;
        at += v.len() + 1;
    }
    md5(&buf[..at])
}

/// Whether `row` repeats `stored`, a record kept under `policy` (so
/// already trimmed when the policy trims): every hashed value of `row`,
/// normalized as [`fingerprint`] normalizes it, equals the stored one.
/// Equal values are equal hash input, so this implies equal
/// fingerprints at a fraction of the cost.
///
/// Each run of hashed attributes is compared as one slice of the line;
/// equal runs mean equal values, because no value contains a tab. Only
/// a run that differs is compared value by value.
pub fn repeats(row: &Row, stored: &Row, policy: DedupPolicy) -> bool {
    policy.hashed_runs().iter().all(|ids| {
        row.run(ids.clone()) == stored.run(ids.clone())
            || ids.clone().all(|id| {
                // Most values arrive as they are stored: trim on a
                // mismatch only.
                let (v, kept) = (row.get(id), stored.get(id));
                v == kept || (policy.trims() && v.trim() == kept)
            })
    })
}

/// Trim every value of a row in place (the paper's preparation step).
pub fn trim_row(row: &mut Row) {
    row.trim_values();
}

/// The nested document view of a record: four sub-documents
/// (person/district/election/meta), with missing values omitted so
/// that sparse records stay small.
pub fn row_to_document(row: &Row) -> Document {
    let mut person = Document::new();
    let mut district = Document::new();
    let mut election = Document::new();
    let mut meta = Document::new();
    for (attr, v) in SCHEMA.iter().zip(row.values()) {
        if v.is_empty() {
            continue;
        }
        let target = match attr.group {
            AttrGroup::Person => &mut person,
            AttrGroup::District => &mut district,
            AttrGroup::Election => &mut election,
            AttrGroup::Meta => &mut meta,
        };
        target.set(attr.name, v);
    }
    let mut doc = Document::new();
    doc.set("person", person);
    doc.set("district", district);
    doc.set("election", election);
    doc.set("meta", meta);
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_votergen::schema::{AGE, FIRST_NAME, LAST_NAME, NCID, NC_HOUSE, SNAPSHOT_DT};

    fn sample_row() -> Row {
        let mut r = Row::empty();
        r.set(NCID, "AA000001");
        r.set(LAST_NAME, "SMITH ");
        r.set(FIRST_NAME, "JOHN");
        r.set(AGE, "44");
        r.set(NC_HOUSE, "64TH HOUSE");
        r.set(SNAPSHOT_DT, "2008-11-04");
        r
    }

    #[test]
    fn policy_labels_match_table2() {
        let labels: Vec<&str> = DedupPolicy::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels, vec!["no", "exact", "trimming", "person data"]);
    }

    /// The runs are the maximal stretches of attributes `hashes`
    /// selects: 0–4, 6–21, 23–38 and 40 for the whole record, 0–4 and
    /// 6–21 for person data.
    #[test]
    fn hashed_runs_partition_the_hashed_attributes() {
        let all = [0..5, 6..22, 23..39, 40..41];
        let person = [0..5, 6..22];
        for policy in DedupPolicy::ALL {
            let runs = policy.hashed_runs();
            let expected: &[Range<AttrId>] =
                if policy == DedupPolicy::PersonData { &person } else { &all };
            assert_eq!(runs, expected, "{policy:?}");
            let hashed: Vec<AttrId> =
                (0..NUM_ATTRS).filter(|&id| policy.hashes(&SCHEMA[id])).collect();
            let covered: Vec<AttrId> = runs.iter().flat_map(Clone::clone).collect();
            assert_eq!(covered, hashed, "{policy:?}");
            assert!(runs.windows(2).all(|w| w[0].end < w[1].start), "{policy:?}: maximal");
        }
    }

    #[test]
    fn fingerprint_ignores_dates_and_age() {
        let r1 = sample_row();
        let mut r2 = sample_row();
        r2.set(AGE, "45");
        r2.set(SNAPSHOT_DT, "2009-01-01");
        for policy in [DedupPolicy::Exact, DedupPolicy::Trimmed, DedupPolicy::PersonData] {
            assert_eq!(fingerprint(&r1, policy), fingerprint(&r2, policy), "{policy:?}");
        }
    }

    /// The streamed fingerprint is the MD5 of the plain definition:
    /// hashed values, each followed by a unit separator, concatenated.
    #[test]
    fn fingerprint_equals_md5_of_the_concatenated_values() {
        let mut row = sample_row();
        row.set(nc_votergen::schema::PARTY_CD, " DEM");
        row.set(nc_votergen::schema::RES_STREET, "12 ÅNGSTRÖM WAY  ");
        for policy in DedupPolicy::ALL {
            let mut input = String::new();
            for (attr, v) in SCHEMA.iter().zip(row.values()) {
                let person_only = policy == DedupPolicy::PersonData;
                if attr.hash_excluded || (person_only && attr.group != AttrGroup::Person) {
                    continue;
                }
                input.push_str(if policy.trims() { v.trim() } else { v });
                input.push('\u{1f}');
            }
            assert_eq!(fingerprint(&row, policy), crate::md5::md5_str(&input), "{policy:?}");
        }
    }

    #[test]
    fn exact_fingerprint_sees_whitespace_trimmed_does_not() {
        let r1 = sample_row();
        let mut r2 = sample_row();
        r2.set(LAST_NAME, "SMITH"); // r1 has a trailing space
        assert_ne!(fingerprint(&r1, DedupPolicy::Exact), fingerprint(&r2, DedupPolicy::Exact));
        assert_eq!(
            fingerprint(&r1, DedupPolicy::Trimmed),
            fingerprint(&r2, DedupPolicy::Trimmed)
        );
    }

    #[test]
    fn person_fingerprint_ignores_districts() {
        let r1 = sample_row();
        let mut r2 = sample_row();
        r2.set(NC_HOUSE, "NC HOUSE DISTRICT 64");
        assert_ne!(
            fingerprint(&r1, DedupPolicy::Trimmed),
            fingerprint(&r2, DedupPolicy::Trimmed)
        );
        assert_eq!(
            fingerprint(&r1, DedupPolicy::PersonData),
            fingerprint(&r2, DedupPolicy::PersonData)
        );
    }

    #[test]
    fn fingerprint_separator_prevents_concatenation_ambiguity() {
        let mut r1 = Row::empty();
        r1.set(LAST_NAME, "AB");
        r1.set(FIRST_NAME, "C");
        let mut r2 = Row::empty();
        r2.set(LAST_NAME, "A");
        r2.set(FIRST_NAME, "BC");
        assert_ne!(
            fingerprint(&r1, DedupPolicy::Exact),
            fingerprint(&r2, DedupPolicy::Exact)
        );
    }

    #[test]
    fn trim_row_strips_whitespace() {
        let mut r = sample_row();
        trim_row(&mut r);
        assert_eq!(r.get(LAST_NAME), "SMITH");
    }

    #[test]
    fn document_layout_is_nested_and_sparse() {
        let mut row = sample_row();
        row.set(FIRST_NAME, "   "); // trims to missing: omitted once trimmed
        let doc = row_to_document(&row);
        assert_eq!(doc.get_str("person.last_name"), Some("SMITH "));
        assert_eq!(doc.get_str("person.first_name"), Some("   "));
        assert_eq!(doc.get_str("district.nc_house_abbrv"), Some("64TH HOUSE"));
        assert_eq!(doc.get_str("meta.snapshot_dt"), Some("2008-11-04"));
        // Missing values are omitted entirely.
        assert!(doc.get_path("person.midl_name").is_none());
        assert!(doc.get_path("election.party_cd").is_none());

        trim_row(&mut row);
        let doc = row_to_document(&row);
        assert_eq!(doc.get_str("person.last_name"), Some("SMITH"));
        assert!(doc.get_path("person.first_name").is_none());
    }
}
