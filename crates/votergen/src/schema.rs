//! The voter-record schema.
//!
//! The real NC register has 90 attributes split (by the paper) into four
//! parts: *person*, *district*, *election* and *meta*. This module
//! defines a representative 44-attribute schema with the same structure.
//! A [`Row`] holds one value per attribute, indexed by [`AttrId`] and
//! packed into a single TSV line; a missing value is the empty string
//! (the register itself uses empty TSV fields).

use std::ops::Range;

/// Index of an attribute within [`SCHEMA`] (and within every row).
pub type AttrId = usize;

/// The part of the record an attribute belongs to (the paper's four
/// sub-documents).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttrGroup {
    /// Personal data (names, demographics, addresses, phone).
    Person,
    /// Electoral districts (county, precinct, house/senate/congress, …).
    District,
    /// Election-related data (party, status, registration date, …).
    Election,
    /// Provenance metadata (snapshot/load/cancellation dates).
    Meta,
}

/// Static description of one attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attribute {
    /// Canonical lower_snake_case name, as in the NC TSV header.
    pub name: &'static str,
    /// Which record part the attribute belongs to.
    pub group: AttrGroup,
    /// Whether the attribute is excluded from dedup hashing because it is
    /// meta data or time-related (Section 4: dates and age).
    pub hash_excluded: bool,
}

macro_rules! schema {
    ( $( ($const:ident, $name:literal, $group:ident, $excl:literal) ),+ $(,)? ) => {
        /// The full attribute list, in row order.
        pub const SCHEMA: &[Attribute] = &[
            $( Attribute { name: $name, group: AttrGroup::$group, hash_excluded: $excl } ),+
        ];
        schema!(@consts 0; $( ($const, $name, $group, $excl) ),+);
    };
    (@consts $idx:expr; ($const:ident, $name:literal, $group:ident, $excl:literal) $(, $rest:tt)*) => {
        #[doc = concat!("Attribute id of `", $name, "`.")]
        pub const $const: AttrId = $idx;
        schema!(@consts $idx + 1; $( $rest ),*);
    };
    (@consts $idx:expr;) => {};
}

schema! {
    (NCID, "ncid", Person, false),
    (LAST_NAME, "last_name", Person, false),
    (FIRST_NAME, "first_name", Person, false),
    (MIDL_NAME, "midl_name", Person, false),
    (NAME_SUFX, "name_sufx", Person, false),
    (AGE, "age", Person, true),
    (SEX_CODE, "sex_code", Person, false),
    (SEX, "sex", Person, false),
    (RACE_CODE, "race_code", Person, false),
    (RACE_DESC, "race_desc", Person, false),
    (ETHNIC_CODE, "ethnic_code", Person, false),
    (ETHNIC_DESC, "ethnic_desc", Person, false),
    (BIRTH_PLACE, "birth_place", Person, false),
    (FULL_PHONE, "full_phone_number", Person, false),
    (RES_STREET, "res_street_address", Person, false),
    (RES_CITY, "res_city_desc", Person, false),
    (RES_STATE, "state_cd", Person, false),
    (ZIP_CODE, "zip_code", Person, false),
    (MAIL_ADDR1, "mail_addr1", Person, false),
    (MAIL_CITY, "mail_city", Person, false),
    (MAIL_STATE, "mail_state", Person, false),
    (MAIL_ZIP, "mail_zipcode", Person, false),
    (AGE_GROUP, "age_group", Person, true),
    (COUNTY_ID, "county_id", District, false),
    (COUNTY_DESC, "county_desc", District, false),
    (PRECINCT_ABBRV, "precinct_abbrv", District, false),
    (PRECINCT_DESC, "precinct_desc", District, false),
    (CONGR_DIST, "cong_dist_abbrv", District, false),
    (NC_SENATE, "nc_senate_abbrv", District, false),
    (NC_HOUSE, "nc_house_abbrv", District, false),
    (JUDIC_DIST, "judic_dist_abbrv", District, false),
    (SCHOOL_DIST, "school_dist_abbrv", District, false),
    (MUNIC_ABBRV, "munic_abbrv", District, false),
    (MUNIC_DESC, "munic_desc", District, false),
    (WARD_ABBRV, "ward_abbrv", District, false),
    (PARTY_CD, "party_cd", Election, false),
    (PARTY_DESC, "party_desc", Election, false),
    (STATUS, "voter_status_desc", Election, false),
    (STATUS_REASON, "voter_status_reason_desc", Election, false),
    (REGISTR_DT, "registr_dt", Election, true),
    (DRIVERS_LIC, "drivers_lic", Election, false),
    (SNAPSHOT_DT, "snapshot_dt", Meta, true),
    (LOAD_DT, "load_dt", Meta, true),
    (CANCELLATION_DT, "cancellation_dt", Meta, true),
}

/// Number of attributes in the schema.
pub const NUM_ATTRS: usize = SCHEMA.len();

/// Look up an attribute id by name.
pub fn attr_id(name: &str) -> Option<AttrId> {
    SCHEMA.iter().position(|a| a.name == name)
}

/// Ids of all attributes in a group.
pub fn group_attrs(group: AttrGroup) -> Vec<AttrId> {
    SCHEMA
        .iter()
        .enumerate()
        .filter(|(_, a)| a.group == group)
        .map(|(i, _)| i)
        .collect()
}

/// Ids of the attributes included in the *all attributes* hash input
/// (everything except meta/time-related attributes; Section 4).
pub fn hash_attrs_all() -> Vec<AttrId> {
    SCHEMA
        .iter()
        .enumerate()
        .filter(|(_, a)| !a.hash_excluded)
        .map(|(i, _)| i)
        .collect()
}

/// Ids of the attributes included in the *person data* hash input.
pub fn hash_attrs_person() -> Vec<AttrId> {
    SCHEMA
        .iter()
        .enumerate()
        .filter(|(_, a)| a.group == AttrGroup::Person && !a.hash_excluded)
        .map(|(i, _)| i)
        .collect()
}

/// One voter-roll row: dense values, one per schema attribute.
///
/// Stored packed: the row *is* its TSV line (`v0\tv1\t…\tv43`) in one
/// `String`, plus the byte offset at which each value starts. A row is
/// therefore one heap allocation, `clone` is one copy, and reading a
/// value is a slice of the line. The tab is the only structural byte:
/// [`Row::set`] refuses a value that contains one.
#[derive(Clone)]
pub struct Row {
    /// The values in schema order, tab-separated.
    line: String,
    /// `starts[id]` is the byte offset of value `id` within `line`;
    /// `starts[NUM_ATTRS]` is `line.len() + 1`, as if the line ended
    /// with one more tab, so value `id` always spans
    /// `starts[id]..starts[id + 1] - 1`.
    starts: [u16; NUM_ATTRS + 1],
}

/// Longest line a [`Row`] can index: the end sentinel `line.len() + 1`
/// must fit the offset type. A register line is a few hundred bytes;
/// 16-bit offsets make `size_of::<Row>()` 120 bytes (208 with 32-bit
/// ones). Longer input is refused where it enters: `from_tsv` and
/// `try_from_values` return `None`, `set` panics.
pub const MAX_LINE_BYTES: usize = (u16::MAX - 1) as usize;

impl Row {
    /// Create an all-missing row.
    pub fn empty() -> Self {
        Row {
            line: "\t".repeat(NUM_ATTRS - 1),
            starts: std::array::from_fn(|i| i as u16),
        }
    }

    /// Build a row from one value per attribute, in schema order.
    ///
    /// # Panics
    /// If a value contains a tab (see [`Row::set`]) or the line would
    /// be longer than [`MAX_LINE_BYTES`].
    pub fn from_values(values: &[&str; NUM_ATTRS]) -> Self {
        Self::try_from_values(values).expect("a value contains a tab, or the row is too long")
    }

    /// [`Row::from_values`], or `None` where it panics: when a value
    /// contains a tab or the joined line is too long to index.
    pub fn try_from_values(values: &[&str; NUM_ATTRS]) -> Option<Self> {
        let line = values.join("\t");
        let starts = index_line(&line)?;
        Some(Row { line, starts })
    }

    /// Byte range of the values `ids` within the line, the tabs between
    /// them included.
    fn span(&self, ids: Range<AttrId>) -> Range<usize> {
        self.starts[ids.start] as usize..self.starts[ids.end] as usize - 1
    }

    /// Value of an attribute (empty string = missing).
    pub fn get(&self, id: AttrId) -> &str {
        &self.line[self.span(id..id + 1)]
    }

    /// The values `ids` as one borrowed slice of the line: the values in
    /// schema order, separated by tabs. Since no value contains a tab,
    /// two rows have equal runs exactly when every value in the run is
    /// equal.
    ///
    /// # Panics
    /// If `ids` is empty or reaches past the last attribute.
    pub fn run(&self, ids: Range<AttrId>) -> &str {
        assert!(ids.start < ids.end, "an empty run of attributes");
        &self.line[self.span(ids)]
    }

    /// All values in schema order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = &str> {
        (0..NUM_ATTRS).map(|id| self.get(id))
    }

    /// Set an attribute value.
    ///
    /// # Panics
    /// If `value` contains a tab: the tab separates the values, so such
    /// a value could never survive [`Row::to_tsv`] / [`Row::from_tsv`]
    /// or the WAL. Every other byte, newline included, is accepted.
    pub fn set(&mut self, id: AttrId, value: impl AsRef<str>) {
        let value = value.as_ref();
        assert!(!value.contains('\t'), "value of `{}` contains a tab", SCHEMA[id].name);
        let span = self.span(id..id + 1);
        let grown = self.line.len() - span.len() + value.len();
        assert!(grown <= MAX_LINE_BYTES, "row too long");
        if value.len() != span.len() {
            for start in &mut self.starts[id + 1..] {
                *start = (*start as usize - span.len() + value.len()) as u16;
            }
        }
        self.line.replace_range(span, value);
    }

    /// Trim every value (`str::trim`) in place: the line is compacted
    /// within its own allocation, and a row with nothing to trim is
    /// left untouched.
    pub fn trim_values(&mut self) {
        // Where each trimmed value sits in the line as it is now.
        let spans: [(usize, usize); NUM_ATTRS] = std::array::from_fn(|id| {
            let value = self.get(id);
            let rest = value.trim_start();
            let from = self.starts[id] as usize + value.len() - rest.len();
            (from, rest.trim_end().len())
        });
        let trimmed: usize = spans.iter().map(|&(_, len)| len).sum();
        if trimmed + NUM_ATTRS - 1 == self.line.len() {
            return;
        }
        let mut bytes = std::mem::take(&mut self.line).into_bytes();
        let mut at = 0;
        for (id, &(from, len)) in spans.iter().enumerate() {
            if id > 0 {
                bytes[at] = b'\t';
                at += 1;
            }
            self.starts[id] = at as u16;
            // Values only move towards the front, so no source is
            // overwritten before it is read.
            bytes.copy_within(from..from + len, at);
            at += len;
        }
        bytes.truncate(at);
        self.starts[NUM_ATTRS] = at as u16 + 1;
        self.line = String::from_utf8(bytes).expect("whole values of a valid line");
    }

    /// The row's NCID.
    pub fn ncid(&self) -> &str {
        self.get(NCID)
    }

    /// The row as a TSV line in schema order, borrowed.
    pub fn as_tsv(&self) -> &str {
        &self.line
    }

    /// Render as a TSV line in schema order.
    pub fn to_tsv(&self) -> String {
        self.line.clone()
    }

    /// Parse from a TSV line in schema order. `None` when the line does
    /// not have exactly one field per attribute (or is too long to
    /// index).
    pub fn from_tsv(line: &str) -> Option<Self> {
        let starts = index_line(line)?;
        Some(Row {
            line: line.to_owned(),
            starts,
        })
    }
}

/// The value start offsets of a TSV line (see `Row::starts`); `None`
/// unless the line has exactly one field per attribute and is short
/// enough to index.
///
/// Tabs are found a `u64` word at a time: `x - 0x01…01 & !x & 0x80…80`,
/// with `x` the word XOR `0x09…09`, flags every tab of the word, and
/// also a `0x08` byte the borrow from a tab below it runs into. The
/// flags of eight words are gathered into one 64-bit mask, so the loop
/// over flagged bytes runs once per 64 bytes. Each flagged byte is
/// confirmed: its offset is written to the next field's slot, which
/// only a tab moves past, so a false flag is overwritten by the tab
/// that follows it. A mask adds at most 64 fields, so the slots have
/// room for 64 past the last attribute and the count is checked once
/// per mask.
fn index_line(line: &str) -> Option<[u16; NUM_ATTRS + 1]> {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    const TABS: u64 = u64::from_ne_bytes([b'\t'; 8]);
    // Multiplying a word whose bytes are each 0 or 1 by this moves byte
    // `i` to bit `56 + i`, without carries.
    const GATHER: u64 = 0x0102_0408_1020_4080;
    if line.len() > MAX_LINE_BYTES {
        return None;
    }
    let bytes = line.as_bytes();
    let mut slots = [0u16; NUM_ATTRS + 65];
    let mut fields = 1;
    // Confirm the flagged bytes of the 64 starting at `base`.
    let mut confirm = |mut mask: u64, base: usize| {
        while mask != 0 {
            let at = base + mask.trailing_zeros() as usize;
            mask &= mask - 1;
            slots[fields] = at as u16 + 1;
            fields += usize::from(bytes[at] == b'\t');
        }
        fields <= NUM_ATTRS
    };
    let mut words = bytes.chunks_exact(8);
    let mut mask = 0;
    for (w, word) in (&mut words).enumerate() {
        let x = u64::from_le_bytes(word.try_into().expect("8-byte chunk")) ^ TABS;
        let flags = x.wrapping_sub(ONES) & !x & HIGHS;
        mask |= ((flags >> 7).wrapping_mul(GATHER) >> 56) << (w % 8 * 8);
        if w % 8 == 7 {
            if !confirm(mask, (w - 7) * 8) {
                return None;
            }
            mask = 0;
        }
    }
    let whole = bytes.len() / 8;
    for (i, &byte) in words.remainder().iter().enumerate() {
        mask |= u64::from(byte == b'\t') << (whole % 8 * 8 + i);
    }
    if !confirm(mask, whole / 8 * 64) {
        return None;
    }
    if fields != NUM_ATTRS {
        return None;
    }
    let mut starts = [0u16; NUM_ATTRS + 1];
    starts[..NUM_ATTRS].copy_from_slice(&slots[..NUM_ATTRS]);
    starts[NUM_ATTRS] = line.len() as u16 + 1;
    Some(starts)
}

/// Rows are equal when their values are; the offsets follow from the
/// line.
impl PartialEq for Row {
    fn eq(&self, other: &Self) -> bool {
        self.line == other.line
    }
}

impl Eq for Row {}

impl std::fmt::Debug for Row {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Row")?;
        f.debug_list().entries(self.values()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_is_consistent() {
        assert_eq!(NUM_ATTRS, 44);
        assert_eq!(SCHEMA[NCID].name, "ncid");
        assert_eq!(SCHEMA[CANCELLATION_DT].name, "cancellation_dt");
        // Names are unique.
        let mut names: Vec<&str> = SCHEMA.iter().map(|a| a.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NUM_ATTRS);
    }

    #[test]
    fn attr_id_round_trips() {
        for (i, a) in SCHEMA.iter().enumerate() {
            assert_eq!(attr_id(a.name), Some(i));
        }
        assert_eq!(attr_id("no_such_attr"), None);
    }

    #[test]
    fn hash_attr_sets_exclude_dates_and_age() {
        let all = hash_attrs_all();
        assert!(!all.contains(&AGE));
        assert!(!all.contains(&SNAPSHOT_DT));
        assert!(!all.contains(&REGISTR_DT));
        assert!(all.contains(&LAST_NAME));
        assert!(all.contains(&NC_HOUSE));

        let person = hash_attrs_person();
        assert!(person.contains(&LAST_NAME));
        assert!(!person.contains(&NC_HOUSE));
        assert!(person.len() < all.len());
    }

    #[test]
    fn group_partition_covers_schema() {
        let total: usize = [
            AttrGroup::Person,
            AttrGroup::District,
            AttrGroup::Election,
            AttrGroup::Meta,
        ]
        .iter()
        .map(|&g| group_attrs(g).len())
        .sum();
        assert_eq!(total, NUM_ATTRS);
    }

    #[test]
    fn row_accessors() {
        let mut r = Row::empty();
        r.set(LAST_NAME, "SMITH");
        r.set(NCID, "AA1");
        assert_eq!(r.get(LAST_NAME), "SMITH");
        assert_eq!(r.ncid(), "AA1");
        assert_eq!(r.get(FIRST_NAME), "");
    }

    #[test]
    fn trim_values_equals_trimming_each_value() {
        let mut r = Row::empty();
        r.set(NCID, "  AA1");
        r.set(LAST_NAME, " O'NEIL \u{a0}");
        r.set(FIRST_NAME, "   ");
        r.set(AGE, "\u{2003}ÅSA\u{2003}");
        r.set(CANCELLATION_DT, "2011-01-01 \n");
        let expected: Vec<String> = r.values().map(|v| v.trim().to_owned()).collect();
        let before = r.as_tsv().as_ptr();
        r.trim_values();
        assert_eq!(r.values().collect::<Vec<_>>(), expected);
        assert_eq!(Row::from_tsv(r.as_tsv()).unwrap(), r, "offsets follow the compacted line");
        assert_eq!(r.as_tsv().as_ptr(), before, "compacted within its allocation");
        // Nothing left to trim: untouched.
        let line = r.to_tsv();
        r.trim_values();
        assert_eq!(r.as_tsv(), line);
        let mut empty = Row::empty();
        empty.trim_values();
        assert_eq!(empty, Row::empty());
    }

    #[test]
    fn tsv_round_trip() {
        let mut r = Row::empty();
        r.set(LAST_NAME, "SMITH");
        r.set(AGE, "44");
        let line = r.to_tsv();
        let back = Row::from_tsv(&line).unwrap();
        assert_eq!(r, back);
        assert!(Row::from_tsv("too\tfew").is_none());
    }
}
