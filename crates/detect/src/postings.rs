//! Inverted-index primitives: interned terms, sorted posting lists and
//! the set operations over them.
//!
//! A [`TermIndex`] maps byte-string terms (q-grams, tokens, phonetic
//! codes) to posting lists of `u32` record ids. Records are inserted in
//! ascending id order, so every posting list is sorted and distinct by
//! construction — a term repeated within a record is posted once.
//! Alongside the postings the index keeps a CSR map from record id back
//! to its term slots, so probing a record never re-tokenizes its value.
//!
//! Posting lists are combined with [`intersect_gallop`] (galloping /
//! exponential search, `O(m log(n/m))` for lists of length `m ≤ n`)
//! and [`union_weighted`] (k-way concatenation with sort-and-run-length
//! summing, the overlap counter of token blocking).

use std::collections::HashMap;

/// An inverted index over byte-string terms with a CSR record→term map.
#[derive(Debug, Default)]
pub struct TermIndex {
    /// Term bytes → slot.
    slots: HashMap<Box<[u8]>, u32>,
    /// Per slot: the sorted, distinct record ids containing the term.
    postings: Vec<Vec<u32>>,
    /// CSR storage: term slots of record `i` live at
    /// `record_terms[record_offsets[i]..record_offsets[i + 1]]`.
    record_terms: Vec<u32>,
    record_offsets: Vec<u32>,
    /// Id of the record currently being inserted.
    open_record: Option<u32>,
}

impl TermIndex {
    /// An empty index.
    pub fn new() -> Self {
        TermIndex {
            record_offsets: vec![0],
            ..Default::default()
        }
    }

    /// Begin the posting entries of record `id`. Records must be opened
    /// in strictly ascending id order starting at the current record
    /// count (gap-free), which is what keeps every posting list sorted
    /// without a sort pass.
    pub fn open_record(&mut self, id: u32) {
        debug_assert_eq!(id as usize + 1, self.record_offsets.len(), "records must be gap-free and ascending");
        self.open_record = Some(id);
    }

    /// Insert one term occurrence of the open record. A term the record
    /// already holds is not posted again.
    pub fn insert(&mut self, term: &[u8]) {
        let id = self.open_record.expect("open_record before insert");
        let slot = match self.slots.get(term) {
            Some(&slot) => slot,
            None => {
                let slot = self.postings.len() as u32;
                self.slots.insert(term.into(), slot);
                self.postings.push(Vec::new());
                slot
            }
        };
        let posting = &mut self.postings[slot as usize];
        if posting.last() != Some(&id) {
            posting.push(id);
            self.record_terms.push(slot);
        }
    }

    /// Close the open record. Must be called once per opened record.
    pub fn close_record(&mut self) {
        debug_assert!(self.open_record.is_some());
        self.record_offsets.push(self.record_terms.len() as u32);
        self.open_record = None;
    }

    /// Number of closed records.
    pub fn records(&self) -> usize {
        self.record_offsets.len() - 1
    }

    /// Number of distinct terms.
    pub fn terms(&self) -> usize {
        self.postings.len()
    }

    /// Document frequency of a term slot (records containing it).
    pub fn df(&self, slot: u32) -> usize {
        self.postings[slot as usize].len()
    }

    /// The sorted posting list of a term slot.
    pub fn posting(&self, slot: u32) -> &[u32] {
        &self.postings[slot as usize]
    }

    /// The distinct term slots of record `id`, in first-occurrence
    /// order.
    pub fn record_terms(&self, id: u32) -> impl Iterator<Item = u32> + '_ {
        let lo = self.record_offsets[id as usize] as usize;
        let hi = self.record_offsets[id as usize + 1] as usize;
        self.record_terms[lo..hi].iter().copied()
    }
}

/// Galloping intersection of two sorted distinct lists, appended to
/// `out`. Iterates the shorter list and locates each id in the longer
/// one by exponential search — `O(m log(n / m))`, which beats a linear
/// merge when one list is a stop-gram-sized tail of the other.
pub fn intersect_gallop(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut lo = 0usize;
    for &x in small {
        // Gallop: find the first index ≥ lo with large[idx] >= x.
        let mut step = 1usize;
        let mut hi = lo;
        while hi < large.len() && large[hi] < x {
            lo = hi + 1;
            hi = lo + step;
            step *= 2;
        }
        let hi = hi.min(large.len());
        let rel = large[lo..hi].partition_point(|&y| y < x);
        lo += rel;
        if lo < large.len() && large[lo] == x {
            out.push(x);
            lo += 1;
        }
        if lo >= large.len() {
            break;
        }
    }
}

/// Weighted k-way union: entries are `(id, weight)`; emits
/// `(id, Σ weight)` runs in ascending id order.
pub fn union_weighted(entries: &mut [(u32, u32)], mut f: impl FnMut(u32, u32)) {
    entries.sort_unstable_by_key(|&(id, _)| id);
    let mut i = 0;
    while i < entries.len() {
        let id = entries[i].0;
        let mut acc = 0u32;
        while i < entries.len() && entries[i].0 == id {
            acc += entries[i].1;
            i += 1;
        }
        f(id, acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(rows: &[&[&[u8]]]) -> TermIndex {
        let mut ix = TermIndex::new();
        for (i, terms) in rows.iter().enumerate() {
            ix.open_record(i as u32);
            for t in *terms {
                ix.insert(t);
            }
            ix.close_record();
        }
        ix
    }

    #[test]
    fn postings_sorted_distinct_with_counts() {
        // Slots are handed out in first-appearance order: AB, BC, ZZ.
        let (ab, bc, zz) = (0, 1, 2);
        let ix = build(&[
            &[b"AB", b"BC", b"AB"],
            &[b"BC"],
            &[b"AB", b"ZZ"],
        ]);
        assert_eq!(ix.records(), 3);
        assert_eq!(ix.terms(), 3);
        assert_eq!(ix.posting(ab), &[0, 2]);
        assert_eq!(ix.df(ab), 2);
        assert_eq!(ix.posting(bc), &[0, 1]);
        assert_eq!(ix.posting(zz), &[2]);
        assert_eq!(ix.df(zz), 1);
    }

    #[test]
    fn record_terms_round_trip() {
        let ix = build(&[&[b"AB", b"BC", b"AB"], &[b"ZZ"]]);
        assert_eq!(ix.record_terms(0).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(ix.record_terms(1).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn gallop_intersection_matches_naive() {
        let cases: &[(&[u32], &[u32])] = &[
            (&[], &[1, 2, 3]),
            (&[2], &[1, 2, 3]),
            (&[1, 5, 9, 100], &[5, 100, 200]),
            (&[1, 2, 3, 4, 5, 6, 7, 8], &[0, 8]),
            (&[3, 50], &(0..64).collect::<Vec<u32>>()),
        ];
        for (a, b) in cases {
            let mut out = Vec::new();
            intersect_gallop(a, b, &mut out);
            let naive: Vec<u32> = a.iter().filter(|x| b.contains(x)).copied().collect();
            assert_eq!(out, naive, "a={a:?} b={b:?}");
            out.clear();
            intersect_gallop(b, a, &mut out);
            assert_eq!(out, naive, "swapped a={a:?} b={b:?}");
        }
    }

    #[test]
    fn union_weighted_sums() {
        let mut entries = vec![(4u32, 2u32), (1, 1), (4, 5), (1, 1)];
        let mut seen = Vec::new();
        union_weighted(&mut entries, |id, w| seen.push((id, w)));
        assert_eq!(seen, vec![(1, 2), (4, 7)]);
    }
}
