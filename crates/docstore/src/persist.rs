//! File persistence for collections (JSON-lines snapshots).
//!
//! The format is one JSON document per line; the `_id` field stored in
//! each document is preserved on load, as is the id counter, so ids
//! remain stable across save/load cycles.
//!
//! # Durability
//!
//! [`save`] is crash-safe: the collection is written to a temporary
//! file in the same directory, fsynced, and renamed over the target, so
//! a crash mid-save never tears an existing file — readers observe
//! either the old or the new contents. Every data line carries a
//! CRC-32 suffix (`\t#crc:xxxxxxxx`) and the file ends with a footer
//! record holding the document count and a running checksum, so
//! truncation, torn writes, and bit rot are all detectable.
//!
//! [`load`] is strict: any checksum mismatch, missing footer, or count
//! drift is an error. [`salvage`] is the recovery path: it loads every
//! intact prefix line of a damaged file and reports exactly what was
//! dropped ([`SalvageReport`]). Both are one scan, so `salvage` keeps
//! exactly the documents before the first line `load` refuses. Files
//! written before checksums existed (plain JSON lines) still load
//! through both paths. The nc-shard WAL and manifest and the nc-stream
//! cursor share the line frame, the one walk over it ([`FramedLines`])
//! and the one atomic replace ([`replace`]).

use std::collections::HashSet;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use nc_vfs::{StdVfs, Vfs};

use crate::collection::Collection;
use crate::crc32::{crc32, Crc32};
use crate::doc;
use crate::json;
use crate::value::{Document, Value};

/// Prefix of the footer line closing a checksummed file.
const FOOTER_PREFIX: &str = "#nc-footer:";

/// Separator between a data line's JSON body and its checksum. JSON
/// escapes raw tabs inside strings, so the last tab on a line always
/// belongs to the suffix.
const CRC_SEP: &str = "\t#crc:";

/// Errors produced by persistence operations.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying IO failure.
    Io(std::io::Error),
    /// A line could not be parsed as a document.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Parser message.
        message: String,
    },
    /// A stored document is missing its `_id`.
    MissingId {
        /// 1-based line number.
        line: usize,
    },
    /// A data line's CRC-32 suffix does not match its contents.
    Checksum {
        /// 1-based line number.
        line: usize,
    },
    /// A checksummed file is missing its footer, or the footer's count
    /// or running checksum disagrees with the data lines (truncated or
    /// torn file).
    Truncated {
        /// Document count promised by the footer, if one was readable.
        expected: Option<u64>,
        /// Intact documents actually present.
        found: u64,
    },
    /// The file structure is invalid (e.g. data after the footer, or an
    /// unreadable footer).
    Corrupt {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            PersistError::MissingId { line } => {
                write!(f, "document on line {line} has no _id")
            }
            PersistError::Checksum { line } => {
                write!(f, "checksum mismatch on line {line}")
            }
            PersistError::Truncated { expected, found } => match expected {
                Some(n) => write!(f, "truncated file: footer promises {n} documents, found {found}"),
                None => write!(f, "truncated file: no valid footer after {found} documents"),
            },
            PersistError::Corrupt { line, message } => {
                write!(f, "corrupt file at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// The footer record closing every file written by [`save`]:
/// `{"count":N,"crc":"xxxxxxxx"}` after [`FOOTER_PREFIX`].
#[derive(Debug, PartialEq, Eq)]
struct Footer {
    /// Number of data lines in the file.
    count: u64,
    /// Running CRC-32 (hex) over every data line's JSON body + `\n`.
    crc: String,
}

impl Footer {
    /// The footer that closes `count` data lines with running checksum
    /// `running`.
    fn new(count: u64, running: Crc32) -> Footer {
        Footer {
            count,
            crc: format!("{:08x}", running.finalize()),
        }
    }

    fn to_json(&self) -> String {
        doc! { "count" => self.count, "crc" => self.crc.as_str() }.to_json()
    }

    fn parse(text: &str) -> Result<Footer, String> {
        let value = json::parse(text.as_bytes()).map_err(|e| e.to_string())?;
        let fields = value.as_doc().ok_or("footer is not an object")?;
        let count = fields
            .get_u64("count")
            .ok_or("footer has no document count")?;
        let crc = fields.get_str("crc").ok_or("footer has no checksum")?;
        Ok(Footer {
            count,
            crc: crc.to_owned(),
        })
    }
}

/// Append the CRC-32 suffix framing [`save`] uses to one line body:
/// `<body>\t#crc:xxxxxxxx`. The body must not contain a newline. Other
/// log formats (the nc-shard WAL) reuse this framing so one torn-tail
/// recovery discipline covers every file the workspace writes.
pub fn frame_line(body: &str) -> String {
    let mut line = String::with_capacity(body.len() + CRC_SEP.len() + 8);
    line.push_str(body);
    frame_in_place(&mut line);
    line
}

/// [`frame_line`] for a body already sitting in a reusable buffer: the
/// suffix is appended to `line`, so a writer that frames many lines
/// allocates for none of them.
pub fn frame_in_place(line: &mut String) {
    debug_assert!(!line.contains('\n'), "framed bodies are single lines");
    let crc = crc32(line.as_bytes());
    line.push_str(CRC_SEP);
    // Eight lowercase hex digits, most significant first.
    for shift in (0..32).step_by(4).rev() {
        line.push(char::from(b"0123456789abcdef"[(crc >> shift) as usize & 0xf]));
    }
}

/// Position of the first `\n` in `bytes`, looked for a `u64` word at a
/// time: the line split of every line-oriented file the workspace reads
/// (TSV snapshots, framed logs, saved collections).
pub fn find_newline(bytes: &[u8]) -> Option<usize> {
    const LOW7: u64 = u64::from_ne_bytes([0x7f; 8]);
    const NEWLINES: u64 = u64::from_ne_bytes([b'\n'; 8]);
    let mut words = bytes.chunks_exact(8);
    for (i, word) in (&mut words).enumerate() {
        let x = u64::from_le_bytes(word.try_into().expect("8-byte chunk")) ^ NEWLINES;
        // The high bit of exactly the zero bytes of `x`: adding 0x7f to
        // the low seven bits of a byte cannot carry into the next one.
        let newlines = !(((x & LOW7) + LOW7) | x | LOW7);
        if newlines != 0 {
            return Some(i * 8 + newlines.trailing_zeros() as usize / 8);
        }
    }
    let base = bytes.len() - words.remainder().len();
    words.remainder().iter().position(|&b| b == b'\n').map(|at| base + at)
}

/// Recover the body of a line written by [`frame_line`]; `None` when
/// the suffix is missing, malformed, or does not match the body (a
/// torn or corrupted line).
pub fn read_framed(line: &str) -> Option<&str> {
    let (body, crc) = split_checksum(line)?;
    (crc32(body.as_bytes()) == crc).then_some(body)
}

/// Why a [`FramedLines`] walk stopped before the end of its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineDamage {
    /// The last line has no newline: cut short, or still being written.
    Torn,
    /// The line is not UTF-8.
    InvalidUtf8,
    /// The line's CRC-32 suffix does not match its body, or the line
    /// has no well-formed suffix where every line must have one.
    BadFrame,
}

/// The damaged line a [`FramedLines`] walk stopped at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Damage {
    /// Byte offset of the line's first byte.
    pub offset: usize,
    /// 1-based line number, counted from where the walk began.
    pub number: usize,
    /// What is wrong with it.
    pub kind: LineDamage,
}

/// One intact line of a [`FramedLines`] walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Line<'a> {
    /// Byte offset of the line's first byte.
    pub offset: usize,
    /// Byte offset just past the line's newline.
    pub end: usize,
    /// 1-based line number, counted from where the walk began.
    pub number: usize,
    /// The line without its newline, and without its CRC-32 suffix
    /// when it carries one.
    pub body: &'a str,
    /// Whether the line carried a suffix (which then matched).
    pub framed: bool,
}

/// The one walk over the workspace's line-framed files — saved
/// collections, shard log segments, the shard manifest, stream cursors.
/// It yields every intact line in order and ends after the first
/// damaged one, which it yields as a [`Damage`]. It reads nothing but
/// the bytes it is given and allocates nothing.
#[derive(Debug, Clone)]
pub struct FramedLines<'a> {
    bytes: &'a [u8],
    pos: usize,
    number: usize,
    unframed: bool,
}

impl<'a> FramedLines<'a> {
    /// Walk `bytes` from offset `start`, requiring every line to be
    /// framed.
    pub fn new(bytes: &'a [u8], start: usize) -> Self {
        FramedLines { bytes, pos: start, number: 0, unframed: false }
    }

    /// Let lines without a suffix through as `framed: false` (collection
    /// files: the footer, and files written before checksums); a suffix
    /// that is there must still match.
    pub fn allow_unframed(self) -> Self {
        FramedLines { unframed: true, ..self }
    }
}

impl<'a> Iterator for FramedLines<'a> {
    type Item = Result<Line<'a>, Damage>;

    fn next(&mut self) -> Option<Self::Item> {
        let offset = self.pos;
        let rest = self.bytes.get(offset..).filter(|rest| !rest.is_empty())?;
        self.number += 1;
        // Nothing after a damaged line is read.
        self.pos = self.bytes.len();
        let number = self.number;
        let damage = |kind| Some(Err(Damage { offset, number, kind }));
        let Some(len) = find_newline(rest) else {
            return damage(LineDamage::Torn);
        };
        let Ok(text) = std::str::from_utf8(&rest[..len]) else {
            return damage(LineDamage::InvalidUtf8);
        };
        let (body, framed) = match split_checksum(text) {
            Some((body, crc)) if crc32(body.as_bytes()) == crc => (body, true),
            None if self.unframed => (text, false),
            _ => return damage(LineDamage::BadFrame),
        };
        self.pos = offset + len + 1;
        Some(Ok(Line { offset, end: self.pos, number, body, framed }))
    }
}

/// Replace the file at `path` with what `write` writes, atomically and
/// with every mutating syscall issued through `vfs`: write
/// `<file name>.tmp` beside it, fsync it, rename it over `path`, fsync
/// the directory. A crash at any step leaves `path` holding its old
/// contents or its new ones, never a third state.
pub fn replace(
    path: &Path,
    vfs: &dyn Vfs,
    write: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut out = BufWriter::new(vfs.create(&tmp)?);
    write(&mut out)?;
    let mut file = out.into_inner().map_err(io::IntoInnerError::into_error)?;
    file.sync_file()?;
    drop(file);
    vfs.rename(&tmp, path)?;
    // Make the rename itself durable.
    path.parent().map_or(Ok(()), |dir| vfs.sync_dir(dir))
}

/// Write a collection to `path` as checksummed JSON lines (ascending
/// `_id`), atomically ([`replace`]), so an interrupted save never
/// corrupts a previously saved file.
pub fn save(collection: &Collection, path: &Path) -> Result<(), PersistError> {
    save_with(collection, path, &StdVfs)
}

/// [`save`], with every mutating syscall issued through `vfs`.
///
/// This is the injectable form the fault sweeps drive: a
/// [`nc_vfs::FaultVfs`] crashed at any operation K must leave `path`
/// loading as either its previous contents or the new ones, and
/// `crates/docstore/tests/syscall_sweep.rs` proves it for every K.
pub fn save_with(collection: &Collection, path: &Path, vfs: &dyn Vfs) -> Result<(), PersistError> {
    replace(path, vfs, |w| {
        let mut running = Crc32::new();
        let mut count: u64 = 0;
        let mut line = String::new();
        for (_, doc) in collection.iter_ordered() {
            line.clear();
            doc.render_json(&mut line);
            running.update(line.as_bytes());
            running.update(b"\n");
            frame_in_place(&mut line);
            line.push('\n');
            w.write_all(line.as_bytes())?;
            count += 1;
        }
        writeln!(w, "{FOOTER_PREFIX}{}", Footer::new(count, running).to_json())
    })?;
    Ok(())
}

/// Split a data line into its JSON body and CRC-32 suffix, if it has one.
///
/// The suffix is the separator and eight hex digits, so it can only
/// start 14 bytes before the end: a separator anywhere else leaves a
/// wrong number of digits after it, or puts one of its own bytes among
/// them.
fn split_checksum(line: &str) -> Option<(&str, u32)> {
    let idx = line.len().checked_sub(CRC_SEP.len() + 8)?;
    if !line.as_bytes()[idx..].starts_with(CRC_SEP.as_bytes()) {
        return None;
    }
    let hex = &line[idx + CRC_SEP.len()..];
    u32::from_str_radix(hex, 16).ok().map(|crc| (&line[..idx], crc))
}

/// Parse one JSON body into `(id, document)`.
fn parse_doc(body: &str, line: usize) -> Result<(u64, Document), PersistError> {
    let parse_error = |message: String| PersistError::Parse { line, message };
    let doc = match json::parse(body.as_bytes()).map_err(|e| parse_error(e.to_string()))? {
        Value::Doc(doc) => doc,
        _ => return Err(parse_error("line is not a JSON object".into())),
    };
    let id = doc.get_u64("_id").ok_or(PersistError::MissingId { line })?;
    Ok((id, doc))
}

/// The one scan behind [`load`] and [`salvage`]: the documents of a
/// collection file's intact prefix, its footer, and its first damage.
#[derive(Default)]
struct Scan {
    docs: Vec<(u64, Document)>,
    ids: HashSet<u64>,
    /// Running checksum over the data lines read so far.
    running: Crc32,
    /// Whether a suffix or the footer has shown the file is checksummed.
    checksummed: bool,
    footer: FooterStatus,
    /// The document count a readable footer promised.
    expected: Option<u64>,
    /// Byte offset and line number of the first damaged line, and what
    /// [`load`] reports for it.
    damage: Option<(usize, usize, PersistError)>,
}

impl Scan {
    fn run(bytes: &[u8]) -> Scan {
        let mut scan = Scan::default();
        for line in FramedLines::new(bytes, 0).allow_unframed() {
            let (offset, number, error) = match line {
                Ok(line) => match scan.read(&line) {
                    Ok(()) => continue,
                    Err(error) => (line.offset, line.number, error),
                },
                Err(Damage { offset, number, kind }) => {
                    let error = match kind {
                        LineDamage::Torn => scan.torn(),
                        LineDamage::InvalidUtf8 => corrupt(number, "invalid utf-8".into()),
                        LineDamage::BadFrame => PersistError::Checksum { line: number },
                    };
                    (offset, number, error)
                }
            };
            scan.damage = Some((offset, number, error));
            break;
        }
        scan
    }

    /// A line cut short: no newline, or a bare line in a checksummed
    /// file.
    fn torn(&self) -> PersistError {
        let found = self.docs.len() as u64;
        PersistError::Truncated { expected: None, found }
    }

    /// Take one intact line: blank, footer, or document.
    fn read(&mut self, line: &Line) -> Result<(), PersistError> {
        if !line.framed && line.body.trim().is_empty() {
            return Ok(());
        }
        if self.footer != FooterStatus::Missing {
            return Err(corrupt(line.number, "content after footer".into()));
        }
        if let Some(rest) = line.body.strip_prefix(FOOTER_PREFIX) {
            self.checksummed = true;
            self.footer = FooterStatus::Invalid;
            let footer = Footer::parse(rest)
                .map_err(|e| corrupt(line.number, format!("unreadable footer: {e}")))?;
            if footer == Footer::new(self.docs.len() as u64, self.running) {
                self.footer = FooterStatus::Valid;
            }
            self.expected = Some(footer.count);
            return Ok(());
        }
        // A checksummed file has no bare lines: this one lost its
        // suffix to a cut or a tear, so it is not a legacy line to be
        // taken unverified.
        if !line.framed && self.checksummed {
            return Err(self.torn());
        }
        self.checksummed |= line.framed;
        let (id, doc) = parse_doc(line.body, line.number)?;
        if !self.ids.insert(id) {
            return Err(corrupt(line.number, format!("_id {id} repeats an earlier line's")));
        }
        self.running.update(line.body.as_bytes());
        self.running.update(b"\n");
        self.docs.push((id, doc));
        Ok(())
    }
}

fn corrupt(line: usize, message: String) -> PersistError {
    PersistError::Corrupt { line, message }
}

/// Load a collection from a JSON-lines file written by [`save`].
///
/// Documents keep their `_id`s, gaps included; the next insert takes the
/// maximum loaded id + 1. A second line with an `_id` already read is
/// [`PersistError::Corrupt`].
///
/// Loading is strict: a checksummed file with any damaged line, a
/// missing footer, or a count/checksum drift fails with the precise
/// error. Use [`salvage`] to recover the intact prefix of a damaged
/// file. Legacy files without checksums load unverified — but once a
/// line or the footer has shown the file is checksummed, a line without
/// a well-formed suffix is a torn line ([`PersistError::Truncated`]),
/// not a legacy one.
pub fn load(name: &str, path: &Path) -> Result<Collection, PersistError> {
    let scan = Scan::run(&std::fs::read(path)?);
    if let Some((_, _, error)) = scan.damage {
        return Err(error);
    }
    if scan.checksummed && scan.footer != FooterStatus::Valid {
        let found = scan.docs.len() as u64;
        return Err(PersistError::Truncated { expected: scan.expected, found });
    }
    Ok(Collection::from_docs(name, scan.docs))
}

/// Integrity of the footer observed by [`salvage`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FooterStatus {
    /// Footer present and consistent with the recovered documents: the
    /// file is complete.
    Valid,
    /// No footer reached (truncated file, or a pre-checksum legacy file).
    #[default]
    Missing,
    /// Footer present but unreadable or inconsistent (count or checksum
    /// drift).
    Invalid,
}

/// What [`salvage`] recovered — and, precisely, what it did not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SalvageReport {
    /// Documents recovered from the intact prefix.
    pub docs_recovered: usize,
    /// Non-empty lines dropped from the first damaged line to EOF
    /// (includes a torn trailing line with no newline).
    pub lines_dropped: usize,
    /// Bytes dropped from the first damaged byte offset to EOF.
    pub bytes_dropped: u64,
    /// Footer integrity.
    pub footer: FooterStatus,
    /// Whether a suffix or the footer showed the file is checksummed, so
    /// that a missing footer is a loss, not a legacy file.
    pub checksummed: bool,
    /// Human-readable description of the first damage encountered.
    pub detail: Option<String>,
}

impl SalvageReport {
    /// Whether the file was fully intact — exactly when [`load`] takes
    /// it: nothing dropped, and the footer valid or the file legacy.
    pub fn is_clean(&self) -> bool {
        let complete = match self.footer {
            FooterStatus::Valid => true,
            FooterStatus::Missing => !self.checksummed,
            FooterStatus::Invalid => false,
        };
        self.lines_dropped == 0 && self.bytes_dropped == 0 && complete
    }
}

/// A salvaged collection plus the loss report.
#[derive(Debug)]
pub struct Salvage {
    /// The recovered collection (intact prefix documents).
    pub collection: Collection,
    /// Exactly what was recovered and what was dropped.
    pub report: SalvageReport,
}

/// Recover the intact prefix of a (possibly damaged) collection file.
///
/// This is [`load`]'s scan, read leniently: every document before the
/// first line `load` refuses (checksum or parse failure, torn or bare
/// line, invalid UTF-8, an `_id` an earlier line already took) is kept;
/// everything from that line's first byte onward is dropped and
/// accounted for in the [`SalvageReport`]. A file truncated at an
/// arbitrary byte offset therefore loses at most the final partial
/// line. Never panics on any input; the only error is failing to read
/// the file at all.
pub fn salvage(name: &str, path: &Path) -> Result<Salvage, PersistError> {
    let bytes = std::fs::read(path)?;
    let scan = Scan::run(&bytes);
    let (lines_dropped, bytes_dropped, detail) = match scan.damage {
        Some((offset, line, error)) => {
            let dropped = bytes[offset..]
                .split(|&b| b == b'\n')
                .filter(|chunk| chunk.iter().any(|b| !b.is_ascii_whitespace()))
                .count();
            (dropped, (bytes.len() - offset) as u64, Some(format!("line {line}: {error}")))
        }
        None => (0, 0, None),
    };
    Ok(Salvage {
        report: SalvageReport {
            docs_recovered: scan.docs.len(),
            lines_dropped,
            bytes_dropped,
            footer: scan.footer,
            checksummed: scan.checksummed,
            detail,
        },
        collection: Collection::from_docs(name, scan.docs),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::DocId;
    use crate::doc;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("nc_docstore_test_{}_{}", std::process::id(), name));
        p
    }

    /// A newline at every offset of lines up to 24 bytes, among the
    /// bytes a word test could confuse with it (`0x8a` differs in the
    /// high bit only, `0x0b` and `0x09` in the low bits).
    #[test]
    fn find_newline_matches_position() {
        let fill = [b'a', 0x8a, 0x0b, 0x09, 0x00, 0xff];
        for len in 0..24 {
            for &other in &fill {
                let mut bytes = vec![other; len];
                assert_eq!(find_newline(&bytes), None, "{bytes:?}");
                for at in 0..len {
                    bytes[at] = b'\n';
                    let expected = bytes.iter().position(|&b| b == b'\n');
                    assert_eq!(find_newline(&bytes), expected, "{bytes:?}");
                    assert_eq!(find_newline(&bytes[at..]), Some(0));
                }
            }
        }
    }

    #[test]
    fn round_trip_preserves_documents_and_ids() {
        let mut c = Collection::new("v");
        c.insert(doc! { "name" => "A", "n" => 1_i64 }).unwrap();
        c.insert(doc! { "name" => "B", "nested" => doc! { "x" => 2.5 } })
            .unwrap();
        let path = tmp("round_trip");
        save(&c, &path).unwrap();
        let loaded = load("v", &path).unwrap();
        assert_eq!(loaded.len(), 2);
        let named = |id| loaded.get(id).map(|d| (d.get_str("name"), d.get_i64("_id")));
        assert_eq!(named(0), Some((Some("A"), Some(0))));
        assert_eq!(named(1), Some((Some("B"), Some(1))));
        assert_eq!(loaded.get(1).unwrap().get_f64("nested.x"), Some(2.5));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn round_trip_with_deleted_gaps() {
        // Ids {0, 2}, as a file saved after document 1 was gone.
        let path = tmp("gaps");
        std::fs::write(&path, "{\"_id\":0,\"name\":\"A\"}\n{\"_id\":2,\"name\":\"C\"}\n").unwrap();
        save(&load("v", &path).unwrap(), &path).unwrap();
        let mut loaded = load("v", &path).unwrap();
        assert_eq!(loaded.len(), 2);
        let c = loaded.get(2).unwrap();
        assert_eq!((c.get_str("name"), c.get_i64("_id")), (Some("C"), Some(2)));
        let s = salvage("v", &path).unwrap();
        assert!(s.report.is_clean() && s.report.footer == FooterStatus::Valid);
        let json = |c: &Collection| -> Vec<(DocId, String)> {
            c.iter_ordered().map(|(id, d)| (id, d.to_json())).collect()
        };
        assert_eq!(json(&s.collection), json(&loaded));
        // New inserts continue after the max id.
        assert_eq!(loaded.insert(doc! { "name" => "D" }), Ok(3));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn a_far_id_loads_without_filling_the_gap() {
        let far: DocId = 1 << 40;
        let path = tmp("far_id");
        std::fs::write(&path, format!("{{\"_id\":0}}\n{{\"_id\":{far}}}\n")).unwrap();
        let mut loaded = load("v", &path).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded.get(far).and_then(|d| d.get_u64("_id")), Some(far));
        assert_eq!(loaded.insert(Document::new()), Ok(far + 1));
        std::fs::remove_file(path).unwrap();
    }

    /// `_id`s are stored as `i64`: a file whose last document holds
    /// `i64::MAX` loads, but the insert after it has no id to take and
    /// says so, instead of storing `-2^63` and leaving a file no load
    /// accepts.
    #[test]
    fn insert_past_the_largest_id_is_refused() {
        use crate::collection::IdsExhausted;
        let path = tmp("max_id");
        std::fs::write(&path, format!("{{\"_id\":{}}}\n", i64::MAX)).unwrap();
        let mut loaded = load("v", &path).unwrap();
        assert_eq!(loaded.insert(doc! { "name" => "next" }), Err(IdsExhausted));
        assert_eq!(loaded.len(), 1, "a refused insert stores nothing");
        save(&loaded, &path).unwrap();
        assert_eq!(load("v", &path).unwrap().len(), 1);

        // One id below the limit: the one insert left takes i64::MAX and
        // round-trips through the file.
        std::fs::write(&path, format!("{{\"_id\":{}}}\n", i64::MAX - 1)).unwrap();
        let mut loaded = load("v", &path).unwrap();
        let last = i64::MAX as DocId;
        assert_eq!(loaded.insert(doc! { "name" => "last" }), Ok(last));
        save(&loaded, &path).unwrap();
        let mut reloaded = load("v", &path).unwrap();
        assert_eq!(
            reloaded.get(last).and_then(|d| d.get_str("name")),
            Some("last")
        );
        assert_eq!(
            reloaded.insert(doc! { "name" => "next" }),
            Err(IdsExhausted)
        );
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn load_refuses_a_repeated_id() {
        let path = tmp("repeated_plain");
        std::fs::write(
            &path,
            "{\"_id\":0,\"name\":\"A\"}\n{\"_id\":1,\"name\":\"B\"}\n{\"_id\":0,\"name\":\"C\"}\n",
        )
        .unwrap();
        let err = load("v", &path).unwrap_err();
        assert!(
            matches!(&err, PersistError::Corrupt { line: 3, message } if message.contains("_id 0")),
            "{err}"
        );
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn salvage_stops_at_a_repeated_id() {
        let mut c = Collection::new("v");
        c.insert(doc! { "name" => "A" }).unwrap();
        c.insert(doc! { "name" => "B" }).unwrap();
        let path = tmp("repeated_framed");
        save(&c, &path).unwrap();
        // The first framed line written twice, as a faulty copy would.
        let text = std::fs::read_to_string(&path).unwrap();
        let first = text.lines().next().unwrap();
        std::fs::write(&path, format!("{first}\n{text}")).unwrap();
        let s = salvage("v", &path).unwrap();
        let names: Vec<(DocId, &str)> = s
            .collection
            .iter_ordered()
            .map(|(id, d)| (id, d.get_str("name").unwrap()))
            .collect();
        assert_eq!(names, [(0, "A")]);
        assert_eq!(s.report.docs_recovered, 1);
        // The repeat, B and the footer.
        assert_eq!(s.report.lines_dropped, 3);
        assert!(!s.report.is_clean());
        let detail = s.report.detail.as_deref().unwrap();
        assert!(detail.starts_with("line 2:") && detail.contains("_id 0"), "{detail}");
        let err = load("v", &path).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt { line: 2, .. }), "{err}");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn load_missing_file_errors() {
        let err = load("v", Path::new("/nonexistent/nc_docstore.jsonl")).unwrap_err();
        assert!(matches!(err, PersistError::Io(_)));
    }

    #[test]
    fn load_rejects_garbage() {
        let path = tmp("garbage");
        std::fs::write(&path, "not json\n").unwrap();
        let err = load("v", &path).unwrap_err();
        assert!(matches!(err, PersistError::Parse { line: 1, .. }), "{err}");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn load_rejects_missing_id() {
        let path = tmp("noid");
        std::fs::write(&path, "{\"name\":\"A\"}\n").unwrap();
        let err = load("v", &path).unwrap_err();
        assert!(matches!(err, PersistError::MissingId { line: 1 }), "{err}");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn empty_file_loads_empty_collection() {
        let path = tmp("empty");
        std::fs::write(&path, "").unwrap();
        let loaded = load("v", &path).unwrap();
        assert!(loaded.is_empty());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn legacy_plain_jsonl_still_loads() {
        let path = tmp("legacy");
        std::fs::write(&path, "{\"_id\":0,\"name\":\"A\"}\n{\"_id\":1,\"name\":\"B\"}\n").unwrap();
        let loaded = load("v", &path).unwrap();
        assert_eq!(loaded.len(), 2);
        let s = salvage("v", &path).unwrap();
        assert_eq!(s.collection.len(), 2);
        assert_eq!(s.report.footer, FooterStatus::Missing);
        assert!(s.report.lines_dropped == 0 && s.report.bytes_dropped == 0);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn saved_files_carry_checksums_and_footer() {
        let mut c = Collection::new("v");
        c.insert(doc! { "name" => "A" }).unwrap();
        let path = tmp("format");
        save(&c, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(CRC_SEP), "{}", lines[0]);
        assert!(lines[1].starts_with(FOOTER_PREFIX), "{}", lines[1]);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn save_is_atomic_no_tmp_left_behind() {
        let mut c = Collection::new("v");
        c.insert(doc! { "k" => 1_i64 }).unwrap();
        let path = tmp("atomic");
        save(&c, &path).unwrap();
        let tmp_path = path.with_file_name(format!(
            "{}.tmp",
            path.file_name().unwrap().to_str().unwrap()
        ));
        assert!(!tmp_path.exists());
        // Overwriting an existing file also goes through the tmp path.
        save(&c, &path).unwrap();
        assert!(!tmp_path.exists());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn strict_load_detects_bit_flip() {
        let mut c = Collection::new("v");
        c.insert(doc! { "name" => "AAAA" }).unwrap();
        c.insert(doc! { "name" => "BBBB" }).unwrap();
        let path = tmp("bitflip");
        save(&c, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one bit inside the first line's JSON body.
        let flip_at = bytes.iter().position(|&b| b == b'A').unwrap();
        bytes[flip_at] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = load("v", &path).unwrap_err();
        assert!(matches!(err, PersistError::Checksum { line: 1 }), "{err}");
        // Salvage drops the damaged line and everything after it.
        let s = salvage("v", &path).unwrap();
        assert_eq!(s.collection.len(), 0);
        assert_eq!(s.report.lines_dropped, 3);
        assert!(s.report.detail.is_some());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn strict_load_detects_truncation() {
        let mut c = Collection::new("v");
        for i in 0..10_i64 {
            c.insert(doc! { "i" => i }).unwrap();
        }
        let path = tmp("trunc_strict");
        save(&c, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = load("v", &path).unwrap_err();
        assert!(
            matches!(err, PersistError::Truncated { .. } | PersistError::Checksum { .. }),
            "{err}"
        );
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn strict_load_detects_a_cut_inside_a_suffix_or_the_footer() {
        let mut c = Collection::new("v");
        for i in 0..3_i64 {
            c.insert(doc! { "i" => i }).unwrap();
        }
        let path = tmp("trunc_suffix");
        save(&c, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let text = std::str::from_utf8(&bytes).unwrap();
        // Every cut from inside the second line's suffix to the end of
        // the footer text: a prefix of `\t#crc:xxxxxxxx` must never be
        // read as an unverified legacy line (`Parse`), and a torn footer
        // never loads.
        let second_suffix = text.match_indices(CRC_SEP).nth(1).unwrap().0;
        for cut in second_suffix + 1..bytes.len() - 1 {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let err = load("v", &path).unwrap_err();
            assert!(
                matches!(
                    err,
                    PersistError::Truncated { .. }
                        | PersistError::Checksum { .. }
                        | PersistError::Corrupt { .. }
                ),
                "cut at {cut}: {err}"
            );
        }
        // A file that was never checksummed still loads line by line.
        std::fs::write(&path, "{\"_id\":0}\n{\"_id\":1}\n").unwrap();
        assert_eq!(load("v", &path).unwrap().len(), 2);
        std::fs::remove_file(path).unwrap();
    }

    /// A data line that lost its suffix is torn to `salvage` exactly as
    /// it is to `load`: the prefix before it is kept, and it and
    /// everything after it are dropped and counted.
    #[test]
    fn salvage_stops_where_load_does_at_a_bare_line() {
        let mut c = Collection::new("v");
        for i in 0..3_i64 {
            c.insert(doc! { "i" => i }).unwrap();
        }
        let path = tmp("bare_line");
        save(&c, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let suffix = text.match_indices(CRC_SEP).nth(1).unwrap().0;
        let cut = format!("{}{}", &text[..suffix], &text[suffix + CRC_SEP.len() + 8..]);
        std::fs::write(&path, cut).unwrap();
        let err = load("v", &path).unwrap_err();
        assert!(matches!(err, PersistError::Truncated { expected: None, found: 1 }), "{err}");
        let s = salvage("v", &path).unwrap();
        assert_eq!((s.collection.len(), s.report.docs_recovered), (1, 1));
        // The bare line, the third document and the footer.
        assert_eq!(s.report.lines_dropped, 3);
        assert_eq!(s.report.footer, FooterStatus::Missing);
        assert!(!s.report.is_clean());
        assert!(s.report.detail.as_deref().unwrap().starts_with("line 2:"));

        // Cut at a line boundary before the footer: nothing is damaged,
        // but the checksummed file is incomplete to both.
        let cut: String = text.lines().take(2).map(|l| format!("{l}\n")).collect();
        std::fs::write(&path, cut).unwrap();
        let err = load("v", &path).unwrap_err();
        assert!(matches!(err, PersistError::Truncated { expected: None, found: 2 }), "{err}");
        let s = salvage("v", &path).unwrap();
        assert_eq!((s.report.docs_recovered, s.report.bytes_dropped), (2, 0));
        assert!(!s.report.is_clean());
        std::fs::remove_file(path).unwrap();
    }

    /// The walk yields each intact line with its offset, number and
    /// body, and stops at the first damaged line with its kind.
    #[test]
    fn framed_lines_stop_at_the_first_damage() {
        let good = format!("{}\n{}\n", frame_line("a"), frame_line("bc"));
        let bodies = |bytes: &[u8]| -> Vec<Result<(usize, usize, String), Damage>> {
            FramedLines::new(bytes, 0)
                .map(|line| line.map(|l| (l.offset, l.number, l.body.to_owned())))
                .collect()
        };
        let second = frame_line("a").len() + 1;
        assert_eq!(
            bodies(good.as_bytes()),
            [Ok((0, 1, "a".into())), Ok((second, 2, "bc".into()))]
        );
        let damaged = |bytes: &[u8]| bodies(bytes).pop().unwrap().unwrap_err();
        let torn = &good.as_bytes()[..good.len() - 1];
        let at = |number, kind| Damage { offset: second, number, kind };
        assert_eq!(damaged(torn), at(2, LineDamage::Torn));
        let mut flipped = good.clone().into_bytes();
        flipped[second] = b'x';
        assert_eq!(damaged(&flipped), at(2, LineDamage::BadFrame));
        flipped[second] = 0xff;
        assert_eq!(damaged(&flipped), at(2, LineDamage::InvalidUtf8));
        let bare = format!("{}\nbc\n", frame_line("a"));
        assert_eq!(damaged(bare.as_bytes()), at(2, LineDamage::BadFrame));
        let lenient: Vec<bool> = FramedLines::new(bare.as_bytes(), 0)
            .allow_unframed()
            .map(|line| line.unwrap().framed)
            .collect();
        assert_eq!(lenient, [true, false]);
        // A walk can begin at any line boundary.
        assert_eq!(bodies(&good.as_bytes()[second..]).len(), 1);
        assert_eq!(FramedLines::new(good.as_bytes(), second).count(), 1);
    }

    #[test]
    fn salvage_recovers_prefix_of_truncated_file() {
        let mut c = Collection::new("v");
        for i in 0..10_i64 {
            c.insert(doc! { "i" => i }).unwrap();
        }
        let path = tmp("trunc_salvage");
        save(&c, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Cut in the middle of a line somewhere past the first few docs.
        std::fs::write(&path, &bytes[..bytes.len() * 2 / 3]).unwrap();
        let s = salvage("v", &path).unwrap();
        assert!(s.collection.len() >= 5, "recovered {}", s.collection.len());
        assert!(s.collection.len() < 10);
        assert_eq!(s.report.footer, FooterStatus::Missing);
        assert!(s.report.bytes_dropped > 0);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn salvage_of_intact_file_is_clean() {
        let mut c = Collection::new("v");
        c.insert(doc! { "x" => 1_i64 }).unwrap();
        let path = tmp("clean");
        save(&c, &path).unwrap();
        let s = salvage("v", &path).unwrap();
        assert_eq!(s.report.footer, FooterStatus::Valid);
        assert!(s.report.is_clean());
        assert_eq!(s.report.docs_recovered, 1);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn footer_count_drift_detected() {
        let mut c = Collection::new("v");
        c.insert(doc! { "x" => 1_i64 }).unwrap();
        c.insert(doc! { "y" => 2_i64 }).unwrap();
        let path = tmp("drift");
        save(&c, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // Remove the first data line but keep the footer.
        let without_first: String = text.lines().skip(1).map(|l| format!("{l}\n")).collect();
        std::fs::write(&path, without_first).unwrap();
        let err = load("v", &path).unwrap_err();
        assert!(matches!(err, PersistError::Truncated { expected: Some(2), found: 1 }), "{err}");
        let s = salvage("v", &path).unwrap();
        assert_eq!(s.report.footer, FooterStatus::Invalid);
        assert_eq!(s.collection.len(), 1);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn frame_line_round_trips_and_rejects_damage() {
        let framed = frame_line("R\t17\tsome\ttsv\tpayload");
        assert_eq!(read_framed(&framed), Some("R\t17\tsome\ttsv\tpayload"));
        // A framed empty body survives too.
        assert_eq!(read_framed(&frame_line("")), Some(""));
        // Any flipped byte in body or suffix invalidates the line.
        for i in 0..framed.len() {
            let mut bytes = framed.clone().into_bytes();
            bytes[i] ^= 0x01;
            if let Ok(tampered) = String::from_utf8(bytes) {
                assert_eq!(read_framed(&tampered), None, "flip at {i}");
            }
        }
        // Truncations lose the suffix or corrupt it.
        for cut in 0..framed.len() {
            assert_eq!(read_framed(&framed[..cut]), None, "cut at {cut}");
        }
    }

    #[test]
    fn salvage_never_panics_on_arbitrary_bytes() {
        let path = tmp("fuzzish");
        for garbage in [
            &b"\x00\xff\xfe"[..],
            b"{\"_id\":0}\nnot json at all",
            b"#nc-footer:{\"count\":5,\"crc\":\"00000000\"}\n",
            b"\n\n\n",
            b"{\"_id\":0}\t#crc:zzzzzzzz\n",
        ] {
            std::fs::write(&path, garbage).unwrap();
            let s = salvage("v", &path).unwrap();
            assert!(s.report.docs_recovered <= 1);
        }
        std::fs::remove_file(path).unwrap();
    }
}
