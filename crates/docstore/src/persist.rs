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
//! dropped ([`SalvageReport`]). Files written before checksums existed
//! (plain JSON lines) still load through both paths.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

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

/// Fsync a directory, making previously renamed or created entries in
/// it durable. Best-effort on the open: not every filesystem permits
/// opening a directory, and on those the rename durability the caller
/// wants cannot be had anyway — but an fsync that *was* issued and
/// failed is a real error and is reported.
pub fn sync_dir(dir: &Path) -> std::io::Result<()> {
    match File::open(dir) {
        Ok(d) => d.sync_all(),
        Err(_) => Ok(()),
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

/// Write a collection to `path` as checksummed JSON lines (ascending
/// `_id`), atomically.
///
/// The data is first written to a sibling temporary file, fsynced, and
/// renamed into place, so an interrupted save never corrupts a
/// previously saved file.
pub fn save(collection: &Collection, path: &Path) -> Result<(), PersistError> {
    save_with(collection, path, &StdVfs)
}

/// [`save`], with every mutating syscall issued through `vfs`.
///
/// This is the injectable form the fault sweeps drive: a
/// [`nc_vfs::FaultVfs`] crashed at any operation K must leave `path`
/// loading as either its previous contents or the new ones — the
/// atomic tmp + fsync + rename protocol guarantees there is no third
/// state, and `crates/docstore/tests/syscall_sweep.rs` proves it for
/// every K.
pub fn save_with(collection: &Collection, path: &Path, vfs: &dyn Vfs) -> Result<(), PersistError> {
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("collection.jsonl");
    let tmp = path.with_file_name(format!("{file_name}.tmp"));
    let mut w = BufWriter::new(vfs.create(&tmp)?);
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
    writeln!(w, "{FOOTER_PREFIX}{}", Footer::new(count, running).to_json())?;
    w.flush()?;
    let mut file = w.into_inner().map_err(|e| PersistError::Io(e.into_error()))?;
    file.sync_file()?;
    drop(file);
    vfs.rename(&tmp, path)?;
    // Make the rename itself durable.
    if let Some(parent) = path.parent() {
        vfs.sync_dir(parent)?;
    }
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

/// Rebuild a collection from `(id, doc)` pairs, preserving ids.
fn rebuild(name: &str, mut docs: Vec<(u64, Document)>) -> Collection {
    docs.sort_by_key(|(id, _)| *id);
    // Rebuild by inserting in id order; pad gaps so ids are preserved.
    let mut coll = Collection::new(name);
    let mut next = 0u64;
    for (id, doc) in docs {
        while next < id {
            let filler = coll.insert(Document::new());
            coll.delete(filler);
            next += 1;
        }
        let got = coll.insert(doc);
        debug_assert_eq!(got, id);
        next = id + 1;
    }
    coll
}

/// Load a collection from a JSON-lines file written by [`save`].
///
/// Documents are re-inserted preserving their `_id`s; the collection's id
/// counter resumes after the maximum loaded id. Declared indexes must be
/// re-created by the caller (index definitions are not persisted).
///
/// Loading is strict: a checksummed file with any damaged line, a
/// missing footer, or a count/checksum drift fails with the precise
/// error. Use [`salvage`] to recover the intact prefix of a damaged
/// file. Legacy files without checksums load unverified — but once a
/// line or the footer has shown the file is checksummed, a line without
/// a well-formed suffix is a torn line ([`PersistError::Truncated`]),
/// not a legacy one.
pub fn load(name: &str, path: &Path) -> Result<Collection, PersistError> {
    let file = File::open(path)?;
    let reader = BufReader::new(file);
    let mut docs: Vec<(u64, Document)> = Vec::new();
    let mut running = Crc32::new();
    let mut data_count: u64 = 0;
    let mut checksummed = false;
    let mut footer: Option<Footer> = None;
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        if footer.is_some() {
            return Err(PersistError::Corrupt {
                line: lineno,
                message: "content after footer".into(),
            });
        }
        if let Some(rest) = line.strip_prefix(FOOTER_PREFIX) {
            let f = Footer::parse(rest).map_err(|e| PersistError::Corrupt {
                line: lineno,
                message: format!("unreadable footer: {e}"),
            })?;
            footer = Some(f);
            checksummed = true;
            continue;
        }
        let body = match split_checksum(&line) {
            Some((body, crc)) => {
                checksummed = true;
                if crc32(body.as_bytes()) != crc {
                    return Err(PersistError::Checksum { line: lineno });
                }
                body
            }
            // A checksummed file has no bare lines: this one lost its
            // suffix to a cut or a tear, so it is not a legacy line to
            // be taken unverified.
            None if checksummed => {
                return Err(PersistError::Truncated {
                    expected: None,
                    found: data_count,
                })
            }
            None => line.as_str(),
        };
        running.update(body.as_bytes());
        running.update(b"\n");
        data_count += 1;
        docs.push(parse_doc(body, lineno)?);
    }
    if checksummed && footer != Some(Footer::new(data_count, running)) {
        return Err(PersistError::Truncated {
            expected: footer.map(|f| f.count),
            found: data_count,
        });
    }
    Ok(rebuild(name, docs))
}

/// Integrity of the footer observed by [`salvage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FooterStatus {
    /// Footer present and consistent with the recovered documents: the
    /// file is complete.
    Valid,
    /// No footer reached (truncated file, or a pre-checksum legacy file).
    Missing,
    /// Footer present but inconsistent (count or checksum drift).
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
    /// Human-readable description of the first damage encountered.
    pub detail: Option<String>,
}

impl SalvageReport {
    /// Whether the file was fully intact (nothing dropped, footer valid
    /// or legacy-complete).
    pub fn is_clean(&self) -> bool {
        self.lines_dropped == 0 && self.bytes_dropped == 0 && self.footer != FooterStatus::Invalid
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
/// Every line up to the first checksum failure, parse failure, torn
/// line, or invalid UTF-8 is loaded; everything from the first damaged
/// byte onward is dropped and accounted for in the [`SalvageReport`].
/// A file truncated at an arbitrary byte offset therefore loses at most
/// the final partial line. Never panics on any input; the only error is
/// failing to read the file at all.
pub fn salvage(name: &str, path: &Path) -> Result<Salvage, PersistError> {
    let bytes = std::fs::read(path)?;
    let mut docs: Vec<(u64, Document)> = Vec::new();
    let mut running = Crc32::new();
    let mut data_count: u64 = 0;
    let mut pos: usize = 0;
    let mut lineno: usize = 0;
    let mut footer_status = FooterStatus::Missing;
    let mut footer_seen = false;
    // (byte offset, reason) of the first damage, if any.
    let mut failure: Option<(usize, String)> = None;

    while pos < bytes.len() {
        let Some(rel) = find_newline(&bytes[pos..]) else {
            lineno += 1;
            failure = Some((pos, format!("line {lineno}: torn trailing line (no newline)")));
            break;
        };
        let line_end = pos + rel;
        lineno += 1;
        let Ok(line) = std::str::from_utf8(&bytes[pos..line_end]) else {
            failure = Some((pos, format!("line {lineno}: invalid utf-8")));
            break;
        };
        if line.trim().is_empty() {
            pos = line_end + 1;
            continue;
        }
        if footer_seen {
            failure = Some((pos, format!("line {lineno}: content after footer")));
            break;
        }
        if let Some(rest) = line.strip_prefix(FOOTER_PREFIX) {
            footer_seen = true;
            footer_status = match Footer::parse(rest) {
                Ok(f) if f == Footer::new(data_count, running) => FooterStatus::Valid,
                _ => FooterStatus::Invalid,
            };
            pos = line_end + 1;
            continue;
        }
        let body = match split_checksum(line) {
            Some((body, crc)) => {
                if crc32(body.as_bytes()) != crc {
                    failure = Some((pos, format!("line {lineno}: checksum mismatch")));
                    break;
                }
                body
            }
            None => line,
        };
        match parse_doc(body, lineno) {
            Ok(pair) => {
                running.update(body.as_bytes());
                running.update(b"\n");
                data_count += 1;
                docs.push(pair);
            }
            Err(e) => {
                failure = Some((pos, format!("{e}")));
                break;
            }
        }
        pos = line_end + 1;
    }

    let (lines_dropped, bytes_dropped, detail) = match failure {
        Some((offset, reason)) => {
            let dropped = bytes[offset..]
                .split(|&b| b == b'\n')
                .filter(|chunk| chunk.iter().any(|b| !b.is_ascii_whitespace()))
                .count();
            (dropped, (bytes.len() - offset) as u64, Some(reason))
        }
        None => (0, 0, None),
    };
    Ok(Salvage {
        collection: rebuild(name, docs),
        report: SalvageReport {
            docs_recovered: docs_count(data_count),
            lines_dropped,
            bytes_dropped,
            footer: footer_status,
            detail,
        },
    })
}

/// `u64` data-line count as `usize` (cannot realistically overflow).
fn docs_count(n: u64) -> usize {
    usize::try_from(n).unwrap_or(usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;
    use crate::query::Filter;

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
        c.insert(doc! { "name" => "A", "n" => 1_i64 });
        c.insert(doc! { "name" => "B", "nested" => doc! { "x" => 2.5 } });
        let path = tmp("round_trip");
        save(&c, &path).unwrap();
        let loaded = load("v", &path).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(
            loaded.find_one(&Filter::eq("name", "B")).unwrap().get_f64("nested.x"),
            Some(2.5)
        );
        assert_eq!(
            loaded.find_one(&Filter::eq("name", "A")).unwrap().get_i64("_id"),
            Some(0)
        );
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn round_trip_with_deleted_gaps() {
        let mut c = Collection::new("v");
        c.insert(doc! { "name" => "A" });
        c.insert(doc! { "name" => "B" });
        c.insert(doc! { "name" => "C" });
        c.delete(1);
        let path = tmp("gaps");
        save(&c, &path).unwrap();
        let loaded = load("v", &path).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(
            loaded.find_one(&Filter::eq("name", "C")).unwrap().get_i64("_id"),
            Some(2)
        );
        // New inserts continue after the max id.
        let mut loaded = loaded;
        let id = loaded.insert(doc! { "name" => "D" });
        assert_eq!(id, 3);
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
        c.insert(doc! { "name" => "A" });
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
        c.insert(doc! { "k" => 1_i64 });
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
        c.insert(doc! { "name" => "AAAA" });
        c.insert(doc! { "name" => "BBBB" });
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
            c.insert(doc! { "i" => i });
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
            c.insert(doc! { "i" => i });
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

    #[test]
    fn salvage_recovers_prefix_of_truncated_file() {
        let mut c = Collection::new("v");
        for i in 0..10_i64 {
            c.insert(doc! { "i" => i });
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
        c.insert(doc! { "x" => 1_i64 });
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
        c.insert(doc! { "x" => 1_i64 });
        c.insert(doc! { "y" => 2_i64 });
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
    fn sync_dir_succeeds_on_real_directory() {
        let dir = std::env::temp_dir();
        sync_dir(&dir).unwrap();
        // A nonexistent path is best-effort (open fails → Ok).
        sync_dir(Path::new("/nonexistent/nc_docstore_sync")).unwrap();
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
