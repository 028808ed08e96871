//! TSV snapshot files: the archive's on-disk interchange format.
//!
//! "The voter data is originally given as a set of TSV files"
//! (Section 5). This module writes simulated snapshots in that format
//! and imports snapshot files into a [`ClusterStore`], so the pipeline
//! can run against on-disk archives exactly like the real one — one
//! file per snapshot, named `VR_Snapshot_<YYYY-MM-DD>.tsv`, first line
//! the header.
//!
//! # Fault tolerance
//!
//! Real registries arrive dirty: torn lines, drifting headers, stray
//! encodings. Import therefore runs in one of two [`ImportMode`]s:
//!
//! * **Strict** (the default) fails fast on the first malformed line or
//!   header — the historical behavior, right for generated archives.
//! * **Quarantine** diverts malformed lines (and whole files with
//!   unmappable headers) to a quarantine sink instead of aborting. A
//!   drifted header — permuted, or with extra/missing columns — is
//!   remapped by column name when possible. An optional error budget
//!   escalates to a hard [`TsvError::QuarantineBudget`] failure once
//!   too much input has been diverted, so a systematically broken
//!   archive still fails loudly rather than importing near-nothing.

use std::collections::BTreeSet;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use nc_docstore::persist::find_newline;
use nc_votergen::schema::{self, Row, NCID, NUM_ATTRS, SCHEMA};
use nc_votergen::snapshot::Snapshot;

use crate::cluster::ClusterStore;
use crate::import::ImportStats;
use crate::record::DedupPolicy;

/// Errors of the TSV layer.
#[derive(Debug)]
pub enum TsvError {
    /// Underlying IO failure.
    Io(std::io::Error),
    /// The header line does not match the schema.
    HeaderMismatch {
        /// The offending file.
        file: PathBuf,
    },
    /// A data line has the wrong number of fields.
    BadLine {
        /// The offending file.
        file: PathBuf,
        /// 1-based line number.
        line: usize,
    },
    /// The file name does not encode a snapshot date.
    BadFileName {
        /// The offending file.
        file: PathBuf,
    },
    /// Quarantine-mode import diverted more input than the configured
    /// error budget allows: the archive is systematically broken.
    QuarantineBudget {
        /// The configured budget (maximum quarantine events).
        budget: u64,
        /// Quarantine events observed when the budget tripped.
        quarantined: u64,
    },
    /// Durable ingest state exists but cannot be resumed: it was
    /// written under different parameters, or a failed recovery left it
    /// unusable (raised by `nc-shard`'s engine, the resumable ingest).
    Checkpoint {
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for TsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TsvError::Io(e) => write!(f, "io error: {e}"),
            TsvError::HeaderMismatch { file } => {
                write!(f, "header of {} does not match the schema", file.display())
            }
            TsvError::BadLine { file, line } => {
                write!(f, "malformed line {line} in {}", file.display())
            }
            TsvError::BadFileName { file } => {
                write!(f, "cannot parse snapshot date from {}", file.display())
            }
            TsvError::QuarantineBudget { budget, quarantined } => {
                write!(
                    f,
                    "quarantine error budget exceeded: {quarantined} events > budget {budget}"
                )
            }
            TsvError::Checkpoint { message } => {
                write!(f, "cannot resume from checkpoint: {message}")
            }
        }
    }
}

impl std::error::Error for TsvError {}

impl From<std::io::Error> for TsvError {
    fn from(e: std::io::Error) -> Self {
        TsvError::Io(e)
    }
}

/// The canonical file name of a snapshot.
pub fn snapshot_file_name(date: &str) -> String {
    format!("VR_Snapshot_{date}.tsv")
}

/// Extract the snapshot date from a file path created by
/// [`snapshot_file_name`].
pub fn date_from_file_name(path: &Path) -> Option<String> {
    let stem = path.file_stem()?.to_str()?;
    let date = stem.strip_prefix("VR_Snapshot_")?;
    // Sanity: YYYY-MM-DD.
    nc_votergen::date::Date::parse(date)?;
    Some(date.to_owned())
}

/// Write one snapshot as a TSV file into `dir`; returns the file path.
pub fn write_snapshot(dir: &Path, snapshot: &Snapshot) -> Result<PathBuf, TsvError> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(snapshot_file_name(&snapshot.date));
    let mut w = BufWriter::new(File::create(&path)?);
    let header: Vec<&str> = SCHEMA.iter().map(|a| a.name).collect();
    w.write_all(header.join("\t").as_bytes())?;
    w.write_all(b"\n")?;
    for row in &snapshot.rows {
        w.write_all(row.as_tsv().as_bytes())?;
        w.write_all(b"\n")?;
    }
    w.flush()?;
    Ok(path)
}

/// The lines of a file's bytes as [`std::io::BufRead::lines`] splits
/// them: on `\n`, with a `\r` right before the `\n` dropped too; a
/// last line without a newline is a line (and keeps a trailing `\r`);
/// nothing follows a final newline.
fn split_lines(bytes: &[u8]) -> impl Iterator<Item = &[u8]> {
    let mut rest = bytes;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let Some(nl) = find_newline(rest) else {
            return Some(std::mem::take(&mut rest));
        };
        let line = &rest[..nl];
        rest = &rest[nl + 1..];
        Some(line.strip_suffix(b"\r").unwrap_or(line))
    })
}

/// One line as text, or the error [`std::io::BufRead::lines`] reports
/// for it.
fn line_str(line: &[u8]) -> Result<&str, TsvError> {
    std::str::from_utf8(line).map_err(|_| {
        TsvError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        ))
    })
}

/// Read a snapshot TSV file back into rows.
///
/// The file is read whole and split in place, so a row costs the one
/// allocation of [`Row::from_tsv`]. Lines are validated one by one, in
/// file order, so the first bad line decides the error: invalid UTF-8
/// is an I/O error (the header's too), a wrong field count is
/// [`TsvError::BadLine`] with its 1-based line number. Empty lines are
/// skipped.
pub fn read_snapshot(path: &Path) -> Result<Snapshot, TsvError> {
    let date = date_from_file_name(path).ok_or_else(|| TsvError::BadFileName {
        file: path.to_owned(),
    })?;
    let bytes = std::fs::read(path)?;
    let mut lines = split_lines(&bytes);
    let header = lines.next().map(line_str).transpose()?.unwrap_or_default();
    if !header.split('\t').eq(SCHEMA.iter().map(|a| a.name)) {
        return Err(TsvError::HeaderMismatch {
            file: path.to_owned(),
        });
    }
    let mut rows = Vec::new();
    for (i, line) in lines.enumerate() {
        let line = line_str(line)?;
        if line.is_empty() {
            continue;
        }
        let row = Row::from_tsv(line).ok_or_else(|| TsvError::BadLine {
            file: path.to_owned(),
            line: i + 2,
        })?;
        rows.push(row);
    }
    Ok(Snapshot {
        index: 0,
        date,
        rows,
    })
}

/// How import reacts to malformed archive input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ImportMode {
    /// Abort on the first malformed line or header (historical behavior).
    #[default]
    Strict,
    /// Divert malformed input to the quarantine sink and keep going.
    Quarantine,
}

/// Options controlling fault handling during archive import.
#[derive(Debug, Clone, Default)]
pub struct ImportOptions {
    /// Strict or quarantine handling.
    pub mode: ImportMode,
    /// Maximum quarantine events (lines + whole files) tolerated across
    /// an import before it hard-fails with
    /// [`TsvError::QuarantineBudget`]. `None` = unlimited.
    pub error_budget: Option<u64>,
    /// File receiving quarantined raw lines with provenance comments.
    /// `None` = count only, keep no copies.
    pub quarantine_path: Option<PathBuf>,
}

impl ImportOptions {
    /// Strict mode (fail fast), no sink.
    pub fn strict() -> Self {
        ImportOptions::default()
    }

    /// Quarantine mode with unlimited budget and no sink.
    pub fn quarantine() -> Self {
        ImportOptions {
            mode: ImportMode::Quarantine,
            ..ImportOptions::default()
        }
    }

    /// Set the error budget.
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.error_budget = Some(budget);
        self
    }

    /// Set the quarantine sink file.
    pub fn with_sink(mut self, path: impl Into<PathBuf>) -> Self {
        self.quarantine_path = Some(path.into());
        self
    }

    /// Fail once `events` quarantine events exceed the error budget.
    fn check_budget(&self, events: u64) -> Result<(), TsvError> {
        match self.error_budget {
            Some(budget) if events > budget => {
                Err(TsvError::QuarantineBudget { budget, quarantined: events })
            }
            _ => Ok(()),
        }
    }
}

/// Aggregate quarantine accounting for one archive import.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuarantineReport {
    /// Malformed data lines diverted.
    pub lines_quarantined: u64,
    /// Whole files diverted (unmappable headers).
    pub files_quarantined: u64,
    /// Files imported through a remapped (drifted) header.
    pub remapped_headers: u64,
    /// `(snapshot date, lines quarantined)` per imported snapshot.
    pub per_snapshot: Vec<(String, u64)>,
}

impl QuarantineReport {
    /// Total quarantine events (lines + files).
    pub fn events(&self) -> u64 {
        self.lines_quarantined + self.files_quarantined
    }
}

/// A snapshot read leniently, plus what was diverted on the way.
#[derive(Debug)]
pub struct ParsedSnapshot {
    /// The rows that survived.
    pub snapshot: Snapshot,
    /// Lines diverted to quarantine in this file.
    pub quarantined: u64,
    /// Whether the header had drifted and was remapped by column name.
    pub remapped: bool,
}

/// Append quarantined material to the sink file, with provenance.
struct QuarantineSink<'a> {
    path: Option<&'a Path>,
    writer: Option<BufWriter<File>>,
}

impl<'a> QuarantineSink<'a> {
    fn new(path: Option<&'a Path>) -> Self {
        QuarantineSink { path, writer: None }
    }

    fn write(&mut self, source: &Path, line: Option<usize>, reason: &str, raw: &[u8]) -> Result<(), TsvError> {
        let Some(path) = self.path else { return Ok(()) };
        if self.writer.is_none() {
            let file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
            self.writer = Some(BufWriter::new(file));
        }
        let w = self.writer.as_mut().expect("just created");
        match line {
            Some(n) => writeln!(w, "# source={} line={n} reason={reason}", source.display())?,
            None => writeln!(w, "# source={} reason={reason}", source.display())?,
        }
        w.write_all(raw)?;
        w.write_all(b"\n")?;
        Ok(())
    }

    fn finish(mut self) -> Result<(), TsvError> {
        if let Some(w) = self.writer.as_mut() {
            w.flush()?;
        }
        Ok(())
    }
}

/// Map a drifted header onto the schema by column name.
///
/// Returns `Some(column -> attribute)` when every recognizable column
/// maps to a distinct attribute and the NCID column is present;
/// unknown columns map to `None` (dropped). Returns `None` when the
/// header cannot be mapped at all.
fn map_drifted_header(header: &str) -> Option<Vec<Option<usize>>> {
    let cols: Vec<&str> = header.split('\t').collect();
    let mut mapping: Vec<Option<usize>> = Vec::with_capacity(cols.len());
    let mut seen = [false; NUM_ATTRS];
    for col in &cols {
        match schema::attr_id(col.trim()) {
            Some(attr) => {
                if seen[attr] {
                    return None; // duplicated column
                }
                seen[attr] = true;
                mapping.push(Some(attr));
            }
            None => mapping.push(None),
        }
    }
    if !seen[NCID] {
        return None; // rows without an NCID cannot be clustered
    }
    Some(mapping)
}

/// Read one snapshot file under the given options, with
/// `prior_events` quarantine events already charged against the error
/// budget (archive-level accounting).
///
/// In [`ImportMode::Strict`] this is exactly [`read_snapshot`]. In
/// [`ImportMode::Quarantine`], malformed lines (wrong field count,
/// invalid UTF-8) are diverted — to the sink, if one is configured —
/// and a drifted header is remapped by column name when possible.
/// `Ok(None)` means the whole file was quarantined (unmappable header).
fn read_snapshot_budgeted(
    path: &Path,
    options: &ImportOptions,
    prior_events: u64,
) -> Result<Option<ParsedSnapshot>, TsvError> {
    if options.mode == ImportMode::Strict {
        return read_snapshot(path).map(|snapshot| {
            Some(ParsedSnapshot { snapshot, quarantined: 0, remapped: false })
        });
    }
    let date = date_from_file_name(path).ok_or_else(|| TsvError::BadFileName {
        file: path.to_owned(),
    })?;
    let bytes = std::fs::read(path)?;
    let mut sink = QuarantineSink::new(options.quarantine_path.as_deref());
    let mut lines = bytes.split(|&b| b == b'\n');

    // Header: exact, remappable, or the whole file is quarantined.
    let header_raw = lines.next().unwrap_or_default();
    let expected: Vec<&str> = SCHEMA.iter().map(|a| a.name).collect();
    let header = std::str::from_utf8(header_raw).unwrap_or("");
    let (mapping, remapped) = if header.split('\t').collect::<Vec<_>>() == expected {
        (None, false)
    } else {
        match map_drifted_header(header) {
            Some(m) => (Some(m), true),
            None => {
                sink.write(path, None, "header-unmappable (file quarantined)", header_raw)?;
                sink.finish()?;
                return Ok(None);
            }
        }
    };

    let mut rows = Vec::new();
    let mut quarantined: u64 = 0;
    for (i, raw) in lines.enumerate() {
        if raw.is_empty() || raw.iter().all(|b| b.is_ascii_whitespace()) {
            continue;
        }
        let lineno = i + 2; // 1-based, after the header
        let Ok(line) = std::str::from_utf8(raw) else {
            quarantined += 1;
            sink.write(path, Some(lineno), "invalid-utf8", raw)?;
            options.check_budget(prior_events + quarantined)?;
            continue;
        };
        let row = match &mapping {
            None => Row::from_tsv(line),
            Some(map) => {
                let fields: Vec<&str> = line.split('\t').collect();
                if fields.len() != map.len() {
                    None
                } else {
                    let mut values = [""; NUM_ATTRS];
                    for (field, attr) in fields.iter().zip(map.iter()) {
                        if let Some(attr) = attr {
                            values[*attr] = field;
                        }
                    }
                    Some(Row::from_values(&values))
                }
            }
        };
        match row {
            Some(row) => rows.push(row),
            None => {
                quarantined += 1;
                sink.write(path, Some(lineno), "field-count-mismatch", raw)?;
                options.check_budget(prior_events + quarantined)?;
            }
        }
    }
    sink.finish()?;
    Ok(Some(ParsedSnapshot {
        snapshot: Snapshot { index: 0, date, rows },
        quarantined,
        remapped,
    }))
}

/// What one archive import call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchiveImportOutcome {
    /// Stats of the snapshots imported *by this call*, in archive order
    /// (quarantine counts included).
    pub stats: Vec<ImportStats>,
    /// Snapshot files skipped because they were already completed.
    pub resumed: usize,
    /// Cumulative archive-level quarantine accounting (all runs).
    pub quarantine: QuarantineReport,
}

/// The snapshot files of an archive directory with their dates, sorted
/// by date.
fn dated_archive_files(dir: &Path) -> Result<Vec<(String, PathBuf)>, TsvError> {
    let mut files: Vec<(String, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "tsv") {
            if let Some(date) = date_from_file_name(&path) {
                files.push((date, path));
            }
        }
    }
    files.sort();
    Ok(files)
}

/// List the snapshot files of an archive directory, sorted by date
/// (belatedly published snapshots thus import in calendar order).
pub fn archive_files(dir: &Path) -> Result<Vec<PathBuf>, TsvError> {
    Ok(dated_archive_files(dir)?.into_iter().map(|(_, p)| p).collect())
}

/// The archive loop, written once: read every snapshot file of `dir`
/// whose date is not in `completed`, in calendar order, and hand each
/// to `commit` — the sink that makes it part of a store (a
/// [`ClusterStore`] import here, a WAL + manifest commit in
/// `nc-shard`'s engine).
///
/// `quarantine` is the accounting of the runs that produced
/// `completed`; the error budget is enforced against it plus whatever
/// this call diverts, so the budget spans resumes. `commit` sees the
/// parsed snapshot and the accounting *including* it (what a durable
/// sink persists with that snapshot) and returns the snapshot's stats;
/// its error aborts the run. A wholly quarantined file is counted but
/// never committed, so a later run over a repaired file picks it up.
///
/// The sink file, when configured, is truncated only when nothing is
/// completed yet; a resumed run appends, keeping the provenance lines
/// of the snapshots it skips.
pub fn import_archive_pending(
    dir: &Path,
    options: &ImportOptions,
    completed: &BTreeSet<String>,
    mut quarantine: QuarantineReport,
    mut commit: impl FnMut(&ParsedSnapshot, &QuarantineReport) -> Result<ImportStats, TsvError>,
) -> Result<ArchiveImportOutcome, TsvError> {
    if completed.is_empty() {
        if let Some(sink) = &options.quarantine_path {
            File::create(sink)?;
        }
    }
    let mut stats = Vec::new();
    let mut resumed = 0;
    for (date, path) in dated_archive_files(dir)? {
        if completed.contains(&date) {
            resumed += 1;
            continue;
        }
        let Some(parsed) = read_snapshot_budgeted(&path, options, quarantine.events())? else {
            quarantine.files_quarantined += 1;
            options.check_budget(quarantine.events())?;
            continue;
        };
        quarantine.lines_quarantined += parsed.quarantined;
        quarantine.remapped_headers += u64::from(parsed.remapped);
        quarantine.per_snapshot.push((date, parsed.quarantined));
        stats.push(commit(&parsed, &quarantine)?);
    }
    Ok(ArchiveImportOutcome { stats, resumed, quarantine })
}

/// Import every snapshot file of an archive directory into an in-memory
/// store under the given fault-handling options (not resumable: the
/// durable, resumable ingest is `nc-shard`'s engine, over the same
/// loop).
pub fn import_archive_dir_with(
    store: &mut ClusterStore,
    dir: &Path,
    policy: DedupPolicy,
    version: u32,
    options: &ImportOptions,
) -> Result<ArchiveImportOutcome, TsvError> {
    import_archive_pending(
        dir,
        options,
        &BTreeSet::new(),
        QuarantineReport::default(),
        |parsed, _| {
            let mut stats = crate::import::import_snapshot(store, &parsed.snapshot, policy, version);
            stats.quarantined = parsed.quarantined;
            Ok(stats)
        },
    )
}

/// Import every snapshot file of an archive directory into a store,
/// failing fast on malformed input ([`ImportMode::Strict`]).
pub fn import_archive_dir(
    store: &mut ClusterStore,
    dir: &Path,
    policy: DedupPolicy,
    version: u32,
) -> Result<Vec<ImportStats>, TsvError> {
    import_archive_dir_with(store, dir, policy, version, &ImportOptions::strict())
        .map(|outcome| outcome.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_votergen::config::GeneratorConfig;
    use nc_votergen::registry::Registry;
    use nc_votergen::snapshot::standard_calendar;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nc_tsv_{}_{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn two_snapshots(seed: u64) -> (Snapshot, Snapshot) {
        let mut reg = Registry::new(GeneratorConfig {
            seed,
            initial_population: 60,
            ..Default::default()
        });
        let cal = standard_calendar();
        (reg.generate_snapshot(&cal[0]), reg.generate_snapshot(&cal[1]))
    }

    #[test]
    fn file_name_round_trip() {
        let name = snapshot_file_name("2008-11-04");
        assert_eq!(name, "VR_Snapshot_2008-11-04.tsv");
        assert_eq!(
            date_from_file_name(Path::new(&name)).as_deref(),
            Some("2008-11-04")
        );
        assert!(date_from_file_name(Path::new("other.tsv")).is_none());
        assert!(date_from_file_name(Path::new("VR_Snapshot_garbage.tsv")).is_none());
    }

    #[test]
    fn write_read_round_trip() {
        let dir = tmp_dir("round_trip");
        let (s0, _) = two_snapshots(1);
        let path = write_snapshot(&dir, &s0).unwrap();
        let back = read_snapshot(&path).unwrap();
        assert_eq!(back.date, s0.date);
        assert_eq!(back.rows, s0.rows);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn archive_import_equals_direct_import() {
        let dir = tmp_dir("archive");
        let (s0, s1) = two_snapshots(2);
        // Write out of order; the archive lister must sort by date.
        write_snapshot(&dir, &s1).unwrap();
        write_snapshot(&dir, &s0).unwrap();

        let mut from_files = ClusterStore::new();
        let stats = import_archive_dir(&mut from_files, &dir, DedupPolicy::Trimmed, 1).unwrap();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].date, s0.date, "sorted by date");

        let mut direct = ClusterStore::new();
        crate::import::import_snapshot(&mut direct, &s0, DedupPolicy::Trimmed, 1);
        crate::import::import_snapshot(&mut direct, &s1, DedupPolicy::Trimmed, 1);

        assert_eq!(from_files.record_count(), direct.record_count());
        assert_eq!(from_files.cluster_count(), direct.cluster_count());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn header_mismatch_detected() {
        let dir = tmp_dir("badheader");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(snapshot_file_name("2008-11-04"));
        std::fs::write(&path, "wrong\theader\nA\tB\n").unwrap();
        let err = read_snapshot(&path).unwrap_err();
        assert!(matches!(err, TsvError::HeaderMismatch { .. }), "{err}");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn bad_line_detected() {
        let dir = tmp_dir("badline");
        let (s0, _) = two_snapshots(3);
        let path = write_snapshot(&dir, &s0).unwrap();
        // Append a malformed line.
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        writeln!(f, "too\tfew\tfields").unwrap();
        drop(f);
        let err = read_snapshot(&path).unwrap_err();
        assert!(matches!(err, TsvError::BadLine { .. }), "{err}");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn empty_lines_are_skipped() {
        let dir = tmp_dir("emptylines");
        let (s0, _) = two_snapshots(4);
        let path = write_snapshot(&dir, &s0).unwrap();
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        writeln!(f).unwrap();
        drop(f);
        let back = read_snapshot(&path).unwrap();
        assert_eq!(back.rows.len(), s0.rows.len());
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// `split_lines` against `BufRead::lines` itself: newlines at every
    /// offset modulo 8, CRLF and lone `\r`, blank lines, and a last line
    /// with and without its newline.
    #[test]
    fn split_lines_matches_bufread_lines() {
        use std::io::BufRead as _;
        let pieces = ["\n", "\r\n", "\r", "a", "bc", "défg", "\t", "0123456", "名"];
        let mut rng = nc_votergen::rng::Rng::seed_from_u64(37);
        for case in 0..2_000 {
            let len = case % 40;
            let text: String = (0..len).map(|_| pieces[rng.gen_range(0..pieces.len())]).collect();
            let expected: Vec<String> =
                std::io::Cursor::new(&text).lines().map(Result::unwrap).collect();
            let split: Vec<&str> = split_lines(text.as_bytes())
                .map(|line| std::str::from_utf8(line).unwrap())
                .collect();
            assert_eq!(split, expected, "{text:?}");
        }
    }

    /// The file `write_snapshot` writes for `snapshot`, as bytes.
    fn snapshot_bytes(dir: &Path, snapshot: &Snapshot) -> (PathBuf, Vec<u8>) {
        let path = write_snapshot(dir, snapshot).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        (path, bytes)
    }

    #[test]
    fn crlf_lines_read_as_lf_lines() {
        let dir = tmp_dir("crlf");
        let (s0, _) = two_snapshots(11);
        let (path, bytes) = snapshot_bytes(&dir, &s0);
        let mut crlf = Vec::new();
        for &b in &bytes {
            if b == b'\n' {
                crlf.push(b'\r');
            }
            crlf.push(b);
        }
        std::fs::write(&path, crlf).unwrap();
        assert_eq!(read_snapshot(&path).unwrap().rows, s0.rows);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn last_line_without_newline_is_read() {
        let dir = tmp_dir("no_final_newline");
        let (s0, _) = two_snapshots(12);
        let (path, mut bytes) = snapshot_bytes(&dir, &s0);
        assert_eq!(bytes.pop(), Some(b'\n'));
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read_snapshot(&path).unwrap().rows, s0.rows);
        // Only a newline takes a carriage return with it: an
        // unterminated last line keeps its trailing `\r`.
        bytes.push(b'\r');
        std::fs::write(&path, &bytes).unwrap();
        let rows = read_snapshot(&path).unwrap().rows;
        let last = rows.last().unwrap();
        let expected = s0.rows.last().unwrap();
        assert_eq!(last.get(NUM_ATTRS - 1), format!("{}\r", expected.get(NUM_ATTRS - 1)));
        assert_eq!(rows[..rows.len() - 1], s0.rows[..s0.rows.len() - 1]);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn blank_lines_anywhere_are_skipped() {
        let dir = tmp_dir("blank_lines");
        let (s0, _) = two_snapshots(13);
        let (path, bytes) = snapshot_bytes(&dir, &s0);
        let text = String::from_utf8(bytes).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.insert(1, "");
        lines.insert(3, "\r");
        lines.push("");
        std::fs::write(&path, lines.join("\n") + "\n\n").unwrap();
        assert_eq!(read_snapshot(&path).unwrap().rows, s0.rows);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// The first malformed line in file order decides the error, and a
    /// bad field count keeps its 1-based line number.
    #[test]
    fn errors_keep_their_kind_line_and_file_order() {
        let dir = tmp_dir("error_order");
        let (s0, _) = two_snapshots(14);
        let path = write_snapshot(&dir, &s0).unwrap();
        let bad_line = s0.rows.len() + 2;
        append_raw(&path, b"too\tfew\tfields");
        append_raw(&path, &[0xFF, 0xFE, b'\t', b'x']);
        match read_snapshot(&path).unwrap_err() {
            TsvError::BadLine { line, .. } => assert_eq!(line, bad_line),
            err => panic!("expected BadLine, got {err}"),
        }

        let path = write_snapshot(&dir, &s0).unwrap();
        append_raw(&path, &[0xFF, 0xFE, b'\t', b'x']);
        append_raw(&path, b"too\tfew\tfields");
        let err = read_snapshot(&path).unwrap_err();
        assert!(matches!(&err, TsvError::Io(e) if e.kind() == std::io::ErrorKind::InvalidData), "{err}");

        // Invalid UTF-8 in the header is an I/O error, not a mismatch.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[1] = 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let err = read_snapshot(&path).unwrap_err();
        assert!(matches!(&err, TsvError::Io(e) if e.kind() == std::io::ErrorKind::InvalidData), "{err}");

        // An empty file has an empty header.
        std::fs::write(&path, b"").unwrap();
        assert!(matches!(read_snapshot(&path).unwrap_err(), TsvError::HeaderMismatch { .. }));
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// Append raw bytes (plus a newline) to a snapshot file.
    fn append_raw(path: &Path, bytes: &[u8]) {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().append(true).open(path).unwrap();
        f.write_all(bytes).unwrap();
        f.write_all(b"\n").unwrap();
    }

    #[test]
    fn lenient_strict_mode_equals_read_snapshot() {
        let dir = tmp_dir("lenient_strict");
        let (s0, _) = two_snapshots(5);
        let path = write_snapshot(&dir, &s0).unwrap();
        let parsed = read_snapshot_budgeted(&path, &ImportOptions::strict(), 0)
            .unwrap()
            .unwrap();
        assert_eq!(parsed.snapshot.rows, read_snapshot(&path).unwrap().rows);
        assert_eq!(parsed.quarantined, 0);
        assert!(!parsed.remapped);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn quarantine_diverts_bad_lines_and_keeps_good_rows() {
        let dir = tmp_dir("quarantine_lines");
        let (s0, _) = two_snapshots(6);
        let path = write_snapshot(&dir, &s0).unwrap();
        append_raw(&path, b"too\tfew\tfields");
        append_raw(&path, &[0xFF, 0xFE, b'\t', b'x']); // invalid UTF-8
        let sink = dir.join("quarantine.tsv");

        let options = ImportOptions::quarantine().with_sink(&sink);
        let parsed = read_snapshot_budgeted(&path, &options, 0).unwrap().unwrap();
        assert_eq!(parsed.snapshot.rows, s0.rows, "good rows survive intact");
        assert_eq!(parsed.quarantined, 2);

        let quarantined = std::fs::read(&sink).unwrap();
        let text = String::from_utf8_lossy(&quarantined);
        assert!(text.contains("field-count-mismatch"), "{text}");
        assert!(text.contains("invalid-utf8"), "{text}");
        assert!(text.contains("too\tfew\tfields"), "raw line preserved");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn strict_mode_still_fails_fast_on_bad_line() {
        let dir = tmp_dir("strict_fails");
        let (s0, _) = two_snapshots(7);
        let path = write_snapshot(&dir, &s0).unwrap();
        append_raw(&path, b"too\tfew\tfields");
        let err = read_snapshot_budgeted(&path, &ImportOptions::strict(), 0).unwrap_err();
        assert!(matches!(err, TsvError::BadLine { .. }), "{err}");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn drifted_header_is_remapped_by_name() {
        let dir = tmp_dir("drifted_header");
        let (s0, _) = two_snapshots(8);
        // Rebuild the file with an extra unknown trailing column.
        let path = dir.join(snapshot_file_name(&s0.date));
        std::fs::create_dir_all(&dir).unwrap();
        let mut text = String::new();
        let header: Vec<&str> = SCHEMA.iter().map(|a| a.name).collect();
        text.push_str(&header.join("\t"));
        text.push_str("\tlegacy_junk\n");
        for row in &s0.rows {
            text.push_str(&row.to_tsv());
            text.push_str("\textra\n");
        }
        std::fs::write(&path, text).unwrap();

        let parsed = read_snapshot_budgeted(&path, &ImportOptions::quarantine(), 0)
            .unwrap()
            .unwrap();
        assert!(parsed.remapped);
        assert_eq!(parsed.quarantined, 0);
        assert_eq!(parsed.snapshot.rows, s0.rows, "unknown column dropped");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn unmappable_header_quarantines_whole_file() {
        let dir = tmp_dir("unmappable");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(snapshot_file_name("2008-11-04"));
        std::fs::write(&path, "alpha\tbeta\nA\tB\n").unwrap();
        let sink = dir.join("quarantine.tsv");

        let options = ImportOptions::quarantine().with_sink(&sink);
        assert!(read_snapshot_budgeted(&path, &options, 0).unwrap().is_none());
        let text = std::fs::read_to_string(&sink).unwrap();
        assert!(text.contains("header-unmappable"), "{text}");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn error_budget_escalates_to_hard_failure() {
        let dir = tmp_dir("budget");
        let (s0, _) = two_snapshots(9);
        let path = write_snapshot(&dir, &s0).unwrap();
        append_raw(&path, b"bad\tline");
        append_raw(&path, b"another\tbad\tline");

        // Budget 2 tolerates both diverted lines...
        let lenient = ImportOptions::quarantine().with_budget(2);
        assert!(read_snapshot_budgeted(&path, &lenient, 0).is_ok());
        // ...budget 1 trips on the second.
        let tight = ImportOptions::quarantine().with_budget(1);
        let err = read_snapshot_budgeted(&path, &tight, 0).unwrap_err();
        assert!(
            matches!(err, TsvError::QuarantineBudget { budget: 1, quarantined: 2 }),
            "{err}"
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn archive_quarantine_run_equals_clean_run_minus_bad_rows() {
        let clean_dir = tmp_dir("clean_archive");
        let dirty_dir = tmp_dir("dirty_archive");
        let (s0, s1) = two_snapshots(10);
        write_snapshot(&clean_dir, &s0).unwrap();
        write_snapshot(&clean_dir, &s1).unwrap();
        write_snapshot(&dirty_dir, &s0).unwrap();
        let dirty_path = write_snapshot(&dirty_dir, &s1).unwrap();
        append_raw(&dirty_path, b"torn\trow");

        let mut clean = ClusterStore::new();
        let clean_stats =
            import_archive_dir(&mut clean, &clean_dir, DedupPolicy::Trimmed, 1).unwrap();

        let mut dirty = ClusterStore::new();
        let outcome = import_archive_dir_with(
            &mut dirty,
            &dirty_dir,
            DedupPolicy::Trimmed,
            1,
            &ImportOptions::quarantine(),
        )
        .unwrap();
        assert_eq!(outcome.quarantine.lines_quarantined, 1);
        assert_eq!(outcome.stats[1].quarantined, 1);
        assert_eq!(dirty.record_count(), clean.record_count());
        assert_eq!(dirty.cluster_count(), clean.cluster_count());
        // Stats agree except for the quarantine count of the torn file.
        assert_eq!(outcome.stats[0], clean_stats[0]);
        assert_eq!(outcome.stats[1].total_rows, clean_stats[1].total_rows);
        assert_eq!(outcome.stats[1].new_records, clean_stats[1].new_records);

        std::fs::remove_dir_all(clean_dir).unwrap();
        std::fs::remove_dir_all(dirty_dir).unwrap();
    }
}
