//! Per-shard write-ahead logs, the shard manifest, and crash recovery.
//!
//! # On-disk layout
//!
//! ```text
//! <state>/manifest.tsv          commit point (atomic tmp+fsync+rename)
//! <state>/shard-0/wal-000000.log
//! <state>/shard-0/wal-000001.log   segments rotate at a size bound,
//! <state>/shard-1/wal-000000.log   always on a snapshot boundary
//! ...
//! ```
//!
//! Every WAL and manifest line is framed with the CRC-32 trailer of
//! [`nc_docstore::persist::frame_line`] and read back through the
//! workspace's one walk over framed lines, [`FramedLines`], so torn or
//! bit-flipped tails are detected line-by-line. WAL record grammar
//! (bodies, pre-framing), read by [`Records`] alone:
//!
//! ```text
//! B\t<date>\t<version>         snapshot begins
//! R\t<seq>\t<row-tsv>          one routed row that was kept
//! D\t<seq>\t<ncid>\t<record>   one routed row that was dropped: it
//!                              repeated record <record> of cluster
//!                              <ncid>, and left only bookkeeping
//! C\t<date>\t<rows>            snapshot ends; <rows> = this shard's
//!                              count of R and D records
//! ```
//!
//! A `D` record is a logged *decision*: the engine decides what a row
//! will do to the store, logs that, then applies it, so the log still
//! runs ahead of the store. The decision only means something against
//! the exact prefix it was made on, which is why replay is
//! prefix-exact: it applies the manifest's snapshots in the manifest's
//! order and nothing after the first group that is not the next one. A
//! log of `R` records only (every row logged in full, as earlier
//! versions wrote it) replays through the same path: each row is
//! decided again.
//!
//! # Commit point
//!
//! The *manifest* is the commit point, not the WAL `C` record. A
//! snapshot commits in two steps: (1) `C` appended and fsynced on every
//! shard WAL, (2) the manifest rewritten atomically listing the
//! snapshot as completed. Recovery replays WAL rows only for
//! manifest-listed snapshots; a WAL-committed-but-unmanifested snapshot
//! is *discarded* with exact loss reporting, because re-importing its
//! source file reproduces the same store state, whereas replaying it
//! and then re-importing would double the rows-seen bookkeeping.

use std::fmt::Write as _;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use nc_core::import::ImportStats;
use nc_core::record::DedupPolicy;
use nc_core::tsv::QuarantineReport;
use nc_docstore::persist::{frame_in_place, frame_line, replace, FramedLines, LineDamage};
use nc_vfs::{Vfs, VfsFile};
use nc_votergen::schema::Row;

use crate::store::Shard;

/// Aggregated outcome of WAL recovery across all shards.
///
/// "Discarded" covers both physical damage (torn or corrupt tail
/// lines) and logical rollback (rows logged for snapshots that never
/// reached the manifest commit point); [`WalRecovery::details`] says
/// which was which, per shard.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WalRecovery {
    /// Manifest-committed snapshots replayed into the store.
    pub snapshots_applied: usize,
    /// Rows re-applied from the logs.
    pub rows_replayed: u64,
    /// Parsed rows dropped because their snapshot never committed.
    pub rows_discarded: u64,
    /// Log bytes truncated (uncommitted records plus unparseable tail).
    pub bytes_discarded: u64,
    /// Shards whose log ended in physically damaged data.
    pub torn_tails: usize,
    /// Human-readable per-shard notes on everything dropped.
    pub details: Vec<String>,
}

impl WalRecovery {
    /// True when nothing was dropped anywhere.
    pub fn is_clean(&self) -> bool {
        self.rows_discarded == 0 && self.bytes_discarded == 0 && self.torn_tails == 0
    }

    /// Fold one shard's recovery into the aggregate.
    pub(crate) fn absorb(&mut self, other: WalRecovery) {
        self.snapshots_applied += other.snapshots_applied;
        self.rows_replayed += other.rows_replayed;
        self.rows_discarded += other.rows_discarded;
        self.bytes_discarded += other.bytes_discarded;
        self.torn_tails += other.torn_tails;
        self.details.extend(other.details);
    }
}

fn segment_path(dir: &Path, index: u32) -> PathBuf {
    dir.join(format!("wal-{index:06}.log"))
}

/// Directory holding one shard's segmented log under an engine state
/// directory (`<state>/shard-<n>/`). Public so log consumers — the
/// change stream in `nc-stream` — can tail the same files the engine
/// writes without guessing the layout.
pub fn shard_log_dir(state_dir: &Path, shard: usize) -> PathBuf {
    state_dir.join(format!("shard-{shard}"))
}

/// Byte position of a log tailer within one shard's segmented WAL.
///
/// The default cursor (`segment: 0, offset: 0`) points at the very
/// first record ever logged. Cursors returned by [`tail_group`] always
/// sit on a group boundary (just past a `C` record), which is also
/// where rotation happens — so a cursor never points into the middle
/// of a snapshot's records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TailCursor {
    /// Segment index (the `NNNNNN` of `wal-NNNNNN.log`).
    pub segment: u32,
    /// Byte offset of the next unread record within that segment.
    pub offset: u64,
}

/// One complete `B..C` snapshot group read from a shard's log by
/// [`tail_group`]. Rows carry only their global sequence number and
/// trimmed NCID — enough to derive cluster-level change events without
/// paying for a full row parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailGroup {
    /// Snapshot date from the `B` record.
    pub date: String,
    /// Import version from the `B` record.
    pub version: u32,
    /// `(global sequence number, trimmed NCID)` per logged row, in log
    /// (= original snapshot) order. Duplicate-dropped rows are
    /// included, exactly as the WAL records them.
    pub rows: Vec<(u64, String)>,
    /// Cursor positioned just past this group's commit record.
    pub next: TailCursor,
}

/// Read the next complete `B..C` group from a shard's log, starting at
/// `cursor`.
///
/// Returns `Ok(None)` when no *complete* group is readable yet: a
/// fresh directory, a cursor at the durable end of the log, or a tail
/// that is torn, corrupt, or still being written. Callers that know
/// (from the manifest) that a committed group must exist at the cursor
/// should treat `None` as desynchronization, because `C` records are
/// fsynced before the manifest commits.
///
/// Rotation is handled transparently: a cursor at the clean end of a
/// segment advances to the next segment when one exists. A segment
/// *missing* beneath the cursor while later segments exist means the
/// log was rewritten behind the tailer (wipe + re-ingest) and is
/// reported as an error rather than silently rereading.
pub fn tail_group(dir: &Path, cursor: TailCursor) -> io::Result<Option<TailGroup>> {
    let mut segment = cursor.segment;
    let mut offset = cursor.offset;
    loop {
        let path = segment_path(dir, segment);
        let data = match fs::read(&path) {
            Ok(data) => data,
            Err(err) if err.kind() == io::ErrorKind::NotFound => {
                let newer = segments(dir)?.iter().any(|(idx, _)| *idx > segment);
                if newer {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("wal segment {segment} missing beneath a live log"),
                    ));
                }
                return Ok(None);
            }
            Err(err) => return Err(err),
        };
        let start = usize::try_from(offset).unwrap_or(usize::MAX);
        if start > data.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("wal segment {segment} truncated beneath cursor offset {offset}"),
            ));
        }
        if start == data.len() {
            // Clean end of this segment. A later segment means the
            // writer rotated here (always on a group boundary).
            if segments(dir)?.iter().any(|(idx, _)| *idx == segment + 1) {
                segment += 1;
                offset = 0;
                continue;
            }
            return Ok(None);
        }

        let mut records = Records::new(&data, start, None);
        let mut rows: Vec<(u64, String)> = Vec::new();
        // Damage awaits recovery; a group with no C yet is in flight.
        while let Some((_, Ok(record))) = records.next() {
            match record {
                Record::Begin { .. } => {}
                Record::Row { seq, tsv, .. } => {
                    let ncid = tsv.split('\t').next().unwrap_or_default().trim();
                    rows.push((seq, ncid.to_owned()));
                }
                Record::Duplicate { seq, ncid, .. } => rows.push((seq, ncid.to_owned())),
                Record::Commit { group, end } => {
                    return Ok(Some(TailGroup {
                        date: group.date,
                        version: group.version,
                        rows,
                        next: TailCursor { segment, offset: end as u64 },
                    }));
                }
            }
        }
        return Ok(None);
    }
}

/// The `B..C` group a log reader is inside of.
struct OpenGroup {
    date: String,
    version: u32,
    /// `R` and `D` records read so far.
    rows: u64,
}

/// One WAL record, read in place.
enum Record<'r, 'a> {
    /// `B`: a group opened.
    Begin { date: &'a str },
    /// `R`: a kept row, inside `group`.
    Row { group: &'r OpenGroup, seq: u64, tsv: &'a str },
    /// `D`: a dropped row's decision, inside `group`.
    Duplicate { group: &'r OpenGroup, seq: u64, ncid: &'a str, record: usize },
    /// `C`: `group` closed with the date and row count it promised;
    /// `end` is the byte offset just past the record.
    Commit { group: OpenGroup, end: usize },
}

/// The one reader of the WAL record grammar (module docs): a
/// [`FramedLines`] walk over a segment's bytes whose bodies must be
/// records in `B (R|D)* C` order, each `C` naming its group's date and
/// row count. The open group is the reader's state, handed from one
/// segment's reader to the next by a replay. [`replay_shard`] and
/// [`tail_group`] both stop at the first `Err`, which names the damage.
struct Records<'a> {
    lines: FramedLines<'a>,
    open: Option<OpenGroup>,
}

impl<'a> Records<'a> {
    fn new(bytes: &'a [u8], start: usize, open: Option<OpenGroup>) -> Self {
        Records { lines: FramedLines::new(bytes, start), open }
    }

    /// The next record, with the byte offset of its line.
    fn next(&mut self) -> Option<(usize, Result<Record<'_, 'a>, &'static str>)> {
        Some(match self.lines.next()? {
            Ok(line) => (line.offset, self.read(line.body, line.end)),
            Err(damage) if damage.kind == LineDamage::Torn => (damage.offset, Err("partial line")),
            Err(damage) => (damage.offset, Err("corrupt record")),
        })
    }

    fn read(&mut self, body: &'a str, end: usize) -> Result<Record<'_, 'a>, &'static str> {
        const MALFORMED: &str = "malformed record or unknown record type";
        let (kind, rest) = body.split_once('\t').ok_or(MALFORMED)?;
        let (first, rest) = rest.split_once('\t').ok_or(MALFORMED)?;
        if kind == "C" {
            let rows: u64 = number(rest)?;
            return match self.open.take_if(|group| group.date == first && group.rows == rows) {
                Some(group) => Ok(Record::Commit { group, end }),
                None if self.open.is_some() => Err("commit record disagrees with its snapshot"),
                None => Err("misplaced record"),
            };
        }
        match (kind, &mut self.open) {
            ("B", open @ None) => {
                *open = Some(OpenGroup { date: first.to_owned(), version: number(rest)?, rows: 0 });
                Ok(Record::Begin { date: first })
            }
            ("R", Some(group)) => {
                let seq = number(first)?;
                group.rows += 1;
                Ok(Record::Row { group, seq, tsv: rest })
            }
            ("D", Some(group)) => {
                let (ncid, record) = rest.split_once('\t').ok_or(MALFORMED)?;
                let (seq, record) = (number(first)?, number(record)?);
                group.rows += 1;
                Ok(Record::Duplicate { group, seq, ncid, record })
            }
            ("B" | "R" | "D", _) => Err("misplaced record"),
            _ => Err(MALFORMED),
        }
    }
}

/// Existing WAL segments in `dir`, sorted by index.
pub(crate) fn segments(dir: &Path) -> io::Result<Vec<(u32, PathBuf)>> {
    let mut found = Vec::new();
    if !dir.exists() {
        return Ok(found);
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(idx) = name
            .strip_prefix("wal-")
            .and_then(|rest| rest.strip_suffix(".log"))
            .and_then(|digits| digits.parse::<u32>().ok())
        {
            found.push((idx, path));
        }
    }
    found.sort_by_key(|(idx, _)| *idx);
    Ok(found)
}

/// One shard's append-only log. All mutating syscalls go through the
/// injected [`Vfs`], so the fault sweeps can fail any one of them.
#[derive(Debug)]
pub(crate) struct ShardWal {
    dir: PathBuf,
    segment: u32,
    writer: BufWriter<Box<dyn VfsFile>>,
    /// The record being framed; reused, so appending allocates nothing.
    line: String,
    bytes: u64,
    segment_bytes: u64,
    vfs: Arc<dyn Vfs>,
}

impl ShardWal {
    /// Open the shard's log for appending, continuing the last segment
    /// (or creating `wal-000000.log` in a fresh directory).
    pub(crate) fn open(dir: &Path, segment_bytes: u64, vfs: Arc<dyn Vfs>) -> io::Result<Self> {
        vfs.create_dir_all(dir)?;
        let existing = segments(dir)?;
        let (segment, created) = match existing.last() {
            Some((idx, _)) => (*idx, false),
            None => (0, true),
        };
        let path = segment_path(dir, segment);
        let file = vfs.append(&path)?;
        let bytes = file.file_len()?;
        if created {
            vfs.sync_dir(dir)?;
        }
        Ok(ShardWal {
            dir: dir.to_path_buf(),
            segment,
            writer: BufWriter::new(file),
            line: String::new(),
            bytes,
            segment_bytes,
            vfs,
        })
    }

    /// Frame the record body `write_body` puts into the line buffer and
    /// append it to the log.
    fn append(&mut self, write_body: impl FnOnce(&mut String)) -> io::Result<()> {
        self.line.clear();
        write_body(&mut self.line);
        frame_in_place(&mut self.line);
        self.line.push('\n');
        self.writer.write_all(self.line.as_bytes())?;
        self.bytes += self.line.len() as u64;
        Ok(())
    }

    /// Log the start of a snapshot.
    pub(crate) fn begin_snapshot(&mut self, date: &str, version: u32) -> io::Result<()> {
        self.append(|body| write!(body, "B\t{date}\t{version}").expect("String write"))
    }

    /// Log one routed row that will be kept, under its global sequence
    /// number.
    pub(crate) fn append_row(&mut self, seq: u64, row: &Row) -> io::Result<()> {
        self.append(|body| {
            body.push_str("R\t");
            push_decimal(body, seq);
            body.push('\t');
            body.push_str(row.as_tsv());
        })
    }

    /// Log, under its global sequence number, that a routed row
    /// repeated record `record` of cluster `ncid` and was dropped.
    pub(crate) fn append_duplicate(
        &mut self,
        seq: u64,
        ncid: &str,
        record: usize,
    ) -> io::Result<()> {
        self.append(|body| {
            body.push_str("D\t");
            push_decimal(body, seq);
            body.push('\t');
            body.push_str(ncid);
            body.push('\t');
            push_decimal(body, record as u64);
        })
    }

    /// Log the end of a snapshot (`rows` = this shard's routed count)
    /// and make everything durable.
    pub(crate) fn commit_snapshot(&mut self, date: &str, rows: u64) -> io::Result<()> {
        self.append(|body| write!(body, "C\t{date}\t{rows}").expect("String write"))?;
        self.writer.flush()?;
        self.writer.get_mut().sync_file()
    }

    /// Rotate to a fresh segment when the current one has outgrown the
    /// size bound. Only called on snapshot boundaries, so a snapshot's
    /// records never straddle segments (recovery relies on this).
    pub(crate) fn maybe_rotate(&mut self) -> io::Result<bool> {
        if self.bytes <= self.segment_bytes {
            return Ok(false);
        }
        self.writer.flush()?;
        self.writer.get_mut().sync_file()?;
        self.segment += 1;
        let path = segment_path(&self.dir, self.segment);
        let file = self.vfs.create(&path)?;
        self.vfs.sync_dir(&self.dir)?;
        self.writer = BufWriter::new(file);
        self.bytes = 0;
        Ok(true)
    }
}

/// Append `n` in decimal, as `write!(body, "{n}")` would, without going
/// through `fmt` (the row records are the log's hot path).
fn push_decimal(body: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    body.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// What replaying one shard's log did.
#[derive(Debug)]
pub(crate) struct ShardReplay {
    /// Highest global sequence number among the re-applied rows.
    pub max_seq: Option<u64>,
    /// This shard's contribution to the aggregate [`WalRecovery`].
    pub recovery: WalRecovery,
}

/// Replay one shard's log into `shard`: the snapshots of `expected`
/// (the manifest's list, in its order) are re-applied for as long as
/// the log delivers exactly them, and everything after the last one
/// applied — torn tails, corrupt or out-of-grammar lines, duplicate
/// records that name nothing in the store, WAL-committed snapshots the
/// manifest does not list next, and whatever follows any of these — is
/// truncated through `vfs` with exact loss accounting.
///
/// Records are applied as they are read, so when fewer than
/// `expected.len()` snapshots come back applied the shard may hold part
/// of the next one: the manifest promised a snapshot the log cannot
/// deliver, and the caller discards the state.
pub(crate) fn replay_shard(
    dir: &Path,
    expected: &[&str],
    shard: &mut Shard,
    policy: DedupPolicy,
    vfs: &dyn Vfs,
) -> io::Result<ShardReplay> {
    let shard_name = dir
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("shard")
        .to_owned();
    let segs = segments(dir)?;
    let mut out = ShardReplay {
        max_seq: None,
        recovery: WalRecovery::default(),
    };

    // Prefix-scan the segments in order; `keep` is the position just
    // after the last commit we re-applied.
    let mut keep: Option<(usize, u64)> = None;
    let mut damaged: Option<String> = None;
    let mut open: Option<OpenGroup> = None;
    // Whether the open group is the snapshot the manifest lists next,
    // so its records are applied as they are read. Prefix-exact: false
    // for good once a group was passed over.
    let mut applying = true;

    'segments: for (si, (_, path)) in segs.iter().enumerate() {
        let data = fs::read(path)?;
        let mut records = Records::new(&data, 0, open.take());
        while let Some((offset, record)) = records.next() {
            let problem = match record {
                Ok(Record::Begin { date }) => {
                    applying &= expected.get(out.recovery.snapshots_applied) == Some(&date);
                    None
                }
                Ok(Record::Row { group, seq, tsv }) => match Row::from_tsv(tsv) {
                    Some(row) => {
                        if applying {
                            shard.import(seq, row, policy, &group.date, group.version);
                            out.max_seq = out.max_seq.max(Some(seq));
                        }
                        None
                    }
                    None => Some("malformed row record"),
                },
                Ok(Record::Duplicate { group, seq, ncid, record }) => {
                    if !applying {
                        None
                    } else if shard.store.replay_duplicate(ncid, record, &group.date) {
                        out.max_seq = out.max_seq.max(Some(seq));
                        None
                    } else {
                        Some("duplicate record names no stored record")
                    }
                }
                Ok(Record::Commit { group, end }) => {
                    let (date, rows) = (group.date, group.rows);
                    if applying {
                        out.recovery.rows_replayed += rows;
                        out.recovery.snapshots_applied += 1;
                        keep = Some((si, end as u64));
                    } else {
                        out.recovery.rows_discarded += rows;
                        out.recovery.details.push(format!(
                            "{shard_name}: rolled back snapshot {date} ({rows} rows) — {}",
                            if expected.contains(&date.as_str()) {
                                "the manifest lists it, but not after this log's prefix"
                            } else {
                                // The crash hit between the two commit steps.
                                "logged but never committed to the manifest"
                            }
                        ));
                    }
                    None
                }
                Err(problem) => Some(problem),
            };
            if let Some(problem) = problem {
                damaged = Some(format!(
                    "{shard_name}: {problem} at byte {offset} of segment {si}"
                ));
                open = records.open;
                break 'segments;
            }
        }
        open = records.open;
    }

    if let Some(reason) = damaged {
        out.recovery.torn_tails += 1;
        out.recovery.details.push(reason);
    }
    // Rows from a snapshot cut off mid-flight (B + some rows, no C).
    if let Some(OpenGroup { date, rows, .. }) = open {
        if rows > 0 {
            out.recovery.details.push(format!(
                "{shard_name}: dropped incomplete snapshot {date} ({rows} rows)"
            ));
        }
        out.recovery.rows_discarded += rows;
    }

    // Cut the logs back to the keep point (nothing durable at all:
    // clear them) and account for every byte dropped.
    let mut unlinked = false;
    for (si, (_, path)) in segs.iter().enumerate() {
        let len = fs::metadata(path)?.len();
        match keep {
            Some((keep_si, _)) if si < keep_si => {}
            Some((keep_si, keep_off)) if si == keep_si => {
                if len > keep_off {
                    out.recovery.bytes_discarded += len - keep_off;
                    vfs.truncate(path, keep_off)?;
                }
            }
            _ => {
                out.recovery.bytes_discarded += len;
                vfs.remove_file(path)?;
                unlinked = true;
            }
        }
    }
    if unlinked {
        vfs.sync_dir(dir)?;
    }
    Ok(out)
}

const MANIFEST_FILE: &str = "manifest.tsv";
const MANIFEST_HEADER: &str = "nc-shard-manifest";
const MANIFEST_FORMAT: u32 = 1;

fn policy_label(policy: DedupPolicy) -> &'static str {
    match policy {
        DedupPolicy::None => "None",
        DedupPolicy::Exact => "Exact",
        DedupPolicy::Trimmed => "Trimmed",
        DedupPolicy::PersonData => "PersonData",
    }
}

fn parse_policy(label: &str) -> Option<DedupPolicy> {
    DedupPolicy::ALL
        .into_iter()
        .find(|p| policy_label(*p) == label)
}

/// The engine's commit point: which snapshots are durably ingested,
/// under which parameters, with their exact [`ImportStats`].
///
/// Public read-only: log consumers (the `nc-stream` change stream)
/// load the manifest to learn which snapshot groups are committed and
/// therefore safe to deliver. Only the engine writes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// Shard count the logs were written under (routing depends on it).
    pub shards: usize,
    /// Dedup policy of the ingest.
    pub policy: DedupPolicy,
    /// Import version of the ingest.
    pub version: u32,
    /// Completed snapshots, in ingest order, with their merged stats.
    pub completed: Vec<ImportStats>,
    /// Archive-level quarantine accounting at the last commit.
    pub quarantine: QuarantineReport,
}

/// Outcome of reading the manifest off disk.
#[derive(Debug)]
pub enum ManifestState {
    /// No manifest: a fresh (or never-committed) state directory.
    Absent,
    /// A manifest exists but cannot be trusted; the reason explains.
    Damaged(String),
    /// The manifest parsed and verified cleanly.
    Loaded(ShardManifest),
}

impl ShardManifest {
    /// Atomically persist the manifest into `state_dir` ([`replace`]:
    /// tmp + fsync + rename + directory fsync), making everything the
    /// WALs hold for the listed snapshots durable-by-reference. Every
    /// mutating syscall goes through `vfs`; the commit-point guarantee
    /// ("old manifest or new manifest, never a third state") is swept
    /// at every crash point in `tests/syscall_sweep.rs`.
    pub(crate) fn save(&self, state_dir: &Path, vfs: &dyn Vfs) -> io::Result<()> {
        let q = &self.quarantine;
        let mut bodies = vec![
            format!(
                "{MANIFEST_HEADER}\t{MANIFEST_FORMAT}\t{}\t{}\t{}",
                self.shards,
                policy_label(self.policy),
                self.version
            ),
            format!(
                "Q\t{}\t{}\t{}",
                q.lines_quarantined, q.files_quarantined, q.remapped_headers
            ),
        ];
        bodies.extend(self.completed.iter().map(|s| {
            format!(
                "S\t{}\t{}\t{}\t{}\t{}",
                s.date, s.total_rows, s.new_records, s.new_clusters, s.quarantined
            )
        }));
        replace(&state_dir.join(MANIFEST_FILE), vfs, |w| {
            bodies.iter().try_for_each(|body| writeln!(w, "{}", frame_line(body)))
        })
    }

    /// Read the manifest from `state_dir`, verifying every line frame.
    pub fn load(state_dir: &Path) -> io::Result<ManifestState> {
        let bytes = match fs::read(state_dir.join(MANIFEST_FILE)) {
            Ok(bytes) => bytes,
            Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(ManifestState::Absent),
            Err(err) => return Err(err),
        };
        Ok(match Self::parse(&bytes) {
            Ok(manifest) => ManifestState::Loaded(manifest),
            Err(what) => ManifestState::Damaged(format!("manifest: {what}")),
        })
    }

    /// The manifest `bytes` hold, or what is wrong with them.
    fn parse(bytes: &[u8]) -> Result<ShardManifest, &'static str> {
        let mut lines = Vec::new();
        for line in FramedLines::new(bytes, 0) {
            lines.push(line.map_err(|_| "corrupt line")?.body.split('\t').collect::<Vec<_>>());
        }
        let [header, quarantine, snapshots @ ..] = &lines[..] else {
            return Err("missing header or quarantine line");
        };
        let [MANIFEST_HEADER, format, shards, policy, version] = header[..] else {
            return Err("not a shard manifest");
        };
        if number(format) != Ok(MANIFEST_FORMAT) {
            return Err("unsupported format version");
        }
        let ["Q", lines_quarantined, files_quarantined, remapped_headers] = quarantine[..] else {
            return Err("bad quarantine line");
        };
        let mut manifest = ShardManifest {
            shards: number(shards)?,
            policy: parse_policy(policy).ok_or("unknown dedup policy")?,
            version: number(version)?,
            completed: Vec::new(),
            quarantine: QuarantineReport {
                lines_quarantined: number(lines_quarantined)?,
                files_quarantined: number(files_quarantined)?,
                remapped_headers: number(remapped_headers)?,
                per_snapshot: Vec::new(),
            },
        };
        for fields in snapshots {
            let ["S", date, total, records, clusters, quarantined] = fields[..] else {
                return Err("bad snapshot line");
            };
            let quarantined = number(quarantined)?;
            manifest.quarantine.per_snapshot.push((date.to_owned(), quarantined));
            manifest.completed.push(ImportStats {
                date: date.to_owned(),
                total_rows: number(total)?,
                new_records: number(records)?,
                new_clusters: number(clusters)?,
                quarantined,
            });
        }
        Ok(manifest)
    }
}

/// A decimal field of a record or manifest line.
fn number<T: std::str::FromStr>(text: &str) -> Result<T, &'static str> {
    text.parse().map_err(|_| "malformed number")
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_votergen::schema::{Row, LAST_NAME, NCID};
    use nc_vfs::StdVfs;

    fn tmp_dir(name: &str) -> PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!("nc_shard_wal_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn row(ncid: &str) -> Row {
        let mut r = Row::empty();
        r.set(NCID, ncid);
        r.set(LAST_NAME, "DOE");
        r
    }

    fn replay_into(dir: &Path, expected: &[&str], shard: &mut Shard) -> ShardReplay {
        replay_shard(dir, expected, shard, DedupPolicy::Trimmed, &StdVfs).unwrap()
    }

    fn write_snapshot_records(wal: &mut ShardWal, date: &str, seqs: &[u64]) {
        wal.begin_snapshot(date, 1).unwrap();
        for &seq in seqs {
            wal.append_row(seq, &row(&format!("NC{seq}"))).unwrap();
        }
        wal.commit_snapshot(date, seqs.len() as u64).unwrap();
    }

    #[test]
    fn decimals_are_written_as_fmt_writes_them() {
        for n in [0, 1, 9, 10, 99, 100, 12_345, u64::from(u32::MAX), u64::MAX] {
            let mut body = String::from("R\t");
            push_decimal(&mut body, n);
            assert_eq!(body, format!("R\t{n}"));
        }
    }

    #[test]
    fn clean_log_replays_only_manifested_snapshots() {
        let dir = tmp_dir("clean");
        let mut wal = ShardWal::open(&dir, 1 << 20, Arc::new(StdVfs)).unwrap();
        write_snapshot_records(&mut wal, "2008-11-04", &[0, 1, 2]);
        write_snapshot_records(&mut wal, "2009-01-01", &[5, 7]);
        drop(wal);

        let completed = ["2008-11-04"];
        let mut shard = Shard::new();
        let replay = replay_into(&dir, &completed, &mut shard);
        assert_eq!(replay.recovery.snapshots_applied, 1);
        assert_eq!(replay.recovery.rows_replayed, 3);
        assert_eq!((shard.store.rows_imported(), replay.max_seq), (3, Some(2)));
        // The unmanifested second snapshot rolls back with exact loss.
        assert_eq!(replay.recovery.rows_discarded, 2);
        assert!(replay.recovery.bytes_discarded > 0);
        assert_eq!(replay.recovery.torn_tails, 0);

        // After truncation the log replays identically again.
        let again = replay_into(&dir, &completed, &mut Shard::new());
        assert_eq!(again.recovery.snapshots_applied, 1);
        assert!(again.recovery.is_clean());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_with_exact_accounting() {
        let dir = tmp_dir("torn");
        let mut wal = ShardWal::open(&dir, 1 << 20, Arc::new(StdVfs)).unwrap();
        write_snapshot_records(&mut wal, "2008-11-04", &[0, 1]);
        // Crash mid-snapshot: begin + one row, no commit, torn bytes.
        wal.begin_snapshot("2009-01-01", 1).unwrap();
        wal.append_row(9, &row("NC9")).unwrap();
        wal.commit_snapshot("2009-01-01", 1).unwrap();
        drop(wal);
        let seg = segment_path(&dir, 0);
        let full = fs::metadata(&seg).unwrap().len();
        // Chop the commit record in half to simulate the tear.
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..bytes.len() - 7]).unwrap();

        let completed = ["2008-11-04"];
        let replay = replay_into(&dir, &completed, &mut Shard::new());
        assert_eq!(replay.recovery.snapshots_applied, 1);
        assert_eq!(replay.recovery.rows_replayed, 2);
        assert_eq!(replay.recovery.rows_discarded, 1, "the parsed row of the torn snapshot");
        assert_eq!(replay.recovery.torn_tails, 1);
        assert!(replay.recovery.bytes_discarded > 0);
        assert!(fs::metadata(&seg).unwrap().len() < full);
        // Idempotent after truncation.
        assert!(replay_into(&dir, &completed, &mut Shard::new()).recovery.is_clean());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn rotation_splits_segments_on_snapshot_boundaries() {
        let dir = tmp_dir("rotate");
        let mut wal = ShardWal::open(&dir, 64, Arc::new(StdVfs)).unwrap();
        write_snapshot_records(&mut wal, "2008-11-04", &[0, 1, 2, 3]);
        assert!(wal.maybe_rotate().unwrap(), "past the 64-byte bound");
        write_snapshot_records(&mut wal, "2009-01-01", &[4, 5]);
        drop(wal);
        assert_eq!(segments(&dir).unwrap().len(), 2);

        let completed = ["2008-11-04", "2009-01-01"];
        let replay = replay_into(&dir, &completed, &mut Shard::new());
        assert_eq!(replay.recovery.snapshots_applied, 2);
        assert_eq!(replay.recovery.rows_replayed, 6);
        assert!(replay.recovery.is_clean());

        // Reopen appends to the *last* segment.
        let wal = ShardWal::open(&dir, 64, Arc::new(StdVfs)).unwrap();
        assert_eq!(wal.segment, 1);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn corrupt_middle_discards_everything_after_it() {
        let dir = tmp_dir("flip");
        let mut wal = ShardWal::open(&dir, 1 << 20, Arc::new(StdVfs)).unwrap();
        write_snapshot_records(&mut wal, "2008-11-04", &[0]);
        let keep_len = {
            wal.writer.flush().unwrap();
            fs::metadata(segment_path(&dir, 0)).unwrap().len()
        };
        write_snapshot_records(&mut wal, "2009-01-01", &[1, 2]);
        drop(wal);
        // Flip a byte inside the second snapshot's records.
        let seg = segment_path(&dir, 0);
        let mut bytes = fs::read(&seg).unwrap();
        let target = keep_len as usize + 10;
        bytes[target] ^= 0x40;
        fs::write(&seg, &bytes).unwrap();

        let completed = ["2008-11-04", "2009-01-01"];
        let replay = replay_into(&dir, &completed, &mut Shard::new());
        // Only the first snapshot survives; the engine notices the
        // second is missing and escalates to a full restart.
        assert_eq!(replay.recovery.snapshots_applied, 1);
        assert_eq!(replay.recovery.torn_tails, 1);
        assert_eq!(fs::metadata(&seg).unwrap().len(), keep_len);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn tail_group_walks_groups_and_stops_at_the_durable_end() {
        let dir = tmp_dir("tail");
        assert_eq!(tail_group(&dir, TailCursor::default()).unwrap(), None);

        let mut wal = ShardWal::open(&dir, 1 << 20, Arc::new(StdVfs)).unwrap();
        write_snapshot_records(&mut wal, "2008-11-04", &[0, 1, 2]);
        write_snapshot_records(&mut wal, "2009-01-01", &[5, 7]);
        drop(wal);

        let first = tail_group(&dir, TailCursor::default()).unwrap().unwrap();
        assert_eq!(first.date, "2008-11-04");
        assert_eq!(first.version, 1);
        assert_eq!(
            first.rows,
            vec![(0, "NC0".into()), (1, "NC1".into()), (2, "NC2".into())]
        );
        let second = tail_group(&dir, first.next).unwrap().unwrap();
        assert_eq!(second.date, "2009-01-01");
        assert_eq!(second.rows, vec![(5, "NC5".into()), (7, "NC7".into())]);
        // Cursor now sits at the durable end.
        assert_eq!(tail_group(&dir, second.next).unwrap(), None);
        fs::remove_dir_all(dir).unwrap();
    }

    /// A `D` record counts as a row everywhere a row is counted — the
    /// commit count, the tailer's `(seq, ncid)` list, `rows_replayed` —
    /// and replays as the bookkeeping of the row it stands for.
    #[test]
    fn duplicate_records_are_tailed_and_replayed_as_rows() {
        let dir = tmp_dir("duplicates");
        let mut wal = ShardWal::open(&dir, 1 << 20, Arc::new(StdVfs)).unwrap();
        write_snapshot_records(&mut wal, "2008-11-04", &[0, 1]);
        wal.begin_snapshot("2009-01-01", 1).unwrap();
        wal.append_duplicate(4, "NC1", 0).unwrap();
        wal.append_row(6, &row(" NC6 ")).unwrap();
        wal.append_duplicate(7, "NC6", 0).unwrap();
        wal.commit_snapshot("2009-01-01", 3).unwrap();
        // Names a record NC0 does not have: decided on another store.
        wal.begin_snapshot("2009-03-01", 1).unwrap();
        wal.append_duplicate(9, "NC0", 1).unwrap();
        wal.commit_snapshot("2009-03-01", 1).unwrap();
        drop(wal);

        let first = tail_group(&dir, TailCursor::default()).unwrap().unwrap();
        let second = tail_group(&dir, first.next).unwrap().unwrap();
        assert_eq!(
            second.rows,
            vec![(4, "NC1".into()), (6, "NC6".into()), (7, "NC6".into())]
        );

        let mut shard = Shard::new();
        let replay = replay_into(&dir, &["2008-11-04", "2009-01-01"], &mut shard);
        assert!(replay.recovery.rows_discarded == 1 && replay.recovery.torn_tails == 0);
        assert_eq!((replay.recovery.rows_replayed, replay.max_seq), (5, Some(7)));
        assert_eq!((shard.store.rows_imported(), shard.store.record_count()), (5, 3));
        assert_eq!(
            shard.store.record_snapshots("NC1").unwrap(),
            vec![vec!["2008-11-04", "2009-01-01"]]
        );
        assert_eq!(shard.store.cluster_rows_seen(), vec![1, 2, 2]);

        // Promised the third snapshot too, the replay stops at its `D`.
        write_snapshot_records(
            &mut ShardWal::open(&dir, 1 << 20, Arc::new(StdVfs)).unwrap(),
            "2009-03-01",
            &[],
        );
        let mut wal = ShardWal::open(&dir, 1 << 20, Arc::new(StdVfs)).unwrap();
        wal.begin_snapshot("2009-05-01", 1).unwrap();
        wal.append_duplicate(9, "NC0", 1).unwrap();
        wal.commit_snapshot("2009-05-01", 1).unwrap();
        drop(wal);
        let expected = ["2008-11-04", "2009-01-01", "2009-03-01", "2009-05-01"];
        let replay = replay_into(&dir, &expected, &mut Shard::new());
        assert_eq!(replay.recovery.snapshots_applied, 3);
        assert_eq!((replay.recovery.rows_discarded, replay.recovery.torn_tails), (1, 1));
        assert!(replay.recovery.details[0].contains("names no stored record"));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn tail_group_follows_rotation_and_refuses_none_on_torn_tails() {
        let dir = tmp_dir("tail_rotate");
        let mut wal = ShardWal::open(&dir, 64, Arc::new(StdVfs)).unwrap();
        write_snapshot_records(&mut wal, "2008-11-04", &[0, 1]);
        assert!(wal.maybe_rotate().unwrap());
        write_snapshot_records(&mut wal, "2009-01-01", &[2]);
        // Crash mid-group: begin + row, no commit yet.
        wal.begin_snapshot("2009-03-01", 1).unwrap();
        wal.append_row(9, &row("NC9")).unwrap();
        wal.writer.flush().unwrap();
        drop(wal);

        let first = tail_group(&dir, TailCursor::default()).unwrap().unwrap();
        assert_eq!(first.date, "2008-11-04");
        assert_eq!(first.next.segment, 0);
        // Cursor at the clean end of segment 0 crosses into segment 1.
        let second = tail_group(&dir, first.next).unwrap().unwrap();
        assert_eq!(second.date, "2009-01-01");
        assert_eq!(second.next.segment, 1);
        // The in-flight third group is not yet deliverable.
        assert_eq!(tail_group(&dir, second.next).unwrap(), None);

        // A segment vanishing beneath the cursor is an error, not None.
        fs::remove_file(segment_path(&dir, 0)).unwrap();
        assert!(tail_group(&dir, TailCursor::default()).is_err());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn manifest_round_trips_and_detects_damage() {
        let dir = tmp_dir("manifest");
        let manifest = ShardManifest {
            shards: 3,
            policy: DedupPolicy::Trimmed,
            version: 2,
            completed: vec![
                ImportStats {
                    date: "2008-11-04".into(),
                    total_rows: 10,
                    new_records: 9,
                    new_clusters: 8,
                    quarantined: 1,
                },
                ImportStats {
                    date: "2009-01-01".into(),
                    total_rows: 12,
                    new_records: 3,
                    new_clusters: 1,
                    quarantined: 0,
                },
            ],
            quarantine: QuarantineReport {
                lines_quarantined: 1,
                files_quarantined: 0,
                remapped_headers: 2,
                per_snapshot: vec![("2008-11-04".into(), 1), ("2009-01-01".into(), 0)],
            },
        };
        manifest.save(&dir, &StdVfs).unwrap();
        match ShardManifest::load(&dir).unwrap() {
            ManifestState::Loaded(loaded) => assert_eq!(loaded, manifest),
            other => panic!("expected Loaded, got {other:?}"),
        }
        // Absent in an empty directory.
        let empty = tmp_dir("manifest_empty");
        assert!(matches!(
            ShardManifest::load(&empty).unwrap(),
            ManifestState::Absent
        ));

        // Any flipped byte is detected.
        let path = dir.join(MANIFEST_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            ShardManifest::load(&dir).unwrap(),
            ManifestState::Damaged(_)
        ));
        fs::remove_dir_all(dir).unwrap();
        fs::remove_dir_all(empty).unwrap();
    }
}
