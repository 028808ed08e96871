//! Durable stream cursors: where a [`crate::ChangeStream`] consumer
//! left off, persisted crash-safely.
//!
//! The file format reuses the CRC-32 line framing of
//! [`nc_docstore::persist`] (the same framing the WAL itself uses):
//!
//! ```text
//! S\t<delivered>            one header line
//! T\t<shard>\t<segment>\t<offset>   one line per shard
//! E                          explicit end marker
//! ```
//!
//! Every line carries its checksum, and the `E` marker makes
//! truncation detectable — a torn cursor file is an error, never a
//! silently shortened position. Writes go through the one atomic
//! replace of [`nc_docstore::persist::replace`], so a crash leaves
//! either the old cursor or the new one.

use std::fs;
use std::io;
use std::path::Path;

use nc_docstore::persist::{frame_line, replace, FramedLines};
use nc_shard::TailCursor;
use nc_vfs::StdVfs;

/// A saved stream position.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamCursor {
    /// Committed snapshots the consumer has fully processed.
    pub delivered: usize,
    /// Per-shard byte positions at that point (empty when the stream
    /// never saw a manifest). Used as an integrity cross-check on
    /// resume, not as the replay starting point.
    pub shards: Vec<TailCursor>,
}

impl StreamCursor {
    /// Atomically persist to `path` ([`replace`]: `<name>.tmp` beside
    /// it, fsync, rename, directory fsync).
    pub fn save(&self, path: &Path) -> io::Result<()> {
        replace(path, &StdVfs, |w| {
            writeln!(w, "{}", frame_line(&format!("S\t{}", self.delivered)))?;
            for (shard, cursor) in self.shards.iter().enumerate() {
                let body = format!("T\t{shard}\t{}\t{}", cursor.segment, cursor.offset);
                writeln!(w, "{}", frame_line(&body))?;
            }
            writeln!(w, "{}", frame_line("E"))
        })
    }

    /// Load a cursor written by [`StreamCursor::save`]. Torn, corrupt
    /// or truncated files are `InvalidData` errors.
    pub fn load(path: &Path) -> io::Result<StreamCursor> {
        Self::parse(&fs::read(path)?).map_err(|reason| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("stream cursor {}: {reason}", path.display()),
            )
        })
    }

    /// The cursor `bytes` hold, or what is wrong with them.
    fn parse(bytes: &[u8]) -> Result<StreamCursor, &'static str> {
        let mut lines = Vec::new();
        for line in FramedLines::new(bytes, 0) {
            lines.push(
                line.map_err(|_| "corrupt line")?
                    .body
                    .split('\t')
                    .collect::<Vec<_>>(),
            );
        }
        let [header, shards @ .., end] = &lines[..] else {
            return Err("missing header or end marker (truncated)");
        };
        let (["S", delivered], ["E"]) = (&header[..], &end[..]) else {
            return Err("missing header or end marker (truncated)");
        };
        fn number<T: std::str::FromStr>(text: &str) -> Result<T, &'static str> {
            text.parse().map_err(|_| "bad number")
        }
        let mut cursor = StreamCursor {
            delivered: number(delivered)?,
            shards: Vec::new(),
        };
        for (index, fields) in shards.iter().enumerate() {
            let ["T", shard, segment, offset] = fields[..] else {
                return Err("bad shard line");
            };
            if number::<usize>(shard)? != index {
                return Err("shard lines out of order");
            }
            cursor.shards.push(TailCursor {
                segment: number(segment)?,
                offset: number(offset)?,
            });
        }
        Ok(cursor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_file(name: &str) -> PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!("nc_stream_cursor_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("cursor")
    }

    #[test]
    fn cursor_round_trips() {
        let path = tmp_file("roundtrip");
        let cursor = StreamCursor {
            delivered: 7,
            shards: vec![
                TailCursor {
                    segment: 0,
                    offset: 123,
                },
                TailCursor {
                    segment: 2,
                    offset: 0,
                },
            ],
        };
        cursor.save(&path).unwrap();
        assert_eq!(StreamCursor::load(&path).unwrap(), cursor);

        // Empty shard list (stream never saw a manifest) round-trips too.
        let empty = StreamCursor::default();
        empty.save(&path).unwrap();
        assert_eq!(StreamCursor::load(&path).unwrap(), empty);
    }

    #[test]
    fn torn_and_corrupt_cursors_are_rejected() {
        let path = tmp_file("torn");
        let cursor = StreamCursor {
            delivered: 3,
            shards: vec![TailCursor {
                segment: 1,
                offset: 44,
            }],
        };
        cursor.save(&path).unwrap();
        let full = fs::read_to_string(&path).unwrap();

        // Drop the end marker: truncation must be detected.
        let torn: String = full.lines().take(2).map(|l| format!("{l}\n")).collect();
        fs::write(&path, torn).unwrap();
        assert!(StreamCursor::load(&path).is_err());

        // Flip a byte inside a framed line: checksum must catch it.
        let corrupt = full.replacen("S\t3", "S\t4", 1);
        fs::write(&path, corrupt).unwrap();
        assert!(StreamCursor::load(&path).is_err());

        // So must a byte that is not UTF-8.
        let mut bytes = full.into_bytes();
        bytes[0] = 0xff;
        fs::write(&path, bytes).unwrap();
        assert!(StreamCursor::load(&path).is_err());
    }

    /// The save's temp file is `<name>.tmp`, so a file named like the
    /// cursor with its extension swapped is not the save's to take.
    #[test]
    fn saving_a_cursor_leaves_a_sibling_tmp_file_alone() {
        let dir = tmp_file("sibling").parent().unwrap().to_path_buf();
        let unrelated = dir.join("pos.tmp");
        fs::write(&unrelated, b"not the cursor's\n").unwrap();
        let path = dir.join("pos.cursor");
        let stream = crate::ChangeStream::open(&dir);
        stream.save_cursor(&path).unwrap();
        stream.save_cursor(&path).unwrap();
        assert_eq!(fs::read(&unrelated).unwrap(), b"not the cursor's\n");
        assert_eq!(StreamCursor::load(&path).unwrap(), StreamCursor::default());
        assert!(!dir.join("pos.cursor.tmp").exists());
        fs::remove_dir_all(dir).unwrap();
    }
}
