//! Crash-tolerant append-only logs of [`codec`] records: the one
//! implementation behind the request journal, the wire recording, the
//! event log and the span log. Each of those owns only its record type,
//! its encoder and its reader; the files, their recovery and their
//! best-effort writing live here.
//!
//! Every log stores [`codec::append_record`] frames: a 4-byte big-endian
//! body length (at most [`codec::MAX_RECORD_BYTES`]) followed by the
//! compact checksummed envelope
//! `{"schema":…,"version":…,"checksum":"fnv1a64x4:…","payload":…}`.
//!
//! # The segmented log
//!
//! The journal and the recording are **segmented logs**.
//!
//! **Segments.** A log is a directory of numbered segment files named
//! `{prefix}{index:08}.seg` (`journal-00000000.seg`,
//! `datalog-00000001.seg`, …); [`list_segments`] returns them in index
//! order and ignores every other file. The highest index is the
//! **active** segment, the only one the writer appends to.
//!
//! **Sequence numbers.** The writer stamps every record's `seq`, monotone
//! across all segments of one directory. A record takes its number when
//! it is staged. A record the encoder refuses (one over the frame cap)
//! takes none; records lost to a failed write keep theirs, and the gap is
//! legal, since resuming needs only the maximum.
//!
//! **Rotation and the seal.** When the active segment holds
//! [`SegmentOptions::segment_max_records`] records (at least one), the
//! next stage flushes what is pending, `fdatasync`s the full segment —
//! **seals** it — and creates the segment one index up. A sealed segment
//! never changes again, so compaction and replay may consume and delete
//! it while the writer appends to the active one.
//!
//! **Staging and durability.** [`SegmentWriter::stage`] encodes records
//! into a buffer and [`SegmentWriter::flush`] writes the buffer with one
//! `write` call: a served batch costs one syscall, not one per record.
//! [`SegmentWriter::durable`] counts the records successful flushes wrote
//! since open. A flushed record has reached the kernel: it survives a
//! process crash, but the tail of the active segment can be lost to a
//! power cut. A sealed segment has been `fdatasync`ed and survives one.
//! With [`SegmentOptions::sync_every_flush`] every flush also
//! `fdatasync`s the active segment, so every flushed record survives a
//! power cut, at one disk round trip per flush; the bytes written are the
//! same either way. It is off by default: the journal and the recording
//! feed retraining and replay, where losing the last batch to a power cut
//! costs a little data, never correctness.
//!
//! **Checksums.** Each record carries the striped checksum
//! ([`codec::fnv1a64x4`], tag `fnv1a64x4:`): four FNV-1a chains over the
//! quarters of its payload, run in lockstep, so one record by itself
//! keeps the multiplier as busy as four records hashed together would.
//! [`SegmentWriter::stage`] writes a record's digits as it stages it. A
//! scan ([`codec::scan_records_with`]) checks each record with the
//! algorithm its tag names as it reads it. Segments and files written
//! before the striped tag carry `fnv1a64:` (one serial chain per
//! payload) and read back with the same records, `consumed` and torn
//! tails; they are only slower to verify.
//!
//! **Torn tails.** Appends are not atomic: a crash can leave a torn
//! record at the end of the active segment. A scan ([`scan_typed`])
//! recovers every complete, checksum-verified record and reports the tail
//! as a typed error, never a panic, whatever the cut. A checksum-valid
//! record of an alien shape (not the log's record type) ends the record
//! list with a typed error as well: everything after it is untrusted.
//!
//! **Resuming.** [`SegmentWriter::open`] scans the segments newest first,
//! each through the log's own reader ([`SegmentFormat::scan_seqs`]). The
//! newest segment is reused when its scan is clean and it has room.
//! Otherwise — a torn tail, an alien record, or a full segment — it is
//! left as it is, sealed, and writing continues in a fresh segment one
//! index up: a writer never appends after garbage, so one crash costs at
//! most the record being written. `seq` resumes after the last complete
//! record of the newest segment that holds one, so a torn record's
//! number is issued again.
//!
//! # The single-file log
//!
//! The event log and the span log are single files of the same frames
//! ([`FileLog`]). Opening one scans it, truncates it to its complete
//! frames ([`codec::RecordScan::consumed`]) and resumes `seq` after the
//! last complete record. Each append encodes one record under the file's
//! lock, stamped with the next `seq`, and writes it with one `write`
//! call, so records reach the file in `seq` order.
//!
//! # Best effort
//!
//! A serving path writes through a [`Sink`]: a write that fails —
//! an oversized record, a disk error — never fails the caller. It counts
//! the lost records in [`Sink::dropped`] and keeps the error for
//! [`Sink::last_error`]; a panic on another thread holding the lock does
//! not wedge the log.

use crate::codec::{self, RecordScan};
use crate::error::{Error, Result};
use serde::Deserialize;
use serde_json::Value;
use std::borrow::Cow;
use std::fmt::Display;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// File-name suffix of every segment.
pub const SEGMENT_SUFFIX: &str = ".seg";

/// Segmented-log writer tunables.
#[derive(Debug, Clone)]
pub struct SegmentOptions {
    /// Records per segment before the writer rotates to a fresh file.
    pub segment_max_records: usize,
    /// Call `fdatasync` after every flush, not only at the seal (see the
    /// module docs).
    pub sync_every_flush: bool,
}

impl Default for SegmentOptions {
    fn default() -> Self {
        SegmentOptions {
            segment_max_records: 1024,
            sync_every_flush: false,
        }
    }
}

/// What one segmented log owns: its file names, its record envelope, its
/// encoder and its reader.
pub trait SegmentFormat {
    /// File-name prefix of its segments (`journal-`).
    const PREFIX: &'static str;
    /// Envelope schema name of its records.
    const SCHEMA: &'static str;
    /// Envelope schema version of its records.
    const VERSION: u32;
    /// The record [`SegmentWriter::stage`] takes.
    type Record;
    /// Appends `record`'s payload text, stamped `seq`.
    fn print(record: &Self::Record, seq: u64, out: &mut Vec<u8>);
    /// Reads the bytes of segment `path` as the log's own reader does,
    /// each complete record down to its `seq`.
    fn scan_seqs(path: &Path, bytes: &[u8]) -> RecordScan<u64>;
}

/// Path of segment `index` of the log with file-name `prefix` in `dir`.
pub fn segment_path(dir: &Path, prefix: &str, index: u64) -> PathBuf {
    dir.join(format!("{prefix}{index:08}{SEGMENT_SUFFIX}"))
}

/// Index parsed back out of a segment path (`None` for foreign files).
fn segment_index(path: &Path, prefix: &str) -> Option<u64> {
    path.file_name()?
        .to_str()?
        .strip_prefix(prefix)?
        .strip_suffix(SEGMENT_SUFFIX)?
        .parse()
        .ok()
}

/// Lists the segment files with file-name `prefix` in `dir`, ascending
/// by index.
///
/// # Errors
/// Returns [`Error::Artifact`] when the directory cannot be read.
pub fn list_segments(dir: &Path, prefix: &str) -> Result<Vec<PathBuf>> {
    let io = |e: std::io::Error| Error::artifact(format!("cannot list {}: {e}", dir.display()));
    let mut segments = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(io)? {
        let path = entry.map_err(io)?.path();
        if let Some(index) = segment_index(&path, prefix) {
            segments.push((index, path));
        }
    }
    segments.sort_by_key(|(index, _)| *index);
    Ok(segments.into_iter().map(|(_, path)| path).collect())
}

/// Reads a log file's bytes.
///
/// # Errors
/// Returns [`Error::Artifact`] when the file cannot be read.
pub fn read_file(path: &Path) -> Result<Vec<u8>> {
    std::fs::read(path).map_err(|e| Error::artifact(format!("cannot read {}: {e}", path.display())))
}

/// The one typed scan: [`codec::scan_records_with`], where `read` makes
/// each payload text a record or refuses its shape. A refused shape ends
/// the records with a typed error naming `source` — everything from
/// there on is untrusted, exactly like a torn tail — while `consumed`
/// stays the frame walk's own offset. An `Err` from `read` itself is a
/// corrupt frame, as in [`codec::scan_records_with`].
pub fn scan_typed<'a, T, E: Display>(
    bytes: &'a [u8],
    schema: &str,
    version: u32,
    source: &dyn Display,
    read: impl FnMut(Cow<'a, str>) -> Result<std::result::Result<T, E>>,
) -> RecordScan<T> {
    let scan = codec::scan_records_with(bytes, schema, version, read);
    let mut records = Vec::with_capacity(scan.records.len());
    let mut torn = scan.torn;
    for (i, record) in scan.records.into_iter().enumerate() {
        match record {
            Ok(record) => records.push(record),
            Err(e) => {
                torn = Some(Error::artifact(format!(
                    "{source} record {i} has an unexpected shape: {e}"
                )));
                break;
            }
        }
    }
    RecordScan {
        records,
        consumed: scan.consumed,
        torn,
    }
}

/// [`scan_typed`] for a record type read from its JSON value: every
/// payload is parsed, then read as a `T`.
pub fn scan_as<T: Deserialize>(
    bytes: &[u8],
    schema: &str,
    version: u32,
    source: &dyn Display,
) -> RecordScan<T> {
    scan_typed(bytes, schema, version, source, |text| {
        let value: Value =
            serde_json::from_str(&text).map_err(|e| Error::artifact(e.to_string()))?;
        Ok(serde_json::from_value::<T>(&value))
    })
}

/// The append side of a segmented log (see the module docs). Not
/// thread-safe by itself: a serving path shares it through a
/// [`SegmentSink`].
#[derive(Debug)]
pub struct SegmentWriter<F: SegmentFormat> {
    dir: PathBuf,
    opts: SegmentOptions,
    file: File,
    segment: u64,
    records_in_segment: usize,
    next_seq: u64,
    /// Encoded-but-unwritten frames (cleared by [`SegmentWriter::flush`]).
    pending: Vec<u8>,
    /// Records inside `pending`.
    pending_records: u64,
    /// Records durably written since open.
    durable: u64,
    format: PhantomData<F>,
}

impl<F: SegmentFormat> SegmentWriter<F> {
    /// Opens (or resumes) the log in `dir`, creating the directory if
    /// needed: reuses the newest segment or seals it and starts a fresh
    /// one, and picks the next sequence number (see the module docs).
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] on IO failure.
    pub fn open(dir: &Path, opts: SegmentOptions) -> Result<Self> {
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::artifact(format!("cannot create {}: {e}", dir.display())))?;
        let segments = list_segments(dir, F::PREFIX)?;
        // One backwards pass serves both resume questions: the newest
        // segment's scan decides whether it can be appended to, and the
        // newest segment holding any complete record fixes the next
        // sequence number.
        let mut next_seq = 0u64;
        let mut active: Option<(u64, usize, bool)> = None;
        for (i, path) in segments.iter().enumerate().rev() {
            let scan = F::scan_seqs(path, &read_file(path)?);
            if i == segments.len() - 1 {
                let index = segment_index(path, F::PREFIX).expect("listed segments parse");
                let reusable =
                    scan.torn.is_none() && scan.records.len() < opts.segment_max_records.max(1);
                active = Some(if reusable {
                    (index, scan.records.len(), true)
                } else {
                    (index + 1, 0, false)
                });
            }
            if let Some(last) = scan.records.last() {
                next_seq = last + 1;
                break;
            }
        }
        let (segment, records_in_segment, reuse) = active.unwrap_or((0, 0, false));
        let path = segment_path(dir, F::PREFIX, segment);
        let file = if reuse {
            OpenOptions::new().append(true).open(&path)
        } else {
            File::create(&path)
        }
        .map_err(|e| Error::artifact(format!("cannot open segment {}: {e}", path.display())))?;
        Ok(SegmentWriter {
            dir: dir.to_path_buf(),
            opts,
            file,
            segment,
            records_in_segment,
            next_seq,
            pending: Vec::new(),
            pending_records: 0,
            durable: 0,
            format: PhantomData,
        })
    }

    /// The sequence number the next staged record will be stamped with.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Index of the segment currently being appended to.
    pub fn active_segment(&self) -> u64 {
        self.segment
    }

    /// Records durably written since this writer opened.
    pub fn durable(&self) -> u64 {
        self.durable
    }

    /// The frames staged since the last flush.
    pub fn pending(&self) -> &[u8] {
        &self.pending
    }

    /// Encodes `record` into the pending buffer, stamped with the next
    /// sequence number, which is returned. See
    /// [`SegmentWriter::stage_with`].
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] on an oversized record or a rotation
    /// failure.
    pub fn stage(&mut self, record: F::Record) -> Result<u64> {
        self.stage_with(|seq, out| F::print(&record, seq, out))
    }

    /// Encodes one record whose payload text `print` appends, stamped
    /// with the next sequence number, which is returned. When the active
    /// segment is full, this first flushes, seals it and rotates to a
    /// fresh one. Nothing reaches disk until [`SegmentWriter::flush`].
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] on an oversized record (the sequence
    /// number is not consumed) or a rotation failure.
    pub fn stage_with(&mut self, print: impl FnOnce(u64, &mut Vec<u8>)) -> Result<u64> {
        if self.records_in_segment >= self.opts.segment_max_records.max(1) {
            self.flush()?;
            self.file
                .sync_data()
                .map_err(|e| Error::artifact(format!("cannot sync sealed segment: {e}")))?;
            self.segment += 1;
            let path = segment_path(&self.dir, F::PREFIX, self.segment);
            self.file = File::create(&path).map_err(|e| {
                Error::artifact(format!("cannot rotate to segment {}: {e}", path.display()))
            })?;
            self.records_in_segment = 0;
        }
        let seq = self.next_seq;
        codec::append_record(&mut self.pending, F::SCHEMA, F::VERSION, |out| {
            print(seq, out)
        })?;
        self.pending_records += 1;
        self.records_in_segment += 1;
        self.next_seq += 1;
        Ok(seq)
    }

    /// Writes every pending frame with one `write` call (and `fdatasync`s
    /// the segment with [`SegmentOptions::sync_every_flush`]). On failure
    /// the pending records are lost; their sequence numbers stay
    /// consumed.
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] on IO failure.
    pub fn flush(&mut self) -> Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let outcome = self
            .file
            .write_all(&self.pending)
            .and_then(|()| self.file.flush())
            .and_then(|()| {
                if self.opts.sync_every_flush {
                    self.file.sync_data()
                } else {
                    Ok(())
                }
            })
            .map_err(|e| {
                let path = segment_path(&self.dir, F::PREFIX, self.segment);
                Error::artifact(format!("cannot append to {}: {e}", path.display()))
            });
        if outcome.is_ok() {
            self.durable += self.pending_records;
        }
        self.pending.clear();
        self.pending_records = 0;
        outcome
    }

    /// Stages and flushes one record — see [`SegmentWriter::stage`].
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] on encoding or IO failure.
    pub fn append(&mut self, record: F::Record) -> Result<u64> {
        let seq = self.stage(record)?;
        self.flush()?;
        Ok(seq)
    }
}

/// Best-effort writing (see the module docs): a writer `W` behind a lock
/// that recovers from poisoning, with counts of the records that landed
/// and the records that were dropped, and the last error.
#[derive(Debug)]
pub struct Sink<W> {
    writer: Mutex<W>,
    appended: AtomicU64,
    dropped: AtomicU64,
    last_error: Mutex<Option<Error>>,
}

/// A segmented log written best effort, with state `S` advanced under
/// the writer's lock.
pub type SegmentSink<F, S = ()> = Sink<(SegmentWriter<F>, S)>;

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<W> Sink<W> {
    /// A sink over `writer`, nothing counted yet.
    pub fn new(writer: W) -> Self {
        Sink {
            writer: Mutex::new(writer),
            appended: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            last_error: Mutex::new(None),
        }
    }

    /// Offers `offered` records to `write`, which runs under the
    /// writer's lock and returns how many of them landed and the last
    /// error; the rest count as dropped.
    fn offer(&self, offered: u64, write: impl FnOnce(&mut W) -> (u64, Option<Error>)) {
        let (landed, error) = write(&mut lock(&self.writer));
        self.appended.fetch_add(landed, Ordering::AcqRel);
        self.dropped.fetch_add(offered - landed, Ordering::AcqRel);
        if let Some(e) = error {
            *lock(&self.last_error) = Some(e);
        }
    }

    /// Records written since this sink opened.
    pub fn appended(&self) -> u64 {
        self.appended.load(Ordering::Acquire)
    }

    /// Records dropped because the log could not be written.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Acquire)
    }

    /// The most recent write failure, if any.
    pub fn last_error(&self) -> Option<Error> {
        lock(&self.last_error).clone()
    }
}

impl<F: SegmentFormat> SegmentSink<F> {
    /// Opens (or resumes) the log in `dir` — see [`SegmentWriter::open`].
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] on IO failure.
    pub fn open(dir: &Path, opts: SegmentOptions) -> Result<Self> {
        Ok(Sink::new((SegmentWriter::open(dir, opts)?, ())))
    }
}

impl<F: SegmentFormat, S> SegmentSink<F, S> {
    /// Offers `offered` records: `stage` stages them (returning the last
    /// staging error, if any) and one flush writes them. What landed is
    /// read off [`SegmentWriter::durable`], so records a failed rotation
    /// or flush lost count as dropped.
    pub fn append(
        &self,
        offered: u64,
        stage: impl FnOnce(&mut SegmentWriter<F>, &mut S) -> Option<Error>,
    ) {
        self.offer(offered, |(writer, state)| {
            let before = writer.durable();
            let mut error = stage(writer, state);
            if let Err(e) = writer.flush() {
                error = Some(e);
            }
            (writer.durable() - before, error)
        });
    }
}

/// A single-file log written best effort (see the module docs).
#[derive(Debug)]
pub struct FileLog {
    path: PathBuf,
    schema: &'static str,
    version: u32,
    /// The file and the next sequence number.
    sink: Sink<(File, u64)>,
}

impl FileLog {
    /// Opens (or creates) the log at `path` for `schema`/`version`
    /// records: `seqs` reads the existing bytes, each complete record
    /// down to its `seq`. The file is truncated to the complete records
    /// and the sequence resumes after the last one.
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] when the file cannot be read, created
    /// or truncated.
    pub fn open(
        path: &Path,
        schema: &'static str,
        version: u32,
        seqs: impl FnOnce(&[u8]) -> RecordScan<u64>,
    ) -> Result<FileLog> {
        let io = |what: &str, e: std::io::Error| {
            Error::artifact(format!("cannot {what} {}: {e}", path.display()))
        };
        let scan = match std::fs::read(path) {
            Ok(bytes) => Some(seqs(&bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(io("read", e)),
        };
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| io("open", e))?;
        let mut next_seq = 0;
        if let Some(scan) = scan {
            // Drop the torn tail so the next append starts on a frame
            // boundary (append mode writes at the new end).
            file.set_len(scan.consumed as u64)
                .map_err(|e| io("truncate", e))?;
            next_seq = scan.records.last().map_or(0, |seq| seq + 1);
        }
        Ok(FileLog {
            path: path.to_path_buf(),
            schema,
            version,
            sink: Sink::new((file, next_seq)),
        })
    }

    /// Appends one record whose payload text `print` appends, stamped
    /// with the next sequence number, best effort: it is encoded and
    /// written with one `write` call under the file's lock, and a
    /// failure counts as dropped.
    pub fn append(&self, print: impl FnOnce(u64, &mut Vec<u8>)) {
        self.sink.offer(1, |(file, next_seq)| {
            let seq = *next_seq;
            let mut frame = Vec::new();
            if let Err(e) =
                codec::append_record(&mut frame, self.schema, self.version, |out| print(seq, out))
            {
                return (0, Some(e));
            }
            *next_seq += 1;
            match file.write_all(&frame) {
                Ok(()) => (1, None),
                Err(e) => {
                    let e = format!("cannot append to {}: {e}", self.path.display());
                    (0, Some(Error::artifact(e)))
                }
            }
        });
    }

    /// Records appended by this handle (not those recovered on open).
    pub fn appended(&self) -> u64 {
        self.sink.appended()
    }

    /// Records this handle failed to append.
    pub fn dropped(&self) -> u64 {
        self.sink.dropped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A segmented log of `{"seq":N,"x":X}` records.
    #[derive(Debug)]
    struct Numbers;

    #[derive(Debug, Deserialize)]
    struct Number {
        seq: u64,
    }

    impl SegmentFormat for Numbers {
        const PREFIX: &'static str = "numbers-";
        const SCHEMA: &'static str = "numbers";
        const VERSION: u32 = 1;
        type Record = i64;

        fn print(x: &i64, seq: u64, out: &mut Vec<u8>) {
            out.extend_from_slice(format!("{{\"seq\":{seq},\"x\":{x}}}").as_bytes());
        }

        fn scan_seqs(path: &Path, bytes: &[u8]) -> RecordScan<u64> {
            scan_as::<Number>(bytes, Self::SCHEMA, Self::VERSION, &path.display()).map(|n| n.seq)
        }
    }

    fn tmp(tag: &str) -> crate::TempDir {
        crate::unique_temp_dir(&format!("applog-{tag}"))
    }

    #[test]
    fn foreign_files_in_the_log_dir_are_ignored() {
        let dir = tmp("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("README.txt"), "not a segment").unwrap();
        std::fs::write(dir.join("numbers-xx.seg"), "bad index").unwrap();
        std::fs::write(dir.join("other-00000007.seg"), "another log").unwrap();
        let mut w = SegmentWriter::<Numbers>::open(&dir, SegmentOptions::default()).unwrap();
        assert_eq!(w.active_segment(), 0);
        assert_eq!(w.append(5).unwrap(), 0);
        assert_eq!(
            list_segments(&dir, Numbers::PREFIX).unwrap(),
            vec![segment_path(&dir, Numbers::PREFIX, 0)]
        );
    }

    #[test]
    fn sync_every_flush_writes_the_same_bytes() {
        // The opt-in fsync changes when bytes become durable, never what
        // is written: both modes must produce byte-identical segments.
        let write_all = |tag: &str, sync: bool| {
            let dir = tmp(tag);
            let opts = SegmentOptions {
                segment_max_records: 3,
                sync_every_flush: sync,
            };
            let mut w = SegmentWriter::<Numbers>::open(&dir, opts).unwrap();
            for x in 0..7 {
                w.append(x * 11).unwrap();
            }
            assert_eq!(w.durable(), 7);
            let bytes: Vec<Vec<u8>> = list_segments(&dir, Numbers::PREFIX)
                .unwrap()
                .iter()
                .map(|s| std::fs::read(s).unwrap())
                .collect();
            bytes
        };
        let synced = write_all("sync-on", true);
        assert_eq!(synced.len(), 3, "7 records at 3 per segment");
        assert_eq!(synced, write_all("sync-off", false));
    }
}
