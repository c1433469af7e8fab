//! The request journal: a segmented, crash-tolerant append-only log of
//! served selections.
//!
//! Every record captures one answered request — the served feature
//! vector, the chosen landmark, the drift/fallback outcome, the serving
//! artifact's revision, and (when the client shipped one) an opaque
//! raw-input payload. Records are framed with the workspace's checksummed
//! record codec ([`intune_core::codec::encode_record`]): a 4-byte
//! big-endian length prefix followed by a compact checksummed JSON
//! envelope (`schema: "intune-request-journal"`, version 1).
//!
//! ## Segments
//!
//! A journal directory holds numbered segment files
//! (`journal-00000000.seg`, `journal-00000001.seg`, …). The writer
//! appends to the highest-numbered segment and rotates to a fresh one
//! every `segment_max_records` records, so compaction can consume sealed
//! segments while the daemon keeps appending to the active one.
//!
//! ## Reading
//!
//! There is one segment reader, [`scan_segment`]. It verifies every
//! record's checksum over its stored bytes and parses every field but the
//! raw-input payload, which it checks against the JSON grammar and hands
//! over as text in a [`LazyRecord`]. Payloads are by far the bulk of a
//! journal, and compaction keeps few of them, so a reader parses a
//! payload only when it needs the value ([`LazyRecord::parse_payload`]).
//! [`read_segment`] is that scan plus a parse of every payload, for
//! readers that want whole [`JournalRecord`]s. Either way a record is
//! accepted, and a tail reported torn, exactly as a full parse of every
//! record would decide.
//!
//! ## Crash tolerance
//!
//! Appends are not atomic: a crash can leave a torn record at the end of
//! the active segment. The scan recovers every complete,
//! checksum-verified record and reports the torn tail as a **typed
//! error** (never a panic, whatever the truncation offset — a property
//! test pins this). On reopen, a writer never appends after a torn tail:
//! it seals the damaged segment and starts a fresh one, so one crash
//! costs at most the record being written, not the segment.
//!
//! ## Durability
//!
//! A flushed record has reached the kernel (it survives a process
//! crash); a **sealed** segment has been `fdatasync`ed (it survives a
//! power cut). The active segment is only synced per flush when
//! [`JournalOptions::sync_every_flush`] is set — see
//! [`JournalWriter::flush`] for the exact guarantee and the rationale
//! for the default.
//!
//! The full on-disk format specification lives in
//! `crates/retrain/README.md`.

use crate::service::Selection;
use crate::trace::TraceSink;
use intune_core::{codec, Error, FeatureVector, Result};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::borrow::Cow;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Envelope schema name of journal records.
pub const JOURNAL_SCHEMA: &str = "intune-request-journal";
/// Current journal record schema version.
pub const JOURNAL_VERSION: u32 = 1;
/// Segment file name prefix.
pub const SEGMENT_PREFIX: &str = "journal-";
/// Segment file name suffix.
pub const SEGMENT_SUFFIX: &str = ".seg";

/// One served selection, as persisted in the journal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalRecord {
    /// Monotone sequence number, unique across all segments of one
    /// journal directory (assigned by the writer).
    pub seq: u64,
    /// Rollout revision of the artifact that answered.
    pub revision: u64,
    /// Index of the landmark actually served.
    pub landmark: u64,
    /// Whether the drift probe flagged the input out-of-distribution.
    pub out_of_distribution: bool,
    /// Whether the fallback policy overrode the classifier.
    pub fell_back: bool,
    /// The served (fully-extracted) feature vector.
    pub features: FeatureVector,
    /// Opaque raw-input payload shipped by the client for retraining
    /// (`Benchmark::encode_input`), or `None` for feature-only requests.
    pub payload: Option<Value>,
    /// Trace id of the sampled request that served this record, or
    /// `None` for untraced traffic. Elided from the encoding when absent,
    /// so journals written before tracing read back unchanged — and a
    /// retrain cycle can name exactly which traces fed it.
    pub trace_id: Option<u64>,
}

/// A journal record as [`scan_segment`] reads it: every field parsed
/// except the raw-input payload, which stays JSON text until
/// [`LazyRecord::parse_payload`] asks for the value. The text passed the
/// JSON grammar when the record was scanned, so parsing it cannot fail.
#[derive(Debug, Clone, PartialEq)]
pub struct LazyRecord<'a> {
    /// The record, with `payload: None`; the payload travels beside it.
    pub record: JournalRecord,
    /// The payload's JSON text; `None` when the record carries no payload
    /// (the field is absent or `null`).
    payload: Option<Cow<'a, str>>,
}

impl LazyRecord<'_> {
    /// The payload's JSON text, unparsed.
    pub fn payload_text(&self) -> Option<&str> {
        self.payload.as_deref()
    }

    /// Parses the payload (`None` when the record carries none).
    pub fn parse_payload(&self) -> Option<Value> {
        self.payload.as_deref().map(|text| {
            serde_json::from_str(text).expect("scanned payloads passed the JSON grammar")
        })
    }

    /// The whole record, payload parsed.
    pub fn into_record(self) -> JournalRecord {
        JournalRecord {
            payload: self.parse_payload(),
            ..self.record
        }
    }
}

/// A record built in memory, its payload printed to canonical text (a
/// `null` payload is no payload, as on disk).
impl From<JournalRecord> for LazyRecord<'static> {
    fn from(mut record: JournalRecord) -> Self {
        let payload =
            record.payload.take().filter(|v| !v.is_null()).map(|v| {
                Cow::Owned(serde_json::to_string(&v).expect("value printing is infallible"))
            });
        LazyRecord { record, payload }
    }
}

/// A journal record's fields, borrowed, with its payload printed: what the
/// writer encodes. One encoder serves both the in-memory record
/// ([`JournalWriter::stage`]) and the served batch ([`JournalSink`]).
struct RecordParts<'a> {
    revision: u64,
    landmark: u64,
    out_of_distribution: bool,
    fell_back: bool,
    features: &'a FeatureVector,
    /// The payload's canonical print; `None` or `null` for none.
    payload: Option<&'a str>,
    trace_id: Option<u64>,
}

impl RecordParts<'_> {
    /// Appends the record, stamped `seq`, as `serde_json::to_string`
    /// prints the same [`JournalRecord`]: fields in declaration order, a
    /// `None` or `null` field left out, the payload text spliced in.
    fn print(&self, seq: u64, out: &mut Vec<u8>) {
        let _ = write!(
            out,
            "{{\"seq\":{seq},\"revision\":{},\"landmark\":{},\"out_of_distribution\":{},\
             \"fell_back\":{},\"features\":",
            self.revision, self.landmark, self.out_of_distribution, self.fell_back
        );
        let features = serde_json::to_string(self.features).expect("value printing is infallible");
        out.extend_from_slice(features.as_bytes());
        if let Some(payload) = self.payload.filter(|p| *p != "null") {
            out.extend_from_slice(b",\"payload\":");
            out.extend_from_slice(payload.as_bytes());
        }
        if let Some(trace_id) = self.trace_id {
            let _ = write!(out, ",\"trace_id\":{trace_id}");
        }
        out.push(b'}');
    }
}

/// Journal writer tunables.
#[derive(Debug, Clone)]
pub struct JournalOptions {
    /// Records per segment before the writer rotates to a fresh file.
    pub segment_max_records: usize,
    /// Call `fdatasync` after every flush, not only at segment seal.
    ///
    /// Off by default: the journal feeds retraining, where losing the
    /// last batch to a power cut costs a little training data, not
    /// correctness — and a per-batch fsync would put a disk round trip
    /// on the serving path. Turn it on when every served selection must
    /// survive power loss.
    pub sync_every_flush: bool,
}

impl Default for JournalOptions {
    fn default() -> Self {
        JournalOptions {
            segment_max_records: 1024,
            sync_every_flush: false,
        }
    }
}

/// What a scan recovered from one segment file: [`JournalRecord`]s from
/// [`read_segment`], [`LazyRecord`]s from [`scan_segment`].
#[derive(Debug)]
pub struct SegmentScan<R = JournalRecord> {
    /// Every complete, checksum-verified record, in append order.
    pub records: Vec<R>,
    /// Bytes spanned by the complete frames, including any after a record
    /// of an unexpected shape (the frame walk's own offset).
    pub consumed: usize,
    /// The typed error describing a torn or corrupt tail, if the file
    /// does not end exactly on a record boundary.
    pub torn: Option<Error>,
}

/// Lists a journal directory's segment files, ascending by index.
///
/// # Errors
/// Returns [`Error::Artifact`] when the directory cannot be read.
pub fn list_segments(dir: &Path) -> Result<Vec<PathBuf>> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| Error::artifact(format!("cannot read journal dir {}: {e}", dir.display())))?;
    let mut segments: Vec<(u64, PathBuf)> = Vec::new();
    for entry in entries {
        let entry =
            entry.map_err(|e| Error::artifact(format!("cannot list {}: {e}", dir.display())))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(index) = name
            .strip_prefix(SEGMENT_PREFIX)
            .and_then(|rest| rest.strip_suffix(SEGMENT_SUFFIX))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            segments.push((index, entry.path()));
        }
    }
    segments.sort_by_key(|(index, _)| *index);
    Ok(segments.into_iter().map(|(_, path)| path).collect())
}

/// Path of segment `index` inside `dir`.
pub fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("{SEGMENT_PREFIX}{index:08}{SEGMENT_SUFFIX}"))
}

/// Index parsed back out of a segment path (None for foreign files).
pub fn segment_index(path: &Path) -> Option<u64> {
    path.file_name()?
        .to_str()?
        .strip_prefix(SEGMENT_PREFIX)?
        .strip_suffix(SEGMENT_SUFFIX)?
        .parse()
        .ok()
}

/// Reads a segment file's bytes, for [`scan_segment`].
///
/// # Errors
/// Returns [`Error::Artifact`] when the file cannot be read.
pub fn read_segment_bytes(path: &Path) -> Result<Vec<u8>> {
    std::fs::read(path)
        .map_err(|e| Error::artifact(format!("cannot read segment {}: {e}", path.display())))
}

/// Scans the bytes of segment `path` (the path only names it in errors),
/// recovering every complete record with its payload left as text and
/// typing the torn tail (see the module docs). Every record's checksum is
/// verified over its stored bytes and every payload is checked against
/// the JSON grammar, so the records, `consumed` and the torn-tail error
/// are what [`codec::scan_records`] followed by a
/// `serde_json::from_value::<JournalRecord>` of each record gives.
pub fn scan_segment<'a>(path: &Path, bytes: &'a [u8]) -> SegmentScan<LazyRecord<'a>> {
    let scan = codec::scan_records_with(bytes, JOURNAL_SCHEMA, JOURNAL_VERSION, |text| {
        let (value, payload) = match text {
            Cow::Borrowed(text) => {
                let (value, raw) = raw_payload(text)?;
                (value, raw.map(Cow::Borrowed))
            }
            Cow::Owned(text) => {
                let (value, raw) = raw_payload(&text)?;
                (value, raw.map(|raw| Cow::Owned(raw.to_owned())))
            }
        };
        // A record that is not a `JournalRecord` is not a frame error:
        // the walk goes on, and the first such record ends the scan below.
        Ok(
            serde_json::from_value::<JournalRecord>(&value).map(|record| LazyRecord {
                record,
                payload: payload.filter(|text| text != "null"),
            }),
        )
    });
    let mut records = Vec::with_capacity(scan.records.len());
    let mut torn = scan.torn;
    for (i, record) in scan.records.into_iter().enumerate() {
        match record {
            Ok(record) => records.push(record),
            Err(e) => {
                // A checksum-valid record with an alien shape: everything
                // from here on is untrusted, exactly like a torn tail.
                torn = Some(Error::artifact(format!(
                    "segment {} record {i} has an unexpected shape: {e}",
                    path.display()
                )));
                break;
            }
        }
    }
    SegmentScan {
        records,
        consumed: scan.consumed,
        torn,
    }
}

/// A journal record's JSON with its `payload` field left as text.
fn raw_payload(text: &str) -> Result<(Value, Option<&str>)> {
    serde_json::from_str_raw_field(text, "payload").map_err(|e| Error::artifact(e.to_string()))
}

/// Reads one segment: [`scan_segment`] plus a parse of every payload.
/// IO failure is the only hard error — truncation and corruption are
/// reported in [`SegmentScan::torn`].
///
/// # Errors
/// Returns [`Error::Artifact`] when the file cannot be read at all.
pub fn read_segment(path: &Path) -> Result<SegmentScan> {
    let bytes = read_segment_bytes(path)?;
    let scan = scan_segment(path, &bytes);
    Ok(SegmentScan {
        records: scan
            .records
            .into_iter()
            .map(LazyRecord::into_record)
            .collect(),
        consumed: scan.consumed,
        torn: scan.torn,
    })
}

/// The append side of the journal. Not thread-safe by itself — the
/// serving integration wraps it in a [`JournalSink`].
///
/// Appends are **staged**: [`JournalWriter::stage`] encodes records into
/// an in-memory buffer and [`JournalWriter::flush`] writes the buffer in
/// one syscall — so a served batch of B selections costs one write, not
/// B. [`JournalWriter::append`] is the stage+flush convenience for
/// single records.
#[derive(Debug)]
pub struct JournalWriter {
    dir: PathBuf,
    opts: JournalOptions,
    file: File,
    segment: u64,
    records_in_segment: usize,
    next_seq: u64,
    /// Encoded-but-unwritten frames (cleared by [`JournalWriter::flush`]).
    pending: Vec<u8>,
    /// Records inside `pending`.
    pending_records: u64,
    /// Records durably written since open — the ground truth the sink's
    /// `appended` counter is derived from, exact even when an
    /// intra-batch rotation flush fails.
    durable: u64,
}

impl JournalWriter {
    /// Opens (or resumes) the journal in `dir`, creating the directory if
    /// needed. Resuming scans existing segments for the next sequence
    /// number; a segment with a torn tail is sealed as-is (appending
    /// after garbage would bury every later record) and writing continues
    /// in a fresh segment.
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] on IO failure.
    pub fn open(dir: &Path, opts: JournalOptions) -> Result<Self> {
        std::fs::create_dir_all(dir).map_err(|e| {
            Error::artifact(format!("cannot create journal dir {}: {e}", dir.display()))
        })?;
        let segments = list_segments(dir)?;
        // One backwards pass serves both resume questions: the newest
        // segment's scan decides whether it can be appended to, and the
        // newest segment holding any complete record fixes the next
        // sequence number. Neither needs a payload parsed.
        let mut next_seq = 0u64;
        let mut active: Option<(u64, usize, bool)> = None;
        for (i, path) in segments.iter().enumerate().rev() {
            let bytes = read_segment_bytes(path)?;
            let scan = scan_segment(path, &bytes);
            if i == segments.len() - 1 {
                let index = segment_index(path).expect("listed segments parse");
                let reusable =
                    scan.torn.is_none() && scan.records.len() < opts.segment_max_records.max(1);
                active = Some(if reusable {
                    (index, scan.records.len(), true)
                } else {
                    (index + 1, 0, false)
                });
            }
            if let Some(last) = scan.records.last() {
                next_seq = last.record.seq + 1;
                break;
            }
        }
        let (segment, records_in_segment, reuse) = active.unwrap_or((0, 0, false));
        let path = segment_path(dir, segment);
        let file = if reuse {
            OpenOptions::new().append(true).open(&path)
        } else {
            File::create(&path)
        }
        .map_err(|e| Error::artifact(format!("cannot open segment {}: {e}", path.display())))?;
        Ok(JournalWriter {
            dir: dir.to_path_buf(),
            opts,
            file,
            segment,
            records_in_segment,
            next_seq,
            pending: Vec::new(),
            pending_records: 0,
            durable: 0,
        })
    }

    /// The sequence number the next append will be stamped with.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Index of the segment currently being appended to.
    pub fn active_segment(&self) -> u64 {
        self.segment
    }

    /// Encodes one record into the pending buffer (its `seq` field is
    /// overwritten with the journal's next sequence number, which is
    /// returned), rotating to a fresh segment — flushing first — when the
    /// active one is full. Nothing reaches disk until
    /// [`JournalWriter::flush`]. The payload is printed once.
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] on an unencodable (oversized) record
    /// or a rotation failure; the sequence number is not consumed on
    /// failure.
    pub fn stage(&mut self, record: JournalRecord) -> Result<u64> {
        let payload = record
            .payload
            .as_ref()
            .map(|v| serde_json::to_string(v).expect("value printing is infallible"));
        self.stage_parts(&RecordParts {
            revision: record.revision,
            landmark: record.landmark,
            out_of_distribution: record.out_of_distribution,
            fell_back: record.fell_back,
            features: &record.features,
            payload: payload.as_deref(),
            trace_id: record.trace_id,
        })
    }

    /// [`JournalWriter::stage`] for a record's parts, its payload printed.
    fn stage_parts(&mut self, record: &RecordParts) -> Result<u64> {
        if self.records_in_segment >= self.opts.segment_max_records.max(1) {
            self.flush()?;
            // Seal the full segment durably before rotating away from it:
            // compaction consumes sealed segments on the assumption that
            // their contents survive a crash, and this is the last moment
            // this writer holds the file.
            self.file
                .sync_data()
                .map_err(|e| Error::artifact(format!("cannot sync sealed segment: {e}")))?;
            self.segment += 1;
            let path = segment_path(&self.dir, self.segment);
            self.file = File::create(&path).map_err(|e| {
                Error::artifact(format!("cannot rotate to segment {}: {e}", path.display()))
            })?;
            self.records_in_segment = 0;
        }
        let seq = self.next_seq;
        codec::append_record(&mut self.pending, JOURNAL_SCHEMA, JOURNAL_VERSION, |out| {
            record.print(seq, out)
        })?;
        self.pending_records += 1;
        self.records_in_segment += 1;
        self.next_seq += 1;
        Ok(seq)
    }

    /// Writes every pending frame in one syscall. On failure the pending
    /// records are lost (their sequence numbers stay consumed — gaps are
    /// legal, resumption only needs the maximum).
    ///
    /// ## Durability
    ///
    /// By default a flushed record has reached the kernel, not the
    /// platter: it survives a process crash but not a power cut. Sealed
    /// (rotated-away) segments are always `fdatasync`ed; the active
    /// segment is only synced when
    /// [`JournalOptions::sync_every_flush`] is set.
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
            .map_err(|e| Error::artifact(format!("cannot append journal records: {e}")));
        if outcome.is_ok() {
            self.durable += self.pending_records;
        }
        self.pending.clear();
        self.pending_records = 0;
        outcome
    }

    /// Records durably written since this writer opened.
    pub fn durable(&self) -> u64 {
        self.durable
    }

    /// Stages and flushes one record — see [`JournalWriter::stage`].
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] on encoding or IO failure.
    pub fn append(&mut self, record: JournalRecord) -> Result<u64> {
        let seq = self.stage(record)?;
        self.flush()?;
        Ok(seq)
    }
}

/// The journal as a [`TraceSink`]: the bridge between the serving runtime
/// and the append-only log. Appends happen on the serving thread under a
/// mutex, one buffered **write per served batch** (not per selection); a
/// sink that cannot record — oversized payload, disk failure — **never
/// fails the serving path**: it counts the dropped records and keeps the
/// last error for the operator.
#[derive(Debug)]
pub struct JournalSink {
    writer: Mutex<JournalWriter>,
    appended: AtomicU64,
    dropped: AtomicU64,
    last_error: Mutex<Option<Error>>,
}

impl JournalSink {
    /// Opens (or resumes) the journal in `dir` — see
    /// [`JournalWriter::open`].
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] on IO failure.
    pub fn open(dir: &Path, opts: JournalOptions) -> Result<Self> {
        Ok(JournalSink {
            writer: Mutex::new(JournalWriter::open(dir, opts)?),
            appended: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            last_error: Mutex::new(None),
        })
    }

    /// The most recent append failure, if any.
    pub fn last_error(&self) -> Option<Error> {
        self.last_error
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }
}

impl TraceSink for JournalSink {
    fn record_batch_printed(
        &self,
        revision: u64,
        features: &[FeatureVector],
        payloads: &[&str],
        selections: &[Selection],
        trace_id: Option<u64>,
    ) {
        // Recover from poisoning: a panic on one serving thread must not
        // wedge journaling (and with it every later traced batch) behind
        // a `PoisonError`. The writer's counters stay consistent across
        // a panic — `durable` only advances on successful flushes.
        let mut writer = self
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let durable_before = writer.durable();
        let mut error: Option<Error> = None;
        for (i, (fv, selection)) in features.iter().zip(selections).enumerate() {
            let record = RecordParts {
                revision,
                landmark: selection.landmark as u64,
                out_of_distribution: selection.out_of_distribution,
                fell_back: selection.fell_back,
                features: fv,
                payload: payloads.get(i).copied(),
                trace_id,
            };
            if let Err(e) = writer.stage_parts(&record) {
                // An unrecordable record (e.g. an oversized payload)
                // or a failed rotation costs what it costs, never the
                // batch — and never a panic that would poison this
                // mutex. (A rotation failure inside `stage_parts` may
                // also have lost earlier staged records; the durable
                // counter below accounts for those exactly.)
                error = Some(e);
            }
        }
        if let Err(e) = writer.flush() {
            error = Some(e);
        }
        // `durable` is ground truth: staged records can be lost by a
        // failed intra-batch rotation flush as well as the final flush,
        // so derive both counters from what actually reached disk.
        let landed = writer.durable() - durable_before;
        drop(writer);
        self.appended.fetch_add(landed, Ordering::AcqRel);
        self.dropped
            .fetch_add(selections.len() as u64 - landed, Ordering::AcqRel);
        if let Some(e) = error {
            *self
                .last_error
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(e);
        }
    }

    fn appended(&self) -> u64 {
        self.appended.load(Ordering::Acquire)
    }

    /// Records dropped because the journal could not be written.
    fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intune_core::FeatureDef;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    fn record(seq: u64, kind: f64) -> JournalRecord {
        let defs = [FeatureDef::new("kind", 1), FeatureDef::new("size", 1)];
        let mut fv = FeatureVector::empty(&defs);
        for (p, _) in defs.iter().enumerate() {
            fv.insert(
                intune_core::FeatureId {
                    property: p,
                    level: 0,
                },
                intune_core::FeatureSample::new(kind + p as f64, 1.0),
            )
            .unwrap();
        }
        JournalRecord {
            seq,
            revision: 3,
            landmark: seq % 2,
            out_of_distribution: seq.is_multiple_of(3),
            fell_back: false,
            features: fv,
            payload: ((kind as u64).is_multiple_of(2))
                .then(|| Value::Array(vec![Value::Float(kind)])),
            trace_id: None,
        }
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "intune-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn append_rotate_and_read_back_across_segments() {
        let dir = tmp("rotate");
        let mut w = JournalWriter::open(
            &dir,
            JournalOptions {
                segment_max_records: 4,
                ..JournalOptions::default()
            },
        )
        .unwrap();
        for i in 0..10 {
            assert_eq!(w.append(record(999, i as f64)).unwrap(), i);
        }
        assert_eq!(w.active_segment(), 2, "10 records at 4/segment");
        let segments = list_segments(&dir).unwrap();
        assert_eq!(segments.len(), 3);
        let mut all = Vec::new();
        for s in &segments {
            let scan = read_segment(s).unwrap();
            assert!(scan.torn.is_none());
            all.extend(scan.records);
        }
        assert_eq!(all.len(), 10);
        for (i, r) in all.iter().enumerate() {
            assert_eq!(r.seq, i as u64, "writer stamps sequence numbers");
            assert_eq!(r.revision, 3);
        }
        // Payload presence alternates by construction.
        assert!(all[0].payload.is_some());
        assert!(all[1].payload.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_resumes_sequence_and_appends_to_the_active_segment() {
        let dir = tmp("resume");
        {
            let mut w = JournalWriter::open(
                &dir,
                JournalOptions {
                    segment_max_records: 4,
                    ..JournalOptions::default()
                },
            )
            .unwrap();
            for i in 0..6 {
                w.append(record(0, i as f64)).unwrap();
            }
        }
        let mut w = JournalWriter::open(
            &dir,
            JournalOptions {
                segment_max_records: 4,
                ..JournalOptions::default()
            },
        )
        .unwrap();
        assert_eq!(w.next_seq(), 6, "sequence resumes after the last record");
        assert_eq!(w.active_segment(), 1, "half-full segment is reused");
        w.append(record(0, 9.0)).unwrap();
        let segments = list_segments(&dir).unwrap();
        assert_eq!(segments.len(), 2, "no fresh segment was needed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_sealed_and_writing_continues_in_a_fresh_segment() {
        let dir = tmp("torn");
        {
            let mut w = JournalWriter::open(&dir, JournalOptions::default()).unwrap();
            for i in 0..3 {
                w.append(record(0, i as f64)).unwrap();
            }
        }
        // Crash simulation: cut the active segment mid-record.
        let path = segment_path(&dir, 0);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

        let scan = read_segment(&path).unwrap();
        assert_eq!(scan.records.len(), 2, "complete records survive");
        let torn = scan.torn.expect("torn tail typed");
        assert!(matches!(torn, Error::Artifact { .. }), "{torn:?}");

        let mut w = JournalWriter::open(&dir, JournalOptions::default()).unwrap();
        assert_eq!(w.next_seq(), 2, "the torn record's seq is reissued");
        assert_eq!(w.active_segment(), 1, "damaged segment is sealed");
        w.append(record(0, 8.0)).unwrap();
        let scan = read_segment(&segment_path(&dir, 1)).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].seq, 2);
        // The sealed segment still reads back its complete prefix.
        let sealed = read_segment(&path).unwrap();
        assert_eq!(sealed.records.len(), 2);
        assert!(sealed.torn.is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sink_counts_appends_and_null_payloads_become_none() {
        use crate::trace::TraceSink as _;
        let dir = tmp("sink");
        let sink = JournalSink::open(&dir, JournalOptions::default()).unwrap();
        let r = record(0, 1.0);
        let selections = vec![
            Selection {
                landmark: 1,
                extraction_cost: 0.5,
                out_of_distribution: true,
                fell_back: false,
            };
            2
        ];
        let features = vec![r.features.clone(), r.features.clone()];
        let payloads = vec![Value::Array(vec![Value::Int(1)]), Value::Null];
        sink.record_batch_traced(7, &features, &payloads, &selections, None);
        // And a payload-free batch.
        sink.record_batch_printed(7, &features, &[], &selections, None);
        assert_eq!(sink.appended(), 4);
        assert_eq!(sink.dropped(), 0);
        assert!(sink.last_error().is_none());

        let scan = read_segment(&segment_path(&dir, 0)).unwrap();
        assert_eq!(scan.records.len(), 4);
        assert!(scan.records[0].payload.is_some());
        assert!(scan.records[1].payload.is_none(), "Null payload elided");
        assert!(scan.records[2].payload.is_none());
        assert_eq!(scan.records[0].revision, 7);
        assert_eq!(scan.records[0].landmark, 1);
        assert!(scan.records[0].out_of_distribution);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_payloads_are_dropped_typed_and_never_poison_the_sink() {
        use crate::trace::TraceSink as _;
        let dir = tmp("oversize");
        let sink = JournalSink::open(&dir, JournalOptions::default()).unwrap();
        let fv = record(0, 1.0).features;
        let selection = Selection {
            landmark: 0,
            extraction_cost: 0.0,
            out_of_distribution: false,
            fell_back: false,
        };
        // A payload whose encoded record exceeds the 16 MiB frame cap —
        // wire clients can ship these (the wire frame cap is 64 MiB), so
        // the sink must drop the record, not panic under its mutex and
        // take every later selection down with it.
        let huge = Value::String("x".repeat(intune_core::codec::MAX_RECORD_BYTES + 1024));
        sink.record_batch_traced(
            1,
            &[fv.clone(), fv.clone()],
            &[huge, Value::Null],
            &[selection, selection],
            None,
        );
        assert_eq!(sink.dropped(), 1, "only the oversized record is lost");
        assert_eq!(sink.appended(), 1, "the rest of the batch lands");
        let err = sink.last_error().expect("typed drop reason");
        assert!(err.to_string().contains("frame cap"), "{err}");

        // The sink (and its mutex) survive: later batches still journal.
        sink.record_batch_printed(1, &[fv], &[], &[selection], None);
        assert_eq!(sink.appended(), 2);
        let scan = read_segment(&segment_path(&dir, 0)).unwrap();
        assert!(scan.torn.is_none());
        assert_eq!(scan.records.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sync_every_flush_writes_the_same_bytes() {
        // The opt-in fsync changes when bytes become durable, never what
        // is written: both modes must produce byte-identical segments.
        let write_all = |tag: &str, sync: bool| {
            let dir = tmp(tag);
            let mut w = JournalWriter::open(
                &dir,
                JournalOptions {
                    segment_max_records: 3,
                    sync_every_flush: sync,
                },
            )
            .unwrap();
            for i in 0..7 {
                w.append(record(0, i as f64)).unwrap();
            }
            assert_eq!(w.durable(), 7);
            let bytes: Vec<Vec<u8>> = list_segments(&dir)
                .unwrap()
                .iter()
                .map(|s| std::fs::read(s).unwrap())
                .collect();
            std::fs::remove_dir_all(&dir).ok();
            bytes
        };
        assert_eq!(write_all("sync-on", true), write_all("sync-off", false));
    }

    #[test]
    fn foreign_files_in_the_journal_dir_are_ignored() {
        let dir = tmp("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("README.txt"), "not a segment").unwrap();
        std::fs::write(dir.join("journal-xx.seg"), "bad index").unwrap();
        let mut w = JournalWriter::open(&dir, JournalOptions::default()).unwrap();
        w.append(record(0, 1.0)).unwrap();
        assert_eq!(list_segments(&dir).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// [`read_segment`] as the full parse spells it, the oracle of the
    /// lazy scan: every record through [`codec::scan_records`], then
    /// `from_value`.
    fn full_parse_scan(path: &Path, bytes: &[u8]) -> SegmentScan {
        let scan = codec::scan_records(bytes, JOURNAL_SCHEMA, JOURNAL_VERSION);
        let mut records = Vec::new();
        let mut torn = scan.torn;
        for (i, value) in scan.records.iter().enumerate() {
            match serde_json::from_value::<JournalRecord>(value) {
                Ok(record) => records.push(record),
                Err(e) => {
                    torn = Some(Error::artifact(format!(
                        "segment {} record {i} has an unexpected shape: {e}",
                        path.display()
                    )));
                    break;
                }
            }
        }
        SegmentScan {
            records,
            consumed: scan.consumed,
            torn,
        }
    }

    fn same_scan(bytes: &[u8], what: &str) -> std::result::Result<(), TestCaseError> {
        let path = Path::new("journal-00000000.seg");
        let lazy = scan_segment(path, bytes);
        let full = full_parse_scan(path, bytes);
        let lazy_records: Vec<JournalRecord> = lazy
            .records
            .into_iter()
            .map(LazyRecord::into_record)
            .collect();
        prop_assert_eq!(lazy_records, full.records, "records: {}", what);
        prop_assert_eq!(lazy.consumed, full.consumed, "consumed: {}", what);
        prop_assert_eq!(
            lazy.torn.map(|e| e.to_string()),
            full.torn.map(|e| e.to_string()),
            "torn: {}",
            what
        );
        Ok(())
    }

    /// A payload that exercises the grammar: escapes, non-ASCII text,
    /// every number form, a nested `payload` key, or none at all.
    fn tricky_payload(kind: usize, x: f64) -> Option<Value> {
        match kind {
            0 => None,
            1 => Some(Value::Array(vec![
                Value::Float(x),
                Value::Int(-3),
                Value::UInt(u64::MAX),
                Value::Float(x * 1e-300),
            ])),
            2 => Some(Value::String("q\"\\/\n\u{1}é 😀".into())),
            3 => Some(Value::Object(vec![
                (
                    "payload".into(),
                    Value::Array(vec![Value::Float(x), Value::Null]),
                ),
                ("k".into(), Value::Bool(true)),
            ])),
            4 => Some(Value::Array(vec![
                Value::Array(vec![Value::Array(vec![])]),
                Value::Object(vec![]),
            ])),
            _ => Some(Value::Float(x)),
        }
    }

    /// A record's JSON as the writer prints it.
    fn record_text(record: &JournalRecord) -> String {
        serde_json::to_string(&serde_json::to_value(record)).unwrap()
    }

    /// A frame around `text` in the writer's layout with a correct
    /// checksum, whatever `text` is.
    fn sealed(text: &str) -> Vec<u8> {
        let body = format!(
            "{{\"schema\":\"{JOURNAL_SCHEMA}\",\"version\":{JOURNAL_VERSION},\
             \"checksum\":\"fnv1a64:{:016x}\",\"payload\":{text}}}",
            codec::fnv1a64(text.as_bytes())
        );
        let mut frame = (body.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(body.as_bytes());
        frame
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The journal's one encoder writes exactly the bytes of the
        /// derive encoding, `encode_record(to_value(&record))`, whether
        /// it stages an in-memory record or the sink journals a batch of
        /// printed payloads: with and without a payload, with a `null`
        /// one, with and without a trace id, non-finite floats included.
        #[test]
        fn encoder_writes_the_derive_encoding(
            specs in prop::collection::vec((0usize..7, -1e3f64..1e3, 0u64..1 << 20, 0u8..8), 1..5),
            trace in 0u64..3,
        ) {
            let records: Vec<JournalRecord> = specs
                .iter()
                .enumerate()
                .map(|(seq, &(kind, x, landmark, flags))| {
                    let x = if flags & 4 == 4 { f64::NAN } else { x };
                    JournalRecord {
                        landmark,
                        out_of_distribution: flags & 1 == 1,
                        fell_back: flags & 2 == 2,
                        payload: if kind == 6 { Some(Value::Null) } else { tricky_payload(kind, x) },
                        trace_id: (trace > 0).then_some(trace << 40),
                        ..record(seq as u64, x)
                    }
                })
                .collect();
            let oracle: Vec<u8> = records
                .iter()
                .flat_map(|r| {
                    codec::encode_record(JOURNAL_SCHEMA, JOURNAL_VERSION, serde_json::to_value(r))
                        .unwrap()
                })
                .collect();

            let dir = tmp("encoder");
            let mut writer = JournalWriter::open(&dir, JournalOptions::default()).unwrap();
            for r in &records {
                writer.stage(r.clone()).unwrap();
            }
            prop_assert_eq!(&writer.pending, &oracle);
            drop(writer);

            let dir = tmp("encoder-sink");
            let sink = JournalSink::open(&dir, JournalOptions::default()).unwrap();
            let features: Vec<FeatureVector> = records.iter().map(|r| r.features.clone()).collect();
            let payloads: Vec<Value> = records
                .iter()
                .map(|r| r.payload.clone().unwrap_or(Value::Null))
                .collect();
            let selections: Vec<Selection> = records
                .iter()
                .map(|r| Selection {
                    landmark: r.landmark as usize,
                    extraction_cost: 0.0,
                    out_of_distribution: r.out_of_distribution,
                    fell_back: r.fell_back,
                })
                .collect();
            let revision = records[0].revision;
            let trace_id = records[0].trace_id;
            sink.record_batch_traced(revision, &features, &payloads, &selections, trace_id);
            prop_assert_eq!(std::fs::read(segment_path(&dir, 0)).unwrap(), oracle);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// Bytes that keep a mutated record close to JSON, letters included
    /// so that a key can grow.
    const ALPHABET: &[u8] = b"0123456789-+.eE,:[]{}\"\\ nulltrfsay_";
    /// The characters of numbers, inserted into numbers.
    const NUMBER_ALPHABET: &[u8] = b"0123456789-+.eE";

    /// One mutation at an ASCII byte (the text stays UTF-8) of `region`
    /// of a record's JSON: 0 anywhere, 1 the `"payload":` field (key and
    /// value), 2 a number anywhere, 3 a number of the payload. `op` flips
    /// one of the low seven bits, inserts a byte (from
    /// [`NUMBER_ALPHABET`] into a number, else from [`ALPHABET`]),
    /// deletes, or truncates.
    fn mutate(bytes: &mut Vec<u8>, region: u8, (op, at, pick, bit): (u8, usize, usize, u32)) {
        // The payload field runs from its key to the `trace_id` field or
        // the closing brace; a record without one mutates anywhere.
        let field = bytes
            .windows(10)
            .position(|w| w == b"\"payload\":")
            .map(|k| {
                let end = bytes.windows(12).position(|w| w == b",\"trace_id\":");
                k..end.unwrap_or(bytes.len() - 1)
            });
        let in_number = |i: usize| NUMBER_ALPHABET.contains(&bytes[i]);
        let in_field = |i: usize| field.as_ref().is_none_or(|f| f.contains(&i));
        let spots: Vec<usize> = (0..bytes.len())
            .filter(|&i| {
                bytes[i].is_ascii()
                    && match region {
                        1 => in_field(i),
                        2 => in_number(i),
                        3 => in_field(i) && in_number(i),
                        _ => true,
                    }
            })
            .collect();
        let Some(&spot) = spots.get(at % spots.len().max(1)) else {
            return;
        };
        let alphabet = if region >= 2 {
            NUMBER_ALPHABET
        } else {
            ALPHABET
        };
        match op {
            0 => bytes[spot] ^= 1 << bit,
            1 => bytes.insert(spot, alphabet[pick % alphabet.len()]),
            2 => {
                bytes.remove(spot);
            }
            _ => bytes.truncate(spot),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The lazy scan reads a segment exactly as the full parse does —
        /// the same records once payloads are parsed, the same `consumed`,
        /// the same torn-tail error — whether the segment is cut at any
        /// offset, bit-flipped (which the checksum catches), or carries a
        /// record whose JSON was mutated and re-sealed with a correct
        /// checksum (which only the grammar catches).
        #[test]
        fn lazy_scan_agrees_with_the_full_parse(
            specs in prop::collection::vec((0usize..6, -1e3f64..1e3, 0u64..3), 1..4),
            flips in prop::collection::vec((0usize..1 << 16, 0u32..8), 16),
            resealed in prop::collection::vec(
                (
                    0usize..8,
                    0u8..4,
                    prop::collection::vec((0u8..4, 0usize..1 << 16, 0usize..64, 0u32..7), 1..4),
                ),
                6,
            ),
        ) {
            let records: Vec<JournalRecord> = specs
                .iter()
                .enumerate()
                .map(|(seq, &(kind, x, trace))| JournalRecord {
                    payload: tricky_payload(kind, x),
                    trace_id: (trace > 0).then_some(trace),
                    ..record(seq as u64, x)
                })
                .collect();
            let frames: Vec<Vec<u8>> = records
                .iter()
                .map(|r| {
                    codec::encode_record(JOURNAL_SCHEMA, JOURNAL_VERSION, serde_json::to_value(r))
                        .unwrap()
                })
                .collect();
            // Re-sealing reproduces the writer's bytes, so a re-sealed
            // record reaches the lazy path, not the fallback.
            for (r, frame) in records.iter().zip(&frames) {
                prop_assert_eq!(&sealed(&record_text(r)), frame);
            }
            let stream = frames.concat();
            let intact = scan_segment(Path::new("intact"), &stream);
            prop_assert!(intact.torn.is_none());
            prop_assert_eq!(intact.records.len(), records.len());
            for cut in 0..=stream.len() {
                same_scan(&stream[..cut], &format!("cut at {cut}"))?;
            }
            for (at, bit) in flips {
                let mut flipped = stream.clone();
                let at = at % flipped.len();
                flipped[at] ^= 1 << bit;
                same_scan(&flipped, &format!("bit {bit} of byte {at} flipped"))?;
            }
            for (which, region, mutations) in resealed {
                let i = which % records.len();
                let mut text = record_text(&records[i]).into_bytes();
                for m in mutations {
                    mutate(&mut text, region, m);
                }
                let text = String::from_utf8(text).expect("mutations keep the text UTF-8");
                let mut frames = frames.clone();
                frames[i] = sealed(&text);
                same_scan(&frames.concat(), &format!("record {i} re-sealed as {text}"))?;
            }
        }
    }
}
