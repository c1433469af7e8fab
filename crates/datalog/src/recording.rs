//! The recording side of the datalog: a segmented, crash-tolerant
//! append-only capture of a daemon's inbound request traffic.
//!
//! Every frame captures one decoded wire request — which tenant it was
//! addressed to, which client connection carried it, how long after the
//! previous recorded frame it arrived (a monotonic delta, so recordings
//! have no wall-clock in them), and the request body itself. Frames are
//! framed with the workspace's checksummed record codec
//! ([`intune_core::codec::encode_record`]): a 4-byte big-endian length
//! prefix followed by a compact checksummed JSON envelope
//! (`schema: "intune-datalog"`, version 1).
//!
//! ## Segments
//!
//! A recording directory holds numbered segment files
//! (`datalog-00000000.seg`, `datalog-00000001.seg`, …). The writer
//! appends to the highest-numbered segment and rotates to a fresh one
//! every `segment_max_frames` frames, sealing (`fdatasync`) each segment
//! it rotates away from.
//!
//! ## Crash tolerance
//!
//! Appends are not atomic: a crash can leave a torn frame at the end of
//! the active segment. [`read_segment`] recovers every complete,
//! checksum-verified frame and reports the torn tail as a **typed
//! error** (never a panic, whatever the truncation offset — a property
//! test pins this). On reopen, a writer never appends after a torn
//! tail: it seals the damaged segment and starts a fresh one.
//!
//! The on-disk format specification lives in `crates/datalog/README.md`.

use intune_core::{codec, Error, FeatureVector, Result};
use intune_serve::print_payloads;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Envelope schema name of recorded frames.
pub const DATALOG_SCHEMA: &str = "intune-datalog";
/// Current datalog frame schema version.
pub const DATALOG_VERSION: u32 = 1;
/// Segment file name prefix.
pub const SEGMENT_PREFIX: &str = "datalog-";
/// Segment file name suffix.
pub const SEGMENT_SUFFIX: &str = ".seg";

/// The decoded body of one recorded request frame.
///
/// The daemon records requests *after* decoding them, so a recording is
/// replayable without the wire parser: selection traffic carries the
/// exact feature vectors and payloads the daemon answered, and
/// everything else collapses to a named control marker (recorded so a
/// playback can account for the full session shape, skipped during
/// replay).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FrameBody {
    /// One selection request: fully-extracted feature vectors plus the
    /// optional raw-input payloads that rode along (empty when the
    /// client sent an untraced batch).
    Select {
        /// The served feature vectors, in request order.
        features: Vec<FeatureVector>,
        /// Parallel raw-input payloads (`Null` = none), or empty.
        payloads: Vec<Value>,
        /// The sampled trace context the request carried, when it was
        /// traced (absent = untraced; the field is elided on disk, so
        /// recordings without tracing are byte-identical to version 1
        /// captures and old recordings load with `None`).
        trace: Option<intune_core::TraceContext>,
    },
    /// A non-selection request (handshake, stats, artifact lifecycle),
    /// identified by its wire message name.
    Control {
        /// The request's wire message name (e.g. `"Hello"`, `"Promote"`).
        kind: String,
    },
}

impl FrameBody {
    /// The selection parts of this body, or `None` for control frames.
    pub fn select_parts(&self) -> Option<(&[FeatureVector], &[Value])> {
        match self {
            FrameBody::Select {
                features, payloads, ..
            } => Some((features, payloads)),
            FrameBody::Control { .. } => None,
        }
    }

    /// The sampled trace context this frame carried, if any.
    pub fn trace(&self) -> Option<&intune_core::TraceContext> {
        match self {
            FrameBody::Select { trace, .. } => trace.as_ref(),
            FrameBody::Control { .. } => None,
        }
    }

    /// Runs `f` on this body with each payload printed once.
    fn printed<R>(&self, f: impl FnOnce(PrintedBody) -> R) -> R {
        match self {
            FrameBody::Select {
                features,
                payloads,
                trace,
            } => {
                let printed = print_payloads(payloads);
                let texts: Vec<&str> = printed.iter().map(String::as_str).collect();
                f(PrintedBody::Select {
                    features,
                    payloads: &texts,
                    trace: trace.as_ref(),
                })
            }
            FrameBody::Control { kind } => f(PrintedBody::Control { kind }),
        }
    }
}

/// A request body as the recorder encodes it: borrowed, with each payload
/// printed. A daemon hands a canonical client's payload text over as it
/// arrived and prints any other payload once.
#[derive(Debug, Clone, Copy)]
pub enum PrintedBody<'a> {
    /// [`FrameBody::Select`], each payload its canonical JSON print
    /// (`null` = none).
    Select {
        /// The served feature vectors, in request order.
        features: &'a [FeatureVector],
        /// Parallel printed payloads, or empty.
        payloads: &'a [&'a str],
        /// The sampled trace context the request carried, if any.
        trace: Option<&'a intune_core::TraceContext>,
    },
    /// [`FrameBody::Control`].
    Control {
        /// The request's wire message name.
        kind: &'a str,
    },
}

/// Appends the recorded frame of `body`, stamped `seq`, `delta_micros`,
/// `tenant` and `conn`, as `serde_json::to_string` prints the same
/// [`RecordedFrame`]: fields in declaration order, an absent trace left
/// out, payload texts spliced in.
fn print_frame(
    out: &mut Vec<u8>,
    (seq, delta_micros, tenant, conn): (u64, u64, &str, u64),
    body: PrintedBody,
) {
    let _ = write!(
        out,
        "{{\"seq\":{seq},\"delta_micros\":{delta_micros},\"tenant\":"
    );
    out.extend_from_slice(print_json(tenant).as_bytes());
    let _ = write!(out, ",\"conn\":{conn},\"body\":");
    match body {
        PrintedBody::Select {
            features,
            payloads,
            trace,
        } => {
            out.extend_from_slice(b"{\"Select\":{\"features\":");
            out.extend_from_slice(print_json(features).as_bytes());
            out.extend_from_slice(b",\"payloads\":[");
            for (i, payload) in payloads.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                out.extend_from_slice(payload.as_bytes());
            }
            out.push(b']');
            if let Some(trace) = trace {
                out.extend_from_slice(b",\"trace\":");
                out.extend_from_slice(print_json(trace).as_bytes());
            }
        }
        PrintedBody::Control { kind } => {
            out.extend_from_slice(b"{\"Control\":{\"kind\":");
            out.extend_from_slice(print_json(kind).as_bytes());
        }
    }
    out.extend_from_slice(b"}}}");
}

fn print_json<T: Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).expect("value printing is infallible")
}

/// One inbound request, as persisted in the recording.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecordedFrame {
    /// Monotone sequence number, unique across all segments of one
    /// recording directory (assigned by the writer).
    pub seq: u64,
    /// Microseconds elapsed since the previous recorded frame (0 for
    /// the first frame after open) — a monotonic delta, so replay can
    /// reproduce the original pacing without trusting any wall clock.
    pub delta_micros: u64,
    /// Name of the tenant the request was addressed to.
    pub tenant: String,
    /// Daemon-assigned connection id (unique per accepted connection
    /// for the daemon's lifetime; never reused, unlike slab slots).
    pub conn: u64,
    /// The decoded request body.
    pub body: FrameBody,
}

/// Recording writer tunables.
#[derive(Debug, Clone)]
pub struct RecordingOptions {
    /// Frames per segment before the writer rotates to a fresh file.
    pub segment_max_frames: usize,
    /// Call `fdatasync` after every flush, not only at segment seal.
    ///
    /// Off by default for the same reason as the journal: a recording
    /// feeds regression replay, where losing the last frames to a power
    /// cut costs a little captured traffic, not correctness.
    pub sync_every_flush: bool,
}

impl Default for RecordingOptions {
    fn default() -> Self {
        RecordingOptions {
            segment_max_frames: 1024,
            sync_every_flush: false,
        }
    }
}

/// What [`read_segment`] recovered from one segment file.
#[derive(Debug)]
pub struct SegmentScan {
    /// Every complete, checksum-verified frame, in append order.
    pub frames: Vec<RecordedFrame>,
    /// The typed error describing a torn or corrupt tail, if the file
    /// does not end exactly on a frame boundary.
    pub torn: Option<Error>,
}

/// Lists a recording directory's segment files, ascending by index.
///
/// # Errors
/// Returns [`Error::Artifact`] when the directory cannot be read.
pub fn list_segments(dir: &Path) -> Result<Vec<PathBuf>> {
    let entries = std::fs::read_dir(dir).map_err(|e| {
        Error::artifact(format!("cannot read recording dir {}: {e}", dir.display()))
    })?;
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

/// Reads one segment, recovering every complete frame and typing the
/// torn tail (see the module docs). IO failure is the only hard error —
/// truncation and corruption are reported in [`SegmentScan::torn`].
///
/// # Errors
/// Returns [`Error::Artifact`] when the file cannot be read at all.
pub fn read_segment(path: &Path) -> Result<SegmentScan> {
    let bytes = std::fs::read(path)
        .map_err(|e| Error::artifact(format!("cannot read segment {}: {e}", path.display())))?;
    let scan = codec::scan_records(&bytes, DATALOG_SCHEMA, DATALOG_VERSION);
    let mut frames = Vec::with_capacity(scan.records.len());
    let mut torn = scan.torn;
    for (i, value) in scan.records.into_iter().enumerate() {
        match serde_json::from_value::<RecordedFrame>(&value) {
            Ok(frame) => frames.push(frame),
            Err(e) => {
                // A checksum-valid frame with an alien shape: everything
                // from here on is untrusted, exactly like a torn tail.
                torn = Some(Error::artifact(format!(
                    "segment {} frame {i} has an unexpected shape: {e}",
                    path.display()
                )));
                break;
            }
        }
    }
    Ok(SegmentScan { frames, torn })
}

/// A whole recording, loaded back into memory.
#[derive(Debug)]
pub struct Recording {
    /// Every complete frame across all segments, in capture order.
    pub frames: Vec<RecordedFrame>,
    /// Segment files scanned.
    pub segments: u64,
    /// Segments whose tail was torn or corrupt (their complete prefix
    /// still contributes to `frames`).
    pub torn_segments: u64,
}

/// Loads every complete frame of the recording in `dir`, in capture
/// order. Torn tails are tolerated (counted, complete prefixes kept) —
/// a recording cut short by a crash still replays up to the tear.
///
/// # Errors
/// Returns [`Error::Artifact`] when the directory or a segment cannot
/// be read at all.
pub fn load_recording(dir: &Path) -> Result<Recording> {
    let mut frames = Vec::new();
    let mut segments = 0u64;
    let mut torn_segments = 0u64;
    for path in list_segments(dir)? {
        let scan = read_segment(&path)?;
        segments += 1;
        if scan.torn.is_some() {
            torn_segments += 1;
        }
        frames.extend(scan.frames);
    }
    Ok(Recording {
        frames,
        segments,
        torn_segments,
    })
}

/// The append side of the recording. Not thread-safe by itself — the
/// daemon integration wraps it in a [`RecorderSink`].
///
/// Appends are **staged**: [`RecordingWriter::stage`] encodes frames
/// into an in-memory buffer and [`RecordingWriter::flush`] writes the
/// buffer in one syscall. [`RecordingWriter::append`] is the
/// stage+flush convenience for single frames.
#[derive(Debug)]
pub struct RecordingWriter {
    dir: PathBuf,
    opts: RecordingOptions,
    file: File,
    segment: u64,
    frames_in_segment: usize,
    next_seq: u64,
    /// Encoded-but-unwritten frames (cleared by [`RecordingWriter::flush`]).
    pending: Vec<u8>,
    /// Frames inside `pending`.
    pending_frames: u64,
    /// Frames durably written since open — the ground truth the sink's
    /// `appended` counter is derived from, exact even when an
    /// intra-batch rotation flush fails.
    durable: u64,
}

impl RecordingWriter {
    /// Opens (or resumes) the recording in `dir`, creating the directory
    /// if needed. Resuming scans existing segments for the next sequence
    /// number; a segment with a torn tail is sealed as-is (appending
    /// after garbage would bury every later frame) and writing continues
    /// in a fresh segment.
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] on IO failure.
    pub fn open(dir: &Path, opts: RecordingOptions) -> Result<Self> {
        std::fs::create_dir_all(dir).map_err(|e| {
            Error::artifact(format!(
                "cannot create recording dir {}: {e}",
                dir.display()
            ))
        })?;
        let segments = list_segments(dir)?;
        // One backwards pass serves both resume questions: the newest
        // segment's scan decides whether it can be appended to, and the
        // newest segment holding any complete frame fixes the next
        // sequence number.
        let mut next_seq = 0u64;
        let mut active: Option<(u64, usize, bool)> = None;
        for (i, path) in segments.iter().enumerate().rev() {
            let scan = read_segment(path)?;
            if i == segments.len() - 1 {
                let index = segment_index(path).expect("listed segments parse");
                let reusable =
                    scan.torn.is_none() && scan.frames.len() < opts.segment_max_frames.max(1);
                active = Some(if reusable {
                    (index, scan.frames.len(), true)
                } else {
                    (index + 1, 0, false)
                });
            }
            if let Some(last) = scan.frames.last() {
                next_seq = last.seq + 1;
                break;
            }
        }
        let (segment, frames_in_segment, reuse) = active.unwrap_or((0, 0, false));
        let path = segment_path(dir, segment);
        let file = if reuse {
            OpenOptions::new().append(true).open(&path)
        } else {
            File::create(&path)
        }
        .map_err(|e| Error::artifact(format!("cannot open segment {}: {e}", path.display())))?;
        Ok(RecordingWriter {
            dir: dir.to_path_buf(),
            opts,
            file,
            segment,
            frames_in_segment,
            next_seq,
            pending: Vec::new(),
            pending_frames: 0,
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

    /// Encodes one frame into the pending buffer (its `seq` field is
    /// overwritten with the recording's next sequence number, which is
    /// returned), rotating to a fresh segment — flushing first — when
    /// the active one is full. Nothing reaches disk until
    /// [`RecordingWriter::flush`]. Each payload is printed once.
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] on an unencodable (oversized) frame
    /// or a rotation failure; the sequence number is not consumed on
    /// failure.
    pub fn stage(&mut self, frame: RecordedFrame) -> Result<u64> {
        let stamp = (frame.delta_micros, frame.tenant.as_str(), frame.conn);
        frame.body.printed(|body| self.stage_printed(stamp, body))
    }

    /// [`RecordingWriter::stage`] for a printed body, stamped
    /// `(delta_micros, tenant, conn)`.
    fn stage_printed(
        &mut self,
        (delta_micros, tenant, conn): (u64, &str, u64),
        body: PrintedBody,
    ) -> Result<u64> {
        if self.frames_in_segment >= self.opts.segment_max_frames.max(1) {
            self.flush()?;
            // Seal the full segment durably before rotating away from
            // it: downstream consumers (replay, compaction) treat sealed
            // segments as crash-stable, and this is the last moment this
            // writer holds the file.
            self.file
                .sync_data()
                .map_err(|e| Error::artifact(format!("cannot sync sealed segment: {e}")))?;
            self.segment += 1;
            let path = segment_path(&self.dir, self.segment);
            self.file = File::create(&path).map_err(|e| {
                Error::artifact(format!("cannot rotate to segment {}: {e}", path.display()))
            })?;
            self.frames_in_segment = 0;
        }
        let seq = self.next_seq;
        codec::append_record(&mut self.pending, DATALOG_SCHEMA, DATALOG_VERSION, |out| {
            print_frame(out, (seq, delta_micros, tenant, conn), body)
        })?;
        self.pending_frames += 1;
        self.frames_in_segment += 1;
        self.next_seq += 1;
        Ok(seq)
    }

    /// Writes every pending frame in one syscall. On failure the pending
    /// frames are lost (their sequence numbers stay consumed — gaps are
    /// legal, resumption only needs the maximum).
    ///
    /// ## Durability
    ///
    /// By default a flushed frame has reached the kernel, not the
    /// platter. Sealed (rotated-away) segments are always
    /// `fdatasync`ed; the active segment is only synced when
    /// [`RecordingOptions::sync_every_flush`] is set.
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
            .map_err(|e| Error::artifact(format!("cannot append recorded frames: {e}")));
        if outcome.is_ok() {
            self.durable += self.pending_frames;
        }
        self.pending.clear();
        self.pending_frames = 0;
        outcome
    }

    /// Frames durably written since this writer opened.
    pub fn durable(&self) -> u64 {
        self.durable
    }

    /// Stages and flushes one frame — see [`RecordingWriter::stage`].
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] on encoding or IO failure.
    pub fn append(&mut self, frame: RecordedFrame) -> Result<u64> {
        let seq = self.stage(frame)?;
        self.flush()?;
        Ok(seq)
    }
}

/// The recorder as the daemon sees it: a shared tap on the request path.
/// Appends happen on the serving thread under a mutex, one buffered
/// write per request frame; a recorder that cannot write — oversized
/// frame, disk failure — **never fails the serving path**: it counts the
/// dropped frames and keeps the last error for the operator.
#[derive(Debug)]
pub struct RecorderSink {
    /// The writer plus the monotonic instant of the last recorded frame
    /// (the source of `delta_micros`), advanced under one lock so deltas
    /// are assigned in the same order as sequence numbers.
    inner: Mutex<(RecordingWriter, Instant)>,
    appended: AtomicU64,
    dropped: AtomicU64,
    last_error: Mutex<Option<Error>>,
}

impl RecorderSink {
    /// Opens (or resumes) the recording in `dir` — see
    /// [`RecordingWriter::open`].
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] on IO failure.
    pub fn open(dir: &Path, opts: RecordingOptions) -> Result<Self> {
        Ok(RecorderSink {
            inner: Mutex::new((RecordingWriter::open(dir, opts)?, Instant::now())),
            appended: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            last_error: Mutex::new(None),
        })
    }

    /// Records one inbound request frame, stamping its sequence number
    /// and monotonic delta. Never fails the caller: an unrecordable
    /// frame is counted in [`RecorderSink::dropped`] and its error kept
    /// for [`RecorderSink::last_error`]. Each payload is printed once.
    pub fn record(&self, tenant: &str, conn: u64, body: FrameBody) {
        body.printed(|body| self.record_printed(tenant, conn, body));
    }

    /// [`RecorderSink::record`] for a printed body: the daemon's tap.
    pub fn record_printed(&self, tenant: &str, conn: u64, body: PrintedBody) {
        // Recover from poisoning: a panic on one serving thread must not
        // wedge recording behind a `PoisonError`.
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let now = Instant::now();
        let delta_micros = now
            .duration_since(inner.1)
            .as_micros()
            .min(u64::MAX as u128) as u64;
        let writer = &mut inner.0;
        let outcome = writer
            .stage_printed((delta_micros, tenant, conn), body)
            .and_then(|_| writer.flush());
        // The delta clock advances even for dropped frames, so the
        // pacing of later frames stays truthful.
        inner.1 = now;
        drop(inner);
        match outcome {
            Ok(()) => {
                self.appended.fetch_add(1, Ordering::AcqRel);
            }
            Err(e) => {
                self.dropped.fetch_add(1, Ordering::AcqRel);
                *self
                    .last_error
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(e);
            }
        }
    }

    /// Frames durably recorded since this sink opened.
    pub fn appended(&self) -> u64 {
        self.appended.load(Ordering::Acquire)
    }

    /// Frames dropped because the recording could not be written.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Acquire)
    }

    /// The most recent append failure, if any.
    pub fn last_error(&self) -> Option<Error> {
        self.last_error
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intune_core::{FeatureDef, FeatureId, FeatureSample};

    fn fv(x: f64) -> FeatureVector {
        let defs = [FeatureDef::new("k", 1)];
        let mut fv = FeatureVector::empty(&defs);
        fv.insert(
            FeatureId {
                property: 0,
                level: 0,
            },
            FeatureSample::new(x, 1.0),
        )
        .unwrap();
        fv
    }

    fn select_frame(x: f64) -> RecordedFrame {
        RecordedFrame {
            seq: 999, // overwritten by the writer
            delta_micros: 7,
            tenant: "sort".to_string(),
            conn: (x as u64) % 3,
            body: FrameBody::Select {
                features: vec![fv(x)],
                payloads: vec![Value::Array(vec![Value::Float(x)])],
                trace: None,
            },
        }
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "intune-datalog-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// A frame drawn from `(kind, x, vectors, trace, tenant)`: a control
    /// frame, or a select frame with `vectors` vectors whose payloads are
    /// absent, all `null`, or a mix of nulls and values with escapes,
    /// extreme numbers and nesting.
    fn drawn_frame((kind, x, vectors, trace, tenant): (u8, f64, usize, u64, u8)) -> RecordedFrame {
        let payload = |i: usize| match (i + kind as usize) % 4 {
            0 => Value::Null,
            1 => Value::Array(vec![
                Value::Float(x),
                Value::Int(i64::MIN),
                Value::UInt(u64::MAX),
            ]),
            2 => Value::String("q\"\\/\n\u{1}é 😀".into()),
            _ => Value::Object(vec![(
                "k".into(),
                Value::Array(vec![Value::Object(vec![])]),
            )]),
        };
        let body = match kind {
            0 => FrameBody::Control {
                kind: ["Hello", "Stats", "q\"é"][vectors % 3].to_string(),
            },
            _ => FrameBody::Select {
                features: (0..vectors).map(|i| fv(x + i as f64)).collect(),
                payloads: match kind {
                    1 => Vec::new(),
                    2 => vec![Value::Null; vectors],
                    _ => (0..vectors).map(payload).collect(),
                },
                trace: (trace > 0).then_some(intune_core::TraceContext {
                    trace_id: trace,
                    parent_span: trace >> 3,
                    sampled: trace % 2 == 0,
                }),
            },
        };
        RecordedFrame {
            seq: 0,
            delta_micros: x.abs() as u64,
            tenant: ["sort", "q\"\\é"][tenant as usize % 2].to_string(),
            conn: trace % 5,
            body,
        }
    }

    fn derive_encoding(frame: &RecordedFrame) -> Vec<u8> {
        codec::encode_record(DATALOG_SCHEMA, DATALOG_VERSION, serde_json::to_value(frame)).unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// The recorder's one encoder writes exactly the bytes of the
        /// derive encoding, `encode_record(to_value(&frame))`, whether
        /// the writer stages a frame or the sink records a body: select
        /// frames with and without payloads, `null` payloads among them,
        /// with and without a trace, and control frames.
        #[test]
        fn encoder_writes_the_derive_encoding(
            specs in proptest::collection::vec((0u8..4, -1e3f64..1e3, 0usize..4, 0u64..4, 0u8..2), 1..5),
        ) {
            let frames: Vec<RecordedFrame> = specs
                .into_iter()
                .enumerate()
                .map(|(seq, spec)| RecordedFrame { seq: seq as u64, ..drawn_frame(spec) })
                .collect();
            let oracle: Vec<u8> = frames.iter().flat_map(derive_encoding).collect();
            let dir = tmp("encoder");
            let mut writer = RecordingWriter::open(&dir, RecordingOptions::default()).unwrap();
            for frame in &frames {
                writer.stage(frame.clone()).unwrap();
            }
            proptest::prop_assert_eq!(&writer.pending, &oracle);
            drop(writer);

            // The sink stamps its own deltas: compare each stored frame
            // with the derive encoding of what it read back.
            let dir = tmp("encoder-sink");
            let sink = RecorderSink::open(&dir, RecordingOptions::default()).unwrap();
            for frame in &frames {
                sink.record(&frame.tenant, frame.conn, frame.body.clone());
            }
            let stored = read_segment(&segment_path(&dir, 0)).unwrap().frames;
            proptest::prop_assert_eq!(stored.len(), frames.len());
            let mut expected = Vec::new();
            for (frame, back) in frames.iter().zip(&stored) {
                let frame = RecordedFrame { delta_micros: back.delta_micros, ..frame.clone() };
                expected.extend(derive_encoding(&frame));
            }
            proptest::prop_assert_eq!(std::fs::read(segment_path(&dir, 0)).unwrap(), expected);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn append_rotate_and_read_back_across_segments() {
        let dir = tmp("rotate");
        let mut w = RecordingWriter::open(
            &dir,
            RecordingOptions {
                segment_max_frames: 4,
                ..RecordingOptions::default()
            },
        )
        .unwrap();
        for i in 0..10 {
            assert_eq!(w.append(select_frame(i as f64)).unwrap(), i);
        }
        assert_eq!(w.active_segment(), 2, "10 frames at 4/segment");
        let recording = load_recording(&dir).unwrap();
        assert_eq!(recording.segments, 3);
        assert_eq!(recording.torn_segments, 0);
        assert_eq!(recording.frames.len(), 10);
        for (i, frame) in recording.frames.iter().enumerate() {
            assert_eq!(frame.seq, i as u64, "writer stamps sequence numbers");
            assert_eq!(frame.delta_micros, 7);
            assert_eq!(frame.tenant, "sort");
            let (features, payloads) = frame.body.select_parts().expect("select frame");
            assert_eq!(features.len(), 1);
            assert_eq!(payloads.len(), 1);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn control_frames_round_trip() {
        let dir = tmp("control");
        let mut w = RecordingWriter::open(&dir, RecordingOptions::default()).unwrap();
        w.append(RecordedFrame {
            seq: 0,
            delta_micros: 0,
            tenant: "sort".to_string(),
            conn: 4,
            body: FrameBody::Control {
                kind: "Hello".to_string(),
            },
        })
        .unwrap();
        let recording = load_recording(&dir).unwrap();
        assert_eq!(recording.frames.len(), 1);
        assert!(recording.frames[0].body.select_parts().is_none());
        assert_eq!(
            recording.frames[0].body,
            FrameBody::Control {
                kind: "Hello".to_string()
            }
        );
        assert_eq!(recording.frames[0].conn, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_resumes_sequence_and_appends_to_the_active_segment() {
        let dir = tmp("resume");
        let opts = || RecordingOptions {
            segment_max_frames: 4,
            ..RecordingOptions::default()
        };
        {
            let mut w = RecordingWriter::open(&dir, opts()).unwrap();
            for i in 0..6 {
                w.append(select_frame(i as f64)).unwrap();
            }
        }
        let mut w = RecordingWriter::open(&dir, opts()).unwrap();
        assert_eq!(w.next_seq(), 6, "sequence resumes after the last frame");
        assert_eq!(w.active_segment(), 1, "half-full segment is reused");
        w.append(select_frame(9.0)).unwrap();
        assert_eq!(list_segments(&dir).unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_sealed_and_writing_continues_in_a_fresh_segment() {
        let dir = tmp("torn");
        {
            let mut w = RecordingWriter::open(&dir, RecordingOptions::default()).unwrap();
            for i in 0..3 {
                w.append(select_frame(i as f64)).unwrap();
            }
        }
        // Crash simulation: cut the active segment mid-frame.
        let path = segment_path(&dir, 0);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

        let scan = read_segment(&path).unwrap();
        assert_eq!(scan.frames.len(), 2, "complete frames survive");
        let torn = scan.torn.expect("torn tail typed");
        assert!(matches!(torn, Error::Artifact { .. }), "{torn:?}");

        let mut w = RecordingWriter::open(&dir, RecordingOptions::default()).unwrap();
        assert_eq!(w.next_seq(), 2, "the torn frame's seq is reissued");
        assert_eq!(w.active_segment(), 1, "damaged segment is sealed");
        w.append(select_frame(8.0)).unwrap();

        // A torn recording still loads its complete prefix.
        let recording = load_recording(&dir).unwrap();
        assert_eq!(recording.frames.len(), 3);
        assert_eq!(recording.torn_segments, 1);
        assert_eq!(recording.frames[2].seq, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sink_stamps_order_and_counts_appends() {
        let dir = tmp("sink");
        let sink = RecorderSink::open(&dir, RecordingOptions::default()).unwrap();
        sink.record(
            "sort",
            11,
            FrameBody::Control {
                kind: "Hello".to_string(),
            },
        );
        sink.record(
            "sort",
            11,
            FrameBody::Select {
                features: vec![fv(1.0)],
                payloads: vec![],
                trace: None,
            },
        );
        sink.record(
            "cluster",
            12,
            FrameBody::Select {
                features: vec![fv(2.0), fv(3.0)],
                payloads: vec![Value::Null, Value::Int(4)],
                trace: Some(intune_core::TraceContext::root(0xfeed)),
            },
        );
        assert_eq!(sink.appended(), 3);
        assert_eq!(sink.dropped(), 0);
        assert!(sink.last_error().is_none());

        let recording = load_recording(&dir).unwrap();
        assert_eq!(recording.frames.len(), 3);
        let seqs: Vec<u64> = recording.frames.iter().map(|f| f.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2], "capture order is sequence order");
        assert_eq!(recording.frames[2].tenant, "cluster");
        assert_eq!(recording.frames[2].conn, 12);
        let (features, payloads) = recording.frames[2].body.select_parts().unwrap();
        assert_eq!(features.len(), 2);
        assert_eq!(payloads, [Value::Null, Value::Int(4)]);
        assert!(recording.frames[1].body.trace().is_none());
        assert_eq!(
            recording.frames[2].body.trace().map(|t| t.trace_id),
            Some(0xfeed),
            "a traced frame's context round-trips through the recording"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_frames_are_dropped_typed_and_never_poison_the_sink() {
        let dir = tmp("oversize");
        let sink = RecorderSink::open(&dir, RecordingOptions::default()).unwrap();
        // A payload whose encoded frame exceeds the 16 MiB record cap —
        // wire clients can ship these (the wire frame cap is 64 MiB), so
        // the recorder must drop the frame, not fail the serving path.
        let huge = Value::String("x".repeat(intune_core::codec::MAX_RECORD_BYTES + 1024));
        sink.record(
            "sort",
            1,
            FrameBody::Select {
                features: vec![fv(1.0)],
                payloads: vec![huge],
                trace: None,
            },
        );
        assert_eq!(sink.dropped(), 1, "the oversized frame is lost");
        assert_eq!(sink.appended(), 0);
        let err = sink.last_error().expect("typed drop reason");
        assert!(err.to_string().contains("frame cap"), "{err}");

        // The sink (and its mutex) survive: later frames still record.
        sink.record(
            "sort",
            1,
            FrameBody::Select {
                features: vec![fv(2.0)],
                payloads: vec![],
                trace: None,
            },
        );
        assert_eq!(sink.appended(), 1);
        let recording = load_recording(&dir).unwrap();
        assert_eq!(recording.frames.len(), 1);
        assert_eq!(recording.torn_segments, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_files_in_the_recording_dir_are_ignored() {
        let dir = tmp("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("README.txt"), "not a segment").unwrap();
        std::fs::write(dir.join("datalog-xx.seg"), "bad index").unwrap();
        let mut w = RecordingWriter::open(&dir, RecordingOptions::default()).unwrap();
        w.append(select_frame(1.0)).unwrap();
        assert_eq!(list_segments(&dir).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
