//! The recording side of the datalog: a segmented, crash-tolerant
//! append-only capture of a daemon's inbound request traffic.
//!
//! Every frame captures one decoded wire request — which tenant it was
//! addressed to, which client connection carried it, how long after the
//! previous recorded frame it arrived (a monotonic delta, so recordings
//! have no wall-clock in them), and the request body itself. Frames are
//! framed with the workspace's checksummed record codec
//! ([`intune_core::codec::encode_record`]), schema `"intune-datalog"`,
//! version 1, in numbered segment files (`datalog-00000000.seg`, …).
//! Segments, rotation, the seal, torn tails, resuming and durability are
//! those of every segmented log: see [`intune_core::applog`]. This module
//! owns the frame, its encoder, [`load_recording`] and the daemon's
//! [`RecorderSink`].
//!
//! The frame table lives in `crates/datalog/README.md`.

use intune_core::applog::{self, SegmentFormat, SegmentOptions, SegmentSink, SegmentWriter};
use intune_core::codec::RecordScan;
use intune_core::{Error, FeatureVector, Result};
use intune_serve::print_payloads;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Envelope schema name of recorded frames.
pub const DATALOG_SCHEMA: &str = "intune-datalog";
/// Current datalog frame schema version.
pub const DATALOG_VERSION: u32 = 1;
/// Segment file name prefix.
pub const SEGMENT_PREFIX: &str = "datalog-";

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

/// Recording writer tunables (see [`intune_core::applog`]).
pub type RecordingOptions = SegmentOptions;

/// The recording's segment format: [`RecordedFrame`]s, read back through
/// [`read_segment`]'s scan.
#[derive(Debug)]
pub struct DatalogFormat;

impl SegmentFormat for DatalogFormat {
    const PREFIX: &'static str = SEGMENT_PREFIX;
    const SCHEMA: &'static str = DATALOG_SCHEMA;
    const VERSION: u32 = DATALOG_VERSION;
    type Record = RecordedFrame;

    /// Prints the frame with each payload printed once.
    fn print(frame: &RecordedFrame, seq: u64, out: &mut Vec<u8>) {
        let stamp = (seq, frame.delta_micros, frame.tenant.as_str(), frame.conn);
        frame.body.printed(|body| print_frame(out, stamp, body));
    }

    fn scan_seqs(path: &Path, bytes: &[u8]) -> RecordScan<u64> {
        scan_segment(path, bytes).map(|frame| frame.seq)
    }
}

/// The append side of the recording: [`RecordedFrame`]s staged and
/// flushed, each stamped with the recording's next sequence number.
pub type RecordingWriter = SegmentWriter<DatalogFormat>;

/// Path of segment `index` inside `dir`.
pub fn segment_path(dir: &Path, index: u64) -> PathBuf {
    applog::segment_path(dir, SEGMENT_PREFIX, index)
}

/// Scans the bytes of segment `path` (the path only names it in errors),
/// recovering every complete frame and typing the torn tail.
fn scan_segment(path: &Path, bytes: &[u8]) -> RecordScan<RecordedFrame> {
    let source = format_args!("segment {}", path.display());
    applog::scan_as(bytes, DATALOG_SCHEMA, DATALOG_VERSION, &source)
}

/// Reads one segment, recovering every complete frame and typing the
/// torn tail. IO failure is the only hard error — truncation and
/// corruption are reported in [`RecordScan::torn`].
///
/// # Errors
/// Returns [`Error::Artifact`] when the file cannot be read at all.
pub fn read_segment(path: &Path) -> Result<RecordScan<RecordedFrame>> {
    Ok(scan_segment(path, &applog::read_file(path)?))
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
    for path in applog::list_segments(dir, SEGMENT_PREFIX)? {
        let scan = read_segment(&path)?;
        segments += 1;
        if scan.torn.is_some() {
            torn_segments += 1;
        }
        frames.extend(scan.records);
    }
    Ok(Recording {
        frames,
        segments,
        torn_segments,
    })
}

/// The recorder as the daemon sees it: a shared tap on the request path.
/// Appends happen on the serving thread under a mutex, one buffered
/// write per request frame; a recorder that cannot write — oversized
/// frame, disk failure — **never fails the serving path**: it counts the
/// dropped frames and keeps the last error for the operator.
#[derive(Debug)]
pub struct RecorderSink(
    /// The writer plus the monotonic instant of the last recorded frame
    /// (the source of `delta_micros`), advanced under one lock so deltas
    /// are assigned in the same order as sequence numbers.
    SegmentSink<DatalogFormat, Instant>,
);

impl RecorderSink {
    /// Opens (or resumes) the recording in `dir` — see
    /// [`SegmentWriter::open`].
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] on IO failure.
    pub fn open(dir: &Path, opts: RecordingOptions) -> Result<Self> {
        let writer = RecordingWriter::open(dir, opts)?;
        Ok(RecorderSink(SegmentSink::new((writer, Instant::now()))))
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
        self.0.append(1, |writer, last| {
            let now = Instant::now();
            let delta_micros = now.duration_since(*last).as_micros().min(u64::MAX as u128) as u64;
            // The delta clock advances even for dropped frames, so the
            // pacing of later frames stays truthful.
            *last = now;
            writer
                .stage_with(|seq, out| print_frame(out, (seq, delta_micros, tenant, conn), body))
                .err()
        });
    }

    /// Frames durably recorded since this sink opened.
    pub fn appended(&self) -> u64 {
        self.0.appended()
    }

    /// Frames dropped because the recording could not be written.
    pub fn dropped(&self) -> u64 {
        self.0.dropped()
    }

    /// The most recent append failure, if any.
    pub fn last_error(&self) -> Option<Error> {
        self.0.last_error()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intune_core::{codec, FeatureDef, FeatureId, FeatureSample};

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

    fn tmp(tag: &str) -> intune_core::TempDir {
        intune_core::unique_temp_dir(&format!("datalog-{tag}"))
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
            proptest::prop_assert_eq!(writer.pending(), &oracle[..]);
            drop(writer);

            // The sink stamps its own deltas: compare each stored frame
            // with the derive encoding of what it read back.
            let dir = tmp("encoder-sink");
            let sink = RecorderSink::open(&dir, RecordingOptions::default()).unwrap();
            for frame in &frames {
                sink.record(&frame.tenant, frame.conn, frame.body.clone());
            }
            let stored = read_segment(&segment_path(&dir, 0)).unwrap().records;
            proptest::prop_assert_eq!(stored.len(), frames.len());
            let mut expected = Vec::new();
            for (frame, back) in frames.iter().zip(&stored) {
                let frame = RecordedFrame { delta_micros: back.delta_micros, ..frame.clone() };
                expected.extend(derive_encoding(&frame));
            }
            proptest::prop_assert_eq!(std::fs::read(segment_path(&dir, 0)).unwrap(), expected);
        }
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
    }
}
