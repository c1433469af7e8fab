//! One crash-tolerance property for every crash-tolerant log in the
//! workspace: the request journal, the wire recording, the event log and
//! the span log, all written through `intune_core::applog`.
//!
//! Each case writes N records, cuts the file a crash would tear (the
//! active segment, or the single file) at any offset, and requires:
//! the read keeps exactly the complete prefix, bit for bit, with
//! `consumed` at its end, and types a torn tail exactly when the cut
//! splits a record; a reopen seals a damaged or full segment and starts a
//! fresh one (reusing a clean one with room), or truncates a single file;
//! and one more append resumes `seq` after the last complete record.

use intune_core::applog;
use intune_core::codec::RecordScan;
use intune_core::{Error, FeatureDef, FeatureId, FeatureSample, FeatureVector, TraceContext};
use intune_datalog::{FrameBody, RecordedFrame, RecordingOptions, RecordingWriter};
use intune_obs::{read_events, read_spans, Event, EventKind, EventLog, Span, SpanLog};
use intune_serve::journal::{self, JournalOptions, JournalRecord, JournalWriter};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use serde_json::Value;
use std::fmt::Debug;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// One log as the property drives it.
trait Log {
    type Record: Debug + PartialEq;
    /// A directory of segments, or else a single file.
    const SEGMENTED: bool;
    /// Opens (or resumes) the log at `at` and appends records `records`,
    /// drawn from `seed`.
    fn append(at: &Path, per_segment: usize, seed: u64, records: Range<usize>);
    /// The log's files, oldest first.
    fn files(at: &Path) -> Vec<PathBuf>;
    /// Reads one file of the log.
    fn read(path: &Path) -> RecordScan<Self::Record>;
    /// The whole log as its loader reads it: every complete record, and
    /// how many files end torn.
    fn load(at: &Path) -> (Vec<Self::Record>, u64);
    /// A record's sequence number (`None`: the log has none).
    fn seq(record: &Self::Record) -> Option<u64>;
}

fn vector(x: f64) -> FeatureVector {
    let defs = [FeatureDef::new("a", 2), FeatureDef::new("b", 1)];
    let mut fv = FeatureVector::empty(&defs);
    for (property, def) in defs.iter().enumerate() {
        for level in 0..def.levels {
            fv.insert(
                FeatureId { property, level },
                FeatureSample::new(x + (property * 10 + level) as f64, 1.0),
            )
            .unwrap();
        }
    }
    fv
}

/// A number drawn from `(seed, i)`, with a fractional part.
fn draw(seed: u64, i: usize) -> f64 {
    ((seed.wrapping_mul(31) + i as u64 * 7) % 1000) as f64 / 8.0 - 60.0
}

struct Journal;

impl Log for Journal {
    type Record = JournalRecord;
    const SEGMENTED: bool = true;

    fn append(at: &Path, per_segment: usize, seed: u64, records: Range<usize>) {
        let opts = JournalOptions {
            segment_max_records: per_segment,
            ..JournalOptions::default()
        };
        let mut w = JournalWriter::open(at, opts).unwrap();
        for i in records {
            let x = draw(seed, i);
            w.append(JournalRecord {
                seq: 0, // stamped by the writer
                revision: seed % 17,
                landmark: (i % 3) as u64,
                out_of_distribution: i % 2 == 0,
                fell_back: i % 5 == 1,
                features: vector(x),
                payload: (i % 3 != 1).then(|| Value::Array(vec![Value::Float(x), Value::Null])),
                trace_id: (i % 4 == 2).then_some(seed + 1),
            })
            .unwrap();
        }
    }

    fn files(at: &Path) -> Vec<PathBuf> {
        journal::list_segments(at).unwrap()
    }

    fn read(path: &Path) -> RecordScan<JournalRecord> {
        journal::read_segment(path).unwrap()
    }

    fn load(at: &Path) -> (Vec<JournalRecord>, u64) {
        let (mut records, mut torn) = (Vec::new(), 0);
        for path in Self::files(at) {
            let scan = Self::read(&path);
            torn += u64::from(scan.torn.is_some());
            records.extend(scan.records);
        }
        (records, torn)
    }

    fn seq(record: &JournalRecord) -> Option<u64> {
        Some(record.seq)
    }
}

struct Recording;

impl Log for Recording {
    type Record = RecordedFrame;
    const SEGMENTED: bool = true;

    fn append(at: &Path, per_segment: usize, seed: u64, records: Range<usize>) {
        let opts = RecordingOptions {
            segment_max_records: per_segment,
            ..RecordingOptions::default()
        };
        let mut w = RecordingWriter::open(at, opts).unwrap();
        for i in records {
            let x = draw(seed, i);
            let body = if i % 4 == 3 {
                FrameBody::Control {
                    kind: "Stats".to_string(),
                }
            } else {
                FrameBody::Select {
                    features: vec![vector(x), vector(-x)],
                    payloads: if i % 2 == 0 {
                        vec![Value::Float(x), Value::Null]
                    } else {
                        Vec::new()
                    },
                    trace: (i % 3 == 0).then(|| TraceContext::root(seed * 31 + 1)),
                }
            };
            w.append(RecordedFrame {
                seq: 0, // stamped by the writer
                delta_micros: (i * 13) as u64,
                tenant: "prop".to_string(),
                conn: (i % 3) as u64,
                body,
            })
            .unwrap();
        }
    }

    fn files(at: &Path) -> Vec<PathBuf> {
        applog::list_segments(at, intune_datalog::SEGMENT_PREFIX).unwrap()
    }

    fn read(path: &Path) -> RecordScan<RecordedFrame> {
        intune_datalog::read_segment(path).unwrap()
    }

    fn load(at: &Path) -> (Vec<RecordedFrame>, u64) {
        let recording = intune_datalog::load_recording(at).unwrap();
        (recording.frames, recording.torn_segments)
    }

    fn seq(record: &RecordedFrame) -> Option<u64> {
        Some(record.seq)
    }
}

struct Events;

impl Log for Events {
    type Record = Event;
    const SEGMENTED: bool = false;

    fn append(at: &Path, _: usize, seed: u64, records: Range<usize>) {
        let log = EventLog::open(at).unwrap();
        for i in records {
            let kind = match i % 3 {
                0 => EventKind::TenantBound { conn: seed },
                1 => EventKind::DriftTripped {
                    probed: 64,
                    ood: i as u64,
                    trip_rate: draw(seed, i),
                },
                _ => EventKind::PromoteRejected {
                    reason: format!("gate \"unsatisfied\" at step {i}"),
                },
            };
            log.record(&format!("tenant-{}", i % 2), i as u64, kind);
        }
        assert_eq!(log.dropped(), 0);
    }

    fn files(at: &Path) -> Vec<PathBuf> {
        vec![at.to_path_buf()]
    }

    fn read(path: &Path) -> RecordScan<Event> {
        read_events(path).unwrap()
    }

    fn load(at: &Path) -> (Vec<Event>, u64) {
        let scan = Self::read(at);
        (scan.records, u64::from(scan.torn.is_some()))
    }

    fn seq(record: &Event) -> Option<u64> {
        Some(record.seq)
    }
}

struct Spans;

impl Log for Spans {
    type Record = Span;
    const SEGMENTED: bool = false;

    fn append(at: &Path, _: usize, seed: u64, records: Range<usize>) {
        let log = SpanLog::open(at).unwrap();
        for i in records {
            let span = Span::new(seed + 1, i as u64 + 1, i as u64, "stage.select", "sort")
                .annotate("revision", i)
                .lasting(i as u64 * 1000 + seed);
            log.record(&span);
        }
        assert_eq!(log.dropped(), 0);
    }

    fn files(at: &Path) -> Vec<PathBuf> {
        vec![at.to_path_buf()]
    }

    fn read(path: &Path) -> RecordScan<Span> {
        read_spans(path).unwrap()
    }

    fn load(at: &Path) -> (Vec<Span>, u64) {
        let scan = Self::read(at);
        (scan.records, u64::from(scan.torn.is_some()))
    }

    fn seq(_: &Span) -> Option<u64> {
        None
    }
}

/// End offsets of the frames in `bytes`, after a leading 0.
fn boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut at = 0;
    let mut ends = vec![0];
    while at < bytes.len() {
        let len = u32::from_be_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        at += 4 + len;
        ends.push(at);
    }
    ends
}

/// One case: `(n, per_segment, on_frame, cut_sel, seed)`.
fn case() -> impl Strategy<Value = (usize, usize, bool, usize, u64)> {
    (1usize..10, 1usize..12, 0u8..2, 0usize..1 << 20, 0u64..1000).prop_map(
        |(n, per_segment, on_frame, cut, seed)| (n, per_segment, on_frame == 1, cut, seed),
    )
}

fn fresh_dir(log: &str) -> intune_core::TempDir {
    let dir = intune_core::unique_temp_dir(&format!("log-crash-{log}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The property for log `L`: `n` records at `per_segment` per segment,
/// drawn from `seed`, the active file cut at a frame boundary when
/// `on_frame` (else anywhere) picked by `cut_sel`.
fn crash_tolerance<L: Log>(
    name: &str,
    (n, per_segment, on_frame, cut_sel, seed): (usize, usize, bool, usize, u64),
) -> Result<(), TestCaseError> {
    let dir = fresh_dir(name);
    let at = if L::SEGMENTED {
        dir.join("log")
    } else {
        dir.join("log.file")
    };
    L::append(&at, per_segment, seed, 0..n);
    let files = L::files(&at);
    if L::SEGMENTED {
        prop_assert_eq!(files.len(), n.div_ceil(per_segment), "{}: rotation", name);
    }
    let (written, torn) = L::load(&at);
    prop_assert_eq!(torn, 0);
    prop_assert_eq!(written.len(), n, "{}: records written", name);
    for (i, record) in written.iter().enumerate() {
        if let Some(seq) = L::seq(record) {
            prop_assert_eq!(seq, i as u64, "{}: the writer stamps seq", name);
        }
    }
    let active = files.last().unwrap().clone();
    let bytes = std::fs::read(&active).unwrap();
    let clean = L::read(&active);
    prop_assert!(clean.torn.is_none(), "{}: {:?}", name, clean.torn);
    let before = n - clean.records.len();
    let ends = boundaries(&bytes);
    prop_assert_eq!(ends.len() - 1, clean.records.len());

    // The crash: cut the active file on a frame boundary or anywhere.
    let cut = if on_frame {
        ends[cut_sel % ends.len()]
    } else {
        cut_sel % (bytes.len() + 1)
    };
    std::fs::write(&active, &bytes[..cut]).unwrap();
    let scan = L::read(&active);
    let complete = ends.iter().filter(|&&end| end <= cut).count() - 1;
    prop_assert_eq!(
        &scan.records[..],
        &clean.records[..complete],
        "{}: cut at {} keeps exactly the complete prefix",
        name,
        cut
    );
    prop_assert_eq!(scan.consumed, ends[complete], "{}: consumed", name);
    let on_boundary = ends.contains(&cut);
    prop_assert_eq!(
        scan.torn.is_none(),
        on_boundary,
        "{}: torn tail iff the cut splits a record (cut at {})",
        name,
        cut
    );
    if let Some(torn) = &scan.torn {
        prop_assert!(
            matches!(torn, Error::Artifact { .. }),
            "{}: {:?}",
            name,
            torn
        );
    }

    // Reopen and append once more.
    L::append(&at, per_segment, seed, n..n + 1);
    let after = L::files(&at);
    let reread = L::read(after.last().unwrap());
    prop_assert!(reread.torn.is_none(), "{}: the reopened log is clean", name);
    if L::SEGMENTED && (!on_boundary || complete >= per_segment.max(1)) {
        // A damaged or full segment is sealed as it is; a fresh one
        // holds the new record.
        prop_assert_eq!(after.len(), files.len() + 1, "{}: a fresh segment", name);
        prop_assert_eq!(std::fs::read(&active).unwrap(), &bytes[..cut]);
        prop_assert_eq!(reread.records.len(), 1);
    } else {
        // A clean segment with room is reused; a single file is
        // truncated to its complete records. Either way the new record
        // follows the complete prefix.
        prop_assert_eq!(after.len(), files.len(), "{}: the file is reused", name);
        let reopened = std::fs::read(&active).unwrap();
        prop_assert_eq!(&reopened[..ends[complete]], &bytes[..ends[complete]]);
        prop_assert_eq!(&reread.records[..complete], &clean.records[..complete]);
        prop_assert_eq!(reread.records.len(), complete + 1);
    }
    // The whole log: what survived the cut, then the new record; only a
    // sealed damaged segment still ends torn.
    let (all, torn) = L::load(&at);
    let kept = before + complete;
    prop_assert_eq!(
        torn,
        u64::from(L::SEGMENTED && !on_boundary),
        "{}: torn files",
        name
    );
    prop_assert_eq!(
        &all[..kept],
        &written[..kept],
        "{}: the log keeps its prefix",
        name
    );
    prop_assert_eq!(all.len(), kept + 1);
    if let Some(seq) = L::seq(reread.records.last().unwrap()) {
        prop_assert_eq!(
            seq,
            kept as u64,
            "{}: seq resumes after the last complete record",
            name
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn truncated_journal_segments_recover_every_complete_record(case in case()) {
        crash_tolerance::<Journal>("journal", case)?;
    }

    #[test]
    fn truncated_recording_segments_recover_every_complete_frame(case in case()) {
        crash_tolerance::<Recording>("recording", case)?;
    }

    #[test]
    fn truncated_event_log_recovers_every_complete_event(case in case()) {
        crash_tolerance::<Events>("events", case)?;
    }

    #[test]
    fn truncated_span_log_recovers_every_complete_span(case in case()) {
        crash_tolerance::<Spans>("spans", case)?;
    }
}
