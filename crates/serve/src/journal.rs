//! The request journal: a segmented, crash-tolerant append-only log of
//! served selections.
//!
//! Every record captures one answered request — the served feature
//! vector, the chosen landmark, the drift/fallback outcome, the serving
//! artifact's revision, and (when the client shipped one) an opaque
//! raw-input payload. Records are framed with the workspace's checksummed
//! record codec ([`intune_core::codec::encode_record`]), schema
//! `"intune-request-journal"`, version 1, in numbered segment files
//! (`journal-00000000.seg`, …). Segments, rotation, the seal, torn tails,
//! resuming and durability are those of every segmented log: see
//! [`intune_core::applog`], which holds the writer and the sink. This
//! module owns the record, its encoder and its reader.
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
//! The record table lives in `crates/retrain/README.md`.

use crate::service::Selection;
use crate::trace::TraceSink;
use intune_core::applog::{self, SegmentFormat, SegmentOptions, SegmentSink, SegmentWriter};
use intune_core::codec::RecordScan;
use intune_core::{Error, FeatureVector, Result};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::borrow::Cow;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Envelope schema name of journal records.
pub const JOURNAL_SCHEMA: &str = "intune-request-journal";
/// Current journal record schema version.
pub const JOURNAL_VERSION: u32 = 1;
/// Segment file name prefix.
pub const SEGMENT_PREFIX: &str = "journal-";

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
/// ([`SegmentWriter::stage`]) and the served batch ([`JournalSink`]).
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

/// Journal writer tunables (see [`intune_core::applog`]).
pub type JournalOptions = SegmentOptions;

/// The journal's segment format: [`JournalRecord`]s, read back through
/// [`scan_segment`].
#[derive(Debug)]
pub struct JournalFormat;

impl SegmentFormat for JournalFormat {
    const PREFIX: &'static str = SEGMENT_PREFIX;
    const SCHEMA: &'static str = JOURNAL_SCHEMA;
    const VERSION: u32 = JOURNAL_VERSION;
    type Record = JournalRecord;

    /// Prints the record with its payload printed once.
    fn print(record: &JournalRecord, seq: u64, out: &mut Vec<u8>) {
        let payload = record
            .payload
            .as_ref()
            .map(|v| serde_json::to_string(v).expect("value printing is infallible"));
        RecordParts {
            revision: record.revision,
            landmark: record.landmark,
            out_of_distribution: record.out_of_distribution,
            fell_back: record.fell_back,
            features: &record.features,
            payload: payload.as_deref(),
            trace_id: record.trace_id,
        }
        .print(seq, out);
    }

    /// Resumes without parsing a payload.
    fn scan_seqs(path: &Path, bytes: &[u8]) -> RecordScan<u64> {
        scan_segment(path, bytes).map(|r| r.record.seq)
    }
}

/// The append side of the journal: [`JournalRecord`]s staged and
/// flushed, each stamped with the journal's next sequence number.
pub type JournalWriter = SegmentWriter<JournalFormat>;

/// Lists a journal directory's segment files, ascending by index.
///
/// # Errors
/// Returns [`Error::Artifact`] when the directory cannot be read.
pub fn list_segments(dir: &Path) -> Result<Vec<PathBuf>> {
    applog::list_segments(dir, SEGMENT_PREFIX)
}

/// Path of segment `index` inside `dir`.
pub fn segment_path(dir: &Path, index: u64) -> PathBuf {
    applog::segment_path(dir, SEGMENT_PREFIX, index)
}

/// Scans the bytes of segment `path` (the path only names it in errors),
/// recovering every complete record with its payload left as text and
/// typing the torn tail (see the module docs). Every record's checksum is
/// verified over its stored bytes and every payload is checked against
/// the JSON grammar, so the records, `consumed` and the torn-tail error
/// are what [`intune_core::codec::scan_records`] followed by a
/// `serde_json::from_value::<JournalRecord>` of each record gives.
pub fn scan_segment<'a>(path: &Path, bytes: &'a [u8]) -> RecordScan<LazyRecord<'a>> {
    let source = format_args!("segment {}", path.display());
    applog::scan_typed(bytes, JOURNAL_SCHEMA, JOURNAL_VERSION, &source, |text| {
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
        Ok(
            serde_json::from_value::<JournalRecord>(&value).map(|record| LazyRecord {
                record,
                payload: payload.filter(|text| text != "null"),
            }),
        )
    })
}

/// A journal record's JSON with its `payload` field left as text.
fn raw_payload(text: &str) -> Result<(Value, Option<&str>)> {
    serde_json::from_str_raw_field(text, "payload").map_err(|e| Error::artifact(e.to_string()))
}

/// Reads one segment: [`scan_segment`] plus a parse of every payload.
/// IO failure is the only hard error — truncation and corruption are
/// reported in [`RecordScan::torn`].
///
/// # Errors
/// Returns [`Error::Artifact`] when the file cannot be read at all.
pub fn read_segment(path: &Path) -> Result<RecordScan<JournalRecord>> {
    let bytes = applog::read_file(path)?;
    Ok(scan_segment(path, &bytes).map(LazyRecord::into_record))
}

/// The journal as a [`TraceSink`]: the bridge between the serving runtime
/// and the append-only log. Appends happen on the serving thread under a
/// mutex, one buffered **write per served batch** (not per selection); a
/// sink that cannot record — oversized payload, disk failure — **never
/// fails the serving path**: it counts the dropped records and keeps the
/// last error for the operator.
pub type JournalSink = SegmentSink<JournalFormat>;

impl TraceSink for JournalSink {
    fn record_batch_printed(
        &self,
        revision: u64,
        features: &[FeatureVector],
        payloads: &[&str],
        selections: &[Selection],
        trace_id: Option<u64>,
    ) {
        self.append(selections.len() as u64, |writer, ()| {
            let mut error = None;
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
                // An unrecordable record (e.g. an oversized payload) or a
                // failed rotation costs what it costs, never the batch.
                if let Err(e) = writer.stage_with(|seq, out| record.print(seq, out)) {
                    error = Some(e);
                }
            }
            error
        });
    }

    fn appended(&self) -> u64 {
        SegmentSink::appended(self)
    }

    /// Records dropped because the journal could not be written.
    fn dropped(&self) -> u64 {
        SegmentSink::dropped(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intune_core::{codec, FeatureDef};
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

    fn tmp(tag: &str) -> intune_core::TempDir {
        intune_core::unique_temp_dir(&format!("journal-{tag}"))
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
    }

    /// [`read_segment`] as the full parse spells it, the oracle of the
    /// lazy scan: every record through [`codec::scan_records`], then
    /// `from_value`.
    fn full_parse_scan(path: &Path, bytes: &[u8]) -> RecordScan<JournalRecord> {
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
        RecordScan {
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
            prop_assert_eq!(writer.pending(), &oracle[..]);
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
