//! The `intune-wire/2` protocol: binary-headed frames carrying compact
//! checksummed JSON messages.
//!
//! ## Frame layout
//!
//! ```text
//! ┌──────────────────┬─────────────┬────────────────────┬───────────────────────────┐
//! │ length: u32 (BE) │ version: u8 │ checksum: u64 (BE) │ payload: `length` bytes   │
//! └──────────────────┴─────────────┴────────────────────┴───────────────────────────┘
//! ```
//!
//! The 13-byte header carries the payload length, the wire version
//! ([`WIRE_VERSION`]), and the FNV-1a 64 checksum of the **raw payload
//! bytes**. The payload is the compact JSON of an externally-tagged
//! message ([`Request`] from clients, [`Response`] from the daemon):
//!
//! ```json
//! {"SelectBatch":{"features":[...]}}
//! ```
//!
//! Wire/1 wrapped every message in the pretty-printed `intune_core::codec`
//! document envelope, whose decode *re-serialized* the payload to verify
//! the checksum — four JSON passes per frame per direction. Wire/2
//! checksums the bytes as sent, so each direction costs one serialization
//! or one parse, nothing else.
//!
//! Every request gets exactly one response on the same connection, in
//! order. Receivers hold a persistent [`FrameReader`] per connection:
//! payloads land in its reusable buffer (decoded by borrowing, never
//! re-allocated per frame), and the buffer grows **incrementally** in
//! [`READ_CHUNK_BYTES`] steps as body bytes actually arrive — a peer
//! announcing a huge length allocates nothing beyond one chunk until it
//! ships real data, and lengths above [`MAX_FRAME_BYTES`] are rejected
//! outright. Any transport, header, or payload failure is a typed
//! [`intune_core::Error::Wire`].

use intune_core::{codec, Error, FeatureVector, Result, TraceContext};
use intune_obs::LatencySummary;
use intune_serve::{print_payloads, Selection, ServeStats};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::io::{Read, Write};

/// Wire protocol version byte (`intune-wire/2`).
pub const WIRE_VERSION: u8 = 2;
/// Upper bound on a frame payload; larger announced lengths are rejected
/// before any allocation happens.
pub const MAX_FRAME_BYTES: usize = 64 << 20;
/// Frame header size: length (4) + version (1) + checksum (8).
pub const HEADER_BYTES: usize = 13;
/// Growth step of a [`FrameReader`]'s buffer while a payload arrives.
/// Memory committed to a connection is bounded by the bytes its peer has
/// actually sent, rounded up to this chunk — not by the announced length.
pub const READ_CHUNK_BYTES: usize = 64 << 10;

/// Client → daemon messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Opens a session and binds the connection to one of the daemon's
    /// tenants; the daemon answers [`Response::HelloAck`] describing the
    /// model that tenant serves. An unknown `benchmark` gets a typed
    /// [`Response::Error`] naming the registered tenants — the
    /// connection survives and may `Hello` again.
    Hello {
        /// Client self-identification (free-form, for server logs).
        client: String,
        /// `Benchmark::name()` of the tenant to bind to. The empty
        /// string binds a single-tenant daemon's sole tenant (the wire/2
        /// behavior before multi-tenancy) and is refused with a typed
        /// error when several tenants are registered.
        benchmark: String,
    },
    /// Selects a landmark for each fully-extracted feature vector.
    SelectBatch {
        /// The vectors, shaped for the served artifact's feature
        /// declaration (`extract_all`-complete).
        features: Vec<FeatureVector>,
        /// Optional trace context for end-to-end request tracing. The
        /// field is **elided when absent** (`None` encodes nothing),
        /// so untraced traffic is byte-identical to a wire/2 peer that
        /// predates tracing — and the [`decode_select_batch`] fast
        /// path, which only understands the canonical untraced shape,
        /// keeps serving it. Traced frames take the generic route.
        trace: Option<intune_core::TraceContext>,
    },
    /// [`Request::SelectBatch`] with opaque raw-input payloads riding
    /// along for the daemon's request journal (continuous learning
    /// retrains on what production actually processed, and feature
    /// vectors alone cannot be re-measured). Payloads are parallel to
    /// `features` (`null` = no payload for that vector), produced by
    /// `Benchmark::encode_input` client-side, and never influence the
    /// selection. A daemon without a journal serves this identically to
    /// `SelectBatch`.
    SelectBatchTraced {
        /// The vectors, as in [`Request::SelectBatch`].
        features: Vec<FeatureVector>,
        /// One opaque input payload per vector (`null` allowed).
        payloads: Vec<serde_json::Value>,
        /// Optional trace context, as in [`Request::SelectBatch`]
        /// (elided when `None`; journaled requests carry the trace id
        /// into the journal so retraining can cite its inputs).
        trace: Option<intune_core::TraceContext>,
    },
    /// Requests the daemon's counter snapshot.
    Stats,
    /// Requests the daemon-wide observability snapshot: per-tenant
    /// request counters and latency percentiles, event-loop stage-timing
    /// histograms, and event-log counters. Unlike [`Request::Stats`]
    /// this is **not** routed through the connection's tenant binding —
    /// the reply covers every tenant, so a monitoring connection need
    /// not `Hello` first. The same snapshot is what `--metrics` renders
    /// as Prometheus text.
    Metrics,
    /// Stages a candidate model artifact (a full
    /// `intune-model-artifact` document, any readable schema version) as
    /// the **shadow**: mirrored on every subsequent `SelectBatch`, never
    /// answering clients, until promoted or rejected.
    LoadArtifact {
        /// The artifact document text (what `ModelArtifact::save` writes).
        document: String,
    },
    /// Promotes the staged shadow to primary, gated on its mirrored
    /// agreement record.
    Promote,
    /// Panics the request handler — fault injection for resilience tests
    /// (the panic-containment invariant: the event loop catches the
    /// panic, and one poisoned request costs one connection, never the
    /// daemon). Refused with a typed [`Response::Error`] unless the daemon
    /// opted in via `DaemonOptions::inject_faults`.
    InjectPanic,
    /// Asks the daemon to stop accepting connections and exit.
    Shutdown,
}

/// Daemon → client messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Session opened.
    HelloAck {
        /// Server self-identification.
        server: String,
        /// `Benchmark::name()` of the served model.
        benchmark: String,
        /// Rollout revision of the primary artifact.
        revision: u64,
        /// Artifact schema version the daemon writes
        /// (`intune_serve::ARTIFACT_VERSION`).
        artifact_version: u32,
        /// Number of landmarks in the primary model.
        landmarks: u64,
    },
    /// Answers to a `SelectBatch`, in request order.
    Selections {
        /// One selection per requested vector.
        selections: Vec<Selection>,
    },
    /// Counter snapshot.
    StatsReply {
        /// The daemon's counters.
        stats: DaemonStats,
    },
    /// Observability snapshot, answering [`Request::Metrics`].
    MetricsReply {
        /// The daemon-wide metrics snapshot.
        metrics: MetricsSnapshot,
    },
    /// Shadow staged.
    Loaded {
        /// Benchmark the staged artifact was trained for.
        benchmark: String,
        /// Rollout revision of the staged artifact.
        revision: u64,
    },
    /// Shadow promoted to primary.
    Promoted {
        /// Rollout revision now serving.
        revision: u64,
    },
    /// Shutdown acknowledged; the daemon exits after this frame.
    ShuttingDown,
    /// The request failed; the connection stays usable.
    Error {
        /// Human-readable failure detail.
        detail: String,
    },
}

/// Mirrored-agreement record for one primary landmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LandmarkAgreement {
    /// Landmark index in the primary model.
    pub landmark: u64,
    /// Mirrored selections the primary routed to this landmark.
    pub mirrored: u64,
    /// How many of those the shadow agreed on.
    pub agreed: u64,
}

/// Counters of a staged shadow model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShadowStats {
    /// Rollout revision of the staged artifact.
    pub revision: u64,
    /// Selections mirrored to the shadow so far (one per vector; a
    /// `SelectBatch` frame of B vectors mirrors B selections).
    pub mirrored: u64,
    /// Mirrored selections where the shadow chose the primary's landmark.
    pub agreed: u64,
    /// `agreed / mirrored` (0 when nothing mirrored yet).
    pub agreement_rate: f64,
    /// Per-primary-landmark agreement breakdown.
    pub per_landmark: Vec<LandmarkAgreement>,
    /// The shadow's own drift-monitor counters over the mirrored stream.
    pub drift: ServeStats,
}

/// Counter snapshot of one tenant, plus the daemon-wide counters
/// (`connections`, `tenants`). `Stats` is routed per tenant: the reply
/// describes the tenant the requesting connection is bound to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DaemonStats {
    /// `Benchmark::name()` of the served model.
    pub benchmark: String,
    /// Rollout revision of the primary artifact.
    pub revision: u64,
    /// Primary serving counters (requests, probes, OOD, fallbacks).
    pub primary: ServeStats,
    /// The staged shadow's counters, if one is staged.
    pub shadow: Option<ShadowStats>,
    /// Shadows auto-rejected by the drift monitor since startup.
    pub shadow_rejections: u64,
    /// Shadows promoted to primary since startup.
    pub promotions: u64,
    /// Connections accepted since startup.
    pub connections: u64,
    /// Selections durably appended to this tenant's request journal
    /// since startup (0 when the tenant runs without a journal).
    pub journaled: u64,
    /// Selections the request journal **dropped** (encode failure or a
    /// failed write) since startup — nonzero means the journal misses
    /// served traffic (0 without a journal).
    pub journal_dropped: u64,
    /// Request frames captured into this tenant's wire recording since
    /// startup (0 when the tenant runs without a recorder).
    pub recorded: u64,
    /// Request frames the wire recorder **dropped** (encode failure or a
    /// torn sink) since startup — nonzero means the recording is not a
    /// faithful transcript (0 without a recorder).
    pub recorded_dropped: u64,
    /// Benchmarks registered in the daemon's artifact registry.
    pub tenants: u64,
    /// This tenant's end-to-end request latency (full frame service
    /// time, decode through reply queueing), as percentiles over the
    /// daemon's log-bucketed histogram.
    pub latency: LatencySummary,
}

/// Event-loop stage timings: where a request frame's wall time goes.
/// Each stage is a [`LatencySummary`] over the daemon-wide histogram for
/// that stage (stages are per-loop, not per-tenant — the loop is shared).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct StageTimings {
    /// Frame decode: checksum + payload parse into a [`Request`].
    pub decode: LatencySummary,
    /// Request handling: selection (or lifecycle work) producing the
    /// reply message. It holds the two stages below.
    pub select: LatencySummary,
    /// Inside `select`: the request-log taps, the recorder's capture of
    /// the frame plus the journal's append of its selections (frames of
    /// tenants with neither log are not counted).
    pub log_append: LatencySummary,
    /// Inside `select`: mirroring the batch to the staged shadow (frames
    /// of tenants without a shadow are not counted).
    pub mirror: LatencySummary,
    /// Reply encode: message serialization + frame assembly.
    pub encode: LatencySummary,
    /// Queued write: draining the connection's outbox to the socket.
    pub queued_write: LatencySummary,
}

/// A latency exemplar: one concrete traced request standing in for an
/// aggregate — the link from a histogram reading to a trace an operator
/// can pull up with `intune_trace --trace-id`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyExemplar {
    /// Trace id of the sampled request.
    pub trace_id: u64,
    /// Its latency reading, nanoseconds (bucket upper bound clamped to
    /// the histogram max).
    pub value_ns: u64,
}

/// One tenant's slice of the [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantMetrics {
    /// `Benchmark::name()` — the tenant key.
    pub benchmark: String,
    /// Rollout revision of the tenant's current primary.
    pub revision: u64,
    /// Selection request frames served for this tenant.
    pub requests: u64,
    /// Individual selections answered (a batch of B counts B).
    pub selections: u64,
    /// End-to-end request latency percentiles for this tenant.
    pub latency: LatencySummary,
    /// Shadows promoted to primary since startup.
    pub promotions: u64,
    /// Shadows auto-rejected by the drift monitor since startup.
    pub shadow_rejections: u64,
    /// The slowest sampled request since startup, when tracing sampled
    /// one (elided when `None`, so pre-tracing peers interop).
    pub exemplar: Option<LatencyExemplar>,
    /// Selections the request journal dropped since startup (0 without
    /// a journal), as in [`DaemonStats::journal_dropped`].
    pub journal_dropped: u64,
    /// Request frames the wire recorder dropped since startup (0 without
    /// a recorder), as in [`DaemonStats::recorded_dropped`].
    pub recorded_dropped: u64,
}

/// The daemon-wide observability snapshot: what [`Request::Metrics`]
/// returns and what the `--metrics` HTTP listener renders as Prometheus
/// text.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Event-loop stage timings, daemon-wide.
    pub stages: StageTimings,
    /// Per-tenant counters and latency, in registration order.
    pub tenants: Vec<TenantMetrics>,
    /// Connections accepted since startup (wire connections; metrics
    /// scrapes are not counted).
    pub connections: u64,
    /// Lifecycle events durably appended to the event log (0 without
    /// `--events`).
    pub events_appended: u64,
    /// Lifecycle events dropped on encode/write failure (0 without
    /// `--events`).
    pub events_dropped: u64,
    /// Spans the span log dropped on encode/write failure (0 without
    /// `--spans`).
    pub spans_dropped: u64,
}

/// Encodes a message into its frame payload (compact JSON).
pub fn encode_message<T: Serialize>(message: &T) -> String {
    serde_json::to_string(message).expect("message serialization is infallible")
}

/// Encodes a `SelectBatch` frame payload directly from a borrowed vector
/// slice — byte-identical to
/// `encode_message(&Request::SelectBatch { features: features.to_vec() })`
/// without cloning the batch first (the client's hot path; a unit test
/// pins the equivalence against the derive's external tagging).
pub fn encode_select_batch(features: &[FeatureVector]) -> String {
    let payload = serde_json::Value::Object(vec![(
        "SelectBatch".to_string(),
        serde_json::Value::Object(vec![(
            "features".to_string(),
            serde::Serialize::to_value(&features),
        )]),
    )]);
    serde_json::to_string(&payload).expect("value printing is infallible")
}

/// [`encode_select_batch`] carrying a trace context — the sampled-path
/// variant, still borrowing the vector slice. Byte-identical to the
/// derive encoding of `Request::SelectBatch { features, trace: Some(..) }`
/// (pinned by a unit test). The daemon's fast-path scanner does not
/// recognize this shape and falls back to the generic parser: sampled
/// requests pay the generic decode, untraced traffic never does.
pub fn encode_select_batch_with_trace(
    features: &[FeatureVector],
    trace: &intune_core::TraceContext,
) -> String {
    let payload = serde_json::Value::Object(vec![(
        "SelectBatch".to_string(),
        serde_json::Value::Object(vec![
            (
                "features".to_string(),
                serde::Serialize::to_value(&features),
            ),
            ("trace".to_string(), serde::Serialize::to_value(trace)),
        ]),
    )]);
    serde_json::to_string(&payload).expect("value printing is infallible")
}

/// Decodes a frame payload into a message.
///
/// # Errors
/// Returns [`Error::Wire`] on a payload-shape failure.
pub fn decode_message<T: Deserialize>(text: &str) -> Result<T> {
    serde_json::from_str(text).map_err(|e| Error::wire(format!("bad frame payload: {e}")))
}

/// Decodes a `SelectBatch` payload on the serving hot path without
/// materializing the generic `serde_json::Value` tree the derive-based
/// route builds (one tree node plus one conversion per slot — the
/// dominant per-request cost at high connection counts).
///
/// The scanner accepts exactly the canonical compact encoding that
/// [`encode_select_batch`] and the derive emit — field order, no
/// whitespace, finite floats. `None` means "not that shape" (a different
/// message, whitespace, a non-finite float spelled as a string, a
/// hand-written client): callers **must** fall back to
/// [`decode_message`], so coverage here is an optimization, never a
/// compatibility statement. Numbers go through the generic parser's own
/// number reader ([`serde_json::number_prefix`]), so both routes yield
/// bit-identical vectors because they share the code (a unit test pins
/// this).
pub fn decode_select_batch(payload: &str) -> Option<Vec<FeatureVector>> {
    let mut scan = Scan::new(payload);
    scan.tag(b"{\"SelectBatch\":{\"features\":[")?;
    let features = scan.items(Scan::vector)?;
    scan.tag(b"}}")?;
    scan.end().then_some(features)
}

/// A selection request as the daemon serves it: a `SelectBatch`, or a
/// `SelectBatchTraced` with each payload as its canonical JSON print
/// (`null` = no payload).
#[derive(Debug, Clone, PartialEq)]
pub struct Batch<'a> {
    /// The vectors to select for.
    pub features: Vec<FeatureVector>,
    /// One printed payload per vector, or none at all: borrowed from a
    /// canonical frame, printed once from any other.
    pub payloads: Vec<Cow<'a, str>>,
    /// The request's trace context, if it carried one.
    pub trace: Option<TraceContext>,
}

/// Decodes a `SelectBatchTraced` payload the way [`decode_select_batch`]
/// decodes a `SelectBatch`: the canonical encoding only (the derive's,
/// with or without a trace), the vectors read by the same scanner, and
/// each payload kept as its text, borrowed, once
/// [`serde_json::canonical_prefix`] has confirmed it is exactly what
/// printing its parse gives. The logs store that text as they would have
/// stored the print. `None` for anything else (a payload with whitespace
/// or a `1.50` in it, say), and callers **must** fall back to
/// [`decode_message`]. A batch this accepts is the one the parser reads
/// (the wire fuzzer pins this).
pub fn decode_select_batch_traced(payload: &str) -> Option<Batch<'_>> {
    let mut scan = Scan::new(payload);
    scan.tag(b"{\"SelectBatchTraced\":{\"features\":[")?;
    let features = scan.items(Scan::vector)?;
    scan.tag(b",\"payloads\":[")?;
    let payloads = scan.items(|s| {
        // A payload sits three containers deep in the frame.
        let text = serde_json::canonical_prefix(&s.text[s.at..], 3)?;
        s.at += text.len();
        Some(Cow::Borrowed(text))
    })?;
    let trace = match scan.tag(b",\"trace\":") {
        Some(()) => Some(scan.trace()?),
        None => None,
    };
    scan.tag(b"}}")?;
    scan.end().then_some(Batch {
        features,
        payloads,
        trace,
    })
}

/// A request frame as the daemon dispatches it: every selection request
/// as a [`Batch`], anything else as the [`Request`] itself.
pub(crate) enum Decoded<'a> {
    Batch(Batch<'a>),
    Other(Request),
}

/// Decodes a request frame payload: a canonical selection request by the
/// fast paths, anything else by [`decode_message`], with each payload of
/// a `SelectBatchTraced` printed once.
pub(crate) fn decode_request(payload: &str) -> Result<Decoded<'_>> {
    if let Some(features) = decode_select_batch(payload) {
        return Ok(Decoded::Batch(Batch {
            features,
            payloads: Vec::new(),
            trace: None,
        }));
    }
    if let Some(batch) = decode_select_batch_traced(payload) {
        return Ok(Decoded::Batch(batch));
    }
    Ok(match decode_message::<Request>(payload)? {
        Request::SelectBatch { features, trace } => Decoded::Batch(Batch {
            features,
            payloads: Vec::new(),
            trace,
        }),
        Request::SelectBatchTraced {
            features,
            payloads,
            trace,
        } => Decoded::Batch(Batch {
            features,
            payloads: print_payloads(&payloads)
                .into_iter()
                .map(Cow::Owned)
                .collect(),
            trace,
        }),
        other => Decoded::Other(other),
    })
}

/// Byte cursor for the fast paths' strict scans.
struct Scan<'a> {
    text: &'a str,
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Scan<'a> {
    fn new(text: &'a str) -> Self {
        Scan {
            text,
            bytes: text.as_bytes(),
            at: 0,
        }
    }

    /// Whether the whole text has been read.
    fn end(&self) -> bool {
        self.at == self.bytes.len()
    }

    fn tag(&mut self, expected: &[u8]) -> Option<()> {
        if self.bytes[self.at..].starts_with(expected) {
            self.at += expected.len();
            Some(())
        } else {
            None
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        if self.bytes.get(self.at) == Some(&byte) {
            self.at += 1;
            true
        } else {
            false
        }
    }

    /// The items of a list whose `[` has been read, through its `]`.
    fn items<T>(&mut self, mut item: impl FnMut(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        let mut items = Vec::new();
        if !self.eat(b']') {
            loop {
                items.push(item(self)?);
                if !self.eat(b',') {
                    break;
                }
            }
            self.tag(b"]")?;
        }
        Some(items)
    }

    /// One JSON number, read by the parser's own number reader
    /// ([`serde_json::number_prefix`]) and converted as the derive
    /// converts it: an integer through `i64`/`u64`, so `-0` is `0.0` on
    /// both routes. A literal the parser refuses, one past `f64::MAX`
    /// among them, is refused here too.
    fn number(&mut self) -> Option<f64> {
        self.literal()?.as_f64()
    }

    /// A non-negative JSON integer, as the derive reads it.
    fn integer<T: TryFrom<u64>>(&mut self) -> Option<T> {
        T::try_from(self.literal()?.as_u64()?).ok()
    }

    fn literal(&mut self) -> Option<serde_json::Value> {
        let (value, len) = serde_json::number_prefix(&self.text[self.at..])?;
        self.at += len;
        Some(value)
    }

    fn vector(&mut self) -> Option<FeatureVector> {
        self.tag(b"{\"slots\":[")?;
        let slots = self.items(|s| {
            if s.tag(b"null").is_some() {
                return Some(None);
            }
            s.tag(b"{\"value\":")?;
            let value = s.number()?;
            s.tag(b",\"cost\":")?;
            let cost = s.number()?;
            s.tag(b"}")?;
            Some(Some(intune_core::FeatureSample { value, cost }))
        })?;
        self.tag(b",\"offsets\":[")?;
        let offsets = self.items(Scan::integer)?;
        self.tag(b"}")?;
        Some(FeatureVector::from_wire_parts(slots, offsets))
    }

    /// A trace context, in the derive's field order.
    fn trace(&mut self) -> Option<TraceContext> {
        self.tag(b"{\"trace_id\":")?;
        let trace_id = self.integer()?;
        self.tag(b",\"parent_span\":")?;
        let parent_span = self.integer()?;
        self.tag(b",\"sampled\":")?;
        let sampled = match self.tag(b"true") {
            Some(()) => true,
            None => self.tag(b"false").map(|()| false)?,
        };
        self.tag(b"}")?;
        Some(TraceContext {
            trace_id,
            parent_span,
            sampled,
        })
    }
}

/// Assembles one frame (header + payload) as a single buffer, so writers
/// hand the transport one contiguous write instead of a header syscall
/// followed by a body syscall.
///
/// # Errors
/// Returns [`Error::Wire`] for an oversized payload.
pub fn encode_frame(payload: &str) -> Result<Vec<u8>> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME_BYTES {
        return Err(Error::wire(format!(
            "frame payload of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap",
            bytes.len()
        )));
    }
    let mut frame = Vec::with_capacity(HEADER_BYTES + bytes.len());
    frame.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    frame.push(WIRE_VERSION);
    frame.extend_from_slice(&codec::fnv1a64(bytes).to_be_bytes());
    frame.extend_from_slice(bytes);
    Ok(frame)
}

/// Writes one frame (one buffered write + flush).
///
/// # Errors
/// Returns [`Error::Wire`] on transport failure or an oversized payload.
pub fn write_frame<W: Write>(w: &mut W, payload: &str) -> Result<()> {
    let frame = encode_frame(payload)?;
    w.write_all(&frame)
        .and_then(|()| w.flush())
        .map_err(|e| Error::wire(format!("cannot write frame: {e}")))
}

/// Writes a message as one frame.
///
/// # Errors
/// Returns [`Error::Wire`] on transport failure.
pub fn send<W: Write, T: Serialize>(w: &mut W, message: &T) -> Result<()> {
    write_frame(w, &encode_message(message))
}

/// How one nonblocking [`FrameReader::fill`] call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fill {
    /// At least one byte was buffered.
    Bytes(usize),
    /// The transport has no bytes available right now
    /// (`ErrorKind::WouldBlock`); try again after the next readiness
    /// event.
    WouldBlock,
    /// The peer closed the stream. Whether that is a clean end or a
    /// truncation depends on [`FrameReader::pending_bytes`].
    Closed,
}

/// Floor of one [`FrameReader::fill`] read when no frame header is
/// buffered yet: large enough to swallow a typical request (header +
/// small batch) in one syscall and to pick up pipelined frames, small
/// enough that an idle connection pins only this much.
const READ_FLOOR_BYTES: usize = 4 << 10;

/// A per-connection frame receiver owning a reusable payload buffer.
///
/// The buffer persists across frames (no per-frame allocation once it
/// has grown to the connection's working size) and decoded payloads are
/// borrowed straight out of it. Parsing is **incremental**: bytes arrive
/// via [`FrameReader::fill`] (blocking or nonblocking transports alike)
/// and complete frames are taken off the front with
/// [`FrameReader::pop_frame`] — the shape a readiness-driven event loop
/// needs, and what the blocking [`FrameReader::read_frame`] is built on.
/// While a payload arrives the buffer grows in [`READ_CHUNK_BYTES`]
/// steps, so memory tracks bytes *received*, not bytes *announced* — the
/// defense against a peer declaring a 64 MiB frame and then trickling or
/// abandoning it.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Cursor past the frames already popped; bytes at `start..` are the
    /// unconsumed tail. Reset to 0 by compaction at the top of every
    /// `fill`/`pop_frame`, so a popped payload stays borrowable until
    /// the next call.
    start: usize,
}

impl FrameReader {
    /// Creates a reader with an empty buffer.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Current capacity of the payload buffer — what this connection
    /// durably pins in memory between frames.
    pub fn buffer_capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Bytes buffered but not yet consumed as frames. Nonzero at
    /// end-of-stream means the peer died mid-frame.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Moves the unconsumed tail to the front so the buffer never grows
    /// by the bytes of already-popped frames. The tail is empty after a
    /// request/response exchange and tiny (one partial frame) under
    /// pipelining, so this is a cheap or no-op memmove.
    fn compact(&mut self) {
        if self.start == self.buf.len() {
            self.buf.clear();
        } else if self.start > 0 {
            self.buf.drain(..self.start);
        }
        self.start = 0;
    }

    /// Validates and reads the buffered header, if complete: announced
    /// payload length.
    ///
    /// # Errors
    /// [`Error::Wire`] for a foreign wire version or an announced length
    /// beyond [`MAX_FRAME_BYTES`] — both detectable (and fatal for the
    /// connection) before the payload arrives.
    fn header(&self) -> Result<Option<usize>> {
        if self.pending_bytes() < HEADER_BYTES {
            return Ok(None);
        }
        let h = &self.buf[self.start..self.start + HEADER_BYTES];
        if h[4] != WIRE_VERSION {
            return Err(Error::wire(format!(
                "peer speaks wire version {}, this daemon speaks {WIRE_VERSION}",
                h[4]
            )));
        }
        let len = u32::from_be_bytes(h[..4].try_into().expect("4 header bytes")) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(Error::wire(format!(
                "peer announced a {len}-byte frame, cap is {MAX_FRAME_BYTES}"
            )));
        }
        Ok(Some(len))
    }

    /// Whether a complete frame is buffered (validating the header on
    /// the way).
    ///
    /// # Errors
    /// Same as [`FrameReader::pop_frame`]'s header failures.
    fn frame_buffered(&self) -> Result<bool> {
        Ok(match self.header()? {
            None => false,
            Some(len) => self.pending_bytes() >= HEADER_BYTES + len,
        })
    }

    /// Takes one complete frame off the buffer, returning its payload
    /// borrowed from the internal buffer — or `Ok(None)` when no
    /// complete frame is buffered yet (call [`FrameReader::fill`] and
    /// retry). Callers drain frames in a loop: several pipelined frames
    /// buffered by one `fill` pop without further transport reads.
    ///
    /// # Errors
    /// Returns [`Error::Wire`] on a version or checksum mismatch, an
    /// oversized announced length, or a non-UTF-8 payload. The reader is
    /// left unusable mid-frame — framing state is untrusted after any
    /// error, and the connection should be dropped.
    pub fn pop_frame(&mut self) -> Result<Option<&str>> {
        self.compact();
        let Some(len) = self.header()? else {
            return Ok(None);
        };
        if self.pending_bytes() < HEADER_BYTES + len {
            return Ok(None);
        }
        let expected = u64::from_be_bytes(
            self.buf[5..HEADER_BYTES]
                .try_into()
                .expect("8 header bytes"),
        );
        let payload = &self.buf[HEADER_BYTES..HEADER_BYTES + len];
        if codec::fnv1a64(payload) != expected {
            return Err(Error::wire("frame checksum mismatch"));
        }
        self.start = HEADER_BYTES + len;
        std::str::from_utf8(payload)
            .map(Some)
            .map_err(|_| Error::wire("frame payload is not valid UTF-8"))
    }

    /// Reads once from `r` into the buffer. Works for blocking and
    /// nonblocking transports: `WouldBlock` is an outcome, not an error,
    /// and `Interrupted` is retried. Growth is incremental and capped —
    /// with a frame in flight the buffer extends toward that frame's
    /// end, at most one [`READ_CHUNK_BYTES`] boundary at a time;
    /// otherwise one `READ_FLOOR_BYTES` step.
    ///
    /// # Errors
    /// Returns [`Error::Wire`] for a buffered foreign version or
    /// oversized announcement (refused before more bytes are committed)
    /// or a transport failure.
    pub fn fill<R: Read>(&mut self, r: &mut R) -> Result<Fill> {
        self.compact();
        let end = self.buf.len();
        let target = match self.header()? {
            Some(len) if HEADER_BYTES + len > end => {
                // Mid-frame: grow toward the frame end, chunk-capped so
                // commitment tracks received bytes.
                (HEADER_BYTES + len).min((end / READ_CHUNK_BYTES + 1) * READ_CHUNK_BYTES)
            }
            // No (complete) header yet, or a whole frame already
            // buffered and unpopped: read a floor-sized step.
            _ => end + READ_FLOOR_BYTES,
        };
        self.buf.resize(target, 0);
        loop {
            match r.read(&mut self.buf[end..target]) {
                Ok(0) => {
                    self.buf.truncate(end);
                    return Ok(Fill::Closed);
                }
                Ok(n) => {
                    self.buf.truncate(end + n);
                    return Ok(Fill::Bytes(n));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.buf.truncate(end);
                    return Ok(Fill::WouldBlock);
                }
                Err(e) => {
                    self.buf.truncate(end);
                    return Err(Error::wire(format!("cannot read frame: {e}")));
                }
            }
        }
    }

    /// Reads one frame, returning its payload borrowed from the internal
    /// buffer. `Ok(None)` is a clean end-of-stream (the peer closed
    /// between frames).
    ///
    /// # Errors
    /// Returns [`Error::Wire`] on transport failure, a truncated header
    /// or payload, a version or checksum mismatch, an oversized announced
    /// length, or a non-UTF-8 payload.
    pub fn read_frame<'a, R: Read>(&'a mut self, r: &mut R) -> Result<Option<&'a str>> {
        while !self.frame_buffered()? {
            match self.fill(r)? {
                Fill::Bytes(_) => {}
                Fill::WouldBlock => {
                    // A blocking transport only lands here via a read
                    // timeout — a transport failure to this blocking API.
                    return Err(Error::wire("cannot read frame: transport would block"));
                }
                Fill::Closed => {
                    return match self.pending_bytes() {
                        0 => Ok(None),
                        n if n < HEADER_BYTES => Err(Error::wire("connection closed mid-header")),
                        _ => Err(Error::wire("connection closed mid-frame")),
                    };
                }
            }
        }
        self.pop_frame()
    }

    /// Reads one message; `Ok(None)` is a clean end-of-stream.
    ///
    /// # Errors
    /// Returns [`Error::Wire`] on transport, header, or payload failure.
    pub fn recv<R: Read, T: Deserialize>(&mut self, r: &mut R) -> Result<Option<T>> {
        match self.read_frame(r)? {
            None => Ok(None),
            Some(payload) => decode_message(payload).map(Some),
        }
    }
}

/// One-shot [`FrameReader::recv`] for callers without a persistent
/// connection (tests, single-frame probes). Hot paths should hold a
/// `FrameReader` to reuse its buffer.
///
/// # Errors
/// Returns [`Error::Wire`] on transport, header, or payload failure.
pub fn recv<R: Read, T: Deserialize>(r: &mut R) -> Result<Option<T>> {
    // Exact reads, never past this frame's end: the stream may carry
    // further frames belonging to a later call, and this reader's
    // buffer dies with it. The header is read byte-exactly; once it is
    // buffered, `fill` bounds itself to the announced frame end.
    let mut header = [0u8; HEADER_BYTES];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(Error::wire("connection closed mid-header")),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(Error::wire(format!("cannot read frame: {e}"))),
        }
    }
    let mut reader = FrameReader::new();
    reader.buf.extend_from_slice(&header);
    let len = reader.header()?.unwrap_or(0);
    while reader.pending_bytes() < HEADER_BYTES + len {
        match reader.fill(r)? {
            Fill::Bytes(_) => {}
            Fill::WouldBlock => {
                return Err(Error::wire("cannot read frame: transport would block"))
            }
            Fill::Closed => return Err(Error::wire("connection closed mid-frame")),
        }
    }
    match reader.pop_frame()? {
        Some(payload) => decode_message(payload).map(Some),
        None => Err(Error::wire("connection closed mid-frame")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intune_core::{FeatureDef, FeatureId, FeatureSample};

    fn vector() -> FeatureVector {
        let defs = [FeatureDef::new("a", 2), FeatureDef::new("b", 1)];
        let mut fv = FeatureVector::empty(&defs);
        for (p, def) in defs.iter().enumerate() {
            for level in 0..def.levels {
                fv.insert(
                    FeatureId { property: p, level },
                    FeatureSample::new(0.25 + p as f64, 1.5 * (level + 1) as f64),
                )
                .unwrap();
            }
        }
        fv
    }

    #[test]
    fn requests_round_trip_through_frames() {
        let requests = vec![
            Request::Hello {
                client: "test".into(),
                benchmark: "sort2".into(),
            },
            Request::SelectBatch {
                features: vec![vector(), vector()],
                trace: None,
            },
            Request::SelectBatch {
                features: vec![vector()],
                trace: Some(intune_core::TraceContext {
                    trace_id: 0xfeed_face,
                    parent_span: 17,
                    sampled: true,
                }),
            },
            Request::SelectBatchTraced {
                features: vec![vector(), vector()],
                payloads: vec![
                    serde_json::Value::Array(vec![serde_json::Value::Float(0.1 + 0.2)]),
                    serde_json::Value::Null,
                ],
                trace: None,
            },
            Request::SelectBatchTraced {
                features: vec![vector()],
                payloads: vec![serde_json::Value::Bool(true)],
                trace: Some(intune_core::TraceContext {
                    trace_id: 1,
                    parent_span: 0,
                    sampled: false,
                }),
            },
            Request::Stats,
            Request::LoadArtifact {
                document: "{\"not\": \"checked here\"}".into(),
            },
            Request::Promote,
            Request::InjectPanic,
            Request::Shutdown,
        ];
        let mut buf = Vec::new();
        for r in &requests {
            send(&mut buf, r).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        let mut reader = FrameReader::new();
        for expect in &requests {
            let got: Request = reader.recv(&mut cursor).unwrap().expect("a frame");
            assert_eq!(&got, expect);
        }
        assert_eq!(
            reader.recv::<_, Request>(&mut cursor).unwrap(),
            None,
            "clean EOF"
        );
    }

    #[test]
    fn responses_round_trip_including_float_bit_patterns() {
        let responses = vec![
            Response::HelloAck {
                server: "intune-daemon".into(),
                benchmark: "sort2".into(),
                revision: 3,
                artifact_version: 2,
                landmarks: 8,
            },
            Response::Selections {
                selections: vec![Selection {
                    landmark: 5,
                    extraction_cost: 0.1 + 0.2, // a classic non-exact float
                    out_of_distribution: true,
                    fell_back: false,
                }],
            },
            Response::ShuttingDown,
            Response::Error {
                detail: "nope".into(),
            },
        ];
        let mut buf = Vec::new();
        for r in &responses {
            send(&mut buf, r).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for expect in &responses {
            let got: Response = recv(&mut cursor).unwrap().expect("a frame");
            assert_eq!(&got, expect);
            if let (
                Response::Selections { selections: a },
                Response::Selections { selections: b },
            ) = (&got, expect)
            {
                assert_eq!(
                    a[0].extraction_cost.to_bits(),
                    b[0].extraction_cost.to_bits(),
                    "floats cross the wire bit-exactly"
                );
            }
        }
    }

    #[test]
    fn borrowed_select_batch_encoding_matches_the_derived_one() {
        let features = vec![vector(), vector()];
        assert_eq!(
            encode_select_batch(&features),
            encode_message(&Request::SelectBatch {
                features: features.clone(),
                trace: None,
            }),
            "hand-tagged encoding must track the derive's external tagging \
             (an absent trace context encodes nothing)"
        );
        let trace = intune_core::TraceContext {
            trace_id: 0xabcd,
            parent_span: 3,
            sampled: true,
        };
        assert_eq!(
            encode_select_batch_with_trace(&features, &trace),
            encode_message(&Request::SelectBatch {
                features,
                trace: Some(trace),
            }),
            "traced hand-tagged encoding must track the derive too"
        );
    }

    #[test]
    fn traced_batches_keep_canonical_payload_text_and_print_any_other_once() {
        use serde_json::Value;
        let payloads = vec![
            Value::Array(vec![
                Value::Float(0.1 + 0.2),
                Value::Int(-3),
                Value::Float(2.0),
            ]),
            Value::Null,
            Value::Object(vec![("k\u{1}".into(), Value::String("a/\"é".into()))]),
        ];
        let printed: Vec<String> = payloads
            .iter()
            .map(|p| serde_json::to_string(p).unwrap())
            .collect();
        let trace = intune_core::TraceContext {
            trace_id: u64::MAX,
            parent_span: 0,
            sampled: false,
        };
        for trace in [None, Some(trace)] {
            let request = Request::SelectBatchTraced {
                features: vec![vector(), vector(), vector()],
                payloads: payloads.clone(),
                trace,
            };
            let canonical = encode_message(&request);
            let batch = decode_select_batch_traced(&canonical).expect("canonical frame");
            assert_eq!(batch.features, vec![vector(), vector(), vector()]);
            assert_eq!(batch.trace, trace);
            assert_eq!(batch.payloads, printed);
            assert!(batch.payloads.iter().all(|p| matches!(p, Cow::Borrowed(_))));
            // The same request spelled otherwise takes the parser, and
            // its payloads are printed to the same text.
            for other in [
                canonical.replacen("[0.30000000000000004,", "[ 0.30000000000000004,", 1),
                canonical.replacen(",2.0]", ",2.00]", 1),
                canonical.replacen(",2.0]", ",2e0]", 1),
                canonical.replacen("a/", "a\\/", 1),
                canonical.replacen("{\"slots\"", " {\"slots\"", 1),
            ] {
                assert_ne!(other, canonical);
                assert_eq!(decode_select_batch_traced(&other), None, "{other}");
                let Ok(Decoded::Batch(slow)) = decode_request(&other) else {
                    panic!("not a batch: {other}");
                };
                assert_eq!(slow, batch, "{other}");
            }
        }
        // Payload nesting counts the frame's own three containers: the
        // fast path refuses exactly where the parser does.
        let nested = |depth: usize| {
            let payload = "[".repeat(depth) + &"]".repeat(depth);
            format!("{{\"SelectBatchTraced\":{{\"features\":[],\"payloads\":[{payload}]}}}}")
        };
        assert!(decode_select_batch_traced(&nested(126)).is_some());
        assert!(decode_message::<Request>(&nested(126)).is_ok());
        assert!(decode_select_batch_traced(&nested(127)).is_none());
        assert!(decode_message::<Request>(&nested(127)).is_err());
    }

    #[test]
    fn fast_select_batch_decode_matches_the_generic_parser() {
        let defs = [FeatureDef::new("a", 2), FeatureDef::new("b", 1)];
        let mut tricky = FeatureVector::empty(&defs);
        // Awkward bit patterns plus a hole (slot left `None`).
        tricky
            .insert(
                FeatureId {
                    property: 0,
                    level: 0,
                },
                FeatureSample::new(-0.0, f64::MIN_POSITIVE / 2.0),
            )
            .unwrap();
        tricky
            .insert(
                FeatureId {
                    property: 1,
                    level: 0,
                },
                FeatureSample::new(0.1 + 0.2, f64::MAX),
            )
            .unwrap();
        // Spellings the printer never emits decode identically too:
        // integral text converts through `i64`/`u64` on both routes, so
        // `-0` is +0.0 on both.
        let canonical = encode_select_batch(&[vector()]);
        let spellings = ["-0", "7", "18446744073709551616", "1e300", "2.5E-3"];
        let payloads = [
            encode_select_batch(&[]),
            encode_select_batch(&[FeatureVector::empty(&[])]),
            encode_select_batch(&[vector(), tricky, vector()]),
        ]
        .into_iter()
        .chain(spellings.map(|spelling| canonical.replace("3.0", spelling)));
        for payload in payloads {
            let fast = decode_select_batch(&payload).expect("canonical payload");
            let Request::SelectBatch {
                features: generic,
                trace: None,
            } = decode_message(&payload).unwrap()
            else {
                panic!("generic parse must see an untraced SelectBatch")
            };
            // `Debug` prints each float's shortest round-trip form: equal
            // text means equal bits (`PartialEq` treats -0.0 == 0.0).
            assert_eq!(format!("{fast:?}"), format!("{generic:?}"), "{payload}");
        }
    }

    #[test]
    fn fast_select_batch_decode_refuses_non_canonical_payloads() {
        let canonical = encode_select_batch(&[vector()]);
        let traced =
            encode_select_batch_with_trace(&[vector()], &intune_core::TraceContext::root(7));
        for payload in [
            "\"Stats\"".to_string(),
            "{\"Promote\":null}".to_string(),
            traced,                  // trace field: sampled requests take the generic route
            format!(" {canonical}"), // leading whitespace
            format!("{canonical} "), // trailing bytes
            canonical.replace(":[", ": ["), // inner whitespace
            canonical.replace("\"slots\"", "\"stols\""), // foreign key
            canonical.replace("1.5", "\"NaN\""), // stringified float
            canonical[..canonical.len() - 1].to_string(), // truncated
            // Numbers `str::parse` takes but JSON does not:
            canonical.replace(":0.25", ":.25"),   // bare fraction
            canonical.replace(":1.5", ":+1.5"),   // explicit plus
            canonical.replace("3.0", "3."),       // dangling point
            canonical.replace("3.0", "3e"),       // dangling exponent
            canonical.replace("3.0", "03.0"),     // leading zero
            canonical.replace("[0,2]", "[0,02]"), // leading-zero offset
        ] {
            assert!(
                decode_select_batch(&payload).is_none(),
                "fast path must refuse {payload:?} and defer to the parser"
            );
        }
        // A literal past f64::MAX: the fast path defers, and the parser
        // types the error.
        for spelling in ["1e400", "-1e309", "1.7976931348623159e308"] {
            let payload = canonical.replace("3.0", spelling);
            assert!(decode_select_batch(&payload).is_none(), "{payload}");
            let err = decode_message::<Request>(&payload).unwrap_err();
            assert!(err.to_string().contains("number out of range"), "{err}");
        }
        // ... and the generic route still understands the whitespace one.
        let spaced = canonical.replace(":[", ": [");
        assert!(decode_message::<Request>(&spaced).is_ok());
    }

    #[test]
    fn corrupted_payloads_fail_the_checksum() {
        let mut buf = Vec::new();
        send(&mut buf, &Request::Stats).unwrap();
        // Flip a payload byte without touching the header checksum.
        let at = buf.len() - 2;
        buf[at] ^= 0x01;
        let mut cursor = std::io::Cursor::new(buf);
        let err = recv::<_, Request>(&mut cursor).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        assert!(matches!(err, Error::Wire { .. }), "{err:?}");
    }

    #[test]
    fn wrong_wire_version_is_a_typed_error() {
        let mut buf = Vec::new();
        send(&mut buf, &Request::Stats).unwrap();
        buf[4] = 1; // wire/1 speaker
        let err = recv::<_, Request>(&mut std::io::Cursor::new(buf)).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn truncated_and_oversized_frames_are_rejected() {
        let mut buf = Vec::new();
        send(&mut buf, &Request::Stats).unwrap();
        buf.truncate(buf.len() - 2);
        let mut cursor = std::io::Cursor::new(buf);
        let err = FrameReader::new().read_frame(&mut cursor).unwrap_err();
        assert!(err.to_string().contains("mid-frame"), "{err}");

        let mut huge = Vec::new();
        huge.extend_from_slice(&u32::MAX.to_be_bytes());
        huge.push(WIRE_VERSION);
        huge.extend_from_slice(&[0u8; 8]);
        let err = FrameReader::new()
            .read_frame(&mut std::io::Cursor::new(huge))
            .unwrap_err();
        assert!(err.to_string().contains("cap"), "{err}");

        // A partial header (slow-loris that died) is truncation, not
        // clean EOF.
        let err = FrameReader::new()
            .read_frame(&mut std::io::Cursor::new(vec![0u8, 0, 0, 9, WIRE_VERSION]))
            .unwrap_err();
        assert!(err.to_string().contains("mid-header"), "{err}");
    }

    #[test]
    fn huge_announced_length_does_not_preallocate() {
        // A peer announcing a cap-sized frame but shipping 10 bytes: the
        // reader must commit at most one growth chunk, not 64 MiB.
        let mut adversarial = Vec::new();
        adversarial.extend_from_slice(&(MAX_FRAME_BYTES as u32).to_be_bytes());
        adversarial.push(WIRE_VERSION);
        adversarial.extend_from_slice(&[0u8; 8]);
        adversarial.extend_from_slice(b"ten bytes.");
        let mut reader = FrameReader::new();
        let err = reader
            .read_frame(&mut std::io::Cursor::new(adversarial))
            .unwrap_err();
        assert!(err.to_string().contains("mid-frame"), "{err}");
        assert!(
            reader.buffer_capacity() <= READ_CHUNK_BYTES,
            "announced 64 MiB, received 10 bytes, but {} bytes committed",
            reader.buffer_capacity()
        );
    }

    #[test]
    fn reader_buffer_is_reused_across_frames() {
        let mut buf = Vec::new();
        let batch = Request::SelectBatch {
            features: vec![vector(); 16],
            trace: None,
        };
        send(&mut buf, &batch).unwrap();
        send(&mut buf, &batch).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let mut reader = FrameReader::new();
        assert!(reader.recv::<_, Request>(&mut cursor).unwrap().is_some());
        let after_first = reader.buffer_capacity();
        assert!(reader.recv::<_, Request>(&mut cursor).unwrap().is_some());
        assert_eq!(
            reader.buffer_capacity(),
            after_first,
            "second frame reuses the first frame's buffer"
        );
    }

    /// Serves one byte per read, with a `WouldBlock` between every pair
    /// of bytes — the worst case a nonblocking transport can present.
    struct Dribble {
        data: Vec<u8>,
        at: usize,
        ready: bool,
    }

    impl Read for Dribble {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            self.ready = false;
            if self.at == self.data.len() {
                return Ok(0);
            }
            out[0] = self.data[self.at];
            self.at += 1;
            Ok(1)
        }
    }

    #[test]
    fn fill_and_pop_reassemble_dribbled_nonblocking_frames() {
        let mut wire = Vec::new();
        send(&mut wire, &Request::Stats).unwrap();
        send(&mut wire, &Request::Promote).unwrap();
        let total = wire.len();
        let mut dribble = Dribble {
            data: wire,
            at: 0,
            ready: false,
        };
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        let mut blocked = 0;
        loop {
            while let Some(payload) = reader.pop_frame().unwrap() {
                got.push(decode_message::<Request>(payload).unwrap());
            }
            match reader.fill(&mut dribble).unwrap() {
                Fill::Bytes(n) => assert_eq!(n, 1, "dribble serves single bytes"),
                Fill::WouldBlock => blocked += 1,
                Fill::Closed => break,
            }
        }
        assert_eq!(got, vec![Request::Stats, Request::Promote]);
        assert_eq!(reader.pending_bytes(), 0, "clean EOF leaves nothing over");
        assert_eq!(blocked, total + 1, "every byte cost one WouldBlock");
    }

    #[test]
    fn one_fill_pops_several_pipelined_frames() {
        let mut wire = Vec::new();
        send(&mut wire, &Request::Stats).unwrap();
        send(&mut wire, &Request::Promote).unwrap();
        send(&mut wire, &Request::Shutdown).unwrap();
        assert!(wire.len() <= READ_FLOOR_BYTES, "fits one floor-sized read");
        let mut reader = FrameReader::new();
        let mut cursor = std::io::Cursor::new(wire);
        assert!(matches!(reader.fill(&mut cursor).unwrap(), Fill::Bytes(_)));
        let mut got = Vec::new();
        while let Some(payload) = reader.pop_frame().unwrap() {
            got.push(decode_message::<Request>(payload).unwrap());
        }
        assert_eq!(
            got,
            vec![Request::Stats, Request::Promote, Request::Shutdown],
            "pipelined frames pop without further transport reads"
        );
    }

    #[test]
    fn unknown_message_shapes_are_rejected() {
        let err = decode_message::<Request>("\"NotARealVariant\"").unwrap_err();
        assert!(matches!(err, Error::Wire { .. }), "{err:?}");

        let err = decode_message::<Request>("{ not json").unwrap_err();
        assert!(err.to_string().contains("payload"), "{err}");
    }
}
