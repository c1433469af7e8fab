//! The `intune-wire/3` protocol: binary-headed frames carrying compact
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
//! ([`WIRE_VERSION`]), and the checksum of the **raw payload bytes**. The
//! payload is the compact JSON of an externally-tagged message
//! ([`Request`] from clients, [`Response`] from the daemon):
//!
//! ```json
//! {"SelectBatch":{"features":[...]}}
//! ```
//!
//! Wire/1 wrapped every message in the pretty-printed `intune_core::codec`
//! document envelope, whose decode *re-serialized* the payload to verify
//! the checksum — four JSON passes per frame per direction. Wire/2
//! checksums the bytes as sent with FNV-1a 64 ([`codec::fnv1a64`]), so
//! each direction costs one serialization or one parse and one hash pass.
//! That pass is one dependent multiply per byte. Wire/3 keeps wire/2's
//! header and payloads and changes only the checksum, to the striped
//! [`codec::fnv1a64x4`]: four FNV-1a chains over the payload's quarters,
//! run in lockstep, about four times as fast.
//!
//! [`encode_frame`], [`write_frame`] and [`send`] write wire/3. A
//! [`FrameReader`] accepts wire/2 and wire/3 frames, each checked against
//! its own version's checksum, and refuses any other version with a typed
//! error. The daemon answers every frame in the version it arrived in,
//! so a wire/2 client gets the bytes it always got. A daemon from before
//! wire/3 refuses a wire/3 frame: upgrade daemons before clients.
//!
//! The daemon's selection path builds no JSON value tree in either
//! direction. [`decode_select_batch`] scans a canonical `SelectBatch`
//! payload and reads its numbers through the `serde_json` shim's typed
//! readers ([`serde_json::f64_prefix`], [`serde_json::u64_prefix`]), which
//! share the parser's lexer and converter but return the number itself. A
//! `Selections` reply is printed straight into the connection's output
//! buffer, its floats through the shim's float printer
//! ([`serde_json::push_float`]), and framed there over the printed bytes:
//! byte for byte the derive's encoding in the request's wire version.
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

/// Wire protocol version byte this build writes (`intune-wire/3`).
pub const WIRE_VERSION: u8 = 3;
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
    /// Socket reads: one nonblocking read of a connection's bytes into
    /// its frame reader each (the last one of a readiness event finds
    /// nothing). Reassembly's reads, outside `decode`.
    pub read: LatencySummary,
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
    /// Reply encode: printing the reply and its frame into the
    /// connection's output buffer.
    pub encode: LatencySummary,
    /// Queued write: one flush of the connection's output buffer, all of
    /// its unsent bytes in one `write` (more only after a partial write),
    /// so one count covers the replies to every frame a readiness event
    /// read.
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
/// lexer and converter by its typed readers ([`serde_json::f64_prefix`],
/// [`serde_json::u64_prefix`]), which return the number rather than a
/// `Value`, so both routes yield bit-identical vectors because they share
/// the code (a unit test pins this).
pub fn decode_select_batch(payload: &str) -> Option<Vec<FeatureVector>> {
    let mut scan = Scan::new(payload);
    scan.tag(b"{\"SelectBatch\":{\"features\":[")?;
    let features = scan.vectors()?;
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
    let features = scan.vectors()?;
    scan.tag(b",\"payloads\":[")?;
    let payloads = scan.items(0, |s| {
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

    /// Reads `expected` if the text goes on with it. A const-size tag
    /// compares as a few words, not byte by byte.
    #[inline]
    fn tag<const N: usize>(&mut self, expected: &[u8; N]) -> Option<()> {
        let at = self.at;
        (self.bytes.get(at..at + N)? == expected).then(|| self.at = at + N)
    }

    fn eat(&mut self, byte: u8) -> bool {
        if self.bytes.get(self.at) == Some(&byte) {
            self.at += 1;
            true
        } else {
            false
        }
    }

    /// The items of a list whose `[` has been read, through its `]`,
    /// room made for `expected` of them.
    #[inline]
    fn items<T>(
        &mut self,
        expected: usize,
        mut item: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        let mut items = Vec::with_capacity(expected);
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

    /// One JSON number, read as the derive reads an `f64`: by the
    /// parser's typed reader ([`serde_json::f64_prefix`]), an integer
    /// through `i64`/`u64`, so `-0` is `0.0` on both routes. A literal
    /// the parser refuses, one past `f64::MAX` among them, is refused
    /// here too.
    #[inline]
    fn number(&mut self) -> Option<f64> {
        let (f, len) = serde_json::f64_prefix(&self.text[self.at..])?;
        self.at += len;
        Some(f)
    }

    /// A non-negative JSON integer, as the derive reads it (`-0` is 0).
    #[inline]
    fn integer<T: TryFrom<u64>>(&mut self) -> Option<T> {
        let (u, len) = serde_json::u64_prefix(&self.text[self.at..])?;
        self.at += len;
        T::try_from(u).ok()
    }

    /// The vectors of a list whose `[` has been read, through its `]`.
    /// Vectors of one batch share a feature declaration, so each one's
    /// slots and offsets get the room the vector before it took.
    fn vectors(&mut self) -> Option<Vec<FeatureVector>> {
        let mut room = (0, 0);
        self.items(0, |s| s.vector(&mut room))
    }

    /// One vector, its lists sized by `room`, which it then updates.
    fn vector(&mut self, room: &mut (usize, usize)) -> Option<FeatureVector> {
        self.tag(b"{\"slots\":[")?;
        let slots = self.items(room.0, |s| {
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
        let offsets = self.items(room.1, Scan::integer)?;
        self.tag(b"}")?;
        *room = (slots.len(), offsets.len());
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

/// The checksum of `payload` in wire version `version`: [`codec::fnv1a64`]
/// in wire/2, [`codec::fnv1a64x4`] in wire/3, `None` in any other.
fn frame_checksum(version: u8, payload: &[u8]) -> Option<u64> {
    match version {
        2 => Some(codec::fnv1a64(payload)),
        3 => Some(codec::fnv1a64x4(payload)),
        _ => None,
    }
}

/// Assembles one wire/3 frame (header + payload) as a single buffer, so
/// writers hand the transport one contiguous write instead of a header
/// syscall followed by a body syscall.
///
/// # Errors
/// Returns [`Error::Wire`] for an oversized payload.
pub fn encode_frame(payload: &str) -> Result<Vec<u8>> {
    encode_frame_in(WIRE_VERSION, payload)
}

/// [`encode_frame`] in wire version `version`, 2 or 3: what the daemon
/// answers a frame with, in the version the frame arrived in.
///
/// # Errors
/// Returns [`Error::Wire`] for an oversized payload or a version this
/// build does not speak.
pub(crate) fn encode_frame_in(version: u8, payload: &str) -> Result<Vec<u8>> {
    let mut frame = Vec::with_capacity(HEADER_BYTES + payload.len());
    frame_into(version, &mut frame, |out| {
        out.extend_from_slice(payload.as_bytes())
    })?;
    Ok(frame)
}

/// Appends one frame in wire version `version`, 2 or 3, to `out`: a
/// header, then the payload `print` appends after it, then the header
/// filled in with the payload's length and its version's checksum over
/// the bytes in place. On an error nothing is left appended.
///
/// # Errors
/// Returns [`Error::Wire`] for an oversized payload or a version this
/// build does not speak.
fn frame_into(version: u8, out: &mut Vec<u8>, print: impl FnOnce(&mut Vec<u8>)) -> Result<()> {
    if frame_checksum(version, &[]).is_none() {
        return Err(Error::wire(format!(
            "this build does not speak wire version {version}"
        )));
    }
    let start = out.len();
    out.extend_from_slice(&[0; HEADER_BYTES]);
    print(out);
    let len = out.len() - start - HEADER_BYTES;
    if len > MAX_FRAME_BYTES {
        out.truncate(start);
        return Err(Error::wire(format!(
            "frame payload of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }
    let (header, payload) = out[start..].split_at_mut(HEADER_BYTES);
    let checksum = frame_checksum(version, payload).expect("a version checked above");
    header[..4].copy_from_slice(&(len as u32).to_be_bytes());
    header[4] = version;
    header[5..].copy_from_slice(&checksum.to_be_bytes());
    Ok(())
}

/// Appends `response` to `out` as one frame in wire version `version`: a
/// `Selections` reply printed in place by [`print_selections`], any other
/// reply through [`encode_message`]. The bytes are those of
/// `encode_frame_in(version, &encode_message(response))`.
///
/// # Errors
/// As [`frame_into`]; nothing is left appended.
pub(crate) fn frame_response_into(
    version: u8,
    response: &Response,
    out: &mut Vec<u8>,
) -> Result<()> {
    match response {
        Response::Selections { selections } => {
            frame_into(version, out, |out| print_selections(selections, out))
        }
        other => frame_into(version, out, |out| {
            out.extend_from_slice(encode_message(other).as_bytes())
        }),
    }
}

/// Appends the payload of a `Selections` reply to `out`, byte-identical
/// to `encode_message(&Response::Selections { selections })`: the
/// derive's external tagging and field order, each `extraction_cost`
/// through the JSON printer's own float printer ([`serde_json::push_float`]:
/// shortest digits, `-0.0`, the non-finite names as strings). No `Value`
/// is built (a property test pins the equivalence).
fn print_selections(selections: &[Selection], out: &mut Vec<u8>) {
    out.reserve(32 + 96 * selections.len());
    out.extend_from_slice(b"{\"Selections\":{\"selections\":[");
    for (i, s) in selections.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        let _ = write!(out, "{{\"landmark\":{},\"extraction_cost\":", s.landmark);
        serde_json::push_float(s.extraction_cost, out);
        let _ = write!(
            out,
            ",\"out_of_distribution\":{},\"fell_back\":{}}}",
            s.out_of_distribution, s.fell_back
        );
    }
    out.extend_from_slice(b"]}}");
}

/// Writes one wire/3 frame (one buffered write + flush).
///
/// # Errors
/// Returns [`Error::Wire`] on transport failure or an oversized payload.
pub fn write_frame<W: Write>(w: &mut W, payload: &str) -> Result<()> {
    let frame = encode_frame(payload)?;
    w.write_all(&frame)
        .and_then(|()| w.flush())
        .map_err(|e| Error::wire(format!("cannot write frame: {e}")))
}

/// Writes a message as one wire/3 frame.
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
///
/// Frames of wire/2 and wire/3 are accepted, each checked against its own
/// version's checksum, and the reader remembers which version the frame
/// at hand is, so the daemon can answer in it.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Cursor past the frames already popped; bytes at `start..` are the
    /// unconsumed tail. Reset to 0 by compaction at the top of every
    /// `fill`/`pop_frame`, so a popped payload stays borrowable until
    /// the next call.
    start: usize,
    /// The version of the last frame header read.
    version: u8,
}

impl Default for FrameReader {
    fn default() -> Self {
        FrameReader {
            buf: Vec::new(),
            start: 0,
            version: WIRE_VERSION,
        }
    }
}

impl FrameReader {
    /// Creates a reader with an empty buffer.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// The wire version of the frame at hand: the frame last popped, or
    /// the frame whose header is buffered while its payload arrives;
    /// [`WIRE_VERSION`] before any header. The daemon answers a frame in
    /// this version, so it reads it before it takes the next frame.
    pub(crate) fn version(&self) -> u8 {
        self.version
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
    /// payload length. Its version becomes [`FrameReader::version`].
    ///
    /// # Errors
    /// [`Error::Wire`] for a foreign wire version or an announced length
    /// beyond [`MAX_FRAME_BYTES`] — both detectable (and fatal for the
    /// connection) before the payload arrives.
    fn header(&mut self) -> Result<Option<usize>> {
        if self.pending_bytes() < HEADER_BYTES {
            return Ok(None);
        }
        let h = &self.buf[self.start..self.start + HEADER_BYTES];
        if !matches!(h[4], 2 | 3) {
            return Err(Error::wire(format!(
                "peer speaks wire version {}, this build speaks 2 and {WIRE_VERSION}",
                h[4]
            )));
        }
        self.version = h[4];
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
    fn frame_buffered(&mut self) -> Result<bool> {
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
    /// Returns [`Error::Wire`] on a foreign version, a payload that fails
    /// its version's checksum, an oversized announced length, or a
    /// non-UTF-8 payload. The reader is left unusable mid-frame — framing
    /// state is untrusted after any error, and the connection should be
    /// dropped.
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
        if frame_checksum(self.version, payload) != Some(expected) {
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
        // `-0` is +0.0 on both (and an offset of `-0` is 0); significands
        // of 19 digits and more, cut where they run past 19; integers
        // past `i64` and `u64`; exponents; subnormals; `f64::MAX`.
        let canonical = encode_select_batch(&[vector()]);
        let spellings = [
            "-0",
            "-0.0",
            "7",
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775808",
            "-9223372036854775809",
            "18446744073709551615",
            "18446744073709551616",
            "1234567890123456789",
            "12345678901234567890123",
            "0.30000000000000000000000001",
            "2.2250738585072011e-308",
            "4.9e-324",
            "1.7976931348623157e308",
            "1e300",
            "1E+22",
            "2.5E-3",
            "-12.375e+7",
        ];
        let payloads = [
            encode_select_batch(&[]),
            encode_select_batch(&[FeatureVector::empty(&[])]),
            encode_select_batch(&[vector(), tricky, vector()]),
            canonical.replace("[0,2]", "[-0,2]"),
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
    fn vectors_of_other_shapes_in_one_batch_decode_as_the_parser_reads_them() {
        // Each vector's lists are sized from the one before it: a batch
        // whose vectors grow, shrink and empty out reads the same.
        let wide = |n: usize| {
            let defs: Vec<FeatureDef> = (0..n).map(|i| FeatureDef::new("p", 1 + i % 3)).collect();
            FeatureVector::empty(&defs)
        };
        let batch = vec![
            wide(1),
            vector(),
            wide(9),
            FeatureVector::empty(&[]),
            wide(2),
        ];
        let payload = encode_select_batch(&batch);
        assert_eq!(decode_select_batch(&payload), Some(batch));
    }

    /// A selection's `extraction_cost` from the floats where printing
    /// goes wrong first: the non-finite values, signed zeros,
    /// subnormals, integers past 2^53 and around 2^63, `f64::MAX`, and
    /// arbitrary bit patterns.
    fn edge_cost(kind: usize, bits: u64) -> f64 {
        match kind {
            0 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][bits as usize % 3],
            1 => [0.0, -0.0][bits as usize % 2],
            2 => f64::from_bits(bits % (1 << 52)),
            3 => 9_007_199_254_740_992.0 + (bits % 4096) as f64 * 2.0,
            4 => [
                2f64.powi(63),
                2f64.powi(64),
                1e21,
                1e22,
                f64::MAX,
                f64::MIN_POSITIVE,
                5e-324,
            ][bits as usize % 7],
            5 => -f64::from_bits(bits >> 2),
            _ => f64::from_bits(bits),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// The `Selections` printer frames a reply byte for byte as the
        /// derive-encoded payload framed by `encode_frame_in` does, in
        /// either wire version, appended after bytes already buffered:
        /// landmarks up to `usize::MAX`, every edge of the float printer,
        /// both flags, up to 80 selections.
        #[test]
        fn selections_print_frames_as_the_derive(
            picks in proptest::collection::vec(
                (0usize..=8, 0u64..=u64::MAX, 0usize..8, 0u8..4),
                0..80,
            ),
        ) {
            let selections: Vec<Selection> = picks
                .iter()
                .map(|&(landmark, bits, kind, flags)| Selection {
                    landmark: match landmark {
                        0..=6 => [0, 1, 9, 10, 99, 65_536, usize::MAX][landmark],
                        _ => bits as usize,
                    },
                    extraction_cost: edge_cost(kind, bits),
                    out_of_distribution: flags & 1 == 1,
                    fell_back: flags & 2 == 2,
                })
                .collect();
            let response = Response::Selections { selections };
            let payload = encode_message(&response);
            for version in [2, 3] {
                let mut out = b"earlier frames".to_vec();
                frame_response_into(version, &response, &mut out).unwrap();
                let expected = encode_frame_in(version, &payload).unwrap();
                proptest::prop_assert_eq!(&out[..14], b"earlier frames");
                proptest::prop_assert_eq!(&out[14..], &expected[..], "{}", payload);
            }
        }
    }

    #[test]
    fn every_other_reply_frames_as_its_encoded_message() {
        for response in [
            Response::ShuttingDown,
            Response::Error {
                detail: "a \"quoted\" detail".into(),
            },
            Response::Promoted { revision: 7 },
            Response::Selections { selections: vec![] },
        ] {
            for version in [2, 3] {
                let mut out = Vec::new();
                frame_response_into(version, &response, &mut out).unwrap();
                assert_eq!(
                    out,
                    encode_frame_in(version, &encode_message(&response)).unwrap()
                );
            }
        }
        // A version this build does not speak leaves nothing behind.
        let mut out = b"kept".to_vec();
        let err = frame_response_into(4, &Response::ShuttingDown, &mut out).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        assert_eq!(out, b"kept");
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
        // A wire/1 speaker, and versions no build writes.
        for version in [0, 1, 4, u8::MAX] {
            let mut buf = Vec::new();
            send(&mut buf, &Request::Stats).unwrap();
            buf[4] = version;
            let err = recv::<_, Request>(&mut std::io::Cursor::new(buf)).unwrap_err();
            assert!(matches!(err, Error::Wire { .. }), "{err:?}");
            assert!(err.to_string().contains("version"), "{err}");
            let err = encode_frame_in(version, "\"Stats\"").unwrap_err();
            assert!(err.to_string().contains("version"), "{err}");
        }
    }

    #[test]
    fn wire_2_and_3_frames_pass_their_own_checksum_only() {
        let payload = encode_message(&Request::Stats);
        assert_eq!(
            encode_frame(&payload).unwrap(),
            encode_frame_in(3, &payload).unwrap()
        );
        // Wire/2 framing is the bytes it always was: FNV-1a 64 of the
        // payload, pinned here by an independent implementation.
        let mut wire2 = vec![0, 0, 0, 7, 2];
        wire2.extend_from_slice(&0x3a3c_6b83_0f15_2e8a_u64.to_be_bytes());
        wire2.extend_from_slice(b"\"Stats\"");
        assert_eq!(encode_frame_in(2, &payload).unwrap(), wire2);
        for version in [2, 3] {
            let frame = encode_frame_in(version, &payload).unwrap();
            assert_eq!(frame[4], version);
            let mut reader = FrameReader::new();
            let got = reader.read_frame(&mut std::io::Cursor::new(frame.clone()));
            assert_eq!(got.unwrap(), Some(payload.as_str()));
            assert_eq!(reader.version(), version);
            // The other version's byte over this version's checksum.
            let mut swapped = frame;
            swapped[4] = 5 - version;
            let mut reader = FrameReader::new();
            let err = reader
                .read_frame(&mut std::io::Cursor::new(swapped))
                .unwrap_err();
            assert!(matches!(err, Error::Wire { .. }), "{err:?}");
            assert!(err.to_string().contains("checksum mismatch"), "{err}");
            // The refusal is answered in the version the frame claimed.
            assert_eq!(reader.version(), 5 - version);
        }
    }

    #[test]
    fn the_reader_follows_the_version_of_each_frame() {
        let mut wire = Vec::new();
        for (version, request) in [
            (2, Request::Stats),
            (3, Request::Promote),
            (2, Request::Shutdown),
        ] {
            wire.extend(encode_frame_in(version, &encode_message(&request)).unwrap());
        }
        // Then a wire/3 header and one payload byte: the frame's version
        // shows once its header is buffered, before its payload arrives.
        let partial = encode_frame_in(3, &encode_message(&Request::Stats)).unwrap();
        wire.extend_from_slice(&partial[..HEADER_BYTES + 1]);
        let mut reader = FrameReader::new();
        assert_eq!(reader.version(), WIRE_VERSION, "before any header");
        let mut cursor = std::io::Cursor::new(wire);
        let mut seen = Vec::new();
        while let Fill::Bytes(_) = reader.fill(&mut cursor).unwrap() {
            while let Some(payload) = reader.pop_frame().unwrap() {
                let request = decode_message::<Request>(payload).unwrap();
                seen.push((reader.version(), request));
            }
        }
        assert_eq!(
            seen,
            vec![
                (2, Request::Stats),
                (3, Request::Promote),
                (2, Request::Shutdown)
            ]
        );
        assert_eq!(reader.pending_bytes(), HEADER_BYTES + 1);
        assert_eq!(reader.version(), 3, "the buffered header's version");
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// In either wire version, changing any one byte of the checksum
        /// or the payload, to any other value, gets the frame refused
        /// with the typed checksum error: payloads from a few bytes to
        /// 16 KiB, every checksum byte and a draw of payload bytes (the
        /// first and the last among them) changed in turn.
        #[test]
        fn every_single_byte_corruption_is_refused_in_both_versions(
            chars in proptest::collection::vec(0usize..6, 0..40),
            repeat in 1usize..400,
            picks in proptest::collection::vec((0usize..1 << 20, 1u8..=255), 1..32),
        ) {
            let text: String = chars.iter().map(|&c| [' ', 'a', '~', '"', 'é', '日'][c]).collect();
            let payload = encode_message(&Request::LoadArtifact { document: text.repeat(repeat) });
            let len = payload.len();
            let corruptions = (5..HEADER_BYTES)
                .map(|at| (at, picks[at % picks.len()].1))
                .chain([(HEADER_BYTES, 0x01), (HEADER_BYTES + len - 1, 0x80)])
                .chain(picks.iter().map(|&(at, flip)| (HEADER_BYTES + at % len, flip)));
            for (at, flip) in corruptions {
                for version in [2, 3] {
                    let mut bad = encode_frame_in(version, &payload).unwrap();
                    bad[at] ^= flip;
                    let err = FrameReader::new()
                        .read_frame(&mut std::io::Cursor::new(bad))
                        .unwrap_err();
                    proptest::prop_assert!(matches!(err, Error::Wire { .. }), "{:?}", err);
                    proptest::prop_assert!(
                        err.to_string().contains("checksum mismatch"),
                        "version {} byte {}: {}", version, at, err
                    );
                }
            }
        }
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
