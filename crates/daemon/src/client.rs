//! The blocking `intune-wire/3` client.
//!
//! One connection, one request in flight: every call sends a frame and
//! blocks for the matching response. Frames go out in wire/3, which a
//! daemon from before wire/3 refuses: upgrade daemons before clients. The connection keeps a persistent
//! [`protocol::FrameReader`], so response payloads land in one reusable
//! buffer instead of a fresh allocation per frame. The client implements
//! [`SelectionBackend`], so `table1 --daemon ADDR` can score a running
//! daemon in place of the in-process production classifier — and prove
//! the answers byte-identical.

use crate::protocol::{self, DaemonStats, MetricsSnapshot, Request, Response};
use intune_core::{Error, FeatureVector, Result, TraceContext};
use intune_learning::pipeline::SelectionBackend;
use intune_obs::{IdMinter, Sampler, Span, SpanLog};
use intune_serve::{ModelArtifact, Selection};
use std::io::{Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Address prefix selecting a Unix-domain socket connection
/// (`unix:/path/to.sock`); anything else is dialed as TCP `host:port`.
pub const UNIX_PREFIX: &str = "unix:";

enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// Facts the daemon reported in its `HelloAck`.
#[derive(Debug, Clone)]
pub struct ServerInfo {
    /// Server self-identification.
    pub server: String,
    /// `Benchmark::name()` of the served model.
    pub benchmark: String,
    /// Rollout revision of the primary artifact at connect time.
    pub revision: u64,
    /// Artifact schema version the daemon writes.
    pub artifact_version: u32,
    /// Number of landmarks in the primary model at connect time.
    pub landmarks: u64,
}

/// One connection's I/O state: the stream plus its persistent frame
/// reader (reused response buffer).
struct Io {
    conn: Conn,
    reader: protocol::FrameReader,
}

/// A blocking daemon connection. All methods take `&self` (the stream
/// sits behind a mutex), so one client can be shared across the eval
/// harness's call sites. The mutex recovers from poisoning — a panic in
/// one caller leaves a connection in an unknown framing state, which the
/// next request surfaces as a wire error rather than a cascading panic.
pub struct DaemonClient {
    io: Mutex<Io>,
    info: ServerInfo,
    tracing: Option<ClientTracing>,
}

/// Client-side head sampling: the sampler decides, the minter names, and
/// the span log receives the `client.select_batch` span that anchors the
/// cross-process trace tree.
struct ClientTracing {
    sampler: Sampler,
    minter: IdMinter,
    spans: Arc<SpanLog>,
}

impl ClientTracing {
    /// One sampling decision: `Some((context-to-send, client-span-id))`
    /// on a hit. The context is already parented on the client span, so
    /// the daemon's `server.request` nests under it.
    fn sample(&self) -> Option<(TraceContext, u64)> {
        if !self.sampler.decide() {
            return None;
        }
        let trace_id = self.minter.next();
        let span_id = self.minter.next();
        Some((TraceContext::root(trace_id).child_of(span_id), span_id))
    }
}

impl DaemonClient {
    /// Dials `addr` (TCP `host:port`, or `unix:/path` for a Unix-domain
    /// socket) and performs the `Hello` handshake against the daemon's
    /// sole tenant — the single-benchmark convenience over
    /// [`DaemonClient::connect_to`]. A multi-tenant daemon refuses the
    /// anonymous handshake with a typed error naming its benchmarks.
    ///
    /// # Errors
    /// Returns [`Error::Wire`] on connect/handshake failure.
    pub fn connect(addr: &str) -> Result<Self> {
        DaemonClient::connect_to(addr, "")
    }

    /// Dials `addr` and binds the connection to the tenant serving
    /// `benchmark` (a `Benchmark::name()`; the empty string means "the
    /// sole tenant"). Every request on this client is routed to that
    /// tenant.
    ///
    /// # Errors
    /// Returns [`Error::Wire`] on connect failure, and a typed
    /// `daemon refused` error (naming the registered benchmarks) when
    /// `benchmark` is unknown to the daemon.
    pub fn connect_to(addr: &str, benchmark: &str) -> Result<Self> {
        let conn = if let Some(path) = addr.strip_prefix(UNIX_PREFIX) {
            #[cfg(unix)]
            {
                Conn::Unix(
                    UnixStream::connect(path)
                        .map_err(|e| Error::wire(format!("cannot connect to {addr}: {e}")))?,
                )
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                return Err(Error::wire("unix-domain sockets are unix-only"));
            }
        } else {
            let stream = TcpStream::connect(addr)
                .map_err(|e| Error::wire(format!("cannot connect to {addr}: {e}")))?;
            stream.set_nodelay(true).ok();
            Conn::Tcp(stream)
        };
        let mut io = Io {
            conn,
            reader: protocol::FrameReader::new(),
        };
        let response = roundtrip(
            &mut io,
            &Request::Hello {
                client: format!("intune-client/{}", std::process::id()),
                benchmark: benchmark.to_string(),
            },
        )?;
        let Response::HelloAck {
            server,
            benchmark,
            revision,
            artifact_version,
            landmarks,
        } = response
        else {
            return Err(unexpected("HelloAck", &response));
        };
        Ok(DaemonClient {
            io: Mutex::new(io),
            info: ServerInfo {
                server,
                benchmark,
                revision,
                artifact_version,
                landmarks,
            },
            tracing: None,
        })
    }

    /// What the daemon reported at connect time.
    pub fn info(&self) -> &ServerInfo {
        &self.info
    }

    /// Turns on head-based trace sampling: 1-in-`every` selection
    /// requests (0 = none, 1 = all) carry a freshly minted trace context
    /// onto the wire, and each sampled request records a
    /// `client.select_batch` root span into `spans`. Ids are minted from
    /// a per-connection deterministic counter — no wall clock.
    pub fn enable_tracing(&mut self, every: u64, spans: Arc<SpanLog>) {
        self.tracing = Some(ClientTracing {
            sampler: Sampler::new(every),
            minter: IdMinter::new(&format!(
                "{}/{}/{}",
                self.info.server,
                self.info.benchmark,
                std::process::id()
            )),
            spans,
        });
    }

    /// Records the client-side root span for one sampled round trip.
    fn record_client_span(&self, ctx: &TraceContext, span_id: u64, batch: usize, started: Instant) {
        if let Some(tracing) = &self.tracing {
            tracing.spans.record(
                &Span::new(
                    ctx.trace_id,
                    span_id,
                    0,
                    "client.select_batch",
                    &self.info.benchmark,
                )
                .annotate("batch", batch)
                .lasting(elapsed_ns(started)),
            );
        }
    }

    fn roundtrip(&self, request: &Request) -> Result<Response> {
        let mut io = self
            .io
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        roundtrip(&mut io, request)
    }

    /// Selects a landmark for every fully-extracted feature vector.
    ///
    /// # Errors
    /// Returns [`Error::Wire`] on transport failure or a server-side
    /// rejection (ill-shaped vectors).
    pub fn select_batch(&self, features: &[FeatureVector]) -> Result<Vec<Selection>> {
        let sampled = self.tracing.as_ref().and_then(ClientTracing::sample);
        let started = Instant::now();
        // Encoded from the borrowed slice: no clone of the batch on the
        // hot path. A sampled request takes the trace-carrying encoder —
        // byte-identical except for the appended `trace` field.
        let body = match &sampled {
            Some((ctx, _)) => protocol::encode_select_batch_with_trace(features, ctx),
            None => protocol::encode_select_batch(features),
        };
        let mut io = self
            .io
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let response = roundtrip_body(&mut io, &body)?;
        drop(io);
        if let Some((ctx, span_id)) = &sampled {
            self.record_client_span(ctx, *span_id, features.len(), started);
        }
        match response {
            Response::Selections { selections } => Ok(selections),
            other => Err(unexpected("Selections", &other)),
        }
    }

    /// [`DaemonClient::select_batch`] with opaque raw-input payloads for
    /// the daemon's request journal: `payloads[i]` (a
    /// `Benchmark::encode_input` document, or `Null`) describes the input
    /// behind `features[i]`. Selections are identical to the untraced
    /// path; the payloads only feed continuous learning.
    ///
    /// # Errors
    /// Returns [`Error::Wire`] on transport failure or a server-side
    /// rejection (ill-shaped vectors, payload/vector length mismatch).
    pub fn select_batch_traced(
        &self,
        features: &[FeatureVector],
        payloads: &[serde_json::Value],
    ) -> Result<Vec<Selection>> {
        let sampled = self.tracing.as_ref().and_then(ClientTracing::sample);
        let started = Instant::now();
        let response = self.roundtrip(&Request::SelectBatchTraced {
            features: features.to_vec(),
            payloads: payloads.to_vec(),
            trace: sampled.as_ref().map(|(ctx, _)| *ctx),
        })?;
        if let Some((ctx, span_id)) = &sampled {
            self.record_client_span(ctx, *span_id, features.len(), started);
        }
        match response {
            Response::Selections { selections } => Ok(selections),
            other => Err(unexpected("Selections", &other)),
        }
    }

    /// Streams many selection batches through the connection with up to
    /// `window` requests in flight, answering in request order — the
    /// replay engine's throughput path. The daemon serves frames on one
    /// connection strictly in order, so pipelining changes wire
    /// utilization, never answers. `window` is clamped to at least 1 and
    /// should stay small (≈16): both sides bound their buffers, and a
    /// client that floods frames without draining replies can deadlock
    /// against the daemon's outbound cap.
    ///
    /// Each batch pairs feature vectors with journal payloads; an empty
    /// payload slice sends the lean `SelectBatch` frame.
    ///
    /// # Errors
    /// Returns [`Error::Wire`] on transport failure or a server-side
    /// rejection of any batch in the stream.
    pub fn select_batch_pipelined(
        &self,
        batches: &[(&[FeatureVector], &[serde_json::Value])],
        window: usize,
    ) -> Result<Vec<Vec<Selection>>> {
        let window = window.max(1);
        let mut guard = self
            .io
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Reborrow through the guard so the reader and the stream can be
        // borrowed as disjoint fields.
        let io = &mut *guard;
        let mut results = Vec::with_capacity(batches.len());
        // Sampling decisions for in-flight requests, indexed like
        // `batches`: a sampled entry remembers its context, client span,
        // and send time so the span can be closed when the in-order
        // reply arrives.
        let mut traces: Vec<Option<(TraceContext, u64, Instant)>> =
            Vec::with_capacity(batches.len());
        let mut sent = 0usize;
        while results.len() < batches.len() {
            while sent < batches.len() && sent - results.len() < window {
                let (features, payloads) = batches[sent];
                let sampled = self.tracing.as_ref().and_then(ClientTracing::sample);
                let body = if payloads.is_empty() {
                    match &sampled {
                        Some((ctx, _)) => protocol::encode_select_batch_with_trace(features, ctx),
                        None => protocol::encode_select_batch(features),
                    }
                } else {
                    protocol::encode_message(&Request::SelectBatchTraced {
                        features: features.to_vec(),
                        payloads: payloads.to_vec(),
                        trace: sampled.as_ref().map(|(ctx, _)| *ctx),
                    })
                };
                traces.push(sampled.map(|(ctx, span)| (ctx, span, Instant::now())));
                protocol::write_frame(&mut io.conn, &body)?;
                sent += 1;
            }
            match io.reader.recv::<_, Response>(&mut io.conn)? {
                Some(Response::Selections { selections }) => {
                    if let Some(Some((ctx, span_id, started))) = traces.get(results.len()) {
                        self.record_client_span(
                            ctx,
                            *span_id,
                            batches[results.len()].0.len(),
                            *started,
                        );
                    }
                    results.push(selections);
                }
                Some(other) => return Err(unexpected("Selections", &other)),
                None => return Err(Error::wire("daemon closed the connection mid-request")),
            }
        }
        Ok(results)
    }

    /// Fetches the daemon's counter snapshot.
    ///
    /// # Errors
    /// Returns [`Error::Wire`] on transport failure.
    pub fn stats(&self) -> Result<DaemonStats> {
        match self.roundtrip(&Request::Stats)? {
            Response::StatsReply { stats } => Ok(stats),
            other => Err(unexpected("StatsReply", &other)),
        }
    }

    /// Fetches the daemon-wide observability snapshot: per-tenant
    /// request counters and latency percentiles, event-loop stage
    /// timings, and event-log counters. Unlike [`DaemonClient::stats`]
    /// the reply covers every tenant, not just the one this connection
    /// is bound to.
    ///
    /// # Errors
    /// Returns [`Error::Wire`] on transport failure.
    pub fn metrics(&self) -> Result<MetricsSnapshot> {
        match self.roundtrip(&Request::Metrics)? {
            Response::MetricsReply { metrics } => Ok(metrics),
            other => Err(unexpected("MetricsReply", &other)),
        }
    }

    /// Stages an artifact document as the daemon's shadow, returning the
    /// staged `(benchmark, revision)`.
    ///
    /// # Errors
    /// Returns [`Error::Wire`] on transport failure or server rejection
    /// (unparseable document, benchmark/feature mismatch).
    pub fn load_artifact_document(&self, document: &str) -> Result<(String, u64)> {
        let response = self.roundtrip(&Request::LoadArtifact {
            document: document.to_string(),
        })?;
        match response {
            Response::Loaded {
                benchmark,
                revision,
            } => Ok((benchmark, revision)),
            other => Err(unexpected("Loaded", &other)),
        }
    }

    /// [`DaemonClient::load_artifact_document`] from an in-memory artifact.
    ///
    /// # Errors
    /// Same as [`DaemonClient::load_artifact_document`].
    pub fn load_artifact(&self, artifact: &ModelArtifact) -> Result<(String, u64)> {
        self.load_artifact_document(&artifact.to_document())
    }

    /// Promotes the staged shadow, returning the revision now serving.
    ///
    /// # Errors
    /// Returns [`Error::Wire`] on transport failure or a refused gate
    /// (nothing staged, insufficient mirrored agreement, tripped drift).
    pub fn promote(&self) -> Result<u64> {
        match self.roundtrip(&Request::Promote)? {
            Response::Promoted { revision } => Ok(revision),
            other => Err(unexpected("Promoted", &other)),
        }
    }

    /// Asks the daemon to exit.
    ///
    /// # Errors
    /// Returns [`Error::Wire`] on transport failure.
    pub fn shutdown(&self) -> Result<()> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("ShuttingDown", &other)),
        }
    }
}

impl SelectionBackend for DaemonClient {
    fn verify_benchmark(&self, benchmark: &str) -> Result<()> {
        if self.info.benchmark == benchmark {
            Ok(())
        } else {
            Err(Error::artifact(format!(
                "daemon at hand serves `{}`, evaluation needs `{benchmark}` \
                 (start the daemon with that case's artifact, or restrict \
                 the run with --only)",
                self.info.benchmark
            )))
        }
    }

    fn select_remote(&self, features: &[FeatureVector]) -> Result<Vec<(usize, f64)>> {
        let selections = self.select_batch(features)?;
        // A fallback answer is the drift policy speaking, not the
        // classifier; scoring it as a classifier answer would silently
        // skew the evaluation row. Surface the misconfiguration instead.
        if let Some(i) = selections.iter().position(|s| s.fell_back) {
            return Err(Error::artifact(format!(
                "daemon answered request {i} with its fallback landmark \
                 (drift policy engaged); evaluation needs pure classifier \
                 answers — start the daemon with --drift-threshold 1"
            )));
        }
        Ok(selections
            .iter()
            .map(|s| (s.landmark, s.extraction_cost))
            .collect())
    }
}

/// Nanoseconds since `start`, saturating at `u64::MAX`.
fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One send + one receive on a connection.
fn roundtrip(io: &mut Io, request: &Request) -> Result<Response> {
    roundtrip_body(io, &protocol::encode_message(request))
}

/// One pre-encoded frame out + one response in.
fn roundtrip_body(io: &mut Io, body: &str) -> Result<Response> {
    protocol::write_frame(&mut io.conn, body)?;
    match io.reader.recv::<_, Response>(&mut io.conn)? {
        Some(response) => Ok(response),
        None => Err(Error::wire("daemon closed the connection mid-request")),
    }
}

/// Maps a server `Error` frame (or a genuinely wrong message kind) to a
/// typed client error.
fn unexpected(wanted: &str, got: &Response) -> Error {
    match got {
        Response::Error { detail } => Error::wire(format!("daemon refused: {detail}")),
        other => Error::wire(format!("expected {wanted}, daemon sent {other:?}")),
    }
}
