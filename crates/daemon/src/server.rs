//! The long-running selection server.
//!
//! One **readiness-driven event loop** serves every connection and every
//! tenant: a [`mio::Poll`] watches the listeners plus all connected
//! sockets, and each connection is a small state machine — a persistent
//! [`protocol::FrameReader`] reassembling request frames on the read
//! side, a bounded outbound byte queue absorbing partial writes on the
//! write side. Nothing on the loop ever blocks: accepts, reads, and
//! writes all run nonblocking, so one slow client costs itself latency,
//! never anyone else's. A client that stops reading while replies pile
//! up hits the queue cap and is disconnected with a typed error — the
//! backpressure answer that keeps the loop's memory bounded.
//!
//! The daemon is **multi-tenant**: an `ArtifactRegistry`
//! maps benchmark name → tenant, each tenant owning a primary
//! [`VectorService`], at most one staged shadow, and its own request
//! journal. `Hello { benchmark }` binds a connection to a tenant;
//! `SelectBatch`, `LoadArtifact`, `Promote`, and `Stats` are routed
//! through that binding. Each tenant's primary sits behind a lock-free
//! [`arc_swap::ArcSwap`] pointer: `SelectBatch` readers take a wait-free
//! load, so a promotion in flight — or a handler that panicked
//! mid-request (contained by `catch_unwind`; one panic costs one
//! connection) — can never stall or poison the serving hot path. Model
//! lifecycle over the wire: `LoadArtifact` stages a candidate (hot
//! reload, any readable artifact schema version), `SelectBatch` traffic
//! builds its agreement record, `Promote` publishes it with a single
//! pointer store behind the [`ShadowPolicy`] gate, and a drift-tripped
//! shadow is auto-rejected without ever answering a client.
//!
//! Shutdown is deterministic: when a client's `Shutdown` lands, the loop
//! delivers that client's `ShuttingDown` reply (briefly blocking, with a
//! bounded timeout), then drains, half-closes, and closes **every**
//! registered connection before exiting — no peer is left holding a
//! half-open socket waiting for a FIN that never comes.

use crate::protocol::{
    self, Batch, DaemonStats, Decoded, Fill, LatencyExemplar, MetricsSnapshot, Request, Response,
    StageTimings, TenantMetrics,
};
use crate::registry::{ArtifactRegistry, Tenant, TenantSpec};
use crate::shadow::{ShadowPolicy, ShadowState};
use intune_core::{Error, FeatureVector, Result, TraceContext};
use intune_datalog::{FrameBody, PrintedBody};
use intune_obs::{
    EventKind, EventLog, Histogram, IdMinter, LatencySummary, Sampler, Span, SpanLog,
    TextExposition,
};
use intune_serve::{ModelArtifact, ServeOptions, TraceSink, VectorService, ARTIFACT_VERSION};
use mio::unix::SourceFd;
use mio::{Events, Interest, Poll, Token};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Locks a mutex, recovering from poisoning. Every daemon mutex guards
/// state that stays structurally valid across a panic (staged-shadow
/// slots), so a handler that died mid-request must cost exactly its own
/// connection — never wedge every later request behind a `PoisonError`.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Server identification string sent in `HelloAck`.
pub const SERVER_NAME: &str = "intune-daemon/0.1";

/// Default [`DaemonOptions::max_outbound_bytes`]: enough to absorb a
/// large reply burst toward a briefly-stalled client, small enough that
/// a reader that stopped entirely cannot pin unbounded daemon memory.
pub const DEFAULT_MAX_OUTBOUND_BYTES: usize = 8 << 20;

const TCP_LISTENER: Token = Token(0);
const UDS_LISTENER: Token = Token(1);
/// The optional `--metrics` plain-HTTP scrape listener.
const METRICS_LISTENER: Token = Token(2);
/// Connection tokens interleave the two connection kinds on an even/odd
/// split: wire connection `idx` is `CONN_BASE + 2*idx`, metrics (HTTP)
/// connection `idx` is `CONN_BASE + 2*idx + 1`. The two slabs stay
/// independent — neither renumbers when the other grows.
const CONN_BASE: usize = 3;
/// Events delivered per poll call; level triggering makes the cap a
/// latency knob, never a lost wakeup.
const EVENTS_PER_POLL: usize = 256;
/// Poll heartbeat: an idle loop wakes this often, bounding how stale any
/// non-event state (none today) could get. Cheap — one `poll(2)` return.
const POLL_HEARTBEAT: Duration = Duration::from_millis(500);
/// Budget for pushing the `ShuttingDown` reply to the requesting client
/// at exit (the one place the loop deliberately blocks).
const SHUTDOWN_FLUSH_TIMEOUT: Duration = Duration::from_secs(1);

/// Tunables of the daemon.
///
/// Primary and shadow carry *separate* serve options on purpose: a
/// deployment may pin the primary's fallback policy off for byte
/// determinism (`drift_threshold: 1.0`) while staged shadows keep a live
/// drift monitor — it is the shadow's tripped monitor that triggers
/// auto-rejection.
#[derive(Clone)]
pub struct DaemonOptions {
    /// Serving options of every tenant's primary (probe cadence, drift
    /// thresholds). Promoted shadows are re-wrapped under these.
    pub serve: ServeOptions,
    /// Serving options applied to staged shadows while they mirror.
    pub shadow_serve: ServeOptions,
    /// The shadow promotion gate (shared by all tenants; each tenant's
    /// shadow is scored against its own traffic).
    pub shadow: ShadowPolicy,
    /// Honor `InjectPanic` requests by panicking inside the request
    /// handler. Off by default; only the crash-containment tests turn it
    /// on. A production daemon answers the request with a typed refusal.
    pub inject_faults: bool,
    /// Cap on bytes queued toward one connection's peer. A reply that
    /// would push the queue past this gets replaced by a typed error and
    /// the slow reader is disconnected — backpressure instead of
    /// unbounded buffering.
    pub max_outbound_bytes: usize,
    /// Optional structured event log (the `--events` journal): tenant
    /// binds, shadow stages, promotions and rejections with their gating
    /// counters, drift trips, and fallback recoveries are appended as
    /// crash-tolerant records. Shared by every tenant (each event is
    /// keyed by tenant and revision).
    pub events: Option<Arc<EventLog>>,
    /// Head-based trace sampling for requests that arrive *without* a
    /// trace context (`--trace-sample N` = 1-in-N, 0 = never — the
    /// default). Requests that arrive inside a sampled context are
    /// always traced: the client made the head decision. Per-tenant
    /// overrides ride on [`TenantSpec::trace_sample`]. Only effective
    /// when [`DaemonOptions::spans`] is attached.
    pub trace_sample: u64,
    /// Optional span log (the `--spans DIR` sink): sampled requests
    /// append `server.request` plus per-stage child spans. `None`
    /// disables server-side span capture entirely — the daemon still
    /// propagates incoming contexts to journal and exemplars.
    pub spans: Option<Arc<SpanLog>>,
}

impl Default for DaemonOptions {
    fn default() -> Self {
        DaemonOptions {
            serve: ServeOptions::default(),
            shadow_serve: ServeOptions::default(),
            shadow: ShadowPolicy::default(),
            inject_faults: false,
            max_outbound_bytes: DEFAULT_MAX_OUTBOUND_BYTES,
            events: None,
            trace_sample: 0,
            spans: None,
        }
    }
}

impl std::fmt::Debug for DaemonOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DaemonOptions")
            .field("serve", &self.serve)
            .field("shadow_serve", &self.shadow_serve)
            .field("shadow", &self.shadow)
            .field("inject_faults", &self.inject_faults)
            .field("max_outbound_bytes", &self.max_outbound_bytes)
            .field("events", &self.events.as_ref().map(|_| "<log>"))
            .field("trace_sample", &self.trace_sample)
            .field("spans", &self.spans.as_ref().map(|_| "<log>"))
            .finish()
    }
}

/// What the daemon listens on.
#[derive(Debug, Clone)]
pub struct ListenConfig {
    /// TCP bind address (e.g. `127.0.0.1:0` for an ephemeral port).
    pub tcp: String,
    /// Optional Unix-domain socket path (a stale socket file at this
    /// path is removed before binding).
    pub uds: Option<PathBuf>,
    /// Optional metrics bind address: a plain HTTP/1.0 responder on a
    /// separate listener in the same poll loop, answering every request
    /// with the Prometheus text exposition of the daemon's metrics
    /// snapshot (what `Request::Metrics` returns over the wire).
    pub metrics: Option<String>,
}

impl Default for ListenConfig {
    fn default() -> Self {
        ListenConfig {
            tcp: "127.0.0.1:0".to_string(),
            uds: None,
            metrics: None,
        }
    }
}

/// The daemon's own observability state: stage-timing histograms for the
/// event loop (shared across tenants — the loop is shared) and the
/// optional lifecycle event log. All recording is wait-free; rendering
/// snapshots walks the buckets without stopping writers.
struct DaemonObs {
    /// Frame decode: checksum + payload parse into a `Request`.
    decode: Histogram,
    /// Request handling (selection or lifecycle work).
    select: Histogram,
    /// Inside `select`: the recorder tap plus the journal append.
    log_append: Histogram,
    /// Inside `select`: the shadow mirror.
    mirror: Histogram,
    /// Reply encode: serialization + frame assembly.
    encode: Histogram,
    /// Draining a connection's outbox to its socket.
    queued_write: Histogram,
    /// The lifecycle event log, if one is attached.
    events: Option<Arc<EventLog>>,
    /// The span log, if `--spans` is attached.
    spans: Option<Arc<SpanLog>>,
    /// Daemon-wide head sampler for requests arriving without a trace
    /// context (tenants may override with their own).
    sampler: Sampler,
    /// Mints trace and span ids — deterministic counter scrambles keyed
    /// off a per-process nonce, never the wall clock.
    minter: IdMinter,
}

impl DaemonObs {
    fn new(events: Option<Arc<EventLog>>, spans: Option<Arc<SpanLog>>, trace_sample: u64) -> Self {
        DaemonObs {
            decode: Histogram::new(),
            select: Histogram::new(),
            log_append: Histogram::new(),
            mirror: Histogram::new(),
            encode: Histogram::new(),
            queued_write: Histogram::new(),
            events,
            spans,
            sampler: Sampler::new(trace_sample),
            minter: IdMinter::new(&format!("intune-daemon/{}", std::process::id())),
        }
    }
}

/// Nanoseconds since `t0`, saturating (a histogram value, so u64).
pub(crate) fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Everything request handlers read: the tenant registry, the options,
/// the daemon-wide counters, and the observability state.
struct Shared {
    registry: ArtifactRegistry,
    opts: DaemonOptions,
    connections: AtomicU64,
    obs: DaemonObs,
}

/// A bound (but not yet serving) selection daemon.
pub struct Daemon {
    shared: Shared,
    tcp: TcpListener,
    uds: Option<UnixListener>,
    metrics: Option<TcpListener>,
    tcp_addr: SocketAddr,
    uds_path: Option<PathBuf>,
    metrics_addr: Option<SocketAddr>,
}

/// Handle of a daemon serving on a background thread.
pub struct DaemonHandle {
    /// The TCP address actually bound (resolves `:0` ports).
    pub addr: SocketAddr,
    /// The Unix-domain socket path, if one is listening.
    pub uds: Option<PathBuf>,
    /// The metrics HTTP address actually bound, if one is listening.
    pub metrics: Option<SocketAddr>,
    thread: JoinHandle<Result<()>>,
}

impl DaemonHandle {
    /// Waits for the daemon to exit (a client must send `Shutdown`).
    ///
    /// # Errors
    /// Propagates the serve loop's error.
    ///
    /// # Panics
    /// Panics if the daemon thread itself panicked.
    pub fn join(self) -> Result<()> {
        self.thread.join().expect("daemon thread panicked")
    }
}

impl Daemon {
    /// Binds the listeners and validates the initial artifact — the
    /// single-tenant convenience over [`Daemon::bind_tenants`], with no
    /// request journal or recorder (attach those through a
    /// [`TenantSpec`]).
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] for an inconsistent artifact and
    /// [`Error::Wire`] for bind failures.
    pub fn bind(
        artifact: ModelArtifact,
        opts: DaemonOptions,
        listen: &ListenConfig,
    ) -> Result<Self> {
        let spec = TenantSpec {
            artifact,
            trace: None,
            recorder: None,
            trace_sample: None,
        };
        Daemon::bind_tenants(vec![spec], opts, listen)
    }

    /// Binds the listeners and builds one serving tenant per spec. Each
    /// spec's artifact names its benchmark; clients route with
    /// `Hello { benchmark }`.
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] for an inconsistent artifact and
    /// [`Error::Wire`] for an empty or duplicate-benchmark registry and
    /// for bind failures.
    pub fn bind_tenants(
        specs: Vec<TenantSpec>,
        opts: DaemonOptions,
        listen: &ListenConfig,
    ) -> Result<Self> {
        let registry = ArtifactRegistry::build(
            specs,
            &opts.serve,
            opts.events.as_ref(),
            opts.spans.as_ref(),
        )?;
        let tcp = TcpListener::bind(&listen.tcp)
            .map_err(|e| Error::wire(format!("cannot bind tcp {}: {e}", listen.tcp)))?;
        let tcp_addr = tcp
            .local_addr()
            .map_err(|e| Error::wire(format!("cannot resolve bound address: {e}")))?;
        let uds = match &listen.uds {
            Some(path) => {
                if path.exists() {
                    std::fs::remove_file(path).map_err(|e| {
                        Error::wire(format!("stale socket {}: {e}", path.display()))
                    })?;
                }
                Some(UnixListener::bind(path).map_err(|e| {
                    Error::wire(format!("cannot bind unix socket {}: {e}", path.display()))
                })?)
            }
            None => None,
        };
        let metrics = match &listen.metrics {
            Some(addr) => Some(
                TcpListener::bind(addr)
                    .map_err(|e| Error::wire(format!("cannot bind metrics {addr}: {e}")))?,
            ),
            None => None,
        };
        let metrics_addr =
            match &metrics {
                Some(listener) => Some(listener.local_addr().map_err(|e| {
                    Error::wire(format!("cannot resolve bound metrics address: {e}"))
                })?),
                None => None,
            };
        let events = opts.events.clone();
        let spans = opts.spans.clone();
        let trace_sample = opts.trace_sample;
        Ok(Daemon {
            shared: Shared {
                registry,
                opts,
                connections: AtomicU64::new(0),
                obs: DaemonObs::new(events, spans, trace_sample),
            },
            tcp,
            uds,
            metrics,
            tcp_addr,
            uds_path: listen.uds.clone(),
            metrics_addr,
        })
    }

    /// The TCP address actually bound (resolves `:0` ports).
    pub fn tcp_addr(&self) -> SocketAddr {
        self.tcp_addr
    }

    /// The metrics HTTP address actually bound, if `--metrics` is on.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Serves until a client sends `Shutdown`: one readiness-driven loop
    /// over the listeners and every connection.
    ///
    /// # Errors
    /// Returns [`Error::Wire`] if the poller fails fatally.
    pub fn run(self) -> Result<()> {
        let Daemon {
            shared,
            tcp,
            uds,
            metrics,
            tcp_addr: _,
            uds_path,
            metrics_addr: _,
        } = self;
        let mut poll =
            Poll::new().map_err(|e| Error::wire(format!("cannot create poller: {e}")))?;
        tcp.set_nonblocking(true)
            .map_err(|e| Error::wire(format!("cannot unblock tcp listener: {e}")))?;
        let tcp_fd = tcp.as_raw_fd();
        poll.registry()
            .register(&mut SourceFd(&tcp_fd), TCP_LISTENER, Interest::READABLE)
            .map_err(|e| Error::wire(format!("cannot register tcp listener: {e}")))?;
        let uds_fd = match &uds {
            Some(listener) => {
                listener
                    .set_nonblocking(true)
                    .map_err(|e| Error::wire(format!("cannot unblock unix listener: {e}")))?;
                let fd = listener.as_raw_fd();
                poll.registry()
                    .register(&mut SourceFd(&fd), UDS_LISTENER, Interest::READABLE)
                    .map_err(|e| Error::wire(format!("cannot register unix listener: {e}")))?;
                Some(fd)
            }
            None => None,
        };
        let metrics_fd = match &metrics {
            Some(listener) => {
                listener
                    .set_nonblocking(true)
                    .map_err(|e| Error::wire(format!("cannot unblock metrics listener: {e}")))?;
                let fd = listener.as_raw_fd();
                poll.registry()
                    .register(&mut SourceFd(&fd), METRICS_LISTENER, Interest::READABLE)
                    .map_err(|e| Error::wire(format!("cannot register metrics listener: {e}")))?;
                Some(fd)
            }
            None => None,
        };

        let mut events = Events::with_capacity(EVENTS_PER_POLL);
        let mut conns = Slab::default();
        let mut http = HttpSlab::default();
        let mut stop = false;
        let mut requester: Option<usize> = None;
        while !stop {
            poll.poll(&mut events, Some(POLL_HEARTBEAT))
                .map_err(|e| Error::wire(format!("poll failed: {e}")))?;
            for event in &events {
                match event.token() {
                    TCP_LISTENER => {
                        accept_tcp(&tcp, &poll, &mut conns, &shared);
                    }
                    UDS_LISTENER => {
                        if let Some(listener) = &uds {
                            accept_uds(listener, &poll, &mut conns, &shared);
                        }
                    }
                    METRICS_LISTENER => {
                        if let Some(listener) = &metrics {
                            accept_metrics(listener, &poll, &mut http);
                        }
                    }
                    Token(t) if (t - CONN_BASE) % 2 == 1 => {
                        // Odd offset: a metrics (HTTP) connection.
                        let idx = (t - CONN_BASE) / 2;
                        let Some(conn) = http.get_mut(idx) else {
                            continue;
                        };
                        match service_http(conn, &shared) {
                            Verdict::Keep => {
                                let want = conn.desired_interest();
                                if want != conn.registered {
                                    let fd = conn.stream.as_raw_fd();
                                    if poll
                                        .registry()
                                        .reregister(&mut SourceFd(&fd), Token(t), want)
                                        .is_ok()
                                    {
                                        conn.registered = want;
                                    }
                                }
                            }
                            Verdict::Drop => http.close(&poll, idx),
                        }
                    }
                    Token(t) => {
                        let idx = (t - CONN_BASE) / 2;
                        let Some(conn) = conns.get_mut(idx) else {
                            // A stale event for a slot freed earlier in
                            // this batch; level triggering makes spurious
                            // wakeups harmless.
                            continue;
                        };
                        let shutdown_seen = stop;
                        match service(conn, *event, &shared, &mut stop) {
                            Verdict::Keep => {
                                let want = conn.desired_interest();
                                if want != conn.registered {
                                    let fd = conn.transport.raw_fd();
                                    if poll
                                        .registry()
                                        .reregister(&mut SourceFd(&fd), Token(t), want)
                                        .is_ok()
                                    {
                                        conn.registered = want;
                                    }
                                }
                            }
                            Verdict::Drop => conns.close(&poll, idx),
                        }
                        if stop && !shutdown_seen {
                            requester = Some(idx);
                        }
                    }
                }
            }
        }

        // Deterministic teardown. The `Shutdown` requester's reply is
        // flushed with a brief blocking write so `shutdown()` round
        // trips reliably; every other connection gets a best-effort
        // nonblocking flush. Then each socket's unread input is drained
        // (so closing sends an orderly FIN, not a data-discarding RST)
        // and closed — no registered connection survives the loop.
        if let Some(idx) = requester {
            if let Some(conn) = conns.get_mut(idx) {
                conn.transport
                    .set_blocking_for_flush(SHUTDOWN_FLUSH_TIMEOUT);
                let _ = conn.flush();
                let _ = conn.transport.set_nonblocking();
            }
        }
        for idx in 0..conns.slots.len() {
            if let Some(conn) = conns.get_mut(idx) {
                let _ = conn.flush();
                conn.discard_pending_input();
                conn.transport.shutdown_write();
            }
            conns.close(&poll, idx);
        }
        for idx in 0..http.slots.len() {
            http.close(&poll, idx);
        }
        let _ = poll.registry().deregister(&mut SourceFd(&tcp_fd));
        if let Some(fd) = uds_fd {
            let _ = poll.registry().deregister(&mut SourceFd(&fd));
        }
        if let Some(fd) = metrics_fd {
            let _ = poll.registry().deregister(&mut SourceFd(&fd));
        }
        if let Some(path) = &uds_path {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }

    /// Runs the daemon on a background thread, returning its handle.
    pub fn spawn(self) -> DaemonHandle {
        let addr = self.tcp_addr();
        let uds = self.uds_path.clone();
        let metrics = self.metrics_addr;
        DaemonHandle {
            addr,
            uds,
            metrics,
            thread: std::thread::spawn(move || self.run()),
        }
    }
}

/// Accepts every pending TCP connection (the listener is level
/// triggered: drain until `WouldBlock`).
fn accept_tcp(listener: &TcpListener, poll: &Poll, conns: &mut Slab, shared: &Shared) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                // One whole frame per write and the peer blocks on it:
                // Nagle buys nothing here and its delayed-ACK interaction
                // costs ~40 ms per request/response round trip on
                // loopback.
                stream.set_nodelay(true).ok();
                conns.admit(Transport::Tcp(stream), poll, shared);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            // A transient accept failure (e.g. fd exhaustion): give up
            // this readiness round; the next poll retries without
            // busy-spinning a core.
            Err(_) => break,
        }
    }
}

/// Accepts every pending Unix-domain connection.
fn accept_uds(listener: &UnixListener, poll: &Poll, conns: &mut Slab, shared: &Shared) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => conns.admit(Transport::Unix(stream), poll, shared),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(_) => break,
        }
    }
}

/// Accepts every pending metrics (HTTP) connection.
fn accept_metrics(listener: &TcpListener, poll: &Poll, http: &mut HttpSlab) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => http.admit(stream, poll),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(_) => break,
        }
    }
}

/// Bound on a metrics request head: scrapers send a one-line GET plus a
/// few headers; anything bigger is answered (and closed) early rather
/// than buffered.
const HTTP_REQUEST_CAP: usize = 8 << 10;

/// The metrics-connection table, mirroring [`Slab`] on the odd half of
/// the token space: `Token(CONN_BASE + 2*index + 1)` ↔ slot.
#[derive(Default)]
struct HttpSlab {
    slots: Vec<Option<HttpConn>>,
    free: Vec<usize>,
}

impl HttpSlab {
    fn get_mut(&mut self, idx: usize) -> Option<&mut HttpConn> {
        self.slots.get_mut(idx).and_then(Option::as_mut)
    }

    fn admit(&mut self, stream: TcpStream, poll: &Poll) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.slots.push(None);
                self.slots.len() - 1
            }
        };
        let fd = stream.as_raw_fd();
        if poll
            .registry()
            .register(
                &mut SourceFd(&fd),
                Token(CONN_BASE + 2 * idx + 1),
                Interest::READABLE,
            )
            .is_err()
        {
            self.free.push(idx);
            return;
        }
        self.slots[idx] = Some(HttpConn {
            stream,
            inbuf: Vec::new(),
            outbox: Vec::new(),
            written: 0,
            registered: Interest::READABLE,
        });
    }

    fn close(&mut self, poll: &Poll, idx: usize) {
        if let Some(conn) = self.slots.get_mut(idx).and_then(Option::take) {
            let fd = conn.stream.as_raw_fd();
            let _ = poll.registry().deregister(&mut SourceFd(&fd));
            self.free.push(idx);
        }
    }
}

/// One metrics scrape connection: read the request head, answer with one
/// `HTTP/1.0 200` carrying the Prometheus text body, close. The metrics
/// path shares the poll loop but nothing else with the wire protocol —
/// a stalled scraper is subject to the same nonblocking discipline as
/// any client, and never touches tenant state.
struct HttpConn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbox: Vec<u8>,
    written: usize,
    registered: Interest,
}

impl HttpConn {
    /// Readers want readable until the response is built, then only the
    /// write side matters.
    fn desired_interest(&self) -> Interest {
        if self.outbox.is_empty() {
            Interest::READABLE
        } else {
            Interest::WRITABLE
        }
    }
}

/// Services one readiness event on a metrics connection.
fn service_http(conn: &mut HttpConn, shared: &Shared) -> Verdict {
    if conn.outbox.is_empty() {
        // Read until the head is complete (blank line), the peer is done
        // sending, or the cap is hit — any of these triggers the reply.
        let mut scratch = [0u8; 1024];
        let mut respond = false;
        loop {
            match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    respond = true;
                    break;
                }
                Ok(n) => {
                    conn.inbuf.extend_from_slice(&scratch[..n]);
                    if conn.inbuf.windows(4).any(|w| w == b"\r\n\r\n")
                        || conn.inbuf.len() > HTTP_REQUEST_CAP
                    {
                        respond = true;
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return Verdict::Drop,
            }
        }
        if !respond {
            return Verdict::Keep;
        }
        conn.outbox = route_http(&conn.inbuf, shared);
    }
    loop {
        match conn.stream.write(&conn.outbox[conn.written..]) {
            Ok(0) => return Verdict::Drop,
            Ok(n) => {
                conn.written += n;
                if conn.written == conn.outbox.len() {
                    // HTTP/1.0 semantics: the response ends the exchange.
                    return Verdict::Drop;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Verdict::Keep,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Verdict::Drop,
        }
    }
}

/// Routes one buffered request head: `GET /` and `GET /metrics` answer
/// the scrape, any other method is refused with `405` (scrapes are
/// reads — a `POST` here is a misconfigured client, not a scraper), any
/// other path with `404`, and a head that is not even an HTTP request
/// line with `400`. Error responses carry a one-line plain-text body so
/// `curl` users see why.
fn route_http(inbuf: &[u8], shared: &Shared) -> Vec<u8> {
    let Some((method, path)) = parse_request_line(inbuf) else {
        return render_http_error("400 Bad Request", "not an HTTP request\n");
    };
    if method != "GET" {
        return render_http_error("405 Method Not Allowed", "only GET is served here\n");
    }
    if path != "/" && path != "/metrics" {
        return render_http_error("404 Not Found", "try /metrics\n");
    }
    render_scrape_response(shared)
}

/// The `(method, path)` of the request line, or `None` when the head is
/// not parseable as one. The path is taken up to any `?` — a scrape
/// endpoint has no query parameters to honor.
fn parse_request_line(inbuf: &[u8]) -> Option<(&str, &str)> {
    let head = std::str::from_utf8(inbuf).ok()?;
    let line = head.split("\r\n").next()?;
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let method = parts.next()?;
    let target = parts.next()?;
    let version = parts.next()?;
    if !version.starts_with("HTTP/") {
        return None;
    }
    let path = target.split('?').next().unwrap_or(target);
    Some((method, path))
}

/// One complete `HTTP/1.0` error response.
fn render_http_error(status: &str, body: &str) -> Vec<u8> {
    let mut response = Vec::with_capacity(body.len() + 160);
    response.extend_from_slice(format!("HTTP/1.0 {status}\r\n").as_bytes());
    response.extend_from_slice(b"Content-Type: text/plain; charset=utf-8\r\n");
    response.extend_from_slice(format!("Content-Length: {}\r\n", body.len()).as_bytes());
    if status.starts_with("405") {
        response.extend_from_slice(b"Allow: GET\r\n");
    }
    response.extend_from_slice(b"Connection: close\r\n\r\n");
    response.extend_from_slice(body.as_bytes());
    response
}

/// One complete `HTTP/1.0 200` response carrying the Prometheus text
/// exposition of the current metrics snapshot.
fn render_scrape_response(shared: &Shared) -> Vec<u8> {
    let body = render_metrics_text(shared);
    let mut response = Vec::with_capacity(body.len() + 128);
    response.extend_from_slice(b"HTTP/1.0 200 OK\r\n");
    response.extend_from_slice(b"Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n");
    response.extend_from_slice(format!("Content-Length: {}\r\n", body.len()).as_bytes());
    response.extend_from_slice(b"Connection: close\r\n\r\n");
    response.extend_from_slice(body.as_bytes());
    response
}

/// The wire-connection table: `Token(CONN_BASE + 2*index)` ↔ slot (the
/// even half of the token space; metrics connections take the odd half).
/// Freed slots are reused, keeping tokens dense and the table at
/// peak-connections size.
#[derive(Default)]
struct Slab {
    slots: Vec<Option<Conn>>,
    free: Vec<usize>,
}

impl Slab {
    fn get_mut(&mut self, idx: usize) -> Option<&mut Conn> {
        self.slots.get_mut(idx).and_then(Option::as_mut)
    }

    /// Registers a fresh connection with the poller and stores it.
    fn admit(&mut self, transport: Transport, poll: &Poll, shared: &Shared) {
        // The accept counter doubles as the connection id: slab slots are
        // reused, the counter never is, so recordings can tell two
        // consecutive occupants of one slot apart.
        let id = shared.connections.fetch_add(1, Ordering::AcqRel);
        if transport.set_nonblocking().is_err() {
            return; // dropping the transport closes the socket
        }
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.slots.push(None);
                self.slots.len() - 1
            }
        };
        let fd = transport.raw_fd();
        if poll
            .registry()
            .register(
                &mut SourceFd(&fd),
                Token(CONN_BASE + 2 * idx),
                Interest::READABLE,
            )
            .is_err()
        {
            self.free.push(idx);
            return;
        }
        self.slots[idx] = Some(Conn::new(transport, id));
    }

    /// Deregisters and drops one connection (closing its socket).
    fn close(&mut self, poll: &Poll, idx: usize) {
        if let Some(conn) = self.slots.get_mut(idx).and_then(Option::take) {
            let fd = conn.transport.raw_fd();
            let _ = poll.registry().deregister(&mut SourceFd(&fd));
            self.free.push(idx);
        }
    }
}

/// A connected transport. Stays in the blocking-API std types (the shim's
/// [`SourceFd`] registers raw fds); nonblocking mode is set at admit.
enum Transport {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Transport {
    fn raw_fd(&self) -> RawFd {
        match self {
            Transport::Tcp(s) => s.as_raw_fd(),
            Transport::Unix(s) => s.as_raw_fd(),
        }
    }

    fn set_nonblocking(&self) -> std::io::Result<()> {
        match self {
            Transport::Tcp(s) => s.set_nonblocking(true),
            Transport::Unix(s) => s.set_nonblocking(true),
        }
    }

    /// Switches to blocking writes with a bounded timeout — only used to
    /// push the `ShuttingDown` reply at exit.
    fn set_blocking_for_flush(&self, timeout: Duration) {
        match self {
            Transport::Tcp(s) => {
                s.set_nonblocking(false).ok();
                s.set_write_timeout(Some(timeout)).ok();
            }
            Transport::Unix(s) => {
                s.set_nonblocking(false).ok();
                s.set_write_timeout(Some(timeout)).ok();
            }
        }
    }

    /// Half-closes the write side: the peer sees EOF after draining our
    /// queued bytes, while we can keep reading (the lingering close that
    /// lets an error frame outrun the disconnect).
    fn shutdown_write(&self) {
        match self {
            Transport::Tcp(s) => {
                s.shutdown(Shutdown::Write).ok();
            }
            Transport::Unix(s) => {
                s.shutdown(Shutdown::Write).ok();
            }
        }
    }
}

impl Read for Transport {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Transport::Tcp(s) => s.read(buf),
            Transport::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Transport {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Transport::Tcp(s) => s.write(buf),
            Transport::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Transport::Tcp(s) => Write::flush(s),
            Transport::Unix(s) => Write::flush(s),
        }
    }
}

/// One connection's state machine.
struct Conn {
    transport: Transport,
    /// Persistent frame reassembly buffer — request payloads land in one
    /// reused allocation for the connection's whole life.
    reader: protocol::FrameReader,
    /// Encoded reply frames not yet accepted by the socket; a partial
    /// write leaves `outbox_head` bytes of the front frame consumed.
    outbox: VecDeque<Vec<u8>>,
    outbox_head: usize,
    /// Unsent bytes across the whole outbox (the backpressure measure).
    outbox_bytes: usize,
    /// The tenant this connection is bound to (`Hello`, or lazily the
    /// sole tenant for wire/2 clients that skip `Hello`).
    tenant: Option<Arc<Tenant>>,
    /// Stable connection id (the accept counter at admit time) stamped
    /// onto recorded frames; unlike the slab slot it is never reused.
    id: u64,
    /// Interest currently registered with the poller.
    registered: Interest,
    /// A fatal error reply is queued: stop reading, flush, half-close.
    closing: bool,
    /// Write side is shut; draining peer bytes until EOF completes the
    /// lingering close.
    lingering: bool,
    /// Peer sent EOF; serve out the outbox, then drop.
    peer_eof: bool,
    /// `(trace_id, server_span)` of the most recent sampled request
    /// whose reply is still in the outbox: the next flush is attributed
    /// to it as a `stage.queued_write` span, then the slot clears.
    pending_write_trace: Option<(u64, u64)>,
}

/// What the event loop should do with a connection after servicing it.
enum Verdict {
    Keep,
    Drop,
}

/// Outcome of pumping buffered frames through the request handler.
enum Pump {
    Continue,
    /// A handler panicked: drop the connection immediately, no reply —
    /// the frame that poisoned it must not be re-served.
    DropNow,
}

impl Conn {
    fn new(transport: Transport, id: u64) -> Self {
        Conn {
            transport,
            reader: protocol::FrameReader::new(),
            outbox: VecDeque::new(),
            outbox_head: 0,
            outbox_bytes: 0,
            tenant: None,
            id,
            registered: Interest::READABLE,
            closing: false,
            lingering: false,
            peer_eof: false,
            pending_write_trace: None,
        }
    }

    /// The interest matching this connection's state: readers want
    /// readable, a non-empty outbox wants writable, a closing connection
    /// only flushes, a lingering one only drains.
    fn desired_interest(&self) -> Interest {
        if self.lingering {
            return Interest::READABLE;
        }
        if self.closing || self.peer_eof {
            return Interest::WRITABLE;
        }
        if self.outbox.is_empty() {
            Interest::READABLE
        } else {
            Interest::READABLE | Interest::WRITABLE
        }
    }

    fn push(&mut self, frame: Vec<u8>) {
        self.outbox_bytes += frame.len();
        self.outbox.push_back(frame);
    }

    /// Frames a reply in the wire version of the request at hand, so
    /// every client reads its replies in the version it speaks.
    fn frame(&self, response: &Response) -> Result<Vec<u8>> {
        protocol::encode_frame_in(self.reader.version(), &protocol::encode_message(response))
    }

    /// Queues a reply, enforcing the outbound cap: a reply that would
    /// overflow it is replaced by a typed error and the connection
    /// enters its closing sequence — the slow reader gets told why.
    /// Encode time (serialization + frame assembly) lands in the
    /// `encode` stage histogram and is returned so a traced request can
    /// also attribute it to its `stage.encode` span.
    fn queue(&mut self, response: &Response, shared: &Shared) -> u64 {
        let cap = shared.opts.max_outbound_bytes;
        if self.closing {
            return 0;
        }
        let encode_start = Instant::now();
        let frame = match self.frame(response) {
            Ok(frame) => frame,
            Err(e) => {
                self.fail(e.to_string());
                return 0;
            }
        };
        let encode_ns = elapsed_ns(encode_start);
        shared.obs.encode.record(encode_ns);
        if self.outbox_bytes + frame.len() > cap {
            self.fail(format!(
                "outbound queue overflow: {} bytes already queued toward a reader \
                 that is not draining them (cap {cap}); disconnecting",
                self.outbox_bytes
            ));
            return encode_ns;
        }
        self.push(frame);
        encode_ns
    }

    /// Queues a typed error and starts the closing sequence: no more
    /// reads, flush the outbox, half-close, linger until the peer is
    /// gone. The error frame itself bypasses the cap — it *is* the
    /// disconnect notice.
    fn fail(&mut self, detail: String) {
        if self.closing {
            return;
        }
        if let Ok(frame) = self.frame(&Response::Error { detail }) {
            self.push(frame);
        }
        self.closing = true;
    }

    /// Writes queued frames until the socket stops accepting bytes.
    ///
    /// # Errors
    /// A transport failure; the connection is unusable.
    fn flush(&mut self) -> std::io::Result<()> {
        loop {
            let front_len = match self.outbox.front() {
                None => return Ok(()),
                Some(front) => front.len(),
            };
            let wrote = {
                let front = self.outbox.front().expect("front checked above");
                self.transport.write(&front[self.outbox_head..])
            };
            match wrote {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.outbox_head += n;
                    self.outbox_bytes -= n;
                    if self.outbox_head == front_len {
                        self.outbox.pop_front();
                        self.outbox_head = 0;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Reads and discards whatever the peer has sent, without blocking —
    /// the lingering-close drain, and the pre-close drain that lets
    /// `close(2)` send FIN instead of RST. Returns `true` once the peer
    /// reached EOF (or errored): nothing more will arrive.
    fn discard_pending_input(&mut self) -> bool {
        let mut scratch = [0u8; 4096];
        loop {
            match self.transport.read(&mut scratch) {
                Ok(0) => return true,
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return true,
            }
        }
    }
}

/// Services one readiness event on one connection.
fn service(conn: &mut Conn, event: mio::Event, shared: &Shared, stop: &mut bool) -> Verdict {
    // Writes first: draining the outbox both frees backpressure budget
    // and makes room for replies to the requests read below.
    if event.is_writable() && !conn.outbox.is_empty() && timed_flush(conn, shared).is_err() {
        return Verdict::Drop;
    }
    if conn.lingering {
        if event.is_readable() && conn.discard_pending_input() {
            return Verdict::Drop;
        }
        return Verdict::Keep;
    }
    if event.is_readable() && !conn.closing && !conn.peer_eof {
        if let Pump::DropNow = pump(conn, shared, stop) {
            return Verdict::Drop;
        }
    }
    // Opportunistic flush: most replies leave in the same loop iteration
    // that produced them, without waiting for a writability event.
    if !conn.outbox.is_empty() && timed_flush(conn, shared).is_err() {
        return Verdict::Drop;
    }
    if conn.outbox.is_empty() {
        if conn.peer_eof {
            return Verdict::Drop;
        }
        if conn.closing {
            conn.transport.shutdown_write();
            conn.lingering = true;
        }
    }
    Verdict::Keep
}

/// Drains a connection's outbox, recording the time in the
/// `queued_write` stage histogram — and, when a sampled request's reply
/// is among the queued frames, as that trace's `stage.queued_write`
/// span.
fn timed_flush(conn: &mut Conn, shared: &Shared) -> std::io::Result<()> {
    let flush_start = Instant::now();
    let result = conn.flush();
    let flush_ns = elapsed_ns(flush_start);
    shared.obs.queued_write.record(flush_ns);
    if let Some((trace_id, server_span)) = conn.pending_write_trace.take() {
        if let Some(spans) = &shared.obs.spans {
            let tenant = conn.tenant.as_ref().map(|t| t.name.as_str()).unwrap_or("");
            spans.record(
                &Span::new(
                    trace_id,
                    shared.obs.minter.next(),
                    server_span,
                    "stage.queued_write",
                    tenant,
                )
                .lasting(flush_ns),
            );
        }
    }
    result
}

/// Reads everything the socket has, serving each complete frame as it
/// appears. Frame-level violations (bad version, checksum, shape) queue
/// a typed error and start the closing sequence; request-level failures
/// are ordinary typed replies and the connection lives on.
fn pump(conn: &mut Conn, shared: &Shared, stop: &mut bool) -> Pump {
    loop {
        // Serve every frame already buffered (one fill can deliver many
        // pipelined requests).
        loop {
            if conn.closing {
                return Pump::Continue;
            }
            // Selection requests dominate the frame mix under load; a
            // canonical one is scanned without the generic Value tree,
            // its payloads kept as wire text, and every other (or
            // non-canonical) payload takes the full parser.
            let frame_start = Instant::now();
            let decoded = match conn.reader.pop_frame() {
                Ok(Some(payload)) => protocol::decode_request(payload),
                Ok(None) => break,
                Err(e) => {
                    conn.fail(e.to_string());
                    return Pump::Continue;
                }
            };
            let mut request = match decoded {
                Ok(request) => request,
                Err(e) => {
                    conn.fail(e.to_string());
                    return Pump::Continue;
                }
            };
            let decode_ns = elapsed_ns(frame_start);
            shared.obs.decode.record(decode_ns);
            let is_shutdown = matches!(request, Decoded::Other(Request::Shutdown));
            let batch_len = match &request {
                Decoded::Batch(batch) => Some(batch.features.len()),
                Decoded::Other(_) => None,
            };
            // Sampling decision before dispatch: a traced request has its
            // context re-parented onto the server span so every span the
            // handler records hangs off this request's node in the tree.
            let traced = trace_decision(shared, &mut request, &conn.tenant);
            // Contain handler panics (including injected ones): the
            // poisoned request costs this connection, never the loop.
            let conn_id = conn.id;
            let tenant = &mut conn.tenant;
            let select_start = Instant::now();
            match catch_unwind(AssertUnwindSafe(|| match request {
                Decoded::Batch(batch) => handle_batch(shared, tenant, conn_id, &batch),
                Decoded::Other(request) => handle_request(shared, tenant, conn_id, request),
            })) {
                Ok(response) => {
                    let select_ns = elapsed_ns(select_start);
                    if batch_len.is_some() {
                        shared.obs.select.record(select_ns);
                    }
                    let encode_ns = conn.queue(&response, shared);
                    // Per-tenant request accounting: one request frame,
                    // its batch size, and the end-to-end latency (decode
                    // through reply queueing) into the tenant's own
                    // wait-free histogram. A sampled request also leaves
                    // its trace id as the histogram's exemplar.
                    if let (Some(n), Some(tenant)) = (batch_len, &conn.tenant) {
                        tenant.obs.requests.incr();
                        tenant.obs.selections.add(n as u64);
                        let total_ns = elapsed_ns(frame_start);
                        match traced {
                            Some((ctx, _)) => {
                                tenant.obs.latency.record_exemplar(total_ns, ctx.trace_id)
                            }
                            None => tenant.obs.latency.record(total_ns),
                        }
                    }
                    if let (Some((ctx, server_span)), Some(spans)) = (traced, &shared.obs.spans) {
                        let tenant_name =
                            conn.tenant.as_ref().map(|t| t.name.as_str()).unwrap_or("");
                        for (name, lasted) in [
                            ("stage.decode", decode_ns),
                            ("stage.select", select_ns),
                            ("stage.encode", encode_ns),
                        ] {
                            spans.record(
                                &Span::new(
                                    ctx.trace_id,
                                    shared.obs.minter.next(),
                                    server_span,
                                    name,
                                    tenant_name,
                                )
                                .lasting(lasted),
                            );
                        }
                        spans.record(
                            &Span::new(
                                ctx.trace_id,
                                server_span,
                                ctx.parent_span,
                                "server.request",
                                tenant_name,
                            )
                            .annotate("conn", conn_id)
                            .annotate("batch", batch_len.unwrap_or(0))
                            .lasting(elapsed_ns(frame_start)),
                        );
                        conn.pending_write_trace = Some((ctx.trace_id, server_span));
                    }
                }
                Err(_) => {
                    eprintln!("intune-daemon: a request handler panicked; connection dropped");
                    return Pump::DropNow;
                }
            }
            if is_shutdown {
                *stop = true;
                return Pump::Continue;
            }
        }
        match conn.reader.fill(&mut conn.transport) {
            Ok(Fill::Bytes(_)) => {}
            Ok(Fill::WouldBlock) => return Pump::Continue,
            Ok(Fill::Closed) => {
                match conn.reader.pending_bytes() {
                    0 => conn.peer_eof = true,
                    n if n < protocol::HEADER_BYTES => {
                        conn.fail("connection closed mid-header".to_string());
                    }
                    _ => conn.fail("connection closed mid-frame".to_string()),
                }
                return Pump::Continue;
            }
            Err(e) => {
                conn.fail(e.to_string());
                return Pump::Continue;
            }
        }
    }
}

/// Decides whether this request is traced, and under which identity.
///
/// A client that shipped a sampled context always wins (head-based
/// sampling: the client already paid the decision); a context with
/// `sampled: false` is an explicit opt-out the daemon honors without
/// re-sampling. A bare batch request consults the tenant's sampler when
/// one is configured, else the daemon-wide one, and on a hit the daemon
/// mints the root itself. Either way the request's embedded context is
/// re-parented onto a freshly minted server span so downstream spans
/// (service, stages) nest under this request. Returns the *incoming*
/// context (original parent) plus the server span id, or `None` for an
/// untraced request. Without a span log, nothing is ever traced.
fn trace_decision(
    shared: &Shared,
    request: &mut Decoded,
    tenant: &Option<Arc<Tenant>>,
) -> Option<(TraceContext, u64)> {
    shared.obs.spans.as_ref()?;
    let Decoded::Batch(Batch { trace: slot, .. }) = request else {
        return None;
    };
    let ctx = match *slot {
        Some(ctx) if ctx.sampled && ctx.trace_id != 0 => ctx,
        Some(_) => return None,
        None => {
            let sampler = tenant
                .as_ref()
                .and_then(|t| t.sampler.as_ref())
                .unwrap_or(&shared.obs.sampler);
            if !sampler.decide() {
                return None;
            }
            TraceContext::root(shared.obs.minter.next())
        }
    };
    let server_span = shared.obs.minter.next();
    *slot = Some(ctx.child_of(server_span));
    Some((ctx, server_span))
}

/// Resolves the tenant a request should be served by: the connection's
/// binding, or — for wire/2 clients that skip `Hello` — the sole tenant,
/// bound lazily.
fn bound(
    shared: &Shared,
    slot: &mut Option<Arc<Tenant>>,
) -> std::result::Result<Arc<Tenant>, String> {
    if let Some(tenant) = slot {
        return Ok(Arc::clone(tenant));
    }
    let tenant = shared.registry.resolve("")?;
    *slot = Some(Arc::clone(&tenant));
    Ok(tenant)
}

/// Records a non-selection request into the tenant's wire recording (a
/// no-op for tenants without one). A full recorder never fails the
/// request — capture is best-effort by design; the sink itself counts
/// and types its drops.
fn tap_control(tenant: &Tenant, conn: u64, kind: &str) {
    if let Some(recorder) = &tenant.recorder {
        recorder.record(
            &tenant.name,
            conn,
            FrameBody::Control {
                kind: kind.to_string(),
            },
        );
    }
}

/// Dispatches one request against the shared state, routing stateful
/// requests through the connection's tenant binding. `conn` is the
/// connection's stable id, stamped onto recorded frames so replay can
/// preserve per-connection ordering.
fn handle_request(
    shared: &Shared,
    tenant: &mut Option<Arc<Tenant>>,
    conn: u64,
    request: Request,
) -> Response {
    match request {
        Request::Hello {
            client: _,
            benchmark,
        } => match shared.registry.resolve(&benchmark) {
            Ok(resolved) => {
                tap_control(&resolved, conn, "Hello");
                let primary = resolved.primary.load();
                let artifact = primary.artifact();
                if let Some(events) = &shared.obs.events {
                    events.record(
                        &resolved.name,
                        artifact.revision,
                        EventKind::TenantBound { conn },
                    );
                }
                let ack = Response::HelloAck {
                    server: SERVER_NAME.to_string(),
                    benchmark: artifact.benchmark.clone(),
                    revision: artifact.revision,
                    artifact_version: ARTIFACT_VERSION,
                    landmarks: artifact.landmarks.len() as u64,
                };
                *tenant = Some(resolved);
                ack
            }
            // An unknown benchmark refuses the *binding*, not the
            // connection: the client may Hello again.
            Err(detail) => Response::Error { detail },
        },
        Request::SelectBatch { .. } | Request::SelectBatchTraced { .. } => {
            unreachable!("selection requests are decoded as batches")
        }
        Request::Stats => match bound(shared, tenant) {
            Ok(tenant) => {
                tap_control(&tenant, conn, "Stats");
                Response::StatsReply {
                    stats: snapshot(shared, &tenant),
                }
            }
            Err(detail) => Response::Error { detail },
        },
        // Daemon-wide by design: a monitoring connection need not bind
        // to (or even know) a tenant to read the snapshot.
        Request::Metrics => {
            // A wire snapshot is an operator looking: heartbeat each
            // tenant's latency summary into the event log so recorded
            // timelines carry latency context next to their lifecycle
            // events. (HTTP scrapes don't — a 15-second Prometheus poll
            // would drown the log.)
            if let Some(log) = &shared.obs.events {
                for tenant in shared.registry.tenants() {
                    log.record(
                        &tenant.name,
                        tenant.primary.load().artifact().revision,
                        EventKind::LatencySnapshot {
                            latency: LatencySummary::of(&tenant.obs.latency.snapshot()),
                        },
                    );
                }
            }
            Response::MetricsReply {
                metrics: metrics_snapshot(shared),
            }
        }
        Request::LoadArtifact { document } => match bound(shared, tenant) {
            Ok(tenant) => {
                tap_control(&tenant, conn, "LoadArtifact");
                handle_load(shared, &tenant, &document)
            }
            Err(detail) => Response::Error { detail },
        },
        Request::Promote => match bound(shared, tenant) {
            Ok(tenant) => {
                tap_control(&tenant, conn, "Promote");
                handle_promote(shared, &tenant)
            }
            Err(detail) => Response::Error { detail },
        },
        Request::InjectPanic => {
            if shared.opts.inject_faults {
                panic!("injected fault: client requested a handler panic");
            }
            Response::Error {
                detail: "fault injection is disabled on this daemon".to_string(),
            }
        }
        Request::Shutdown => Response::ShuttingDown,
    }
}

/// Serves a selection batch for the connection's tenant.
fn handle_batch(
    shared: &Shared,
    tenant: &mut Option<Arc<Tenant>>,
    conn: u64,
    batch: &Batch,
) -> Response {
    match bound(shared, tenant) {
        Ok(tenant) => {
            let payloads: Vec<&str> = batch.payloads.iter().map(|p| p.as_ref()).collect();
            let trace = batch.trace.as_ref();
            handle_select(shared, &tenant, conn, &batch.features, &payloads, trace)
        }
        Err(detail) => Response::Error { detail },
    }
}

/// Primary answers off a wait-free pointer load; the tenant's shadow (if
/// staged) mirrors *outside* any lock. A shadow whose drift monitor
/// trips — or that cannot score the traffic at all — is auto-rejected
/// afterwards, guarded by `staged_seq` so a newer shadow staged
/// concurrently is never the one dropped. Mirroring a shadow that was
/// replaced while we scored it is harmless: its agreement record dies
/// with its `Arc`.
fn handle_select(
    shared: &Shared,
    tenant: &Tenant,
    conn: u64,
    features: &[FeatureVector],
    payloads: &[&str],
    trace: Option<&TraceContext>,
) -> Response {
    // The recorder tap sees the request *before* it is served: a replay
    // must re-pose exactly what arrived, including batches the primary
    // goes on to refuse. The payloads reach both logs as the same printed
    // text. The trace context rides along so a replayed recording
    // reproduces the same trace ids.
    let tap_ns = tenant.recorder.as_ref().map_or(0, |recorder| {
        let tap_start = Instant::now();
        let body = PrintedBody::Select {
            features,
            payloads,
            trace,
        };
        recorder.record_printed(&tenant.name, conn, body);
        elapsed_ns(tap_start)
    });
    let primary = tenant.primary.load();
    let selected = primary.select_vector_batch_printed(features, payloads, trace);
    if tenant.recorder.is_some() || tenant.trace.is_some() {
        let append_ns = tenant.trace.as_ref().map_or(0, |journal| journal.take_ns());
        shared.obs.log_append.record(tap_ns + append_ns);
    }
    let selections = match selected {
        Ok(s) => s,
        Err(e) => {
            return Response::Error {
                detail: e.to_string(),
            }
        }
    };
    let staged = {
        let slot = lock_unpoisoned(&tenant.shadow);
        slot.shadow
            .as_ref()
            .map(|s| (Arc::clone(s), slot.staged_seq))
    };
    if let Some((shadow, seq)) = staged {
        let mirror_start = Instant::now();
        let tripped = shadow.mirror(features, &selections).unwrap_or(true);
        let mirror_ns = elapsed_ns(mirror_start);
        shared.obs.mirror.record(mirror_ns);
        if let (Some(ctx), Some(spans)) = (
            trace.filter(|c| c.sampled && c.trace_id != 0),
            &shared.obs.spans,
        ) {
            spans.record(
                &Span::new(
                    ctx.trace_id,
                    shared.obs.minter.next(),
                    ctx.parent_span,
                    "stage.shadow_mirror",
                    &tenant.name,
                )
                .annotate("tripped", tripped)
                .lasting(mirror_ns),
            );
        }
        if tripped {
            let mut slot = lock_unpoisoned(&tenant.shadow);
            if slot.staged_seq == seq && slot.shadow.is_some() {
                slot.shadow = None;
                tenant.shadow_rejections.fetch_add(1, Ordering::AcqRel);
                if let Some(events) = &shared.obs.events {
                    events.record(
                        &tenant.name,
                        shadow.service.artifact().revision,
                        EventKind::ShadowAutoRejected {
                            trip_rate: shadow.service.trip_rate(),
                        },
                    );
                }
            }
        }
    }
    Response::Selections { selections }
}

/// Stages a candidate artifact as the tenant's shadow (replacing any
/// previous stage). The candidate must parse (any readable schema
/// version), fit the tenant's benchmark and feature declaration, and
/// pass shape validation. Validation and service construction happen
/// before the slot lock is taken — staging never blocks the select path
/// for longer than a pointer assignment.
fn handle_load(shared: &Shared, tenant: &Tenant, document: &str) -> Response {
    let artifact = match ModelArtifact::from_document(document) {
        Ok(a) => a,
        Err(e) => {
            return Response::Error {
                detail: e.to_string(),
            }
        }
    };
    let primary = tenant.primary.load();
    let primary_artifact = primary.artifact();
    if artifact.benchmark != primary_artifact.benchmark {
        return Response::Error {
            detail: format!(
                "staged artifact serves `{}`, this tenant serves `{}`",
                artifact.benchmark, primary_artifact.benchmark
            ),
        };
    }
    if artifact.feature_defs != primary_artifact.feature_defs {
        return Response::Error {
            detail: "staged artifact declares a different feature space; \
                     it cannot score this tenant's traffic"
                .to_string(),
        };
    }
    let benchmark = artifact.benchmark.clone();
    let revision = artifact.revision;
    let trained_inputs = artifact.trained_inputs;
    let landmarks = primary.landmarks().len();
    match VectorService::new(artifact, shared.opts.shadow_serve.clone()) {
        Ok(service) => {
            let mut slot = lock_unpoisoned(&tenant.shadow);
            slot.shadow = Some(Arc::new(ShadowState::new(service, landmarks)));
            slot.staged_seq += 1;
            drop(slot);
            if let Some(events) = &shared.obs.events {
                events.record(
                    &tenant.name,
                    revision,
                    EventKind::ShadowStaged { trained_inputs },
                );
            }
            Response::Loaded {
                benchmark,
                revision,
            }
        }
        Err(e) => Response::Error {
            detail: e.to_string(),
        },
    }
}

/// Promotes the tenant's staged shadow behind the policy gate. The
/// promoted artifact becomes a fresh primary (counters zeroed),
/// published with a single pointer store — in-flight selects finish on
/// the old primary they already loaded; every later select sees the new
/// one. Refusal leaves the shadow staged; a revalidation failure drops
/// it (it could not be promoted and can no longer be trusted staged).
fn handle_promote(shared: &Shared, tenant: &Tenant) -> Response {
    let mut slot = lock_unpoisoned(&tenant.shadow);
    let Some(shadow) = slot.shadow.take() else {
        return Response::Error {
            detail: "no shadow artifact is staged".to_string(),
        };
    };
    if let Err(reason) = shadow.promotable(&shared.opts.shadow) {
        if let Some(events) = &shared.obs.events {
            events.record(
                &tenant.name,
                shadow.service.artifact().revision,
                EventKind::PromoteRejected {
                    reason: reason.clone(),
                },
            );
        }
        slot.shadow = Some(shadow);
        return Response::Error { detail: reason };
    }
    // The gating counters that justified this promotion, captured before
    // the shadow's record dies with its `Arc` — they ride on the event.
    let gate = shadow.stats();
    let artifact = shadow.service.artifact().clone();
    let revision = artifact.revision;
    match VectorService::new(artifact, shared.opts.serve.clone()) {
        Ok(mut primary) => {
            // The journal follows the primary role, not the artifact: a
            // promoted revision keeps feeding the tenant's trace sink.
            // So does the event log (drift trips, fallback recoveries).
            primary.set_trace(tenant.trace.clone().map(|t| t as Arc<dyn TraceSink>));
            primary.set_events(shared.obs.events.clone());
            primary.set_spans(shared.opts.spans.clone());
            tenant.primary.store(Arc::new(primary));
            tenant.promotions.fetch_add(1, Ordering::AcqRel);
            if let Some(events) = &shared.obs.events {
                events.record(
                    &tenant.name,
                    revision,
                    EventKind::Promoted {
                        mirrored: gate.mirrored,
                        agreed: gate.agreed,
                        agreement_rate: gate.agreement_rate,
                    },
                );
            }
            Response::Promoted { revision }
        }
        Err(e) => {
            let detail = format!("promoted artifact failed revalidation: {e}");
            if let Some(events) = &shared.obs.events {
                events.record(
                    &tenant.name,
                    revision,
                    EventKind::PromoteRejected {
                        reason: detail.clone(),
                    },
                );
            }
            Response::Error { detail }
        }
    }
}

/// Assembles a `Stats` reply for one tenant.
fn snapshot(shared: &Shared, tenant: &Tenant) -> DaemonStats {
    let primary = tenant.primary.load();
    let shadow_stats = lock_unpoisoned(&tenant.shadow)
        .shadow
        .as_ref()
        .map(|s| ShadowState::stats(s));
    DaemonStats {
        benchmark: primary.artifact().benchmark.clone(),
        revision: primary.artifact().revision,
        primary: primary.stats(),
        shadow: shadow_stats,
        shadow_rejections: tenant.shadow_rejections.load(Ordering::Acquire),
        promotions: tenant.promotions.load(Ordering::Acquire),
        connections: shared.connections.load(Ordering::Acquire),
        journaled: tenant
            .trace
            .as_ref()
            .map(|sink| sink.appended())
            .unwrap_or(0),
        journal_dropped: tenant
            .trace
            .as_ref()
            .map(|sink| sink.dropped())
            .unwrap_or(0),
        recorded: tenant
            .recorder
            .as_ref()
            .map(|sink| sink.appended())
            .unwrap_or(0),
        recorded_dropped: tenant
            .recorder
            .as_ref()
            .map(|sink| sink.dropped())
            .unwrap_or(0),
        tenants: shared.registry.len() as u64,
        latency: LatencySummary::of(&tenant.obs.latency.snapshot()),
    }
}

/// Assembles the daemon-wide `Metrics` reply: stage timings plus every
/// tenant's counters, all read from wait-free snapshots.
fn metrics_snapshot(shared: &Shared) -> MetricsSnapshot {
    let summarize = |h: &Histogram| LatencySummary::of(&h.snapshot());
    MetricsSnapshot {
        stages: StageTimings {
            decode: summarize(&shared.obs.decode),
            select: summarize(&shared.obs.select),
            log_append: summarize(&shared.obs.log_append),
            mirror: summarize(&shared.obs.mirror),
            encode: summarize(&shared.obs.encode),
            queued_write: summarize(&shared.obs.queued_write),
        },
        tenants: shared
            .registry
            .tenants()
            .iter()
            .map(|tenant| {
                let primary = tenant.primary.load();
                let latency = tenant.obs.latency.snapshot();
                TenantMetrics {
                    benchmark: tenant.name.clone(),
                    revision: primary.artifact().revision,
                    requests: tenant.obs.requests.get(),
                    selections: tenant.obs.selections.get(),
                    exemplar: latency
                        .slowest_exemplar()
                        .map(|(value_ns, trace_id)| LatencyExemplar { trace_id, value_ns }),
                    latency: LatencySummary::of(&latency),
                    promotions: tenant.promotions.load(Ordering::Acquire),
                    shadow_rejections: tenant.shadow_rejections.load(Ordering::Acquire),
                    journal_dropped: tenant.trace.as_ref().map_or(0, |sink| sink.dropped()),
                    recorded_dropped: tenant.recorder.as_ref().map_or(0, |sink| sink.dropped()),
                }
            })
            .collect(),
        connections: shared.connections.load(Ordering::Acquire),
        events_appended: shared
            .obs
            .events
            .as_ref()
            .map(|log| log.appended())
            .unwrap_or(0),
        events_dropped: shared
            .obs
            .events
            .as_ref()
            .map(|log| log.dropped())
            .unwrap_or(0),
        spans_dropped: shared.obs.spans.as_ref().map_or(0, |log| log.dropped()),
    }
}

/// Renders the metrics snapshot as the Prometheus 0.0.4 text body the
/// `--metrics` scrape endpoint serves.
fn render_metrics_text(shared: &Shared) -> String {
    let mut expo = TextExposition::new();
    for tenant in shared.registry.tenants() {
        let name = tenant.name.as_str();
        expo.counter(
            "intune_requests_total",
            &[("tenant", name)],
            tenant.obs.requests.get(),
        );
        expo.counter(
            "intune_selections_total",
            &[("tenant", name)],
            tenant.obs.selections.get(),
        );
        expo.summary_seconds_with_exemplar(
            "intune_request_seconds",
            &[("tenant", name)],
            &tenant.obs.latency.snapshot(),
        );
        expo.counter(
            "intune_promotions_total",
            &[("tenant", name)],
            tenant.promotions.load(Ordering::Acquire),
        );
        expo.counter(
            "intune_shadow_rejections_total",
            &[("tenant", name)],
            tenant.shadow_rejections.load(Ordering::Acquire),
        );
        // As in `Stats`: 0 for a tenant without a journal or recorder.
        expo.counter(
            "intune_journal_dropped_total",
            &[("tenant", name)],
            tenant.trace.as_ref().map_or(0, |sink| sink.dropped()),
        );
        expo.counter(
            "intune_recorded_dropped_total",
            &[("tenant", name)],
            tenant.recorder.as_ref().map_or(0, |sink| sink.dropped()),
        );
    }
    for (stage, histogram) in [
        ("decode", &shared.obs.decode),
        ("select", &shared.obs.select),
        ("log_append", &shared.obs.log_append),
        ("mirror", &shared.obs.mirror),
        ("encode", &shared.obs.encode),
        ("queued_write", &shared.obs.queued_write),
    ] {
        expo.summary_seconds(
            "intune_stage_seconds",
            &[("stage", stage)],
            &histogram.snapshot(),
        );
    }
    expo.counter(
        "intune_connections_total",
        &[],
        shared.connections.load(Ordering::Acquire),
    );
    if let Some(log) = &shared.obs.events {
        expo.counter("intune_events_appended_total", &[], log.appended());
        expo.counter("intune_events_dropped_total", &[], log.dropped());
    }
    if let Some(spans) = &shared.obs.spans {
        expo.counter("intune_spans_dropped_total", &[], spans.dropped());
    }
    expo.gauge("intune_tenants", &[], shared.registry.len() as f64);
    expo.finish()
}
