//! The daemon's artifact registry: one serving **tenant** per benchmark.
//!
//! A multi-tenant daemon serves several benchmarks out of one event loop.
//! Each tenant owns the full single-benchmark serving state the daemon
//! had before multi-tenancy: a lock-free primary slot, a staged-shadow
//! slot with its promotion counters, and an optional request journal.
//! Connections bind to a tenant at `Hello { benchmark }` time and every
//! stateful request (`SelectBatch`, `LoadArtifact`, `Promote`, `Stats`)
//! is routed through that binding — two tenants' lifecycles never
//! interact.

use crate::server::elapsed_ns;
use crate::shadow::ShadowState;
use arc_swap::ArcSwap;
use intune_core::{Error, FeatureVector, Result};
use intune_datalog::RecorderSink;
use intune_obs::{Counter, EventLog, Histogram, Sampler, SpanLog};
use intune_serve::{ModelArtifact, Selection, ServeOptions, TraceSink, VectorService};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What one tenant serves: its initial artifact and (optionally) its own
/// request journal. Every tenant gets a *separate* trace sink on purpose
/// — the retrainer consumes one journal per benchmark, and writing two
/// tenants' traffic into one sink would interleave corpora.
pub struct TenantSpec {
    /// The initial primary artifact; its `benchmark` names the tenant.
    pub artifact: ModelArtifact,
    /// Optional request journal attached to this tenant's primary — the
    /// initial artifact and each promoted successor. Staged shadows are
    /// never traced: mirror traffic is an echo of the primary's, and
    /// journaling it twice would poison the retraining corpus with
    /// duplicates.
    pub trace: Option<Arc<dyn TraceSink>>,
    /// Optional wire-traffic recorder: every inbound request frame for
    /// this tenant is captured into an `intune-datalog/1` recording
    /// (per-tenant for the same reason traces are — replay and
    /// divergence checks consume one recording per benchmark).
    pub recorder: Option<Arc<RecorderSink>>,
    /// Per-tenant trace-sampling override: `Some(n)` samples 1-in-`n` of
    /// this tenant's un-traced batch requests (`Some(0)` = never),
    /// overriding the daemon-wide `--trace-sample` rate. `None` falls
    /// through to the daemon's sampler.
    pub trace_sample: Option<u64>,
}

impl std::fmt::Debug for TenantSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantSpec")
            .field("benchmark", &self.artifact.benchmark)
            .field("revision", &self.artifact.revision)
            .field("trace", &self.trace.as_ref().map(|_| "<sink>"))
            .field("recorder", &self.recorder.as_ref().map(|_| "<sink>"))
            .field("trace_sample", &self.trace_sample)
            .finish()
    }
}

/// The staged shadow, guarded by a (briefly held) mutex. `staged_seq`
/// identifies the current shadow so a concurrent auto-reject never drops
/// a *newer* shadow staged in between: mirroring happens outside the
/// lock, and the rejection only lands if the slot still holds the same
/// generation the tripped mirror scored.
pub(crate) struct ShadowSlot {
    pub(crate) shadow: Option<Arc<ShadowState>>,
    pub(crate) staged_seq: u64,
}

/// One tenant's wait-free metrics, recorded on the select hot path.
/// They live *beside* the swappable primary, not inside it, so a
/// promotion never resets the tenant's request history and recording
/// never races the pointer store.
#[derive(Debug, Default)]
pub(crate) struct TenantObs {
    /// Selection request frames served (one per `SelectBatch` frame).
    pub(crate) requests: Counter,
    /// Individual selections answered (a batch of B counts B).
    pub(crate) selections: Counter,
    /// End-to-end request latency in nanoseconds: frame decode through
    /// reply queueing.
    pub(crate) latency: Histogram,
}

/// A tenant's request journal with a clock on it: the primary appends
/// to the journal inside the selection, and the daemon's `log_append`
/// stage takes that time back out with [`TimedJournal::take_ns`] once
/// the selection returns. The event loop serves one frame at a time, so
/// what it takes is that frame's append.
pub(crate) struct TimedJournal {
    sink: Arc<dyn TraceSink>,
    /// Nanoseconds spent appending since the last take.
    ns: AtomicU64,
}

impl TimedJournal {
    fn new(sink: Arc<dyn TraceSink>) -> Self {
        TimedJournal {
            sink,
            ns: AtomicU64::new(0),
        }
    }

    /// The time spent appending since the last call, nanoseconds.
    pub(crate) fn take_ns(&self) -> u64 {
        self.ns.swap(0, Ordering::Relaxed)
    }
}

impl TraceSink for TimedJournal {
    fn record_batch_printed(
        &self,
        revision: u64,
        features: &[FeatureVector],
        payloads: &[&str],
        selections: &[Selection],
        trace_id: Option<u64>,
    ) {
        let start = Instant::now();
        self.sink
            .record_batch_printed(revision, features, payloads, selections, trace_id);
        self.ns.fetch_add(elapsed_ns(start), Ordering::Relaxed);
    }

    fn appended(&self) -> u64 {
        self.sink.appended()
    }

    fn dropped(&self) -> u64 {
        self.sink.dropped()
    }
}

/// One benchmark's serving state inside the daemon.
pub(crate) struct Tenant {
    /// `Benchmark::name()` — the registry key and the `Hello` routing
    /// token.
    pub(crate) name: String,
    /// The serving primary. Readers (`SelectBatch`, `Hello`, `Stats`)
    /// take a wait-free load; `Promote` publishes a replacement with one
    /// pointer store. No lock, so no lock to poison and no writer that
    /// can stall the hot path.
    pub(crate) primary: ArcSwap<VectorService>,
    pub(crate) shadow: Mutex<ShadowSlot>,
    pub(crate) shadow_rejections: AtomicU64,
    pub(crate) promotions: AtomicU64,
    /// This tenant's request journal; promoted primaries re-attach it.
    pub(crate) trace: Option<Arc<TimedJournal>>,
    /// This tenant's wire-traffic recorder (the `--record` tap).
    pub(crate) recorder: Option<Arc<RecorderSink>>,
    /// Per-tenant sampler overriding the daemon-wide one, if configured.
    pub(crate) sampler: Option<Sampler>,
    /// Per-tenant request metrics (counters + latency histogram).
    pub(crate) obs: TenantObs,
}

/// Benchmark name → tenant, in registration order.
///
/// Lookups are a linear scan: a daemon serves a handful of benchmarks,
/// not thousands, and the scan happens once per connection (at `Hello`),
/// not per request — after binding, a connection holds its tenant
/// directly.
pub(crate) struct ArtifactRegistry {
    tenants: Vec<Arc<Tenant>>,
}

impl ArtifactRegistry {
    /// Validates every spec and builds its serving primary.
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] for an inconsistent artifact and
    /// [`Error::Wire`] for an empty registry or a duplicate benchmark.
    pub(crate) fn build(
        specs: Vec<TenantSpec>,
        serve: &ServeOptions,
        events: Option<&Arc<EventLog>>,
        spans: Option<&Arc<SpanLog>>,
    ) -> Result<Self> {
        if specs.is_empty() {
            return Err(Error::wire("a daemon needs at least one tenant artifact"));
        }
        let mut tenants: Vec<Arc<Tenant>> = Vec::with_capacity(specs.len());
        for spec in specs {
            let name = spec.artifact.benchmark.clone();
            if tenants.iter().any(|t| t.name == name) {
                return Err(Error::wire(format!(
                    "two artifacts for benchmark `{name}`; one tenant per benchmark"
                )));
            }
            let mut primary = VectorService::new(spec.artifact, serve.clone())?;
            let trace = spec.trace.map(|sink| Arc::new(TimedJournal::new(sink)));
            primary.set_trace(trace.clone().map(|t| t as Arc<dyn TraceSink>));
            // The event log follows the primary role (drift trips and
            // fallback transitions are journaled per tenant); promoted
            // successors re-attach it in `handle_promote`.
            primary.set_events(events.cloned());
            // So does the span log: a traced request's `service.select`
            // span must keep landing after a promotion.
            primary.set_spans(spans.cloned());
            tenants.push(Arc::new(Tenant {
                name,
                primary: ArcSwap::from_pointee(primary),
                shadow: Mutex::new(ShadowSlot {
                    shadow: None,
                    staged_seq: 0,
                }),
                shadow_rejections: AtomicU64::new(0),
                promotions: AtomicU64::new(0),
                trace,
                recorder: spec.recorder,
                sampler: spec.trace_sample.map(Sampler::new),
                obs: TenantObs::default(),
            }));
        }
        Ok(ArtifactRegistry { tenants })
    }

    /// Every tenant, in registration order — the `Metrics` snapshot walk.
    pub(crate) fn tenants(&self) -> &[Arc<Tenant>] {
        &self.tenants
    }

    /// Registered benchmark count.
    pub(crate) fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Routes a `Hello` (or an un-bound request) to a tenant. The empty
    /// string means "the sole tenant" — the wire/2 behavior from before
    /// multi-tenancy — and is refused when the daemon serves several.
    ///
    /// # Errors
    /// A human-readable detail for the typed `Error` reply; the
    /// connection survives it.
    pub(crate) fn resolve(&self, benchmark: &str) -> std::result::Result<Arc<Tenant>, String> {
        if benchmark.is_empty() {
            return match self.tenants.as_slice() {
                [sole] => Ok(Arc::clone(sole)),
                _ => Err(format!(
                    "this daemon serves several benchmarks; say Hello naming one of: {}",
                    self.names().join(", ")
                )),
            };
        }
        self.tenants
            .iter()
            .find(|t| t.name == benchmark)
            .map(Arc::clone)
            .ok_or_else(|| {
                format!(
                    "unknown benchmark `{benchmark}`; this daemon serves: {}",
                    self.names().join(", ")
                )
            })
    }

    fn names(&self) -> Vec<&str> {
        self.tenants.iter().map(|t| t.name.as_str()).collect()
    }
}
