//! # intune_obs — the unified observability layer
//!
//! The paper's claim (input-adaptive selection beats any fixed
//! configuration) is only auditable in production if the system can
//! show its selection behaviour live. This crate is the shared
//! substrate every layer records into:
//!
//! - **[`Counter`]** — sharded relaxed-atomic event counters and
//!   **[`Histogram`]** — log-bucketed latency histograms with
//!   p50/p90/p99/p999 readout ([`LatencySummary`]). Both are wait-free
//!   on the record path: no locks, no CAS loops, so hot-path recording
//!   cannot perturb the lock-free `ArcSwap` serving design.
//! - **[`EventLog`]** — a crash-tolerant structured log of lifecycle
//!   events (tenant bind, shadow stage, promote/reject with gating
//!   counters, drift trip, fallback recovery, retrain cycle outcome)
//!   on the same checksummed record framing as the selection journal
//!   (`intune_core::codec::encode_record`/`scan_records`).
//! - **[`expo::TextExposition`]** — Prometheus-style text rendering for
//!   the daemon's `--metrics` HTTP scrape endpoint.
//! - **[`trace`]** — sampled per-request span capture ([`Span`] /
//!   [`SpanLog`] / [`Sampler`]): the causality layer that links one
//!   request's client call, wire hop, daemon stages, and selection into
//!   a single trace id, persisted with the same crash-tolerant framing
//!   as the event log.
//!
//! The `intune_obs_dump` bin renders a recorded event log as a
//! human-readable timeline; `intune_trace` reconstructs trace trees
//! from span logs. See `crates/obs/README.md` for the on-disk record
//! schemas and the exposition format spec.

pub mod counter;
pub mod events;
pub mod expo;
pub mod histogram;
pub mod timefmt;
pub mod trace;

pub use counter::Counter;
pub use events::{
    read_events, scan_events, Event, EventKind, EventLog, EVENT_SCHEMA, EVENT_VERSION,
};
pub use expo::TextExposition;
pub use histogram::{
    bucket_bounds, bucket_index, Histogram, HistogramSnapshot, LatencySummary, NUM_BUCKETS,
    SUB_BUCKETS,
};
pub use trace::{
    read_span_dir, read_spans, scan_spans, IdMinter, Sampler, Span, SpanLog, SPAN_LOG_SUFFIX,
    SPAN_SCHEMA, SPAN_VERSION,
};
