//! # intune-bench
//!
//! The two load generators behind the committed serving baselines. Each
//! binary writes a machine-readable document (rendered by [`report`]:
//! sorted keys, trailing newline) whose throughput CI holds against the
//! committed copy:
//!
//! * `serve_bench` → `BENCH_serve.json` — selector-service throughput
//!   (selections/sec), batch sizes, and drift/fallback counters over
//!   reloaded model artifacts ([`serve_baseline`]);
//! * `daemon_bench` → `BENCH_daemon.json` — wire-protocol load test
//!   against a live `intune_daemon`: N client threads × batched
//!   requests, p50/p95 frame latency, shadow agreement
//!   ([`daemon_baseline`]).
//!
//! Both train their artifacts at [`intune_eval::SuiteConfig::micro`]
//! scale. The repository benchmark with end-to-end and per-layer
//! metrics is `perfbench/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod daemon_baseline;
pub mod report;
mod serve_baseline;

pub use daemon_baseline::{
    daemon_baseline, daemon_baseline_json, DaemonBenchConfig, DaemonBenchResult, LatencyHistogram,
    TenantBenchResult,
};
pub use serve_baseline::{
    serve_baseline, serve_baseline_json, ServeBenchConfig, ServeCaseBaseline,
};
