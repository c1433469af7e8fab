//! Emits the `BENCH_daemon.json` wire-protocol baseline: hundreds of
//! client threads, round-robined across two tenant benchmarks, hammer a
//! single multi-tenant `intune_daemon` event loop over loopback TCP with
//! batched selection requests while identical shadow artifacts mirror
//! every tenant's traffic; then each shadow is promoted and the daemon
//! shut down.
//!
//! ```text
//! cargo run --release -p intune_bench --bin daemon_bench [-- OUT.json]
//! ```
//!
//! The daemon serves every request inline on its event-loop thread. The
//! committed baseline uses 256 clients × 8 batches spread over the
//! sort2 + binpacking tenants (`BCLIENTS` and `BBATCH` override both).

use intune_bench::{daemon_baseline, daemon_baseline_json, DaemonBenchConfig};
use intune_eval::{SuiteConfig, TestCase};

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_daemon.json".to_string());
    if out_path.starts_with("--") {
        eprintln!("error: unknown flag {out_path}");
        eprintln!("usage: daemon_bench [OUT.json]");
        std::process::exit(2);
    }
    let cfg = DaemonBenchConfig {
        suite: SuiteConfig::micro(),
        cases: vec![TestCase::Sort2, TestCase::Binpacking],
        clients: std::env::var("BCLIENTS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(256),
        batches_per_client: std::env::var("BBATCH")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(8),
    };
    eprintln!(
        "daemon load test: {} clients over {} tenants x {} batches of {} vectors...",
        cfg.clients,
        cfg.cases.len(),
        cfg.batches_per_client,
        cfg.suite.test
    );
    let result = daemon_baseline(&cfg);
    let json = daemon_baseline_json(&result);
    std::fs::write(&out_path, &json).expect("write baseline json");
    print!("{json}");
    eprintln!("wrote {out_path}");
}
