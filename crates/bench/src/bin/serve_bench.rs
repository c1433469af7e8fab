//! Emits the `BENCH_serve.json` serving-path baseline: per-case selector
//! throughput over reloaded model artifacts, batch shapes, and the
//! drift-monitor / fallback counters.
//!
//! ```text
//! cargo run --release -p intune_bench --bin serve_bench [-- OUT.json]
//! ```
//!
//! Selection runs on the calling thread. Throughput numbers are
//! environment-dependent; selection counts and drift counters are
//! deterministic for a given scale.

use intune_bench::{serve_baseline, serve_baseline_json, ServeBenchConfig};
use intune_eval::{SuiteConfig, TestCase};

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_serve.json".to_string());
    let cfg = ServeBenchConfig {
        suite: SuiteConfig::micro(),
        rounds: 64,
        // Production-representative drift-probe cadence: 1-in-16
        // requests pay the full-vector extraction + centroid distance.
        // Probing never changes the served landmark, so throughput is
        // the only number this moves; the cadence is recorded in the
        // report for cross-PR attribution.
        probe_every: 16,
    };
    eprintln!(
        "serving {} cases at micro scale ({} rounds x {} inputs)...",
        TestCase::all().len(),
        cfg.rounds,
        cfg.suite.test
    );
    let cases = serve_baseline(&cfg, &TestCase::all());
    let json = serve_baseline_json(cfg.probe_every, &cases);
    std::fs::write(&out_path, &json).expect("write baseline json");
    print!("{json}");
    eprintln!("wrote {out_path}");
}
