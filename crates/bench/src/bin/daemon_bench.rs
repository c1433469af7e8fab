//! Emits the `BENCH_daemon.json` wire-protocol baseline: hundreds of
//! client threads, round-robined across two tenant benchmarks, hammer a
//! single multi-tenant `intune_daemon` event loop over loopback TCP with
//! batched selection requests while identical shadow artifacts mirror
//! every tenant's traffic; then each shadow is promoted and the daemon
//! shut down.
//!
//! ```text
//! cargo run --release -p intune_bench --bin daemon_bench [-- OUT.json]
//! cargo run --release -p intune_bench --bin daemon_bench -- --journal [OUT.json]
//! cargo run --release -p intune_bench --bin daemon_bench -- --replay [OUT.json]
//! ```
//!
//! With `--journal` the bench instead exercises the **continuous-learning
//! loop** and emits `BENCH_retrain.json`: traced requests (features +
//! raw-input payloads) fill a request journal, the journal compacts into
//! a corpus, a retrain warm-started from the base training cache pushes
//! revision 1, and the shadow gate promotes it. Journal/compaction/cell
//! counts are deterministic; wall-clock figures are environment-dependent.
//!
//! With `--replay` the bench exercises the **record/replay subsystem**
//! and emits `BENCH_replay.json`: a recording daemon captures the wire
//! traffic of the load phase, the capture is replayed twice in-process
//! against the same artifact, and the transcripts are compared byte-wise
//! — `"diverged": 0` is the document's load-bearing (CI-asserted) figure.
//!
//! The daemon serves every request inline on its event-loop thread. The
//! committed baselines use 256 clients × 8 batches spread over the
//! sort2 + binpacking tenants (daemon) and 4 clients × 8 traced batches
//! of the sort2 micro corpus (retrain).

use intune_bench::{
    daemon_baseline, daemon_baseline_json, micro_config, replay_baseline, replay_baseline_json,
    retrain_baseline, retrain_baseline_json, DaemonBenchConfig, ReplayBenchConfig,
    RetrainBenchConfig,
};
use intune_eval::TestCase;

fn main() {
    let mut journal = false;
    let mut wire_replay = false;
    let mut out_path: Option<String> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--journal" => journal = true,
            "--replay" => wire_replay = true,
            other if other.starts_with("--") => {
                eprintln!("error: unknown flag {other}");
                eprintln!("usage: daemon_bench [--journal | --replay] [OUT.json]");
                std::process::exit(2);
            }
            other => out_path = Some(other.to_string()),
        }
    }
    if journal && wire_replay {
        eprintln!("error: --journal and --replay are mutually exclusive");
        std::process::exit(2);
    }

    if wire_replay {
        let out_path = out_path.unwrap_or_else(|| "BENCH_replay.json".to_string());
        let cfg = ReplayBenchConfig {
            suite: micro_config(),
            case: TestCase::Sort2,
            clients: 4,
            batches_per_client: 8,
        };
        eprintln!(
            "record/replay round trip: {} x {} batches of {} vectors...",
            cfg.clients, cfg.batches_per_client, cfg.suite.test
        );
        let result = replay_baseline(&cfg);
        let json = replay_baseline_json(&cfg, &result);
        std::fs::write(&out_path, &json).expect("write baseline json");
        print!("{json}");
        eprintln!("wrote {out_path}");
        if result.diverged != 0 {
            eprintln!(
                "error: {} selections diverged between replays",
                result.diverged
            );
            std::process::exit(4);
        }
        return;
    }

    if journal {
        let out_path = out_path.unwrap_or_else(|| "BENCH_retrain.json".to_string());
        let cfg = RetrainBenchConfig {
            suite: micro_config(),
            case: TestCase::Sort2,
            clients: 4,
            batches_per_client: 8,
        };
        eprintln!(
            "continuous-learning load test: {} x {} traced batches of {} vectors...",
            cfg.clients, cfg.batches_per_client, cfg.suite.test
        );
        let result = retrain_baseline(&cfg);
        let json = retrain_baseline_json(&cfg, &result);
        std::fs::write(&out_path, &json).expect("write baseline json");
        print!("{json}");
        eprintln!("wrote {out_path}");
        return;
    }

    let out_path = out_path.unwrap_or_else(|| "BENCH_daemon.json".to_string());
    let cfg = DaemonBenchConfig {
        suite: micro_config(),
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
