//! The record/replay baseline behind `daemon_bench --replay`
//! (`BENCH_replay.json`).
//!
//! Train one Table-1 case at micro scale, serve it from a recording
//! daemon (`DaemonOptions::record`), hammer it with N wire clients, then
//! shut the daemon down and **replay the captured traffic twice** against
//! two fresh in-process services built from the very same artifact. The
//! two transcripts are compared byte-wise: `diverged` is 0 when serving
//! is deterministic — the document's load-bearing figure, asserted by CI.
//! Capture counts and replay counts are deterministic; wall-clock figures
//! are environment-dependent.

use crate::report;
use intune_core::{Benchmark, FeatureVector};
use intune_daemon::{Daemon, DaemonClient, DaemonOptions, ListenConfig, TenantSpec};
use intune_datalog::{
    divergence, load_recording, replay, RecorderSink, RecordingOptions, ReplayOptions,
};
use intune_eval::{visit_case, CaseVisitor, SuiteConfig, TestCase};
use intune_exec::Engine;
use intune_learning::pipeline::learn;
use intune_learning::TwoLevelOptions;
use intune_serve::{ModelArtifact, ServeOptions, VectorService, ARTIFACT_VERSION};
use serde_json::Value;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Knobs of the record/replay round trip.
#[derive(Debug, Clone)]
pub struct ReplayBenchConfig {
    /// Suite scale used for training the served artifact.
    pub suite: SuiteConfig,
    /// The case whose artifact is served and recorded.
    pub case: TestCase,
    /// Concurrent client threads during the capture phase.
    pub clients: usize,
    /// `SelectBatch` requests per client.
    pub batches_per_client: usize,
}

/// The measured outcome (see module docs for what is deterministic).
#[derive(Debug, Clone)]
pub struct ReplayBenchResult {
    /// `SelectBatch` frames sent during capture.
    pub requests: u64,
    /// Selections answered during capture.
    pub selections: u64,
    /// Frames the recorder captured (requests + handshakes).
    pub recorded_frames: u64,
    /// Frames the recorder dropped (must be 0).
    pub recorded_dropped: u64,
    /// Wall time of the capture phase, milliseconds.
    pub capture_wall_ms: f64,
    /// Selection frames re-served per replay pass.
    pub replayed_frames: u64,
    /// Selections re-served per replay pass.
    pub replayed_selections: u64,
    /// Control frames skipped per replay pass.
    pub control_skipped: u64,
    /// Wall time of both replay passes, milliseconds.
    pub replay_wall_ms: f64,
    /// Selections whose two replays disagreed byte-wise (0 = serving is
    /// deterministic).
    pub diverged: u64,
}

/// Extracts the case's revision-1 artifact and the full feature vectors
/// of its held-out corpus (what wire clients ship).
struct ExportVisitor;

impl CaseVisitor for ExportVisitor {
    type Output = (ModelArtifact, Vec<FeatureVector>);

    fn visit<B: Benchmark + Sync>(
        &mut self,
        _case: TestCase,
        benchmark: &B,
        train: &[B::Input],
        test: &[B::Input],
        opts: &TwoLevelOptions,
        engine: &Engine,
    ) -> intune_core::Result<(ModelArtifact, Vec<FeatureVector>)>
    where
        B::Input: Sync,
    {
        let result = learn(benchmark, train, opts, engine)?;
        let artifact = ModelArtifact::export(benchmark, &result).with_revision(1);
        let features = test.iter().map(|i| benchmark.extract_all(i)).collect();
        Ok((artifact, features))
    }
}

/// A scratch recording directory, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new() -> ScratchDir {
        let dir = std::env::temp_dir().join(format!(
            "intune-replay-bench-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("scratch dir");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Runs the round trip end to end (train → record under load → replay
/// the capture twice in-process → compare byte-wise).
///
/// # Panics
/// Panics if training, the daemon, any client, or either replay fails —
/// baseline emitters want loud failures.
pub fn replay_baseline(cfg: &ReplayBenchConfig) -> ReplayBenchResult {
    let engine = Engine::serial();
    let (artifact, features) =
        visit_case(cfg.case, &cfg.suite, &engine, &mut ExportVisitor).expect("training failed");
    let tenant = artifact.benchmark.clone();
    let scratch = ScratchDir::new();
    let sink = Arc::new(
        RecorderSink::open(&scratch.0, RecordingOptions::default()).expect("recorder open"),
    );

    let serve = ServeOptions {
        // Never strictly exceeded: the fallback policy stays off, so the
        // capture is pure classifier output regardless of drift-counter
        // interleaving across client threads.
        drift_threshold: 1.0,
        ..ServeOptions::default()
    };
    let daemon = Daemon::bind_tenants(
        vec![TenantSpec {
            artifact: artifact.clone(),
            trace: None,
            recorder: Some(sink.clone()),
            trace_sample: None,
        }],
        DaemonOptions {
            serve: serve.clone(),
            trace: None,
            inject_faults: false,
            ..DaemonOptions::default()
        },
        &ListenConfig::default(),
    )
    .expect("daemon bind failed");
    let addr = daemon.tcp_addr().to_string();
    let handle = daemon.spawn();

    // Capture phase: N clients x R batches of the held-out corpus.
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..cfg.clients {
            let addr = &addr;
            let tenant = &tenant;
            let features = &features;
            scope.spawn(move || {
                let client = DaemonClient::connect_to(addr, tenant).expect("load client");
                for _ in 0..cfg.batches_per_client {
                    let selections = client.select_batch(features).expect("batch");
                    assert_eq!(selections.len(), features.len());
                }
            });
        }
    });
    let capture_wall = start.elapsed().as_secs_f64();
    let control = DaemonClient::connect_to(&addr, &tenant).expect("control client");
    control.shutdown().expect("shutdown");
    handle.join().expect("daemon exit");
    assert_eq!(sink.dropped(), 0, "recorder dropped frames under load");

    // Replay the capture twice against two fresh services built from the
    // same artifact; per-connection order is preserved, so a
    // deterministic server must reproduce itself byte for byte.
    let recording = load_recording(&scratch.0).expect("recording loads");
    assert_eq!(
        recording.torn_segments, 0,
        "clean shutdown leaves no torn tail"
    );
    let replay_start = Instant::now();
    let opts = ReplayOptions::default();
    let service_a = VectorService::new(artifact.clone(), serve.clone()).expect("service a");
    let outcome_a = replay(&recording.frames, &service_a, &opts).expect("replay a");
    let service_b = VectorService::new(artifact, serve).expect("service b");
    let outcome_b = replay(&recording.frames, &service_b, &opts).expect("replay b");
    let replay_wall = replay_start.elapsed().as_secs_f64();
    let report = divergence(&outcome_a, &outcome_b);

    let requests = (cfg.clients * cfg.batches_per_client) as u64;
    ReplayBenchResult {
        requests,
        selections: requests * features.len() as u64,
        recorded_frames: sink.appended(),
        recorded_dropped: sink.dropped(),
        capture_wall_ms: capture_wall * 1e3,
        replayed_frames: outcome_a.results.len() as u64,
        replayed_selections: outcome_a.selections(),
        control_skipped: outcome_a.control_skipped,
        replay_wall_ms: replay_wall * 1e3,
        diverged: report.diverged,
    }
}

/// Renders the result as the `BENCH_replay.json` document (through
/// [`report`]: sorted keys, trailing newline).
pub fn replay_baseline_json(cfg: &ReplayBenchConfig, r: &ReplayBenchResult) -> String {
    let doc = report::obj(vec![
        ("schema", Value::String("intune-bench-replay/1".into())),
        ("artifact_version", Value::UInt(ARTIFACT_VERSION as u64)),
        ("case", Value::String(cfg.case.name().into())),
        ("clients", Value::UInt(cfg.clients as u64)),
        (
            "batches_per_client",
            Value::UInt(cfg.batches_per_client as u64),
        ),
        ("requests", Value::UInt(r.requests)),
        ("selections", Value::UInt(r.selections)),
        ("recorded_frames", Value::UInt(r.recorded_frames)),
        ("recorded_dropped", Value::UInt(r.recorded_dropped)),
        ("capture_wall_ms", report::ms(r.capture_wall_ms)),
        ("replayed_frames", Value::UInt(r.replayed_frames)),
        ("replayed_selections", Value::UInt(r.replayed_selections)),
        ("control_skipped", Value::UInt(r.control_skipped)),
        ("replay_wall_ms", report::ms(r.replay_wall_ms)),
        ("diverged", Value::UInt(r.diverged)),
    ]);
    report::render(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::micro_config;

    fn tiny() -> ReplayBenchConfig {
        ReplayBenchConfig {
            suite: micro_config(),
            case: TestCase::Sort2,
            clients: 3,
            batches_per_client: 2,
        }
    }

    #[test]
    fn replay_baseline_round_trips_with_zero_divergence() {
        let cfg = tiny();
        let r = replay_baseline(&cfg);
        let batch = cfg.suite.test as u64;
        assert_eq!(r.requests, 6);
        assert_eq!(r.selections, 6 * batch);
        // 3 Hello handshakes + 6 batches + 1 control-client Hello.
        assert_eq!(r.recorded_frames, 10);
        assert_eq!(r.recorded_dropped, 0);
        assert_eq!(r.replayed_frames, 6, "controls are skipped in replay");
        assert_eq!(r.replayed_selections, r.selections);
        assert_eq!(r.control_skipped, 4);
        assert_eq!(r.diverged, 0, "same artifact must replay identically");
    }

    #[test]
    fn replay_json_has_stable_schema() {
        let cfg = tiny();
        let r = replay_baseline(&cfg);
        let json = replay_baseline_json(&cfg, &r);
        for key in [
            "\"schema\": \"intune-bench-replay/1\"",
            "\"case\": \"sort2\"",
            "\"recorded_frames\": 10",
            "\"recorded_dropped\": 0",
            "\"diverged\": 0",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let reparsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(crate::report::render(&reparsed), json);
    }
}
