//! The serving-path baseline behind `BENCH_serve.json`.
//!
//! For every Table-1 case: train at micro scale, export + save + reload
//! the model artifact (exercising the full persistence boundary), then
//! drive the [`SelectorService`] with repeated batches of the held-out
//! corpus, recording throughput (selections/sec — wall-clock, environment
//! dependent) and the drift counters (deterministic). A second,
//! forced-drift pass (negative radius bound → every input
//! out-of-distribution) verifies the fallback policy engages and counts
//! its selections.

use intune_core::Benchmark;
use intune_eval::{visit_case, CaseVisitor, SuiteConfig, TestCase};
use intune_exec::Engine;
use intune_learning::pipeline::learn;
use intune_learning::TwoLevelOptions;
use intune_serve::{ModelArtifact, SelectorService, ServeOptions};
use std::path::PathBuf;
use std::time::Instant;

/// One case's contribution to the `BENCH_serve.json` baseline.
#[derive(Debug, Clone)]
pub struct ServeCaseBaseline {
    /// Table-1 case name.
    pub name: String,
    /// Production classifier kind serving the case.
    pub classifier: String,
    /// Selection requests answered in the throughput pass.
    pub selections: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Inputs per batch.
    pub batch_size: u64,
    /// Wall time of the throughput pass, milliseconds.
    pub wall_ms: f64,
    /// Selections per second (wall-clock; environment dependent).
    pub selections_per_sec: f64,
    /// Out-of-distribution count on the held-out corpus (deterministic).
    pub ood: u64,
    /// OOD fraction among probed requests (deterministic).
    pub drift_fraction: f64,
    /// OOD count under the forced-drift pass (deterministic; equals the
    /// probed count by construction).
    pub forced_ood: u64,
    /// Fallback selections served once the forced drift tripped.
    pub forced_fallbacks: u64,
    /// Whether the fallback policy ended the forced pass engaged.
    pub fallback_engaged: bool,
}

/// Knobs of the serving baseline.
#[derive(Debug, Clone)]
pub struct ServeBenchConfig {
    /// Suite scale used for training.
    pub suite: SuiteConfig,
    /// Batches dispatched in the throughput pass.
    pub rounds: usize,
    /// Service worker threads.
    pub threads: usize,
    /// Drift-probe cadence of the throughput pass
    /// ([`ServeOptions::probe_every`]). Probing is monitoring overhead —
    /// it never changes which landmark is served — so the baseline runs
    /// at a production-representative sampling rate rather than probing
    /// every request; the cadence is recorded in the report. The
    /// forced-drift pass always probes everything (cadence 1) so its
    /// counters stay exhaustive.
    pub probe_every: usize,
    /// Where artifacts are written (and reloaded from).
    pub artifact_dir: PathBuf,
}

struct ServeBenchVisitor<'a> {
    cfg: &'a ServeBenchConfig,
}

impl CaseVisitor for ServeBenchVisitor<'_> {
    type Output = ServeCaseBaseline;

    fn visit<B: Benchmark + Sync>(
        &mut self,
        case: TestCase,
        benchmark: &B,
        train: &[B::Input],
        test: &[B::Input],
        opts: &TwoLevelOptions,
        engine: &Engine,
    ) -> intune_core::Result<ServeCaseBaseline>
    where
        B::Input: Sync,
    {
        // Train → export → save → load: the serving pass below runs on
        // the *reloaded* artifact, so the baseline exercises persistence.
        let result = learn(benchmark, train, opts, engine)?;
        let path = self
            .cfg
            .artifact_dir
            .join(format!("{}.model.json", case.name()));
        ModelArtifact::export(benchmark, &result).save(&path)?;
        let artifact = ModelArtifact::load(&path)?;
        let classifier = artifact.classifier.kind().to_string();

        // Throughput pass on the held-out corpus.
        let service = SelectorService::new(
            benchmark,
            artifact.clone(),
            ServeOptions {
                threads: self.cfg.threads,
                probe_every: self.cfg.probe_every,
                ..ServeOptions::default()
            },
        )?;
        let start = Instant::now();
        for _ in 0..self.cfg.rounds {
            service.select_batch(test);
        }
        let wall = start.elapsed().as_secs_f64();
        let stats = service.stats();

        // Forced-drift pass: every probe is OOD, the threshold trips
        // after the first batch, the second batch serves the fallback.
        let forced = SelectorService::new(
            benchmark,
            artifact,
            ServeOptions {
                threads: self.cfg.threads,
                radius_factor: -1.0,
                drift_threshold: 0.1,
                min_observations: 1,
                ..ServeOptions::default()
            },
        )?;
        forced.select_batch(test);
        forced.select_batch(test);
        let forced_stats = forced.stats();

        Ok(ServeCaseBaseline {
            name: case.name().to_string(),
            classifier,
            selections: stats.requests,
            batches: stats.batches,
            batch_size: test.len() as u64,
            wall_ms: wall * 1e3,
            selections_per_sec: if wall > 0.0 {
                stats.requests as f64 / wall
            } else {
                0.0
            },
            ood: stats.ood,
            drift_fraction: stats.drift_fraction(),
            forced_ood: forced_stats.ood,
            forced_fallbacks: forced_stats.fallbacks,
            fallback_engaged: forced.fallback_active(),
        })
    }
}

/// Runs the serving baseline for `cases`.
///
/// # Panics
/// Panics if training or artifact persistence fails for a case.
pub fn serve_baseline(cfg: &ServeBenchConfig, cases: &[TestCase]) -> Vec<ServeCaseBaseline> {
    std::fs::create_dir_all(&cfg.artifact_dir).expect("artifact dir");
    let engine = Engine::serial();
    cases
        .iter()
        .map(|&case| {
            visit_case(case, &cfg.suite, &engine, &mut ServeBenchVisitor { cfg })
                .expect("serve baseline case failed")
        })
        .collect()
}

/// Renders the baseline as the machine-readable `BENCH_serve.json`
/// document (through [`crate::report`]: sorted keys, trailing newline).
/// Besides the counters, the document records the **artifact schema
/// version**, the **executor worker count**, and the **drift-probe
/// cadence** used, so trajectory comparisons across PRs are attributable
/// to a model format, a parallelism level, and a monitoring rate.
pub fn serve_baseline_json(
    threads: usize,
    probe_every: usize,
    cases: &[ServeCaseBaseline],
) -> String {
    use crate::report;
    use serde_json::Value;
    let total_sel: u64 = cases.iter().map(|c| c.selections).sum();
    let total_wall: f64 = cases.iter().map(|c| c.wall_ms).sum();
    let total_rate = if total_wall > 0.0 {
        total_sel as f64 / (total_wall / 1e3)
    } else {
        0.0
    };
    let doc = report::obj(vec![
        ("schema", Value::String("intune-bench-serve/3".into())),
        (
            "artifact_version",
            Value::UInt(intune_serve::ARTIFACT_VERSION as u64),
        ),
        ("workers", Value::UInt(threads as u64)),
        ("probe_every", Value::UInt(probe_every as u64)),
        (
            "cases",
            Value::Array(
                cases
                    .iter()
                    .map(|c| {
                        report::obj(vec![
                            ("name", Value::String(c.name.clone())),
                            ("classifier", Value::String(c.classifier.clone())),
                            ("selections", Value::UInt(c.selections)),
                            ("batches", Value::UInt(c.batches)),
                            ("batch_size", Value::UInt(c.batch_size)),
                            ("wall_ms", report::ms(c.wall_ms)),
                            (
                                "selections_per_sec",
                                Value::Float(c.selections_per_sec.round()),
                            ),
                            ("ood", Value::UInt(c.ood)),
                            ("drift_fraction", report::rate(c.drift_fraction)),
                            ("forced_ood", Value::UInt(c.forced_ood)),
                            ("forced_fallbacks", Value::UInt(c.forced_fallbacks)),
                            ("fallback_engaged", Value::Bool(c.fallback_engaged)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "total",
            report::obj(vec![
                ("selections", Value::UInt(total_sel)),
                ("wall_ms", report::ms(total_wall)),
                ("selections_per_sec", Value::Float(total_rate.round())),
            ]),
        ),
    ]);
    report::render(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::micro_config;

    fn config() -> ServeBenchConfig {
        ServeBenchConfig {
            suite: micro_config(),
            rounds: 2,
            threads: 1,
            probe_every: 1,
            // Per test thread: parallel tests must not share (and
            // delete) one directory.
            artifact_dir: std::env::temp_dir().join(format!(
                "intune-serve-bench-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            )),
        }
    }

    #[test]
    fn serve_baseline_counts_are_deterministic_and_fallback_engages() {
        let cfg = config();
        let a = serve_baseline(&cfg, &[TestCase::Sort2]);
        let b = serve_baseline(&cfg, &[TestCase::Sort2]);
        assert_eq!(a.len(), 1);
        let (a, b) = (&a[0], &b[0]);
        assert_eq!(a.selections, (cfg.suite.test * cfg.rounds) as u64);
        assert!(a.selections_per_sec > 0.0, "nonzero throughput");
        assert_eq!(a.ood, b.ood, "drift counters are deterministic");
        assert_eq!(a.forced_ood, b.forced_ood);
        assert_eq!(a.forced_fallbacks, a.batch_size, "second batch fell back");
        assert!(a.fallback_engaged);
        std::fs::remove_dir_all(&cfg.artifact_dir).ok();
    }

    #[test]
    fn serve_json_has_stable_schema() {
        let cfg = config();
        let cases = serve_baseline(&cfg, &[TestCase::Binpacking]);
        let json = serve_baseline_json(1, 1, &cases);
        for key in [
            "\"schema\": \"intune-bench-serve/3\"",
            "\"artifact_version\": 2",
            "\"workers\": 1",
            "\"probe_every\": 1",
            "\"selections_per_sec\"",
            "\"drift_fraction\"",
            "\"forced_fallbacks\"",
            "\"fallback_engaged\"",
            "\"total\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        std::fs::remove_dir_all(&cfg.artifact_dir).ok();
    }
}
