//! The continuous-learning baseline behind `BENCH_retrain.json`
//! (`daemon_bench --journal`).
//!
//! Train one Table-1 case at micro scale, start a real [`Daemon`] with a
//! request journal attached, drive traced `SelectBatch` traffic (features
//! **plus raw-input payloads**) from N client threads, then run one full
//! retrain cycle — compact the journal into a corpus, retrain over base +
//! journaled inputs with the warm cost cache seeded from the base
//! training run, push revision 1, and let the shadow gate promote it.
//!
//! The report records journal append throughput, the compaction ratio
//! (journal records per surviving corpus entry), retrain wall time, and
//! **cells saved by the warm cache** — measured honestly, as the fresh
//! executions a cold retrain performs minus the warm one's. Record/cell
//! counts are deterministic; wall-clock figures are environment-dependent.

use crate::report;
use intune_core::{Benchmark, FeatureVector, Result};
use intune_daemon::{Daemon, DaemonClient, DaemonOptions, ListenConfig, ShadowPolicy};
use intune_eval::{visit_case, CaseVisitor, SuiteConfig, TestCase};
use intune_exec::Engine;
use intune_learning::pipeline::learn;
use intune_learning::TwoLevelOptions;
use intune_retrain::{
    compact_journal, input_fingerprint, retrain_from_corpus, run_cycle, save_warm_cache,
    AdmissionPolicy, CorpusStore, CycleOutcome, RetrainConfig, RetrainPolicy,
};
use intune_serve::{JournalOptions, JournalSink, ModelArtifact, ServeOptions, TraceSink};
use serde_json::Value;
use std::sync::Arc;
use std::time::Instant;

/// Knobs of the continuous-learning load test.
#[derive(Debug, Clone)]
pub struct RetrainBenchConfig {
    /// Suite scale used for training and traffic generation.
    pub suite: SuiteConfig,
    /// The case exercised (must support input journaling — sort/binpack).
    pub case: TestCase,
    /// Concurrent client threads in the journal-fill phase.
    pub clients: usize,
    /// Traced `SelectBatch` requests per client.
    pub batches_per_client: usize,
}

/// The measured outcome (see module docs for what is deterministic).
#[derive(Debug, Clone)]
pub struct RetrainBenchResult {
    /// Case name served.
    pub case: String,
    /// Journal records appended during the load phase.
    pub journal_records: u64,
    /// Wall time of the journal-fill phase, milliseconds.
    pub journal_wall_ms: f64,
    /// Journal appends per second (wall-clock).
    pub records_per_sec: f64,
    /// Segments the compactor absorbed.
    pub segments: u64,
    /// Unique corpus entries after compaction.
    pub corpus_entries: u64,
    /// Journal records per surviving corpus entry (dedup leverage).
    pub compaction_ratio: f64,
    /// End-to-end retrain cycle wall time (compact → learn → push →
    /// promote), milliseconds.
    pub retrain_wall_ms: f64,
    /// Inputs the promoted model was trained on (base + journaled).
    pub trained_inputs: u64,
    /// Journaled inputs in that count.
    pub new_inputs: u64,
    /// Cells preloaded from the warm cache before the retrain ran.
    pub warm_cells: u64,
    /// Fresh executions of the warm retrain.
    pub cells_measured: u64,
    /// Fresh executions a cold retrain of the same corpus performs.
    pub cells_measured_cold: u64,
    /// `cells_measured_cold - cells_measured`: what the warm cache saved.
    pub cells_saved_by_warm_cache: u64,
    /// Revision serving after the cycle (1 by construction).
    pub promoted_revision: u64,
}

struct RetrainVisitor<'a> {
    cfg: &'a RetrainBenchConfig,
}

impl CaseVisitor for RetrainVisitor<'_> {
    type Output = RetrainBenchResult;

    fn visit<B: Benchmark + Sync>(
        &mut self,
        case: TestCase,
        benchmark: &B,
        train: &[B::Input],
        test: &[B::Input],
        opts: &TwoLevelOptions,
        engine: &Engine,
    ) -> Result<RetrainBenchResult>
    where
        B::Input: Sync + Clone,
    {
        let cfg = self.cfg;
        // Per process and thread, so concurrent runs (parallel tests)
        // never share or delete each other's directory.
        let dir = std::env::temp_dir().join(format!(
            "intune-bench-retrain-{}-{}-{:?}",
            case.name(),
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("bench temp dir");
        let journal_dir = dir.join("journal");
        let corpus_path = dir.join("corpus.json");
        let cache_path = dir.join("retrain.cache.json");

        // Revision 0 + a warm cache seeded from the base training run:
        // the retrain should re-measure only what production added.
        let result = learn(benchmark, train, opts, engine)?;
        let artifact = ModelArtifact::export(benchmark, &result);
        let prints: Vec<Option<u64>> = train
            .iter()
            .map(|i| input_fingerprint(benchmark, i))
            .collect();
        save_warm_cache(&cache_path, &prints, &result.level1.cache)?;

        // One in-process lifecycle log shared by the daemon and the
        // retrain controller: the cycle's RetrainCycle event interleaves
        // with the ShadowStaged/Promoted events it causes.
        let events_path = dir.join("events.log");
        let events = Arc::new(intune_obs::EventLog::open(&events_path)?);
        let sink = Arc::new(JournalSink::open(&journal_dir, JournalOptions::default())?);
        let daemon = Daemon::bind(
            artifact,
            DaemonOptions {
                events: Some(events.clone()),
                serve: ServeOptions {
                    drift_threshold: 1.0,
                    ..ServeOptions::default()
                },
                shadow_serve: ServeOptions {
                    drift_threshold: 1.0,
                    ..ServeOptions::default()
                },
                // Landmark indices of independently-trained models are
                // not comparable; the gate decides on mirrored volume.
                shadow: ShadowPolicy {
                    min_mirrored: test.len() as u64,
                    min_agreement: 0.0,
                },
                trace: Some(sink.clone() as Arc<dyn TraceSink>),
                inject_faults: false,
                ..DaemonOptions::default()
            },
            &ListenConfig::default(),
        )?;
        let addr = daemon.tcp_addr().to_string();
        let handle = daemon.spawn();

        // Journal-fill phase: N clients × traced batches.
        let features: Vec<FeatureVector> = test.iter().map(|i| benchmark.extract_all(i)).collect();
        let payloads: Vec<Value> = test
            .iter()
            .map(|i| benchmark.encode_input(i).unwrap_or(Value::Null))
            .collect();
        let start = Instant::now();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..cfg.clients)
                .map(|_| {
                    let addr = &addr;
                    let features = &features;
                    let payloads = &payloads;
                    scope.spawn(move || {
                        let client = DaemonClient::connect(addr).expect("load client");
                        for _ in 0..cfg.batches_per_client {
                            client
                                .select_batch_traced(features, payloads)
                                .expect("traced batch");
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("client thread panicked");
            }
        });
        let journal_wall = start.elapsed().as_secs_f64();
        let control = DaemonClient::connect(&addr).expect("control client");
        let journal_records = control.stats().expect("stats").journaled;

        // Cold reference: same corpus, no warm cache — how many fresh
        // executions retraining costs without cache reuse.
        let mut cold_corpus = CorpusStore::new(4096);
        compact_journal(&journal_dir, &mut cold_corpus)?;
        let cold = retrain_from_corpus(benchmark, train, opts, engine, &cold_corpus, None, 1)?;

        // The real cycle: compact → policy → retrain (warm) → push →
        // shadow gate promotes.
        let retrain_cfg = RetrainConfig {
            journal_dir: journal_dir.clone(),
            corpus_path: corpus_path.clone(),
            cache_path: Some(cache_path.clone()),
            capacity: 4096,
            policy: RetrainPolicy {
                min_new_inputs: 1,
                drift_trip_rate: 1.1,
                min_drift_observations: u64::MAX,
                cooldown_records: 0,
            },
            mirror_target: test.len() as u64,
            mirror_batch: test.len().max(1),
            remove_compacted: true,
            admission: AdmissionPolicy::default(),
            events: Some(events.clone()),
        };
        let start = Instant::now();
        let report = run_cycle(benchmark, train, opts, engine, &retrain_cfg, &control)?;
        let retrain_wall = start.elapsed().as_secs_f64();
        let CycleOutcome::Promoted {
            revision,
            trained_inputs,
            new_inputs,
            ..
        } = report.outcome
        else {
            panic!("bench cycle must promote, got {:?}", report.outcome);
        };
        let stats = report.retrain.expect("retrain ran");

        control.shutdown().expect("shutdown");
        handle.join().expect("daemon exit");

        // The shared lifecycle log must tell the cycle's whole story:
        // the controller's stage, the gate's promote, and the cycle's
        // own outcome record.
        let logged = intune_obs::read_events(&events_path)?.events;
        let cycle = logged
            .iter()
            .find_map(|e| match &e.kind {
                intune_obs::EventKind::RetrainCycle { outcome, .. } => Some(outcome.as_str()),
                _ => None,
            })
            .expect("cycle journaled");
        assert_eq!(cycle, "promoted", "events: {logged:?}");
        assert!(
            logged
                .iter()
                .any(|e| matches!(e.kind, intune_obs::EventKind::ShadowStaged { .. })),
            "push journaled: {logged:?}"
        );
        assert!(
            logged
                .iter()
                .any(|e| matches!(e.kind, intune_obs::EventKind::Promoted { .. })),
            "promote journaled: {logged:?}"
        );
        std::fs::remove_dir_all(&dir).ok();

        let corpus_entries = report.compaction.added;
        Ok(RetrainBenchResult {
            case: case.name().to_string(),
            journal_records,
            journal_wall_ms: journal_wall * 1e3,
            records_per_sec: if journal_wall > 0.0 {
                journal_records as f64 / journal_wall
            } else {
                0.0
            },
            segments: report.compaction.segments,
            corpus_entries,
            compaction_ratio: if corpus_entries > 0 {
                report.compaction.records as f64 / corpus_entries as f64
            } else {
                0.0
            },
            retrain_wall_ms: retrain_wall * 1e3,
            trained_inputs,
            new_inputs,
            warm_cells: stats.warm_cells,
            cells_measured: stats.cells_measured,
            cells_measured_cold: cold.stats.cells_measured,
            cells_saved_by_warm_cache: cold
                .stats
                .cells_measured
                .saturating_sub(stats.cells_measured),
            promoted_revision: revision,
        })
    }
}

/// Runs the continuous-learning load test end to end.
///
/// # Panics
/// Panics if training, the daemon, the clients, or the cycle fail —
/// baseline emitters want loud failures.
pub fn retrain_baseline(cfg: &RetrainBenchConfig) -> RetrainBenchResult {
    let engine = Engine::serial();
    visit_case(cfg.case, &cfg.suite, &engine, &mut RetrainVisitor { cfg })
        .expect("retrain baseline failed")
}

/// Renders the result as the `BENCH_retrain.json` document (through
/// [`report`]: sorted keys, trailing newline).
pub fn retrain_baseline_json(cfg: &RetrainBenchConfig, r: &RetrainBenchResult) -> String {
    let doc = report::obj(vec![
        ("schema", Value::String("intune-bench-retrain/1".into())),
        ("case", Value::String(r.case.clone())),
        ("clients", Value::UInt(cfg.clients as u64)),
        (
            "batches_per_client",
            Value::UInt(cfg.batches_per_client as u64),
        ),
        (
            "journal",
            report::obj(vec![
                ("records", Value::UInt(r.journal_records)),
                ("wall_ms", report::ms(r.journal_wall_ms)),
                ("records_per_sec", Value::Float(r.records_per_sec.round())),
            ]),
        ),
        (
            "compaction",
            report::obj(vec![
                ("segments", Value::UInt(r.segments)),
                ("journal_records", Value::UInt(r.journal_records)),
                ("corpus_entries", Value::UInt(r.corpus_entries)),
                ("ratio", report::rate(r.compaction_ratio)),
            ]),
        ),
        (
            "retrain",
            report::obj(vec![
                ("wall_ms", report::ms(r.retrain_wall_ms)),
                ("trained_inputs", Value::UInt(r.trained_inputs)),
                ("new_inputs", Value::UInt(r.new_inputs)),
                ("warm_cells", Value::UInt(r.warm_cells)),
                ("cells_measured", Value::UInt(r.cells_measured)),
                ("cells_measured_cold", Value::UInt(r.cells_measured_cold)),
                (
                    "cells_saved_by_warm_cache",
                    Value::UInt(r.cells_saved_by_warm_cache),
                ),
                ("promoted_revision", Value::UInt(r.promoted_revision)),
            ]),
        ),
    ]);
    report::render(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::micro_config;

    fn tiny() -> RetrainBenchConfig {
        RetrainBenchConfig {
            suite: micro_config(),
            case: TestCase::Sort2,
            clients: 2,
            batches_per_client: 2,
        }
    }

    #[test]
    fn retrain_baseline_promotes_and_warm_cache_saves_cells() {
        let cfg = tiny();
        let r = retrain_baseline(&cfg);
        assert_eq!(r.journal_records, 2 * 2 * cfg.suite.test as u64);
        assert_eq!(r.corpus_entries, cfg.suite.test as u64, "test inputs dedup");
        assert!(
            (r.compaction_ratio - 4.0).abs() < 1e-9,
            "{}",
            r.compaction_ratio
        );
        assert_eq!(r.promoted_revision, 1);
        assert_eq!(
            r.trained_inputs,
            (cfg.suite.train + cfg.suite.test) as u64,
            "base + journaled"
        );
        assert_eq!(r.new_inputs, cfg.suite.test as u64);
        assert!(r.warm_cells > 0, "base training cache warm-starts");
        assert!(
            r.cells_saved_by_warm_cache > 0,
            "warm {} vs cold {}",
            r.cells_measured,
            r.cells_measured_cold
        );
        assert!(r.records_per_sec > 0.0);
    }

    #[test]
    fn retrain_json_has_stable_schema() {
        let cfg = tiny();
        let r = retrain_baseline(&cfg);
        let json = retrain_baseline_json(&cfg, &r);
        for key in [
            "\"schema\": \"intune-bench-retrain/1\"",
            "\"compaction\"",
            "\"corpus_entries\": 8",
            "\"cells_saved_by_warm_cache\"",
            "\"promoted_revision\": 1",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let reparsed: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(crate::report::render(&reparsed), json);
    }
}
