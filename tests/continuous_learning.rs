//! The continuous-learning acceptance test: the closed loop.
//!
//! A daemon serving artifact revision N is fed inputs drawn from a
//! *shifted* distribution (traced over the wire with their raw-input
//! payloads). The retrain controller compacts the daemon's request
//! journal into a corpus, retrains over base + journaled inputs, pushes
//! revision N+1 through the existing `LoadArtifact`/`Promote` wire path,
//! and the daemon's **shadow gate — not this test — makes the promote
//! decision** (mirrored volume + an armed shadow drift monitor). The
//! daemon never restarts; at the end it serves revision N+1 whose
//! `trained_inputs` counts the journaled inputs.

use intune_autotuner::TunerOptions;
use intune_core::{
    AccuracySpec, Benchmark, ConfigSpace, Configuration, ExecutionReport, FeatureDef, FeatureSample,
};
use intune_daemon::{Daemon, DaemonClient, DaemonOptions, ListenConfig, ShadowPolicy, TenantSpec};
use intune_exec::Engine;
use intune_learning::pipeline::learn;
use intune_learning::{Level1Options, TwoLevelOptions};
use intune_retrain::{
    compact_journal, retrain_from_corpus, run_cycle, AdmissionPolicy, CorpusStore, CycleOutcome,
    RetrainConfig, RetrainPolicy,
};
use intune_serve::{JournalOptions, JournalSink, ModelArtifact, ServeOptions};
use std::sync::Arc;

/// Three input kinds; the matching switch value is 3–5× cheaper; the kind
/// is readable from a cheap feature and the size from a second feature —
/// so distinct inputs have distinct journal identities, and inputs
/// round-trip through `encode_input`/`decode_input` for retraining.
struct Synthetic;

impl Benchmark for Synthetic {
    type Input = (usize, f64);

    fn name(&self) -> &str {
        "synthetic"
    }

    fn space(&self) -> ConfigSpace {
        ConfigSpace::builder()
            .switch("alg", 3)
            .int("knob", 0, 10)
            .build()
    }

    fn run(&self, cfg: &Configuration, input: &Self::Input) -> ExecutionReport {
        let (kind, size) = *input;
        let alg = cfg.choice(0);
        let penalty = 1.0 + 2.0 * ((alg + 3 - kind) % 3) as f64;
        ExecutionReport::with_accuracy(size * penalty, 1.0)
    }

    fn accuracy(&self) -> Option<AccuracySpec> {
        Some(AccuracySpec::new(0.5))
    }

    fn properties(&self) -> Vec<FeatureDef> {
        vec![FeatureDef::new("kind", 2), FeatureDef::new("size", 1)]
    }

    fn extract(&self, property: usize, level: usize, input: &Self::Input) -> FeatureSample {
        match property {
            0 => FeatureSample::new(input.0 as f64, 1.0 + level as f64),
            _ => FeatureSample::new(input.1, 2.0),
        }
    }

    fn encode_input(&self, input: &Self::Input) -> Option<serde_json::Value> {
        Some(serde_json::Value::Array(vec![
            serde_json::Value::UInt(input.0 as u64),
            serde_json::Value::Float(input.1),
        ]))
    }

    fn decode_input(&self, payload: &serde_json::Value) -> Option<Self::Input> {
        let items = payload.as_array()?;
        if items.len() != 2 {
            return None;
        }
        Some((items[0].as_u64()? as usize, items[1].as_f64()?))
    }
}

/// The distribution the model was trained on: sizes 100–180.
fn base_corpus(n: usize) -> Vec<(usize, f64)> {
    (0..n)
        .map(|i| (i % 3, 100.0 + ((i * 17) % 9) as f64 * 10.0))
        .collect()
}

/// The shifted production distribution: same kinds, sizes 200–315 — far
/// outside the base cluster geometry, so the primary's drift probes flag
/// them and the journal records the evidence.
fn shifted_corpus(n: usize) -> Vec<(usize, f64)> {
    (0..n)
        .map(|i| (i % 3, 200.0 + (i % 24) as f64 * 5.0))
        .collect()
}

fn train_options() -> TwoLevelOptions {
    TwoLevelOptions {
        level1: Level1Options {
            clusters: 3,
            tuner: TunerOptions {
                population: 8,
                generations: 5,
                ..TunerOptions::quick(1)
            },
            ..Level1Options::default()
        },
        ..TwoLevelOptions::default()
    }
}

fn tmp(tag: &str) -> intune_core::TempDir {
    let dir = intune_core::unique_temp_dir(&format!("continuous-{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn drifted_traffic_retrains_and_promotes_revision_n_plus_one_without_a_restart() {
    let dir = tmp("loop");
    let journal_dir = dir.join("journal");
    let corpus_path = dir.join("corpus.json");
    let cache_path = dir.join("retrain.cache.json");

    // Revision 0: trained on the base distribution only.
    let b = Synthetic;
    let base = base_corpus(24);
    let engine = Engine::serial();
    let opts = train_options();
    let result = learn(&b, &base, &opts, &engine).expect("base training");
    let artifact = ModelArtifact::export(&b, &result);
    assert_eq!(artifact.revision, 0);
    assert_eq!(artifact.trained_inputs, 24);

    // One daemon process for the whole test — the loop must close with
    // zero restarts. The primary journals everything it serves; staged
    // shadows keep an ARMED drift monitor (a candidate that considers
    // production traffic out-of-distribution is auto-rejected), and the
    // promote gate requires mirrored volume. Landmark indices of
    // independently-trained models are not comparable, so the agreement
    // bar is not part of this gate.
    let sink = Arc::new(
        JournalSink::open(
            &journal_dir,
            JournalOptions {
                segment_max_records: 8,
                ..JournalOptions::default()
            },
        )
        .expect("journal opens"),
    );
    let daemon = Daemon::bind_tenants(
        vec![TenantSpec {
            artifact,
            trace: Some(sink.clone()),
            recorder: None,
            trace_sample: None,
        }],
        DaemonOptions {
            serve: ServeOptions {
                drift_threshold: 1.0, // fallback pinned off; probes still record
                ..ServeOptions::default()
            },
            shadow_serve: ServeOptions {
                drift_threshold: 0.5,
                min_observations: 8,
                ..ServeOptions::default()
            },
            shadow: ShadowPolicy {
                min_mirrored: 24,
                min_agreement: 0.0,
            },
            inject_faults: false,
            ..DaemonOptions::default()
        },
        &ListenConfig::default(),
    )
    .expect("daemon binds");
    let addr = daemon.tcp_addr().to_string();
    let handle = daemon.spawn();
    let client = DaemonClient::connect(&addr).expect("client connects");
    assert_eq!(client.info().revision, 0);

    // Production traffic from the shifted distribution, traced with raw
    // inputs. The primary's drift probes must flag the shift.
    let shifted = shifted_corpus(24);
    for chunk in shifted.chunks(8) {
        let features: Vec<_> = chunk.iter().map(|i| b.extract_all(i)).collect();
        let payloads: Vec<_> = chunk
            .iter()
            .map(|i| b.encode_input(i).expect("encodable"))
            .collect();
        client
            .select_batch_traced(&features, &payloads)
            .expect("traced batch");
    }
    let observed = client.stats().expect("stats");
    assert_eq!(observed.journaled, 24, "every served selection journaled");
    assert!(
        observed.primary.ood > 0,
        "shifted sizes must probe out-of-distribution: {:?}",
        observed.primary
    );

    // One controller cycle: compact → decide → retrain → push → the
    // daemon's gate promotes.
    let cfg = RetrainConfig {
        journal_dir: journal_dir.clone(),
        corpus_path: corpus_path.clone(),
        cache_path: Some(cache_path.clone()),
        capacity: 256,
        policy: RetrainPolicy {
            min_new_inputs: 8,
            drift_trip_rate: 1.1, // volume, not drift, drives this test
            min_drift_observations: u64::MAX,
            cooldown_records: 0,
        },
        mirror_target: 24,
        mirror_batch: 8,
        remove_compacted: true,
        admission: AdmissionPolicy::default(),
        events: None,
    };
    let report = run_cycle(&b, &base, &opts, &engine, &cfg, &client).expect("cycle runs");
    assert_eq!(report.compaction.records, 24);
    assert_eq!(report.compaction.added, 24, "24 distinct shifted inputs");
    let CycleOutcome::Promoted {
        revision,
        trained_inputs,
        new_inputs,
        agreement_rate: _,
    } = &report.outcome
    else {
        panic!("expected promotion, got {:?}", report.outcome);
    };
    assert_eq!(*revision, 1, "revision N+1");
    assert_eq!(*new_inputs, 24, "every journaled input decoded");
    assert_eq!(
        *trained_inputs, 48,
        "trained_inputs counts base + journaled inputs"
    );
    let stats = report.retrain.expect("retrain ran");
    assert_eq!(stats.merged_inputs, 48);
    assert_eq!(stats.skipped_payloads, 0);

    // The SAME daemon (no restart) now serves revision 1 and reports the
    // promotion; the previously-shifted traffic is in-distribution for
    // the retrained geometry.
    let after = client.stats().expect("stats");
    assert_eq!(after.revision, 1, "daemon reports the promoted revision");
    assert_eq!(after.promotions, 1);
    assert_eq!(after.shadow_rejections, 0);
    let features: Vec<_> = shifted.iter().map(|i| b.extract_all(i)).collect();
    let again = client.select_batch(&features).expect("serving continues");
    assert_eq!(again.len(), 24);
    let rate_before = after.primary.drift_fraction();
    assert!(
        rate_before < 0.5,
        "retrained geometry covers the shifted inputs: {:?}",
        after.primary
    );

    // A second cycle idles: the first cycle's mirror echoes were
    // absorbed *quietly* (they re-read as stale now), and the
    // post-promote client traffic merges into existing entries — no new
    // retrainable inputs, no phantom drift evidence.
    let second = run_cycle(&b, &base, &opts, &engine, &cfg, &client).expect("second cycle");
    assert!(
        matches!(second.outcome, CycleOutcome::Idle { .. }),
        "echo traffic must not re-trigger retraining: {:?}",
        second.outcome
    );
    assert!(
        second.compaction.stale >= 24,
        "cycle 1's mirror echoes were already absorbed: {:?}",
        second.compaction
    );
    assert_eq!(
        second.compaction.added, 0,
        "no new unique inputs since the promote"
    );
    assert!(second.trigger.is_none());
    assert_eq!(client.stats().expect("stats").revision, 1);

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon exits");

    // Determinism (the CI CSV-diff pattern, applied to artifacts):
    // retraining from the same persisted corpus at 1 vs 4 workers
    // produces byte-identical artifact documents.
    let corpus = CorpusStore::load(&corpus_path).expect("corpus persisted");
    let docs: Vec<String> = [1usize, 4]
        .iter()
        .map(|&threads| {
            retrain_from_corpus(&b, &base, &opts, &Engine::new(threads), &corpus, None, 9)
                .expect("retrain")
                .artifact
                .to_document()
        })
        .collect();
    assert_eq!(
        docs[0], docs[1],
        "same corpus, any worker count, same bytes"
    );
}

/// A *real* Table-1 case through the traced wire path: clustering inputs
/// (point sets with a precomputed canonical distance) journal via
/// `encode_input`, compact into a retraining corpus, and decode back to
/// inputs the benchmark treats identically — the same flow the sort and
/// bin-packing cases already support.
#[test]
fn clustering_inputs_flow_from_traced_wire_to_retraining_corpus() {
    use intune_clusterlib::{ClusterInputClass, Clustering};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let dir = tmp("cluster");
    let journal_dir = dir.join("journal");
    let b = Clustering::new();
    let mut rng = StdRng::seed_from_u64(11);
    let train: Vec<_> = (0..8)
        .map(|_| ClusterInputClass::Blobs { k: 3 }.generate(60, &mut rng))
        .collect();
    let engine = Engine::serial();
    let opts = train_options();
    let result = learn(&b, &train, &opts, &engine).expect("clustering trains");
    let artifact = ModelArtifact::export(&b, &result);

    let sink = Arc::new(
        JournalSink::open(&journal_dir, JournalOptions::default()).expect("journal opens"),
    );
    let daemon = Daemon::bind_tenants(
        vec![TenantSpec {
            artifact,
            trace: Some(sink.clone()),
            recorder: None,
            trace_sample: None,
        }],
        DaemonOptions {
            serve: ServeOptions {
                drift_threshold: 1.0,
                ..ServeOptions::default()
            },
            ..DaemonOptions::default()
        },
        &ListenConfig::default(),
    )
    .expect("daemon binds");
    let addr = daemon.tcp_addr().to_string();
    let handle = daemon.spawn();
    // Tenant-named handshake against a single-tenant daemon.
    let client = DaemonClient::connect_to(&addr, "clustering").expect("client connects");
    assert_eq!(client.info().benchmark, "clustering");

    // Production traffic from a different geometry, traced with raw
    // point sets.
    let served: Vec<_> = (0..6)
        .map(|_| ClusterInputClass::Uniform.generate(80, &mut rng))
        .collect();
    let features: Vec<_> = served.iter().map(|i| b.extract_all(i)).collect();
    let payloads: Vec<_> = served
        .iter()
        .map(|i| b.encode_input(i).expect("clustering journals"))
        .collect();
    client
        .select_batch_traced(&features, &payloads)
        .expect("traced batch");
    assert_eq!(client.stats().expect("stats").journaled, 6);
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon exits");

    // Journal → corpus: every payload lands, and decodes back to an
    // input whose extracted features are bit-identical to what was
    // served — so retraining re-measures exactly what production saw.
    let mut corpus = CorpusStore::new(64);
    let report = compact_journal(&journal_dir, &mut corpus).expect("journal compacts");
    assert_eq!(report.records, 6);
    assert_eq!(report.added, 6, "6 distinct point sets");
    for entry in corpus.entries() {
        let payload = entry.payload.as_ref().expect("payload journaled");
        let decoded = b.decode_input(payload).expect("payload decodes");
        assert_eq!(b.extract_all(&decoded).dense(), entry.features.dense());
    }
}
