//! # intune-serve
//!
//! Model-artifact persistence and the online selector serving runtime —
//! the deployment phase of the paper (Figure 3) as a subsystem.
//!
//! The two-level learner (`intune_learning`) produces everything a
//! production system needs — landmark configurations, the level-2 input
//! classifier, the feature normalizer and cluster geometry — but until
//! this crate existed that model lived and died inside one process. This
//! crate draws the train/deploy boundary:
//!
//! * [`ModelArtifact`] — a versioned, checksummed, JSON-persisted model:
//!   save after `learn()`, reload in a fresh process, get byte-identical
//!   selections (`artifact` module; format spec in `crates/serve/README.md`,
//!   current schema version 2 with a version-1 migration reader).
//! * [`VectorService`] — the serving core: selection over
//!   **pre-extracted feature vectors**, with no benchmark type in sight,
//!   answered on the calling thread. It carries a centroid-distance
//!   **drift monitor** counting out-of-distribution inputs (`monitor`
//!   module) and a **fallback policy** that pins the safe landmark when
//!   the input distribution has shifted too far from the training
//!   corpus. The `intune_daemon` wire server is built on it (`vector`
//!   module).
//! * [`SelectorService`] — the same core bound to a benchmark: it adds
//!   only per-input feature acquisition, extracting lazily so a request
//!   pays for just the features the classifier reads (`service` module).
//!   A vector-served selection is bit-identical to a benchmark-served
//!   one.
//! * [`TraceSink`] + the **request journal** (`trace` / `journal`
//!   modules) — continuous learning's observation layer: every answered
//!   selection can be appended to a segmented, crash-tolerant log
//!   (served features, chosen landmark, drift outcome, optional raw-input
//!   payload), which the `intune_retrain` subsystem compacts into a
//!   retraining corpus (format spec in `crates/retrain/README.md`).
//!
//! ## Lifecycle
//!
//! ```text
//! learn() ──▶ ModelArtifact::export ──▶ save(path)        (training box)
//!                                          │
//! load(path) ──▶ SelectorService::new ──▶ select_batch    (serving box)
//! ```
//!
//! ```
//! use intune_exec::Engine;
//! use intune_learning::pipeline::{learn, TwoLevelOptions};
//! use intune_serve::{ModelArtifact, SelectorService, ServeOptions};
//! # use intune_autotuner::TunerOptions;
//! # use intune_core::{Benchmark, ConfigSpace, Configuration, ExecutionReport,
//! #                   FeatureDef, FeatureSample};
//! # struct Toy;
//! # impl Benchmark for Toy {
//! #     type Input = f64;
//! #     fn name(&self) -> &str { "toy" }
//! #     fn space(&self) -> ConfigSpace {
//! #         ConfigSpace::builder().switch("alg", 2).build()
//! #     }
//! #     fn run(&self, cfg: &Configuration, x: &f64) -> ExecutionReport {
//! #         ExecutionReport::of_cost(x * (1.0 + (cfg.choice(0) as f64 - (*x > 0.5) as u8 as f64).abs()))
//! #     }
//! #     fn properties(&self) -> Vec<FeatureDef> { vec![FeatureDef::new("x", 1)] }
//! #     fn extract(&self, _: usize, _: usize, x: &f64) -> FeatureSample {
//! #         FeatureSample::new(*x, 0.01)
//! #     }
//! # }
//! let toy = Toy;
//! let inputs: Vec<f64> = (0..24).map(|i| 0.2 + 0.6 * ((i % 3) as f64) / 2.0).collect();
//! let mut opts = TwoLevelOptions::default();
//! opts.level1.clusters = 2;
//! opts.level1.tuner = TunerOptions { population: 6, generations: 3, ..TunerOptions::quick(1) };
//! let result = learn(&toy, &inputs, &opts, &Engine::serial()).unwrap();
//!
//! // Train → export → (save/load) → serve.
//! let artifact = ModelArtifact::export(&toy, &result);
//! let reloaded = ModelArtifact::from_document(&artifact.to_document()).unwrap();
//! let service = SelectorService::new(&toy, reloaded, ServeOptions::default()).unwrap();
//! let selections = service.select_batch(&inputs);
//! assert_eq!(selections.len(), inputs.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod journal;
mod monitor;
pub mod service;
pub mod trace;
pub mod vector;

pub use artifact::{ModelArtifact, ARTIFACT_MIN_VERSION, ARTIFACT_SCHEMA, ARTIFACT_VERSION};
pub use journal::{JournalOptions, JournalRecord, JournalSink, JournalWriter};
pub use service::{Selection, SelectorService, ServeOptions, ServeStats};
pub use trace::TraceSink;
pub use vector::VectorService;

/// Shared fixtures for this crate's unit tests.
#[cfg(test)]
pub(crate) mod testutil {
    use intune_autotuner::TunerOptions;
    use intune_core::{
        AccuracySpec, Benchmark, ConfigSpace, Configuration, ExecutionReport, FeatureDef,
        FeatureSample,
    };
    use intune_exec::Engine;
    use intune_learning::pipeline::{learn, TwoLevelOptions, TwoLevelResult};
    use intune_learning::Level1Options;

    /// Same synthetic family as the learning-pipeline tests: three input
    /// kinds, the matching switch value is 3–5× cheaper, the kind is
    /// readable from cheap feature 0 while feature 1 is an expensive red
    /// herring.
    pub struct Synthetic;

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
            vec![FeatureDef::new("kind", 2), FeatureDef::new("noise", 2)]
        }

        fn extract(&self, property: usize, level: usize, input: &Self::Input) -> FeatureSample {
            match property {
                0 => FeatureSample::new(input.0 as f64, 1.0 + level as f64),
                _ => FeatureSample::new((input.1 * 7.0) % 5.0, 200.0 * (level + 1) as f64),
            }
        }
    }

    /// A deterministic corpus of `(kind, size)` inputs.
    pub fn synthetic_corpus(n: usize, seed: usize) -> Vec<(usize, f64)> {
        (0..n)
            .map(|i| ((i + seed) % 3, 100.0 + ((i * 17 + seed) % 9) as f64 * 10.0))
            .collect()
    }

    /// Trains the synthetic benchmark at quick-test scale.
    pub fn train_synthetic() -> TwoLevelResult {
        let opts = TwoLevelOptions {
            level1: Level1Options {
                clusters: 3,
                tuner: TunerOptions {
                    population: 10,
                    generations: 8,
                    ..TunerOptions::quick(1)
                },
                ..Level1Options::default()
            },
            ..TwoLevelOptions::default()
        };
        learn(
            &Synthetic,
            &synthetic_corpus(60, 0),
            &opts,
            &Engine::serial(),
        )
        .expect("synthetic training succeeds")
    }
}
