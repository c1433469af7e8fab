//! The [`Benchmark`] trait: a program with algorithmic choices, input
//! features and (optionally) variable accuracy.
//!
//! Everything the two-level learner does — clustering, landmark autotuning,
//! performance measurement, classifier training — is generic over this trait,
//! mirroring how the paper's learner interacts with PetaBricks programs only
//! through their configuration space, execution outcomes and declared
//! `input_feature` extractors.

use crate::config::{ConfigSpace, Configuration};
use crate::cost::ExecutionReport;
use crate::error::{Error, Result};
use crate::features::{FeatureDef, FeatureId, FeatureSample, FeatureSet, FeatureVector};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A benchmark's variable-accuracy contract: the programmer-specified
/// accuracy threshold H1 (the satisfaction threshold H2 — the fraction of
/// inputs that must meet H1, 95 % in the paper — lives in the learner's
/// options since it is a property of the training process, not the program).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccuracySpec {
    /// Minimum accuracy-metric value for an output to count as accurate.
    pub threshold: f64,
}

impl AccuracySpec {
    /// Convenience constructor.
    pub fn new(threshold: f64) -> Self {
        AccuracySpec { threshold }
    }
}

/// A program with algorithmic choices: the unit of autotuning.
///
/// Implementations must be deterministic: `run` with the same configuration
/// and input must produce the same report (benchmarks thread explicit RNG
/// seeds through their inputs where randomized algorithms are involved).
pub trait Benchmark {
    /// The input type the program processes.
    type Input;

    /// Stable, short name (used in reports and file names).
    fn name(&self) -> &str;

    /// The configuration (choice) space this program exposes.
    fn space(&self) -> ConfigSpace;

    /// Runs the program on `input` under `cfg`, reporting deterministic cost
    /// and, for variable-accuracy programs, the accuracy metric.
    fn run(&self, cfg: &Configuration, input: &Self::Input) -> ExecutionReport;

    /// Runs with a cell-specific RNG seed (the `intune-exec` engine derives
    /// one per measurement cell from the cell's identity, so it is stable
    /// across worker counts and execution orders). The default ignores the
    /// seed — benchmarks are deterministic functions of `(cfg, input)` —
    /// but a benchmark with internal randomness (sampled accuracy metrics,
    /// randomized pivots) overrides this to stay reproducible.
    fn run_seeded(&self, cfg: &Configuration, input: &Self::Input, _seed: u64) -> ExecutionReport {
        self.run(cfg, input)
    }

    /// The accuracy contract, or `None` for fixed-accuracy programs (sort).
    fn accuracy(&self) -> Option<AccuracySpec> {
        None
    }

    /// Declares the feature properties (`input_feature` functions) and their
    /// sampling-level counts.
    fn properties(&self) -> Vec<FeatureDef>;

    /// Extracts one property at one sampling level from an input, reporting
    /// both the value and the extraction cost.
    ///
    /// # Panics
    /// Implementations may panic if `property`/`level` are out of the range
    /// declared by [`Benchmark::properties`]; callers should stay in range.
    fn extract(&self, property: usize, level: usize, input: &Self::Input) -> FeatureSample;

    /// Extracts *all* features (every property at every level) into a dense
    /// [`FeatureVector`]. Used at training time, where the full matrix is
    /// needed, and by the serving runtimes' drift probes.
    ///
    /// The default calls [`Benchmark::extract`] once per property × level.
    /// Benchmarks whose per-feature extractors redo shared work (typically
    /// re-subsampling the input for every property at the same level)
    /// should override this with a fused pass — the override must produce
    /// **bit-identical** samples to the default, which is what keeps
    /// selections byte-identical between training and serving.
    fn extract_all(&self, input: &Self::Input) -> FeatureVector {
        let defs = self.properties();
        let mut fv = FeatureVector::empty(&defs);
        for (p, def) in defs.iter().enumerate() {
            for level in 0..def.levels {
                let sample = self.extract(p, level, input);
                fv.insert(FeatureId { property: p, level }, sample)
                    .expect("in-range feature id");
            }
        }
        fv
    }

    /// Encodes an input as a self-describing JSON payload so it can travel
    /// — over the serve daemon's wire protocol into the request journal,
    /// and from there into a retraining corpus. `None` (the default) means
    /// this benchmark's inputs cannot be journaled; continuous learning
    /// then sees the served feature vectors but cannot re-measure the
    /// inputs behind them.
    ///
    /// Implementations must round-trip exactly through
    /// [`Benchmark::decode_input`]: `decode_input(&encode_input(x)?)`
    /// yields an input the benchmark treats identically to `x` (same
    /// `run` reports, same extracted features, bit-for-bit floats).
    fn encode_input(&self, _input: &Self::Input) -> Option<serde_json::Value> {
        None
    }

    /// Decodes a payload produced by [`Benchmark::encode_input`]; `None`
    /// when the payload does not describe a valid input (or the benchmark
    /// does not support input journaling).
    fn decode_input(&self, _payload: &serde_json::Value) -> Option<Self::Input> {
        None
    }
}

/// Blanket convenience methods for benchmarks.
pub trait BenchmarkExt: Benchmark {
    /// Runs one *measurement cell* — configuration × input × cell seed —
    /// converting a benchmark panic into a typed [`Error::Measurement`]
    /// instead of aborting the caller. `input_idx` identifies the input in
    /// the error; `seed` is forwarded to [`Benchmark::run_seeded`].
    ///
    /// This is the unit of work of the `intune-exec` measurement engine;
    /// prefer submitting a whole `MeasurementPlan` there so cells are
    /// deduplicated, memoized, and executed on the work-stealing pool.
    fn run_cell(
        &self,
        cfg: &Configuration,
        input_idx: usize,
        input: &Self::Input,
        seed: u64,
    ) -> Result<ExecutionReport> {
        catch_unwind(AssertUnwindSafe(|| self.run_seeded(cfg, input, seed))).map_err(|payload| {
            let detail = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "benchmark panicked".to_string()
            };
            Error::Measurement {
                input: input_idx,
                detail,
            }
        })
    }

    /// Batch-measure entry point: runs every `(input index, configuration,
    /// cell seed)` cell against `inputs` in order, stopping at the first
    /// failing cell.
    ///
    /// This serial path is what the `intune-exec` engine reduces to at one
    /// worker thread; results are identical at any worker count because
    /// cells are independent and carry identity-derived seeds.
    fn run_batch<'a>(
        &self,
        cells: impl IntoIterator<Item = (usize, &'a Configuration, u64)>,
        inputs: &[Self::Input],
    ) -> Result<Vec<ExecutionReport>> {
        cells
            .into_iter()
            .map(|(i, cfg, seed)| {
                let input = inputs.get(i).ok_or_else(|| Error::Measurement {
                    input: i,
                    detail: format!("input index out of range (corpus has {})", inputs.len()),
                })?;
                self.run_cell(cfg, i, input, seed)
            })
            .collect()
    }

    /// Extracts only the features in `set`, returning the samples in
    /// `set.iter()` order together with the summed extraction cost.
    fn extract_set(&self, set: &FeatureSet, input: &Self::Input) -> (Vec<f64>, f64) {
        let mut values = Vec::with_capacity(set.count());
        let mut cost = 0.0;
        for id in set.iter() {
            let s = self.extract(id.property, id.level, input);
            values.push(s.value);
            cost += s.cost;
        }
        (values, cost)
    }
}

impl<B: Benchmark + ?Sized> BenchmarkExt for B {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConfigSpace;
    use crate::cost::ExecutionReport;

    /// A toy benchmark: "sorts" by charging n·log n or n² depending on the
    /// switch, with a single two-level feature (input length at two costs).
    struct Toy;

    impl Benchmark for Toy {
        type Input = Vec<f64>;

        fn name(&self) -> &str {
            "toy"
        }

        fn space(&self) -> ConfigSpace {
            ConfigSpace::builder().switch("alg", 2).build()
        }

        fn run(&self, cfg: &Configuration, input: &Self::Input) -> ExecutionReport {
            let n = input.len() as f64;
            let cost = match cfg.choice(0) {
                0 => n * n.max(2.0).log2(),
                _ => n * n,
            };
            ExecutionReport::of_cost(cost)
        }

        fn properties(&self) -> Vec<FeatureDef> {
            vec![FeatureDef::new("length", 2)]
        }

        fn extract(&self, _property: usize, level: usize, input: &Self::Input) -> FeatureSample {
            FeatureSample::new(input.len() as f64, (level + 1) as f64)
        }
    }

    #[test]
    fn extract_all_fills_every_slot() {
        let b = Toy;
        let fv = b.extract_all(&vec![1.0; 10]);
        assert_eq!(fv.len(), 2);
        assert!(fv.dense().iter().all(|v| !v.is_nan()));
    }

    #[test]
    fn extract_set_sums_costs() {
        let b = Toy;
        let set = FeatureSet::from_choices(vec![Some(1)]);
        let (values, cost) = b.extract_set(&set, &vec![1.0; 10]);
        assert_eq!(values, vec![10.0]);
        assert_eq!(cost, 2.0);
    }

    #[test]
    fn run_reflects_choice() {
        let b = Toy;
        let space = b.space();
        let mut fast = space.default_config();
        fast.set(0, crate::config::ParamValue::Choice(0));
        let mut slow = space.default_config();
        slow.set(0, crate::config::ParamValue::Choice(1));
        let input = vec![0.0; 1024];
        assert!(b.run(&fast, &input).cost < b.run(&slow, &input).cost);
    }

    #[test]
    fn default_accuracy_is_none() {
        assert!(Toy.accuracy().is_none());
    }

    /// A benchmark that panics on inputs shorter than 2 elements.
    struct Fragile;

    impl Benchmark for Fragile {
        type Input = Vec<f64>;

        fn name(&self) -> &str {
            "fragile"
        }

        fn space(&self) -> ConfigSpace {
            ConfigSpace::builder().switch("alg", 2).build()
        }

        fn run(&self, _cfg: &Configuration, input: &Self::Input) -> ExecutionReport {
            assert!(input.len() >= 2, "fragile benchmark needs >= 2 elements");
            ExecutionReport::of_cost(input.len() as f64)
        }

        fn properties(&self) -> Vec<FeatureDef> {
            vec![FeatureDef::new("length", 1)]
        }

        fn extract(&self, _property: usize, _level: usize, input: &Self::Input) -> FeatureSample {
            FeatureSample::new(input.len() as f64, 1.0)
        }
    }

    #[test]
    fn run_cell_converts_panics_into_typed_errors() {
        let b = Fragile;
        let cfg = b.space().default_config();
        assert!(b.run_cell(&cfg, 0, &vec![1.0, 2.0], 0).is_ok());
        let err = b.run_cell(&cfg, 3, &vec![1.0], 0).unwrap_err();
        match err {
            crate::error::Error::Measurement { input, detail } => {
                assert_eq!(input, 3);
                assert!(detail.contains(">= 2 elements"), "detail: {detail}");
            }
            other => panic!("expected Measurement error, got {other:?}"),
        }
    }

    #[test]
    fn run_batch_measures_cells_in_order() {
        let b = Toy;
        let cfg = b.space().default_config();
        let inputs = vec![vec![0.0; 4], vec![0.0; 8]];
        let reports = b.run_batch([(1, &cfg, 7), (0, &cfg, 8)], &inputs).unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0], b.run(&cfg, &inputs[1]));
        assert_eq!(reports[1], b.run(&cfg, &inputs[0]));
    }

    #[test]
    fn run_seeded_default_ignores_seed_but_overrides_see_it() {
        struct Randomized;
        impl Benchmark for Randomized {
            type Input = f64;
            fn name(&self) -> &str {
                "randomized"
            }
            fn space(&self) -> ConfigSpace {
                ConfigSpace::builder().switch("alg", 2).build()
            }
            fn run(&self, _cfg: &Configuration, input: &Self::Input) -> ExecutionReport {
                ExecutionReport::of_cost(*input)
            }
            fn run_seeded(
                &self,
                _cfg: &Configuration,
                input: &Self::Input,
                seed: u64,
            ) -> ExecutionReport {
                // Seed-dependent jitter stands in for internal randomness.
                ExecutionReport::of_cost(input + (seed % 10) as f64)
            }
            fn properties(&self) -> Vec<FeatureDef> {
                vec![FeatureDef::new("x", 1)]
            }
            fn extract(&self, _p: usize, _l: usize, input: &Self::Input) -> FeatureSample {
                FeatureSample::new(*input, 1.0)
            }
        }
        let cfg = Toy.space().default_config();
        // Default: seed is inert.
        assert_eq!(
            Toy.run_seeded(&cfg, &vec![0.0; 8], 3).cost,
            Toy.run(&cfg, &vec![0.0; 8]).cost
        );
        // Override: run_cell threads the seed through.
        let r = Randomized.run_cell(&cfg, 0, &100.0, 7).unwrap();
        assert_eq!(r.cost, 107.0);
    }

    #[test]
    fn run_batch_rejects_out_of_range_input() {
        let b = Toy;
        let cfg = b.space().default_config();
        let err = b.run_batch([(5, &cfg, 0)], &[vec![0.0; 4]]).unwrap_err();
        assert!(matches!(
            err,
            crate::error::Error::Measurement { input: 5, .. }
        ));
    }
}
