//! Level 1: feature extraction, input clustering, landmark creation, and
//! performance measurement (Figure 4 of the paper).
//!
//! All benchmark executions — the evolutionary autotuner's objective
//! evaluations and the landmark × input `PerfMatrix` fill — route through
//! the `intune_exec` measurement engine with one [`CostCache`] per training
//! corpus, so a cell measured while tuning a landmark is never re-run when
//! the matrix is filled, and a failing cell surfaces as a typed
//! [`intune_core::Error::Measurement`] instead of aborting the process.

use crate::perf::PerfMatrix;
use intune_autotuner::{EvolutionaryTuner, Objective, TunerOptions};
use intune_core::{Benchmark, Configuration, FeatureVector, Result};
use intune_exec::{CostCache, Engine};
use intune_ml::{KMeans, KMeansOptions, ZScore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How cluster representatives are chosen — K-means medoids (the paper's
/// method) or uniform random inputs (the §3.1 ablation baseline, which the
/// paper reports to be ~41 % worse at 5 landmarks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LandmarkStrategy {
    /// K-means++ clustering in normalized feature space; autotune medoids.
    KMeansMedoids,
    /// Uniformly random representative inputs.
    UniformRandom,
}

/// Options for [`run_level1`].
#[derive(Debug, Clone)]
pub struct Level1Options {
    /// Number of input clusters K (the paper uses 100).
    pub clusters: usize,
    /// Budget of the evolutionary autotuner per landmark.
    pub tuner: TunerOptions,
    /// Representative-selection strategy.
    pub strategy: LandmarkStrategy,
    /// RNG seed (clustering, random strategy, measurement-cell seeds).
    pub seed: u64,
}

impl Default for Level1Options {
    fn default() -> Self {
        Level1Options {
            clusters: 10,
            tuner: TunerOptions::quick(0),
            strategy: LandmarkStrategy::KMeansMedoids,
            seed: 0,
        }
    }
}

/// Everything Level 1 produces; the evidence Level 2 consumes.
#[derive(Debug, Clone)]
pub struct Level1Result {
    /// All features of every training input (value + extraction cost).
    pub features: Vec<FeatureVector>,
    /// Normalizer fitted on the dense training feature matrix.
    pub normalizer: ZScore,
    /// Feature-space cluster centroids (normalized space).
    pub centroids: Vec<Vec<f64>>,
    /// Feature-space cluster label per input (the *first-level* grouping).
    pub cluster_labels: Vec<usize>,
    /// Index of the representative input autotuned for each cluster.
    pub representatives: Vec<usize>,
    /// The landmark configurations, one per cluster.
    pub landmarks: Vec<Configuration>,
    /// Landmark × input execution evidence.
    pub perf: PerfMatrix,
    /// Total program executions spent by the autotuner across landmarks.
    pub tuner_evaluations: usize,
    /// The training-corpus cost cache (warm: every tuner evaluation and
    /// matrix cell is memoized). Callers measuring more configurations on
    /// the *same* corpus should keep feeding this cache.
    pub cache: CostCache,
}

/// Runs Level 1 end to end on the given measurement engine with a fresh
/// per-corpus cost cache (see [`run_level1_with_cache`] to warm-start
/// from a persisted cache).
///
/// # Errors
/// Returns [`intune_core::Error::Measurement`] if any benchmark cell fails.
///
/// # Panics
/// Panics if `inputs` is empty or `opts.clusters == 0`.
pub fn run_level1<B: Benchmark + Sync>(
    benchmark: &B,
    inputs: &[B::Input],
    opts: &Level1Options,
    engine: &Engine,
) -> Result<Level1Result>
where
    B::Input: Sync,
{
    run_level1_with_cache(benchmark, inputs, opts, engine, CostCache::new())
}

/// Like [`run_level1`], but seeded with a caller-owned cost cache — e.g.
/// one persisted by [`CostCache::save`] from a previous run over the
/// *same corpus* (cells are keyed by input index). Cells already present
/// are answered from memory; the warmed cache comes back in
/// [`Level1Result::cache`].
///
/// # Errors
/// Returns [`intune_core::Error::Measurement`] if any benchmark cell fails.
///
/// # Panics
/// Panics if `inputs` is empty or `opts.clusters == 0`.
pub fn run_level1_with_cache<B: Benchmark + Sync>(
    benchmark: &B,
    inputs: &[B::Input],
    opts: &Level1Options,
    engine: &Engine,
    mut cache: CostCache,
) -> Result<Level1Result>
where
    B::Input: Sync,
{
    assert!(!inputs.is_empty(), "level 1 requires training inputs");
    assert!(opts.clusters > 0, "level 1 requires at least one cluster");

    // Step 1: feature extraction (all properties at all levels).
    let features: Vec<FeatureVector> = inputs.iter().map(|i| benchmark.extract_all(i)).collect();
    let dense: Vec<Vec<f64>> = features.iter().map(|f| f.dense()).collect();

    // Step 2: normalize + cluster.
    let normalizer = ZScore::fit(&dense);
    let normalized = normalizer.transform_all(&dense);
    let km = KMeans::fit(
        &normalized,
        KMeansOptions {
            k: opts.clusters,
            max_iters: 100,
            seed: opts.seed,
            tol: 1e-9,
        },
    );

    let (centroids, cluster_labels, representatives) = match opts.strategy {
        LandmarkStrategy::KMeansMedoids => (
            km.centroids().to_vec(),
            km.labels().to_vec(),
            km.medoids(&normalized),
        ),
        LandmarkStrategy::UniformRandom => {
            let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x5eed);
            let k = opts.clusters.min(inputs.len());
            let reps: Vec<usize> = (0..k).map(|_| rng.gen_range(0..inputs.len())).collect();
            // Clusters induced by nearest representative in feature space.
            let centroids: Vec<Vec<f64>> = reps.iter().map(|&r| normalized[r].clone()).collect();
            let labels: Vec<usize> = normalized.iter().map(|p| nearest(&centroids, p)).collect();
            (centroids, labels, reps)
        }
    };

    // Step 3: landmark creation — one EA run per representative input. The
    // objective evaluations go through the engine's memoizing single-cell
    // path: the EA revisits configurations (elites' kin, converged
    // populations), and each revisit is a cache hit, not a re-run.
    let objective = match benchmark.accuracy() {
        Some(spec) => Objective::with_accuracy_target(spec.threshold),
        None => Objective::cost_only(),
    };
    let space = benchmark.space();
    let mut tuner_evaluations = 0usize;
    let mut landmarks: Vec<Configuration> = Vec::with_capacity(representatives.len());
    for (c, &rep) in representatives.iter().enumerate() {
        let tuner = EvolutionaryTuner::new(TunerOptions {
            seed: opts.tuner.seed ^ (c as u64).wrapping_mul(0x9e3779b97f4a7c15),
            ..opts.tuner
        });
        let result = tuner.try_tune(&space, objective, |cfg| {
            engine.measure_one(benchmark, rep, &inputs[rep], cfg, &mut cache)
        })?;
        tuner_evaluations += result.evaluations;
        landmarks.push(result.best);
    }

    // Step 4: performance measurement — every landmark on every input,
    // submitted as one deduplicated plan. Each landmark's cell on its own
    // representative was already measured during tuning: a cache hit.
    let perf = measure_with_cache(benchmark, &landmarks, inputs, engine, &mut cache)?;

    Ok(Level1Result {
        features,
        normalizer,
        centroids,
        cluster_labels,
        representatives,
        landmarks,
        perf,
        tuner_evaluations,
        cache,
    })
}

fn nearest(centroids: &[Vec<f64>], p: &[f64]) -> usize {
    let mut best = (0usize, f64::INFINITY);
    for (c, centroid) in centroids.iter().enumerate() {
        let d: f64 = centroid.iter().zip(p).map(|(a, b)| (a - b) * (a - b)).sum();
        if d < best.1 {
            best = (c, d);
        }
    }
    best.0
}

/// Measures all `landmarks` on all `inputs` through the engine with a
/// fresh cache. The result is deterministic at any engine worker count
/// (cells are independent, reports deterministic, results indexed).
pub fn measure<B: Benchmark + Sync>(
    benchmark: &B,
    landmarks: &[Configuration],
    inputs: &[B::Input],
    engine: &Engine,
) -> Result<PerfMatrix>
where
    B::Input: Sync,
{
    let mut cache = CostCache::new();
    measure_with_cache(benchmark, landmarks, inputs, engine, &mut cache)
}

/// Like [`measure`], but re-using (and warming) a caller-owned cache that
/// must belong to the same input corpus.
pub fn measure_with_cache<B: Benchmark + Sync>(
    benchmark: &B,
    landmarks: &[Configuration],
    inputs: &[B::Input],
    engine: &Engine,
    cache: &mut CostCache,
) -> Result<PerfMatrix>
where
    B::Input: Sync,
{
    let rows = engine.measure_matrix(benchmark, landmarks, inputs, cache)?;
    Ok(PerfMatrix::from_reports(rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use intune_core::{AccuracySpec, ConfigSpace, ExecutionReport, FeatureDef, FeatureSample};

    /// A synthetic benchmark whose best switch value equals the input's
    /// "kind" (0, 1, or 2), discoverable from feature 0.
    struct Synthetic;

    impl Benchmark for Synthetic {
        type Input = (usize, f64); // (kind, size)

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
            // Matching algorithm: cost = size; mismatched: 3x..5x.
            let penalty = 1.0 + 2.0 * ((alg + 3 - kind) % 3) as f64;
            ExecutionReport::with_accuracy(size * penalty, 1.0)
        }

        fn accuracy(&self) -> Option<AccuracySpec> {
            Some(AccuracySpec::new(0.5))
        }

        fn properties(&self) -> Vec<FeatureDef> {
            vec![FeatureDef::new("kind", 2), FeatureDef::new("size", 2)]
        }

        fn extract(&self, property: usize, level: usize, input: &Self::Input) -> FeatureSample {
            let value = match property {
                0 => input.0 as f64,
                _ => input.1,
            };
            FeatureSample::new(value, (level + 1) as f64)
        }
    }

    fn corpus() -> Vec<(usize, f64)> {
        (0..60)
            .map(|i| (i % 3, 100.0 + (i % 7) as f64 * 10.0))
            .collect()
    }

    fn options() -> Level1Options {
        Level1Options {
            clusters: 3,
            tuner: TunerOptions {
                population: 10,
                generations: 8,
                ..TunerOptions::quick(1)
            },
            strategy: LandmarkStrategy::KMeansMedoids,
            seed: 0,
        }
    }

    fn run(opts: &Level1Options) -> Level1Result {
        run_level1(&Synthetic, &corpus(), opts, &Engine::serial()).unwrap()
    }

    #[test]
    fn level1_shapes_are_consistent() {
        let r = run(&options());
        assert_eq!(r.features.len(), 60);
        assert_eq!(r.cluster_labels.len(), 60);
        assert_eq!(r.landmarks.len(), 3);
        assert_eq!(r.representatives.len(), 3);
        assert_eq!(r.perf.num_landmarks(), 3);
        assert_eq!(r.perf.num_inputs(), 60);
    }

    #[test]
    fn landmarks_specialize_to_their_clusters() {
        let inputs = corpus();
        let r = run(&options());
        // The three kinds should be separated by clustering (kind feature
        // dominates), and each cluster's landmark should pick the matching
        // algorithm for its representative's kind.
        for (c, &rep) in r.representatives.iter().enumerate() {
            let kind = inputs[rep].0;
            assert_eq!(
                r.landmarks[c].choice(0),
                kind,
                "cluster {c} landmark should specialize to kind {kind}"
            );
        }
    }

    #[test]
    fn perf_matrix_reflects_specialization() {
        let inputs = corpus();
        let r = run(&options());
        // For each input, the cheapest landmark must be one whose config
        // matches the input kind.
        for (i, input) in inputs.iter().enumerate() {
            let best = (0..3)
                .min_by(|&a, &bb| r.perf.cost(a, i).partial_cmp(&r.perf.cost(bb, i)).unwrap())
                .unwrap();
            assert_eq!(r.landmarks[best].choice(0), input.0);
        }
    }

    #[test]
    fn measurement_is_identical_across_engine_worker_counts() {
        let inputs = corpus();
        let r = run(&options());
        let serial = measure(&Synthetic, &r.landmarks, &inputs, &Engine::new(1)).unwrap();
        let pooled = measure(&Synthetic, &r.landmarks, &inputs, &Engine::new(4)).unwrap();
        for l in 0..3 {
            for i in 0..inputs.len() {
                assert_eq!(serial.cost(l, i), pooled.cost(l, i));
                assert_eq!(serial.accuracy(l, i), pooled.accuracy(l, i));
            }
        }
    }

    #[test]
    fn tuning_warms_the_matrix_fill_cache() {
        let r = run(&options());
        let stats = r.cache.stats();
        // Every landmark's winning configuration was evaluated on its
        // representative during tuning, so the matrix fill must hit at
        // least once per landmark (the EA's own revisits add more).
        assert!(
            stats.hits >= r.landmarks.len() as u64,
            "expected >= {} cache hits, got {}",
            r.landmarks.len(),
            stats.hits
        );
    }

    #[test]
    fn duplicate_landmarks_dedup_through_the_suite_measure_path() {
        // Why the suite's `dedup_saved` reads 0 at micro scale in every
        // case: suite plans are built from EA-winner landmarks, which are
        // pairwise-distinct *configurations* at every scale probed (they
        // can still produce identical cost rows when the differing genes
        // are cost-neutral — observed on sort2/helmholtz3d — but distinct
        // configurations are distinct cells, correctly not deduplicated).
        // The accounting itself works: measuring a landmark list that
        // *does* repeat a configuration collapses the duplicate row.
        let inputs = corpus();
        let r = run(&options());
        assert!(
            r.landmarks.iter().enumerate().all(|(i, a)| r
                .landmarks
                .iter()
                .skip(i + 1)
                .all(|b| a != b)),
            "EA landmarks from distinct seeds should be pairwise distinct"
        );

        let engine = Engine::serial();
        let mut duplicated = r.landmarks.clone();
        duplicated.push(r.landmarks[0].clone());
        let perf = measure(&Synthetic, &duplicated, &inputs, &engine).unwrap();
        assert_eq!(
            engine.stats().dedup_saved,
            inputs.len() as u64,
            "one duplicated landmark must collapse a full matrix row"
        );
        for i in 0..inputs.len() {
            assert_eq!(perf.cost(0, i), perf.cost(3, i));
        }
    }

    #[test]
    fn random_strategy_produces_valid_shapes() {
        let opts = Level1Options {
            strategy: LandmarkStrategy::UniformRandom,
            ..options()
        };
        let r = run(&opts);
        assert_eq!(r.landmarks.len(), 3);
        assert!(r.cluster_labels.iter().all(|&l| l < 3));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(&options());
        let c = run(&options());
        assert_eq!(a.landmarks, c.landmarks);
        assert_eq!(a.cluster_labels, c.cluster_labels);
    }

    #[test]
    fn failing_cell_surfaces_as_typed_error() {
        struct Bomb;
        impl Benchmark for Bomb {
            type Input = usize;
            fn name(&self) -> &str {
                "bomb"
            }
            fn space(&self) -> ConfigSpace {
                ConfigSpace::builder().switch("alg", 2).build()
            }
            fn run(&self, _cfg: &Configuration, input: &Self::Input) -> ExecutionReport {
                assert!(*input != 3, "cell detonated");
                ExecutionReport::of_cost(*input as f64 + 1.0)
            }
            fn properties(&self) -> Vec<FeatureDef> {
                vec![FeatureDef::new("x", 1)]
            }
            fn extract(&self, _p: usize, _l: usize, input: &Self::Input) -> FeatureSample {
                FeatureSample::new(*input as f64, 1.0)
            }
        }
        let inputs: Vec<usize> = (0..8).collect();
        let cfg = Bomb.space().default_config();
        let err = measure(&Bomb, &[cfg], &inputs, &Engine::serial()).unwrap_err();
        match err {
            intune_core::Error::Measurement { input, detail } => {
                assert_eq!(input, 3);
                assert!(detail.contains("detonated"), "detail: {detail}");
            }
            other => panic!("expected Measurement error, got {other:?}"),
        }
    }
}
