//! The end-to-end two-level pipeline, the deployment artifact, and the
//! Table-1-shaped evaluation.

use crate::classifiers::Classifier;
use crate::labels::{cost_matrix, label_inputs, relabel_fraction};
use crate::level1::{run_level1_with_cache, Level1Options, Level1Result};
use crate::oracles::{dynamic_oracle, measured_oracles, static_oracle, OneLevelClassifier};
use crate::perf::PerfMatrix;
use crate::selection::{
    samples_for, select_production, train_candidates, Candidate, CandidateScore, SelectionOptions,
};
use intune_core::{Benchmark, Configuration, ExecutionReport, FeatureVector, Result};
use intune_exec::{CostCache, Engine};

/// All knobs of the two-level method.
#[derive(Debug, Clone)]
pub struct TwoLevelOptions {
    /// Level-1 options (cluster count, EA budget, strategy, seed).
    pub level1: Level1Options,
    /// Cost-matrix accuracy weight λ (paper sweeps 0.001–1; 0.5 best).
    pub lambda: f64,
    /// Candidate training / production selection options.
    pub selection: SelectionOptions,
    /// Fraction of training inputs held out from classifier fitting and
    /// used only to score candidates during production selection (the
    /// paper divides its inputs into a classifier-training set and a set
    /// the candidates are applied to).
    pub selection_fraction: f64,
}

impl Default for TwoLevelOptions {
    fn default() -> Self {
        TwoLevelOptions {
            level1: Level1Options::default(),
            lambda: 0.5,
            selection: SelectionOptions::default(),
            selection_fraction: 0.3,
        }
    }
}

/// Training-cost accounting (the paper's §4.2 training-time discussion:
/// landmark autotuning dominates, and an exhaustive per-input search would
/// cost `inputs / clusters` times more). With the `intune-exec` engine the
/// measurement budget is memoized, so *requested* and *executed* runs
/// diverge: the difference is the cache-hit count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingStats {
    /// Objective evaluations requested by the evolutionary autotuner
    /// across all landmarks (memoized revisits included).
    pub tuner_evaluations: usize,
    /// Measurement cells requested for the landmark × input matrix
    /// (`clusters × inputs`).
    pub measurement_runs: usize,
    /// Fresh program executions actually performed across all of Level 1
    /// (tuning + matrix fill) after memoization.
    pub measured_runs: usize,
    /// Measurements answered from the cost cache instead of re-running.
    pub cache_hits: usize,
    /// Number of training inputs.
    pub inputs: usize,
    /// Number of landmarks (clusters).
    pub clusters: usize,
    /// Level-2 subset trees fitted, over every fold and cost matrix.
    pub trees_fitted: usize,
    /// Column scans the subset trees requested at their nodes.
    pub split_scans: usize,
    /// Column scans actually computed; the rest were shared through the
    /// per-fold split memo.
    pub split_scans_computed: usize,
}

impl TrainingStats {
    /// How many times more tuner work an exhaustive find-the-best-config-
    /// per-input approach would need (the paper: "over 200 times longer",
    /// given 20 000–30 000 inputs and 100 landmarks).
    pub fn exhaustive_ratio(&self) -> f64 {
        self.inputs as f64 / self.clusters.max(1) as f64
    }

    /// Total fresh program executions during training.
    pub fn total_runs(&self) -> usize {
        self.measured_runs
    }

    /// Fraction of requested measurements served by the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        intune_exec::hit_rate(
            self.cache_hits as u64,
            (self.measured_runs + self.cache_hits) as u64,
        )
    }
}

/// Everything the two-level method learns.
#[derive(Debug, Clone)]
pub struct TwoLevelResult {
    /// Level-1 artifacts (features, clustering, landmarks, perf matrix).
    pub level1: Level1Result,
    /// Second-level (performance-space) label per training input.
    pub labels: Vec<usize>,
    /// Fraction of inputs whose cluster changed between the levels
    /// (the paper's 73.4 % statistic).
    pub relabel_fraction: f64,
    /// The misclassification cost matrix `C_ij`.
    pub cost_matrix: Vec<Vec<f64>>,
    /// The trained candidate family.
    pub candidates: Vec<Candidate>,
    /// Per-candidate selection scores.
    pub scores: Vec<CandidateScore>,
    /// Index of the production classifier in `candidates`.
    pub chosen: usize,
    /// Training-cost accounting.
    pub stats: TrainingStats,
}

impl TwoLevelResult {
    /// The production classifier.
    pub fn production(&self) -> &Classifier {
        &self.candidates[self.chosen].classifier
    }
}

/// Runs the full two-level method on a training corpus. All benchmark
/// measurements route through `engine` (memoized per corpus, deterministic
/// at any worker count).
///
/// # Errors
/// Returns [`intune_core::Error::Measurement`] if any benchmark cell fails.
///
/// # Panics
/// Panics if `inputs` is empty.
pub fn learn<B: Benchmark + Sync>(
    benchmark: &B,
    inputs: &[B::Input],
    opts: &TwoLevelOptions,
    engine: &Engine,
) -> Result<TwoLevelResult>
where
    B::Input: Sync,
{
    learn_with_cache(benchmark, inputs, opts, engine, CostCache::new())
}

/// Like [`learn`], but seeded with a training-corpus cost cache (e.g. one
/// persisted by [`CostCache::save`] from a previous run over the same
/// corpus). The warmed cache comes back in `result.level1.cache`, ready
/// to be saved again.
///
/// # Errors
/// Returns [`intune_core::Error::Measurement`] if any benchmark cell fails.
///
/// # Panics
/// Panics if `inputs` is empty.
pub fn learn_with_cache<B: Benchmark + Sync>(
    benchmark: &B,
    inputs: &[B::Input],
    opts: &TwoLevelOptions,
    engine: &Engine,
    cache: CostCache,
) -> Result<TwoLevelResult>
where
    B::Input: Sync,
{
    let level1 = run_level1_with_cache(benchmark, inputs, &opts.level1, engine, cache)?;
    let threshold = benchmark.accuracy().map(|a| a.threshold);

    let labels = label_inputs(&level1.perf, threshold);
    let relabeled = relabel_fraction(&level1.cluster_labels, &labels);
    let cm = cost_matrix(&level1.perf, &labels, threshold, opts.lambda);

    // Hold out a slice of the training inputs: classifiers are fitted on
    // the rest, candidates are *scored* on the held-out slice only.
    let n = inputs.len();
    let (fit_idx, sel_idx) = intune_ml::crossval::train_test_split(
        n,
        opts.selection_fraction.clamp(0.05, 0.5),
        opts.selection.seed ^ 0x5e1ec7,
    );
    let fit_features: Vec<FeatureVector> = fit_idx
        .iter()
        .map(|&i| level1.features[i].clone())
        .collect();
    let fit_labels: Vec<usize> = fit_idx.iter().map(|&i| labels[i]).collect();
    let fit_perf = level1.perf.select_inputs(&fit_idx);
    let sel_features: Vec<FeatureVector> = sel_idx
        .iter()
        .map(|&i| level1.features[i].clone())
        .collect();
    let sel_perf = level1.perf.select_inputs(&sel_idx);

    let defs = benchmark.properties();
    let (mut candidates, mut induction) = train_candidates(
        &fit_features,
        &fit_labels,
        level1.landmarks.len(),
        &cm,
        &defs,
        &opts.selection,
    );
    // Accuracy-conservative tree variants: re-train the subset trees under
    // a strongly accuracy-weighted cost matrix (λ × 8). When features only
    // probabilistically determine feasibility, these trees predict safer
    // landmarks in uncertain regions — candidates the satisfaction gate can
    // accept where the base-λ trees fall short. (The paper sweeps λ
    // globally; instantiating both ends and letting selection arbitrate is
    // the same search, done per candidate.)
    if threshold.is_some() {
        let cm_safe = cost_matrix(&level1.perf, &labels, threshold, opts.lambda * 8.0);
        let (safe, safe_induction) = train_candidates(
            &fit_features,
            &fit_labels,
            level1.landmarks.len(),
            &cm_safe,
            &defs,
            &opts.selection,
        );
        induction += safe_induction;
        candidates.extend(safe.into_iter().filter_map(|mut c| {
            if c.classifier.kind() == "subset-tree" {
                c.name = format!("{}@safe", c.name);
                Some(c)
            } else {
                None
            }
        }));
    }
    let (chosen, scores) = select_production(
        &candidates,
        &fit_features,
        &fit_perf,
        &sel_features,
        &sel_perf,
        threshold,
        opts.selection.satisfaction,
    );

    let cache_stats = level1.cache.stats();
    let stats = TrainingStats {
        tuner_evaluations: level1.tuner_evaluations,
        measurement_runs: level1.landmarks.len() * inputs.len(),
        measured_runs: cache_stats.misses as usize,
        cache_hits: cache_stats.hits as usize,
        inputs: inputs.len(),
        clusters: level1.landmarks.len(),
        trees_fitted: induction.trees_fitted,
        split_scans: induction.split_scans,
        split_scans_computed: induction.split_scans_computed,
    };

    Ok(TwoLevelResult {
        level1,
        labels,
        relabel_fraction: relabeled,
        cost_matrix: cm,
        candidates,
        scores,
        chosen,
        stats,
    })
}

/// The continuous-learning retrain entry point: runs the full two-level
/// method over the original training corpus **merged with journaled
/// production inputs** (in arrival order, after the base corpus — so base
/// input indices are stable and a persisted, remapped
/// [`CostCache`] warm-starts every previously-measured cell). The
/// resulting `stats.inputs` counts the merged corpus, which is what the
/// exported artifact's `trained_inputs` field reports: a promoted
/// revision provably trained on what production actually served.
///
/// # Errors
/// Returns [`intune_core::Error::Measurement`] if any benchmark cell fails.
///
/// # Panics
/// Panics if the merged corpus is empty.
pub fn relearn_merged<B: Benchmark + Sync>(
    benchmark: &B,
    base_inputs: &[B::Input],
    journaled_inputs: &[B::Input],
    opts: &TwoLevelOptions,
    engine: &Engine,
    cache: CostCache,
) -> Result<TwoLevelResult>
where
    B::Input: Sync + Clone,
{
    let merged: Vec<B::Input> = base_inputs
        .iter()
        .chain(journaled_inputs)
        .cloned()
        .collect();
    learn_with_cache(benchmark, &merged, opts, engine, cache)
}

/// The deployment artifact: landmarks + production classifier. At run time
/// it extracts only the classifier's feature subset (lazily, so the
/// incremental classifier stops paying as soon as it is confident), picks a
/// landmark, and runs it.
#[derive(Debug, Clone)]
pub struct TunedProgram<'b, B: Benchmark> {
    benchmark: &'b B,
    landmarks: Vec<Configuration>,
    classifier: Classifier,
}

impl<'b, B: Benchmark> TunedProgram<'b, B> {
    /// Assembles the artifact from a learning result.
    pub fn new(benchmark: &'b B, result: &TwoLevelResult) -> Self {
        TunedProgram::from_parts(
            benchmark,
            result.level1.landmarks.clone(),
            result.production().clone(),
        )
    }

    /// Assembles the artifact from pre-built parts — the constructor used
    /// when a persisted `intune_serve` model artifact is reloaded instead
    /// of trained in-process.
    pub fn from_parts(
        benchmark: &'b B,
        landmarks: Vec<Configuration>,
        classifier: Classifier,
    ) -> Self {
        TunedProgram {
            benchmark,
            landmarks,
            classifier,
        }
    }

    /// The landmark configurations.
    pub fn landmarks(&self) -> &[Configuration] {
        &self.landmarks
    }

    /// The production classifier.
    pub fn classifier(&self) -> &Classifier {
        &self.classifier
    }

    /// Classifies an input, returning `(landmark index, extraction cost)`.
    pub fn select(&self, input: &B::Input) -> (usize, f64) {
        self.classifier
            .classify_lazy(|property, level| self.benchmark.extract(property, level, input))
    }

    /// Classifies and runs: returns the execution report of the chosen
    /// landmark plus the feature-extraction cost paid to choose it.
    pub fn run(&self, input: &B::Input) -> (ExecutionReport, f64) {
        let (landmark, extraction) = self.select(input);
        (
            self.benchmark.run(&self.landmarks[landmark], input),
            extraction,
        )
    }
}

/// One Table-1 row: mean speedups over the static oracle (arithmetic mean
/// of per-input ratios) plus the satisfaction statistics.
#[derive(Debug, Clone)]
pub struct EvaluationRow {
    /// Benchmark/test name.
    pub name: String,
    /// Dynamic-oracle speedup (upper bound; no feature cost).
    pub dynamic_oracle: f64,
    /// Two-level speedup without feature-extraction time.
    pub two_level: f64,
    /// Two-level speedup with feature-extraction time.
    pub two_level_fx: f64,
    /// One-level speedup without feature-extraction time.
    pub one_level: f64,
    /// One-level speedup with feature-extraction time.
    pub one_level_fx: f64,
    /// Percentage of test inputs on which the one-level method meets the
    /// accuracy threshold (the paper's rightmost column).
    pub one_level_accuracy_pct: f64,
    /// Same for the two-level method (≥ 95 in the paper).
    pub two_level_accuracy_pct: f64,
    /// Same for the dynamic oracle — the feasibility ceiling: no method can
    /// satisfy more inputs than the best landmark per input does.
    pub dynamic_accuracy_pct: f64,
    /// Same for the static oracle.
    pub static_accuracy_pct: f64,
    /// Fraction of training inputs relabeled by the second level.
    pub relabel_fraction: f64,
    /// Per-input two-level (with extraction) speedups, ascending — the
    /// Figure 6 distribution.
    pub per_input_speedups: Vec<f64>,
    /// Chosen production classifier description.
    pub production_classifier: String,
}

/// Evaluates a learning result on held-out test inputs, producing the
/// paper's Table-1 row (plus the Figure 6 distribution). The test-corpus
/// landmark measurements are submitted to `engine` as one deduplicated
/// plan shared by the oracle baselines and both classifiers.
///
/// # Errors
/// Returns [`intune_core::Error::Measurement`] if any benchmark cell fails.
///
/// # Panics
/// Panics if `test_inputs` is empty.
pub fn evaluate<B: Benchmark + Sync>(
    benchmark: &B,
    result: &TwoLevelResult,
    test_inputs: &[B::Input],
    engine: &Engine,
) -> Result<EvaluationRow>
where
    B::Input: Sync,
{
    let mut cache = CostCache::new();
    evaluate_with_cache(benchmark, result, test_inputs, engine, &mut cache)
}

/// Like [`evaluate`], but measuring through a caller-owned test-corpus
/// cache (e.g. one persisted by [`CostCache::save`]), which is warmed in
/// place and can be saved again afterwards.
///
/// # Errors
/// Returns [`intune_core::Error::Measurement`] if any benchmark cell fails.
///
/// # Panics
/// Panics if `test_inputs` is empty.
pub fn evaluate_with_cache<B: Benchmark + Sync>(
    benchmark: &B,
    result: &TwoLevelResult,
    test_inputs: &[B::Input],
    engine: &Engine,
    cache: &mut CostCache,
) -> Result<EvaluationRow>
where
    B::Input: Sync,
{
    evaluate_impl(benchmark, result, test_inputs, engine, cache, None)
}

fn evaluate_impl<B: Benchmark + Sync>(
    benchmark: &B,
    result: &TwoLevelResult,
    test_inputs: &[B::Input],
    engine: &Engine,
    cache: &mut CostCache,
    backend: Option<&dyn SelectionBackend>,
) -> Result<EvaluationRow>
where
    B::Input: Sync,
{
    assert!(!test_inputs.is_empty(), "evaluation needs test inputs");
    let threshold = benchmark.accuracy().map(|a| a.threshold);
    let satisfaction = 0.95;

    // Landmark performance on the test set plus the per-input (dynamic)
    // oracle, measured through the engine with the test-corpus cache.
    let (perf_test, _, dyn_labels) = measured_oracles(
        benchmark,
        &result.level1.landmarks,
        test_inputs,
        engine,
        cache,
        threshold,
        satisfaction,
    )?;
    // Full feature vectors for the test set (classification + one-level).
    let features_test: Vec<FeatureVector> = test_inputs
        .iter()
        .map(|i| benchmark.extract_all(i))
        .collect();

    // Static oracle is chosen on TRAINING evidence, applied to test inputs
    // (the test-measured static oracle from `measured_oracles` would be an
    // unfairly clairvoyant baseline, so it is discarded).
    let static_lm = static_oracle(&result.level1.perf, threshold, satisfaction);
    let static_cost: Vec<f64> = (0..test_inputs.len())
        .map(|i| perf_test.cost(static_lm, i))
        .collect();

    // Dynamic oracle.
    let dyn_speedup = mean_ratio(&static_cost, |i| perf_test.cost(dyn_labels[i], i));
    let dyn_met = (0..test_inputs.len())
        .filter(|&i| perf_test.meets(dyn_labels[i], i, threshold))
        .count();
    let static_met = (0..test_inputs.len())
        .filter(|&i| perf_test.meets(static_lm, i, threshold))
        .count();

    // Two-level production classifier — in-process, or a remote
    // selection backend scored under identical accounting.
    let pairs = two_level_selections(result, &features_test, backend)?;
    let mut tl_cost = Vec::with_capacity(test_inputs.len());
    let mut tl_fx = Vec::with_capacity(test_inputs.len());
    let mut tl_met = 0usize;
    for (i, &(class, fx)) in pairs.iter().enumerate() {
        tl_cost.push(perf_test.cost(class, i));
        tl_fx.push(fx);
        if perf_test.meets(class, i, threshold) {
            tl_met += 1;
        }
    }
    let two_level = mean_ratio(&static_cost, |i| tl_cost[i]);
    let two_level_fx = mean_ratio(&static_cost, |i| tl_cost[i] + tl_fx[i]);
    let mut per_input: Vec<f64> = (0..test_inputs.len())
        .map(|i| static_cost[i] / (tl_cost[i] + tl_fx[i]).max(1e-300))
        .collect();
    per_input.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));

    // One-level baseline: nearest centroid, full feature set, accuracy-blind.
    let one_level_clf = OneLevelClassifier::new(
        result.level1.normalizer.clone(),
        result.level1.centroids.clone(),
    );
    let mut ol_cost = Vec::with_capacity(test_inputs.len());
    let mut ol_fx = Vec::with_capacity(test_inputs.len());
    let mut ol_met = 0usize;
    for (i, fv) in features_test.iter().enumerate() {
        let class = one_level_clf.classify(&fv.dense());
        ol_cost.push(perf_test.cost(class, i));
        // The one-level method extracts every declared feature.
        ol_fx.push(full_extraction_cost(fv));
        if perf_test.meets(class, i, threshold) {
            ol_met += 1;
        }
    }
    let one_level = mean_ratio(&static_cost, |i| ol_cost[i]);
    let one_level_fx = mean_ratio(&static_cost, |i| ol_cost[i] + ol_fx[i]);

    Ok(EvaluationRow {
        name: benchmark.name().to_string(),
        dynamic_oracle: dyn_speedup,
        two_level,
        two_level_fx,
        one_level,
        one_level_fx,
        one_level_accuracy_pct: 100.0 * ol_met as f64 / test_inputs.len() as f64,
        two_level_accuracy_pct: 100.0 * tl_met as f64 / test_inputs.len() as f64,
        dynamic_accuracy_pct: 100.0 * dyn_met as f64 / test_inputs.len() as f64,
        static_accuracy_pct: 100.0 * static_met as f64 / test_inputs.len() as f64,
        relabel_fraction: result.relabel_fraction,
        per_input_speedups: per_input,
        production_classifier: result.candidates[result.chosen].name.clone(),
    })
}

/// A remote selection service the evaluation harness can score in place
/// of the in-process production classifier — the `intune_daemon` client
/// implements this. The backend receives fully-extracted feature vectors
/// (selection policy is centralized; extraction stays near the data) and
/// answers `(landmark index, extraction cost actually charged)` pairs.
/// A faithful backend is **bit-identical** to the in-process path, which
/// is exactly what routing `table1 --daemon` through this trait proves.
pub trait SelectionBackend {
    /// Confirms the backend serves a model for `benchmark` (by name)
    /// before any selection is requested.
    ///
    /// # Errors
    /// Returns [`intune_core::Error::Artifact`] on a mismatch.
    fn verify_benchmark(&self, benchmark: &str) -> Result<()>;

    /// Selects a landmark for every feature vector, in order.
    ///
    /// # Errors
    /// Propagates transport or validation failures as typed errors.
    fn select_remote(&self, features: &[FeatureVector]) -> Result<Vec<(usize, f64)>>;
}

/// Like [`evaluate_with_cache`], but scoring a remote [`SelectionBackend`]
/// in place of the in-process production classifier: the two-level row is
/// computed from the backend's `(landmark, extraction cost)` answers,
/// everything else (oracles, one-level baseline, landmark measurements)
/// stays local. With a faithful backend the resulting row is
/// byte-identical to the in-process one.
///
/// # Errors
/// Returns [`intune_core::Error::Measurement`] on failing cells, plus
/// whatever the backend raises (benchmark mismatch, transport failure,
/// out-of-range landmark answers).
///
/// # Panics
/// Panics if `test_inputs` is empty.
pub fn evaluate_with_backend<B: Benchmark + Sync>(
    benchmark: &B,
    result: &TwoLevelResult,
    test_inputs: &[B::Input],
    engine: &Engine,
    cache: &mut CostCache,
    backend: &dyn SelectionBackend,
) -> Result<EvaluationRow>
where
    B::Input: Sync,
{
    backend.verify_benchmark(benchmark.name())?;
    evaluate_impl(benchmark, result, test_inputs, engine, cache, Some(backend))
}

/// Resolves the two-level `(landmark, extraction cost)` pairs either
/// locally or through a backend, bounds-checking remote answers.
fn two_level_selections(
    result: &TwoLevelResult,
    features_test: &[FeatureVector],
    backend: Option<&dyn SelectionBackend>,
) -> Result<Vec<(usize, f64)>> {
    let landmarks = result.level1.landmarks.len();
    let pairs = match backend {
        Some(backend) => backend.select_remote(features_test)?,
        None => {
            let production = result.production();
            let set = production.feature_set();
            features_test
                .iter()
                .map(|fv| production.classify_costed(&samples_for(fv, &set)))
                .collect()
        }
    };
    if pairs.len() != features_test.len() {
        return Err(intune_core::Error::artifact(format!(
            "selection backend answered {} selections for {} inputs",
            pairs.len(),
            features_test.len()
        )));
    }
    if let Some(&(lm, _)) = pairs.iter().find(|&&(lm, _)| lm >= landmarks) {
        return Err(intune_core::Error::artifact(format!(
            "selection backend chose landmark {lm}, model has {landmarks}"
        )));
    }
    Ok(pairs)
}

/// Mean over inputs of `static_cost[i] / denom(i)`.
fn mean_ratio(static_cost: &[f64], denom: impl Fn(usize) -> f64) -> f64 {
    let n = static_cost.len();
    (0..n)
        .map(|i| static_cost[i] / denom(i).max(1e-300))
        .sum::<f64>()
        / n.max(1) as f64
}

/// Extraction cost of the complete feature vector (every property at every
/// level) — what the one-level method pays.
fn full_extraction_cost(fv: &FeatureVector) -> f64 {
    fv.total_cost()
}

/// Convenience: the mean speedup of the dynamic oracle over the static
/// oracle for a restricted landmark subset — the quantity swept in
/// Figure 8 (speedup vs. number of landmark configurations).
pub fn subset_oracle_speedup(
    perf: &PerfMatrix,
    subset: &[usize],
    accuracy_threshold: Option<f64>,
    satisfaction: f64,
) -> f64 {
    let sub = perf.select_landmarks(subset);
    let static_full = static_oracle(perf, accuracy_threshold, satisfaction);
    let labels = dynamic_oracle(&sub, accuracy_threshold);
    let n = perf.num_inputs();
    (0..n)
        .map(|i| perf.cost(static_full, i) / sub.cost(labels[i], i).max(1e-300))
        .sum::<f64>()
        / n.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use intune_autotuner::TunerOptions;
    use intune_core::{AccuracySpec, ConfigSpace, FeatureDef, FeatureSample};
    use intune_ml::TreeOptions;

    /// Same synthetic benchmark family as level1 tests: 3 input kinds, the
    /// matching switch value is 3-5x cheaper, kind readable from feature 0
    /// (cheap) while feature 1 is an expensive red herring.
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
            vec![FeatureDef::new("kind", 2), FeatureDef::new("noise", 2)]
        }

        fn extract(&self, property: usize, level: usize, input: &Self::Input) -> FeatureSample {
            match property {
                0 => FeatureSample::new(input.0 as f64, 1.0 + level as f64),
                _ => FeatureSample::new((input.1 * 7.0) % 5.0, 200.0 * (level + 1) as f64),
            }
        }
    }

    fn corpus(n: usize, seed: usize) -> Vec<(usize, f64)> {
        (0..n)
            .map(|i| ((i + seed) % 3, 100.0 + ((i * 17 + seed) % 9) as f64 * 10.0))
            .collect()
    }

    fn options() -> TwoLevelOptions {
        TwoLevelOptions {
            level1: Level1Options {
                clusters: 3,
                tuner: TunerOptions {
                    population: 10,
                    generations: 8,
                    ..TunerOptions::quick(1)
                },
                ..Level1Options::default()
            },
            lambda: 0.5,
            selection: SelectionOptions {
                folds: 3,
                tree: TreeOptions {
                    max_depth: 8,
                    ..TreeOptions::default()
                },
                ..SelectionOptions::default()
            },
            selection_fraction: 0.3,
        }
    }

    #[test]
    fn end_to_end_learn_and_evaluate() {
        let b = Synthetic;
        let train = corpus(60, 0);
        let test = corpus(45, 1);
        let result = learn(&b, &train, &options(), &Engine::serial()).unwrap();
        let row = evaluate(&b, &result, &test, &Engine::serial()).unwrap();

        // The synthetic problem is perfectly classifiable from the cheap
        // feature, so the two-level method should approach the dynamic
        // oracle and trounce the static oracle.
        assert!(row.dynamic_oracle > 1.2, "dyn {}", row.dynamic_oracle);
        assert!(row.two_level > 1.2, "two-level {}", row.two_level);
        assert!(
            row.two_level_fx > 1.1,
            "two-level w/ extraction {}",
            row.two_level_fx
        );
        assert!(
            row.dynamic_oracle >= row.two_level - 1e-9,
            "oracle bounds the classifier"
        );
        assert!(row.two_level_accuracy_pct >= 95.0);
    }

    #[test]
    fn production_classifier_avoids_expensive_noise_feature() {
        let b = Synthetic;
        let train = corpus(60, 0);
        let result = learn(&b, &train, &options(), &Engine::serial()).unwrap();
        let set = result.production().feature_set();
        assert_eq!(
            set.level_of(1),
            None,
            "production classifier {} should skip the 200-cost noise property",
            result.candidates[result.chosen].name
        );
    }

    #[test]
    fn two_level_beats_one_level_with_extraction_costs() {
        let b = Synthetic;
        let train = corpus(60, 0);
        let test = corpus(45, 2);
        let result = learn(&b, &train, &options(), &Engine::serial()).unwrap();
        let row = evaluate(&b, &result, &test, &Engine::serial()).unwrap();
        // One-level pays the 200+400-cost noise features on a ~100-300-cost
        // program: with extraction it must collapse well below 1x.
        assert!(
            row.one_level_fx < 0.7,
            "one-level with extraction {}",
            row.one_level_fx
        );
        assert!(
            row.two_level_fx > row.one_level_fx,
            "two-level {} vs one-level {}",
            row.two_level_fx,
            row.one_level_fx
        );
    }

    #[test]
    fn tuned_program_round_trip() {
        let b = Synthetic;
        let train = corpus(60, 0);
        let result = learn(&b, &train, &options(), &Engine::serial()).unwrap();
        let tuned = TunedProgram::new(&b, &result);
        // Deployment on fresh inputs: selection must pick the matching
        // landmark kind for nearly all inputs.
        let mut correct = 0;
        let fresh = corpus(30, 5);
        for input in &fresh {
            let (lm, fx) = tuned.select(input);
            assert!(fx >= 0.0);
            if tuned.landmarks()[lm].choice(0) == input.0 {
                correct += 1;
            }
        }
        assert!(correct >= 28, "only {correct}/30 classified correctly");
        let (report, _) = tuned.run(&fresh[0]);
        assert!(report.cost > 0.0);
    }

    /// A faithful backend: answers exactly what the in-process production
    /// classifier would (the contract a correct daemon must meet).
    struct Faithful {
        classifier: Classifier,
    }

    impl SelectionBackend for Faithful {
        fn verify_benchmark(&self, benchmark: &str) -> Result<()> {
            if benchmark == "synthetic" {
                Ok(())
            } else {
                Err(intune_core::Error::artifact(format!(
                    "backend serves `synthetic`, not `{benchmark}`"
                )))
            }
        }

        fn select_remote(&self, features: &[FeatureVector]) -> Result<Vec<(usize, f64)>> {
            let set = self.classifier.feature_set();
            Ok(features
                .iter()
                .map(|fv| self.classifier.classify_costed(&samples_for(fv, &set)))
                .collect())
        }
    }

    /// A broken backend: routes everything to a landmark the model does
    /// not have.
    struct OutOfRange;

    impl SelectionBackend for OutOfRange {
        fn verify_benchmark(&self, _benchmark: &str) -> Result<()> {
            Ok(())
        }

        fn select_remote(&self, features: &[FeatureVector]) -> Result<Vec<(usize, f64)>> {
            Ok(features.iter().map(|_| (99usize, 0.0)).collect())
        }
    }

    #[test]
    fn faithful_backend_reproduces_the_in_process_row_bit_for_bit() {
        let b = Synthetic;
        let train = corpus(60, 0);
        let test = corpus(45, 3);
        let result = learn(&b, &train, &options(), &Engine::serial()).unwrap();
        let local = evaluate(&b, &result, &test, &Engine::serial()).unwrap();
        let backend = Faithful {
            classifier: result.production().clone(),
        };
        let mut cache = CostCache::new();
        let remote =
            evaluate_with_backend(&b, &result, &test, &Engine::serial(), &mut cache, &backend)
                .unwrap();
        assert_eq!(local.two_level.to_bits(), remote.two_level.to_bits());
        assert_eq!(local.two_level_fx.to_bits(), remote.two_level_fx.to_bits());
        assert_eq!(local.two_level_accuracy_pct, remote.two_level_accuracy_pct);
        assert_eq!(
            local
                .per_input_speedups
                .iter()
                .map(|f| f.to_bits())
                .collect::<Vec<_>>(),
            remote
                .per_input_speedups
                .iter()
                .map(|f| f.to_bits())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn lying_backends_surface_typed_errors() {
        let b = Synthetic;
        let train = corpus(60, 0);
        let test = corpus(20, 3);
        let result = learn(&b, &train, &options(), &Engine::serial()).unwrap();
        let mut cache = CostCache::new();
        let err = evaluate_with_backend(
            &b,
            &result,
            &test,
            &Engine::serial(),
            &mut cache,
            &OutOfRange,
        )
        .unwrap_err();
        assert!(
            matches!(err, intune_core::Error::Artifact { .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("landmark 99"), "{err}");

        // verify_benchmark gates before any selection travels.
        let backend = Faithful {
            classifier: result.production().clone(),
        };
        assert!(backend.verify_benchmark("other").is_err());
    }

    #[test]
    fn figure8_subset_speedup_increases_with_landmarks() {
        let b = Synthetic;
        let train = corpus(60, 0);
        let result = learn(&b, &train, &options(), &Engine::serial()).unwrap();
        let perf = &result.level1.perf;
        let one = subset_oracle_speedup(perf, &[0], Some(0.5), 0.95);
        let all = subset_oracle_speedup(perf, &[0, 1, 2], Some(0.5), 0.95);
        assert!(
            all >= one - 1e-9,
            "more landmarks cannot hurt: {all} vs {one}"
        );
        assert!(all > 1.2, "full subset should show speedup, got {all}");
    }

    #[test]
    fn learns_from_corpora_too_small_to_cross_validate() {
        // With the default 30% selection slice, one or two inputs leave
        // fewer than two to fit on: no subset trees, but a classifier.
        let b = Synthetic;
        for n in 1..=4 {
            let result = learn(
                &b,
                &corpus(n, 0),
                &TwoLevelOptions::default(),
                &Engine::serial(),
            )
            .unwrap_or_else(|e| panic!("{n} inputs: {e}"));
            let fit = n - (n as f64 * 0.3).round() as usize;
            let trees = result
                .candidates
                .iter()
                .filter(|c| c.classifier.kind() == "subset-tree")
                .count();
            assert_eq!(trees > 0, fit >= 2, "{n} inputs");
            assert!(result.chosen < result.candidates.len(), "{n} inputs");
        }
    }

    #[test]
    fn level2_work_counts_are_deterministic() {
        let b = Synthetic;
        let train = corpus(60, 0);
        let stats = learn(&b, &train, &options(), &Engine::serial())
            .unwrap()
            .stats;
        // 3^2 - 1 = 8 subsets × 3 folds × 2 cost matrices (base λ and the
        // accuracy-conservative 8λ).
        assert_eq!(stats.trees_fitted, 8 * 3 * 2);
        assert!(stats.split_scans_computed <= stats.split_scans);
        assert!(stats.split_scans_computed > 0);
        let again = learn(&b, &train, &options(), &Engine::serial())
            .unwrap()
            .stats;
        assert_eq!(again, stats);
    }

    #[test]
    fn relabel_fraction_in_unit_range() {
        let b = Synthetic;
        let train = corpus(60, 0);
        let result = learn(&b, &train, &options(), &Engine::serial()).unwrap();
        assert!(result.relabel_fraction >= 0.0 && result.relabel_fraction <= 1.0);
    }
}
