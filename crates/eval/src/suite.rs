//! The unified suite runner for the paper's eight tests.

use intune_autotuner::TunerOptions;
use intune_binpacklib::{BinPacking, PackCorpus};
use intune_clusterlib::{ClusterCorpus, Clustering};
use intune_core::Benchmark;
use intune_exec::{CostCache, Engine, EngineStats};
use intune_learning::pipeline::{
    evaluate_with_backend, evaluate_with_cache, learn_with_cache, EvaluationRow, SelectionBackend,
    TwoLevelResult,
};
use intune_learning::selection::SelectionOptions;
use intune_learning::{Level1Options, PerfMatrix, TwoLevelOptions};
use intune_ml::TreeOptions;
use intune_pde::{Helmholtz3d, PdeCorpus2d, PdeCorpus3d, Poisson2d};
use intune_serve::ModelArtifact;
use intune_sortlib::{PolySort, SortCorpus};
use intune_svdlib::{SvdBench, SvdCorpus};
use std::path::{Path, PathBuf};

/// The eight tests of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TestCase {
    /// Sorting, CCR-FOIA-like real-world stand-in inputs.
    Sort1,
    /// Sorting, synthetic generator mix.
    Sort2,
    /// Clustering, Poker-Hand-like real-world stand-in inputs.
    Clustering1,
    /// Clustering, synthetic generator mix.
    Clustering2,
    /// Bin packing, synthetic mix.
    Binpacking,
    /// SVD low-rank approximation.
    Svd,
    /// Poisson 2D.
    Poisson2d,
    /// Helmholtz 3D.
    Helmholtz3d,
}

impl TestCase {
    /// All eight tests in Table-1 order.
    pub fn all() -> [TestCase; 8] {
        [
            TestCase::Sort1,
            TestCase::Sort2,
            TestCase::Clustering1,
            TestCase::Clustering2,
            TestCase::Binpacking,
            TestCase::Svd,
            TestCase::Poisson2d,
            TestCase::Helmholtz3d,
        ]
    }

    /// Table-1 row name.
    pub fn name(self) -> &'static str {
        match self {
            TestCase::Sort1 => "sort1",
            TestCase::Sort2 => "sort2",
            TestCase::Clustering1 => "clustering1",
            TestCase::Clustering2 => "clustering2",
            TestCase::Binpacking => "binpacking",
            TestCase::Svd => "svd",
            TestCase::Poisson2d => "poisson2d",
            TestCase::Helmholtz3d => "helmholtz3d",
        }
    }
}

/// Corpus sizes and learning budgets for a suite run.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Training inputs per test.
    pub train: usize,
    /// Held-out test inputs per test.
    pub test: usize,
    /// Number of clusters / landmarks K.
    pub clusters: usize,
    /// EA population per landmark.
    pub ea_population: usize,
    /// EA generations per landmark.
    pub ea_generations: usize,
    /// Cross-validation folds.
    pub folds: usize,
    /// Cost-matrix λ.
    pub lambda: f64,
    /// Sort input length range.
    pub sort_n: (usize, usize),
    /// Clustering point-count range.
    pub cluster_n: (usize, usize),
    /// Bin-packing item-count range.
    pub pack_n: (usize, usize),
    /// SVD column-count range.
    pub svd_n: (usize, usize),
    /// Poisson grid sizes. Each must be odd at every level of its
    /// multigrid hierarchy above the coarsest (`n`, `(n − 1)/2`, … down to
    /// the first level below 3), so that coarse points coincide with fine
    /// ones: `2^k − 1` qualifies, and so does 11 (11 → 5 → 2).
    pub pde2_sizes: Vec<usize>,
    /// Helmholtz grid sizes, under the same rule as `pde2_sizes`.
    pub pde3_sizes: Vec<usize>,
    /// Base seed.
    pub seed: u64,
}

impl SuiteConfig {
    /// CI-scale defaults: minutes, not hours.
    pub fn ci() -> Self {
        SuiteConfig {
            train: 96,
            test: 64,
            clusters: 8,
            ea_population: 12,
            ea_generations: 8,
            folds: 3,
            lambda: 0.5,
            sort_n: (256, 2048),
            cluster_n: (200, 700),
            pack_n: (200, 500),
            svd_n: (12, 18),
            pde2_sizes: vec![15],
            pde3_sizes: vec![7, 11],
            seed: 0,
        }
    }

    /// Paper-scale settings: K = 100 landmarks, thousands of inputs.
    pub fn paper_scale() -> Self {
        SuiteConfig {
            train: 1200,
            test: 800,
            clusters: 100,
            ea_population: 30,
            ea_generations: 30,
            folds: 10,
            lambda: 0.5,
            sort_n: (512, 16384),
            cluster_n: (300, 2000),
            pack_n: (400, 3000),
            svd_n: (16, 40),
            pde2_sizes: vec![15, 31, 63],
            pde3_sizes: vec![7, 15],
            seed: 0,
        }
    }

    fn two_level(&self, case_seed: u64) -> TwoLevelOptions {
        TwoLevelOptions {
            level1: Level1Options {
                clusters: self.clusters,
                tuner: TunerOptions {
                    population: self.ea_population,
                    generations: self.ea_generations,
                    ..TunerOptions::quick(self.seed ^ case_seed)
                },
                seed: self.seed ^ case_seed,
                ..Level1Options::default()
            },
            lambda: self.lambda,
            selection: SelectionOptions {
                folds: self.folds,
                tree: TreeOptions {
                    max_depth: 8,
                    min_leaf: 2,
                    max_thresholds: 24,
                    ..TreeOptions::default()
                },
                seed: self.seed ^ case_seed,
                ..SelectionOptions::default()
            },
            selection_fraction: 0.3,
        }
    }
}

/// The artifacts of one suite case, enough for Table 1 and Figures 6/8.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// Table-1 row (plus Figure-6 distribution).
    pub row: EvaluationRow,
    /// Landmark × training-input performance (Figure 8 resampling).
    pub perf_train: PerfMatrix,
    /// The benchmark's accuracy threshold H1, if any.
    pub accuracy_threshold: Option<f64>,
    /// `(name, objective, satisfaction, valid)` per candidate classifier.
    pub candidates: Vec<(String, f64, f64, bool)>,
    /// Training-cost accounting (§4.2: landmark autotuning dominates; an
    /// exhaustive per-input search costs `inputs/clusters` times more).
    pub stats: intune_learning::pipeline::TrainingStats,
    /// Measurement-engine counters for this case only (cells measured,
    /// cache hits, deduplication, steals). Everything except `steals` is
    /// deterministic for a given configuration.
    pub engine: EngineStats,
}

/// Typed access to one suite case: `visit_case` builds the benchmark and
/// its train/test corpora (whose input types differ per case) and hands
/// them to the visitor. This is how downstream layers — the serving
/// round-trip tests, `serve_bench`, the artifact-mode CLI — reach every
/// Table-1 case generically without `intune_eval` leaking eight concrete
/// input types.
pub trait CaseVisitor {
    /// What the visitor produces per case.
    type Output;

    /// Called once with the fully-built case. Inputs are `Clone` so
    /// visitors can assemble derived corpora (the continuous-learning
    /// retrainer merges base and journaled inputs); every suite input
    /// type is plain data.
    ///
    /// # Errors
    /// Implementations propagate measurement/artifact errors.
    fn visit<B: Benchmark + Sync>(
        &mut self,
        case: TestCase,
        benchmark: &B,
        train: &[B::Input],
        test: &[B::Input],
        opts: &TwoLevelOptions,
        engine: &Engine,
    ) -> intune_core::Result<Self::Output>
    where
        B::Input: Sync + Clone;
}

/// Builds one of the eight cases (benchmark + corpora + learning options)
/// and applies `visitor` to it.
///
/// # Errors
/// Propagates the visitor's error.
pub fn visit_case<V: CaseVisitor>(
    case: TestCase,
    cfg: &SuiteConfig,
    engine: &Engine,
    visitor: &mut V,
) -> intune_core::Result<V::Output> {
    let seed = cfg.seed;
    match case {
        TestCase::Sort1 => {
            let b = PolySort::new(cfg.sort_n.1);
            let train = SortCorpus::ccr(cfg.train, cfg.sort_n.0, cfg.sort_n.1, seed ^ 0x01);
            let test = SortCorpus::ccr(cfg.test, cfg.sort_n.0, cfg.sort_n.1, seed ^ 0x02);
            let opts = cfg.two_level(0x11);
            visitor.visit(case, &b, &train.inputs, &test.inputs, &opts, engine)
        }
        TestCase::Sort2 => {
            let b = PolySort::new(cfg.sort_n.1);
            let train = SortCorpus::synthetic(cfg.train, cfg.sort_n.0, cfg.sort_n.1, seed ^ 0x03);
            let test = SortCorpus::synthetic(cfg.test, cfg.sort_n.0, cfg.sort_n.1, seed ^ 0x04);
            let opts = cfg.two_level(0x12);
            visitor.visit(case, &b, &train.inputs, &test.inputs, &opts, engine)
        }
        TestCase::Clustering1 => {
            let b = Clustering::new();
            let train =
                ClusterCorpus::poker(cfg.train, cfg.cluster_n.0, cfg.cluster_n.1, seed ^ 0x05);
            let test =
                ClusterCorpus::poker(cfg.test, cfg.cluster_n.0, cfg.cluster_n.1, seed ^ 0x06);
            let opts = cfg.two_level(0x13);
            visitor.visit(case, &b, &train.inputs, &test.inputs, &opts, engine)
        }
        TestCase::Clustering2 => {
            let b = Clustering::new();
            let train =
                ClusterCorpus::synthetic(cfg.train, cfg.cluster_n.0, cfg.cluster_n.1, seed ^ 0x07);
            let test =
                ClusterCorpus::synthetic(cfg.test, cfg.cluster_n.0, cfg.cluster_n.1, seed ^ 0x08);
            let opts = cfg.two_level(0x14);
            visitor.visit(case, &b, &train.inputs, &test.inputs, &opts, engine)
        }
        TestCase::Binpacking => {
            let b = BinPacking::new(cfg.pack_n.1);
            let train = PackCorpus::synthetic(cfg.train, cfg.pack_n.0, cfg.pack_n.1, seed ^ 0x09);
            let test = PackCorpus::synthetic(cfg.test, cfg.pack_n.0, cfg.pack_n.1, seed ^ 0x0a);
            let opts = cfg.two_level(0x15);
            visitor.visit(case, &b, &train.inputs, &test.inputs, &opts, engine)
        }
        TestCase::Svd => {
            let b = SvdBench::new();
            let train = SvdCorpus::synthetic(cfg.train, cfg.svd_n.0, cfg.svd_n.1, seed ^ 0x0b);
            let test = SvdCorpus::synthetic(cfg.test, cfg.svd_n.0, cfg.svd_n.1, seed ^ 0x0c);
            let opts = cfg.two_level(0x16);
            visitor.visit(case, &b, &train.inputs, &test.inputs, &opts, engine)
        }
        TestCase::Poisson2d => {
            let b = Poisson2d::new();
            let train = PdeCorpus2d::synthetic(cfg.train, &cfg.pde2_sizes, seed ^ 0x0d);
            let test = PdeCorpus2d::synthetic(cfg.test, &cfg.pde2_sizes, seed ^ 0x0e);
            let opts = cfg.two_level(0x17);
            visitor.visit(case, &b, &train.inputs, &test.inputs, &opts, engine)
        }
        TestCase::Helmholtz3d => {
            let b = Helmholtz3d::new();
            let train = PdeCorpus3d::synthetic(cfg.train, &cfg.pde3_sizes, seed ^ 0x0f);
            let test = PdeCorpus3d::synthetic(cfg.test, &cfg.pde3_sizes, seed ^ 0x10);
            let opts = cfg.two_level(0x18);
            visitor.visit(case, &b, &train.inputs, &test.inputs, &opts, engine)
        }
    }
}

/// How [`run_case_full`] treats a persisted model artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactMode {
    /// Train, then export + save the artifact before evaluating.
    Save,
    /// Train, then *replace* the trained model with the loaded artifact
    /// before evaluating — so the resulting table proves the persisted
    /// model reproduces the in-process one (CI diffs the two CSVs).
    Load,
}

/// Optional persistence / remote-selection knobs of a suite run.
#[derive(Clone, Default)]
pub struct CaseRunOptions {
    /// Directory for per-corpus cost caches (`{case}.{train,test}.cache
    /// .json`). Present caches warm-start measurement; both caches are
    /// (re)saved after the run.
    pub cache_dir: Option<PathBuf>,
    /// Directory + mode for model artifacts (`{case}.model.json`).
    pub artifacts: Option<(PathBuf, ArtifactMode)>,
    /// A remote selection backend (e.g. an `intune_daemon` client): when
    /// present, the two-level row is scored against *its* answers instead
    /// of the in-process production classifier — `table1 --daemon ADDR`.
    pub selector: Option<std::sync::Arc<dyn SelectionBackend>>,
}

impl std::fmt::Debug for CaseRunOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CaseRunOptions")
            .field("cache_dir", &self.cache_dir)
            .field("artifacts", &self.artifacts)
            .field("selector", &self.selector.as_ref().map(|_| "<backend>"))
            .finish()
    }
}

/// Substitutes a loaded artifact's model into a training result, so the
/// standard evaluation path scores the *persisted* model: landmarks,
/// production classifier, normalizer and centroids all come from the
/// artifact.
///
/// # Errors
/// Returns [`intune_core::Error::Artifact`] when the artifact does not
/// validate against the benchmark or disagrees with the result's shapes.
pub fn apply_artifact<B: Benchmark>(
    result: &mut TwoLevelResult,
    benchmark: &B,
    artifact: &ModelArtifact,
) -> intune_core::Result<()> {
    artifact.validate(benchmark)?;
    if artifact.landmarks.len() != result.level1.landmarks.len() {
        return Err(intune_core::Error::artifact(format!(
            "artifact has {} landmarks, training produced {}",
            artifact.landmarks.len(),
            result.level1.landmarks.len()
        )));
    }
    result.level1.landmarks = artifact.landmarks.clone();
    result.level1.normalizer = artifact.normalizer.clone();
    result.level1.centroids = artifact.centroids.clone();
    let chosen = result.chosen;
    result.candidates[chosen].classifier = artifact.classifier.clone();
    Ok(())
}

/// Cost-cache file name for one case's corpus slice. The file name embeds
/// a fingerprint of the full [`SuiteConfig`] because cache cells are keyed
/// by input *index*: a different seed or scale generates a different
/// corpus, and reusing its cache would silently return stale reports.
fn cache_path(dir: &Path, case: TestCase, cfg: &SuiteConfig, slice: &str) -> PathBuf {
    let fingerprint = intune_core::codec::fnv1a64(format!("{cfg:?}").as_bytes());
    dir.join(format!(
        "{}.{fingerprint:016x}.{slice}.cache.json",
        case.name()
    ))
}

/// Path of a case's model artifact inside an artifact directory.
pub fn artifact_path(dir: &Path, case: TestCase) -> PathBuf {
    dir.join(format!("{}.model.json", case.name()))
}

fn load_cache_if_present(path: &Path) -> intune_core::Result<CostCache> {
    if path.exists() {
        CostCache::load(path)
    } else {
        Ok(CostCache::new())
    }
}

/// The standard suite runner as a visitor: learn (optionally warm-started
/// from persisted caches), handle artifact save/load, evaluate, persist
/// caches back.
struct OutcomeVisitor<'a> {
    run: &'a CaseRunOptions,
    /// The full suite configuration, used to fingerprint cache files
    /// (the visitor only receives the derived `TwoLevelOptions`).
    cfg: &'a SuiteConfig,
}

impl CaseVisitor for OutcomeVisitor<'_> {
    type Output = CaseOutcome;

    fn visit<B: Benchmark + Sync>(
        &mut self,
        case: TestCase,
        benchmark: &B,
        train: &[B::Input],
        test: &[B::Input],
        opts: &TwoLevelOptions,
        engine: &Engine,
    ) -> intune_core::Result<CaseOutcome>
    where
        B::Input: Sync,
    {
        let before = engine.stats();
        let train_cache = match &self.run.cache_dir {
            Some(dir) => load_cache_if_present(&cache_path(dir, case, self.cfg, "train"))?,
            None => CostCache::new(),
        };
        let mut result = learn_with_cache(benchmark, train, opts, engine, train_cache)?;

        match &self.run.artifacts {
            Some((dir, ArtifactMode::Save)) => {
                ModelArtifact::export(benchmark, &result).save(&artifact_path(dir, case))?;
            }
            Some((dir, ArtifactMode::Load)) => {
                let artifact = ModelArtifact::load(&artifact_path(dir, case))?;
                apply_artifact(&mut result, benchmark, &artifact)?;
            }
            None => {}
        }

        let mut test_cache = match &self.run.cache_dir {
            Some(dir) => load_cache_if_present(&cache_path(dir, case, self.cfg, "test"))?,
            None => CostCache::new(),
        };
        let mut row = match &self.run.selector {
            Some(backend) => evaluate_with_backend(
                benchmark,
                &result,
                test,
                engine,
                &mut test_cache,
                backend.as_ref(),
            )?,
            None => evaluate_with_cache(benchmark, &result, test, engine, &mut test_cache)?,
        };
        row.name = case.name().to_string();

        // The directory itself was created by `run_case_full`.
        if let Some(dir) = &self.run.cache_dir {
            result
                .level1
                .cache
                .save(&cache_path(dir, case, self.cfg, "train"))?;
            test_cache.save(&cache_path(dir, case, self.cfg, "test"))?;
        }

        Ok(CaseOutcome {
            perf_train: result.level1.perf.clone(),
            accuracy_threshold: benchmark.accuracy().map(|a| a.threshold),
            candidates: result
                .candidates
                .iter()
                .zip(&result.scores)
                .map(|(c, s)| (c.name.clone(), s.objective, s.satisfaction, s.valid))
                .collect(),
            stats: result.stats,
            engine: engine.stats().since(&before),
            row,
        })
    }
}

/// Runs one of the eight tests end to end on a fresh engine sized from
/// the `INTUNE_THREADS` environment (see [`run_case_with`] to share one
/// engine — and its counters — across cases).
///
/// # Panics
/// Panics if any measurement cell fails (use [`run_case_with`] for typed
/// errors).
pub fn run_case(case: TestCase, cfg: &SuiteConfig) -> CaseOutcome {
    run_case_with(case, cfg, &Engine::from_env()).expect("suite case failed")
}

/// Runs one of the eight tests end to end on the given engine. The engine
/// is reusable (and meant to be reused) across all eight cases; per-corpus
/// memoization state is created inside and scoped to each case.
///
/// # Errors
/// Returns [`intune_core::Error::Measurement`] if any benchmark cell fails.
pub fn run_case_with(
    case: TestCase,
    cfg: &SuiteConfig,
    engine: &Engine,
) -> intune_core::Result<CaseOutcome> {
    run_case_full(case, cfg, engine, &CaseRunOptions::default())
}

/// [`run_case_with`] plus persistence: optional warm-start cost caches
/// and optional model-artifact save/load (see [`CaseRunOptions`]).
///
/// # Errors
/// Returns [`intune_core::Error::Measurement`] on failing cells and
/// [`intune_core::Error::Artifact`] on persistence failures.
pub fn run_case_full(
    case: TestCase,
    cfg: &SuiteConfig,
    engine: &Engine,
    run: &CaseRunOptions,
) -> intune_core::Result<CaseOutcome> {
    if let Some(dir) = &run.cache_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| intune_core::Error::artifact(format!("cache dir: {e}")))?;
    }
    if let Some((dir, ArtifactMode::Save)) = &run.artifacts {
        std::fs::create_dir_all(dir)
            .map_err(|e| intune_core::Error::artifact(format!("artifact dir: {e}")))?;
    }
    visit_case(case, cfg, engine, &mut OutcomeVisitor { run, cfg })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SuiteConfig {
        SuiteConfig {
            train: 24,
            test: 16,
            clusters: 4,
            ea_population: 8,
            ea_generations: 4,
            folds: 2,
            sort_n: (64, 256),
            cluster_n: (60, 120),
            pack_n: (40, 120),
            svd_n: (8, 12),
            pde2_sizes: vec![7],
            pde3_sizes: vec![3],
            ..SuiteConfig::ci()
        }
    }

    #[test]
    fn pde_sizes_are_odd_above_the_coarsest_level() {
        use intune_pde::dim2::Grid2d;
        use intune_pde::dim3::Grid3d;
        use intune_pde::level::Level;

        /// The grid size of every level that has a coarser one.
        fn refined<L: Level>(finest: L, n: impl Fn(&L) -> usize) -> Vec<usize> {
            let mut sizes = Vec::new();
            let mut level = finest;
            while let Some(coarse) = level.coarser() {
                sizes.push(n(&level));
                level = coarse;
            }
            sizes
        }
        for cfg in [SuiteConfig::ci(), SuiteConfig::paper_scale()] {
            for &n in &cfg.pde2_sizes {
                let sizes = refined(Grid2d::poisson(n), Grid2d::n);
                assert!(sizes.iter().all(|s| s % 2 == 1), "2-D {n}: {sizes:?}");
            }
            for &n in &cfg.pde3_sizes {
                let sizes = refined(Grid3d::constant(n, 0.0), Grid3d::n);
                assert!(sizes.iter().all(|s| s % 2 == 1), "3-D {n}: {sizes:?}");
            }
        }
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<_> =
            TestCase::all().iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn binpacking_case_runs_end_to_end() {
        let outcome = run_case(TestCase::Binpacking, &tiny());
        assert_eq!(outcome.row.name, "binpacking");
        assert_eq!(outcome.perf_train.num_landmarks(), 4);
        assert!(!outcome.candidates.is_empty());
        assert!(outcome.row.dynamic_oracle >= 1.0 - 1e-9);
        assert_eq!(outcome.row.per_input_speedups.len(), 16);
        assert_eq!(outcome.accuracy_threshold, Some(0.95));
    }

    #[test]
    fn sort2_case_runs_end_to_end() {
        let outcome = run_case(TestCase::Sort2, &tiny());
        assert_eq!(outcome.row.name, "sort2");
        // Sort is fixed-accuracy: both methods trivially satisfy.
        assert_eq!(outcome.accuracy_threshold, None);
        assert!(outcome.row.two_level_accuracy_pct >= 99.0);
        assert!(outcome.row.dynamic_oracle >= outcome.row.two_level - 1e-9);
    }

    #[test]
    fn shared_engine_accumulates_and_reports_cache_hits() {
        let engine = Engine::serial();
        let a = run_case_with(TestCase::Sort2, &tiny(), &engine).unwrap();
        // The landmark autotuner revisits configurations and the matrix
        // fill re-measures the tuner's winners: warm-cache hits are
        // structural, not incidental.
        assert!(
            a.engine.cache_hits > 0,
            "expected a warm cost cache, stats: {}",
            a.engine
        );
        assert!(a.engine.cells_measured > 0);

        let b = run_case_with(TestCase::Binpacking, &tiny(), &engine).unwrap();
        let total = engine.stats();
        assert_eq!(
            total.cells_measured,
            a.engine.cells_measured + b.engine.cells_measured,
            "one engine accumulates across cases"
        );
    }

    fn tmp_dir(tag: &str) -> intune_core::TempDir {
        let dir = intune_core::unique_temp_dir(&format!("suite-{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn rows_equal(a: &super::EvaluationRow, b: &super::EvaluationRow) -> bool {
        a.two_level.to_bits() == b.two_level.to_bits()
            && a.two_level_fx.to_bits() == b.two_level_fx.to_bits()
            && a.one_level_fx.to_bits() == b.one_level_fx.to_bits()
            && a.dynamic_oracle.to_bits() == b.dynamic_oracle.to_bits()
            && a.production_classifier == b.production_classifier
    }

    #[test]
    fn persisted_caches_warm_start_a_second_run() {
        let dir = tmp_dir("cache");
        let run = CaseRunOptions {
            cache_dir: Some(dir.to_path_buf()),
            ..CaseRunOptions::default()
        };
        let cold_engine = Engine::serial();
        let cold = run_case_full(TestCase::Sort2, &tiny(), &cold_engine, &run).unwrap();

        let warm_engine = Engine::serial();
        let warm = run_case_full(TestCase::Sort2, &tiny(), &warm_engine, &run).unwrap();
        assert_eq!(
            warm.engine.cells_measured, 0,
            "a fully-persisted corpus re-runs nothing: {}",
            warm.engine
        );
        assert!(warm.engine.cache_hits >= cold.engine.cells_measured);
        assert!(
            rows_equal(&cold.row, &warm.row),
            "warm-started run must reproduce the cold row"
        );
    }

    #[test]
    fn cache_files_are_keyed_by_suite_config() {
        // A different seed generates a different corpus; its cache must
        // not collide with (and silently reuse) the first run's file.
        let dir = tmp_dir("cache-key");
        let run = CaseRunOptions {
            cache_dir: Some(dir.to_path_buf()),
            ..CaseRunOptions::default()
        };
        run_case_full(TestCase::Sort2, &tiny(), &Engine::serial(), &run).unwrap();

        let reseeded = SuiteConfig { seed: 7, ..tiny() };
        let engine = Engine::serial();
        let outcome = run_case_full(TestCase::Sort2, &reseeded, &engine, &run).unwrap();
        assert!(
            outcome.engine.cells_measured > 0,
            "a different corpus must run cold, not reuse stale cells: {}",
            outcome.engine
        );
    }

    #[test]
    fn artifact_save_then_load_reproduces_the_row() {
        let dir = tmp_dir("artifact");
        let engine = Engine::serial();
        let saved = run_case_full(
            TestCase::Binpacking,
            &tiny(),
            &engine,
            &CaseRunOptions {
                artifacts: Some((dir.to_path_buf(), ArtifactMode::Save)),
                ..CaseRunOptions::default()
            },
        )
        .unwrap();
        assert!(super::artifact_path(&dir, TestCase::Binpacking).exists());

        let loaded = run_case_full(
            TestCase::Binpacking,
            &tiny(),
            &Engine::serial(),
            &CaseRunOptions {
                artifacts: Some((dir.to_path_buf(), ArtifactMode::Load)),
                ..CaseRunOptions::default()
            },
        )
        .unwrap();
        assert!(
            rows_equal(&saved.row, &loaded.row),
            "the loaded artifact must reproduce the trained model's row"
        );
    }

    #[test]
    fn loading_a_missing_artifact_is_a_typed_error() {
        let dir = tmp_dir("missing-artifact");
        let err = run_case_full(
            TestCase::Sort2,
            &tiny(),
            &Engine::serial(),
            &CaseRunOptions {
                artifacts: Some((dir.to_path_buf(), ArtifactMode::Load)),
                ..CaseRunOptions::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, intune_core::Error::Artifact { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn case_outcome_identical_at_one_and_four_workers() {
        let serial = run_case_with(TestCase::Sort2, &tiny(), &Engine::new(1)).unwrap();
        let pooled = run_case_with(TestCase::Sort2, &tiny(), &Engine::new(4)).unwrap();
        assert_eq!(
            serial.row.two_level.to_bits(),
            pooled.row.two_level.to_bits()
        );
        assert_eq!(
            serial.row.two_level_fx.to_bits(),
            pooled.row.two_level_fx.to_bits()
        );
        assert_eq!(
            serial.row.dynamic_oracle.to_bits(),
            pooled.row.dynamic_oracle.to_bits()
        );
        assert_eq!(serial.engine.cells_measured, pooled.engine.cells_measured);
        assert_eq!(serial.engine.cache_hits, pooled.engine.cache_hits);
    }
}
