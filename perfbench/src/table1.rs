//! `table1`: learn and evaluate all eight Table-1 cases in-process.
//!
//! Exercises exec, autotuner, ml and learning; bypasses the daemon,
//! serve, journal and datalog entirely.

use crate::host::{self, CpuTimes, CpuWindow};
use crate::report::{median, Check, Metric, Outcome};
use crate::spans::Tracer;
use crate::Opts;
use intune_core::Benchmark;
use intune_eval::{visit_case, CaseVisitor, SuiteConfig, TestCase};
use intune_exec::{CostCache, Engine, EngineStats};
use intune_learning::level1::run_level1_with_cache;
use intune_learning::pipeline::{evaluate, learn};
use intune_learning::{EvaluationRow, TwoLevelOptions, TwoLevelResult};
use intune_obs::{Histogram, LatencySummary};
use std::time::Instant;

/// Seconds of run length per pass over the eight cases (one pass
/// learns and evaluates all eight in about six seconds on one thread).
const SECONDS_PER_PASS: f64 = 6.5;

/// What one learned-and-evaluated case gives.
struct CaseRun {
    corpus_s: f64,
    /// Learn plus evaluate, wall seconds and CPU seconds.
    work_s: f64,
    cpu_s: f64,
    inputs: usize,
    /// Two-level speedup over the static oracle, feature extraction
    /// included.
    speedup: f64,
    /// Two-level speedup without feature extraction, and the dynamic
    /// oracle's, which bounds it from above when accuracy is fixed.
    two_level: f64,
    dynamic_oracle: f64,
    fixed_accuracy: bool,
    tuner_evals: usize,
}

/// Level 1 on its own (on a cold cache of its own), `learn` and
/// `evaluate`, one span each under `root`. `learn` runs level 1 again
/// inside, so level 2 is `learn` minus the level-1 span.
#[allow(clippy::too_many_arguments)]
pub fn traced_learning<B: Benchmark + Sync>(
    t: &mut Tracer,
    trace: u64,
    root: u64,
    benchmark: &B,
    train: &[B::Input],
    test: &[B::Input],
    opts: &TwoLevelOptions,
    engine: &Engine,
) -> intune_core::Result<(TwoLevelResult, EvaluationRow)>
where
    B::Input: Sync + Clone,
{
    t.time(trace, root, "learning.level1", || {
        run_level1_with_cache(benchmark, train, &opts.level1, engine, CostCache::new())
    })?;
    let result = t.time(trace, root, "learning.learn", || {
        learn(benchmark, train, opts, engine)
    })?;
    let row = t.time(trace, root, "learning.evaluate", || {
        evaluate(benchmark, &result, test, engine)
    })?;
    Ok((result, row))
}

/// The learning layer's per-layer metrics, from the spans
/// [`traced_learning`] recorded.
pub fn learning_metrics(t: &Tracer) -> Vec<Metric> {
    let sum_s = |name: &str| t.durations_ns(name).iter().sum::<u64>() as f64 / 1e9;
    let level1_s = sum_s("learning.level1");
    vec![
        Metric::new("learning.level1_s", level1_s, "s"),
        Metric::new("learning.level2_s", sum_s("learning.learn") - level1_s, "s"),
        Metric::new("learning.eval_s", sum_s("learning.evaluate"), "s"),
    ]
}

/// Learns and evaluates one case; with a tracer, also times each layer.
struct LearnCase<'t> {
    /// Learning options at the suite's default seed.
    learn_opts: TwoLevelOptions,
    entered: Instant,
    tracer: Option<&'t mut Tracer>,
    trace: u64,
    root: u64,
}

impl CaseVisitor for LearnCase<'_> {
    type Output = CaseRun;

    fn visit<B: Benchmark + Sync>(
        &mut self,
        _case: TestCase,
        benchmark: &B,
        train: &[B::Input],
        test: &[B::Input],
        _seeded: &TwoLevelOptions,
        engine: &Engine,
    ) -> intune_core::Result<CaseRun>
    where
        B::Input: Sync + Clone,
    {
        let corpus_s = self.entered.elapsed().as_secs_f64();
        let opts = &self.learn_opts;
        let (trace, root) = (self.trace, self.root);
        let cpu = CpuWindow::open(std::process::id());
        let (result, row) = match self.tracer.as_deref_mut() {
            Some(t) => {
                // The case's corpus was generated before the visitor ran:
                // record it as a span ending now.
                t.record_ended(trace, root, "eval.corpus", (corpus_s * 1e9) as u64);
                traced_learning(t, trace, root, benchmark, train, test, opts, engine)?
            }
            None => {
                let result = learn(benchmark, train, opts, engine)?;
                let row = evaluate(benchmark, &result, test, engine)?;
                (result, row)
            }
        };
        let (cpu_s, work_s) = cpu.close();
        Ok(CaseRun {
            corpus_s,
            work_s,
            cpu_s,
            inputs: train.len() + test.len(),
            speedup: row.two_level_fx,
            two_level: row.two_level,
            dynamic_oracle: row.dynamic_oracle,
            fixed_accuracy: benchmark.accuracy().is_none(),
            tuner_evals: result.stats.tuner_evaluations,
        })
    }
}

/// One pass over the eight cases.
struct Pass {
    cases: Vec<CaseRun>,
    failed: u64,
    /// Learn plus evaluate of the eight cases, CPU and wall seconds.
    cpu_s: f64,
    wall_s: f64,
    /// Corpus generation of the eight cases, wall seconds.
    corpus_s: f64,
    engine: EngineStats,
}

fn learn_pass(
    opts: &Opts,
    suite: &SuiteConfig,
    engine: &Engine,
    mut tracer: Option<&mut Tracer>,
) -> Pass {
    let before = engine.stats();
    let mut cases = Vec::new();
    let mut failed = 0;
    for (i, case) in TestCase::all().into_iter().enumerate() {
        let trace = i as u64 + 1;
        let root = tracer.as_deref_mut().map(|t| t.begin(trace, 0, "case"));
        let mut visitor = LearnCase {
            learn_opts: opts.learn_opts(case),
            entered: Instant::now(),
            tracer: tracer.as_deref_mut(),
            trace,
            root: root.as_ref().map_or(0, |r| r.id()),
        };
        match visit_case(case, suite, engine, &mut visitor) {
            Ok(run) => cases.push(run),
            Err(e) => {
                eprintln!("table1: case {} failed: {e}", case.name());
                failed += 1;
            }
        }
        if let (Some(t), Some(r)) = (tracer.as_deref_mut(), root) {
            t.end(r);
        }
    }
    Pass {
        cpu_s: cases.iter().map(|c| c.cpu_s).sum(),
        wall_s: cases.iter().map(|c| c.work_s).sum(),
        corpus_s: cases.iter().map(|c| c.corpus_s).sum(),
        cases,
        failed,
        engine: engine.stats().since(&before),
    }
}

fn geomean_speedup<'a>(cases: impl Iterator<Item = &'a CaseRun>) -> f64 {
    let speedups: Vec<f64> = cases.map(|c| c.speedup).collect();
    intune_ml::stats::geomean(&speedups).unwrap_or(0.0)
}

/// Runs the workload: several passes over the eight cases, each on
/// corpora of its own, so one run averages over more inputs than one
/// Table-1 corpus holds.
pub fn run(opts: &Opts) -> Outcome {
    let steal_from = CpuTimes::now();
    let threads = crate::LEARN_THREADS;
    let engine = Engine::new(threads);
    let k = if opts.tiny {
        2
    } else {
        ((opts.seconds as f64 / SECONDS_PER_PASS).round() as usize).max(1)
    };
    let passes: Vec<Pass> = (0..k)
        .map(|j| learn_pass(opts, &opts.suite_for(j), &engine, None))
        .collect();
    let cases = || passes.iter().flat_map(|p| p.cases.iter());

    let mut outcome = Outcome::default();
    for pass in &passes {
        outcome.attempted += 8;
        outcome.failed += pass.failed;
    }
    let bounded = cases().all(|c| {
        c.speedup.is_finite()
            && c.speedup > 0.0
            && (!c.fixed_accuracy || c.dynamic_oracle >= c.two_level - 1e-9)
    });
    outcome.checks.push(Check::new(
        "speedups positive, oracle bounds fixed-accuracy cases",
        bounded,
        format!("{} cases", cases().count()),
    ));
    // Totals over the passes: with the host's speed changing within a
    // run, a total follows its mean speed, as the reference kernel's
    // mean does (a median over five passes would follow whichever speed
    // most passes ran at).
    let wall_s: f64 = passes.iter().map(|p| p.wall_s).sum();
    let cpu_s: f64 = passes.iter().map(|p| p.cpu_s).sum();
    let setups: Vec<f64> = passes.iter().map(|p| p.corpus_s).collect();
    let corpus_s: f64 = setups.iter().sum();
    let inputs: usize = cases().map(|c| c.inputs).sum();
    let case_ns = Histogram::new();
    for c in cases() {
        case_ns.record((c.work_s * 1e9) as u64);
    }
    let case_ns = LatencySummary::of(&case_ns.snapshot());
    let speedup = geomean_speedup(cases());
    outcome.end_to_end = vec![
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("rss_mb", host::peak_rss_mb(std::process::id()), "MiB"),
        Metric::new("ops_per_s", inputs as f64 / wall_s, "1/s"),
        Metric::new("cpu_us_per_op", cpu_s * 1e6 / inputs as f64, "us"),
        Metric::new("learn_s", wall_s / k as f64, "s"),
    ];
    let tuner_evals: usize = cases().map(|c| c.tuner_evals).sum();
    let exec = passes
        .iter()
        .fold(EngineStats::default(), |a, p| add_stats(&a, &p.engine));
    outcome.per_layer = vec![
        Metric::new("learning.speedup", speedup, "x"),
        Metric::new("bench.p50_ms", case_ns.p50_ns as f64 / 1e6, "ms"),
        Metric::new("bench.p99_ms", case_ns.p99_ns as f64 / 1e6, "ms"),
        Metric::new("bench.latency_samples", case_ns.count as f64, "count"),
        Metric::new("exec.cells_measured", exec.cells_measured as f64, "count"),
        Metric::new("exec.hit_rate", exec.hit_rate(), "ratio"),
        Metric::new("exec.plans", exec.plans as f64, "count"),
        Metric::new("exec.steals", exec.steals as f64, "count"),
        Metric::new("exec.util", cpu_s / (wall_s * threads as f64), "ratio"),
        Metric::new("autotuner.evals", tuner_evals as f64, "count"),
        Metric::new("eval.corpus_s", corpus_s, "s"),
    ];

    if opts.trace {
        // The first pass again, traced, on an engine of its own.
        let mut tracer = Tracer::new();
        let pass = learn_pass(
            opts,
            &opts.suite_for(0),
            &Engine::new(threads),
            Some(&mut tracer),
        );
        outcome.attempted += 8;
        outcome.failed += pass.failed;
        let traced_speedup = geomean_speedup(pass.cases.iter());
        let untraced_speedup = geomean_speedup(passes[0].cases.iter());
        outcome.checks.push(Check::new(
            "traced pass speedup identical to untraced",
            traced_speedup.to_bits() == untraced_speedup.to_bits(),
            format!("{traced_speedup} vs {untraced_speedup}"),
        ));
        outcome.per_layer.extend(learning_metrics(&tracer));
        let sum_s = |name: &str| tracer.durations_ns(name).iter().sum::<u64>() as f64 / 1e9;
        outcome.overhead = vec![(
            "learn_s (first pass)",
            passes[0].wall_s,
            sum_s("learning.learn") + sum_s("learning.evaluate"),
            "s",
        )];
        opts.write_spans(&tracer);
    }
    outcome.per_layer.push(Metric::new(
        "host.steal_pct",
        CpuTimes::now().steal_pct_since(&steal_from),
        "%",
    ));
    outcome
}

fn add_stats(a: &EngineStats, b: &EngineStats) -> EngineStats {
    EngineStats {
        plans: a.plans + b.plans,
        cells_requested: a.cells_requested + b.cells_requested,
        cells_measured: a.cells_measured + b.cells_measured,
        cache_hits: a.cache_hits + b.cache_hits,
        dedup_saved: a.dedup_saved + b.dedup_saved,
        steals: a.steals + b.steals,
    }
}
