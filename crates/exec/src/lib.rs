//! # intune-exec
//!
//! The unified measurement engine: every `(input, configuration)` cost
//! measurement in the workspace flows through one deterministic,
//! work-stealing, memoizing executor.
//!
//! The two-level pipeline of the paper is dominated by repeated benchmark
//! measurements — landmark autotuning, the landmark × input `PerfMatrix`,
//! oracle baselines, and deployment evaluation all probe the same space of
//! cells. This crate centralizes that budget:
//!
//! * [`MeasurementPlan`] — an ordered, *deduplicated* set of cells; two
//!   landmarks that converged to the same configuration schedule one row.
//! * [`CostCache`] — exact memoization per corpus with hit/miss
//!   accounting; a cell measured during landmark tuning is never re-run
//!   when filling the `PerfMatrix` or the oracle baselines.
//! * [`Executor`] — a work-stealing deque pool (seeded worker deques + a
//!   shared injector, idle workers batch-refill then steal) whose indexed
//!   results are bit-identical at any worker count.
//! * [`Engine`] — plans in, reports out: serial cache resolution, pooled
//!   execution of misses, typed [`intune_core::Error::Measurement`] errors
//!   instead of process aborts, and an [`EngineStats`] report (cells
//!   measured, cache hits, steal counts).
//!
//! ## Example
//!
//! ```
//! use intune_exec::{CostCache, Engine, MeasurementPlan};
//! use intune_core::{Benchmark, ConfigSpace, Configuration, ExecutionReport,
//!                   FeatureDef, FeatureSample};
//!
//! struct Square;
//! impl Benchmark for Square {
//!     type Input = f64;
//!     fn name(&self) -> &str { "square" }
//!     fn space(&self) -> ConfigSpace { ConfigSpace::builder().switch("alg", 2).build() }
//!     fn run(&self, cfg: &Configuration, x: &f64) -> ExecutionReport {
//!         ExecutionReport::of_cost(x * x + cfg.choice(0) as f64)
//!     }
//!     fn properties(&self) -> Vec<FeatureDef> { vec![FeatureDef::new("x", 1)] }
//!     fn extract(&self, _: usize, _: usize, x: &f64) -> FeatureSample {
//!         FeatureSample::new(*x, 1.0)
//!     }
//! }
//!
//! let inputs = vec![1.0, 2.0, 3.0];
//! let cfg = Square.space().default_config();
//! let engine = Engine::new(4);
//! let mut cache = CostCache::new();
//! let mut plan = MeasurementPlan::new();
//! for i in 0..inputs.len() { plan.add(i, &cfg); }
//! let reports = engine.measure_plan(&Square, &inputs, &plan, &mut cache).unwrap();
//! assert_eq!(reports[2].cost, 9.0);
//! // Resubmitting is free: all three cells come from the cache.
//! engine.measure_plan(&Square, &inputs, &plan, &mut cache).unwrap();
//! assert_eq!(engine.stats().cache_hits, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod env;
pub mod executor;
pub mod plan;

pub use cache::{hit_rate, CacheStats, ConfigKey, CostCache, CACHE_SCHEMA, CACHE_VERSION};
pub use engine::{Engine, EngineStats};
pub use env::{threads_from_env, THREADS_ENV};
pub use executor::{ExecOutcome, Executor};
pub use plan::{Cell, MeasurementPlan};
