//! # intune-autotuner
//!
//! Evolutionary search over algorithmic-choice configuration spaces — the
//! stand-in for the PetaBricks evolutionary autotuner that Level 1 of the
//! two-level pipeline invokes once per input cluster ("Landmark Creation").
//!
//! The tuner is a budgeted generational EA: tournament parent selection,
//! uniform crossover, per-gene mutation (local step or global re-sample),
//! and elitism. Fitness follows the paper's two-dimensional objective:
//! *first* meet the accuracy target, *then* minimize execution cost
//! ([`Objective`]).
//!
//! ## Example
//!
//! ```
//! use intune_autotuner::{EvolutionaryTuner, Objective, TunerOptions};
//! use intune_core::{ConfigSpace, ExecutionReport};
//!
//! // Minimize |x - 37| over a toy 1-gene space.
//! let space = ConfigSpace::builder().int("x", 0, 100).build();
//! let tuner = EvolutionaryTuner::new(TunerOptions::quick(42));
//! let result = tuner.tune(&space, Objective::cost_only(), |cfg| {
//!     ExecutionReport::of_cost((cfg.int(0) - 37).abs() as f64)
//! });
//! assert!(result.best_report.cost <= 5.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ea;
pub mod objective;

pub use ea::{EvolutionaryTuner, TunerOptions, TuningResult};
pub use objective::Objective;
