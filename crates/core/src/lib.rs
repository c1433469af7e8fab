//! # intune-core
//!
//! Core abstractions for *algorithmic autotuning with input sensitivity*,
//! reproducing the substrate that the PLDI 2015 paper "Autotuning Algorithmic
//! Choice for Input Sensitivity" builds on (the PetaBricks language runtime),
//! re-cast as an embedded Rust library.
//!
//! The pieces map onto PetaBricks language constructs as follows:
//!
//! | PetaBricks construct       | This crate                                   |
//! |----------------------------|----------------------------------------------|
//! | `either { .. } or { .. }`  | [`ParamKind::Switch`] genes in a [`ConfigSpace`] |
//! | recursive choice selectors | [`Selector`] / [`SelectorSpec`]              |
//! | `tunable`                  | [`ParamKind::Int`] / [`ParamKind::Float`] genes |
//! | `input_feature` keyword    | [`FeatureDef`] with `z` sampling levels      |
//! | variable accuracy metrics  | [`ExecutionReport::accuracy`] + [`AccuracySpec`] |
//!
//! A *benchmark* (a program with algorithmic choices) implements the
//! [`Benchmark`] trait: it exposes its configuration space, runs a given
//! [`Configuration`] on an input producing an [`ExecutionReport`] (abstract
//! deterministic cost plus optional accuracy), and extracts domain-specific
//! input features at one of several sampling levels with measured extraction
//! cost. Everything the learning layer (crate `intune-learning`) does is
//! generic over this trait.
//!
//! ## Example
//!
//! ```
//! use intune_core::{ConfigSpace, ParamKind};
//! use rand::SeedableRng;
//!
//! let space = ConfigSpace::builder()
//!     .switch("algorithm", 5)
//!     .int("cutoff", 1, 4096)
//!     .float("sampling_level", 0.0, 1.0)
//!     .build();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let cfg = space.random(&mut rng);
//! assert!(space.validate(&cfg).is_ok());
//! assert!(cfg.choice(0) < 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod applog;
mod benchmark;
pub mod codec;
mod config;
mod cost;
mod error;
mod features;
mod selector;
mod tempdir;
mod trace;

pub use benchmark::{AccuracySpec, Benchmark, BenchmarkExt};
pub use config::{
    ConfigSpace, ConfigSpaceBuilder, Configuration, ParamKind, ParamSpec, ParamValue,
};
pub use cost::{Cost, ExecutionReport};
pub use error::{Error, Result};
pub use features::{FeatureDef, FeatureId, FeatureSample, FeatureSet, FeatureVector};
pub use selector::{Selector, SelectorSpec};
pub use tempdir::{unique_temp_dir, TempDir};
pub use trace::TraceContext;
