//! # intune-pde
//!
//! Multigrid PDE substrate plus the paper's **Poisson 2D** and
//! **Helmholtz 3D** benchmarks.
//!
//! The substrate ([`level`]) provides, generically over a [`level::Level`]:
//! geometric multigrid with tunable *cycle shapes* (V/W, pre/post smoothing
//! counts, smoother choice, coarse-grid strategy), conjugate gradients,
//! plain smoother iteration, and a dense-Cholesky direct solver — exactly
//! the solver menu the paper's benchmarks let the autotuner choose from
//! ("the choices in this benchmark are multigrid, where cycle shapes are
//! determined by the autotuner, and a number of iterative and direct
//! solvers").
//!
//! Concrete discretizations: [`dim2::Grid2d`] (5-point Laplacian with an
//! optional zeroth-order coefficient, homogeneous Dirichlet) and
//! [`dim3::Grid3d`] (7-point, variable coefficient — the screened-Poisson
//! form of the Helmholtz equation, kept SPD so every solver choice is
//! well-posed).
//!
//! The accuracy metric of both benchmarks is the paper's
//! `log₁₀( RMS(err initial) / RMS(err final) )` relative to a reference
//! solution, threshold 7 (seven orders of error reduction). Input
//! sensitivity: high-frequency right-hand sides are annihilated cheaply by
//! plain smoothing, smooth right-hand sides need full multigrid, tiny grids
//! are direct-solver territory.
//!
//! ## Bit-identical kernels
//!
//! The grids' kernels (`apply`, the four smoothers, `restrict` and
//! `prolong_add`) run over rows and index their neighbours directly, yet
//! compute exactly the floating-point operations, in exactly the order,
//! of a point-by-point evaluation of the stencil formulas, so every
//! solution, flop count and benchmark report repeats bit for bit:
//!
//! - A neighbour sum adds the neighbours at `i − 1`, `i + 1`, `j − 1`,
//!   `j + 1` (then `k − 1`, `k + 1` in 3-D) in that order, left to right.
//!   A neighbour outside the grid is a `+ 0.0` term, tested once per
//!   direction, and is never dropped: adding `+0.0` turns a `-0.0` sum into
//!   `+0.0`. Interior points read their neighbours without such tests.
//! - `A·u` is `(4·u − Σ) / h² + c·u` (`6·u` in 3-D), with `c·u` computed
//!   even where `c` is zero. A smoother's update is
//!   `(1 − ω)·u + ω·(f + Σ / h²) / (4/h² + c)`, and Jacobi's is
//!   `u + w·(f − A·u) / (4/h² + c)`. `4/h²` and `6/h²` are computed once
//!   per pass; every division stays a division, never a multiplication by
//!   a reciprocal, which would round differently.
//! - Gauss–Seidel and SOR relax the points in lexicographic order, each
//!   reading its left neighbour as just relaxed. Red–black relaxes every
//!   point of colour 0 (even index sum), then every point of colour 1,
//!   each colour in lexicographic order, stepping over the other colour.
//! - Restriction and prolongation visit the coarse points in lexicographic
//!   order, and each coarse point's 9 (27 in 3-D) fine neighbours in the
//!   order of constant weight tables. The 2-D restriction starts its sum
//!   with the coincident point, the 3-D one from `+0.0`; the 2-D
//!   prolongation adds the correction to the coincident point unweighted.
//!   No table entry needs a bounds test at any `n`: the largest fine index
//!   a transfer touches on an axis is `2·nc ≤ n − 1`, where
//!   `nc = (n − 1)/2`. For odd `n` the coarse points also coincide with
//!   fine ones, which the benchmarks' grid sizes keep at every level above
//!   the coarsest (see [`PdeCorpus2d::synthetic`]).
//! - The direct solve factors with [`intune_linalg::Cholesky`], which
//!   skips each row's leading `+0.0` entries and still yields the factor
//!   of the full loop, bit for bit.
//!
//! The crate's tests keep the point-probing kernels and the full-loop
//! factor as oracles and compare every kernel, solver and factor against
//! them by bit pattern.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dim2;
pub mod dim3;
pub mod generators;
pub mod helmholtz;
pub mod level;
#[cfg(test)]
mod oracle;
pub mod poisson;
mod stencil;

pub use generators::{PdeCorpus2d, PdeCorpus3d, PdeInput2d, PdeInput3d, PdeInputClass};
pub use helmholtz::Helmholtz3d;
pub use level::{CycleKind, MgOptions, Smoother};
pub use poisson::Poisson2d;
