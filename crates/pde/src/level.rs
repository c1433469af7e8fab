//! The generic multigrid machinery: the [`Level`] abstraction and the
//! solver family (multigrid cycles, CG, plain smoothing, dense direct).
//!
//! Every routine returns its flop count so benchmarks can charge
//! deterministic cost.

use intune_linalg::{Cholesky, Matrix};

/// Smoother choices (a switch gene in the PDE benchmarks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Smoother {
    /// Weighted Jacobi.
    Jacobi,
    /// Lexicographic Gauss–Seidel.
    GaussSeidel,
    /// Successive over-relaxation (ω from a float gene).
    Sor,
    /// Red–black Gauss–Seidel.
    RedBlack,
}

impl Smoother {
    /// Decodes a switch gene value.
    ///
    /// # Panics
    /// Panics if `idx > 3`.
    pub fn from_index(idx: usize) -> Self {
        match idx {
            0 => Smoother::Jacobi,
            1 => Smoother::GaussSeidel,
            2 => Smoother::Sor,
            3 => Smoother::RedBlack,
            other => panic!("smoother index {other} out of range"),
        }
    }
}

/// Multigrid cycle shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CycleKind {
    /// One coarse-grid visit per level.
    V,
    /// Two coarse-grid visits per level.
    W,
}

/// Tunable multigrid cycle parameters (the "cycle shape" of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MgOptions {
    /// Pre-smoothing sweeps.
    pub pre: usize,
    /// Post-smoothing sweeps.
    pub post: usize,
    /// Smoother used on every level.
    pub smoother: Smoother,
    /// Relaxation factor for [`Smoother::Sor`] / weighted Jacobi.
    pub omega: f64,
    /// V or W cycle.
    pub cycle: CycleKind,
    /// Solve the coarsest grid directly (dense Cholesky) instead of smoothing.
    pub coarse_direct: bool,
}

impl Default for MgOptions {
    fn default() -> Self {
        MgOptions {
            pre: 2,
            post: 2,
            smoother: Smoother::RedBlack,
            omega: 1.1,
            cycle: CycleKind::V,
            coarse_direct: true,
        }
    }
}

/// One grid level of a discretized symmetric positive-definite operator.
pub trait Level: Sized {
    /// Number of unknowns on this level.
    fn unknowns(&self) -> usize;

    /// `out = A·u`; returns flops.
    fn apply(&self, u: &[f64], out: &mut [f64]) -> f64;

    /// Runs `sweeps` smoothing sweeps of `smoother` on `A·u = f` in place;
    /// returns flops.
    fn smooth(
        &self,
        smoother: Smoother,
        omega: f64,
        u: &mut [f64],
        f: &[f64],
        sweeps: usize,
    ) -> f64;

    /// Full-weighting restriction of a fine-level vector to the next-coarser
    /// level; returns `(coarse, flops)`.
    fn restrict(&self, fine: &[f64]) -> (Vec<f64>, f64);

    /// Interpolates a coarse-level correction and adds it into `fine_u`;
    /// returns flops.
    fn prolong_add(&self, coarse: &[f64], fine_u: &mut [f64]) -> f64;

    /// The next-coarser level, or `None` at the bottom of the hierarchy.
    fn coarser(&self) -> Option<Self>;

    /// Assembles the operator densely (coarse-grid direct solves only).
    fn dense(&self) -> Matrix;
}

/// Whether every zeroth-order coefficient is `>= 0`, which keeps a grid
/// operator SPD (NaN is not).
pub(crate) fn spd_coefficients(coeff: &[f64]) -> bool {
    coeff.iter().all(|c| *c >= 0.0)
}

/// `r = f − A·u`; returns `(r, flops)`.
pub fn residual<L: Level>(level: &L, u: &[f64], f: &[f64]) -> (Vec<f64>, f64) {
    let mut au = vec![0.0; u.len()];
    let flops = level.apply(u, &mut au);
    let r: Vec<f64> = f.iter().zip(&au).map(|(fi, ai)| fi - ai).collect();
    (r, flops + u.len() as f64)
}

/// RMS of a vector (0 for empty).
pub fn rms(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        (v.iter().map(|x| x * x).sum::<f64>() / v.len() as f64).sqrt()
    }
}

/// One multigrid cycle (V or W per `opts.cycle`) on `A·u = f`; returns flops.
pub fn mg_cycle<L: Level>(level: &L, u: &mut [f64], f: &[f64], opts: &MgOptions) -> f64 {
    let mut flops = 0.0;
    match level.coarser() {
        None => {
            // Coarsest grid.
            flops += coarse_solve(level, u, f, opts);
        }
        Some(coarse_level) => {
            flops += level.smooth(opts.smoother, opts.omega, u, f, opts.pre);
            let (r, fl) = residual(level, u, f);
            flops += fl;
            let (coarse_f, fl) = level.restrict(&r);
            flops += fl;
            let visits = match opts.cycle {
                CycleKind::V => 1,
                CycleKind::W => 2,
            };
            let mut coarse_u = vec![0.0; coarse_f.len()];
            for _ in 0..visits {
                flops += mg_cycle(&coarse_level, &mut coarse_u, &coarse_f, opts);
            }
            flops += level.prolong_add(&coarse_u, u);
            flops += level.smooth(opts.smoother, opts.omega, u, f, opts.post);
        }
    }
    flops
}

fn coarse_solve<L: Level>(level: &L, u: &mut [f64], f: &[f64], opts: &MgOptions) -> f64 {
    let n = level.unknowns();
    if opts.coarse_direct && n <= 4096 {
        let a = level.dense();
        match Cholesky::new(&a) {
            Some(ch) => {
                let x = ch.solve(f);
                u.copy_from_slice(&x);
                return ch.flops + ch.solve_flops();
            }
            None => { /* fall through to smoothing */ }
        }
    }
    level.smooth(opts.smoother.max_fallback(), 1.0, u, f, 50)
}

impl Smoother {
    /// Gauss–Seidel as the robust fallback for coarse solves.
    fn max_fallback(self) -> Smoother {
        Smoother::GaussSeidel
    }
}

/// Runs `cycles` multigrid cycles from a zero initial guess; returns
/// `(solution, flops)`.
pub fn mg_solve<L: Level>(
    level: &L,
    f: &[f64],
    cycles: usize,
    opts: &MgOptions,
) -> (Vec<f64>, f64) {
    let mut u = vec![0.0; f.len()];
    let mut flops = 0.0;
    for _ in 0..cycles.max(1) {
        flops += mg_cycle(level, &mut u, f, opts);
    }
    (u, flops)
}

/// Conjugate gradients from a zero guess, `iters` iterations (or early exit
/// on stagnation); returns `(solution, flops)`.
pub fn cg_solve<L: Level>(level: &L, f: &[f64], iters: usize) -> (Vec<f64>, f64) {
    let n = f.len();
    let mut u = vec![0.0; n];
    let mut r = f.to_vec();
    let mut p = r.clone();
    let mut rr: f64 = r.iter().map(|x| x * x).sum();
    let mut flops = 2.0 * n as f64;
    let mut ap = vec![0.0; n];
    for _ in 0..iters.max(1) {
        if rr <= 1e-300 {
            break;
        }
        flops += level.apply(&p, &mut ap);
        let pap: f64 = p.iter().zip(&ap).map(|(a, b)| a * b).sum();
        if pap.abs() <= 1e-300 {
            break;
        }
        let alpha = rr / pap;
        for i in 0..n {
            u[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let rr_new: f64 = r.iter().map(|x| x * x).sum();
        let beta = rr_new / rr;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        rr = rr_new;
        flops += 10.0 * n as f64;
    }
    (u, flops)
}

/// Plain smoother iteration from a zero guess; returns `(solution, flops)`.
pub fn smooth_solve<L: Level>(
    level: &L,
    f: &[f64],
    smoother: Smoother,
    omega: f64,
    sweeps: usize,
) -> (Vec<f64>, f64) {
    let mut u = vec![0.0; f.len()];
    let flops = level.smooth(smoother, omega, &mut u, f, sweeps.max(1));
    (u, flops)
}

/// Dense direct solve (assemble + Cholesky). Only sensible for small
/// problems; callers guard the size (see the benchmarks' estimate path for
/// large grids). Returns `(solution, flops)`; `None` if not SPD.
pub fn direct_solve<L: Level>(level: &L, f: &[f64]) -> Option<(Vec<f64>, f64)> {
    let a = level.dense();
    let assemble_flops = (level.unknowns() * level.unknowns()) as f64;
    let ch = Cholesky::new(&a)?;
    let x = ch.solve(f);
    let flops = assemble_flops + ch.flops + ch.solve_flops();
    Some((x, flops))
}

/// Flop estimate of a dense direct solve with `n` unknowns (used when the
/// solve is too large to actually execute: `n³/3` factor + `2n²` solve).
pub fn direct_solve_flops_estimate(n: usize) -> f64 {
    let nf = n as f64;
    nf * nf * nf / 3.0 + 2.0 * nf * nf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dim2::Grid2d;

    fn poisson_problem(n: usize) -> (Grid2d, Vec<f64>) {
        let g = Grid2d::poisson(n);
        // Smooth rhs: f = sin(pi x) sin(pi y).
        let h = 1.0 / (n as f64 + 1.0);
        let mut f = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let x = (i as f64 + 1.0) * h;
                let y = (j as f64 + 1.0) * h;
                f[i * n + j] = (std::f64::consts::PI * x).sin() * (std::f64::consts::PI * y).sin();
            }
        }
        (g, f)
    }

    /// ‖f − A·u‖ / ‖f‖.
    fn rel_residual(g: &Grid2d, u: &[f64], f: &[f64]) -> f64 {
        let (r, _) = residual(g, u, f);
        rms(&r) / rms(f).max(1e-300)
    }

    #[test]
    fn mg_v_cycles_converge_fast() {
        let (g, f) = poisson_problem(31);
        let (u, flops) = mg_solve(&g, &f, 8, &MgOptions::default());
        assert!(
            rel_residual(&g, &u, &f) < 1e-6,
            "res {}",
            rel_residual(&g, &u, &f)
        );
        assert!(flops > 0.0);
    }

    #[test]
    fn w_cycles_no_worse_per_cycle() {
        let (g, f) = poisson_problem(31);
        let v = MgOptions::default();
        let w = MgOptions {
            cycle: CycleKind::W,
            ..v
        };
        let (uv, fv) = mg_solve(&g, &f, 4, &v);
        let (uw, fw) = mg_solve(&g, &f, 4, &w);
        assert!(rel_residual(&g, &uw, &f) <= rel_residual(&g, &uv, &f) * 1.5);
        assert!(fw > fv, "W cycles must cost more");
    }

    #[test]
    fn cg_converges() {
        let (g, f) = poisson_problem(15);
        let (u, _) = cg_solve(&g, &f, 60);
        assert!(rel_residual(&g, &u, &f) < 1e-8);
    }

    #[test]
    fn smoother_alone_converges_slowly() {
        let (g, f) = poisson_problem(31);
        let (u_few, _) = smooth_solve(&g, &f, Smoother::GaussSeidel, 1.0, 5);
        let (u_many, _) = smooth_solve(&g, &f, Smoother::GaussSeidel, 1.0, 50);
        let few = rel_residual(&g, &u_few, &f);
        let many = rel_residual(&g, &u_many, &f);
        assert!(many < few, "more sweeps reduce residual");
        // But far slower than MG on smooth error: 3 V-cycles trounce 50
        // sweeps on the n=31 grid.
        let (u_mg, _) = mg_solve(&g, &f, 3, &MgOptions::default());
        assert!(rel_residual(&g, &u_mg, &f) < many);
    }

    #[test]
    fn direct_solve_is_exact() {
        let (g, f) = poisson_problem(7);
        let (u, _) = direct_solve(&g, &f).expect("poisson is SPD");
        assert!(rel_residual(&g, &u, &f) < 1e-10);
    }

    #[test]
    fn all_smoothers_reduce_error() {
        let (g, f) = poisson_problem(15);
        for s in [
            Smoother::Jacobi,
            Smoother::GaussSeidel,
            Smoother::Sor,
            Smoother::RedBlack,
        ] {
            let omega = if s == Smoother::Jacobi { 0.8 } else { 1.2 };
            let (u, _) = smooth_solve(&g, &f, s, omega, 50);
            assert!(
                rel_residual(&g, &u, &f) < 0.9,
                "{s:?} failed to reduce residual"
            );
        }
    }

    #[test]
    fn estimate_matches_cubic_growth() {
        assert!(direct_solve_flops_estimate(200) > 8.0 * direct_solve_flops_estimate(100) * 0.9);
    }
}
