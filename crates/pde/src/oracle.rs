//! The grid kernels and the direct solve as they were before the row
//! kernels and the profile-aware Cholesky, kept as test oracles: every
//! point probed through a bounds-checked `i64` lookup, parity tested at
//! every point, transfer weights recomputed per neighbour, and the dense
//! factor's full inner loop. The properties below hold the grids, the
//! solvers and the factorization to them bit for bit.

use crate::dim2::Grid2d;
use crate::dim3::Grid3d;
use crate::generators::PdeInputClass;
use crate::level::{
    cg_solve, direct_solve, mg_solve, smooth_solve, CycleKind, Level, MgOptions, Smoother,
};
use crate::poisson::DIRECT_EXEC_LIMIT;
use intune_linalg::{Cholesky, Matrix};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The 2-D level with the point-probing kernels.
#[derive(Debug, Clone)]
struct Oracle2d {
    n: usize,
    h: f64,
    coeff: Option<Vec<f64>>,
}

impl Oracle2d {
    fn new(n: usize, coeff: Option<Vec<f64>>) -> Self {
        Oracle2d {
            n,
            h: 1.0 / (n as f64 + 1.0),
            coeff,
        }
    }

    fn at(&self, u: &[f64], i: i64, j: i64) -> f64 {
        let n = self.n as i64;
        if i < 0 || j < 0 || i >= n || j >= n {
            0.0 // Dirichlet boundary
        } else {
            u[(i * n + j) as usize]
        }
    }

    fn c(&self, idx: usize) -> f64 {
        self.coeff.as_ref().map_or(0.0, |c| c[idx])
    }

    fn gauss_seidel_pass(&self, omega: f64, u: &mut [f64], f: &[f64], parity: Option<usize>) {
        let n = self.n;
        let h2 = self.h * self.h;
        for i in 0..n {
            for j in 0..n {
                if let Some(p) = parity {
                    if (i + j) % 2 != p {
                        continue;
                    }
                }
                let idx = i * n + j;
                let nb = self.at(u, i as i64 - 1, j as i64)
                    + self.at(u, i as i64 + 1, j as i64)
                    + self.at(u, i as i64, j as i64 - 1)
                    + self.at(u, i as i64, j as i64 + 1);
                let diag = 4.0 / h2 + self.c(idx);
                let gs = (f[idx] + nb / h2) / diag;
                u[idx] = (1.0 - omega) * u[idx] + omega * gs;
            }
        }
    }
}

impl Level for Oracle2d {
    fn unknowns(&self) -> usize {
        self.n * self.n
    }

    fn apply(&self, u: &[f64], out: &mut [f64]) -> f64 {
        let n = self.n;
        let h2 = self.h * self.h;
        for i in 0..n {
            for j in 0..n {
                let idx = i * n + j;
                let nb = self.at(u, i as i64 - 1, j as i64)
                    + self.at(u, i as i64 + 1, j as i64)
                    + self.at(u, i as i64, j as i64 - 1)
                    + self.at(u, i as i64, j as i64 + 1);
                out[idx] = (4.0 * u[idx] - nb) / h2 + self.c(idx) * u[idx];
            }
        }
        8.0 * self.unknowns() as f64
    }

    fn smooth(
        &self,
        smoother: Smoother,
        omega: f64,
        u: &mut [f64],
        f: &[f64],
        sweeps: usize,
    ) -> f64 {
        let n2 = self.unknowns() as f64;
        let mut flops = 0.0;
        for _ in 0..sweeps {
            match smoother {
                Smoother::Jacobi => {
                    let mut au = vec![0.0; u.len()];
                    flops += self.apply(u, &mut au);
                    let h2 = self.h * self.h;
                    let w = if omega > 0.0 { omega.min(1.0) } else { 0.8 };
                    for idx in 0..u.len() {
                        let diag = 4.0 / h2 + self.c(idx);
                        u[idx] += w * (f[idx] - au[idx]) / diag;
                    }
                    flops += 4.0 * n2;
                }
                Smoother::GaussSeidel => {
                    self.gauss_seidel_pass(1.0, u, f, None);
                    flops += 8.0 * n2;
                }
                Smoother::Sor => {
                    self.gauss_seidel_pass(omega.clamp(0.1, 1.95), u, f, None);
                    flops += 10.0 * n2;
                }
                Smoother::RedBlack => {
                    self.gauss_seidel_pass(1.0, u, f, Some(0));
                    self.gauss_seidel_pass(1.0, u, f, Some(1));
                    flops += 9.0 * n2;
                }
            }
        }
        flops
    }

    fn restrict(&self, fine: &[f64]) -> (Vec<f64>, f64) {
        let n = self.n;
        let nc = (n - 1) / 2;
        let mut coarse = vec![0.0; nc * nc];
        for ci in 0..nc {
            for cj in 0..nc {
                let fi = (2 * ci + 1) as i64;
                let fj = (2 * cj + 1) as i64;
                let mut acc = 0.25 * self.at(fine, fi, fj);
                for (di, dj, w) in [
                    (-1i64, 0i64, 0.125),
                    (1, 0, 0.125),
                    (0, -1, 0.125),
                    (0, 1, 0.125),
                    (-1, -1, 0.0625),
                    (-1, 1, 0.0625),
                    (1, -1, 0.0625),
                    (1, 1, 0.0625),
                ] {
                    acc += w * self.at(fine, fi + di, fj + dj);
                }
                coarse[ci * nc + cj] = acc;
            }
        }
        (coarse, 10.0 * (nc * nc) as f64)
    }

    fn prolong_add(&self, coarse: &[f64], fine_u: &mut [f64]) -> f64 {
        let n = self.n;
        let nc = (n - 1) / 2;
        let mut add = |i: i64, j: i64, v: f64| {
            if i >= 0 && j >= 0 && (i as usize) < n && (j as usize) < n {
                fine_u[i as usize * n + j as usize] += v;
            }
        };
        for ci in 0..nc {
            for cj in 0..nc {
                let e = coarse[ci * nc + cj];
                let fi = (2 * ci + 1) as i64;
                let fj = (2 * cj + 1) as i64;
                add(fi, fj, e);
                add(fi - 1, fj, 0.5 * e);
                add(fi + 1, fj, 0.5 * e);
                add(fi, fj - 1, 0.5 * e);
                add(fi, fj + 1, 0.5 * e);
                add(fi - 1, fj - 1, 0.25 * e);
                add(fi - 1, fj + 1, 0.25 * e);
                add(fi + 1, fj - 1, 0.25 * e);
                add(fi + 1, fj + 1, 0.25 * e);
            }
        }
        9.0 * (nc * nc) as f64
    }

    fn coarser(&self) -> Option<Self> {
        if self.n < 3 {
            return None;
        }
        let nc = (self.n - 1) / 2;
        let coeff = self.coeff.as_ref().map(|c| {
            let n = self.n;
            let mut out = vec![0.0; nc * nc];
            for ci in 0..nc {
                for cj in 0..nc {
                    out[ci * nc + cj] = c[(2 * ci + 1) * n + (2 * cj + 1)];
                }
            }
            out
        });
        Some(Oracle2d::new(nc, coeff))
    }

    fn dense(&self) -> Matrix {
        let grid = match &self.coeff {
            Some(c) => Grid2d::screened(self.n, c.clone()),
            None => Grid2d::poisson(self.n),
        };
        grid.dense()
    }
}

/// The 3-D level with the point-probing kernels.
#[derive(Debug, Clone)]
struct Oracle3d {
    n: usize,
    h: f64,
    coeff: Vec<f64>,
}

impl Oracle3d {
    fn new(n: usize, coeff: Vec<f64>) -> Self {
        Oracle3d {
            n,
            h: 1.0 / (n as f64 + 1.0),
            coeff,
        }
    }

    fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        (i * self.n + j) * self.n + k
    }

    fn at(&self, u: &[f64], i: i64, j: i64, k: i64) -> f64 {
        let n = self.n as i64;
        if i < 0 || j < 0 || k < 0 || i >= n || j >= n || k >= n {
            0.0
        } else {
            u[((i * n + j) * n + k) as usize]
        }
    }

    fn neighbors_sum(&self, u: &[f64], i: usize, j: usize, k: usize) -> f64 {
        let (i, j, k) = (i as i64, j as i64, k as i64);
        self.at(u, i - 1, j, k)
            + self.at(u, i + 1, j, k)
            + self.at(u, i, j - 1, k)
            + self.at(u, i, j + 1, k)
            + self.at(u, i, j, k - 1)
            + self.at(u, i, j, k + 1)
    }

    fn gauss_seidel_pass(&self, omega: f64, u: &mut [f64], f: &[f64], parity: Option<usize>) {
        let n = self.n;
        let h2 = self.h * self.h;
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    if let Some(p) = parity {
                        if (i + j + k) % 2 != p {
                            continue;
                        }
                    }
                    let idx = self.idx(i, j, k);
                    let nb = self.neighbors_sum(u, i, j, k);
                    let diag = 6.0 / h2 + self.coeff[idx];
                    let gs = (f[idx] + nb / h2) / diag;
                    u[idx] = (1.0 - omega) * u[idx] + omega * gs;
                }
            }
        }
    }
}

impl Level for Oracle3d {
    fn unknowns(&self) -> usize {
        self.n * self.n * self.n
    }

    fn apply(&self, u: &[f64], out: &mut [f64]) -> f64 {
        let n = self.n;
        let h2 = self.h * self.h;
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let idx = self.idx(i, j, k);
                    let nb = self.neighbors_sum(u, i, j, k);
                    out[idx] = (6.0 * u[idx] - nb) / h2 + self.coeff[idx] * u[idx];
                }
            }
        }
        10.0 * self.unknowns() as f64
    }

    fn smooth(
        &self,
        smoother: Smoother,
        omega: f64,
        u: &mut [f64],
        f: &[f64],
        sweeps: usize,
    ) -> f64 {
        let un = self.unknowns() as f64;
        let mut flops = 0.0;
        for _ in 0..sweeps {
            match smoother {
                Smoother::Jacobi => {
                    let mut au = vec![0.0; u.len()];
                    flops += self.apply(u, &mut au);
                    let h2 = self.h * self.h;
                    let w = if omega > 0.0 { omega.min(1.0) } else { 0.8 };
                    for idx in 0..u.len() {
                        let diag = 6.0 / h2 + self.coeff[idx];
                        u[idx] += w * (f[idx] - au[idx]) / diag;
                    }
                    flops += 4.0 * un;
                }
                Smoother::GaussSeidel => {
                    self.gauss_seidel_pass(1.0, u, f, None);
                    flops += 10.0 * un;
                }
                Smoother::Sor => {
                    self.gauss_seidel_pass(omega.clamp(0.1, 1.95), u, f, None);
                    flops += 12.0 * un;
                }
                Smoother::RedBlack => {
                    self.gauss_seidel_pass(1.0, u, f, Some(0));
                    self.gauss_seidel_pass(1.0, u, f, Some(1));
                    flops += 11.0 * un;
                }
            }
        }
        flops
    }

    fn restrict(&self, fine: &[f64]) -> (Vec<f64>, f64) {
        let n = self.n;
        let nc = (n - 1) / 2;
        let mut coarse = vec![0.0; nc * nc * nc];
        for ci in 0..nc {
            for cj in 0..nc {
                for ck in 0..nc {
                    let (fi, fj, fk) = (
                        (2 * ci + 1) as i64,
                        (2 * cj + 1) as i64,
                        (2 * ck + 1) as i64,
                    );
                    let mut acc = 0.0;
                    for di in -1i64..=1 {
                        for dj in -1i64..=1 {
                            for dk in -1i64..=1 {
                                let manhattan = di.abs() + dj.abs() + dk.abs();
                                let w = match manhattan {
                                    0 => 8.0,
                                    1 => 4.0,
                                    2 => 2.0,
                                    _ => 1.0,
                                } / 64.0;
                                acc += w * self.at(fine, fi + di, fj + dj, fk + dk);
                            }
                        }
                    }
                    coarse[(ci * nc + cj) * nc + ck] = acc;
                }
            }
        }
        (coarse, 28.0 * (nc * nc * nc) as f64)
    }

    fn prolong_add(&self, coarse: &[f64], fine_u: &mut [f64]) -> f64 {
        let n = self.n;
        let nc = (n - 1) / 2;
        let mut add = |i: i64, j: i64, k: i64, v: f64| {
            if i >= 0
                && j >= 0
                && k >= 0
                && (i as usize) < n
                && (j as usize) < n
                && (k as usize) < n
            {
                fine_u[((i as usize) * n + j as usize) * n + k as usize] += v;
            }
        };
        for ci in 0..nc {
            for cj in 0..nc {
                for ck in 0..nc {
                    let e = coarse[(ci * nc + cj) * nc + ck];
                    let (fi, fj, fk) = (
                        (2 * ci + 1) as i64,
                        (2 * cj + 1) as i64,
                        (2 * ck + 1) as i64,
                    );
                    for di in -1i64..=1 {
                        for dj in -1i64..=1 {
                            for dk in -1i64..=1 {
                                let manhattan = di.abs() + dj.abs() + dk.abs();
                                let w = match manhattan {
                                    0 => 1.0,
                                    1 => 0.5,
                                    2 => 0.25,
                                    _ => 0.125,
                                };
                                add(fi + di, fj + dj, fk + dk, w * e);
                            }
                        }
                    }
                }
            }
        }
        27.0 * (nc * nc * nc) as f64
    }

    fn coarser(&self) -> Option<Self> {
        if self.n < 3 {
            return None;
        }
        let nc = (self.n - 1) / 2;
        let n = self.n;
        let mut coeff = vec![0.0; nc * nc * nc];
        for ci in 0..nc {
            for cj in 0..nc {
                for ck in 0..nc {
                    coeff[(ci * nc + cj) * nc + ck] =
                        self.coeff[((2 * ci + 1) * n + (2 * cj + 1)) * n + (2 * ck + 1)];
                }
            }
        }
        Some(Oracle3d::new(nc, coeff))
    }

    fn dense(&self) -> Matrix {
        Grid3d::new(self.n, self.coeff.clone()).dense()
    }
}

/// `Cholesky::new` with the full inner loop over every column: the
/// factor and its flops.
fn full_loop_cholesky(a: &Matrix) -> Option<(Matrix, f64)> {
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    let mut flops = 0.0;
    for i in 0..n {
        for j in 0..=i {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)];
            }
            flops += 2.0 * j as f64 + 2.0;
            if i == j {
                if s <= 0.0 {
                    return None;
                }
                l[(i, j)] = s.sqrt();
            } else {
                l[(i, j)] = s / l[(j, j)];
            }
        }
    }
    Some((l, flops))
}

/// `Cholesky::solve` over a given factor.
#[allow(clippy::needless_range_loop)]
fn substitute(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let n = l.rows();
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut s = b[i];
        for k in 0..i {
            s -= l[(i, k)] * y[k];
        }
        y[i] = s / l[(i, i)];
    }
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = y[i];
        for k in (i + 1)..n {
            s -= l[(k, i)] * x[k];
        }
        x[i] = s / l[(i, i)];
    }
    x
}

/// `direct_solve` through the full-loop factor.
fn oracle_direct_solve<L: Level>(level: &L, f: &[f64]) -> Option<(Vec<f64>, f64)> {
    let a = level.dense();
    let assemble_flops = (level.unknowns() * level.unknowns()) as f64;
    let (l, flops) = full_loop_cholesky(&a)?;
    let n = l.rows() as f64;
    let x = substitute(&l, f);
    Some((x, assemble_flops + flops + 2.0 * n * n))
}

/// Bit patterns, so that `-0.0 != +0.0` and NaNs compare by payload.
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The 2-D sizes the properties cover: every `n` up to 17, odd and even,
/// and the larger benchmark sizes.
const SIZES_2D: [usize; 19] = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 63,
];
/// The 3-D sizes the properties cover.
const SIZES_3D: std::ops::RangeInclusive<usize> = 1..=17;

/// Relaxation factors: non-positive (Jacobi's 0.8 default), below
/// SOR's clamp, under-, plain and over-relaxed, and above the clamp.
const OMEGAS: [f64; 7] = [-0.5, 0.0, 0.05, 0.7, 1.0, 1.3, 2.0];

/// A field of `len` values: only `±0.0` when `zeros`, else a mix of
/// `±0.0` and values of either sign across a few decades.
fn field(rng: &mut StdRng, len: usize, zeros: bool) -> Vec<f64> {
    (0..len)
        .map(|_| {
            let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            if zeros || rng.gen_bool(0.25) {
                sign * 0.0
            } else {
                sign * rng.gen_range(0.0..1.0) * 10f64.powi(rng.gen_range(-3..4))
            }
        })
        .collect()
}

/// A coefficient field: `±0.0` only when `zeros`, else zeros mixed with
/// positive values.
fn coeff_field(rng: &mut StdRng, len: usize, zeros: bool) -> Vec<f64> {
    field(rng, len, zeros)
        .into_iter()
        .map(f64::abs)
        .map(|c| {
            if c == 0.0 && rng.gen_bool(0.5) {
                -0.0
            } else {
                c
            }
        })
        .collect()
}

/// Every kernel of `grid` against `oracle` on fields drawn from `rng`:
/// `apply`, each smoother with 1–3 sweeps, `restrict` and `prolong_add`,
/// outputs and flops compared bit for bit. Smoother `s` runs at
/// `OMEGAS[(turn + s) % 7]`, so that checking seven consecutive turns
/// runs every smoother at every ω.
fn check_kernels<G: Level, O: Level>(
    grid: &G,
    oracle: &O,
    rng: &mut StdRng,
    zeros: bool,
    turn: usize,
) -> Result<(), TestCaseError> {
    let len = grid.unknowns();
    let u = field(rng, len, zeros);
    let f = field(rng, len, zeros);

    let (mut got, mut want) = (vec![1.0; len], vec![1.0; len]);
    let flops = (grid.apply(&u, &mut got), oracle.apply(&u, &mut want));
    prop_assert_eq!(bits(&got), bits(&want), "apply");
    prop_assert_eq!(flops.0.to_bits(), flops.1.to_bits(), "apply flops");

    for s in 0..4 {
        let smoother = Smoother::from_index(s);
        let omega = OMEGAS[(turn + s) % OMEGAS.len()];
        let sweeps = rng.gen_range(1..4);
        let (mut got, mut want) = (u.clone(), u.clone());
        let flops = (
            grid.smooth(smoother, omega, &mut got, &f, sweeps),
            oracle.smooth(smoother, omega, &mut want, &f, sweeps),
        );
        prop_assert_eq!(
            bits(&got),
            bits(&want),
            "{:?} at omega {} with {} sweeps",
            smoother,
            omega,
            sweeps
        );
        prop_assert_eq!(flops.0.to_bits(), flops.1.to_bits(), "{:?} flops", smoother);
    }

    let (got, got_flops) = grid.restrict(&u);
    let (want, want_flops) = oracle.restrict(&u);
    prop_assert_eq!(bits(&got), bits(&want), "restrict");
    prop_assert_eq!(got_flops.to_bits(), want_flops.to_bits(), "restrict flops");

    let coarse = field(rng, got.len(), zeros);
    let (mut got, mut want) = (f.clone(), f.clone());
    let flops = (
        grid.prolong_add(&coarse, &mut got),
        oracle.prolong_add(&coarse, &mut want),
    );
    prop_assert_eq!(bits(&got), bits(&want), "prolong_add");
    prop_assert_eq!(flops.0.to_bits(), flops.1.to_bits(), "prolong_add flops");
    Ok(())
}

/// The end-to-end solvers on `grid` and `oracle` with right-hand side
/// `f`: multigrid (V and W, with and without the coarse direct solve),
/// CG, plain smoothing and the direct solve.
fn check_solvers<G: Level, O: Level>(
    grid: &G,
    oracle: &O,
    f: &[f64],
    rng: &mut StdRng,
) -> Result<(), TestCaseError> {
    for cycle in [CycleKind::V, CycleKind::W] {
        for coarse_direct in [true, false] {
            let opts = MgOptions {
                pre: rng.gen_range(0..5),
                post: rng.gen_range(0..5),
                smoother: Smoother::from_index(rng.gen_range(0..4)),
                omega: rng.gen_range(0.5..1.95),
                cycle,
                coarse_direct,
            };
            let cycles = rng.gen_range(1..4);
            let got = mg_solve(grid, f, cycles, &opts);
            let want = mg_solve(oracle, f, cycles, &opts);
            prop_assert_eq!(bits(&got.0), bits(&want.0), "mg {:?}", opts);
            prop_assert_eq!(got.1.to_bits(), want.1.to_bits(), "mg flops {:?}", opts);
        }
    }
    let iters = rng.gen_range(1..60);
    let (got, want) = (cg_solve(grid, f, iters), cg_solve(oracle, f, iters));
    prop_assert_eq!(bits(&got.0), bits(&want.0), "cg");
    prop_assert_eq!(got.1.to_bits(), want.1.to_bits(), "cg flops");

    let smoother = Smoother::from_index(rng.gen_range(0..4));
    let omega = rng.gen_range(0.5..1.95);
    let sweeps = rng.gen_range(1..40);
    let got = smooth_solve(grid, f, smoother, omega, sweeps);
    let want = smooth_solve(oracle, f, smoother, omega, sweeps);
    prop_assert_eq!(bits(&got.0), bits(&want.0), "smooth_solve {:?}", smoother);
    prop_assert_eq!(got.1.to_bits(), want.1.to_bits(), "smooth_solve flops");

    if grid.unknowns() <= DIRECT_EXEC_LIMIT {
        let got = direct_solve(grid, f).map(|(x, fl)| (bits(&x), fl.to_bits()));
        let want = oracle_direct_solve(oracle, f).map(|(x, fl)| (bits(&x), fl.to_bits()));
        prop_assert_eq!(got, want, "direct_solve");
    }
    Ok(())
}

/// `Cholesky::new` against the full loop on `a`: the factor, its flops
/// and a solve, bit for bit (or both refuse).
fn check_cholesky(a: &Matrix, b: &[f64]) -> Result<(), TestCaseError> {
    let got = Cholesky::new(a);
    let want = full_loop_cholesky(a);
    prop_assert_eq!(got.is_some(), want.is_some(), "SPD verdicts differ");
    if let (Some(got), Some((l, flops))) = (got, want) {
        prop_assert_eq!(bits(got.l().data()), bits(l.data()), "L");
        prop_assert_eq!(got.flops.to_bits(), flops.to_bits(), "flops");
        prop_assert_eq!(bits(&got.solve(b)), bits(&substitute(&l, b)), "solve");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every 2-D kernel matches the oracle at every size, Poisson and
    /// screened, on mixed fields and on fields of `±0.0` only.
    #[test]
    fn grid2d_kernels_match_the_oracle(seed in 0u64..u64::MAX, zeros in 0u8..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let zeros = zeros == 0;
        for (turn, n) in SIZES_2D.into_iter().enumerate() {
            let coeff = coeff_field(&mut rng, n * n, zeros);
            let (poisson, oracle) = (Grid2d::poisson(n), Oracle2d::new(n, None));
            check_kernels(&poisson, &oracle, &mut rng, zeros, turn)?;
            let (screened, oracle) = (Grid2d::screened(n, coeff.clone()), Oracle2d::new(n, Some(coeff)));
            check_kernels(&screened, &oracle, &mut rng, zeros, turn + 1)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every 3-D kernel matches the oracle at every size, on mixed fields
    /// and on fields of `±0.0` only.
    #[test]
    fn grid3d_kernels_match_the_oracle(seed in 0u64..u64::MAX, zeros in 0u8..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let zeros = zeros == 0;
        for (turn, n) in SIZES_3D.enumerate() {
            let coeff = coeff_field(&mut rng, n * n * n, zeros);
            let (grid, oracle) = (Grid3d::new(n, coeff.clone()), Oracle3d::new(n, coeff));
            check_kernels(&grid, &oracle, &mut rng, zeros, turn)?;
        }
    }

    /// The profile-aware factor matches the full loop on the screened
    /// operators a direct solve executes: 2-D up to 17² and 3-D up to 6³
    /// unknowns, the sizes within `DIRECT_EXEC_LIMIT`.
    #[test]
    fn cholesky_matches_the_full_loop_on_screened_operators(
        seed in 0u64..u64::MAX,
        zeros in 0u8..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let zeros = zeros == 0;
        let n = rng.gen_range(1..18);
        let coeff = coeff_field(&mut rng, n * n, zeros);
        let b = field(&mut rng, n * n, false);
        check_cholesky(&Grid2d::screened(n, coeff).dense(), &b)?;
        let n = rng.gen_range(1..7);
        let coeff = coeff_field(&mut rng, n * n * n, zeros);
        let b = field(&mut rng, n * n * n, false);
        check_cholesky(&Grid3d::new(n, coeff).dense(), &b)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The solvers match end to end on generated inputs of every class.
    #[test]
    fn solvers_match_the_oracle_on_generated_inputs(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        for &class in PdeInputClass::all() {
            let n = [3, 6, 7, 10, 15][rng.gen_range(0..5usize)];
            let input = class.generate_2d(n, &mut rng);
            check_solvers(&Grid2d::poisson(n), &Oracle2d::new(n, None), &input.rhs, &mut rng)?;

            let n = [2, 3, 4, 5, 6, 7][rng.gen_range(0..6usize)];
            let input = class.generate_3d(n, &mut rng);
            check_solvers(
                &Grid3d::new(n, input.coeff.clone()),
                &Oracle3d::new(n, input.coeff),
                &input.rhs,
                &mut rng,
            )?;
        }
    }
}

/// Every 2-D Poisson operator a direct solve executes, each size once.
#[test]
fn cholesky_matches_the_full_loop_on_every_poisson_operator() {
    let mut rng = StdRng::seed_from_u64(17);
    let largest = (1..).take_while(|n| n * n <= DIRECT_EXEC_LIMIT).last();
    assert_eq!(
        largest,
        Some(17),
        "the properties' size ranges follow the limit"
    );
    for n in 1..=17 {
        let b = field(&mut rng, n * n, false);
        check_cholesky(&Grid2d::poisson(n).dense(), &b).unwrap();
    }
}
