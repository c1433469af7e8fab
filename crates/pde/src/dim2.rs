//! 2-D discretization: 5-point Laplacian with optional zeroth-order
//! coefficient on the unit square, homogeneous Dirichlet boundaries,
//! interior grid of `n × n` points, `h = 1/(n+1)`.

use crate::level::{spd_coefficients, Level, Smoother};
use crate::stencil::{self, Row, Rows};
use intune_linalg::Matrix;

/// One 2-D grid level of `(-∆ + c)·u = f`.
#[derive(Debug, Clone)]
pub struct Grid2d {
    n: usize,
    h: f64,
    /// Optional per-point zeroth-order coefficient `c ≥ 0`.
    coeff: Option<Vec<f64>>,
}

impl Grid2d {
    /// A pure Poisson level (`c = 0`) with `n × n` interior points.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn poisson(n: usize) -> Self {
        assert!(n > 0, "grid needs at least one interior point");
        Grid2d {
            n,
            h: 1.0 / (n as f64 + 1.0),
            coeff: None,
        }
    }

    /// A screened-Poisson level with per-point coefficient `c` (length n²).
    ///
    /// # Panics
    /// Panics if `coeff.len() != n * n` or any coefficient is negative.
    pub fn screened(n: usize, coeff: Vec<f64>) -> Self {
        assert_eq!(coeff.len(), n * n, "coefficient field shape");
        assert!(
            spd_coefficients(&coeff),
            "coefficients must be >= 0 for SPD"
        );
        Grid2d {
            n,
            h: 1.0 / (n as f64 + 1.0),
            coeff: Some(coeff),
        }
    }

    /// Interior points per dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Grid spacing.
    pub fn h(&self) -> f64 {
        self.h
    }

    #[inline]
    fn c(&self, idx: usize) -> f64 {
        self.coeff.as_ref().map_or(0.0, |c| c[idx])
    }
}

/// Full-weighting restriction weights of a coarse point's nine fine
/// neighbours, in the order the sum adds them: the coincident point, its
/// four edge neighbours (i−1, i+1, j−1, j+1), then its corners (i−1, j−1),
/// (i−1, j+1), (i+1, j−1), (i+1, j+1).
const RESTRICT: [f64; 9] = [
    0.25, 0.125, 0.125, 0.125, 0.125, 0.0625, 0.0625, 0.0625, 0.0625,
];

/// Bilinear prolongation weights in the same order. The coincident point
/// adds the correction itself, not multiplied by its weight 1.
const PROLONG: [f64; 9] = [1.0, 0.5, 0.5, 0.5, 0.5, 0.25, 0.25, 0.25, 0.25];

/// Offsets of those nine fine points from `(2·ci, 2·cj)`, the corner of
/// coarse point `(ci, cj)`'s neighbourhood, in a grid of `n` points per
/// row. None needs a bounds test: the largest fine index a transfer
/// touches is `2·nc ≤ n − 1`.
fn transfer_offsets(n: usize) -> [usize; 9] {
    [n + 1, 1, 2 * n + 1, n, n + 2, 0, 2, 2 * n, 2 * n + 2]
}

impl Rows<2> for Grid2d {
    const CENTRE: f64 = 4.0;
    const POINT_FLOPS: f64 = 8.0;

    fn row_len(&self) -> usize {
        self.n
    }

    fn h2(&self) -> f64 {
        self.h * self.h
    }

    fn coeff(&self) -> Option<&[f64]> {
        self.coeff.as_deref()
    }

    fn for_each_row(&self, mut visit: impl FnMut(&Row<2>)) {
        let n = self.n;
        for i in 0..n {
            visit(&Row {
                start: i * n,
                nbrs: [
                    (i > 0).then(|| (i - 1) * n),
                    (i + 1 < n).then(|| (i + 1) * n),
                ],
                colour: i % 2,
            });
        }
    }
}

impl Level for Grid2d {
    fn unknowns(&self) -> usize {
        self.n * self.n
    }

    fn apply(&self, u: &[f64], out: &mut [f64]) -> f64 {
        stencil::apply(self, u, out)
    }

    fn smooth(
        &self,
        smoother: Smoother,
        omega: f64,
        u: &mut [f64],
        f: &[f64],
        sweeps: usize,
    ) -> f64 {
        stencil::smooth(self, smoother, omega, u, f, sweeps)
    }

    fn restrict(&self, fine: &[f64]) -> (Vec<f64>, f64) {
        let n = self.n;
        let nc = (n - 1) / 2;
        let off = transfer_offsets(n);
        let mut coarse = vec![0.0; nc * nc];
        for ci in 0..nc {
            for cj in 0..nc {
                let base = 2 * ci * n + 2 * cj;
                let mut acc = RESTRICT[0] * fine[base + off[0]];
                for t in 1..9 {
                    acc += RESTRICT[t] * fine[base + off[t]];
                }
                coarse[ci * nc + cj] = acc;
            }
        }
        (coarse, 10.0 * (nc * nc) as f64)
    }

    fn prolong_add(&self, coarse: &[f64], fine_u: &mut [f64]) -> f64 {
        let n = self.n;
        let nc = (n - 1) / 2;
        let off = transfer_offsets(n);
        for ci in 0..nc {
            for cj in 0..nc {
                let e = coarse[ci * nc + cj];
                let base = 2 * ci * n + 2 * cj;
                fine_u[base + off[0]] += e;
                for t in 1..9 {
                    fine_u[base + off[t]] += PROLONG[t] * e;
                }
            }
        }
        9.0 * (nc * nc) as f64
    }

    fn coarser(&self) -> Option<Self> {
        if self.n < 3 {
            return None;
        }
        let nc = (self.n - 1) / 2;
        if nc == 0 {
            return None;
        }
        let coeff = self.coeff.as_ref().map(|c| {
            // Injection at coincident points.
            let n = self.n;
            let mut out = vec![0.0; nc * nc];
            for ci in 0..nc {
                for cj in 0..nc {
                    out[ci * nc + cj] = c[(2 * ci + 1) * n + (2 * cj + 1)];
                }
            }
            out
        });
        Some(Grid2d {
            n: nc,
            h: 1.0 / (nc as f64 + 1.0),
            coeff,
        })
    }

    fn dense(&self) -> Matrix {
        let n = self.n;
        let un = self.unknowns();
        let h2 = self.h * self.h;
        let mut a = Matrix::zeros(un, un);
        for i in 0..n {
            for j in 0..n {
                let idx = i * n + j;
                a[(idx, idx)] = 4.0 / h2 + self.c(idx);
                let mut nb = |ii: i64, jj: i64| {
                    if ii >= 0 && jj >= 0 && (ii as usize) < n && (jj as usize) < n {
                        a[(idx, (ii as usize) * n + jj as usize)] = -1.0 / h2;
                    }
                };
                nb(i as i64 - 1, j as i64);
                nb(i as i64 + 1, j as i64);
                nb(i as i64, j as i64 - 1);
                nb(i as i64, j as i64 + 1);
            }
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::{mg_solve, residual, rms, MgOptions};

    #[test]
    fn apply_matches_dense() {
        let g = Grid2d::poisson(5);
        let a = g.dense();
        let u: Vec<f64> = (0..25).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
        let mut out = vec![0.0; 25];
        g.apply(&u, &mut out);
        let via_dense = a.matvec(&u);
        for i in 0..25 {
            assert!((out[i] - via_dense[i]).abs() < 1e-9, "mismatch at {i}");
        }
    }

    #[test]
    fn screened_operator_adds_diagonal() {
        let g0 = Grid2d::poisson(4);
        let g1 = Grid2d::screened(4, vec![10.0; 16]);
        let u = vec![1.0; 16];
        let mut o0 = vec![0.0; 16];
        let mut o1 = vec![0.0; 16];
        g0.apply(&u, &mut o0);
        g1.apply(&u, &mut o1);
        for i in 0..16 {
            assert!((o1[i] - o0[i] - 10.0).abs() < 1e-9);
        }
    }

    #[test]
    fn hierarchy_descends_to_none() {
        let g = Grid2d::poisson(31);
        let mut level = Some(g);
        let mut sizes = Vec::new();
        while let Some(l) = level {
            sizes.push(l.n());
            level = l.coarser();
        }
        assert_eq!(sizes, vec![31, 15, 7, 3, 1]);
    }

    #[test]
    fn restriction_then_prolongation_preserves_smooth_mass() {
        let g = Grid2d::poisson(15);
        // A smooth field.
        let fine: Vec<f64> = (0..225)
            .map(|idx| {
                let i = idx / 15;
                let j = idx % 15;
                ((i as f64) / 16.0 * std::f64::consts::PI).sin()
                    * ((j as f64) / 16.0 * std::f64::consts::PI).sin()
            })
            .collect();
        let (coarse, _) = g.restrict(&fine);
        let mut back = vec![0.0; 225];
        g.prolong_add(&coarse, &mut back);
        // Smooth fields survive the round trip to within interpolation error.
        let err: f64 = fine
            .iter()
            .zip(&back)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / 225.0;
        assert!(err < 0.2, "round-trip error {err}");
    }

    #[test]
    fn screened_mg_converges() {
        let n = 15;
        let coeff: Vec<f64> = (0..n * n).map(|i| (i % 5) as f64).collect();
        let g = Grid2d::screened(n, coeff);
        let f = vec![1.0; n * n];
        let (u, _) = mg_solve(&g, &f, 10, &MgOptions::default());
        let (r, _) = residual(&g, &u, &f);
        assert!(rms(&r) / rms(&f) < 1e-6);
    }
}
