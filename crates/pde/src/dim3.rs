//! 3-D discretization: 7-point Laplacian with a variable zeroth-order
//! coefficient on the unit cube (the screened-Poisson / SPD form of the
//! variable-coefficient Helmholtz equation), homogeneous Dirichlet
//! boundaries, interior grid of `n × n × n` points, `h = 1/(n+1)`.

use crate::level::{spd_coefficients, Level, Smoother};
use crate::stencil::{self, Row, Rows};
use intune_linalg::Matrix;

/// One 3-D grid level of `(-∆ + c(x))·u = f`.
#[derive(Debug, Clone)]
pub struct Grid3d {
    n: usize,
    h: f64,
    coeff: Vec<f64>,
}

impl Grid3d {
    /// A level with per-point coefficient `c` (length n³, all ≥ 0).
    ///
    /// # Panics
    /// Panics if shapes mismatch or any coefficient is negative.
    pub fn new(n: usize, coeff: Vec<f64>) -> Self {
        assert!(n > 0, "grid needs at least one interior point");
        assert_eq!(coeff.len(), n * n * n, "coefficient field shape");
        assert!(
            spd_coefficients(&coeff),
            "coefficients must be >= 0 for SPD"
        );
        Grid3d {
            n,
            h: 1.0 / (n as f64 + 1.0),
            coeff,
        }
    }

    /// A constant-coefficient level.
    pub fn constant(n: usize, c: f64) -> Self {
        Grid3d::new(n, vec![c.max(0.0); n * n * n])
    }

    /// Interior points per dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        (i * self.n + j) * self.n + k
    }
}

/// A transfer weight table over a coarse point's 27 fine neighbours
/// (`di`, `dj`, `dk` in −1..=1, `dk` fastest), by Manhattan distance.
const fn by_distance(w: [f64; 4]) -> [f64; 27] {
    let mut table = [0.0; 27];
    let mut t = 0;
    while t < 27 {
        let d = (t / 9 != 1) as usize + (t / 3 % 3 != 1) as usize + (t % 3 != 1) as usize;
        table[t] = w[d];
        t += 1;
    }
    table
}

/// Full-weighting restriction weights.
const RESTRICT: [f64; 27] = by_distance([8.0 / 64.0, 4.0 / 64.0, 2.0 / 64.0, 1.0 / 64.0]);

/// Trilinear prolongation weights.
const PROLONG: [f64; 27] = by_distance([1.0, 0.5, 0.25, 0.125]);

/// Offsets of the 27 fine neighbours from `(2·ci, 2·cj, 2·ck)`, the
/// corner of coarse point `(ci, cj, ck)`'s neighbourhood, in a grid of
/// `n` points per axis. None needs a bounds test: the largest fine index
/// a transfer touches on any axis is `2·nc ≤ n − 1`.
fn transfer_offsets(n: usize) -> [usize; 27] {
    std::array::from_fn(|t| (t / 9 * n + t / 3 % 3) * n + t % 3)
}

impl Rows<4> for Grid3d {
    const CENTRE: f64 = 6.0;
    const POINT_FLOPS: f64 = 10.0;

    fn row_len(&self) -> usize {
        self.n
    }

    fn h2(&self) -> f64 {
        self.h * self.h
    }

    fn coeff(&self) -> Option<&[f64]> {
        Some(&self.coeff)
    }

    fn for_each_row(&self, mut visit: impl FnMut(&Row<4>)) {
        let n = self.n;
        for i in 0..n {
            for j in 0..n {
                let start = self.idx(i, j, 0);
                visit(&Row {
                    start,
                    nbrs: [
                        (i > 0).then(|| start - n * n),
                        (i + 1 < n).then(|| start + n * n),
                        (j > 0).then(|| start - n),
                        (j + 1 < n).then(|| start + n),
                    ],
                    colour: (i + j) % 2,
                });
            }
        }
    }
}

impl Level for Grid3d {
    fn unknowns(&self) -> usize {
        self.n * self.n * self.n
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
        let mut coarse = vec![0.0; nc * nc * nc];
        for ci in 0..nc {
            for cj in 0..nc {
                // The nine fine rows around coarse row (ci, cj), in the
                // order of the table.
                let rows: [&[f64]; 9] = std::array::from_fn(|q| {
                    let start = self.idx(2 * ci + q / 3, 2 * cj + q % 3, 0);
                    &fine[start..start + n]
                });
                for ck in 0..nc {
                    let mut acc = 0.0;
                    for (q, row) in rows.iter().enumerate() {
                        for (d, x) in row[2 * ck..2 * ck + 3].iter().enumerate() {
                            acc += RESTRICT[3 * q + d] * x;
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
        let off = transfer_offsets(n);
        for ci in 0..nc {
            for cj in 0..nc {
                for ck in 0..nc {
                    let e = coarse[(ci * nc + cj) * nc + ck];
                    let base = self.idx(2 * ci, 2 * cj, 2 * ck);
                    for t in 0..27 {
                        fine_u[base + off[t]] += PROLONG[t] * e;
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
        if nc == 0 {
            return None;
        }
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
        Some(Grid3d::new(nc, coeff))
    }

    fn dense(&self) -> Matrix {
        let n = self.n;
        let un = self.unknowns();
        let h2 = self.h * self.h;
        let mut a = Matrix::zeros(un, un);
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let idx = self.idx(i, j, k);
                    a[(idx, idx)] = 6.0 / h2 + self.coeff[idx];
                    let mut nb = |ii: i64, jj: i64, kk: i64| {
                        if ii >= 0
                            && jj >= 0
                            && kk >= 0
                            && (ii as usize) < n
                            && (jj as usize) < n
                            && (kk as usize) < n
                        {
                            let nidx = ((ii as usize) * n + jj as usize) * n + kk as usize;
                            a[(idx, nidx)] = -1.0 / h2;
                        }
                    };
                    nb(i as i64 - 1, j as i64, k as i64);
                    nb(i as i64 + 1, j as i64, k as i64);
                    nb(i as i64, j as i64 - 1, k as i64);
                    nb(i as i64, j as i64 + 1, k as i64);
                    nb(i as i64, j as i64, k as i64 - 1);
                    nb(i as i64, j as i64, k as i64 + 1);
                }
            }
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::{cg_solve, mg_solve, residual, rms, MgOptions};

    #[test]
    fn apply_matches_dense() {
        let g = Grid3d::constant(3, 2.0);
        let a = g.dense();
        let u: Vec<f64> = (0..27).map(|i| ((i * 11) % 5) as f64 - 2.0).collect();
        let mut out = vec![0.0; 27];
        g.apply(&u, &mut out);
        let via = a.matvec(&u);
        for i in 0..27 {
            assert!((out[i] - via[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn hierarchy_sizes() {
        let g = Grid3d::constant(15, 0.0);
        let mut level = Some(g);
        let mut sizes = Vec::new();
        while let Some(l) = level {
            sizes.push(l.n());
            level = l.coarser();
        }
        assert_eq!(sizes, vec![15, 7, 3, 1]);
    }

    #[test]
    fn mg_converges_on_helmholtz() {
        let n = 15;
        let coeff: Vec<f64> = (0..n * n * n).map(|i| ((i % 7) as f64) * 3.0).collect();
        let g = Grid3d::new(n, coeff);
        let f: Vec<f64> = (0..n * n * n).map(|i| ((i % 13) as f64) - 6.0).collect();
        let (u, _) = mg_solve(&g, &f, 10, &MgOptions::default());
        let (r, _) = residual(&g, &u, &f);
        assert!(rms(&r) / rms(&f) < 1e-5, "rel res {}", rms(&r) / rms(&f));
    }

    #[test]
    fn cg_agrees_with_mg() {
        let g = Grid3d::constant(7, 1.0);
        let f: Vec<f64> = (0..343).map(|i| ((i % 10) as f64) / 10.0).collect();
        let (u_mg, _) = mg_solve(&g, &f, 12, &MgOptions::default());
        let (u_cg, _) = cg_solve(&g, &f, 200);
        let diff: f64 = u_mg
            .iter()
            .zip(&u_cg)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(
            diff < 1e-5 * rms(&u_mg).max(1e-12) * 343.0_f64.sqrt() + 1e-7,
            "diff {diff}"
        );
    }
}
