//! The stencil kernels both grids share: `A·u` and the four smoothers.
//!
//! A grid is stored as rows of `n` points along its last axis (`j` in
//! 2-D, `k` in 3-D). A point's neighbours off its row lie at the same
//! position of `R` other rows (2 in 2-D, 4 in 3-D); its two neighbours on
//! the row are the points before and after it. Each direction is tested
//! once per row: a neighbour row outside the grid reads as `+0.0`, and so
//! do the missing neighbours of a row's first and last point, so every
//! neighbour sum adds the same terms in the same order as the sum over a
//! zero-padded grid. See the crate docs for the bit-identity contract.

use crate::level::{Level, Smoother};

/// A grid seen as rows of points along its last axis, with `R` off-row
/// neighbours per point.
pub(crate) trait Rows<const R: usize>: Level {
    /// Diagonal factor of the stencil: 4 in 2-D, 6 in 3-D.
    const CENTRE: f64;
    /// Flops charged per point for one application of the stencil.
    const POINT_FLOPS: f64;

    /// Points per row (the grid's `n`).
    fn row_len(&self) -> usize;

    /// Grid spacing squared.
    fn h2(&self) -> f64;

    /// The zeroth-order coefficient field, `None` for zero.
    fn coeff(&self) -> Option<&[f64]>;

    /// Calls `visit` on every row, in the order of the points.
    fn for_each_row(&self, visit: impl FnMut(&Row<R>));
}

/// One row of a grid.
pub(crate) struct Row<const R: usize> {
    /// Index of the row's first point.
    pub start: usize,
    /// Index of the first point of each off-row neighbour row, in the
    /// order the neighbour sum adds them; `None` outside the grid.
    pub nbrs: [Option<usize>; R],
    /// Colour (parity of the index sum) of the row's first point.
    pub colour: usize,
}

impl<const R: usize> Row<R> {
    /// The neighbour sum of point `k` of the row in `u`: the off-row
    /// neighbours in order, then `left` and `right`.
    #[inline(always)]
    fn sum(&self, u: &[f64], k: usize, left: f64, right: f64) -> f64 {
        let at = |t: usize| self.nbrs[t].map_or(0.0, |s| u[s + k]);
        let mut sum = at(0);
        for t in 1..R {
            sum += at(t);
        }
        sum + left + right
    }
}

/// `out = A·u`; returns flops.
pub(crate) fn apply<const R: usize, G: Rows<R>>(grid: &G, u: &[f64], out: &mut [f64]) -> f64 {
    let pass = Pass::new(grid, 1.0);
    grid.for_each_row(|row| pass.apply_row(u, out, row));
    G::POINT_FLOPS * grid.unknowns() as f64
}

/// Runs `sweeps` sweeps of `smoother` on `A·u = f` in place; returns
/// flops.
pub(crate) fn smooth<const R: usize, G: Rows<R>>(
    grid: &G,
    smoother: Smoother,
    omega: f64,
    u: &mut [f64],
    f: &[f64],
    sweeps: usize,
) -> f64 {
    let points = grid.unknowns() as f64;
    let pass = Pass::new(
        grid,
        match smoother {
            Smoother::Sor => omega.clamp(0.1, 1.95),
            _ => 1.0,
        },
    );
    let mut flops = 0.0;
    let mut au = Vec::new();
    for _ in 0..sweeps {
        match smoother {
            Smoother::Jacobi => {
                au.resize(u.len(), 0.0);
                flops += apply(grid, u, &mut au);
                let w = if omega > 0.0 { omega.min(1.0) } else { 0.8 };
                for (idx, x) in u.iter_mut().enumerate() {
                    *x += w * (f[idx] - au[idx]) / (pass.diag + pass.c(idx));
                }
                flops += 4.0 * points;
            }
            Smoother::GaussSeidel | Smoother::Sor => {
                grid.for_each_row(|row| pass.relax_row(u, f, row));
                flops += match smoother {
                    Smoother::Sor => G::POINT_FLOPS + 2.0,
                    _ => G::POINT_FLOPS,
                } * points;
            }
            Smoother::RedBlack => {
                for colour in [0, 1] {
                    grid.for_each_row(|row| pass.relax_colour(u, f, row, colour));
                }
                flops += (G::POINT_FLOPS + 1.0) * points;
            }
        }
    }
    flops
}

/// The constants of one pass of the stencil, each computed once.
struct Pass<'a> {
    /// Points per row.
    n: usize,
    centre: f64,
    h2: f64,
    /// `centre / h²`.
    diag: f64,
    /// `1 − ω`.
    keep: f64,
    omega: f64,
    coeff: Option<&'a [f64]>,
}

impl<'a> Pass<'a> {
    fn new<const R: usize, G: Rows<R>>(grid: &'a G, omega: f64) -> Self {
        Pass {
            n: grid.row_len(),
            centre: G::CENTRE,
            h2: grid.h2(),
            diag: G::CENTRE / grid.h2(),
            keep: 1.0 - omega,
            omega,
            coeff: grid.coeff(),
        }
    }

    /// The coefficient at point `idx`.
    #[inline(always)]
    fn c(&self, idx: usize) -> f64 {
        self.coeff.map_or(0.0, |c| c[idx])
    }

    /// `(A·u)` at point `k` of `row`: `(centre·u − neighbours) / h² + c·u`.
    #[inline(always)]
    fn applied<const R: usize>(
        &self,
        u: &[f64],
        row: &Row<R>,
        k: usize,
        left: f64,
        right: f64,
    ) -> f64 {
        let idx = row.start + k;
        (self.centre * u[idx] - row.sum(u, k, left, right)) / self.h2 + self.c(idx) * u[idx]
    }

    /// The relaxed value of point `k` of `row`:
    /// `(1 − ω)·u + ω·(f + neighbours / h²) / (centre / h² + c)`.
    #[inline(always)]
    fn relaxed<const R: usize>(
        &self,
        u: &[f64],
        f: &[f64],
        row: &Row<R>,
        k: usize,
        left: f64,
        right: f64,
    ) -> f64 {
        let idx = row.start + k;
        let gs = (f[idx] + row.sum(u, k, left, right) / self.h2) / (self.diag + self.c(idx));
        self.keep * u[idx] + self.omega * gs
    }

    /// `out = A·u` along one row.
    fn apply_row<const R: usize>(&self, u: &[f64], out: &mut [f64], row: &Row<R>) {
        let (s, last) = (row.start, self.n - 1);
        let mut left = 0.0;
        for k in 0..last {
            out[s + k] = self.applied(u, row, k, left, u[s + k + 1]);
            left = u[s + k];
        }
        out[s + last] = self.applied(u, row, last, left, 0.0);
    }

    /// Relaxes every point of a row in order; each point's left neighbour
    /// is the value just computed for the point before it.
    fn relax_row<const R: usize>(&self, u: &mut [f64], f: &[f64], row: &Row<R>) {
        let (s, last) = (row.start, self.n - 1);
        let mut left = 0.0;
        for k in 0..last {
            left = self.relaxed(u, f, row, k, left, u[s + k + 1]);
            u[s + k] = left;
        }
        u[s + last] = self.relaxed(u, f, row, last, left, 0.0);
    }

    /// Relaxes the points of one colour of a row, every other point from
    /// its first of that colour; their neighbours on the row are of the
    /// other colour.
    fn relax_colour<const R: usize>(&self, u: &mut [f64], f: &[f64], row: &Row<R>, colour: usize) {
        let (s, last) = (row.start, self.n - 1);
        let mut k = (colour + row.colour) % 2;
        if k == 0 {
            let right = if last > 0 { u[s + 1] } else { 0.0 };
            u[s] = self.relaxed(u, f, row, 0, 0.0, right);
            k = 2;
        }
        while k < last {
            u[s + k] = self.relaxed(u, f, row, k, u[s + k - 1], u[s + k + 1]);
            k += 2;
        }
        if k == last {
            u[s + last] = self.relaxed(u, f, row, last, u[s + last - 1], 0.0);
        }
    }
}
