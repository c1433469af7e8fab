//! Dense Cholesky factorization — the coarse-grid direct solver of the
//! multigrid PDE substrate.

use crate::matrix::Matrix;

/// A Cholesky factorization `A = L·Lᵀ` of a symmetric positive-definite
/// matrix, usable to solve `A·x = b`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
    /// Estimated flops spent factoring.
    pub flops: f64,
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix (its lower triangle
    /// is read).
    ///
    /// Returns `None` when the matrix is not (numerically) positive
    /// definite.
    ///
    /// Each row's leading `+0.0` entries (its profile) are skipped, and
    /// `L` is bit-identical to the factor the full loop computes: below a
    /// row's profile, `L` is exactly `+0.0`, and every product the loop
    /// would subtract from an entry inside the profile is a signed zero
    /// subtracted before its first non-zero term, which leaves the entry
    /// unchanged. Two cases take the full loop, because there the skip
    /// would change a bit: an entry of `A` inside the profile that is
    /// `-0.0` (subtracting `-0.0` turns it into `+0.0`), and every row
    /// after one that left a non-finite entry in `L` (a zero times an
    /// infinite or NaN entry is NaN, not a signed zero). A banded matrix
    /// such as a grid operator factors in time proportional to its band,
    /// yet [`flops`](Self::flops) is the dense count either way.
    ///
    /// # Panics
    /// Panics if `a` is not square.
    pub fn new(a: &Matrix) -> Option<Self> {
        let n = a.rows();
        assert_eq!(n, a.cols(), "cholesky requires a square matrix");
        let mut l = Matrix::zeros(n, n);
        let mut finite = true;
        for i in 0..n {
            let a_row = &a.row(i)[..=i];
            let profile = if finite {
                a_row[..i]
                    .iter()
                    .position(|x| x.to_bits() != 0)
                    .unwrap_or(i)
            } else {
                0
            };
            let (done, rest) = l.data_mut().split_at_mut(i * n);
            let row = &mut rest[..=i];
            for j in profile..=i {
                let mut s = a_row[j];
                let from = if s.to_bits() == (-0.0f64).to_bits() {
                    0
                } else {
                    profile
                };
                let lj = if j < i {
                    &done[j * n..=j * n + j]
                } else {
                    &row[..=i]
                };
                for (x, y) in row[from..j].iter().zip(&lj[from..j]) {
                    s -= x * y;
                }
                if i == j {
                    if s <= 0.0 {
                        return None;
                    }
                    row[i] = s.sqrt();
                } else {
                    row[j] = s / lj[j];
                }
            }
            finite = finite && row[profile..].iter().all(|x| x.is_finite());
        }
        // The dense count Σᵢ Σⱼ≤ᵢ (2j + 2), an integer the full loop's
        // running sum reaches exactly.
        let flops = (n * (n + 1) * (n + 2) / 3) as f64;
        Some(Cholesky { l, flops })
    }

    /// The lower-triangular factor.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A·x = b` by forward/back substitution.
    ///
    /// # Panics
    /// Panics if `b.len()` does not match the factored dimension.
    // Indexed loops are the natural form for triangular substitution.
    #[allow(clippy::needless_range_loop)]
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.l.rows();
        assert_eq!(b.len(), n, "rhs length mismatch");
        // Forward: L y = b
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut s = b[i];
            for k in 0..i {
                s -= self.l[(i, k)] * y[k];
            }
            y[i] = s / self.l[(i, i)];
        }
        // Back: Lᵀ x = y
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            for k in (i + 1)..n {
                s -= self.l[(k, i)] * x[k];
            }
            x[i] = s / self.l[(i, i)];
        }
        x
    }

    /// Flop estimate of one solve (2n²).
    pub fn solve_flops(&self) -> f64 {
        let n = self.l.rows() as f64;
        2.0 * n * n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The factor as the full inner loop over every column computes it,
    /// the oracle of the profile skip.
    fn full_loop(a: &Matrix) -> Option<Cholesky> {
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
        Some(Cholesky { l, flops })
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `Cholesky::new` against the full loop: the verdict, `L`, `flops`
    /// and a solve, bit for bit.
    fn assert_matches_full_loop(a: &Matrix, b: &[f64]) {
        let got = Cholesky::new(a);
        let want = full_loop(a);
        assert_eq!(got.is_some(), want.is_some(), "SPD verdicts differ");
        if let (Some(got), Some(want)) = (got, want) {
            assert_eq!(bits(got.l().data()), bits(want.l().data()), "L");
            assert_eq!(got.flops.to_bits(), want.flops.to_bits(), "flops");
            assert_eq!(bits(&got.solve(b)), bits(&want.solve(b)), "solve");
        }
    }

    /// A random symmetric `n × n` matrix whose rows start at random
    /// profiles. A profile may open with `-0.0`, and `±0.0` entries lie
    /// inside profiles. Diagonally dominant (so SPD) unless `indefinite`;
    /// with `tiny_pivot`, the first pivot is subnormal and large entries
    /// below it overflow the factor to infinities and NaNs.
    fn profiled(rng: &mut StdRng, n: usize, indefinite: bool, tiny_pivot: bool) -> Matrix {
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            let profile = rng.gen_range(0..=i);
            for j in profile..i {
                let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                let v = if j == profile && rng.gen_bool(0.3) {
                    -0.0
                } else if rng.gen_bool(0.3) {
                    sign * 0.0
                } else if tiny_pivot && j == 0 {
                    sign * 1e300
                } else {
                    sign * rng.gen_range(0.1..2.0)
                };
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        for i in 0..n {
            let off: f64 = (0..n).filter(|&j| j != i).map(|j| a[(i, j)].abs()).sum();
            a[(i, i)] = if indefinite {
                rng.gen_range(-1.0..1.0) * off
            } else {
                1.0 + off * rng.gen_range(1.0..2.0)
            };
        }
        if tiny_pivot && n > 0 {
            a[(0, 0)] = 1e-320;
        }
        a
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The profile skip matches the full loop on random profiled
        /// matrices: SPD, indefinite, and overflowing.
        #[test]
        fn profile_skip_matches_the_full_loop(seed in 0u64..u64::MAX, n in 0usize..24, kind in 0u8..6) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = profiled(&mut rng, n, kind == 4, kind == 5);
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            assert_matches_full_loop(&a, &b);
        }
    }

    #[test]
    fn rows_after_a_non_finite_entry_take_the_full_loop() {
        // The subnormal pivot overflows l[2][0] to infinity; l[2][1] =
        // (1 − ∞·0)/1 is NaN and so is l[2][2]. Row 3's profile opens at
        // its diagonal, yet the full loop reads l[3][2] = (0 − 0·∞ −
        // 0·NaN)/NaN = NaN, not the +0.0 a skip would leave.
        let a = Matrix::from_rows(
            4,
            4,
            &[
                1e-320, 0.0, 1e300, 0.0, //
                0.0, 1.0, 1.0, 0.0, //
                1e300, 1.0, 1.0, 0.0, //
                0.0, 0.0, 0.0, 1.0,
            ],
        );
        let want = full_loop(&a).expect("a NaN pivot is not refused");
        assert!(want.l()[(3, 2)].is_nan());
        assert_matches_full_loop(&a, &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn a_profile_opening_with_negative_zero_takes_the_full_loop() {
        // Row 2 opens with a[2][1] = −0.0. The full loop subtracts
        // l[2][0]·l[1][0] = +0.0 · −1.0 = −0.0 from it, which gives +0.0.
        let a = Matrix::from_rows(
            3,
            3,
            &[
                4.0, -2.0, 0.0, //
                -2.0, 5.0, -0.0, //
                0.0, -0.0, 3.0,
            ],
        );
        let want = full_loop(&a).unwrap();
        assert_eq!(want.l()[(2, 1)].to_bits(), 0.0f64.to_bits());
        assert_matches_full_loop(&a, &[1.0, -1.0, 0.5]);
    }

    fn spd(n: usize) -> Matrix {
        // Diagonally dominant symmetric ⇒ SPD.
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                (n as f64) + 1.0
            } else {
                1.0 / ((i + j + 1) as f64)
            }
        })
    }

    #[test]
    fn factors_and_solves() {
        let a = spd(6);
        let c = Cholesky::new(&a).expect("spd");
        let x_true: Vec<f64> = (0..6).map(|i| (i as f64) - 2.5).collect();
        let b = a.matvec(&x_true);
        let x = c.solve(&b);
        for i in 0..6 {
            assert!((x[i] - x_true[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn reconstructs_matrix() {
        let a = spd(5);
        let c = Cholesky::new(&a).expect("spd");
        let rebuilt = &(c.l().clone()) * &c.l().transpose();
        assert!((&rebuilt - &a).frobenius_norm() < 1e-10);
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(2, 2, &[1.0, 2.0, 2.0, 1.0]); // eigenvalues 3, -1
        assert!(Cholesky::new(&a).is_none());
    }

    #[test]
    fn flops_grow_with_size() {
        let small = Cholesky::new(&spd(4)).unwrap();
        let large = Cholesky::new(&spd(12)).unwrap();
        assert!(large.flops > small.flops);
        assert!(large.solve_flops() > small.solve_flops());
    }
}
