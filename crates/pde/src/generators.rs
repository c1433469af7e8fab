//! Right-hand-side generators, reference solutions and shared feature
//! extraction for the PDE benchmarks.
//!
//! Reference solutions are computed once per input by a deep multigrid run
//! (red–black V(3,3), direct coarse solve, 40 cycles) — accurate to machine
//! precision, so the accuracy metric's denominator is trustworthy across
//! the whole 10⁷-reduction range the threshold demands.

use crate::dim2::Grid2d;
use crate::dim3::Grid3d;
use crate::level::{mg_solve, CycleKind, MgOptions, Smoother};
use intune_core::FeatureSample;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One Poisson 2D input: grid size, right-hand side, reference solution.
#[derive(Debug, Clone)]
pub struct PdeInput2d {
    /// Interior points per dimension.
    pub n: usize,
    /// Right-hand side (n² values).
    pub rhs: Vec<f64>,
    /// Reference solution (n² values).
    pub reference: Vec<f64>,
}

/// One Helmholtz 3D input: grid size, coefficient field, rhs, reference.
#[derive(Debug, Clone)]
pub struct PdeInput3d {
    /// Interior points per dimension.
    pub n: usize,
    /// Variable coefficient field `c(x) ≥ 0` (n³ values).
    pub coeff: Vec<f64>,
    /// Right-hand side (n³ values).
    pub rhs: Vec<f64>,
    /// Reference solution (n³ values).
    pub reference: Vec<f64>,
}

/// Families of right-hand sides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PdeInputClass {
    /// Few low-frequency sine modes (multigrid's home turf).
    SmoothLowFreq,
    /// Near-Nyquist modes (plain smoothing suffices).
    HighFreq,
    /// Uniform random noise (all frequencies).
    Noise,
    /// A handful of point sources; mostly zeros.
    PointSources,
    /// Random field with rectangular zeroed patches.
    ZeroPatches,
    /// Low + high + noise mixture.
    Mixed,
}

fn reference_opts() -> MgOptions {
    MgOptions {
        pre: 3,
        post: 3,
        smoother: Smoother::RedBlack,
        omega: 1.0,
        cycle: CycleKind::V,
        coarse_direct: true,
    }
}

impl PdeInputClass {
    /// All generator classes.
    pub fn all() -> &'static [PdeInputClass] {
        use PdeInputClass::*;
        &[
            SmoothLowFreq,
            HighFreq,
            Noise,
            PointSources,
            ZeroPatches,
            Mixed,
        ]
    }

    fn field_2d(self, n: usize, rng: &mut StdRng) -> Vec<f64> {
        let mut f = vec![0.0; n * n];
        let pi = std::f64::consts::PI;
        let h = 1.0 / (n as f64 + 1.0);
        let add_mode = |f: &mut Vec<f64>, kx: usize, ky: usize, amp: f64| {
            for i in 0..n {
                for j in 0..n {
                    let x = (i as f64 + 1.0) * h;
                    let y = (j as f64 + 1.0) * h;
                    f[i * n + j] += amp * (kx as f64 * pi * x).sin() * (ky as f64 * pi * y).sin();
                }
            }
        };
        use PdeInputClass::*;
        match self {
            SmoothLowFreq => {
                for _ in 0..3 {
                    add_mode(
                        &mut f,
                        rng.gen_range(1..4),
                        rng.gen_range(1..4),
                        rng.gen_range(0.5..2.0),
                    );
                }
            }
            HighFreq => {
                for _ in 0..3 {
                    add_mode(
                        &mut f,
                        rng.gen_range(n / 2..n),
                        rng.gen_range(n / 2..n),
                        rng.gen_range(0.5..2.0),
                    );
                }
            }
            Noise => {
                for v in &mut f {
                    *v = rng.gen_range(-1.0..1.0);
                }
            }
            PointSources => {
                let sources = rng.gen_range(2..8);
                for _ in 0..sources {
                    let idx = rng.gen_range(0..n * n);
                    f[idx] = rng.gen_range(5.0..20.0) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                }
            }
            ZeroPatches => {
                for v in &mut f {
                    *v = rng.gen_range(-1.0..1.0);
                }
                for _ in 0..3 {
                    let i0 = rng.gen_range(0..n);
                    let j0 = rng.gen_range(0..n);
                    let w = rng.gen_range(n / 4..n / 2 + 1);
                    for i in i0..(i0 + w).min(n) {
                        for j in j0..(j0 + w).min(n) {
                            f[i * n + j] = 0.0;
                        }
                    }
                }
            }
            Mixed => {
                add_mode(&mut f, 1, 2, 1.0);
                add_mode(&mut f, n - 1, n - 2, 0.7);
                for v in f.iter_mut() {
                    *v += rng.gen_range(-0.2..0.2);
                }
            }
        }
        f
    }

    /// Generates a 2-D input with its reference solution.
    pub fn generate_2d(self, n: usize, rng: &mut StdRng) -> PdeInput2d {
        let rhs = self.field_2d(n, rng);
        let grid = Grid2d::poisson(n);
        let (reference, _) = mg_solve(&grid, &rhs, 40, &reference_opts());
        PdeInput2d { n, rhs, reference }
    }

    /// Generates a 3-D input (random smooth screening field) with reference.
    pub fn generate_3d(self, n: usize, rng: &mut StdRng) -> PdeInput3d {
        let base: f64 = rng.gen_range(0.0..50.0);
        self.generate_3d_with_screen(n, base, rng)
    }

    /// Generates a 3-D input with a given mean screening strength.
    pub fn generate_3d_with_screen(self, n: usize, screen: f64, rng: &mut StdRng) -> PdeInput3d {
        // Variable coefficient: smooth positive bumps around `screen`.
        let mut coeff = vec![0.0; n * n * n];
        let pi = std::f64::consts::PI;
        let h = 1.0 / (n as f64 + 1.0);
        let (ax, ay, az) = (
            rng.gen_range(0.5..1.5),
            rng.gen_range(0.5..1.5),
            rng.gen_range(0.5..1.5),
        );
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let x = (i as f64 + 1.0) * h;
                    let y = (j as f64 + 1.0) * h;
                    let z = (k as f64 + 1.0) * h;
                    let bump = (ax * pi * x).sin().abs()
                        * (ay * pi * y).sin().abs()
                        * (az * pi * z).sin().abs();
                    coeff[(i * n + j) * n + k] = screen * (0.5 + bump);
                }
            }
        }

        // Rhs: reuse the 2-D pattern machinery on each z-slab with phase
        // variation, which preserves the class character in 3-D.
        let mut rhs = vec![0.0; n * n * n];
        for k in 0..n {
            let slab = self.field_2d(n, rng);
            let scale = 0.5 + 0.5 * ((k as f64 + 1.0) * h * pi).sin();
            for (dst, src) in rhs[k * n * n..(k + 1) * n * n].iter_mut().zip(&slab) {
                *dst = src * scale;
            }
        }

        let grid = Grid3d::new(n, coeff.clone());
        let (reference, _) = mg_solve(&grid, &rhs, 40, &reference_opts());
        PdeInput3d {
            n,
            coeff,
            rhs,
            reference,
        }
    }
}

/// Encodes one scalar field for the journal codec (bit-exact: every
/// value prints in shortest-round-trip decimal form).
pub(crate) fn encode_field(field: &[f64]) -> serde_json::Value {
    use serde::Serialize as _;
    serde_json::Value::Array(field.iter().map(|v| v.to_value()).collect())
}

/// Decodes a scalar field encoded by [`encode_field`]; `None` on any
/// non-numeric entry.
pub(crate) fn decode_field(value: &serde_json::Value) -> Option<Vec<f64>> {
    use serde::Deserialize as _;
    value
        .as_array()?
        .iter()
        .map(|v| f64::from_value(v).ok())
        .collect()
}

/// Shared rhs-field feature extraction: *residual measure*, standard
/// deviation, and zeros fraction, each at three sampling levels.
///
/// The residual measure deepens with its level, as the paper's costlier
/// sampling levels do: level 0 is the plain RMS of the sampled right-hand
/// side (`‖f − A·0‖` on a sample); levels 1 and 2 report how much of the
/// field survives 1 or 3 cheap 1-D smoothing passes — smoothing annihilates
/// high-frequency content, so the surviving fraction is a frequency probe
/// that predicts whether plain relaxation will suffice as a solver.
///
/// # Panics
/// Panics if `property > 2`.
pub fn extract_field_feature(property: usize, level: usize, field: &[f64]) -> FeatureSample {
    let n = field.len();
    if n == 0 {
        return FeatureSample::new(0.0, 1.0);
    }
    let m = match level {
        0 => n.min(64),
        1 => n.min(512),
        _ => n,
    }
    .max(1);
    let sample: Vec<f64> = (0..m).map(|i| field[i * n / m]).collect();
    match property {
        0 => {
            let rms = |v: &[f64]| -> f64 {
                (v.iter().map(|x| x * x).sum::<f64>() / v.len() as f64).sqrt()
            };
            let base = rms(&sample);
            if level == 0 {
                return FeatureSample::new(base, m as f64);
            }
            // Deep levels: fraction of the field surviving `level * 1..3`
            // three-point smoothing passes.
            let passes = if level == 1 { 1 } else { 3 };
            let mut smooth = sample.clone();
            for _ in 0..passes {
                let prev = smooth.clone();
                for i in 0..smooth.len() {
                    let left = if i > 0 { prev[i - 1] } else { 0.0 };
                    let right = if i + 1 < prev.len() { prev[i + 1] } else { 0.0 };
                    smooth[i] = 0.25 * left + 0.5 * prev[i] + 0.25 * right;
                }
            }
            let survived = rms(&smooth) / base.max(1e-300);
            FeatureSample::new(survived, (m * (1 + 2 * passes)) as f64)
        }
        1 => {
            let mean = sample.iter().sum::<f64>() / sample.len() as f64;
            let var =
                sample.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / sample.len() as f64;
            FeatureSample::new(var.sqrt(), 2.0 * m as f64)
        }
        2 => {
            let zeros = sample.iter().filter(|x| **x == 0.0).count();
            FeatureSample::new(zeros as f64 / sample.len() as f64, m as f64)
        }
        other => panic!("pde benchmarks have 3 properties, got {other}"),
    }
}

/// A corpus of Poisson 2D inputs.
#[derive(Debug, Clone)]
pub struct PdeCorpus2d {
    /// The inputs.
    pub inputs: Vec<PdeInput2d>,
    /// Generator class per input (diagnostics only).
    pub classes: Vec<PdeInputClass>,
}

impl PdeCorpus2d {
    /// Builds `count` inputs cycling through classes and the given grid
    /// sizes. Each size must be odd at every level of its multigrid
    /// hierarchy above the coarsest, so that coarse points coincide with
    /// fine ones: `2^k − 1` qualifies, and so does 11 (11 → 5 → 2).
    pub fn synthetic(count: usize, sizes: &[usize], seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let classes = PdeInputClass::all();
        let mut inputs = Vec::with_capacity(count);
        let mut labels = Vec::with_capacity(count);
        for i in 0..count {
            let class = classes[i % classes.len()];
            let n = sizes[i % sizes.len()];
            inputs.push(class.generate_2d(n, &mut rng));
            labels.push(class);
        }
        PdeCorpus2d {
            inputs,
            classes: labels,
        }
    }
}

/// A corpus of Helmholtz 3D inputs.
#[derive(Debug, Clone)]
pub struct PdeCorpus3d {
    /// The inputs.
    pub inputs: Vec<PdeInput3d>,
    /// Generator class per input (diagnostics only).
    pub classes: Vec<PdeInputClass>,
}

impl PdeCorpus3d {
    /// Builds `count` inputs cycling through classes and grid sizes, each
    /// size under the rule of [`PdeCorpus2d::synthetic`].
    pub fn synthetic(count: usize, sizes: &[usize], seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let classes = PdeInputClass::all();
        let mut inputs = Vec::with_capacity(count);
        let mut labels = Vec::with_capacity(count);
        for i in 0..count {
            let class = classes[i % classes.len()];
            let n = sizes[i % sizes.len()];
            inputs.push(class.generate_3d(n, &mut rng));
            labels.push(class);
        }
        PdeCorpus3d {
            inputs,
            classes: labels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::{residual, rms};

    #[test]
    fn references_solve_the_equation_2d() {
        let mut rng = StdRng::seed_from_u64(1);
        for class in PdeInputClass::all() {
            let input = class.generate_2d(15, &mut rng);
            let grid = Grid2d::poisson(15);
            let (r, _) = residual(&grid, &input.reference, &input.rhs);
            let rel = rms(&r) / rms(&input.rhs).max(1e-300);
            assert!(rel < 1e-9, "{class:?}: reference residual {rel}");
        }
    }

    #[test]
    fn references_solve_the_equation_3d() {
        let mut rng = StdRng::seed_from_u64(2);
        let input = PdeInputClass::Noise.generate_3d(7, &mut rng);
        let grid = Grid3d::new(7, input.coeff.clone());
        let (r, _) = residual(&grid, &input.reference, &input.rhs);
        let rel = rms(&r) / rms(&input.rhs).max(1e-300);
        assert!(rel < 1e-9, "reference residual {rel}");
    }

    #[test]
    fn point_sources_have_many_zeros() {
        let mut rng = StdRng::seed_from_u64(3);
        let input = PdeInputClass::PointSources.generate_2d(31, &mut rng);
        let zeros = extract_field_feature(2, 2, &input.rhs).value;
        assert!(zeros > 0.9, "zeros fraction {zeros}");
        let noise = PdeInputClass::Noise.generate_2d(31, &mut rng);
        assert!(extract_field_feature(2, 2, &noise.rhs).value < 0.05);
    }

    #[test]
    fn feature_levels_cost_ordering() {
        let mut rng = StdRng::seed_from_u64(4);
        let input = PdeInputClass::Mixed.generate_2d(31, &mut rng);
        for p in 0..3 {
            assert!(
                extract_field_feature(p, 0, &input.rhs).cost
                    < extract_field_feature(p, 2, &input.rhs).cost
            );
        }
    }

    #[test]
    fn corpus_cycles_classes_and_sizes() {
        let c = PdeCorpus2d::synthetic(6, &[15, 31], 5);
        assert_eq!(c.inputs.len(), 6);
        assert_eq!(c.inputs[0].n, 15);
        assert_eq!(c.inputs[1].n, 31);
        let distinct: std::collections::HashSet<_> = c.classes.iter().collect();
        assert_eq!(distinct.len(), 6);
    }
}
