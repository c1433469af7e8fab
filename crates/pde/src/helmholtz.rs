//! The **Helmholtz 3D** benchmark: `(-∆ + c(x))·u = f` on the unit cube
//! with a variable non-negative coefficient field (the SPD screened-Poisson
//! form), same solver menu and accuracy metric as Poisson 2D, threshold 7.

use crate::dim3::Grid3d;
use crate::generators::PdeInput3d;
use crate::poisson::{accuracy_vs_reference, run_solver, SolverGenes, ACCURACY_CAP};
use intune_core::{
    AccuracySpec, Benchmark, ConfigSpace, Configuration, ExecutionReport, FeatureDef, FeatureSample,
};

/// The Helmholtz 3D benchmark.
#[derive(Debug, Clone)]
pub struct Helmholtz3d;

impl Helmholtz3d {
    /// Creates the benchmark.
    pub fn new() -> Self {
        Helmholtz3d
    }

    fn genes() -> SolverGenes {
        SolverGenes { prefix: "h3" }
    }
}

impl Default for Helmholtz3d {
    fn default() -> Self {
        Helmholtz3d::new()
    }
}

impl Benchmark for Helmholtz3d {
    type Input = PdeInput3d;

    fn name(&self) -> &str {
        "helmholtz3d"
    }

    fn space(&self) -> ConfigSpace {
        Self::genes().add_to(ConfigSpace::builder()).build()
    }

    fn run(&self, cfg: &Configuration, input: &Self::Input) -> ExecutionReport {
        let space = self.space();
        let choice = Self::genes().decode(&space, cfg);
        let grid = Grid3d::new(input.n, input.coeff.clone());
        let (u, flops) = run_solver(&grid, &input.rhs, &choice);
        let accuracy = match u {
            Some(u) => accuracy_vs_reference(&input.reference, &u),
            None => ACCURACY_CAP,
        };
        ExecutionReport::with_accuracy(flops, accuracy)
    }

    fn accuracy(&self) -> Option<AccuracySpec> {
        Some(AccuracySpec::new(7.0))
    }

    fn properties(&self) -> Vec<FeatureDef> {
        vec![
            FeatureDef::new("residual", 3),
            FeatureDef::new("deviation", 3),
            FeatureDef::new("zeros", 3),
        ]
    }

    fn extract(&self, property: usize, level: usize, input: &Self::Input) -> FeatureSample {
        crate::generators::extract_field_feature(property, level, &input.rhs)
    }

    fn encode_input(&self, input: &Self::Input) -> Option<serde_json::Value> {
        Some(serde_json::Value::Object(vec![
            ("n".to_string(), serde_json::Value::UInt(input.n as u64)),
            (
                "coeff".to_string(),
                crate::generators::encode_field(&input.coeff),
            ),
            (
                "rhs".to_string(),
                crate::generators::encode_field(&input.rhs),
            ),
            (
                "reference".to_string(),
                crate::generators::encode_field(&input.reference),
            ),
        ]))
    }

    fn decode_input(&self, payload: &serde_json::Value) -> Option<Self::Input> {
        let n = usize::try_from(payload.get("n")?.as_u64()?).ok()?;
        let coeff = crate::generators::decode_field(payload.get("coeff")?)?;
        let rhs = crate::generators::decode_field(payload.get("rhs")?)?;
        let reference = crate::generators::decode_field(payload.get("reference")?)?;
        let cells = n.checked_mul(n)?.checked_mul(n)?;
        if n == 0 || coeff.len() != cells || rhs.len() != cells || reference.len() != cells {
            return None;
        }
        // `Grid3d::new` refuses a coefficient field it cannot keep SPD.
        if !crate::level::spd_coefficients(&coeff) {
            return None;
        }
        Some(PdeInput3d {
            n,
            coeff,
            rhs,
            reference,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::PdeInputClass;
    use intune_core::ParamValue;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn input(n: usize) -> PdeInput3d {
        let mut rng = StdRng::seed_from_u64(6);
        PdeInputClass::SmoothLowFreq.generate_3d(n, &mut rng)
    }

    fn set(cfg: &mut Configuration, space: &ConfigSpace, name: &str, v: ParamValue) {
        cfg.set(space.index_of(name).unwrap(), v);
    }

    #[test]
    fn multigrid_hits_accuracy_target() {
        let b = Helmholtz3d::new();
        let space = b.space();
        let mut cfg = space.default_config();
        set(&mut cfg, &space, "h3.solver", ParamValue::Choice(0));
        set(&mut cfg, &space, "h3.cycles", ParamValue::Int(12));
        set(&mut cfg, &space, "h3.smoother", ParamValue::Choice(3));
        let report = b.run(&cfg, &input(15));
        assert!(
            report.accuracy.unwrap() >= 7.0,
            "accuracy {}",
            report.accuracy.unwrap()
        );
    }

    #[test]
    fn variable_coefficient_matters() {
        // Stronger screening (larger c) improves conditioning: the same
        // smoother budget reaches higher accuracy.
        let b = Helmholtz3d::new();
        let space = b.space();
        let mut cfg = space.default_config();
        set(&mut cfg, &space, "h3.solver", ParamValue::Choice(2));
        set(&mut cfg, &space, "h3.sweeps", ParamValue::Int(60));
        set(&mut cfg, &space, "h3.smoother", ParamValue::Choice(1));
        let mut rng = StdRng::seed_from_u64(8);
        let weak = PdeInputClass::SmoothLowFreq.generate_3d_with_screen(11, 0.0, &mut rng);
        let strong = PdeInputClass::SmoothLowFreq.generate_3d_with_screen(11, 500.0, &mut rng);
        let r_weak = b.run(&cfg, &weak);
        let r_strong = b.run(&cfg, &strong);
        assert!(
            r_strong.accuracy.unwrap() > r_weak.accuracy.unwrap(),
            "screened {} vs unscreened {}",
            r_strong.accuracy.unwrap(),
            r_weak.accuracy.unwrap()
        );
    }

    #[test]
    fn features_extractable() {
        let b = Helmholtz3d::new();
        let fv = b.extract_all(&input(7));
        assert_eq!(fv.len(), 9);
        assert!(fv.dense().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn deterministic() {
        let b = Helmholtz3d::new();
        let cfg = b.space().default_config();
        let i = input(7);
        assert_eq!(b.run(&cfg, &i), b.run(&cfg, &i));
    }

    #[test]
    fn inputs_round_trip_through_journal_codec_bit_exactly() {
        let b = Helmholtz3d::new();
        // A generated input plus a hand-built one of adversarial values:
        // negative zero, a subnormal, a value with no short decimal form,
        // and the finite extremes (coeff must stay ≥ 0 only physically —
        // the codec itself is value-agnostic).
        let adversarial = PdeInput3d {
            n: 1,
            coeff: vec![f64::MIN_POSITIVE / 2.0],
            rhs: vec![0.1 + 0.2],
            reference: vec![-0.0],
        };
        for input in [input(5), adversarial] {
            let encoded = b.encode_input(&input).expect("helmholtz journals");
            // Through the actual wire representation, not just the Value
            // tree.
            let text = serde_json::to_string(&encoded).unwrap();
            let reparsed: serde_json::Value = serde_json::from_str(&text).unwrap();
            let decoded = b.decode_input(&reparsed).expect("codec round-trips");
            assert_eq!(decoded.n, input.n);
            for (field, decoded_field) in [
                (&input.coeff, &decoded.coeff),
                (&input.rhs, &decoded.rhs),
                (&input.reference, &decoded.reference),
            ] {
                assert_eq!(field.len(), decoded_field.len());
                for (a, c) in field.iter().zip(decoded_field) {
                    assert_eq!(a.to_bits(), c.to_bits());
                }
            }
            // Identical treatment: same features, bit for bit.
            assert_eq!(
                b.extract_all(&input).dense(),
                b.extract_all(&decoded).dense()
            );
        }
    }

    #[test]
    fn decode_rejects_malformed_documents() {
        let b = Helmholtz3d::new();
        for text in [
            "null",
            "{}",
            // coeff shorter than n³.
            r#"{"n": 2, "coeff": [1.0], "rhs": [0,0,0,0,0,0,0,0], "reference": [0,0,0,0,0,0,0,0]}"#,
            // rhs shorter than n³.
            r#"{"n": 1, "coeff": [1.0], "rhs": [], "reference": [0.0]}"#,
            // Degenerate grid.
            r#"{"n": 0, "coeff": [], "rhs": [], "reference": []}"#,
            // Missing field.
            r#"{"n": 1, "coeff": [1.0], "rhs": [1.0]}"#,
            // Non-numeric entry.
            r#"{"n": 1, "coeff": [1.0], "rhs": [1.0], "reference": [[]]}"#,
            // A negative coefficient: `Grid3d::new` refuses it.
            r#"{"n":1,"coeff":[-1.0],"rhs":[1.0],"reference":[0.0]}"#,
        ] {
            let payload: serde_json::Value = serde_json::from_str(text).unwrap();
            assert!(b.decode_input(&payload).is_none(), "accepted {text}");
        }
    }
}
