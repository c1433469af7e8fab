//! # intune-clusterlib
//!
//! The paper's **Clustering** benchmark: assign 2-D points to clusters with
//! a k-means variant whose *initialization strategy* (random, prefix, or
//! center-plus), *cluster count* `k` and *iteration budget* are all set by
//! the autotuner.
//!
//! The accuracy metric is the paper's `Σd̂ᵢ / Σdᵢ`, where `d̂ᵢ` is the
//! point-to-center distance under a canonical clustering (a thorough
//! k-means++ run computed once per input at generation time) and `dᵢ` the
//! distance under the configured run; the threshold is 0.8. Cheap
//! configurations (few iterations, naive init) are fast but may fall below
//! the bar on hard geometries — the benchmark's input sensitivity.
//!
//! Input features: *radius*, *centers* (a grid-density peak count — the
//! expensive feature the paper calls out), *density*, and *range*, each at
//! three sampling levels ([`features`]). Generators include a Poker-Hand-like
//! discrete lattice simulator standing in for the paper's `clustering1`
//! real-world dataset (DESIGN.md §4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod features;
pub mod generators;

pub use algorithm::{kmeans_run, InitStrategy, KmeansOutcome};
pub use generators::{ClusterCorpus, ClusterInput, ClusterInputClass};

use intune_core::{
    AccuracySpec, Benchmark, ConfigSpace, Configuration, ExecutionReport, FeatureDef, FeatureId,
    FeatureSample, FeatureVector,
};

/// The Clustering benchmark.
#[derive(Debug, Clone)]
pub struct Clustering;

impl Clustering {
    /// Creates the benchmark.
    pub fn new() -> Self {
        Clustering
    }
}

impl Default for Clustering {
    fn default() -> Self {
        Clustering::new()
    }
}

impl Benchmark for Clustering {
    type Input = ClusterInput;

    fn name(&self) -> &str {
        "clustering"
    }

    fn space(&self) -> ConfigSpace {
        ConfigSpace::builder()
            .switch("cluster.init", 3)
            .int("cluster.k", 2, 32)
            .int("cluster.iters", 1, 25)
            .build()
    }

    fn run(&self, cfg: &Configuration, input: &Self::Input) -> ExecutionReport {
        let space = self.space();
        let init = InitStrategy::from_index(cfg.choice(space.require("cluster.init").unwrap()));
        let k = cfg.int(space.require("cluster.k").unwrap()) as usize;
        let iters = cfg.int(space.require("cluster.iters").unwrap()) as usize;
        let outcome = kmeans_run(&input.points, k, iters, init);
        // Accuracy = Σ canonical distances / Σ our distances, epsilon-floored
        // so exact-duplicate (lattice) inputs cannot divide by zero.
        let eps = 1e-9;
        let accuracy = ((input.canonical_dist + eps) / (outcome.total_dist + eps)).min(10.0);
        ExecutionReport::with_accuracy(outcome.cost, accuracy)
    }

    fn accuracy(&self) -> Option<AccuracySpec> {
        Some(AccuracySpec::new(0.8))
    }

    fn properties(&self) -> Vec<FeatureDef> {
        vec![
            FeatureDef::new("radius", 3),
            FeatureDef::new("centers", 3),
            FeatureDef::new("density", 3),
            FeatureDef::new("range", 3),
        ]
    }

    fn extract(&self, property: usize, level: usize, input: &Self::Input) -> FeatureSample {
        features::extract(property, level, &input.points)
    }

    // Fused full extraction: one subsample per level shared by all four
    // properties (bit-identical to the default per-property path; see
    // `features::extract_level`). Serving-side drift probes call this per
    // probed request, so the shared pass matters there.
    fn extract_all(&self, input: &Self::Input) -> FeatureVector {
        let defs = self.properties();
        let mut fv = FeatureVector::empty(&defs);
        for level in 0..3 {
            for (p, sample) in features::extract_level(level, &input.points)
                .into_iter()
                .enumerate()
            {
                fv.insert(FeatureId { property: p, level }, sample)
                    .expect("in-range feature id");
            }
        }
        fv
    }

    // Cluster inputs journal as an explicit document — `Point` is a
    // fixed-size array the serde shim has no blanket impls for, so the
    // codec is hand-rolled:
    //
    // ```json
    // {"points": [[x, y], ...], "canonical_dist": d, "canonical_k": k}
    // ```
    //
    // `canonical_dist` rides along because it anchors the accuracy
    // metric: recomputing it after decode would re-run the thorough
    // canonical clustering and could drift from the value the features
    // were served under. Floats round-trip bit-exactly (non-finite
    // values journal as their conventional string names), so clustering
    // can feed the continuous-learning retraining corpus.
    fn encode_input(&self, input: &Self::Input) -> Option<serde_json::Value> {
        use serde::Serialize as _;
        let points = input
            .points
            .iter()
            .map(|p| serde_json::Value::Array(vec![p[0].to_value(), p[1].to_value()]))
            .collect();
        Some(serde_json::Value::Object(vec![
            ("points".to_string(), serde_json::Value::Array(points)),
            (
                "canonical_dist".to_string(),
                input.canonical_dist.to_value(),
            ),
            (
                "canonical_k".to_string(),
                serde_json::Value::UInt(input.canonical_k as u64),
            ),
        ]))
    }

    fn decode_input(&self, payload: &serde_json::Value) -> Option<Self::Input> {
        use serde::Deserialize as _;
        let points = payload
            .get("points")?
            .as_array()?
            .iter()
            .map(|pair| {
                let xy = pair.as_array()?;
                if xy.len() != 2 {
                    return None;
                }
                Some([f64::from_value(&xy[0]).ok()?, f64::from_value(&xy[1]).ok()?])
            })
            .collect::<Option<Vec<algorithm::Point>>>()?;
        // `kmeans_run` refuses an input without points.
        if points.is_empty() {
            return None;
        }
        Some(ClusterInput {
            points,
            canonical_dist: f64::from_value(payload.get("canonical_dist")?).ok()?,
            canonical_k: usize::try_from(payload.get("canonical_k")?.as_u64()?).ok()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intune_core::ParamValue;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn blob_input() -> ClusterInput {
        let mut rng = StdRng::seed_from_u64(3);
        ClusterInputClass::Blobs { k: 4 }.generate(400, &mut rng)
    }

    #[test]
    fn thorough_config_is_accurate() {
        let b = Clustering::new();
        let space = b.space();
        let mut cfg = space.default_config();
        cfg.set(
            space.index_of("cluster.init").unwrap(),
            ParamValue::Choice(2),
        ); // centerplus
        cfg.set(space.index_of("cluster.k").unwrap(), ParamValue::Int(4));
        cfg.set(
            space.index_of("cluster.iters").unwrap(),
            ParamValue::Int(20),
        );
        let report = b.run(&cfg, &blob_input());
        assert!(
            report.accuracy.unwrap() > 0.8,
            "accuracy {}",
            report.accuracy.unwrap()
        );
    }

    #[test]
    fn starved_config_is_fast_but_inaccurate() {
        let b = Clustering::new();
        let space = b.space();
        let input = blob_input();

        let mut starved = space.default_config();
        starved.set(
            space.index_of("cluster.init").unwrap(),
            ParamValue::Choice(1),
        ); // prefix
        starved.set(space.index_of("cluster.k").unwrap(), ParamValue::Int(2));
        starved.set(space.index_of("cluster.iters").unwrap(), ParamValue::Int(1));

        let mut thorough = space.default_config();
        thorough.set(
            space.index_of("cluster.init").unwrap(),
            ParamValue::Choice(2),
        );
        thorough.set(space.index_of("cluster.k").unwrap(), ParamValue::Int(4));
        thorough.set(
            space.index_of("cluster.iters").unwrap(),
            ParamValue::Int(20),
        );

        let r_starved = b.run(&starved, &input);
        let r_thorough = b.run(&thorough, &input);
        assert!(r_starved.cost < r_thorough.cost);
        assert!(r_starved.accuracy.unwrap() < r_thorough.accuracy.unwrap());
    }

    #[test]
    fn features_extractable() {
        let b = Clustering::new();
        let fv = b.extract_all(&blob_input());
        assert_eq!(fv.len(), 12);
        assert!(fv.dense().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn accuracy_threshold_is_papers() {
        assert_eq!(Clustering::new().accuracy().unwrap().threshold, 0.8);
    }

    #[test]
    fn inputs_round_trip_through_journal_codec_bit_exactly() {
        let b = Clustering::new();
        let mut input = blob_input();
        // Adversarial float bit patterns: negative zero, subnormals, and
        // values whose shortest decimal form exercises the printer.
        input.points.push([-0.0, f64::MIN_POSITIVE / 2.0]);
        input.points.push([0.1 + 0.2, f64::MAX]);
        let encoded = b.encode_input(&input).expect("clustering journals");
        // Through the actual wire representation, not just the Value tree.
        let text = serde_json::to_string(&encoded).unwrap();
        let reparsed: serde_json::Value = serde_json::from_str(&text).unwrap();
        let decoded = b.decode_input(&reparsed).expect("codec round-trips");
        assert_eq!(decoded.points.len(), input.points.len());
        for (a, c) in input.points.iter().zip(&decoded.points) {
            assert_eq!(a[0].to_bits(), c[0].to_bits());
            assert_eq!(a[1].to_bits(), c[1].to_bits());
        }
        assert_eq!(
            decoded.canonical_dist.to_bits(),
            input.canonical_dist.to_bits()
        );
        assert_eq!(decoded.canonical_k, input.canonical_k);
        // Identical treatment: same features, bit for bit.
        assert_eq!(
            b.extract_all(&input).dense(),
            b.extract_all(&decoded).dense()
        );
    }

    #[test]
    fn decode_rejects_malformed_documents() {
        let b = Clustering::new();
        for text in [
            "null",
            "{}",
            r#"{"points": [[1.0]], "canonical_dist": 1.0, "canonical_k": 3}"#,
            r#"{"points": [[1.0, 2.0, 3.0]], "canonical_dist": 1.0, "canonical_k": 3}"#,
            r#"{"points": [[1.0, 2.0]], "canonical_k": 3}"#,
            r#"{"points": [[1.0, "x"]], "canonical_dist": 1.0, "canonical_k": 3}"#,
            // No points: `kmeans_run` refuses them.
            r#"{"points":[],"canonical_dist":1.0,"canonical_k":2}"#,
        ] {
            let payload: serde_json::Value = serde_json::from_str(text).unwrap();
            assert!(b.decode_input(&payload).is_none(), "accepted {text}");
        }
    }
}
