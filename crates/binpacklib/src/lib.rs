//! # intune-binpacklib
//!
//! The paper's **Bin Packing** benchmark: unit-capacity bins, items in
//! `(0, 1]`, and a choice among the 13 classic approximation heuristics the
//! paper lists — AlmostWorstFit, AlmostWorstFitDecreasing, BestFit,
//! BestFitDecreasing, FirstFit, FirstFitDecreasing, LastFit,
//! LastFitDecreasing, ModifiedFirstFitDecreasing, NextFit,
//! NextFitDecreasing, WorstFit, WorstFitDecreasing.
//!
//! The accuracy metric is the paper's: *the average of the occupied
//! fractions of all bins* (total item mass / bins used), with threshold
//! 0.95. Cheap heuristics (NextFit) place items fast but waste bins; tight
//! heuristics (BestFitDecreasing) pay sorting plus per-item bin scans. That
//! cost/accuracy tension across item-size distributions is what makes the
//! benchmark input-sensitive.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod features;
pub mod generators;
pub mod heuristics;

pub use generators::{PackCorpus, PackInputClass};
pub use heuristics::{Heuristic, Packing};

use intune_core::{
    AccuracySpec, Benchmark, ConfigSpace, Configuration, FeatureDef, FeatureId, FeatureSample,
    FeatureVector, Selector, SelectorSpec,
};

/// The Bin Packing benchmark. The configuration space is a one-level
/// size-keyed selector over the 13 heuristics: different heuristics may be
/// chosen for small vs. large instances within a single configuration.
#[derive(Debug, Clone)]
pub struct BinPacking {
    max_n: usize,
}

impl BinPacking {
    /// Creates the benchmark for instances up to `max_n` items.
    pub fn new(max_n: usize) -> Self {
        BinPacking {
            max_n: max_n.max(16),
        }
    }

    fn selector_spec(&self) -> SelectorSpec {
        SelectorSpec::new("pack", 2, self.max_n as i64, Heuristic::ALL.len())
    }

    /// Runs the configured heuristic(s) and returns the full packing.
    ///
    /// # Panics
    /// Panics if `cfg` does not match this benchmark's space.
    pub fn pack(&self, cfg: &Configuration, items: &[f64]) -> Packing {
        let space = self.space();
        let selector: Selector = self
            .selector_spec()
            .decode(&space, cfg)
            .expect("selector genes present");
        let heuristic = Heuristic::ALL[selector.decide(items.len())];
        heuristic.pack(items)
    }
}

impl Benchmark for BinPacking {
    type Input = Vec<f64>;

    fn name(&self) -> &str {
        "binpacking"
    }

    fn space(&self) -> ConfigSpace {
        self.selector_spec().add_to(ConfigSpace::builder()).build()
    }

    fn run(&self, cfg: &Configuration, input: &Self::Input) -> intune_core::ExecutionReport {
        let packing = self.pack(cfg, input);
        intune_core::ExecutionReport::with_accuracy(packing.cost, packing.occupancy())
    }

    fn accuracy(&self) -> Option<AccuracySpec> {
        Some(AccuracySpec::new(0.95))
    }

    fn properties(&self) -> Vec<FeatureDef> {
        vec![
            FeatureDef::new("average", 3),
            FeatureDef::new("deviation", 3),
            FeatureDef::new("range", 3),
            FeatureDef::new("sortedness", 3),
        ]
    }

    fn extract(&self, property: usize, level: usize, input: &Self::Input) -> FeatureSample {
        features::extract(property, level, input)
    }

    // Fused full extraction: one item sample per level shared by all
    // properties (bit-identical to the default per-property path; see
    // `features::extract_level`). Drift probes on the serving hot path
    // call this per probed request.
    fn extract_all(&self, input: &Self::Input) -> FeatureVector {
        let defs = self.properties();
        let mut fv = FeatureVector::empty(&defs);
        for level in 0..3 {
            for (p, sample) in features::extract_level(level, input)
                .into_iter()
                .enumerate()
            {
                fv.insert(FeatureId { property: p, level }, sample)
                    .expect("in-range feature id");
            }
        }
        fv
    }

    // Packing instances are plain float arrays: they journal losslessly,
    // so this case can feed the continuous-learning retraining corpus.
    fn encode_input(&self, input: &Self::Input) -> Option<serde_json::Value> {
        Some(serde::Serialize::to_value(input))
    }

    // An item `pack` would refuse is refused here, so such a payload is
    // skipped rather than failing the measurement of a retrain.
    fn decode_input(&self, payload: &serde_json::Value) -> Option<Self::Input> {
        let items: Vec<f64> = serde_json::from_value(payload).ok()?;
        items
            .iter()
            .all(|&x| heuristics::item_fits(x))
            .then_some(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn every_random_config_packs_validly() {
        let b = BinPacking::new(2048);
        let space = b.space();
        let mut rng = StdRng::seed_from_u64(5);
        let items: Vec<f64> = (0..300)
            .map(|i| 0.05 + ((i * 37) % 90) as f64 / 100.0)
            .collect();
        let total: f64 = items.iter().sum();
        for _ in 0..30 {
            let cfg = space.random(&mut rng);
            let packing = b.pack(&cfg, &items);
            packing.assert_valid(items.len());
            // occupancy = total mass / bins.
            assert!((packing.occupancy() - total / packing.bins.len() as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn report_carries_accuracy() {
        let b = BinPacking::new(2048);
        let cfg = b.space().default_config();
        let items = vec![0.5, 0.5, 0.3, 0.7];
        let report = b.run(&cfg, &items);
        let acc = report.accuracy.expect("binpacking is variable accuracy");
        assert!(acc > 0.0 && acc <= 1.0);
        assert!(report.cost > 0.0);
    }

    #[test]
    fn features_extractable() {
        let b = BinPacking::new(2048);
        let items: Vec<f64> = (0..200).map(|i| ((i % 10) as f64 + 1.0) / 11.0).collect();
        let fv = b.extract_all(&items);
        assert_eq!(fv.len(), 12);
        assert!(fv.dense().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn accuracy_threshold_is_papers() {
        assert_eq!(BinPacking::new(64).accuracy().unwrap().threshold, 0.95);
    }

    #[test]
    fn inputs_round_trip_through_journal_codec() {
        let b = BinPacking::new(64);
        let items = vec![1.0, 0.5, f64::MIN_POSITIVE, 0.1 + 0.2];
        let text = serde_json::to_string(&b.encode_input(&items).unwrap()).unwrap();
        let decoded = b.decode_input(&serde_json::from_str(&text).unwrap());
        assert_eq!(decoded, Some(items));
    }

    #[test]
    fn decode_rejects_malformed_documents() {
        let b = BinPacking::new(64);
        for text in [
            "null",
            "{}",
            r#"[0.5, "x"]"#,
            // Items `pack` refuses: above capacity, negative, zero.
            "[2.0, 0.5]",
            "[-1.0, 0.5]",
            "[0.0, 0.5]",
        ] {
            let payload: serde_json::Value = serde_json::from_str(text).unwrap();
            assert!(b.decode_input(&payload).is_none(), "accepted {text}");
        }
    }
}
