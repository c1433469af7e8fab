//! The versioned, checksummed model artifact — the train/deploy boundary.
//!
//! Everything the two-level learner ships to production (Figure 3 of the
//! paper: the input classifier plus the landmark configurations, here
//! extended with the training-corpus cluster geometry that powers the
//! serving runtime's drift monitor) is captured in one [`ModelArtifact`]
//! that saves to and loads from a checksummed JSON document. An artifact
//! saved from `learn()` reloads in a fresh process and produces
//! byte-identical selections.

use intune_core::{codec, Benchmark, Configuration, Error, FeatureDef, Result};
use intune_learning::classifiers::Classifier;
use intune_learning::oracles::static_oracle;
use intune_learning::pipeline::{TunedProgram, TwoLevelResult};
use intune_ml::ZScore;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Envelope schema name of persisted model artifacts.
pub const ARTIFACT_SCHEMA: &str = "intune-model-artifact";
/// Current artifact schema version (written by [`ModelArtifact::save`]).
pub const ARTIFACT_VERSION: u32 = 2;
/// Oldest artifact schema version this build still reads. Version-1
/// payloads are migrated forward through [`intune_core::codec`]
/// (`migrations()`); anything older (or newer than
/// [`ARTIFACT_VERSION`]) is a typed [`Error::Artifact`].
pub const ARTIFACT_MIN_VERSION: u32 = 1;

/// Satisfaction threshold H2 used when electing the fallback landmark at
/// export time (the paper's 95 %).
const FALLBACK_SATISFACTION: f64 = 0.95;

/// The deployable model: everything needed to select a configuration for
/// a fresh input without the training corpus or the learner.
///
/// See `crates/serve/README.md` for the on-disk format specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelArtifact {
    /// `Benchmark::name()` of the program this model was trained for;
    /// checked at load/deploy time.
    pub benchmark: String,
    /// The benchmark's feature declaration, pinned so a drifted binary
    /// cannot feed the classifier a differently-shaped feature space.
    pub feature_defs: Vec<FeatureDef>,
    /// Z-score normalizer fitted on the dense training feature matrix.
    pub normalizer: ZScore,
    /// The landmark configurations (cluster representatives, autotuned).
    pub landmarks: Vec<Configuration>,
    /// The level-2 production input classifier.
    pub classifier: Classifier,
    /// Training-corpus cluster centroids in normalized feature space —
    /// the one-level geometry the drift monitor measures distance to.
    pub centroids: Vec<Vec<f64>>,
    /// Per-cluster dispersion: the maximum normalized distance of any
    /// training member to its centroid (the cluster's training radius).
    /// An incoming input farther than `radius_factor ×` this from every
    /// centroid is counted out-of-distribution.
    pub dispersion: Vec<f64>,
    /// The safe/fallback landmark (the training static oracle): what the
    /// serving runtime dispatches when drift exceeds its threshold.
    pub fallback: usize,
    /// The benchmark's accuracy threshold H1, if variable-accuracy.
    pub accuracy_threshold: Option<f64>,
    /// Rollout revision counter (schema v2). Each retrain/redeploy of the
    /// same benchmark bumps this; the serve daemon reports it so shadow
    /// promotions are attributable. Version-1 artifacts migrate to `0`.
    pub revision: u64,
    /// Number of training inputs behind the model (schema v2; `0` =
    /// unknown, the version-1 migration default).
    pub trained_inputs: u64,
}

impl ModelArtifact {
    /// Exports the deployable artifact from a learning result.
    ///
    /// # Panics
    /// Panics if `result` shapes are inconsistent (cannot happen for a
    /// result produced by `learn`).
    pub fn export<B: Benchmark>(benchmark: &B, result: &TwoLevelResult) -> Self {
        let level1 = &result.level1;
        let threshold = benchmark.accuracy().map(|a| a.threshold);
        // Per-cluster training radius in normalized feature space.
        let mut dispersion = vec![0.0f64; level1.centroids.len()];
        for (fv, &cluster) in level1.features.iter().zip(&level1.cluster_labels) {
            let z = level1.normalizer.transform(&fv.dense());
            let d = distance(&z, &level1.centroids[cluster]);
            if d > dispersion[cluster] {
                dispersion[cluster] = d;
            }
        }
        ModelArtifact {
            benchmark: benchmark.name().to_string(),
            feature_defs: benchmark.properties(),
            normalizer: level1.normalizer.clone(),
            landmarks: level1.landmarks.clone(),
            classifier: result.production().clone(),
            centroids: level1.centroids.clone(),
            dispersion,
            fallback: static_oracle(&level1.perf, threshold, FALLBACK_SATISFACTION),
            accuracy_threshold: threshold,
            revision: 0,
            trained_inputs: result.stats.inputs as u64,
        }
    }

    /// Returns the artifact stamped with a rollout revision (builder
    /// style; [`ModelArtifact::export`] starts at revision 0).
    pub fn with_revision(mut self, revision: u64) -> Self {
        self.revision = revision;
        self
    }

    /// Serializes into the checksummed envelope document (text form).
    pub fn to_document(&self) -> String {
        codec::encode_document(
            ARTIFACT_SCHEMA,
            ARTIFACT_VERSION,
            serde_json::to_value(self),
        )
    }

    /// The payload migration chain accepted by [`ModelArtifact::from_document`]:
    /// `migrations()[i]` upgrades schema version `ARTIFACT_MIN_VERSION + i`
    /// to the next one.
    ///
    /// **v1 → v2**: adds the rollout metadata fields — `revision: 0`
    /// (pre-rollout artifacts carry no revision history) and
    /// `trained_inputs: 0` (unknown; v1 never recorded corpus size). All
    /// v1 fields are kept bit-for-bit, so a migrated artifact selects
    /// identically to the v1 reader's.
    pub fn migrations() -> &'static [codec::Migration] {
        fn v1_to_v2(payload: serde_json::Value) -> std::result::Result<serde_json::Value, String> {
            let serde_json::Value::Object(mut fields) = payload else {
                return Err("artifact payload is not an object".to_string());
            };
            for (name, default) in [("revision", 0u64), ("trained_inputs", 0u64)] {
                if !fields.iter().any(|(k, _)| k == name) {
                    fields.push((name.to_string(), serde_json::Value::UInt(default)));
                }
            }
            Ok(serde_json::Value::Object(fields))
        }
        &[v1_to_v2]
    }

    /// Parses an envelope document produced by [`ModelArtifact::to_document`],
    /// migrating payloads of older schema versions (≥
    /// [`ARTIFACT_MIN_VERSION`]) forward.
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] on malformed JSON, schema mismatch, a
    /// version outside the supported window, checksum failure, or a
    /// payload shape mismatch.
    pub fn from_document(text: &str) -> Result<Self> {
        let payload = codec::decode_document_migrating(
            text,
            ARTIFACT_SCHEMA,
            ARTIFACT_VERSION,
            Self::migrations(),
        )?;
        serde_json::from_value(&payload)
            .map_err(|e| Error::artifact(format!("malformed artifact payload: {e}")))
    }

    /// Saves the artifact to `path` (the file holds exactly
    /// [`ModelArtifact::to_document`]).
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] when the file cannot be written.
    pub fn save(&self, path: &Path) -> Result<()> {
        std::fs::write(path, self.to_document())
            .map_err(|e| Error::artifact(format!("cannot write {}: {e}", path.display())))
    }

    /// Loads an artifact persisted by [`ModelArtifact::save`].
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] on IO failure or any
    /// [`ModelArtifact::from_document`] check.
    pub fn load(path: &Path) -> Result<Self> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| Error::artifact(format!("cannot read {}: {e}", path.display())))?;
        Self::from_document(&text)
    }

    /// Total number of feature slots `M = Σ levels` declared by the
    /// artifact's pinned feature definitions.
    pub fn feature_slots(&self) -> usize {
        self.feature_defs.iter().map(|d| d.levels).sum()
    }

    /// Validates the artifact's *internal* consistency — everything that
    /// can be checked without the benchmark: landmark presence, fallback
    /// range, normalizer / centroid / classifier dimensions against the
    /// pinned feature declaration. This is the check a benchmark-agnostic
    /// consumer (the serve daemon, which classifies pre-extracted feature
    /// vectors) runs before serving.
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] naming the first inconsistency.
    pub fn validate_shape(&self) -> Result<()> {
        if self.landmarks.is_empty() {
            return Err(Error::artifact("artifact has no landmarks"));
        }
        let total_features = self.feature_slots();
        if self.normalizer.dims() != total_features {
            return Err(Error::artifact(format!(
                "normalizer covers {} feature slots, artifact declares {}",
                self.normalizer.dims(),
                total_features
            )));
        }
        if self.centroids.len() != self.dispersion.len() {
            return Err(Error::artifact(format!(
                "{} centroids but {} dispersion entries",
                self.centroids.len(),
                self.dispersion.len()
            )));
        }
        if self.centroids.is_empty() {
            return Err(Error::artifact("artifact has no cluster centroids"));
        }
        if let Some(c) = self.centroids.iter().find(|c| c.len() != total_features) {
            return Err(Error::artifact(format!(
                "centroid has {} dimensions, feature space has {total_features}",
                c.len()
            )));
        }
        if self.fallback >= self.landmarks.len() {
            return Err(Error::artifact(format!(
                "fallback landmark {} out of range ({} landmarks)",
                self.fallback,
                self.landmarks.len()
            )));
        }
        let props = self.classifier.feature_set().num_properties();
        if props != self.feature_defs.len() {
            return Err(Error::artifact(format!(
                "classifier spans {props} properties, artifact declares {}",
                self.feature_defs.len()
            )));
        }
        Ok(())
    }

    /// Validates the artifact against the benchmark it is about to serve:
    /// [`ModelArtifact::validate_shape`] plus name, feature-declaration
    /// equality, and landmark well-formedness in the benchmark's space.
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] naming the first mismatch.
    pub fn validate<B: Benchmark>(&self, benchmark: &B) -> Result<()> {
        if self.benchmark != benchmark.name() {
            return Err(Error::artifact(format!(
                "artifact was trained for `{}`, not `{}`",
                self.benchmark,
                benchmark.name()
            )));
        }
        let defs = benchmark.properties();
        if self.feature_defs != defs {
            return Err(Error::artifact(format!(
                "feature declaration changed: artifact has {:?}, benchmark declares {:?}",
                self.feature_defs, defs
            )));
        }
        self.validate_shape()?;
        let space = benchmark.space();
        for (i, lm) in self.landmarks.iter().enumerate() {
            space.validate(lm).map_err(|e| {
                Error::artifact(format!("landmark {i} does not fit the space: {e}"))
            })?;
        }
        Ok(())
    }

    /// Builds the in-process deployment object ([`TunedProgram`]) from the
    /// artifact, validating it against `benchmark` first.
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] when validation fails.
    pub fn tuned<'b, B: Benchmark>(&self, benchmark: &'b B) -> Result<TunedProgram<'b, B>> {
        self.validate(benchmark)?;
        Ok(TunedProgram::from_parts(
            benchmark,
            self.landmarks.clone(),
            self.classifier.clone(),
        ))
    }
}

/// Euclidean distance between two equal-length vectors.
pub(crate) fn distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{synthetic_corpus, train_synthetic, Synthetic};

    #[test]
    fn export_save_load_round_trips_bit_identically() {
        let b = Synthetic;
        let result = train_synthetic();
        let artifact = ModelArtifact::export(&b, &result);
        artifact.validate(&b).unwrap();

        let dir = intune_core::unique_temp_dir("artifact-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("synthetic.model.json");
        artifact.save(&path).unwrap();
        let loaded = ModelArtifact::load(&path).unwrap();
        assert_eq!(loaded, artifact);
        // Saving the loaded artifact reproduces the file byte for byte.
        assert_eq!(loaded.to_document(), artifact.to_document());
    }

    #[test]
    fn loaded_artifact_selects_identically_on_fresh_inputs() {
        let b = Synthetic;
        let result = train_synthetic();
        let artifact = ModelArtifact::export(&b, &result);
        let reloaded = ModelArtifact::from_document(&artifact.to_document()).unwrap();

        let trained = TunedProgram::new(&b, &result);
        let served = reloaded.tuned(&b).unwrap();
        for input in synthetic_corpus(40, 9) {
            assert_eq!(trained.select(&input), served.select(&input));
        }
    }

    #[test]
    fn dispersion_covers_every_training_member() {
        let b = Synthetic;
        let result = train_synthetic();
        let artifact = ModelArtifact::export(&b, &result);
        for (fv, &cluster) in result
            .level1
            .features
            .iter()
            .zip(&result.level1.cluster_labels)
        {
            let z = artifact.normalizer.transform(&fv.dense());
            let d = distance(&z, &artifact.centroids[cluster]);
            assert!(d <= artifact.dispersion[cluster] + 1e-12);
        }
    }

    #[test]
    fn corrupted_payload_is_rejected() {
        let b = Synthetic;
        let artifact = ModelArtifact::export(&b, &train_synthetic());
        let text = artifact.to_document();
        let tampered = text.replacen("\"fallback\"", "\"fallbacc\"", 1);
        assert_ne!(tampered, text);
        let err = ModelArtifact::from_document(&tampered).unwrap_err();
        assert!(matches!(err, Error::Artifact { .. }), "{err:?}");
    }

    /// Re-encodes an artifact as a faithful version-1 document: the v2
    /// fields stripped from the payload, envelope stamped `version: 1`.
    fn as_v1_document(artifact: &ModelArtifact) -> String {
        let serde_json::Value::Object(fields) = serde_json::to_value(artifact) else {
            panic!("artifact payload is an object");
        };
        let v1 = serde_json::Value::Object(
            fields
                .into_iter()
                .filter(|(k, _)| k != "revision" && k != "trained_inputs")
                .collect(),
        );
        codec::encode_document(ARTIFACT_SCHEMA, ARTIFACT_VERSION - 1, v1)
    }

    #[test]
    fn version_1_documents_migrate_with_defaulted_rollout_fields() {
        let b = Synthetic;
        let mut artifact = ModelArtifact::export(&b, &train_synthetic());
        artifact.revision = 7;
        artifact.trained_inputs = 60;
        let migrated = ModelArtifact::from_document(&as_v1_document(&artifact)).unwrap();
        assert_eq!(migrated.revision, 0, "v1 artifacts predate revisions");
        assert_eq!(migrated.trained_inputs, 0, "v1 never recorded corpus size");
        // Everything the v1 schema carried survives bit-for-bit.
        let expected = ModelArtifact {
            revision: 0,
            trained_inputs: 0,
            ..artifact
        };
        assert_eq!(migrated, expected);
        migrated.validate(&b).unwrap();
    }

    #[test]
    fn versions_outside_the_window_are_rejected() {
        let b = Synthetic;
        let artifact = ModelArtifact::export(&b, &train_synthetic());
        for stale in [0, ARTIFACT_VERSION + 1] {
            let doc =
                codec::encode_document(ARTIFACT_SCHEMA, stale, serde_json::to_value(&artifact));
            let err = ModelArtifact::from_document(&doc).unwrap_err();
            assert!(err.to_string().contains("version"), "{stale}: {err}");
        }
    }

    #[test]
    fn validate_rejects_wrong_benchmark_and_shapes() {
        let b = Synthetic;
        let mut artifact = ModelArtifact::export(&b, &train_synthetic());
        artifact.validate(&b).unwrap();

        let mut wrong_name = artifact.clone();
        wrong_name.benchmark = "other".into();
        assert!(wrong_name.validate(&b).is_err());

        let mut bad_fallback = artifact.clone();
        bad_fallback.fallback = 99;
        assert!(bad_fallback.validate(&b).is_err());

        let mut bad_centroid = artifact.clone();
        bad_centroid.centroids[0].pop();
        assert!(bad_centroid.validate(&b).is_err());

        artifact.landmarks.clear();
        assert!(artifact.validate(&b).is_err());
    }
}
