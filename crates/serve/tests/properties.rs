//! Property tests for artifact persistence: randomly-built models
//! round-trip through the checksummed document format exactly, and
//! tampered documents never load.

use intune_core::{ConfigSpace, Configuration, FeatureDef};
use intune_learning::classifiers::{train_incremental, Classifier};
use intune_ml::{DecisionTree, TreeOptions, ZScore};
use intune_serve::ModelArtifact;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn space() -> ConfigSpace {
    ConfigSpace::builder()
        .switch("alg", 4)
        .int("cutoff", 0, 4096)
        .log_int("block", 1, 65536)
        .float("relax", 0.25, 2.0)
        .build()
}

/// Builds a structurally-valid random artifact: random landmarks from a
/// mixed space, a normalizer/centroid geometry fitted on random data, and
/// one of the three classifier kinds.
fn random_artifact(seed: u64, landmarks: usize, kind: u8) -> ModelArtifact {
    let mut rng = StdRng::seed_from_u64(seed);
    let space = space();
    let defs = vec![FeatureDef::new("a", 2), FeatureDef::new("b", 1)];
    let dims = 3; // 2 + 1 levels
    let rows: Vec<Vec<f64>> = (0..16)
        .map(|_| (0..dims).map(|_| rng.gen_range(-5.0..5.0)).collect())
        .collect();
    let labels: Vec<usize> = (0..16).map(|i| i % landmarks).collect();
    let classifier = match kind % 3 {
        0 => Classifier::MaxApriori {
            class: rng.gen_range(0..landmarks),
            num_properties: defs.len(),
        },
        1 => Classifier::Tree {
            set: intune_core::FeatureSet::from_choices(vec![Some(1), Some(0)]),
            tree: DecisionTree::fit_plain(
                &rows.iter().map(|r| r[..2].to_vec()).collect::<Vec<_>>(),
                &labels,
                landmarks,
                TreeOptions::default(),
            ),
        },
        _ => train_incremental(
            intune_core::FeatureSet::from_choices(vec![Some(0), Some(0)]),
            &rows.iter().map(|r| r[..2].to_vec()).collect::<Vec<_>>(),
            &labels,
            landmarks,
            &[1.0, 2.0],
            4,
            0.8,
        ),
    };
    let centroids: Vec<Vec<f64>> = (0..landmarks)
        .map(|_| (0..dims).map(|_| rng.gen_range(-2.0..2.0)).collect())
        .collect();
    ModelArtifact {
        benchmark: "property".to_string(),
        feature_defs: defs,
        normalizer: ZScore::fit(&rows),
        landmarks: (0..landmarks)
            .map(|_| space.random(&mut rng))
            .collect::<Vec<Configuration>>(),
        classifier,
        centroids,
        dispersion: (0..landmarks).map(|_| rng.gen_range(0.0..4.0)).collect(),
        fallback: rng.gen_range(0..landmarks),
        accuracy_threshold: if rng.gen::<bool>() {
            Some(rng.gen_range(0.0..1.0))
        } else {
            None
        },
        revision: rng.gen_range(0..1000),
        trained_inputs: rng.gen_range(0..100_000),
    }
}

/// A fully-extracted random feature vector shaped for `artifact`.
fn random_vector(artifact: &ModelArtifact, rng: &mut StdRng) -> intune_core::FeatureVector {
    let mut fv = intune_core::FeatureVector::empty(&artifact.feature_defs);
    for (p, def) in artifact.feature_defs.iter().enumerate() {
        for level in 0..def.levels {
            fv.insert(
                intune_core::FeatureId { property: p, level },
                intune_core::FeatureSample::new(
                    rng.gen_range(-50.0..50.0),
                    rng.gen_range(0.0..5.0),
                ),
            )
            .unwrap();
        }
    }
    fv
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The fallback policy can never route a request to a landmark the
    /// artifact does not carry: for any structurally-valid artifact and
    /// any input stream — including drift storms that engage fallback,
    /// resets, and re-trips — every selection (fallen-back or not) indexes
    /// into the artifact's landmark list.
    #[test]
    fn fallback_never_selects_a_landmark_absent_from_the_artifact(
        seed in 0u64..100_000, landmarks in 1usize..6, kind in 0u8..3,
        batches in 1usize..5,
    ) {
        use intune_serve::{ServeOptions, VectorService};
        let artifact = random_artifact(seed, landmarks, kind);
        let count = artifact.landmarks.len();
        // A drift storm: every probe is OOD, the threshold trips as soon
        // as the observation floor is met.
        let svc = VectorService::new(artifact, ServeOptions {
            radius_factor: -1.0,
            drift_threshold: 0.1,
            min_observations: 4,
            ..ServeOptions::default()
        }).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfa11bac);
        for round in 0..batches {
            let vectors: Vec<_> = (0..8)
                .map(|_| random_vector(svc.artifact(), &mut rng))
                .collect();
            for s in svc.select_vector_batch(&vectors).unwrap() {
                prop_assert!(
                    s.landmark < count,
                    "round {}: landmark {} out of range ({count})", round, s.landmark
                );
                if s.fell_back {
                    prop_assert_eq!(s.landmark, svc.artifact().fallback);
                }
            }
            if round == batches / 2 {
                svc.reset_drift();
            }
        }
    }

    /// save → load reproduces the artifact exactly (field equality and
    /// canonical-document byte equality) for every classifier kind and
    /// random model geometry.
    #[test]
    fn artifact_round_trips_exactly(
        seed in 0u64..100_000, landmarks in 1usize..6, kind in 0u8..3,
    ) {
        let artifact = random_artifact(seed, landmarks, kind);
        let text = artifact.to_document();
        let loaded = ModelArtifact::from_document(&text).unwrap();
        prop_assert_eq!(&loaded, &artifact);
        prop_assert_eq!(loaded.to_document(), text);
    }

    /// Any single-byte corruption of the payload region either fails to
    /// parse or fails the checksum — it never yields a loaded artifact.
    #[test]
    fn corrupted_documents_never_load(
        seed in 0u64..100_000, victim in 0usize..10_000,
    ) {
        let artifact = random_artifact(seed, 3, (seed % 3) as u8);
        let text = artifact.to_document();
        // Corrupt one byte inside the payload (skip the envelope header
        // so the checksum still governs) by rotating a digit/letter.
        let payload_at = text.find("\"payload\"").unwrap();
        let bytes = text.as_bytes();
        let candidates: Vec<usize> = (payload_at..bytes.len())
            .filter(|&i| bytes[i].is_ascii_alphanumeric())
            .collect();
        let at = candidates[victim % candidates.len()];
        let mut corrupted = text.clone().into_bytes();
        corrupted[at] = match corrupted[at] {
            b'9' => b'8',
            b'z' | b'Z' => b'a',
            c => c + 1,
        };
        let corrupted = String::from_utf8(corrupted).unwrap();
        if corrupted != text {
            // A corrupted byte must be rejected — except in the one
            // honest escape hatch: a digit flip that still parses to the
            // *identical* value (e.g. two decimal strings rounding to
            // the same f64), which re-canonicalizes to the original
            // document and is therefore semantically untampered.
            if let Ok(loaded) = ModelArtifact::from_document(&corrupted) {
                prop_assert_eq!(
                    loaded.to_document(),
                    text,
                    "semantically-different corruption at byte {} loaded",
                    at
                );
            }
        }
    }
}
