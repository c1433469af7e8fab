//! The acceptance test of the serving subsystem: an artifact saved from
//! `learn()` on each of the eight Table-1 cases reloads (from disk) and
//! produces byte-identical selections on a fresh corpus, while corrupted
//! and wrong-schema-version artifacts are rejected with a typed
//! `Error::Artifact`.

use intune_core::{codec, Benchmark, Error};
use intune_eval::{visit_case, CaseVisitor, SuiteConfig, TestCase};
use intune_exec::Engine;
use intune_learning::pipeline::{learn, TunedProgram};
use intune_learning::TwoLevelOptions;
use intune_serve::{
    ModelArtifact, SelectorService, ServeOptions, ARTIFACT_SCHEMA, ARTIFACT_VERSION,
};
use std::path::PathBuf;

fn micro() -> SuiteConfig {
    SuiteConfig {
        train: 16,
        test: 8,
        clusters: 3,
        ea_population: 6,
        ea_generations: 3,
        folds: 2,
        sort_n: (64, 256),
        cluster_n: (60, 120),
        pack_n: (60, 150),
        svd_n: (8, 12),
        pde2_sizes: vec![7],
        pde3_sizes: vec![3],
        ..SuiteConfig::ci()
    }
}

fn tmp_dir(tag: &str) -> intune_core::TempDir {
    let dir = intune_core::unique_temp_dir(&format!("roundtrip-{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Trains a case, ships its artifact through disk, and checks the loaded
/// model selects identically to the in-process one on the held-out
/// (fresh) corpus — through both `TunedProgram` and `SelectorService`.
struct RoundTrip {
    dir: PathBuf,
}

impl CaseVisitor for RoundTrip {
    type Output = ();

    fn visit<B: Benchmark + Sync>(
        &mut self,
        case: TestCase,
        benchmark: &B,
        train: &[B::Input],
        test: &[B::Input],
        opts: &TwoLevelOptions,
        engine: &Engine,
    ) -> intune_core::Result<()>
    where
        B::Input: Sync,
    {
        let result = learn(benchmark, train, opts, engine)?;
        let artifact = ModelArtifact::export(benchmark, &result);
        let path = self.dir.join(format!("{}.model.json", case.name()));
        artifact.save(&path)?;
        let loaded = ModelArtifact::load(&path)?;
        assert_eq!(loaded, artifact, "{}: field-level equality", case.name());
        assert_eq!(
            loaded.to_document(),
            artifact.to_document(),
            "{}: canonical documents are byte-identical",
            case.name()
        );

        let trained = TunedProgram::new(benchmark, &result);
        let served = loaded.tuned(benchmark)?;
        let service = SelectorService::new(benchmark, loaded, ServeOptions::default())?;
        let batch = service.select_batch(test);
        for (i, input) in test.iter().enumerate() {
            let expect = trained.select(input);
            assert_eq!(
                served.select(input),
                expect,
                "{}: TunedProgram from loaded artifact diverged on input {i}",
                case.name()
            );
            assert_eq!(
                (batch[i].landmark, batch[i].extraction_cost),
                expect,
                "{}: SelectorService diverged on input {i}",
                case.name()
            );
        }
        Ok(())
    }
}

#[test]
fn all_eight_cases_round_trip_byte_identically() {
    let dir = tmp_dir("cases");
    let engine = Engine::serial();
    let cfg = micro();
    for case in TestCase::all() {
        let mut visitor = RoundTrip {
            dir: dir.to_path_buf(),
        };
        visit_case(case, &cfg, &engine, &mut visitor)
            .unwrap_or_else(|e| panic!("{}: {e}", case.name()));
    }
}

/// A visitor that exports one case's artifact document for tamper tests.
struct ExportDoc;

impl CaseVisitor for ExportDoc {
    type Output = String;

    fn visit<B: Benchmark + Sync>(
        &mut self,
        _case: TestCase,
        benchmark: &B,
        train: &[B::Input],
        _test: &[B::Input],
        opts: &TwoLevelOptions,
        engine: &Engine,
    ) -> intune_core::Result<String>
    where
        B::Input: Sync,
    {
        let result = learn(benchmark, train, opts, engine)?;
        Ok(ModelArtifact::export(benchmark, &result).to_document())
    }
}

#[test]
fn corrupted_and_stale_artifacts_are_rejected_with_typed_errors() {
    let engine = Engine::serial();
    let text = visit_case(TestCase::Sort2, &micro(), &engine, &mut ExportDoc).unwrap();

    // Corrupted payload byte → checksum mismatch.
    let tampered = text.replacen("\"landmarks\"", "\"landmorks\"", 1);
    assert_ne!(tampered, text);
    let err = ModelArtifact::from_document(&tampered).unwrap_err();
    assert!(matches!(err, Error::Artifact { .. }), "{err:?}");
    assert!(err.to_string().contains("checksum"), "{err}");

    // Old/foreign schema versions → typed rejection, never a parse.
    let payload = codec::decode_document(&text, ARTIFACT_SCHEMA, ARTIFACT_VERSION).unwrap();
    for stale in [0, ARTIFACT_VERSION + 1] {
        let doc = codec::encode_document(ARTIFACT_SCHEMA, stale, payload.clone());
        let err = ModelArtifact::from_document(&doc).unwrap_err();
        assert!(matches!(err, Error::Artifact { .. }), "{err:?}");
        assert!(err.to_string().contains("version"), "{err}");
    }

    // Truncation → typed rejection.
    let err = ModelArtifact::from_document(&text[..text.len() / 2]).unwrap_err();
    assert!(matches!(err, Error::Artifact { .. }), "{err:?}");
}
