//! The acceptance test of the selection daemon: a real Table-1 case
//! served over the `intune-wire/2` TCP protocol produces selections —
//! and a full evaluation row — **byte-identical** to the in-process
//! path; a staged shadow artifact with forced disagreement is
//! auto-rejected without ever answering a client; and the whole
//! load → stage → mirror → promote lifecycle works against live traffic.

use intune_core::{Benchmark, FeatureVector};
use intune_daemon::{Daemon, DaemonClient, DaemonOptions, ListenConfig, ShadowPolicy};
use intune_eval::{visit_case, CaseVisitor, SuiteConfig, TestCase};
use intune_exec::{CostCache, Engine};
use intune_learning::pipeline::{evaluate_with_backend, evaluate_with_cache, learn, TunedProgram};
use intune_learning::TwoLevelOptions;
use intune_serve::{ModelArtifact, ServeOptions};

/// The daemon options every test serves under: the primary's fallback
/// is disabled (`drift_threshold: 1.0` can never be strictly exceeded)
/// so remote selections are pure classifier answers, while staged
/// shadows keep a live drift monitor that trips within one micro batch;
/// the promote gate is sized for micro traffic.
fn daemon_options() -> DaemonOptions {
    DaemonOptions {
        serve: ServeOptions {
            drift_threshold: 1.0,
            ..ServeOptions::default()
        },
        shadow_serve: ServeOptions {
            drift_threshold: 0.5,
            min_observations: 4,
            ..ServeOptions::default()
        },
        shadow: ShadowPolicy {
            min_mirrored: 8,
            min_agreement: 0.99,
        },
        inject_faults: false,
        ..DaemonOptions::default()
    }
}

struct DaemonRoundTrip;

impl CaseVisitor for DaemonRoundTrip {
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
        let name = case.name();
        let result = learn(benchmark, train, opts, engine)?;
        let artifact = ModelArtifact::export(benchmark, &result).with_revision(1);

        let daemon = Daemon::bind(artifact.clone(), daemon_options(), &ListenConfig::default())?;
        let addr = daemon.tcp_addr().to_string();
        let handle = daemon.spawn();
        let client = DaemonClient::connect(&addr)?;
        assert_eq!(client.info().benchmark, benchmark.name(), "{name}");

        // 1. Raw selections over the wire match in-process selection
        //    bit for bit (landmark and extraction-cost float).
        let features: Vec<FeatureVector> = test.iter().map(|i| benchmark.extract_all(i)).collect();
        let remote = client.select_batch(&features)?;
        let tuned = TunedProgram::new(benchmark, &result);
        for (i, input) in test.iter().enumerate() {
            let (landmark, cost) = tuned.select(input);
            assert_eq!(remote[i].landmark, landmark, "{name}: input {i}");
            assert_eq!(
                remote[i].extraction_cost.to_bits(),
                cost.to_bits(),
                "{name}: input {i} extraction cost"
            );
        }

        // 2. A whole evaluation row scored through the daemon is
        //    byte-identical to the in-process row.
        let mut local_cache = CostCache::new();
        let local = evaluate_with_cache(benchmark, &result, test, engine, &mut local_cache)?;
        let mut remote_cache = CostCache::new();
        let remote_row =
            evaluate_with_backend(benchmark, &result, test, engine, &mut remote_cache, &client)?;
        assert_eq!(
            local.two_level.to_bits(),
            remote_row.two_level.to_bits(),
            "{name}: two-level speedup"
        );
        assert_eq!(
            local.two_level_fx.to_bits(),
            remote_row.two_level_fx.to_bits(),
            "{name}: two-level + extraction speedup"
        );
        assert_eq!(
            local.two_level_accuracy_pct, remote_row.two_level_accuracy_pct,
            "{name}: accuracy column"
        );

        client.shutdown()?;
        handle.join()?;
        Ok(())
    }
}

#[test]
fn remote_selection_is_byte_identical_to_in_process() {
    let engine = Engine::serial();
    let cfg = SuiteConfig::micro();
    // Two case families are enough here (feature shapes differ); the CI
    // job re-proves sort across two real OS processes.
    for case in [TestCase::Sort2, TestCase::Binpacking] {
        visit_case(case, &cfg, &engine, &mut DaemonRoundTrip)
            .unwrap_or_else(|e| panic!("{}: {e}", case.name()));
    }
}

struct ShadowLifecycle;

impl CaseVisitor for ShadowLifecycle {
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
        let name = case.name();
        let result = learn(benchmark, train, opts, engine)?;
        let artifact = ModelArtifact::export(benchmark, &result).with_revision(1);
        let features: Vec<FeatureVector> = test.iter().map(|i| benchmark.extract_all(i)).collect();

        let daemon = Daemon::bind(artifact.clone(), daemon_options(), &ListenConfig::default())?;
        let addr = daemon.tcp_addr().to_string();
        let handle = daemon.spawn();
        let client = DaemonClient::connect(&addr)?;

        let baseline = client.select_batch(&features)?;

        // A "drifted retrain": same model, but its cluster geometry says
        // every production input is out-of-distribution — the shadow's
        // monitor must trip on the first mirrored batch and the daemon
        // must auto-reject it, never letting it answer a client.
        let dims = artifact.feature_slots();
        let mut drifter = artifact.clone().with_revision(2);
        drifter.centroids = vec![vec![1e12; dims]];
        drifter.dispersion = vec![1e-9];
        client.load_artifact(&drifter)?;

        let during = client.select_batch(&features)?;
        assert_eq!(
            during, baseline,
            "{name}: clients always get primary answers"
        );
        let stats = client.stats()?;
        assert!(
            stats.shadow.is_none(),
            "{name}: drift-tripped shadow must be auto-rejected"
        );
        assert_eq!(stats.shadow_rejections, 1, "{name}");
        assert_eq!(stats.revision, 1, "{name}: primary untouched");
        let err = client.promote().unwrap_err();
        assert!(err.to_string().contains("no shadow"), "{name}: {err}");

        // A faithful retrain (identical model, bumped revision) mirrors
        // with full agreement and promotes cleanly.
        client.load_artifact(&artifact.clone().with_revision(3))?;
        client.select_batch(&features)?;
        let shadow = client.stats()?.shadow.expect("staged");
        assert_eq!(shadow.agreement_rate, 1.0, "{name}");
        assert_eq!(client.promote()?, 3, "{name}");
        let after = client.select_batch(&features)?;
        assert_eq!(
            after, baseline,
            "{name}: promoted identical model serves identically"
        );

        client.shutdown()?;
        handle.join()?;
        Ok(())
    }
}

#[test]
fn forced_disagreement_shadow_is_auto_rejected_and_faithful_shadow_promotes() {
    let engine = Engine::serial();
    visit_case(
        TestCase::Sort2,
        &SuiteConfig::micro(),
        &engine,
        &mut ShadowLifecycle,
    )
    .unwrap();
}
