//! The benchmark-bound serving runtime.
//!
//! A [`SelectorService`] answers selection requests for a benchmark's
//! own inputs: acquire the input's features, classify, and return the
//! landmark to run. It is a thin layer over the [`VectorService`] core,
//! which owns classification, the drift monitor and the fallback policy.
//! Its only logic of its own is per-input feature acquisition: a
//! drift-probed input is extracted in full (`extract_all`), every other
//! input lazily, paying only for the features the classifier reads (the
//! paper's deployment path).
//!
//! The shared types live here too: [`ServeOptions`] (probe cadence and
//! drift thresholds), [`Selection`] and [`ServeStats`].

use crate::artifact::ModelArtifact;
use crate::vector::VectorService;
use intune_core::{Benchmark, Configuration, ExecutionReport, Result};
use intune_obs::EventLog;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Tunables of the serving runtime.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Drift probe cadence: the full feature vector (needed for the
    /// centroid distance) is extracted for every `probe_every`-th request
    /// of a batch; selection itself always pays only the classifier's
    /// subset. `1` probes everything (deterministic counters for benches).
    pub probe_every: usize,
    /// An input is out-of-distribution when its distance to every
    /// centroid exceeds `radius_factor ×` that cluster's training radius.
    pub radius_factor: f64,
    /// OOD fraction (among probed requests) beyond which the fallback
    /// policy engages.
    pub drift_threshold: f64,
    /// Minimum probed requests before the fallback policy may engage.
    pub min_observations: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            probe_every: 1,
            radius_factor: 1.5,
            drift_threshold: 0.5,
            min_observations: 32,
        }
    }
}

/// One answered selection request. Serializable: selections travel over
/// the daemon's wire protocol.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Selection {
    /// Index of the chosen landmark in the artifact's landmark list.
    pub landmark: usize,
    /// Feature-extraction cost actually paid by the classifier.
    pub extraction_cost: f64,
    /// Whether the drift probe flagged this input as out-of-distribution
    /// (`false` for unprobed requests).
    pub out_of_distribution: bool,
    /// Whether the fallback policy overrode the classifier's choice.
    pub fell_back: bool,
}

/// Monotone counters of a serving runtime ([`VectorService`], or a
/// [`SelectorService`] over one). Serializable: the daemon reports them
/// over the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Selection requests answered.
    pub requests: u64,
    /// Requests whose drift probe ran.
    pub probed: u64,
    /// Probed requests flagged out-of-distribution.
    pub ood: u64,
    /// Requests answered with the fallback landmark.
    pub fallbacks: u64,
    /// Batches answered (single-request calls are not batches).
    pub batches: u64,
    /// Largest batch seen.
    pub max_batch: u64,
}

impl ServeStats {
    /// OOD fraction among probed requests (0 when nothing probed).
    pub fn drift_fraction(&self) -> f64 {
        intune_exec::hit_rate(self.ood, self.probed)
    }
}

impl std::fmt::Display for ServeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} requests ({} batches, max {}), {}/{} probed OOD ({:.1}%), {} fallbacks",
            self.requests,
            self.batches,
            self.max_batch,
            self.ood,
            self.probed,
            100.0 * self.drift_fraction(),
            self.fallbacks
        )
    }
}

/// The serving runtime for a benchmark's inputs: a [`VectorService`]
/// whose features come from the benchmark.
///
/// The artifact is immutable after construction and all counters are
/// atomics, so `&self` methods are safe to call from multiple threads.
#[derive(Debug)]
pub struct SelectorService<'b, B: Benchmark> {
    benchmark: &'b B,
    core: VectorService,
}

impl<'b, B: Benchmark> SelectorService<'b, B> {
    /// Builds a service from a loaded artifact, validating it against the
    /// benchmark first.
    ///
    /// # Errors
    /// Returns [`intune_core::Error::Artifact`] when the artifact does
    /// not fit the benchmark.
    pub fn new(benchmark: &'b B, artifact: ModelArtifact, opts: ServeOptions) -> Result<Self> {
        artifact.validate(benchmark)?;
        Ok(SelectorService {
            benchmark,
            core: VectorService::new(artifact, opts)?,
        })
    }

    /// Attaches (or detaches) a lifecycle event log; see
    /// [`VectorService::set_events`].
    pub fn set_events(&mut self, events: Option<Arc<EventLog>>) {
        self.core.set_events(events);
    }

    /// The artifact being served.
    pub fn artifact(&self) -> &ModelArtifact {
        self.core.artifact()
    }

    /// The landmark configurations being dispatched to.
    pub fn landmarks(&self) -> &[Configuration] {
        self.core.landmarks()
    }

    /// Whether the fallback policy is currently engaged.
    pub fn fallback_active(&self) -> bool {
        self.core.fallback_active()
    }

    /// The current out-of-distribution fraction among probed requests;
    /// see [`VectorService::trip_rate`].
    pub fn trip_rate(&self) -> f64 {
        self.core.trip_rate()
    }

    /// Resets the drift monitor; see [`VectorService::reset_drift`].
    pub fn reset_drift(&self) {
        self.core.reset_drift();
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServeStats {
        self.core.stats()
    }

    /// Acquires one input's features and classifies it. A probed request
    /// needs the full feature vector anyway (for the centroid distance),
    /// so it extracts once and feeds both the classifier (its subset) and
    /// the probe — the reported cost stays the subset's, because the
    /// probe is monitoring overhead. An unprobed request extracts only
    /// what the classifier reads.
    fn classify(&self, input: &B::Input, probe: bool) -> Selection {
        if probe {
            let fv = self.benchmark.extract_all(input);
            let z = self.core.artifact().normalizer.transform(&fv.dense());
            self.core.classify_vector(&fv, Some(&z))
        } else {
            self.core
                .classify_lazy(|property, level| self.benchmark.extract(property, level, input))
        }
    }

    /// Answers one selection request, updating the drift monitor.
    pub fn select(&self, input: &B::Input) -> Selection {
        self.core
            .answer(1, false, |_, _| self.classify(input, true))[0]
    }

    /// Answers a batch of selection requests on the calling thread. The
    /// drift/fallback state is snapshotted at batch entry and counter
    /// updates are merged at batch exit, so a drift trip engages fallback
    /// from the *next* batch on.
    pub fn select_batch(&self, inputs: &[B::Input]) -> Vec<Selection> {
        self.core.answer(inputs.len(), true, |i, probe| {
            self.classify(&inputs[i], probe.is_some())
        })
    }

    /// Classifies and executes: runs the selected landmark on the input.
    pub fn run(&self, input: &B::Input) -> (ExecutionReport, Selection) {
        let selection = self.select(input);
        (
            self.benchmark
                .run(&self.artifact().landmarks[selection.landmark], input),
            selection,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{synthetic_corpus, train_synthetic, Synthetic};

    fn service(opts: ServeOptions) -> SelectorService<'static, Synthetic> {
        let artifact = ModelArtifact::export(&Synthetic, &train_synthetic());
        SelectorService::new(&Synthetic, artifact, opts).unwrap()
    }

    #[test]
    fn batched_selection_matches_sequential() {
        let fresh = synthetic_corpus(64, 21);
        let serial = service(ServeOptions::default());
        let expected: Vec<Selection> = fresh.iter().map(|i| serial.select(i)).collect();
        let svc = service(ServeOptions::default());
        assert_eq!(svc.select_batch(&fresh), expected);
        assert_eq!(svc.stats().requests, 64);
        assert_eq!(svc.stats().batches, 1);
        assert_eq!(svc.stats().max_batch, 64);
    }

    #[test]
    fn in_distribution_inputs_do_not_trip_the_monitor() {
        let svc = service(ServeOptions {
            min_observations: 8,
            ..ServeOptions::default()
        });
        // Same generator family as training: everything in distribution.
        svc.select_batch(&synthetic_corpus(64, 33));
        let stats = svc.stats();
        assert_eq!(stats.ood, 0, "{stats}");
        assert!(!svc.fallback_active());
        assert_eq!(stats.fallbacks, 0);
    }

    #[test]
    fn drift_trips_fallback_at_the_next_batch() {
        // A negative radius bound forces every input OOD (distances are
        // ≥ 0) — a synthetic drift storm.
        let svc = service(ServeOptions {
            radius_factor: -1.0,
            min_observations: 8,
            drift_threshold: 0.5,
            ..ServeOptions::default()
        });
        let inputs = synthetic_corpus(16, 5);
        let first = svc.select_batch(&inputs);
        assert!(first.iter().all(|s| s.out_of_distribution));
        assert!(
            first.iter().all(|s| !s.fell_back),
            "fallback engages at batch boundaries, not mid-batch"
        );
        assert!(svc.fallback_active());
        let second = svc.select_batch(&inputs);
        assert!(second.iter().all(|s| s.fell_back));
        assert!(second.iter().all(|s| s.landmark == svc.artifact().fallback));
        assert_eq!(svc.stats().fallbacks, 16);

        svc.reset_drift();
        assert!(!svc.fallback_active());
        let third = svc.select_batch(&inputs);
        assert!(third.iter().all(|s| !s.fell_back), "monitor was reset");
    }

    #[test]
    fn drift_fraction_exactly_at_threshold_keeps_fallback_off() {
        // radius_factor = -1 makes every probe OOD, so the observed
        // fraction is exactly 1.0. With the threshold also at 1.0 the
        // comparison is strict: at-threshold drift must NOT trip.
        let at = service(ServeOptions {
            radius_factor: -1.0,
            drift_threshold: 1.0,
            min_observations: 8,
            ..ServeOptions::default()
        });
        at.select_batch(&synthetic_corpus(16, 5));
        assert_eq!(at.stats().drift_fraction(), 1.0);
        assert!(!at.fallback_active(), "at-threshold fraction must not trip");

        // The same fraction one notch above the threshold does trip.
        let above = service(ServeOptions {
            radius_factor: -1.0,
            drift_threshold: 1.0 - 1e-9,
            min_observations: 8,
            ..ServeOptions::default()
        });
        above.select_batch(&synthetic_corpus(16, 5));
        assert!(above.fallback_active());
    }

    #[test]
    fn empty_batch_leaves_the_drift_state_untouched() {
        let svc = service(ServeOptions {
            min_observations: 1,
            ..ServeOptions::default()
        });
        let got = svc.select_batch(&[]);
        assert!(got.is_empty());
        let stats = svc.stats();
        assert_eq!(stats.requests, 0);
        assert_eq!(stats.probed, 0);
        assert_eq!(stats.ood, 0);
        assert_eq!(stats.batches, 1, "the dispatch itself is recorded");
        assert_eq!(stats.max_batch, 0);
        assert!(!svc.fallback_active());
        assert_eq!(stats.drift_fraction(), 0.0, "0/0 probes is zero drift");
    }

    #[test]
    fn monitor_rearms_after_reset_and_can_trip_again() {
        let svc = service(ServeOptions {
            radius_factor: -1.0,
            min_observations: 8,
            drift_threshold: 0.5,
            ..ServeOptions::default()
        });
        let inputs = synthetic_corpus(16, 5);
        svc.select_batch(&inputs);
        assert!(svc.fallback_active(), "first storm trips");
        svc.reset_drift();
        assert!(!svc.fallback_active(), "reset disarms");
        svc.select_batch(&inputs);
        assert!(
            !svc.select_batch(&inputs).iter().any(|s| !s.fell_back),
            "second storm re-trips: the post-storm batch falls back again"
        );
        assert!(svc.fallback_active(), "monitor re-armed after reset");
    }

    #[test]
    fn fallback_needs_minimum_observations() {
        let svc = service(ServeOptions {
            radius_factor: -1.0,
            min_observations: 1000,
            ..ServeOptions::default()
        });
        svc.select_batch(&synthetic_corpus(16, 5));
        assert!(
            !svc.fallback_active(),
            "16 probes are below the 1000-observation floor"
        );
    }

    #[test]
    fn probe_cadence_limits_probed_count() {
        let svc = service(ServeOptions {
            probe_every: 4,
            ..ServeOptions::default()
        });
        svc.select_batch(&synthetic_corpus(16, 5));
        assert_eq!(svc.stats().probed, 4);
    }

    #[test]
    fn run_executes_the_selected_landmark() {
        let svc = service(ServeOptions::default());
        let input = synthetic_corpus(1, 2)[0];
        let (report, selection) = svc.run(&input);
        assert_eq!(
            report,
            Synthetic.run(&svc.landmarks()[selection.landmark], &input)
        );
    }

    #[test]
    fn selections_track_the_trained_classifier() {
        // The synthetic problem is perfectly classifiable: the service
        // must route nearly every input to a landmark matching its kind.
        let svc = service(ServeOptions::default());
        let fresh = synthetic_corpus(30, 13);
        let correct = svc
            .select_batch(&fresh)
            .iter()
            .zip(&fresh)
            .filter(|(s, input)| svc.landmarks()[s.landmark].choice(0) == input.0)
            .count();
        assert!(correct >= 28, "only {correct}/30 routed correctly");
    }
}
