//! The drift monitor of the serving core.
//!
//! [`VectorService`](crate::VectorService) — and through it
//! [`SelectorService`](crate::SelectorService) — watches the input
//! distribution: probed requests are normalized with the artifact's
//! training normalizer and measured against the training cluster
//! centroids; when the out-of-distribution fraction among probed
//! requests exceeds a threshold (after a minimum observation count), the
//! fallback policy pins the artifact's safe landmark until reset. This
//! module owns that state — the geometry test, the monotone counters, and
//! the threshold decision.

use crate::artifact::{distance, ModelArtifact};
use crate::service::{ServeOptions, ServeStats};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters + threshold state of one serving runtime. All methods take
/// `&self`; everything is atomics, so a service and its monitor can be
/// shared across threads.
#[derive(Debug)]
pub(crate) struct DriftMonitor {
    /// Largest per-cluster training radius — the OOD allowance of
    /// zero-radius (singleton) clusters, fixed at construction because
    /// the artifact is immutable afterwards.
    max_radius: f64,
    radius_factor: f64,
    drift_threshold: f64,
    min_observations: u64,
    requests: AtomicU64,
    probed: AtomicU64,
    ood: AtomicU64,
    fallbacks: AtomicU64,
    batches: AtomicU64,
    max_batch: AtomicU64,
}

impl DriftMonitor {
    pub(crate) fn new(artifact: &ModelArtifact, opts: &ServeOptions) -> Self {
        DriftMonitor {
            max_radius: artifact.dispersion.iter().cloned().fold(0.0f64, f64::max),
            radius_factor: opts.radius_factor,
            drift_threshold: opts.drift_threshold,
            min_observations: opts.min_observations,
            requests: AtomicU64::new(0),
            probed: AtomicU64::new(0),
            ood: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
        }
    }

    /// Whether a normalized feature vector lies outside every cluster's
    /// (scaled) training radius.
    pub(crate) fn is_ood(&self, artifact: &ModelArtifact, z: &[f64]) -> bool {
        // Zero-radius clusters (singletons) borrow the largest training
        // radius so near-duplicates of a singleton are not spuriously OOD.
        artifact
            .centroids
            .iter()
            .zip(&artifact.dispersion)
            .all(|(centroid, &radius)| {
                let allowed = if radius > 0.0 {
                    radius
                } else {
                    self.max_radius
                };
                distance(z, centroid) > self.radius_factor * allowed.max(1e-12)
            })
    }

    /// Whether the fallback policy is currently engaged.
    pub(crate) fn fallback_active(&self) -> bool {
        let probed = self.probed.load(Ordering::Acquire);
        if probed < self.min_observations.max(1) {
            return false;
        }
        let ood = self.ood.load(Ordering::Acquire);
        intune_exec::hit_rate(ood, probed) > self.drift_threshold
    }

    /// The current out-of-distribution fraction among probed requests
    /// (0 when nothing probed yet) — the quantity [`fallback_active`]
    /// compares against the threshold. A cheap two-load accessor so
    /// callers watching for a trip (the retrain controller, tests) do not
    /// have to take and diff whole [`stats`] snapshots.
    ///
    /// [`fallback_active`]: DriftMonitor::fallback_active
    /// [`stats`]: DriftMonitor::stats
    pub(crate) fn trip_rate(&self) -> f64 {
        intune_exec::hit_rate(
            self.ood.load(Ordering::Acquire),
            self.probed.load(Ordering::Acquire),
        )
    }

    /// Resets the drift counters; request counters keep counting.
    pub(crate) fn reset(&self) {
        self.probed.store(0, Ordering::Release);
        self.ood.store(0, Ordering::Release);
    }

    /// Merges the counts of one answered request or batch at its exit. A
    /// batch also counts toward `batches` and `max_batch`.
    pub(crate) fn record(&self, requests: u64, probed: u64, ood: u64, fallbacks: u64, batch: bool) {
        self.requests.fetch_add(requests, Ordering::AcqRel);
        if batch {
            self.batches.fetch_add(1, Ordering::AcqRel);
            self.max_batch.fetch_max(requests, Ordering::AcqRel);
        }
        self.probed.fetch_add(probed, Ordering::AcqRel);
        self.ood.fetch_add(ood, Ordering::AcqRel);
        self.fallbacks.fetch_add(fallbacks, Ordering::AcqRel);
    }

    /// Counter snapshot.
    pub(crate) fn stats(&self) -> ServeStats {
        ServeStats {
            requests: self.requests.load(Ordering::Acquire),
            probed: self.probed.load(Ordering::Acquire),
            ood: self.ood.load(Ordering::Acquire),
            fallbacks: self.fallbacks.load(Ordering::Acquire),
            batches: self.batches.load(Ordering::Acquire),
            max_batch: self.max_batch.load(Ordering::Acquire),
        }
    }
}
