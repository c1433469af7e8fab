//! Shadow evaluation: a staged candidate model mirrored behind the
//! primary.
//!
//! Lesoil et al.'s interaction study is the motivation: configuration
//! quality shifts with the input distribution, so a retrained artifact
//! must be compared against production traffic *before* it answers a
//! single client. A staged `ShadowState` receives a mirror of every
//! `SelectBatch`, records per-landmark agreement with the primary's
//! served answers, and runs its own drift monitor over the mirrored
//! stream. Promotion is gated on that record ([`ShadowPolicy`]); a shadow
//! whose drift monitor trips is **auto-rejected** — dropped on the spot,
//! having never answered a client.

use crate::protocol::{LandmarkAgreement, ShadowStats};
use intune_core::{FeatureVector, Result};
use intune_serve::{Selection, VectorService};
use std::sync::atomic::{AtomicU64, Ordering};

/// The promotion gate for staged shadows.
#[derive(Debug, Clone)]
pub struct ShadowPolicy {
    /// Minimum mirrored **selections** (individual vectors, not
    /// `SelectBatch` frames) before `Promote` may succeed.
    pub min_mirrored: u64,
    /// Minimum overall agreement rate (`agreed / mirrored`) for
    /// promotion.
    pub min_agreement: f64,
}

impl Default for ShadowPolicy {
    fn default() -> Self {
        ShadowPolicy {
            min_mirrored: 64,
            min_agreement: 0.95,
        }
    }
}

/// A staged candidate model and its mirrored-traffic record.
#[derive(Debug)]
pub(crate) struct ShadowState {
    pub(crate) service: VectorService,
    mirrored: AtomicU64,
    agreed: AtomicU64,
    /// `(mirrored, agreed)` per primary landmark index.
    per_landmark: Vec<(AtomicU64, AtomicU64)>,
}

impl ShadowState {
    pub(crate) fn new(service: VectorService, primary_landmarks: usize) -> Self {
        ShadowState {
            service,
            mirrored: AtomicU64::new(0),
            agreed: AtomicU64::new(0),
            per_landmark: (0..primary_landmarks)
                .map(|_| (AtomicU64::new(0), AtomicU64::new(0)))
                .collect(),
        }
    }

    /// Mirrors one served batch: the shadow selects for the same vectors
    /// and its answers are compared landmark-for-landmark against what
    /// the primary actually served. Returns whether the shadow's own
    /// drift monitor has tripped (the auto-reject signal).
    ///
    /// # Errors
    /// Propagates vector-shape mismatches (a shadow trained on a
    /// different feature declaration cannot score this traffic).
    pub(crate) fn mirror(&self, vectors: &[FeatureVector], primary: &[Selection]) -> Result<bool> {
        let shadow = self.service.select_vector_batch(vectors)?;
        for (p, s) in primary.iter().zip(&shadow) {
            self.mirrored.fetch_add(1, Ordering::AcqRel);
            let (m, a) = &self.per_landmark[p.landmark];
            m.fetch_add(1, Ordering::AcqRel);
            if s.landmark == p.landmark {
                self.agreed.fetch_add(1, Ordering::AcqRel);
                a.fetch_add(1, Ordering::AcqRel);
            }
        }
        Ok(self.service.fallback_active())
    }

    /// Checks the promotion gate.
    ///
    /// # Errors
    /// Returns a human-readable refusal reason.
    pub(crate) fn promotable(&self, policy: &ShadowPolicy) -> std::result::Result<(), String> {
        let mirrored = self.mirrored.load(Ordering::Acquire);
        if mirrored < policy.min_mirrored {
            return Err(format!(
                "shadow has mirrored {mirrored} selections, promotion needs {}",
                policy.min_mirrored
            ));
        }
        let agreed = self.agreed.load(Ordering::Acquire);
        let rate = intune_exec::hit_rate(agreed, mirrored);
        if rate < policy.min_agreement {
            return Err(format!(
                "shadow agreement rate {rate:.4} is below the {:.4} promotion bar",
                policy.min_agreement
            ));
        }
        if self.service.fallback_active() {
            return Err("shadow drift monitor is tripped".to_string());
        }
        Ok(())
    }

    /// Counter snapshot for `Stats` replies.
    pub(crate) fn stats(&self) -> ShadowStats {
        let mirrored = self.mirrored.load(Ordering::Acquire);
        let agreed = self.agreed.load(Ordering::Acquire);
        ShadowStats {
            revision: self.service.artifact().revision,
            mirrored,
            agreed,
            agreement_rate: intune_exec::hit_rate(agreed, mirrored),
            per_landmark: self
                .per_landmark
                .iter()
                .enumerate()
                .map(|(landmark, (m, a))| LandmarkAgreement {
                    landmark: landmark as u64,
                    mirrored: m.load(Ordering::Acquire),
                    agreed: a.load(Ordering::Acquire),
                })
                .collect(),
            drift: self.service.stats(),
        }
    }
}
