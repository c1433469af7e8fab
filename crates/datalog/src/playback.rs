//! The playback side of the datalog: stream a recording against a
//! selection target, collect the answers, and compare transcripts.
//!
//! Playback is **deterministic**: frames replay in capture order (which
//! trivially preserves per-connection ordering — a recording interleaves
//! connections exactly as the daemon's single event loop decoded them),
//! control frames are skipped and counted, and the resulting
//! [`ReplayOutcome`] renders to a canonical byte transcript
//! ([`ReplayOutcome::transcript`]) so "same answers" is a byte
//! comparison. [`divergence`] reduces two outcomes of the same recording
//! to a typed [`DivergenceReport`] — the "does revision N+1 change any
//! answer on yesterday's traffic" check.

use crate::recording::RecordedFrame;
use intune_core::{Error, FeatureVector, Result, TraceContext};
use intune_serve::{Selection, VectorService};
use serde_json::Value;
use std::time::Duration;

/// Anything a recording can be replayed against: an in-process
/// [`VectorService`], a live daemon behind a client (implemented by the
/// `intune_replay` binary), or a test double.
pub trait ReplayTarget {
    /// Answers one recorded selection frame.
    ///
    /// # Errors
    /// Returns the target's own error when the batch cannot be served.
    fn select(
        &self,
        tenant: &str,
        features: &[FeatureVector],
        payloads: &[Value],
    ) -> Result<Vec<Selection>>;

    /// [`ReplayTarget::select`] plus the trace context the frame was
    /// recorded with, so replay reproduces the original traces. The
    /// default ignores the context; trace-aware targets (the in-process
    /// service, wire clients) override it to re-attach the id.
    ///
    /// # Errors
    /// Returns the target's own error when the batch cannot be served.
    fn select_traced(
        &self,
        tenant: &str,
        features: &[FeatureVector],
        payloads: &[Value],
        trace: Option<&TraceContext>,
    ) -> Result<Vec<Selection>> {
        let _ = trace;
        self.select(tenant, features, payloads)
    }

    /// Answers a run of consecutive selection frames. The default
    /// serves them one at a time; wire-backed targets override this to
    /// pipeline the run (several frames in flight on one connection).
    /// Implementations must return answers in frame order.
    ///
    /// # Errors
    /// Returns the target's own error when any batch cannot be served.
    fn select_run(&self, frames: &[&RecordedFrame]) -> Result<Vec<Vec<Selection>>> {
        frames
            .iter()
            .map(|frame| {
                let (features, payloads) = frame
                    .body
                    .select_parts()
                    .ok_or_else(|| Error::artifact("control frame in a selection run"))?;
                self.select_traced(&frame.tenant, features, payloads, frame.body.trace())
            })
            .collect()
    }
}

impl ReplayTarget for VectorService {
    /// Serves the frame in-process. The frame's tenant must match the
    /// served artifact's benchmark — replaying a multi-tenant recording
    /// against a single service would silently answer the wrong model.
    fn select(
        &self,
        tenant: &str,
        features: &[FeatureVector],
        payloads: &[Value],
    ) -> Result<Vec<Selection>> {
        let benchmark = &self.artifact().benchmark;
        if tenant != benchmark {
            return Err(Error::artifact(format!(
                "recorded frame is for tenant `{tenant}` but this service \
                 serves `{benchmark}`"
            )));
        }
        self.select_vector_batch_traced(features, payloads)
    }

    /// Serves the frame in-process with its recorded trace context
    /// re-attached, so a replay regenerates the original trace's
    /// selection spans (when a span log is wired to the service).
    fn select_traced(
        &self,
        tenant: &str,
        features: &[FeatureVector],
        payloads: &[Value],
        trace: Option<&TraceContext>,
    ) -> Result<Vec<Selection>> {
        let benchmark = &self.artifact().benchmark;
        if tenant != benchmark {
            return Err(Error::artifact(format!(
                "recorded frame is for tenant `{tenant}` but this service \
                 serves `{benchmark}`"
            )));
        }
        self.select_vector_batch_observed(features, payloads, trace)
    }
}

/// Playback tunables.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// Pacing: `0.0` replays as fast as possible (consecutive selection
    /// frames are grouped into pipelined runs); any positive value
    /// replays the recorded inter-frame deltas scaled by `1/speed`
    /// (`1.0` = original timing, `2.0` = twice as fast).
    pub speed: f64,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions { speed: 0.0 }
    }
}

/// One replayed frame's answers.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameResult {
    /// The recorded frame's sequence number.
    pub seq: u64,
    /// Tenant the frame was recorded against.
    pub tenant: String,
    /// Recorded connection id.
    pub conn: u64,
    /// The target's selections, one per recorded vector.
    pub selections: Vec<Selection>,
}

/// Everything one replay produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Answers for every selection frame, in capture order.
    pub results: Vec<FrameResult>,
    /// Control frames skipped (handshakes, stats, lifecycle requests).
    pub control_skipped: u64,
}

impl ReplayOutcome {
    /// Selections answered across all frames.
    pub fn selections(&self) -> u64 {
        self.results.iter().map(|r| r.selections.len() as u64).sum()
    }

    /// The canonical byte transcript of this replay: one line per
    /// selection frame — `seq`, connection id, tenant, then the
    /// selections as compact JSON, tab-separated. Two replays answered
    /// identically render byte-identical transcripts, so determinism
    /// checks are a plain byte comparison.
    pub fn transcript(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for r in &self.results {
            let selections = serde_json::to_string(&serde_json::to_value(&r.selections))
                .expect("selections serialize");
            writeln!(out, "{}\t{}\t{}\t{}", r.seq, r.conn, r.tenant, selections)
                .expect("string write");
        }
        out
    }
}

/// Replays `frames` (in capture order) against `target`.
///
/// # Errors
/// Returns the target's error as soon as any frame cannot be served —
/// a divergence check over a half-answered replay would under-report.
pub fn replay<T: ReplayTarget + ?Sized>(
    frames: &[RecordedFrame],
    target: &T,
    opts: &ReplayOptions,
) -> Result<ReplayOutcome> {
    let mut results = Vec::new();
    let mut control_skipped = 0u64;
    if opts.speed > 0.0 {
        // Paced: honor every frame's recorded delta (control frames
        // took time too), scaled by 1/speed.
        for frame in frames {
            let pause = Duration::from_micros((frame.delta_micros as f64 / opts.speed) as u64);
            if !pause.is_zero() {
                std::thread::sleep(pause);
            }
            match frame.body.select_parts() {
                Some((features, payloads)) => {
                    let selections = target.select_traced(
                        &frame.tenant,
                        features,
                        payloads,
                        frame.body.trace(),
                    )?;
                    results.push(FrameResult {
                        seq: frame.seq,
                        tenant: frame.tenant.clone(),
                        conn: frame.conn,
                        selections,
                    });
                }
                None => control_skipped += 1,
            }
        }
    } else {
        // As fast as possible: group consecutive selection frames into
        // runs so pipelining targets keep several frames in flight.
        let mut i = 0;
        while i < frames.len() {
            if frames[i].body.select_parts().is_none() {
                control_skipped += 1;
                i += 1;
                continue;
            }
            let mut j = i;
            while j < frames.len() && frames[j].body.select_parts().is_some() {
                j += 1;
            }
            let run: Vec<&RecordedFrame> = frames[i..j].iter().collect();
            let answers = target.select_run(&run)?;
            if answers.len() != run.len() {
                return Err(Error::artifact(format!(
                    "replay target answered {} of {} frames in a run",
                    answers.len(),
                    run.len()
                )));
            }
            for (frame, selections) in run.iter().zip(answers) {
                results.push(FrameResult {
                    seq: frame.seq,
                    tenant: frame.tenant.clone(),
                    conn: frame.conn,
                    selections,
                });
            }
            i = j;
        }
    }
    Ok(ReplayOutcome {
        results,
        control_skipped,
    })
}

/// The first differing answer between two replays.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Sequence number of the diverging frame.
    pub seq: u64,
    /// Tenant of the diverging frame.
    pub tenant: String,
    /// Recorded connection id of the diverging frame.
    pub conn: u64,
    /// Index of the diverging selection inside the frame.
    pub index: usize,
    /// Side A's answer, compact JSON.
    pub a: String,
    /// Side B's answer, compact JSON.
    pub b: String,
}

/// A typed summary of replaying one recording against two targets.
#[derive(Debug, Clone)]
pub struct DivergenceReport {
    /// Selection frames compared.
    pub frames: u64,
    /// Selections compared.
    pub selections: u64,
    /// Selections whose canonical encodings differ.
    pub diverged: u64,
    /// Frames containing at least one diverged selection.
    pub diverged_frames: u64,
    /// Fallback-served selections on side A.
    pub fallbacks_a: u64,
    /// Fallback-served selections on side B.
    pub fallbacks_b: u64,
    /// Whether the two outcomes disagree on shape (frame count, per
    /// frame selection count, or frame identity) — counted as total
    /// divergence of the unpaired remainder.
    pub shape_mismatch: bool,
    /// The first divergence, in detail.
    pub first: Option<Divergence>,
}

impl DivergenceReport {
    /// True when the two replays answered byte-identically.
    pub fn clean(&self) -> bool {
        self.diverged == 0 && !self.shape_mismatch
    }
}

fn canonical(selection: &Selection) -> String {
    serde_json::to_string(&serde_json::to_value(selection)).expect("selection serializes")
}

/// Byte-compares two replays of the same recording, selection by
/// selection, and reduces them to a [`DivergenceReport`].
pub fn divergence(a: &ReplayOutcome, b: &ReplayOutcome) -> DivergenceReport {
    let mut report = DivergenceReport {
        frames: a.results.len().max(b.results.len()) as u64,
        selections: 0,
        diverged: 0,
        diverged_frames: 0,
        fallbacks_a: a
            .results
            .iter()
            .flat_map(|r| &r.selections)
            .filter(|s| s.fell_back)
            .count() as u64,
        fallbacks_b: b
            .results
            .iter()
            .flat_map(|r| &r.selections)
            .filter(|s| s.fell_back)
            .count() as u64,
        shape_mismatch: a.results.len() != b.results.len(),
        first: None,
    };
    for (ra, rb) in a.results.iter().zip(&b.results) {
        if ra.seq != rb.seq || ra.selections.len() != rb.selections.len() {
            report.shape_mismatch = true;
        }
        let mut frame_diverged = false;
        for (index, (sa, sb)) in ra.selections.iter().zip(&rb.selections).enumerate() {
            report.selections += 1;
            let (ca, cb) = (canonical(sa), canonical(sb));
            if ca != cb {
                report.diverged += 1;
                frame_diverged = true;
                if report.first.is_none() {
                    report.first = Some(Divergence {
                        seq: ra.seq,
                        tenant: ra.tenant.clone(),
                        conn: ra.conn,
                        index,
                        a: ca,
                        b: cb,
                    });
                }
            }
        }
        if frame_diverged {
            report.diverged_frames += 1;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recording::FrameBody;
    use intune_core::{ConfigSpace, FeatureDef, FeatureId, FeatureSample};
    use intune_learning::classifiers::Classifier;
    use intune_ml::{DecisionTree, TreeOptions, ZScore};
    use intune_serve::{ModelArtifact, ServeOptions};

    /// A small hand-built artifact (no training pipeline needed): a
    /// 2-landmark tree model routing feature `a@1 < 3.5` to landmark 0,
    /// else 1 — `flipped` inverts the routing, modeling a retrained
    /// revision that changes answers.
    fn artifact(flipped: bool) -> ModelArtifact {
        let space = ConfigSpace::builder().switch("alg", 2).build();
        let defs = vec![FeatureDef::new("a", 2), FeatureDef::new("b", 1)];
        let rows: Vec<Vec<f64>> = (0..8)
            .map(|i| vec![i as f64, (i * 2) as f64, 1.0])
            .collect();
        let tree_rows: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64]).collect();
        let labels: Vec<usize> = (0..8).map(|i| usize::from((i >= 4) != flipped)).collect();
        let landmarks: Vec<_> = (0..2)
            .map(|c| {
                let mut cfg = space.default_config();
                cfg.set(0, intune_core::ParamValue::Choice(c));
                cfg
            })
            .collect();
        ModelArtifact {
            benchmark: "datalog-test".to_string(),
            feature_defs: defs,
            normalizer: ZScore::fit(&rows),
            landmarks,
            classifier: Classifier::Tree {
                set: intune_core::FeatureSet::from_choices(vec![Some(1), None]),
                tree: DecisionTree::fit_plain(&tree_rows, &labels, 2, TreeOptions::default()),
            },
            centroids: vec![vec![0.0; 3], vec![1.0; 3]],
            dispersion: vec![2.0, 2.0],
            fallback: 0,
            accuracy_threshold: None,
            revision: 1,
            trained_inputs: 8,
        }
    }

    fn vector(x: f64) -> FeatureVector {
        let defs = [FeatureDef::new("a", 2), FeatureDef::new("b", 1)];
        let mut fv = FeatureVector::empty(&defs);
        fv.insert(
            FeatureId {
                property: 0,
                level: 0,
            },
            FeatureSample::new(x / 2.0, 0.5),
        )
        .unwrap();
        fv.insert(
            FeatureId {
                property: 0,
                level: 1,
            },
            FeatureSample::new(x, 1.0),
        )
        .unwrap();
        fv.insert(
            FeatureId {
                property: 1,
                level: 0,
            },
            FeatureSample::new(1.0, 0.25),
        )
        .unwrap();
        fv
    }

    fn service(flipped: bool) -> VectorService {
        VectorService::new(artifact(flipped), ServeOptions::default()).unwrap()
    }

    /// A session shape worth replaying: two interleaved connections, a
    /// handshake, mixed batch sizes, a trailing stats poll.
    fn frames() -> Vec<RecordedFrame> {
        let select = |seq: u64, conn: u64, xs: &[f64]| RecordedFrame {
            seq,
            delta_micros: 3,
            tenant: "datalog-test".to_string(),
            conn,
            body: FrameBody::Select {
                features: xs.iter().map(|&x| vector(x)).collect(),
                payloads: vec![],
                trace: None,
            },
        };
        let control = |seq: u64, conn: u64, kind: &str| RecordedFrame {
            seq,
            delta_micros: 3,
            tenant: "datalog-test".to_string(),
            conn,
            body: FrameBody::Control {
                kind: kind.to_string(),
            },
        };
        vec![
            control(0, 0, "Hello"),
            select(1, 0, &[0.0, 5.0]),
            control(2, 1, "Hello"),
            select(3, 1, &[2.0]),
            select(4, 0, &[7.0, 1.0, 4.0]),
            select(5, 1, &[3.0]),
            control(6, 0, "Stats"),
        ]
    }

    #[test]
    fn replay_answers_selection_frames_in_capture_order_and_skips_controls() {
        let svc = service(false);
        let outcome = replay(&frames(), &svc, &ReplayOptions::default()).unwrap();
        assert_eq!(outcome.control_skipped, 3);
        assert_eq!(outcome.results.len(), 4);
        assert_eq!(outcome.selections(), 7);
        let seqs: Vec<u64> = outcome.results.iter().map(|r| r.seq).collect();
        assert_eq!(
            seqs,
            vec![1, 3, 4, 5],
            "capture order (and with it per-connection order) is preserved"
        );
        assert_eq!(outcome.results[0].conn, 0);
        assert_eq!(outcome.results[1].conn, 1);
        // The routing is the artifact's: a@1 < 3.5 -> landmark 0.
        let landmarks: Vec<usize> = outcome.results[2]
            .selections
            .iter()
            .map(|s| s.landmark)
            .collect();
        assert_eq!(landmarks, vec![1, 0, 1], "x = 7, 1, 4");
    }

    #[test]
    fn replay_is_deterministic_across_runs() {
        let baseline = replay(&frames(), &service(false), &ReplayOptions::default())
            .unwrap()
            .transcript();
        assert!(!baseline.is_empty());
        let again = replay(&frames(), &service(false), &ReplayOptions::default())
            .unwrap()
            .transcript();
        assert_eq!(again, baseline);
    }

    #[test]
    fn paced_replay_answers_exactly_like_fast_replay() {
        // Speed only changes pacing, never answers: a very fast paced
        // replay (deltas of a few µs scaled down further) must produce
        // the same transcript as the as-fast-as-possible path.
        let fast = replay(&frames(), &service(false), &ReplayOptions::default()).unwrap();
        let paced = replay(&frames(), &service(false), &ReplayOptions { speed: 1000.0 }).unwrap();
        assert_eq!(paced.transcript(), fast.transcript());
        assert_eq!(paced.control_skipped, fast.control_skipped);
    }

    #[test]
    fn same_revision_replays_report_zero_divergence() {
        let a = replay(&frames(), &service(false), &ReplayOptions::default()).unwrap();
        let b = replay(&frames(), &service(false), &ReplayOptions::default()).unwrap();
        let report = divergence(&a, &b);
        assert!(report.clean(), "{report:?}");
        assert_eq!(report.frames, 4);
        assert_eq!(report.selections, 7);
        assert_eq!(report.diverged, 0);
        assert_eq!(report.diverged_frames, 0);
        assert!(report.first.is_none());
    }

    #[test]
    fn changed_answers_are_reported_with_first_divergence_detail() {
        let a = replay(&frames(), &service(false), &ReplayOptions::default()).unwrap();
        let b = replay(&frames(), &service(true), &ReplayOptions::default()).unwrap();
        let report = divergence(&a, &b);
        assert!(!report.clean());
        assert_eq!(
            report.diverged, 7,
            "the flipped tree changes every routing decision"
        );
        assert_eq!(report.diverged_frames, 4);
        assert!(!report.shape_mismatch, "same shape, different answers");
        let first = report.first.expect("first divergence detail");
        assert_eq!(first.seq, 1);
        assert_eq!(first.conn, 0);
        assert_eq!(first.tenant, "datalog-test");
        assert_eq!(first.index, 0);
        assert_ne!(first.a, first.b);
    }

    #[test]
    fn tenant_mismatch_is_a_typed_error_not_a_wrong_answer() {
        let mut fs = frames();
        fs[1].tenant = "someone-else".to_string();
        let err = replay(&fs, &service(false), &ReplayOptions::default()).unwrap_err();
        assert!(err.to_string().contains("someone-else"), "{err}");
    }
}
