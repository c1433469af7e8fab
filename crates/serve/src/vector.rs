//! The serving core: selection over feature vectors.
//!
//! A [`VectorService`] answers the serving question — *which landmark
//! should this input run?* — for [`FeatureVector`]s, with no benchmark
//! type in sight. That makes it deployable where the benchmark type
//! cannot follow: the serve daemon links no benchmark crates and serves
//! any artifact whose clients extract features near their data and ship
//! the vectors over the wire.
//!
//! [`SelectorService`](crate::SelectorService) is a thin layer over this
//! core that acquires each input's features from its benchmark. Both
//! answer through one batch loop here, on the calling thread: the
//! drift/fallback state is snapshotted at batch entry, counters merge at
//! batch exit, and fallback transitions are journaled once. A
//! vector-served selection is therefore bit-identical to a
//! benchmark-served one for the same input.

use crate::artifact::ModelArtifact;
use crate::monitor::DriftMonitor;
use crate::service::{Selection, ServeOptions, ServeStats};
use crate::trace::TraceSink;
use intune_core::{
    Configuration, Error, FeatureSample, FeatureSet, FeatureVector, Result, TraceContext,
};
use intune_learning::selection::samples_for;
use intune_learning::CompiledClassifier;
use intune_obs::{EventKind, EventLog, IdMinter, Span, SpanLog};
use std::sync::Arc;

/// A serving runtime over feature vectors: validated artifact, the
/// production classifier's feature subset, and a drift monitor.
///
/// The artifact is immutable after construction and all counters are
/// atomics, so `&self` methods are safe from multiple threads.
pub struct VectorService {
    artifact: ModelArtifact,
    /// The production classifier compiled for inference (flattened tree),
    /// fixed at construction.
    compiled: CompiledClassifier,
    /// The classifier's feature subset, precomputed at construction.
    set: FeatureSet,
    opts: ServeOptions,
    monitor: DriftMonitor,
    /// Optional observer of every answered selection (request journal).
    trace: Option<Arc<dyn TraceSink>>,
    /// Optional lifecycle event log: drift trips and fallback
    /// recoveries are journaled as they happen.
    events: Option<Arc<EventLog>>,
    /// Optional span log: sampled requests record a `service.select`
    /// span (revision, batch size, drift score, fallback verdict).
    spans: Option<Arc<SpanLog>>,
    /// Span-id source for this service's spans (deterministic: seeded
    /// from benchmark + revision + pid, never the clock).
    span_ids: IdMinter,
}

impl std::fmt::Debug for VectorService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VectorService")
            .field("artifact", &self.artifact.benchmark)
            .field("revision", &self.artifact.revision)
            .field("opts", &self.opts)
            .field("traced", &self.trace.is_some())
            .finish()
    }
}

impl VectorService {
    /// Builds a service from a loaded artifact, checking its internal
    /// consistency ([`ModelArtifact::validate_shape`]) first — the
    /// strongest check possible without the benchmark.
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] when the artifact is inconsistent.
    pub fn new(artifact: ModelArtifact, opts: ServeOptions) -> Result<Self> {
        artifact.validate_shape()?;
        let monitor = DriftMonitor::new(&artifact, &opts);
        let compiled = CompiledClassifier::compile(artifact.classifier.clone());
        let set = compiled.feature_set();
        let span_ids = IdMinter::new(&format!(
            "service/{}/r{}/{}",
            artifact.benchmark,
            artifact.revision,
            std::process::id()
        ));
        Ok(VectorService {
            artifact,
            compiled,
            set,
            opts,
            monitor,
            trace: None,
            events: None,
            spans: None,
            span_ids,
        })
    }

    /// Attaches (or detaches) a trace sink observing every answered
    /// selection — the continuous-learning request journal. Sinks see
    /// final selections only; they cannot change an answer.
    pub fn set_trace(&mut self, trace: Option<Arc<dyn TraceSink>>) {
        self.trace = trace;
    }

    /// Attaches (or detaches) a lifecycle event log. The service emits
    /// `DriftTripped` when its monitor engages fallback and
    /// `FallbackCleared` when it recovers — best-effort, observation
    /// only, off the hot path except for one state comparison.
    pub fn set_events(&mut self, events: Option<Arc<EventLog>>) {
        self.events = events;
    }

    /// Attaches (or detaches) a span log. With one attached, every
    /// batch served under a sampled [`TraceContext`] records a
    /// `service.select` span; untraced traffic never touches it.
    pub fn set_spans(&mut self, spans: Option<Arc<SpanLog>>) {
        self.spans = spans;
    }

    /// The artifact being served.
    pub fn artifact(&self) -> &ModelArtifact {
        &self.artifact
    }

    /// The landmark configurations being dispatched to.
    pub fn landmarks(&self) -> &[Configuration] {
        &self.artifact.landmarks
    }

    /// Whether the fallback policy is currently engaged.
    pub fn fallback_active(&self) -> bool {
        self.monitor.fallback_active()
    }

    /// The current out-of-distribution fraction among probed requests —
    /// the quantity the fallback policy compares against its threshold.
    /// Cheap (two atomic loads), so drift watchers (the retrain
    /// controller, tests) need not diff [`VectorService::stats`]
    /// snapshots.
    pub fn trip_rate(&self) -> f64 {
        self.monitor.trip_rate()
    }

    /// Resets the drift monitor; request counters keep counting. An
    /// engaged fallback clearing through reset is journaled like a
    /// recovery.
    pub fn reset_drift(&self) {
        let was = self.monitor.fallback_active();
        self.monitor.reset();
        if was {
            if let Some(events) = &self.events {
                events.record(
                    &self.artifact.benchmark,
                    self.artifact.revision,
                    EventKind::FallbackCleared { trip_rate: 0.0 },
                );
            }
        }
    }

    /// Journals a fallback-state transition (entry snapshot `was` vs the
    /// post-record state). One branch when no event log is attached;
    /// both events carry the monitor's counters at the transition.
    fn note_fallback_transition(&self, was: bool) {
        let Some(events) = &self.events else { return };
        let now = self.monitor.fallback_active();
        if now == was {
            return;
        }
        let stats = self.monitor.stats();
        let kind = if now {
            EventKind::DriftTripped {
                probed: stats.probed,
                ood: stats.ood,
                trip_rate: self.monitor.trip_rate(),
            }
        } else {
            EventKind::FallbackCleared {
                trip_rate: self.monitor.trip_rate(),
            }
        };
        events.record(&self.artifact.benchmark, self.artifact.revision, kind);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServeStats {
        self.monitor.stats()
    }

    /// Checks that `fv` is shaped for this artifact: the exact property
    /// partition of the pinned feature declaration (untrusted wire
    /// vectors with a different layout could alias the wrong slots even
    /// at an equal slot total), with every slot present
    /// (`extract_all`-complete).
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] describing the mismatch.
    pub fn validate_vector(&self, fv: &FeatureVector) -> Result<()> {
        if !fv.matches_defs(&self.artifact.feature_defs) {
            return Err(Error::artifact(format!(
                "feature vector layout ({} slots) does not match the \
                 artifact's feature declaration {:?}",
                fv.len(),
                self.artifact.feature_defs
            )));
        }
        if !fv.is_complete() {
            return Err(Error::artifact(
                "feature vector is partially extracted; the wire protocol \
                 requires fully-extracted vectors",
            ));
        }
        Ok(())
    }

    /// The classifier's answer for a fully extracted vector: it reads its
    /// feature subset of `fv`. `z` is the normalized feature row of a
    /// probed request (`None` = unprobed — no drift check).
    pub(crate) fn classify_vector(&self, fv: &FeatureVector, z: Option<&[f64]>) -> Selection {
        let samples = samples_for(fv, &self.set);
        let (landmark, extraction_cost) = self.compiled.classify_costed(&samples);
        Selection {
            landmark,
            extraction_cost,
            out_of_distribution: z.is_some_and(|z| self.monitor.is_ood(&self.artifact, z)),
            fell_back: false,
        }
    }

    /// The classifier's answer from on-demand extraction: `extract`
    /// receives `(property, level)` and is called only for the features
    /// the classifier reads. No drift check.
    pub(crate) fn classify_lazy(
        &self,
        extract: impl FnMut(usize, usize) -> FeatureSample,
    ) -> Selection {
        let (landmark, extraction_cost) = self.compiled.classify_lazy(extract);
        Selection {
            landmark,
            extraction_cost,
            out_of_distribution: false,
            fell_back: false,
        }
    }

    /// The one batch loop behind every entry point of both services:
    /// snapshots the fallback state, answers requests `0..len` in order on
    /// the calling thread, then merges the counts and journals a fallback
    /// transition — a drift trip engages fallback from the *next* call on.
    /// `classify(i, probe)` is the classifier's answer for request `i`;
    /// `probe` is `Some(k)` when `i` is the `k`-th drift-probed request
    /// (every `probe_every`-th from 0). Single requests pass `len` 1 and
    /// `batch: false`: always probed, never counted as a batch.
    pub(crate) fn answer(
        &self,
        len: usize,
        batch: bool,
        mut classify: impl FnMut(usize, Option<usize>) -> Selection,
    ) -> Vec<Selection> {
        let fall_back = self.monitor.fallback_active();
        let probe_every = self.opts.probe_every.max(1);
        let mut ood = 0;
        let selections: Vec<Selection> = (0..len)
            .map(|i| {
                let probe = (i % probe_every == 0).then_some(i / probe_every);
                let mut selection = classify(i, probe);
                ood += u64::from(selection.out_of_distribution);
                if fall_back {
                    selection.landmark = self.artifact.fallback;
                    selection.fell_back = true;
                }
                selection
            })
            .collect();
        let fallbacks = if fall_back { len as u64 } else { 0 };
        let probed = len.div_ceil(probe_every) as u64;
        self.monitor
            .record(len as u64, probed, ood, fallbacks, batch);
        self.note_fallback_transition(fall_back);
        selections
    }

    /// Answers one selection request, updating the drift monitor.
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] when the vector does not fit the
    /// artifact's feature declaration.
    pub fn select_vector(&self, fv: &FeatureVector) -> Result<Selection> {
        self.validate_vector(fv)?;
        let z = self.artifact.normalizer.transform(&fv.dense());
        let selection = self.answer(1, false, |_, _| self.classify_vector(fv, Some(&z)))[0];
        if let Some(trace) = &self.trace {
            trace.record_batch(
                self.artifact.revision,
                std::slice::from_ref(fv),
                &[],
                std::slice::from_ref(&selection),
            );
        }
        Ok(selection)
    }

    /// Answers a batch of selection requests on the calling thread.
    /// Vectors are validated up front (the whole batch is rejected before
    /// any counter moves), the drift/fallback state is snapshotted at
    /// batch entry, and counter updates merge at batch exit — a drift
    /// trip engages fallback from the *next* batch on.
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] naming the first ill-shaped vector.
    pub fn select_vector_batch(&self, vectors: &[FeatureVector]) -> Result<Vec<Selection>> {
        self.select_vector_batch_traced(vectors, &[])
    }

    /// [`VectorService::select_vector_batch`] with opaque raw-input
    /// payloads riding along for the trace sink: `payloads` is either
    /// empty or parallel to `vectors` (`Null` = no payload for that
    /// vector). Payloads never influence selection — they exist so a
    /// request journal can capture what the client actually processed,
    /// which is what retraining needs.
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] naming the first ill-shaped vector, or
    /// describing a payload/vector length mismatch.
    pub fn select_vector_batch_traced(
        &self,
        vectors: &[FeatureVector],
        payloads: &[serde_json::Value],
    ) -> Result<Vec<Selection>> {
        self.select_vector_batch_observed(vectors, payloads, None)
    }

    /// [`VectorService::select_vector_batch_traced`] under an optional
    /// request [`TraceContext`]. A sampled context makes this batch
    /// *observed*: the service records a `service.select` span (child of
    /// the caller's span) annotated with the answering revision, batch
    /// size, drift score, and fallback/probe verdicts, and the journal
    /// sink receives the trace id alongside the records. Selections are
    /// byte-identical to the untraced path — observation never steers.
    ///
    /// # Errors
    /// Same as [`VectorService::select_vector_batch_traced`].
    pub fn select_vector_batch_observed(
        &self,
        vectors: &[FeatureVector],
        payloads: &[serde_json::Value],
        trace: Option<&TraceContext>,
    ) -> Result<Vec<Selection>> {
        let started = std::time::Instant::now();
        if !payloads.is_empty() && payloads.len() != vectors.len() {
            return Err(Error::artifact(format!(
                "batch ships {} payloads for {} vectors; payloads must be \
                 absent or parallel",
                payloads.len(),
                vectors.len()
            )));
        }
        for (i, fv) in vectors.iter().enumerate() {
            self.validate_vector(fv)
                .map_err(|e| Error::artifact(format!("batch vector {i}: {e}")))?;
        }
        // Normalize the probed sub-batch in one struct-of-arrays pass
        // (dimension-major; see `ZScore::transform_batch`) instead of one
        // row-major transform per probed request.
        let probed_rows: Vec<Vec<f64>> = vectors
            .iter()
            .step_by(self.opts.probe_every.max(1))
            .map(|fv| fv.dense())
            .collect();
        let zs = self.artifact.normalizer.transform_batch(&probed_rows);
        let selections = self.answer(vectors.len(), true, |i, probe| {
            self.classify_vector(&vectors[i], probe.map(|k| zs[k].as_slice()))
        });
        let sampled = trace.filter(|ctx| ctx.sampled && ctx.trace_id != 0);
        if let Some(sink) = &self.trace {
            sink.record_batch_traced(
                self.artifact.revision,
                vectors,
                payloads,
                &selections,
                sampled.map(|ctx| ctx.trace_id),
            );
        }
        if let (Some(ctx), Some(spans)) = (sampled, &self.spans) {
            let duration = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            spans.record(
                &Span::new(
                    ctx.trace_id,
                    self.span_ids.next(),
                    ctx.parent_span,
                    "service.select",
                    &self.artifact.benchmark,
                )
                .annotate("revision", self.artifact.revision)
                .annotate("batch", vectors.len())
                .annotate("probed", zs.len())
                .annotate("fallback", selections.first().is_some_and(|s| s.fell_back))
                .annotate("drift", format!("{:.4}", self.trip_rate()))
                .lasting(duration),
            );
        }
        Ok(selections)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::SelectorService;
    use crate::testutil::{synthetic_corpus, train_synthetic, Synthetic};
    use intune_core::Benchmark;

    fn vector_service(opts: ServeOptions) -> VectorService {
        let artifact = ModelArtifact::export(&Synthetic, &train_synthetic());
        VectorService::new(artifact, opts).unwrap()
    }

    fn vectors(n: usize, seed: usize) -> Vec<FeatureVector> {
        synthetic_corpus(n, seed)
            .iter()
            .map(|i| Synthetic.extract_all(i))
            .collect()
    }

    #[test]
    fn vector_selection_matches_benchmark_bound_selection() {
        let inputs = synthetic_corpus(48, 11);
        let artifact = ModelArtifact::export(&Synthetic, &train_synthetic());
        let bound =
            SelectorService::new(&Synthetic, artifact.clone(), ServeOptions::default()).unwrap();
        let vector = VectorService::new(artifact, ServeOptions::default()).unwrap();
        let expected = bound.select_batch(&inputs);
        let got = vector
            .select_vector_batch(&vectors(48, 11))
            .expect("well-shaped batch");
        assert_eq!(got, expected, "vector path must be bit-identical");
        assert_eq!(vector.stats(), bound.stats());
    }

    #[test]
    fn lazy_extraction_matches_vector_selection_at_sparse_probing() {
        // At `probe_every: 4` three of every four inputs take the lazy
        // path (`classify_lazy` over `Benchmark::extract`), while the
        // vector path classifies every input from its full vector. Both
        // must answer and count identically — with ordinary drift and
        // through a forced-drift trip (a negative radius bound makes
        // every probe OOD: the first batch trips, the next falls back).
        let inputs = synthetic_corpus(30, 11);
        let vs = vectors(30, 11);
        let artifact = ModelArtifact::export(&Synthetic, &train_synthetic());
        for radius_factor in [1.5, -1.0] {
            let opts = ServeOptions {
                probe_every: 4,
                radius_factor,
                min_observations: 8,
                ..ServeOptions::default()
            };
            let bound = SelectorService::new(&Synthetic, artifact.clone(), opts.clone()).unwrap();
            let vector = VectorService::new(artifact.clone(), opts).unwrap();
            for round in 0..3 {
                let at = format!("radius {radius_factor}, round {round}");
                let expected = bound.select_batch(&inputs);
                let got = vector.select_vector_batch(&vs).unwrap();
                // `Debug` prints each cost's shortest round-trip form:
                // equal text means equal bits.
                assert_eq!(format!("{got:?}"), format!("{expected:?}"), "{at}");
                assert_eq!(vector.stats(), bound.stats(), "{at}");
            }
            assert_eq!(bound.stats().probed, 3 * 8, "30 inputs probe 8 per batch");
            assert_eq!(bound.fallback_active(), radius_factor < 0.0);
            assert_eq!(
                bound.stats().fallbacks,
                if radius_factor < 0.0 { 60 } else { 0 }
            );
        }
    }

    #[test]
    fn batched_vector_selection_matches_sequential() {
        let vs = vectors(40, 3);
        let serial = vector_service(ServeOptions::default());
        let expected: Vec<Selection> = vs
            .iter()
            .map(|fv| serial.select_vector(fv).unwrap())
            .collect();
        let svc = vector_service(ServeOptions::default());
        assert_eq!(svc.select_vector_batch(&vs).unwrap(), expected);
    }

    #[test]
    fn ill_shaped_vectors_are_rejected_before_counters_move() {
        let svc = vector_service(ServeOptions::default());
        // Wrong shape: one property instead of the artifact's two.
        let short = FeatureVector::empty(&[intune_core::FeatureDef::new("only", 1)]);
        let err = svc.select_vector(&short).unwrap_err();
        assert!(matches!(err, Error::Artifact { .. }), "{err:?}");

        // Right shape, but incomplete (nothing extracted).
        let empty = FeatureVector::empty(&Synthetic.properties());
        let err = svc.select_vector(&empty).unwrap_err();
        assert!(err.to_string().contains("partially extracted"), "{err}");

        // Same slot *total* as the artifact's 2+2 declaration but a
        // different property partition (1+3): an untrusted wire vector
        // like this would alias the wrong slots (or panic the subset
        // lookup) if only lengths were compared — must be a typed error.
        let alias_defs = [
            intune_core::FeatureDef::new("x", 1),
            intune_core::FeatureDef::new("y", 3),
        ];
        let mut aliased = FeatureVector::empty(&alias_defs);
        for (p, def) in alias_defs.iter().enumerate() {
            for level in 0..def.levels {
                aliased
                    .insert(
                        intune_core::FeatureId { property: p, level },
                        intune_core::FeatureSample::new(1.0, 1.0),
                    )
                    .unwrap();
            }
        }
        assert_eq!(aliased.len(), 4, "same slot count as the artifact");
        let err = svc.select_vector(&aliased).unwrap_err();
        assert!(err.to_string().contains("layout"), "{err}");

        // A batch with one bad vector is rejected wholesale.
        let mut batch = vectors(4, 1);
        batch.push(empty);
        let err = svc.select_vector_batch(&batch).unwrap_err();
        assert!(err.to_string().contains("batch vector 4"), "{err}");
        assert_eq!(svc.stats().requests, 0, "no counter moved");
    }

    #[test]
    fn trace_sink_sees_every_selection_with_revision_and_payloads() {
        use crate::trace::testutil::CountingSink;
        use std::sync::Arc;

        let artifact = ModelArtifact::export(&Synthetic, &train_synthetic()).with_revision(5);
        let mut svc = VectorService::new(artifact, ServeOptions::default()).unwrap();
        let sink = Arc::new(CountingSink::default());
        svc.set_trace(Some(sink.clone()));

        let vs = vectors(6, 2);
        let untraced_answers = svc.select_vector_batch(&vs).unwrap();
        let payloads: Vec<serde_json::Value> =
            (0..6).map(|i| serde_json::Value::Int(i as i64)).collect();
        let traced_answers = svc.select_vector_batch_traced(&vs, &payloads).unwrap();
        assert_eq!(untraced_answers, traced_answers, "payloads never steer");
        svc.select_vector(&vs[0]).unwrap();

        assert_eq!(sink.appended(), 13);
        let seen = sink.seen.lock().unwrap().clone();
        assert_eq!(seen, vec![(5, 6, 0), (5, 6, 6), (5, 1, 0)]);

        // Mismatched payloads are a typed error before any counter moves.
        let before = svc.stats();
        let err = svc
            .select_vector_batch_traced(&vs, &payloads[..2])
            .unwrap_err();
        assert!(err.to_string().contains("parallel"), "{err}");
        assert_eq!(svc.stats(), before);
    }

    #[test]
    fn trip_rate_tracks_the_ood_fraction_without_snapshot_diffing() {
        let svc = vector_service(ServeOptions {
            radius_factor: -1.0, // everything is out-of-distribution
            min_observations: 1000,
            ..ServeOptions::default()
        });
        assert_eq!(svc.trip_rate(), 0.0, "nothing probed yet");
        svc.select_vector_batch(&vectors(8, 1)).unwrap();
        assert_eq!(svc.trip_rate(), 1.0);
        let stats = svc.stats();
        assert_eq!(
            svc.trip_rate(),
            stats.drift_fraction(),
            "accessor and snapshot derive the same rate"
        );
        svc.reset_drift();
        assert_eq!(svc.trip_rate(), 0.0, "reset re-arms the rate");
    }

    #[test]
    fn drift_transitions_are_journaled_to_the_event_log() {
        use intune_obs::{read_events, EventKind, EventLog};

        let dir = std::env::temp_dir().join(format!("intune-serve-events-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("drift-events.log");
        let _ = std::fs::remove_file(&path);
        let events = Arc::new(EventLog::open(&path).unwrap());

        let mut svc = vector_service(ServeOptions {
            radius_factor: -1.0, // synthetic drift storm: everything OOD
            min_observations: 8,
            drift_threshold: 0.5,
            ..ServeOptions::default()
        });
        svc.set_events(Some(events.clone()));
        let vs = vectors(16, 5);
        svc.select_vector_batch(&vs).unwrap(); // trips at batch exit
        svc.select_vector_batch(&vs).unwrap(); // already tripped: no event
        svc.reset_drift(); // recovery is journaled too

        let scan = read_events(&path).unwrap();
        assert!(scan.torn.is_none());
        let kinds: Vec<&EventKind> = scan.events.iter().map(|e| &e.kind).collect();
        assert_eq!(
            kinds.len(),
            2,
            "one trip + one clear, no repeats: {kinds:?}"
        );
        match kinds[0] {
            EventKind::DriftTripped {
                probed,
                ood,
                trip_rate,
            } => {
                assert_eq!((*probed, *ood), (16, 16));
                assert_eq!(*trip_rate, 1.0);
            }
            other => panic!("expected DriftTripped, got {other:?}"),
        }
        assert!(matches!(kinds[1], EventKind::FallbackCleared { .. }));
        assert_eq!(scan.events[0].tenant, svc.artifact().benchmark);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn drift_trips_and_resets_like_the_benchmark_bound_service() {
        let svc = vector_service(ServeOptions {
            radius_factor: -1.0,
            min_observations: 8,
            drift_threshold: 0.5,
            ..ServeOptions::default()
        });
        let vs = vectors(16, 5);
        let first = svc.select_vector_batch(&vs).unwrap();
        assert!(first.iter().all(|s| s.out_of_distribution && !s.fell_back));
        assert!(svc.fallback_active());
        let second = svc.select_vector_batch(&vs).unwrap();
        assert!(second
            .iter()
            .all(|s| s.fell_back && s.landmark == svc.artifact().fallback));
        svc.reset_drift();
        assert!(!svc.fallback_active());
    }
}
