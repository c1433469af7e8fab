//! The retraining controller: journal → corpus → retrain → push, as one
//! auditable cycle.
//!
//! One [`run_cycle`] call drives the whole continuous-learning loop
//! against a live daemon, with **zero daemon restarts**:
//!
//! 1. **Compact** — fold new journal segments into the persistent
//!    [`CorpusStore`] (dedup, reservoir bound, streaming stats); sealed,
//!    fully-absorbed segments are removed only *after* the corpus has
//!    been durably saved.
//! 2. **Decide** — ask the [`RetrainPolicy`] whether the cycle evidence
//!    (new inputs, drift rate, cooldown) justifies spending a training
//!    budget.
//! 3. **Retrain** — decode the corpus's journaled raw inputs, merge them
//!    after the base training corpus, and re-run the two-level pipeline
//!    through the work-stealing engine, warm-started from a persisted
//!    cost cache whose cells are re-keyed by input *fingerprint* (so
//!    yesterday's measurements survive corpus growth and eviction).
//!    Retraining is worker-count invariant: the same corpus produces a
//!    byte-identical artifact at any `INTUNE_THREADS`.
//! 4. **Push** — stamp the result as artifact revision N+1, hot-load it
//!    into the daemon over the existing `LoadArtifact` wire path, replay
//!    corpus traffic to build the staged shadow's agreement record, and
//!    call `Promote`. **The daemon's shadow gate — not this controller —
//!    decides adoption**: insufficient agreement or a tripped shadow
//!    drift monitor refuses the promote, and the cycle reports
//!    [`CycleOutcome::Rejected`].

use crate::corpus::{AdmissionPolicy, CorpusStore};
use crate::policy::{RetrainDecision, RetrainPolicy, RetrainReason};
use intune_core::{codec, Benchmark, Error, FeatureVector, Result};
use intune_daemon::DaemonClient;
use intune_exec::{CostCache, Engine};
use intune_learning::pipeline::{relearn_merged, TwoLevelResult};
use intune_learning::TwoLevelOptions;
use intune_obs::{EventKind, EventLog};
use intune_serve::{journal, JournalRecord, LazyRecord, ModelArtifact};
use serde_json::Value;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Envelope schema name of the persisted retrain cost cache (cells plus
/// per-input identity fingerprints).
pub const RETRAIN_CACHE_SCHEMA: &str = "intune-retrain-cache";
/// Current retrain-cache schema version.
pub const RETRAIN_CACHE_VERSION: u32 = 1;
/// Most trace ids one [`EventKind::RetrainCycle`] event carries (the
/// compaction report itself is uncapped).
pub const RETRAIN_EVENT_TRACE_CAP: usize = 64;

/// Everything one controller instance needs besides the benchmark.
#[derive(Debug, Clone)]
pub struct RetrainConfig {
    /// Directory the daemon journals into.
    pub journal_dir: PathBuf,
    /// Path of the persistent corpus document.
    pub corpus_path: PathBuf,
    /// Optional path of the persisted cost cache (fingerprint-keyed warm
    /// starts across cycles). `None` disables cache persistence.
    pub cache_path: Option<PathBuf>,
    /// Corpus capacity (unique entries) when the corpus is first created.
    pub capacity: usize,
    /// The retrain gate.
    pub policy: RetrainPolicy,
    /// Mirrored selections to drive through the daemon before calling
    /// `Promote` (match the daemon's `ShadowPolicy::min_mirrored`).
    pub mirror_target: u64,
    /// Vectors per replay frame while warming the shadow.
    pub mirror_batch: usize,
    /// Whether sealed, fully-absorbed journal segments are deleted after
    /// the corpus save (the journal's disk bound).
    pub remove_compacted: bool,
    /// Corpus admission policy applied for this cycle's offers (runtime
    /// behaviour only — never persisted in the corpus document).
    pub admission: AdmissionPolicy,
    /// Optional lifecycle event log: every cycle appends one
    /// [`EventKind::RetrainCycle`] with its outcome. An in-process
    /// daemon can share the same `Arc` so cycles interleave with the
    /// promotes they cause; across processes give each writer its own
    /// file (sequence numbers are per-handle).
    pub events: Option<Arc<EventLog>>,
}

impl RetrainConfig {
    /// A config with defaults for everything but the two paths.
    pub fn new(journal_dir: impl Into<PathBuf>, corpus_path: impl Into<PathBuf>) -> Self {
        RetrainConfig {
            journal_dir: journal_dir.into(),
            corpus_path: corpus_path.into(),
            cache_path: None,
            capacity: 4096,
            policy: RetrainPolicy::default(),
            mirror_target: 64,
            mirror_batch: 64,
            remove_compacted: true,
            admission: AdmissionPolicy::default(),
            events: None,
        }
    }
}

/// What one compaction pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Segment files scanned.
    pub segments: u64,
    /// Journal records read (complete records only).
    pub records: u64,
    /// Records that created new corpus entries.
    pub added: u64,
    /// Records that merged into existing entries.
    pub merged: u64,
    /// Records already absorbed in an earlier pass.
    pub stale: u64,
    /// Records rejected by the reservoir bound on arrival.
    pub rejected: u64,
    /// Record payloads parsed: those of added entries and of payload
    /// upgrades of known vectors. Every other payload is only checked
    /// against the JSON grammar.
    pub payloads_parsed: u64,
    /// Segments with a torn/corrupt tail (complete prefix still used).
    pub torn_segments: u64,
    /// Sealed segments fully absorbed and eligible for removal.
    pub absorbed: Vec<PathBuf>,
    /// Segments actually deleted (filled in by [`run_cycle`] after the
    /// corpus save, or by [`remove_segments`]).
    pub removed_segments: u64,
    /// Distinct trace ids of the records this pass added or merged into
    /// the corpus (ascending). Only traced requests carry one, so this
    /// is usually a sparse sample of the absorbed traffic — enough to
    /// walk from a retrain decision back to concrete request traces.
    pub trace_ids: Vec<u64>,
}

/// Folds every journal segment in `dir` into `corpus` (idempotently —
/// records already absorbed are skipped by sequence number). A missing
/// journal directory is an empty journal, not an error. The report lists
/// sealed (non-active), fully-absorbed segments in `absorbed`; the caller
/// decides deletion **after** persisting the corpus.
///
/// Segments are read by the lazy scan
/// ([`scan_segment`](intune_serve::journal::scan_segment)): every
/// record's checksum and payload grammar are checked, but a payload is
/// parsed only when the corpus keeps it (see [`CorpusStore::offer`]).
///
/// # Errors
/// Returns [`Error::Artifact`] on unreadable segments.
pub fn compact_journal(dir: &Path, corpus: &mut CorpusStore) -> Result<CompactionReport> {
    compact_segments(dir, corpus, false, journal::scan_segment)
}

/// [`compact_journal`] with cycle-evidence counting suppressed
/// (`CorpusStore::offer_quiet`): the controller's end-of-cycle pass over
/// its own mirror-replay echoes, which must feed dedup and statistics
/// but never the next cycle's retrain evidence.
///
/// # Errors
/// Returns [`Error::Artifact`] on unreadable segments.
pub fn compact_journal_quiet(dir: &Path, corpus: &mut CorpusStore) -> Result<CompactionReport> {
    compact_segments(dir, corpus, true, journal::scan_segment)
}

/// The compaction loop, over the segment reader `scan` (the journal's
/// own, [`journal::scan_segment`], except in the test that holds it
/// against a full parse).
fn compact_segments<S>(
    dir: &Path,
    corpus: &mut CorpusStore,
    quiet: bool,
    scan: S,
) -> Result<CompactionReport>
where
    S: for<'a> Fn(&Path, &'a [u8]) -> codec::RecordScan<LazyRecord<'a>>,
{
    let mut report = CompactionReport::default();
    if !dir.exists() {
        return Ok(report);
    }
    let parsed_before = corpus.payloads_parsed();
    let segments = journal::list_segments(dir)?;
    let last = segments.len().saturating_sub(1);
    for (i, path) in segments.iter().enumerate() {
        let bytes = intune_core::applog::read_file(path)?;
        let scan = scan(path, &bytes);
        report.segments += 1;
        if scan.torn.is_some() {
            report.torn_segments += 1;
        }
        for record in &scan.records {
            report.records += 1;
            let offer = if quiet {
                corpus.offer_quiet(record)
            } else {
                corpus.offer(record)
            };
            match offer {
                crate::corpus::Offer::Added => report.added += 1,
                crate::corpus::Offer::Merged => report.merged += 1,
                crate::corpus::Offer::Rejected => report.rejected += 1,
                crate::corpus::Offer::Stale => report.stale += 1,
            }
            if matches!(
                offer,
                crate::corpus::Offer::Added | crate::corpus::Offer::Merged
            ) {
                if let Some(id) = record.record.trace_id.filter(|&id| id != 0) {
                    report.trace_ids.push(id);
                }
            }
        }
        // The active (highest-index) segment is still being appended to;
        // everything older is sealed and now fully absorbed.
        if i != last {
            report.absorbed.push(path.clone());
        }
    }
    report.payloads_parsed = corpus.payloads_parsed() - parsed_before;
    report.trace_ids.sort_unstable();
    report.trace_ids.dedup();
    Ok(report)
}

/// What folding one wire recording into a corpus did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordingCompaction {
    /// Recording segment files scanned.
    pub segments: u64,
    /// Segments with a torn/corrupt tail (complete prefix still used).
    pub torn_segments: u64,
    /// Frames read (selection and control).
    pub frames: u64,
    /// Selection frames whose vectors were offered.
    pub select_frames: u64,
    /// Feature vectors offered to the corpus.
    pub vectors: u64,
    /// Vectors that created new corpus entries.
    pub added: u64,
    /// Vectors that merged into existing entries.
    pub merged: u64,
    /// Vectors rejected by the reservoir bound on arrival.
    pub rejected: u64,
}

/// Folds a wire recording (`intune-datalog/1`, the daemon's `--record`
/// tap) into `corpus`: every vector of every selection frame is offered,
/// with its traced payload when one was shipped. A missing directory is
/// an empty recording, not an error.
///
/// A recording captures *requests* — unlike a journal record it carries
/// no served landmark, revision, or drift verdict — so synthesized
/// records use neutral evidence (landmark 0, revision 0, never
/// out-of-distribution) and are offered **quietly**: they feed dedup,
/// statistics and the reservoir, but never the retrain policy's cycle
/// evidence. Sequence numbers continue from the corpus's watermark, so
/// re-compacting the same recording dedups by feature identity (merges)
/// rather than by sequence.
///
/// # Errors
/// Returns [`Error::Artifact`] on
/// unreadable segments.
pub fn compact_recording(dir: &Path, corpus: &mut CorpusStore) -> Result<RecordingCompaction> {
    let mut report = RecordingCompaction::default();
    if !dir.exists() {
        return Ok(report);
    }
    let recording = intune_datalog::load_recording(dir)?;
    report.segments = recording.segments;
    report.torn_segments = recording.torn_segments;
    let mut seq = corpus.next_seq();
    for frame in &recording.frames {
        report.frames += 1;
        let Some((features, payloads)) = frame.body.select_parts() else {
            continue;
        };
        report.select_frames += 1;
        let trace_id = frame.body.trace().map(|t| t.trace_id).filter(|&id| id != 0);
        for (i, features) in features.iter().enumerate() {
            let record = JournalRecord {
                seq,
                revision: 0,
                landmark: 0,
                out_of_distribution: false,
                fell_back: false,
                features: features.clone(),
                payload: payloads.get(i).filter(|v| !v.is_null()).cloned(),
                trace_id,
            };
            seq += 1;
            report.vectors += 1;
            match corpus.offer_quiet(&record.into()) {
                crate::corpus::Offer::Added => report.added += 1,
                crate::corpus::Offer::Merged => report.merged += 1,
                crate::corpus::Offer::Rejected => report.rejected += 1,
                crate::corpus::Offer::Stale => {}
            }
        }
    }
    Ok(report)
}

/// Deletes the given segment files (best effort per file), returning how
/// many were removed. Call only after the corpus they were folded into
/// has been durably saved.
pub fn remove_segments(paths: &[PathBuf]) -> u64 {
    paths
        .iter()
        .filter(|p| std::fs::remove_file(p).is_ok())
        .count() as u64
}

/// Identity fingerprint of one benchmark input: FNV-1a 64 over its
/// canonical encoded payload, or `None` when the benchmark does not
/// support input journaling. Fingerprints re-key persisted cost-cache
/// cells when the merged corpus's input indices shift between cycles.
pub fn input_fingerprint<B: Benchmark>(benchmark: &B, input: &B::Input) -> Option<u64> {
    let payload = benchmark.encode_input(input)?;
    let canonical = serde_json::to_string(&payload).expect("value printing is infallible");
    Some(codec::fnv1a64(canonical.as_bytes()))
}

/// Loads a cache persisted by [`save_warm_cache`] and re-keys its cells
/// onto the new merged corpus via fingerprint matching: a cell survives
/// iff its input's fingerprint appears in `new_prints` (first occurrence
/// wins). Cells of inputs that left the corpus are dropped.
///
/// # Errors
/// Returns [`Error::Artifact`] on IO/checksum/shape failure.
pub fn load_warm_cache(path: &Path, new_prints: &[Option<u64>]) -> Result<CostCache> {
    let payload = codec::read_document(path, RETRAIN_CACHE_SCHEMA, RETRAIN_CACHE_VERSION)?;
    let old_prints: Vec<Option<u64>> = payload
        .get("prints")
        .ok_or_else(|| Error::artifact("retrain cache lacks `prints`"))
        .and_then(|v| {
            serde_json::from_value(v).map_err(|e| Error::artifact(format!("bad prints: {e}")))
        })?;
    let cache = payload
        .get("cache")
        .ok_or_else(|| Error::artifact("retrain cache lacks `cache`"))
        .and_then(CostCache::from_value)?;
    let mut by_print: HashMap<u64, usize> = HashMap::new();
    for (i, p) in new_prints.iter().enumerate() {
        if let Some(p) = p {
            by_print.entry(*p).or_insert(i);
        }
    }
    Ok(cache.remap_inputs(|old| {
        old_prints
            .get(old)
            .copied()
            .flatten()
            .and_then(|p| by_print.get(&p).copied())
    }))
}

/// Persists `cache` together with the per-input fingerprints of the
/// corpus it was measured on, so the next cycle can re-key it.
///
/// # Errors
/// Returns [`Error::Artifact`] when the file cannot be written.
pub fn save_warm_cache(path: &Path, prints: &[Option<u64>], cache: &CostCache) -> Result<()> {
    let payload = Value::Object(vec![
        ("prints".to_string(), serde_json::to_value(&prints.to_vec())),
        ("cache".to_string(), cache.to_value()),
    ]);
    codec::write_document(path, RETRAIN_CACHE_SCHEMA, RETRAIN_CACHE_VERSION, payload)
}

/// A freshly retrained model plus its provenance numbers.
#[derive(Debug)]
pub struct RetrainedModel {
    /// The exported artifact, stamped with its rollout revision; its
    /// `trained_inputs` counts the merged corpus — base training inputs
    /// plus the journaled inputs production actually served.
    pub artifact: ModelArtifact,
    /// The full learning result behind the artifact.
    pub result: TwoLevelResult,
    /// Measurement/corpus accounting of this retrain.
    pub stats: RetrainStats,
}

/// Deterministic accounting of one retrain step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetrainStats {
    /// Inputs the model was trained on (base + journaled).
    pub merged_inputs: u64,
    /// Journaled inputs decoded from the corpus.
    pub new_inputs: u64,
    /// Payload-carrying corpus entries that failed to decode.
    pub skipped_payloads: u64,
    /// Cells answered from the persisted warm cache before training ran.
    pub warm_cells: u64,
    /// Fresh benchmark executions this retrain performed.
    pub cells_measured: u64,
    /// Measurements answered from cache (warm cells + intra-run reuse).
    pub cache_hits: u64,
}

/// The retrain step alone: corpus → merged inputs → two-level pipeline →
/// revision-stamped artifact, with fingerprint-keyed cache warm starts.
/// No daemon involved — [`run_cycle`] wraps this with the push.
///
/// # Errors
/// Returns [`intune_core::Error::Measurement`] on failing cells and
/// [`Error::Artifact`] on cache IO failures.
pub fn retrain_from_corpus<B: Benchmark + Sync>(
    benchmark: &B,
    base_inputs: &[B::Input],
    opts: &TwoLevelOptions,
    engine: &Engine,
    corpus: &CorpusStore,
    cache_path: Option<&Path>,
    revision: u64,
) -> Result<RetrainedModel>
where
    B::Input: Sync + Clone,
{
    let (journaled, skipped_payloads) = corpus.retrain_inputs(benchmark);
    let prints: Vec<Option<u64>> = base_inputs
        .iter()
        .chain(&journaled)
        .map(|input| input_fingerprint(benchmark, input))
        .collect();
    let cache = match cache_path {
        Some(path) if path.exists() => load_warm_cache(path, &prints)?,
        _ => CostCache::new(),
    };
    let warm_cells = cache.len() as u64;
    let result = relearn_merged(benchmark, base_inputs, &journaled, opts, engine, cache)?;
    if let Some(path) = cache_path {
        save_warm_cache(path, &prints, &result.level1.cache)?;
    }
    let artifact = ModelArtifact::export(benchmark, &result).with_revision(revision);
    let stats = RetrainStats {
        merged_inputs: (base_inputs.len() + journaled.len()) as u64,
        new_inputs: journaled.len() as u64,
        skipped_payloads,
        warm_cells,
        cells_measured: result.stats.measured_runs as u64,
        cache_hits: result.stats.cache_hits as u64,
    };
    Ok(RetrainedModel {
        artifact,
        result,
        stats,
    })
}

/// How one cycle ended.
#[derive(Debug, Clone, PartialEq)]
pub enum CycleOutcome {
    /// The policy declined to retrain.
    Idle {
        /// The policy's explanation.
        reason: String,
    },
    /// The daemon's shadow gate accepted the pushed revision.
    Promoted {
        /// Revision now serving.
        revision: u64,
        /// `trained_inputs` of the promoted artifact (base + journaled).
        trained_inputs: u64,
        /// Journaled inputs in that count.
        new_inputs: u64,
        /// Shadow agreement rate at promotion time.
        agreement_rate: f64,
    },
    /// The push happened but the shadow gate (or the shadow's own drift
    /// monitor) refused adoption; the daemon keeps serving revision N.
    Rejected {
        /// Revision that was refused.
        revision: u64,
        /// The daemon's refusal reason.
        reason: String,
    },
}

/// Everything one [`run_cycle`] call did.
#[derive(Debug)]
pub struct CycleReport {
    /// The cycle's ending.
    pub outcome: CycleOutcome,
    /// What compaction absorbed.
    pub compaction: CompactionReport,
    /// Why the policy fired (`None` when the cycle idled) — the
    /// operational audit trail: volume vs. drift.
    pub trigger: Option<RetrainReason>,
    /// Retrain accounting (`None` when the cycle idled).
    pub retrain: Option<RetrainStats>,
}

/// One full journal→corpus→retrain→push cycle against a live daemon (see
/// module docs for the four phases and who decides what).
///
/// # Errors
/// Returns typed errors on journal/corpus IO, measurement failures, and
/// wire transport failures. A *refused promote* is not an error — it is
/// [`CycleOutcome::Rejected`], the gate doing its job.
pub fn run_cycle<B: Benchmark + Sync>(
    benchmark: &B,
    base_inputs: &[B::Input],
    opts: &TwoLevelOptions,
    engine: &Engine,
    cfg: &RetrainConfig,
    client: &DaemonClient,
) -> Result<CycleReport>
where
    B::Input: Sync + Clone,
{
    let mut corpus = CorpusStore::load_or_new(&cfg.corpus_path, cfg.capacity)?;
    corpus.set_admission_policy(cfg.admission);
    let mut compaction = compact_journal(&cfg.journal_dir, &mut corpus)?;
    corpus.save(&cfg.corpus_path)?;
    if cfg.remove_compacted {
        compaction.removed_segments = remove_segments(&compaction.absorbed);
    }

    let decision = cfg.policy.decide(&corpus.evidence());
    let reason = match decision {
        RetrainDecision::Idle(reason) => {
            if let Some(log) = &cfg.events {
                // Revision from the connect-time handshake: the idle
                // path spends no extra wire round trip on it.
                log.record(
                    benchmark.name(),
                    client.info().revision,
                    EventKind::RetrainCycle {
                        outcome: "idle".to_string(),
                        detail: reason.clone(),
                        new_inputs: 0,
                        trace_ids: Vec::new(),
                    },
                );
            }
            return Ok(CycleReport {
                outcome: CycleOutcome::Idle { reason },
                compaction,
                trigger: None,
                retrain: None,
            });
        }
        RetrainDecision::Retrain(reason) => reason,
    };

    // Revision N+1 comes from the daemon's *live* revision, not the
    // connect-time handshake: another controller may have promoted since.
    let revision = client.stats()?.revision + 1;
    let retrained = retrain_from_corpus(
        benchmark,
        base_inputs,
        opts,
        engine,
        &corpus,
        cfg.cache_path.as_deref(),
        revision,
    )?;
    let stats = retrained.stats;
    client.load_artifact(&retrained.artifact)?;

    // Warm the staged shadow's agreement record with the traffic the
    // journal proves production sends. These replays are journaled like
    // any primary answer; the quiet compaction below absorbs them before
    // the cycle closes so they never read as fresh production evidence.
    let outcome = match mirror_corpus_traffic(client, &corpus, cfg)? {
        MirrorEnd::ShadowGone => CycleOutcome::Rejected {
            revision,
            reason: "shadow auto-rejected while mirroring (drift monitor tripped)".to_string(),
        },
        MirrorEnd::Ready(agreement_rate) => match client.promote() {
            Ok(promoted) => CycleOutcome::Promoted {
                revision: promoted,
                trained_inputs: retrained.artifact.trained_inputs,
                new_inputs: stats.new_inputs,
                agreement_rate,
            },
            Err(e) => CycleOutcome::Rejected {
                revision,
                reason: e.to_string(),
            },
        },
    };
    if let Some(log) = &cfg.events {
        let (name, detail, event_revision) = match &outcome {
            CycleOutcome::Promoted {
                revision,
                agreement_rate,
                ..
            } => (
                "promoted",
                format!("agreement {agreement_rate:.4}"),
                *revision,
            ),
            CycleOutcome::Rejected { revision, reason } => ("rejected", reason.clone(), *revision),
            CycleOutcome::Idle { reason } => ("idle", reason.clone(), 0),
        };
        // The event log bounds record size; a busy cycle can absorb far
        // more traced inputs than one event should carry, so the stamp
        // is the first `RETRAIN_EVENT_TRACE_CAP` ids (they are sorted —
        // a deterministic sample, not a random one).
        let mut trace_ids = compaction.trace_ids.clone();
        trace_ids.truncate(RETRAIN_EVENT_TRACE_CAP);
        log.record(
            benchmark.name(),
            event_revision,
            EventKind::RetrainCycle {
                outcome: name.to_string(),
                detail,
                new_inputs: stats.new_inputs,
                trace_ids,
            },
        );
    }
    // Absorb this cycle's own mirror-replay echoes (journaled like any
    // primary answer) *quietly*: dedup and statistics see them, the next
    // cycle's retrain evidence does not — otherwise a drift-responsive
    // policy would feed on its own echoes and retrain in a loop.
    compact_journal_quiet(&cfg.journal_dir, &mut corpus)?;
    corpus.mark_cycle();
    corpus.save(&cfg.corpus_path)?;
    Ok(CycleReport {
        outcome,
        compaction,
        trigger: Some(reason),
        retrain: Some(stats),
    })
}

enum MirrorEnd {
    /// The shadow disappeared mid-replay (auto-rejected).
    ShadowGone,
    /// Enough selections mirrored; last observed agreement rate.
    Ready(f64),
}

/// Replays corpus feature vectors through `SelectBatch` until the staged
/// shadow has mirrored `mirror_target` selections (or vanished).
fn mirror_corpus_traffic(
    client: &DaemonClient,
    corpus: &CorpusStore,
    cfg: &RetrainConfig,
) -> Result<MirrorEnd> {
    let vectors: Vec<FeatureVector> = corpus
        .entries()
        .iter()
        .map(|e| e.features.clone())
        .collect();
    let batch = cfg.mirror_batch.max(1);
    // Enough frames to reach the target plus slack; the stats check is
    // authoritative, this only bounds a misconfigured loop.
    let max_frames = cfg.mirror_target / batch as u64 + 16;
    let mut start = 0usize;
    let mut frames = 0u64;
    loop {
        let stats = client.stats()?;
        let Some(shadow) = stats.shadow else {
            return Ok(MirrorEnd::ShadowGone);
        };
        if shadow.mirrored >= cfg.mirror_target || vectors.is_empty() || frames >= max_frames {
            return Ok(MirrorEnd::Ready(shadow.agreement_rate));
        }
        let frame: Vec<FeatureVector> = (0..batch)
            .map(|i| vectors[(start + i) % vectors.len()].clone())
            .collect();
        client.select_batch(&frame)?;
        start = (start + batch) % vectors.len();
        frames += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{synthetic_corpus, train_options, Synthetic};
    use intune_serve::journal::{JournalOptions, JournalWriter};
    use proptest::prelude::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "intune-retrain-ctl-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn journal_inputs(dir: &Path, inputs: &[(usize, f64)], segment_max: usize) {
        let b = Synthetic;
        let mut w = JournalWriter::open(
            dir,
            JournalOptions {
                segment_max_records: segment_max,
                ..JournalOptions::default()
            },
        )
        .unwrap();
        for input in inputs {
            w.append(JournalRecord {
                seq: 0,
                revision: 0,
                landmark: input.0 as u64,
                out_of_distribution: false,
                fell_back: false,
                features: b.extract_all(input),
                payload: b.encode_input(input),
                trace_id: None,
            })
            .unwrap();
        }
    }

    #[test]
    fn compaction_absorbs_segments_idempotently_and_lists_sealed_ones() {
        let jdir = tmp("compact");
        let inputs = synthetic_corpus(10, 3);
        journal_inputs(&jdir, &inputs, 4);

        let mut corpus = CorpusStore::new(64);
        let report = compact_journal(&jdir, &mut corpus).unwrap();
        assert_eq!(report.segments, 3, "10 records at 4/segment");
        assert_eq!(report.records, 10);
        assert_eq!(report.added, corpus.len() as u64);
        assert_eq!(
            report.absorbed.len(),
            2,
            "sealed segments are removable, the active one is not"
        );

        // Re-compaction is a no-op.
        let again = compact_journal(&jdir, &mut corpus).unwrap();
        assert_eq!(again.records, 10);
        assert_eq!(again.stale, 10);
        assert_eq!(again.added, 0);

        // Removal after the (simulated) corpus save.
        assert_eq!(remove_segments(&report.absorbed), 2);
        let after = compact_journal(&jdir, &mut corpus).unwrap();
        assert_eq!(after.segments, 1, "only the active segment remains");
        std::fs::remove_dir_all(&jdir).ok();
    }

    /// One journal record of a synthetic input, with or without its
    /// payload.
    fn synthetic_record(seq: u64, input: (usize, f64), payload: bool) -> JournalRecord {
        let b = Synthetic;
        JournalRecord {
            seq,
            revision: 0,
            landmark: input.0 as u64,
            out_of_distribution: seq.is_multiple_of(3),
            fell_back: false,
            features: b.extract_all(&input),
            payload: payload.then(|| b.encode_input(&input)).flatten(),
            trace_id: (seq % 4 == 1).then_some(seq + 100),
        }
    }

    /// Writes `frames` as journal segments of `per_segment` frames each.
    fn write_segments(dir: &Path, frames: &[Vec<u8>], per_segment: usize) {
        std::fs::create_dir_all(dir).unwrap();
        for (i, chunk) in frames.chunks(per_segment.max(1)).enumerate() {
            std::fs::write(journal::segment_path(dir, i as u64), chunk.concat()).unwrap();
        }
    }

    fn frame(record: &JournalRecord) -> Vec<u8> {
        codec::encode_record(
            journal::JOURNAL_SCHEMA,
            journal::JOURNAL_VERSION,
            serde_json::to_value(record),
        )
        .unwrap()
    }

    #[test]
    fn compaction_parses_only_the_payloads_the_corpus_keeps() {
        let jdir = tmp("parsed");
        let inputs = synthetic_corpus(9, 0);
        // (input, payload): a duplicate of input 0, input 1 journaled
        // bare twice and upgraded by its third record, then a stream of
        // new inputs into a corpus of capacity 4, so the reservoir
        // rejects some of them.
        let plan = [
            (0, true),
            (0, true),
            (1, false),
            (1, false),
            (2, true),
            (1, true),
            (1, true),
            (3, true),
            (4, true),
            (5, true),
            (6, true),
            (7, false),
            (8, true),
        ];
        let frames: Vec<Vec<u8>> = plan
            .iter()
            .enumerate()
            .map(|(seq, &(i, payload))| frame(&synthetic_record(seq as u64, inputs[i], payload)))
            .collect();
        write_segments(&jdir, &frames, 4);

        let mut corpus = CorpusStore::new(4);
        let report = compact_journal(&jdir, &mut corpus).unwrap();
        assert_eq!(report.records, 13);
        assert_eq!((report.added, report.merged, report.rejected), (8, 4, 1));
        // Seven distinct inputs first arrive with a payload (all but 1
        // and 7); the reservoir rejects one of them, so six payloads are
        // parsed on admission, plus input 1's upgrade. Duplicates and the
        // rejected record are never parsed.
        assert_eq!(report.payloads_parsed, 6 + 1);
        assert_eq!(corpus.payloads_parsed(), 7);

        let again = compact_journal(&jdir, &mut corpus).unwrap();
        assert_eq!(again.stale, 13);
        assert_eq!(again.payloads_parsed, 0, "stale records parse nothing");
        std::fs::remove_dir_all(&jdir).ok();
    }

    /// [`journal::scan_segment`] as the full parse spells it: every record
    /// through [`codec::scan_records`] and `from_value`, every payload
    /// parsed (and printed back to text for the offer).
    fn full_parse_scan<'a>(path: &Path, bytes: &'a [u8]) -> codec::RecordScan<LazyRecord<'a>> {
        let scan = codec::scan_records(bytes, journal::JOURNAL_SCHEMA, journal::JOURNAL_VERSION);
        let mut records = Vec::new();
        let mut torn = scan.torn;
        for (i, value) in scan.records.iter().enumerate() {
            match serde_json::from_value::<JournalRecord>(value) {
                Ok(record) => records.push(LazyRecord::from(record)),
                Err(e) => {
                    torn = Some(Error::artifact(format!(
                        "segment {} record {i} has an unexpected shape: {e}",
                        path.display()
                    )));
                    break;
                }
            }
        }
        codec::RecordScan {
            records,
            consumed: scan.consumed,
            torn,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Compaction through the lazy scan and through a full parse of
        /// every record gives equal reports and byte-identical corpora:
        /// random journals with duplicates, payload upgrades, capacity
        /// evictions and rejections, either admission policy, a torn
        /// tail, records from a newer writer with an extra field named
        /// like the payload, a re-sealed record whose payload breaks the
        /// grammar, and a second, stale pass over the same segments.
        #[test]
        fn lazy_compaction_matches_the_full_parse(
            plan in prop::collection::vec((0usize..12, 0u8..3, 0u8..4), 4..40),
            per_segment in 2usize..8,
            capacity in 2usize..16,
            novelty in 0u8..2,
            cut in 0usize..1 << 16,
            broken in 0usize..64,
        ) {
            let jdir = tmp("lazy-vs-full");
            let inputs = synthetic_corpus(12, 5);
            let mut frames: Vec<Vec<u8>> = plan
                .iter()
                .enumerate()
                .map(|(seq, &(i, payload, writer))| {
                    let record = synthetic_record(seq as u64, inputs[i], payload > 0);
                    if writer > 0 {
                        return frame(&record);
                    }
                    // A newer writer's record: an unknown field ahead of
                    // the payload whose name starts like it.
                    let mut value = serde_json::to_value(&record);
                    if let Value::Object(fields) = &mut value {
                        fields.insert(0, ("payload_codec".into(), Value::String("v2".into())));
                    }
                    codec::encode_record(journal::JOURNAL_SCHEMA, journal::JOURNAL_VERSION, value)
                        .unwrap()
                })
                .collect();
            if let Some(frame) = frames.get_mut(broken) {
                // A checksum-valid record whose payload is not JSON.
                let record = synthetic_record(broken as u64, inputs[0], true);
                let text = serde_json::to_string(&serde_json::to_value(&record))
                    .unwrap()
                    .replacen("\"payload\":[", "\"payload\":[1.5.2,", 1);
                let body = format!(
                    "{{\"schema\":\"{}\",\"version\":{},\"checksum\":\"fnv1a64:{:016x}\",\"payload\":{text}}}",
                    journal::JOURNAL_SCHEMA,
                    journal::JOURNAL_VERSION,
                    codec::fnv1a64(text.as_bytes())
                );
                *frame = (body.len() as u32).to_be_bytes().to_vec();
                frame.extend_from_slice(body.as_bytes());
            }
            write_segments(&jdir, &frames, per_segment);
            // A torn tail on the active segment.
            let active = journal::list_segments(&jdir).unwrap().pop().unwrap();
            let bytes = std::fs::read(&active).unwrap();
            std::fs::write(&active, &bytes[..cut % (bytes.len() + 1)]).unwrap();

            let policy = [AdmissionPolicy::UniformHash, AdmissionPolicy::Novelty][novelty as usize];
            let mut lazy = CorpusStore::new(capacity);
            let mut full = CorpusStore::new(capacity);
            lazy.set_admission_policy(policy);
            full.set_admission_policy(policy);
            for pass in ["first", "stale"] {
                let got = compact_journal(&jdir, &mut lazy).unwrap();
                let want = compact_segments(&jdir, &mut full, false, full_parse_scan).unwrap();
                prop_assert_eq!(&got, &want, "{} pass", pass);
                if pass == "stale" {
                    prop_assert_eq!(got.payloads_parsed, 0);
                }
                lazy.save(&jdir.join("lazy.corpus.json")).unwrap();
                full.save(&jdir.join("full.corpus.json")).unwrap();
                prop_assert!(
                    std::fs::read(jdir.join("lazy.corpus.json")).unwrap()
                        == std::fs::read(jdir.join("full.corpus.json")).unwrap(),
                    "{} pass: the corpora differ", pass
                );
            }
            std::fs::remove_dir_all(&jdir).ok();
        }
    }

    #[test]
    fn recording_compaction_folds_vectors_quietly_and_dedups_on_repeat() {
        use intune_datalog::{FrameBody, RecordedFrame, RecordingOptions, RecordingWriter};

        let rdir = tmp("recording");
        let b = Synthetic;
        let inputs = synthetic_corpus(6, 1);
        let features: Vec<_> = inputs.iter().map(|i| b.extract_all(i)).collect();
        let payloads: Vec<_> = inputs
            .iter()
            .map(|i| b.encode_input(i).expect("synthetic inputs encode"))
            .collect();
        let frame = |body| RecordedFrame {
            seq: 0,
            delta_micros: 0,
            tenant: "synthetic".to_string(),
            conn: 0,
            body,
        };
        let mut w = RecordingWriter::open(&rdir, RecordingOptions::default()).unwrap();
        w.append(frame(FrameBody::Control {
            kind: "Hello".to_string(),
        }))
        .unwrap();
        w.append(frame(FrameBody::Select {
            features: features[..3].to_vec(),
            payloads: payloads[..3].to_vec(),
            trace: Some(intune_core::TraceContext::root(0xabc)),
        }))
        .unwrap();
        // An untraced batch: vectors without payloads still feed stats.
        w.append(frame(FrameBody::Select {
            features: features[3..].to_vec(),
            payloads: Vec::new(),
            trace: None,
        }))
        .unwrap();
        w.flush().unwrap();

        let mut corpus = CorpusStore::new(64);
        let report = compact_recording(&rdir, &mut corpus).unwrap();
        assert_eq!(report.frames, 3);
        assert_eq!(report.select_frames, 2, "the control frame is skipped");
        assert_eq!(report.vectors, 6);
        assert_eq!(report.added, 6);
        assert_eq!(corpus.len(), 6);
        let with_payload = corpus
            .entries()
            .iter()
            .filter(|e| e.payload.is_some())
            .count();
        assert_eq!(with_payload, 3, "only the traced frame ships payloads");
        assert_eq!(
            corpus.evidence().offered,
            0,
            "recorded traffic carries no drift verdict and must stay out \
             of the retrain policy's cycle evidence"
        );

        // Folding the same recording again dedups by feature identity:
        // synthesized sequence numbers advance, so nothing reads stale.
        let again = compact_recording(&rdir, &mut corpus).unwrap();
        assert_eq!(again.added, 0);
        assert_eq!(again.merged, 6);
        assert_eq!(corpus.len(), 6);

        // A missing directory is an empty recording, not an error.
        let empty = compact_recording(&rdir.join("absent"), &mut corpus).unwrap();
        assert_eq!(empty, RecordingCompaction::default());
        std::fs::remove_dir_all(&rdir).ok();
    }

    #[test]
    fn warm_cache_survives_corpus_growth_via_fingerprints() {
        let dir = tmp("warmcache");
        let cache_path = dir.join("retrain.cache.json");
        let b = Synthetic;
        let base = synthetic_corpus(24, 0);
        let engine = Engine::serial();
        let opts = train_options();

        // Cycle 1: corpus holds 6 journaled inputs.
        let jdir1 = dir.join("j1");
        let shifted1 = synthetic_corpus(6, 7);
        journal_inputs(&jdir1, &shifted1, 1024);
        let mut corpus = CorpusStore::new(64);
        compact_journal(&jdir1, &mut corpus).unwrap();
        let first =
            retrain_from_corpus(&b, &base, &opts, &engine, &corpus, Some(&cache_path), 1).unwrap();
        assert_eq!(first.stats.warm_cells, 0, "first cycle runs cold");
        assert!(first.stats.cells_measured > 0);
        assert_eq!(first.stats.merged_inputs, 30);
        assert_eq!(first.artifact.trained_inputs, 30);
        assert_eq!(first.artifact.revision, 1);

        // Cycle 2: more journaled inputs arrive (appended to the same
        // journal — the writer resumes its sequence numbers); indices
        // shift, but the fingerprint-keyed cache re-keys yesterday's
        // cells.
        let shifted2 = synthetic_corpus(4, 13);
        journal_inputs(&jdir1, &shifted2, 1024);
        let mut corpus2 = CorpusStore::new(64);
        compact_journal(&jdir1, &mut corpus2).unwrap();
        assert!(corpus2.len() > corpus.len());
        let cold = retrain_from_corpus(&b, &base, &opts, &engine, &corpus2, None, 2).unwrap();
        let warm =
            retrain_from_corpus(&b, &base, &opts, &engine, &corpus2, Some(&cache_path), 2).unwrap();
        assert!(
            warm.stats.warm_cells > 0,
            "previous cycle's cells warm-start: {:?}",
            warm.stats
        );
        assert!(
            warm.stats.cells_measured < cold.stats.cells_measured,
            "warm cells replace fresh measurement: warm {:?} vs cold {:?}",
            warm.stats,
            cold.stats
        );
        assert_eq!(warm.stats.merged_inputs, 24 + corpus2.len() as u64);
        assert_eq!(
            warm.artifact.to_document(),
            cold.artifact.to_document(),
            "the warm start changes cost, never results"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_payload_the_benchmark_refuses_is_skipped_not_fatal() {
        use intune_binpacklib::{BinPacking, PackCorpus};
        let jdir = tmp("refused");
        let b = BinPacking::new(64);
        let base = PackCorpus::synthetic(12, 8, 32, 3).inputs;
        let journaled = PackCorpus::synthetic(4, 8, 32, 4).inputs;
        // An item above the bin capacity: `run` refuses it, so a decoder
        // that accepted it would fail every cycle over this corpus.
        let refused = vec![2.0, 0.5];
        let mut w = JournalWriter::open(&jdir, JournalOptions::default()).unwrap();
        for items in journaled.iter().chain([&refused]) {
            w.append(JournalRecord {
                seq: 0,
                revision: 0,
                landmark: 0,
                out_of_distribution: false,
                fell_back: false,
                features: b.extract_all(items),
                payload: b.encode_input(items),
                trace_id: None,
            })
            .unwrap();
        }
        let mut corpus = CorpusStore::new(64);
        compact_journal(&jdir, &mut corpus).unwrap();
        assert_eq!(corpus.len(), 5);

        let engine = Engine::serial();
        let model =
            retrain_from_corpus(&b, &base, &train_options(), &engine, &corpus, None, 1).unwrap();
        assert_eq!(model.stats.skipped_payloads, 1);
        assert_eq!(model.stats.new_inputs, 4);
        assert_eq!(model.stats.merged_inputs, 16);
        std::fs::remove_dir_all(&jdir).ok();
    }

    #[test]
    fn retraining_is_worker_count_invariant() {
        let dir = tmp("det");
        let jdir = dir.join("j");
        journal_inputs(&jdir, &synthetic_corpus(8, 5), 1024);
        let mut corpus = CorpusStore::new(64);
        compact_journal(&jdir, &mut corpus).unwrap();
        let base = synthetic_corpus(24, 0);
        let opts = train_options();
        let docs: Vec<String> = [1usize, 4]
            .iter()
            .map(|&threads| {
                retrain_from_corpus(
                    &Synthetic,
                    &base,
                    &opts,
                    &Engine::new(threads),
                    &corpus,
                    None,
                    7,
                )
                .unwrap()
                .artifact
                .to_document()
            })
            .collect();
        assert_eq!(
            docs[0], docs[1],
            "same corpus must retrain to byte-identical artifacts at any worker count"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_journal_dir_is_an_empty_journal() {
        let mut corpus = CorpusStore::new(8);
        let report =
            compact_journal(Path::new("/nonexistent/intune-journal"), &mut corpus).unwrap();
        assert_eq!(report, CompactionReport::default());
    }
}
