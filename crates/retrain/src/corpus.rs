//! The persistent input corpus: journal segments compacted into a
//! deduplicated, capacity-bounded store with streaming per-feature
//! statistics.
//!
//! A journal is an unbounded log of everything a daemon served; a corpus
//! is the bounded, deduplicated distillation retraining actually
//! consumes. Compaction folds journal records in one at a time:
//!
//! * **dedup** — records are keyed by the canonical bytes of their
//!   feature vector, so replay echoes (the retrain controller re-sends
//!   corpus vectors to warm a staged shadow) and genuinely recurring
//!   inputs merge into one entry with an observation count;
//! * **capacity bound** — above `capacity` entries the store keeps a
//!   deterministic reservoir: every record carries a priority hashed from
//!   its identity and sequence number (a per-record seed, no RNG state),
//!   and the highest-priority entry is evicted. The surviving set depends
//!   only on the journal's contents — same journal, same corpus, any
//!   process, any thread count;
//! * **streaming statistics** — Welford mean/variance plus min/max per
//!   feature slot over *all* offered records (evicted ones included), so
//!   the observed production distribution survives the down-sampling;
//! * **payloads parsed on keep** — a record arrives as a
//!   [`LazyRecord`], its raw-input payload still text, and the payload is
//!   parsed only for a new entry that survives the reservoir draw or an
//!   upgrade of a payload-less entry. Duplicates, rejected and stale
//!   records never pay for a parse.
//!
//! The store persists as one checksummed document
//! (`intune-input-corpus/1`) and tracks **cycle evidence** — journaled
//! records, out-of-distribution flags, and new retrainable inputs since
//! the last retrain cycle — which is what the
//! [`RetrainPolicy`](crate::RetrainPolicy) decides on.

use intune_core::{codec, Benchmark, Error, Result};
use intune_serve::LazyRecord;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::HashMap;
use std::path::Path;

/// Envelope schema name of persisted corpora.
pub const CORPUS_SCHEMA: &str = "intune-input-corpus";
/// Current corpus schema version.
pub const CORPUS_VERSION: u32 = 1;

/// One deduplicated input in the corpus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusEntry {
    /// Dedup identity: FNV-1a 64 of the canonical feature-vector JSON.
    pub key: u64,
    /// Journal sequence number of the first observation.
    pub first_seq: u64,
    /// Deterministic reservoir priority (hash of key ⊕ first_seq); the
    /// highest priority is evicted first when the corpus is full.
    pub priority: u64,
    /// How many journal records merged into this entry.
    pub count: u64,
    /// Landmark served at first observation (selection evidence).
    pub landmark: u64,
    /// The served feature vector.
    pub features: intune_core::FeatureVector,
    /// Raw-input payload (`Benchmark::encode_input`), when any merged
    /// record carried one — the part retraining can re-measure.
    pub payload: Option<Value>,
}

/// Streaming statistics of one feature slot (Welford's algorithm).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FeatureStat {
    /// Observations folded in.
    pub count: u64,
    /// Running mean.
    pub mean: f64,
    /// Sum of squared deviations (variance = m2 / (count - 1)).
    pub m2: f64,
    /// Smallest value seen.
    pub min: f64,
    /// Largest value seen.
    pub max: f64,
}

impl FeatureStat {
    fn empty() -> Self {
        FeatureStat {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn observe(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }
}

/// How the corpus draws reservoir priorities for newly-admitted entries.
///
/// A runtime-only knob, deliberately **not** persisted in the corpus
/// document: the saved bytes of a corpus built under the default policy
/// are identical to what every earlier version wrote, and a reloaded
/// corpus defaults back to [`AdmissionPolicy::UniformHash`] until the
/// operator opts in again.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// The classic deterministic reservoir: priority is a pure hash of
    /// the record's identity and sequence number, so every unique input
    /// has an equal chance of surviving the capacity bound.
    #[default]
    UniformHash,
    /// Novelty-weighted admission: the hash draw becomes the tiebreak
    /// and the leading bits of the priority encode how far the record
    /// sits from the per-slot streaming means (mean |z| over slots with
    /// at least two observations and positive variance, measured
    /// *before* the record updates the stats). Far-from-distribution
    /// inputs outlive near-duplicates at a fixed capacity — the corpus
    /// keeps the inputs retraining learns the most from. Records scored
    /// while the statistics are immature (no qualifying slot) count as
    /// maximally novel.
    Novelty,
}

/// What happened to one journal record offered to the corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// A new entry was added (possibly evicting another).
    Added,
    /// The record merged into an existing entry.
    Merged,
    /// The corpus is full and the record lost its reservoir draw.
    Rejected,
    /// The record's sequence number was already absorbed (re-compaction
    /// of a segment seen before).
    Stale,
}

/// Evidence accumulated since the last retrain cycle — the input of
/// [`RetrainPolicy::decide`](crate::RetrainPolicy::decide).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleEvidence {
    /// Journal records offered since the last cycle (duplicates included).
    pub offered: u64,
    /// Of those, how many the serving drift probe flagged
    /// out-of-distribution.
    pub ood: u64,
    /// New retrainable inputs (unique, payload-carrying) since the last
    /// cycle.
    pub new_inputs: u64,
}

impl CycleEvidence {
    /// Out-of-distribution fraction among records offered this cycle.
    pub fn drift_rate(&self) -> f64 {
        intune_exec::hit_rate(self.ood, self.offered)
    }
}

/// Serialized form of the store (everything but the rebuildable index).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CorpusDoc {
    capacity: u64,
    next_seq: u64,
    offered: u64,
    deduped: u64,
    evicted: u64,
    rejected: u64,
    cycles: u64,
    offered_since_cycle: u64,
    ood_since_cycle: u64,
    new_since_cycle: u64,
    stats: Vec<FeatureStat>,
    entries: Vec<CorpusEntry>,
}

/// The deduplicated, capacity-bounded input corpus (see module docs).
#[derive(Debug)]
pub struct CorpusStore {
    doc: CorpusDoc,
    /// key → index into `doc.entries`; rebuilt on load and after evicts.
    index: HashMap<u64, usize>,
    /// Runtime-only admission knob (see [`AdmissionPolicy`]).
    policy: AdmissionPolicy,
    /// Payloads parsed by offers since this store was built or loaded
    /// (runtime only, never persisted).
    payloads_parsed: u64,
}

impl CorpusStore {
    /// An empty corpus bounded at `capacity` unique entries (≥ 1).
    pub fn new(capacity: usize) -> Self {
        CorpusStore {
            doc: CorpusDoc {
                capacity: capacity.max(1) as u64,
                next_seq: 0,
                offered: 0,
                deduped: 0,
                evicted: 0,
                rejected: 0,
                cycles: 0,
                offered_since_cycle: 0,
                ood_since_cycle: 0,
                new_since_cycle: 0,
                stats: Vec::new(),
                entries: Vec::new(),
            },
            index: HashMap::new(),
            policy: AdmissionPolicy::default(),
            payloads_parsed: 0,
        }
    }

    /// Loads a corpus persisted by [`CorpusStore::save`].
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] on IO failure, checksum mismatch, or a
    /// malformed payload.
    pub fn load(path: &Path) -> Result<Self> {
        let payload = codec::read_document(path, CORPUS_SCHEMA, CORPUS_VERSION)?;
        let doc: CorpusDoc = serde_json::from_value(&payload)
            .map_err(|e| Error::artifact(format!("malformed corpus payload: {e}")))?;
        let index = doc
            .entries
            .iter()
            .enumerate()
            .map(|(i, e)| (e.key, i))
            .collect();
        Ok(CorpusStore {
            doc,
            index,
            policy: AdmissionPolicy::default(),
            payloads_parsed: 0,
        })
    }

    /// [`CorpusStore::load`] when `path` exists, otherwise a fresh corpus
    /// at `capacity`. The requested capacity is applied either way — an
    /// operator shrinking `--capacity` against an existing corpus gets
    /// the bound they asked for (excess entries are evicted by the same
    /// highest-priority rule the reservoir uses), not a silently-ignored
    /// knob.
    ///
    /// # Errors
    /// Same as [`CorpusStore::load`].
    pub fn load_or_new(path: &Path, capacity: usize) -> Result<Self> {
        if path.exists() {
            let mut store = Self::load(path)?;
            store.set_capacity(capacity);
            Ok(store)
        } else {
            Ok(Self::new(capacity))
        }
    }

    /// Re-bounds the corpus at `capacity` (≥ 1), evicting
    /// highest-priority entries until it fits — the reservoir rule,
    /// applied retroactively.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.doc.capacity = capacity.max(1) as u64;
        while self.doc.entries.len() as u64 > self.doc.capacity {
            let victim = self
                .doc
                .entries
                .iter()
                .enumerate()
                .max_by_key(|(_, e)| e.priority)
                .map(|(i, _)| i)
                .expect("non-empty corpus");
            let evicted = self.doc.entries.remove(victim);
            self.index.remove(&evicted.key);
            self.doc.evicted += 1;
        }
        self.index = self
            .doc
            .entries
            .iter()
            .enumerate()
            .map(|(i, e)| (e.key, i))
            .collect();
    }

    /// Persists the corpus as a checksummed document — deterministic:
    /// the same corpus state writes the same bytes.
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] when the file cannot be written.
    pub fn save(&self, path: &Path) -> Result<()> {
        codec::write_document(
            path,
            CORPUS_SCHEMA,
            CORPUS_VERSION,
            serde_json::to_value(&self.doc),
        )
    }

    /// Selects how new entries draw their reservoir priority. Applies to
    /// offers from this point on; already-admitted entries keep the
    /// priority they were admitted under.
    pub fn set_admission_policy(&mut self, policy: AdmissionPolicy) {
        self.policy = policy;
    }

    /// The active admission policy.
    pub fn admission_policy(&self) -> AdmissionPolicy {
        self.policy
    }

    /// Folds one journal record in (see module docs for dedup, reservoir
    /// and statistics semantics). Records whose sequence number was
    /// already absorbed are ignored ([`Offer::Stale`]), which makes
    /// re-compaction of a previously-seen segment idempotent.
    ///
    /// The record's payload is parsed only when the corpus keeps it: for
    /// a new entry that survives the reservoir draw, or to upgrade a
    /// known vector's payload-less entry. No other payload is parsed.
    pub fn offer(&mut self, record: &LazyRecord<'_>) -> Offer {
        self.offer_impl(record, false)
    }

    /// [`CorpusStore::offer`] without counting the record into the cycle
    /// evidence (`offered`/`ood`/`new_inputs` stay untouched; lifetime
    /// counters, dedup, stats and the reservoir all still apply). The
    /// retrain controller uses this to absorb its **own** mirror-replay
    /// echoes at the end of a cycle: journaled like any primary answer,
    /// they must not masquerade as fresh production evidence — a
    /// drift-responsive policy fed its own echoes would retrain in a
    /// self-sustaining loop.
    pub fn offer_quiet(&mut self, record: &LazyRecord<'_>) -> Offer {
        self.offer_impl(record, true)
    }

    fn offer_impl(&mut self, lazy: &LazyRecord<'_>, quiet: bool) -> Offer {
        let record = &lazy.record;
        let has_payload = lazy.payload_text().is_some();
        if record.seq < self.doc.next_seq {
            return Offer::Stale;
        }
        self.doc.next_seq = record.seq + 1;
        self.doc.offered += 1;
        if !quiet {
            self.doc.offered_since_cycle += 1;
            if record.out_of_distribution {
                self.doc.ood_since_cycle += 1;
            }
        }

        // Novelty is scored against the statistics as they stood *before*
        // this record — a record must not dilute its own distance.
        let dense = record.features.dense();
        let novelty = match self.policy {
            AdmissionPolicy::UniformHash => None,
            AdmissionPolicy::Novelty => Some(novelty_score(&self.doc.stats, &dense)),
        };

        // Streaming per-slot statistics over every offered record.
        if self.doc.stats.is_empty() {
            self.doc.stats = vec![FeatureStat::empty(); dense.len()];
        }
        if self.doc.stats.len() == dense.len() {
            for (stat, x) in self.doc.stats.iter_mut().zip(&dense) {
                if x.is_finite() {
                    stat.observe(*x);
                }
            }
        }

        let key = feature_key(&record.features);
        if let Some(&at) = self.index.get(&key) {
            let entry = &mut self.doc.entries[at];
            entry.count += 1;
            self.doc.deduped += 1;
            if entry.payload.is_none() && has_payload {
                // A known vector finally arrived with its raw input: the
                // corpus just gained a retrainable example.
                entry.payload = lazy.parse_payload();
                self.payloads_parsed += 1;
                if !quiet {
                    self.doc.new_since_cycle += 1;
                }
            }
            return Offer::Merged;
        }

        let entry = CorpusEntry {
            key,
            first_seq: record.seq,
            priority: match novelty {
                None => reservoir_priority(key, record.seq),
                Some(score) => novelty_priority(score, key, record.seq),
            },
            count: 1,
            landmark: record.landmark,
            features: record.features.clone(),
            // Filled in below once the entry survives the draw.
            payload: None,
        };
        self.index.insert(key, self.doc.entries.len());
        self.doc.entries.push(entry);

        if self.doc.entries.len() as u64 > self.doc.capacity {
            let victim = self
                .doc
                .entries
                .iter()
                .enumerate()
                .max_by_key(|(_, e)| e.priority)
                .map(|(i, _)| i)
                .expect("non-empty corpus");
            let lost_the_draw = victim == self.doc.entries.len() - 1;
            let evicted = self.doc.entries.remove(victim);
            self.index.remove(&evicted.key);
            for (i, e) in self.doc.entries.iter().enumerate().skip(victim) {
                self.index.insert(e.key, i);
            }
            if lost_the_draw {
                self.doc.rejected += 1;
                return Offer::Rejected;
            }
            self.doc.evicted += 1;
        }
        if has_payload {
            // An eviction shifts only earlier entries: the new one is last.
            let entry = self.doc.entries.last_mut().expect("the new entry");
            entry.payload = lazy.parse_payload();
            self.payloads_parsed += 1;
            if !quiet {
                self.doc.new_since_cycle += 1;
            }
        }
        Offer::Added
    }

    /// Payloads parsed by [`CorpusStore::offer`] and
    /// [`CorpusStore::offer_quiet`] since this store was built or loaded.
    pub fn payloads_parsed(&self) -> u64 {
        self.payloads_parsed
    }

    /// The surviving entries, ascending by first observation.
    pub fn entries(&self) -> &[CorpusEntry] {
        &self.doc.entries
    }

    /// Number of unique entries currently held.
    pub fn len(&self) -> usize {
        self.doc.entries.len()
    }

    /// Whether the corpus holds no entries.
    pub fn is_empty(&self) -> bool {
        self.doc.entries.is_empty()
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.doc.capacity as usize
    }

    /// First journal sequence number not yet absorbed.
    pub fn next_seq(&self) -> u64 {
        self.doc.next_seq
    }

    /// Total journal records offered over the corpus's lifetime.
    pub fn offered(&self) -> u64 {
        self.doc.offered
    }

    /// Records merged into existing entries over the lifetime.
    pub fn deduped(&self) -> u64 {
        self.doc.deduped
    }

    /// Entries evicted by the reservoir bound over the lifetime
    /// (records rejected on arrival count separately).
    pub fn evicted(&self) -> u64 {
        self.doc.evicted
    }

    /// Retrain cycles marked on this corpus.
    pub fn cycles(&self) -> u64 {
        self.doc.cycles
    }

    /// Per-feature-slot streaming statistics over all offered records.
    pub fn feature_stats(&self) -> &[FeatureStat] {
        &self.doc.stats
    }

    /// Evidence accumulated since the last retrain cycle.
    pub fn evidence(&self) -> CycleEvidence {
        CycleEvidence {
            offered: self.doc.offered_since_cycle,
            ood: self.doc.ood_since_cycle,
            new_inputs: self.doc.new_since_cycle,
        }
    }

    /// Marks a retrain cycle: bumps the cycle counter and re-arms the
    /// cycle evidence. Called after a retrain *attempt* (promoted or
    /// refused), so the policy's cooldown spans attempts, not successes.
    pub fn mark_cycle(&mut self) {
        self.doc.cycles += 1;
        self.doc.offered_since_cycle = 0;
        self.doc.ood_since_cycle = 0;
        self.doc.new_since_cycle = 0;
    }

    /// Decodes the corpus's payload-carrying entries back into benchmark
    /// inputs, in first-observation order — the journaled half of a
    /// retraining run. Returns the inputs and how many payload-carrying
    /// entries failed to decode (foreign or corrupt payloads are skipped,
    /// never fatal).
    pub fn retrain_inputs<B: Benchmark>(&self, benchmark: &B) -> (Vec<B::Input>, u64) {
        let mut inputs = Vec::new();
        let mut skipped = 0u64;
        for entry in &self.doc.entries {
            if let Some(payload) = &entry.payload {
                match benchmark.decode_input(payload) {
                    Some(input) => inputs.push(input),
                    None => skipped += 1,
                }
            }
        }
        (inputs, skipped)
    }
}

/// Dedup identity of a feature vector: FNV-1a 64 over its canonical JSON.
pub fn feature_key(features: &intune_core::FeatureVector) -> u64 {
    let canonical = serde_json::to_string(&serde_json::to_value(features))
        .expect("value printing is infallible");
    codec::fnv1a64(canonical.as_bytes())
}

/// Deterministic reservoir priority: a per-record seed hashed from the
/// record's identity and sequence number. No RNG state, so compaction is
/// reproducible from the journal alone.
fn reservoir_priority(key: u64, seq: u64) -> u64 {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&key.to_le_bytes());
    bytes[8..].copy_from_slice(&seq.to_le_bytes());
    codec::fnv1a64(&bytes)
}

/// Distance of one dense vector from the corpus's streaming means: the
/// mean absolute z-score over slots with at least two observations and
/// positive variance. Infinite (maximally novel) when no slot qualifies
/// — immature statistics must not condemn early records.
fn novelty_score(stats: &[FeatureStat], dense: &[f64]) -> f64 {
    let mut sum = 0.0;
    let mut slots = 0u32;
    for (stat, x) in stats.iter().zip(dense) {
        if stat.count < 2 || !x.is_finite() {
            continue;
        }
        let sd = stat.variance().sqrt();
        if sd > 0.0 {
            sum += ((x - stat.mean) / sd).abs();
            slots += 1;
        }
    }
    if slots == 0 {
        f64::INFINITY
    } else {
        sum / f64::from(slots)
    }
}

/// Novelty-weighted reservoir priority: the quantized score occupies the
/// high 32 bits (inverted — eviction takes the *maximum* priority, so
/// higher novelty must map lower) and the uniform hash draw survives in
/// the low 32 bits as the deterministic tiebreak between equally-novel
/// records.
fn novelty_priority(score: f64, key: u64, seq: u64) -> u64 {
    let quantized = if score.is_finite() {
        (score * 1024.0).min(u32::MAX as f64) as u64
    } else {
        u64::from(u32::MAX)
    };
    ((u64::from(u32::MAX) - quantized) << 32) | (reservoir_priority(key, seq) & 0xffff_ffff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use intune_core::{FeatureDef, FeatureId, FeatureSample, FeatureVector};

    fn features(kind: f64, size: f64) -> FeatureVector {
        let defs = [FeatureDef::new("kind", 1), FeatureDef::new("size", 1)];
        let mut fv = FeatureVector::empty(&defs);
        fv.insert(
            FeatureId {
                property: 0,
                level: 0,
            },
            FeatureSample::new(kind, 1.0),
        )
        .unwrap();
        fv.insert(
            FeatureId {
                property: 1,
                level: 0,
            },
            FeatureSample::new(size, 2.0),
        )
        .unwrap();
        fv
    }

    fn record(seq: u64, kind: f64, size: f64, ood: bool, payload: bool) -> LazyRecord<'static> {
        intune_serve::JournalRecord {
            seq,
            revision: 1,
            landmark: kind as u64,
            out_of_distribution: ood,
            fell_back: false,
            features: features(kind, size),
            payload: payload.then(|| Value::Array(vec![Value::Float(kind), Value::Float(size)])),
            trace_id: None,
        }
        .into()
    }

    #[test]
    fn dedup_merges_and_payload_upgrades_count_as_new() {
        let mut c = CorpusStore::new(8);
        assert_eq!(c.offer(&record(0, 1.0, 10.0, false, false)), Offer::Added);
        assert_eq!(c.offer(&record(1, 1.0, 10.0, false, false)), Offer::Merged);
        assert_eq!(
            c.evidence().new_inputs,
            0,
            "payload-free entries are not retrainable"
        );
        // Same vector arrives with its raw input: now it counts.
        assert_eq!(c.offer(&record(2, 1.0, 10.0, false, true)), Offer::Merged);
        assert_eq!(c.evidence().new_inputs, 1);
        assert_eq!(c.len(), 1);
        assert_eq!(c.entries()[0].count, 3);
        assert_eq!(c.deduped(), 2);
        // Stale sequence numbers are idempotently ignored.
        assert_eq!(c.offer(&record(1, 9.0, 9.0, false, true)), Offer::Stale);
        assert_eq!(c.offered(), 3);
    }

    #[test]
    fn capacity_bound_is_a_deterministic_reservoir() {
        let offer_all = |cap: usize, n: u64| -> Vec<u64> {
            let mut c = CorpusStore::new(cap);
            for seq in 0..n {
                c.offer(&record(seq, seq as f64, 100.0 + seq as f64, false, true));
            }
            assert!(c.len() <= cap);
            c.entries().iter().map(|e| e.first_seq).collect()
        };
        let a = offer_all(6, 40);
        let b = offer_all(6, 40);
        assert_eq!(a, b, "same journal, same survivors");
        assert_eq!(a.len(), 6);
        let sorted = {
            let mut s = a.clone();
            s.sort_unstable();
            s
        };
        assert_eq!(a, sorted, "entries stay in first-observation order");
    }

    #[test]
    fn novelty_policy_displaces_near_duplicates_with_far_inputs() {
        // A tight cluster of near-duplicate inputs fills the corpus,
        // then a stream of far-from-distribution inputs arrives (each
        // far from the cluster *and* from the previously-absorbed
        // outliers, so every one scores novel at admission time).
        let build = |policy: AdmissionPolicy| {
            let mut c = CorpusStore::new(4);
            c.set_admission_policy(policy);
            for seq in 0..16 {
                c.offer(&record(
                    seq,
                    1.0,
                    100.0 + (seq % 8) as f64 * 0.25,
                    false,
                    true,
                ));
            }
            for (i, seq) in (16u64..19).enumerate() {
                let size = [1e4, 1e6, 1e8][i];
                c.offer(&record(seq, 1.0, size, false, true));
            }
            c
        };

        let novel = build(AdmissionPolicy::Novelty);
        assert_eq!(novel.len(), 4);
        let outliers = novel
            .entries()
            .iter()
            .filter(|e| e.features.dense()[1] >= 1e4)
            .count();
        // The first cluster records were admitted while the statistics
        // were immature (maximally novel by definition), so up to two of
        // them keep their protected slots; every other cluster member is
        // displaced by the novel stream.
        assert!(
            outliers >= 2,
            "novel inputs must displace near-duplicates, kept {outliers} of 3: {:?}",
            novel
                .entries()
                .iter()
                .map(|e| e.first_seq)
                .collect::<Vec<_>>()
        );
        // Deterministic like the uniform reservoir: same stream, same
        // survivors.
        let again = build(AdmissionPolicy::Novelty);
        assert_eq!(again.entries(), novel.entries());

        // The default policy still assigns the pure hash draw, so an
        // operator who never opts in gets byte-identical corpora to
        // every earlier version.
        let uniform = build(AdmissionPolicy::UniformHash);
        for e in uniform.entries() {
            assert_eq!(e.priority, reservoir_priority(e.key, e.first_seq));
        }
    }

    #[test]
    fn cycle_evidence_tracks_ood_and_rearms() {
        let mut c = CorpusStore::new(8);
        for seq in 0..6 {
            c.offer(&record(seq, seq as f64, 10.0, seq % 2 == 0, true));
        }
        let ev = c.evidence();
        assert_eq!(ev.offered, 6);
        assert_eq!(ev.ood, 3);
        assert_eq!(ev.new_inputs, 6);
        assert!((ev.drift_rate() - 0.5).abs() < 1e-12);
        c.mark_cycle();
        assert_eq!(c.cycles(), 1);
        let ev = c.evidence();
        assert_eq!((ev.offered, ev.ood, ev.new_inputs), (0, 0, 0));
        assert_eq!(c.offered(), 6, "lifetime counters keep counting");
    }

    #[test]
    fn feature_stats_stream_over_all_offers_including_duplicates() {
        let mut c = CorpusStore::new(2);
        for (seq, size) in [(0u64, 10.0), (1, 20.0), (2, 30.0), (3, 20.0)] {
            c.offer(&record(seq, 1.0, size, false, false));
        }
        let stats = c.feature_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[1].count, 4);
        assert!((stats[1].mean - 20.0).abs() < 1e-12);
        assert_eq!(stats[1].min, 10.0);
        assert_eq!(stats[1].max, 30.0);
        // Welford matches the two-pass variance.
        let xs = [10.0f64, 20.0, 30.0, 20.0];
        let mean = xs.iter().sum::<f64>() / 4.0;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / 3.0;
        assert!((stats[1].variance() - var).abs() < 1e-12);
    }

    #[test]
    fn quiet_offers_feed_dedup_and_stats_but_never_cycle_evidence() {
        let mut c = CorpusStore::new(8);
        c.offer(&record(0, 1.0, 10.0, true, true));
        let loud = c.evidence();
        // Echo traffic absorbed quietly: lifetime counters, dedup and
        // stats move; the retrain evidence does not.
        assert_eq!(
            c.offer_quiet(&record(1, 1.0, 10.0, true, true)),
            Offer::Merged
        );
        assert_eq!(
            c.offer_quiet(&record(2, 9.0, 90.0, true, true)),
            Offer::Added
        );
        assert_eq!(c.evidence(), loud, "quiet offers leave evidence untouched");
        assert_eq!(c.offered(), 3);
        assert_eq!(c.len(), 2);
        assert_eq!(c.feature_stats()[0].count, 3);
        assert_eq!(c.next_seq(), 3, "watermark still advances");
    }

    #[test]
    fn load_or_new_applies_the_requested_capacity() {
        let dir = intune_core::unique_temp_dir("corpus-cap");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.json");
        let mut c = CorpusStore::new(64);
        for seq in 0..10 {
            c.offer(&record(seq, seq as f64, 10.0 * seq as f64, false, true));
        }
        c.save(&path).unwrap();

        // Shrinking --capacity against an existing corpus takes effect:
        // excess entries are evicted by the reservoir rule.
        let shrunk = CorpusStore::load_or_new(&path, 4).unwrap();
        assert_eq!(shrunk.capacity(), 4);
        assert_eq!(shrunk.len(), 4);
        // Deterministic: reloading shrinks to the same survivors.
        let again = CorpusStore::load_or_new(&path, 4).unwrap();
        assert_eq!(again.entries(), shrunk.entries());
    }

    #[test]
    fn save_load_round_trips_bit_identically() {
        let mut c = CorpusStore::new(4);
        for seq in 0..9 {
            c.offer(&record(
                seq,
                (seq % 3) as f64,
                10.0 * seq as f64,
                seq % 4 == 0,
                seq % 2 == 0,
            ));
        }
        c.mark_cycle();
        c.offer(&record(9, 7.0, 7.0, true, true));

        let dir = intune_core::unique_temp_dir("corpus");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.json");
        c.save(&path).unwrap();
        let loaded = CorpusStore::load(&path).unwrap();
        assert_eq!(loaded.entries(), c.entries());
        assert_eq!(loaded.evidence(), c.evidence());
        assert_eq!(loaded.next_seq(), c.next_seq());
        assert_eq!(loaded.cycles(), 1);
        assert_eq!(loaded.feature_stats(), c.feature_stats());
        // Re-saving writes the same bytes.
        let again = dir.join("corpus2.json");
        loaded.save(&again).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&again).unwrap()
        );
        // Tampering is rejected.
        let text = std::fs::read_to_string(&path).unwrap();
        let tampered = text.replacen("\"count\"", "\"c0unt\"", 1);
        assert_ne!(tampered, text, "tamper site must exist");
        std::fs::write(&path, tampered).unwrap();
        assert!(CorpusStore::load(&path).is_err());
    }
}
