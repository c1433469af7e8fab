//! Memoized `(input, configuration) → ExecutionReport` cost cache.
//!
//! Every layer of the two-level pipeline re-measures the same cells: the
//! landmark autotuner evaluates configurations on a representative input,
//! the `PerfMatrix` then re-runs the winning configurations on *all*
//! inputs (including that representative), the oracle baselines re-use the
//! matrix, and deployment evaluation measures landmarks again on a test
//! corpus. [`CostCache`] makes the measurement a reusable budget: a cell
//! measured once is never run again within the same corpus.
//!
//! Keys are exact: [`ConfigKey`] canonicalizes a [`Configuration`] by value
//! (floats by bit pattern), so two configurations hash equal iff the
//! benchmark would be handed identical parameter values. A cache is scoped
//! to one input corpus — input indices from different corpora must not
//! share a cache (the engine's callers create one cache per corpus).

use intune_core::{codec, Configuration, Error, ExecutionReport, ParamValue, Result};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::HashMap;
use std::path::Path;

/// Envelope schema name of persisted cost caches.
pub const CACHE_SCHEMA: &str = "intune-cost-cache";
/// Current cost-cache schema version.
pub const CACHE_VERSION: u32 = 1;

/// The workspace's one hit-rate definition: hits over total requests,
/// zero when nothing was requested. Every surface that reports a rate
/// (cache stats, engine stats, training stats) derives it from here so
/// they can never disagree.
pub fn hit_rate(hits: u64, requested: u64) -> f64 {
    if requested == 0 {
        0.0
    } else {
        hits as f64 / requested as f64
    }
}

/// One canonicalized parameter value (floats by IEEE-754 bit pattern, so
/// the key is `Eq + Hash` while staying exact — and serializes without
/// rounding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
enum CanonValue {
    Choice(usize),
    Int(i64),
    FloatBits(u64),
}

/// An exact, hashable identity for a [`Configuration`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConfigKey(Vec<CanonValue>);

impl ConfigKey {
    /// Canonicalizes a configuration.
    pub fn of(cfg: &Configuration) -> Self {
        ConfigKey(
            cfg.values()
                .iter()
                .map(|v| match *v {
                    ParamValue::Choice(c) => CanonValue::Choice(c),
                    ParamValue::Int(i) => CanonValue::Int(i),
                    ParamValue::Float(f) => CanonValue::FloatBits(f.to_bits()),
                })
                .collect(),
        )
    }

    /// A stable 64-bit FNV-1a fingerprint of the key, used to derive
    /// per-cell RNG seeds (not for cache identity — the full key is).
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |byte: u8| {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for v in &self.0 {
            let (tag, bits) = match *v {
                CanonValue::Choice(c) => (1u8, c as u64),
                CanonValue::Int(i) => (2u8, i as u64),
                CanonValue::FloatBits(b) => (3u8, b),
            };
            eat(tag);
            for b in bits.to_le_bytes() {
                eat(b);
            }
        }
        h
    }
}

/// Hit/miss accounting of a [`CostCache`] (monotone counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from memory.
    pub hits: u64,
    /// Lookups that required a fresh measurement.
    pub misses: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when no lookups yet).
    pub fn hit_rate(&self) -> f64 {
        hit_rate(self.hits, self.hits + self.misses)
    }
}

/// Memoized measurement results for one input corpus.
///
/// Stored as per-input maps so lookups borrow the caller's [`ConfigKey`]
/// without cloning it — the warm-cache path is allocation-free.
#[derive(Debug, Clone, Default)]
pub struct CostCache {
    map: HashMap<usize, HashMap<ConfigKey, ExecutionReport>>,
    entries: usize,
    stats: CacheStats,
}

impl CostCache {
    /// An empty cache.
    pub fn new() -> Self {
        CostCache::default()
    }

    /// Looks up a cell, counting a hit or a miss.
    pub fn lookup(&mut self, input_idx: usize, key: &ConfigKey) -> Option<ExecutionReport> {
        match self.map.get(&input_idx).and_then(|per| per.get(key)) {
            Some(&report) => {
                self.stats.hits += 1;
                Some(report)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Peeks at a cell without touching the hit/miss counters.
    pub fn peek(&self, input_idx: usize, key: &ConfigKey) -> Option<ExecutionReport> {
        self.map
            .get(&input_idx)
            .and_then(|per| per.get(key))
            .copied()
    }

    /// Stores a measured cell.
    pub fn insert(&mut self, input_idx: usize, key: ConfigKey, report: ExecutionReport) {
        if self
            .map
            .entry(input_idx)
            .or_default()
            .insert(key, report)
            .is_none()
        {
            self.entries += 1;
        }
    }

    /// Number of memoized cells.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether no cell has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Re-keys every memoized cell through an input-index mapping,
    /// dropping cells whose input maps to `None`. Caches are keyed by
    /// input *index* within one corpus; when a corpus evolves — the
    /// continuous-learning retrainer merges the base corpus with
    /// journaled production inputs, and reservoir eviction shifts
    /// positions — this is how yesterday's measurements stay valid:
    /// match inputs by identity fingerprint, build the old→new index
    /// map, and remap instead of re-measuring. The result starts with
    /// fresh (zeroed) hit/miss counters.
    pub fn remap_inputs(self, map: impl Fn(usize) -> Option<usize>) -> CostCache {
        let mut out = CostCache::new();
        for (old_idx, cells) in self.map {
            if let Some(new_idx) = map(old_idx) {
                for (key, report) in cells {
                    out.insert(new_idx, key, report);
                }
            }
        }
        out
    }

    /// Serializes the memoized cells (not the hit/miss counters) into a
    /// deterministic [`Value`]: inputs ascending, cells within an input
    /// ordered by canonical key text — saving the same cache twice yields
    /// byte-identical documents regardless of hash-map iteration order.
    pub fn to_value(&self) -> Value {
        let mut inputs: Vec<_> = self.map.iter().collect();
        inputs.sort_by_key(|(idx, _)| **idx);
        let inputs = inputs
            .into_iter()
            .map(|(idx, cells)| {
                let mut cells: Vec<(String, Value)> = cells
                    .iter()
                    .map(|(key, report)| {
                        let key_value = serde_json::to_value(key);
                        let order = serde_json::to_string(&key_value)
                            .expect("value printing is infallible");
                        let entry = Value::Object(vec![
                            ("key".to_string(), key_value),
                            ("report".to_string(), serde_json::to_value(report)),
                        ]);
                        (order, entry)
                    })
                    .collect();
                cells.sort_by(|(a, _), (b, _)| a.cmp(b));
                Value::Object(vec![
                    ("input".to_string(), Value::UInt(*idx as u64)),
                    (
                        "cells".to_string(),
                        Value::Array(cells.into_iter().map(|(_, v)| v).collect()),
                    ),
                ])
            })
            .collect();
        Value::Object(vec![("inputs".to_string(), Value::Array(inputs))])
    }

    /// Reconstructs a cache from [`CostCache::to_value`] output. The
    /// result starts with fresh (zeroed) hit/miss counters.
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] when the value's shape is wrong.
    pub fn from_value(value: &Value) -> Result<Self> {
        let bad = |what: &str| Error::artifact(format!("cost cache payload: {what}"));
        let mut cache = CostCache::new();
        let inputs = value
            .get("inputs")
            .and_then(Value::as_array)
            .ok_or_else(|| bad("missing `inputs` array"))?;
        for entry in inputs {
            let idx = entry
                .get("input")
                .and_then(Value::as_u64)
                .ok_or_else(|| bad("missing `input` index"))? as usize;
            let cells = entry
                .get("cells")
                .and_then(Value::as_array)
                .ok_or_else(|| bad("missing `cells` array"))?;
            for cell in cells {
                let key: ConfigKey = cell
                    .get("key")
                    .ok_or_else(|| bad("cell lacks `key`"))
                    .and_then(|v| {
                        serde_json::from_value(v).map_err(|e| bad(&format!("bad key: {e}")))
                    })?;
                let report: ExecutionReport = cell
                    .get("report")
                    .ok_or_else(|| bad("cell lacks `report`"))
                    .and_then(|v| {
                        serde_json::from_value(v).map_err(|e| bad(&format!("bad report: {e}")))
                    })?;
                cache.insert(idx, key, report);
            }
        }
        cache.stats = CacheStats::default();
        Ok(cache)
    }

    /// Persists the memoized cells to `path` as a checksummed, versioned
    /// document, so later runs over the *same corpus* can warm-start via
    /// [`CostCache::load`]. Deterministic: same cells, same bytes.
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] when the file cannot be written.
    pub fn save(&self, path: &Path) -> Result<()> {
        codec::write_document(path, CACHE_SCHEMA, CACHE_VERSION, self.to_value())
    }

    /// Loads a cache persisted by [`CostCache::save`]. The caller is
    /// responsible for pairing the file with the corpus it was measured
    /// on — cells are keyed by input *index*.
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] on IO failure, checksum mismatch,
    /// schema/version mismatch, or a malformed payload.
    pub fn load(path: &Path) -> Result<Self> {
        let payload = codec::read_document(path, CACHE_SCHEMA, CACHE_VERSION)?;
        CostCache::from_value(&payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intune_core::ConfigSpace;

    fn space() -> ConfigSpace {
        ConfigSpace::builder()
            .switch("alg", 3)
            .int("cutoff", 0, 100)
            .float("relax", 0.0, 2.0)
            .build()
    }

    #[test]
    fn config_key_is_exact() {
        use rand::SeedableRng;
        let space = space();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let a = space.random(&mut rng);
        let b = a.clone();
        assert_eq!(ConfigKey::of(&a), ConfigKey::of(&b));
        let c = space.random(&mut rng);
        if c != a {
            assert_ne!(ConfigKey::of(&a), ConfigKey::of(&c));
        }
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        let space = space();
        let a = space.default_config();
        assert_eq!(
            ConfigKey::of(&a).fingerprint(),
            ConfigKey::of(&a).fingerprint()
        );
        let mut b = a.clone();
        b.set(1, intune_core::ParamValue::Int(99));
        assert_ne!(
            ConfigKey::of(&a).fingerprint(),
            ConfigKey::of(&b).fingerprint()
        );
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let space = space();
        let cfg = space.default_config();
        let key = ConfigKey::of(&cfg);
        let mut cache = CostCache::new();

        assert!(cache.lookup(0, &key).is_none());
        cache.insert(0, key.clone(), ExecutionReport::of_cost(7.0));
        assert_eq!(cache.lookup(0, &key).unwrap().cost, 7.0);
        // Same configuration on a different input is a distinct cell.
        assert!(cache.lookup(1, &key).is_none());

        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn peek_does_not_touch_counters() {
        let space = space();
        let key = ConfigKey::of(&space.default_config());
        let mut cache = CostCache::new();
        cache.insert(4, key.clone(), ExecutionReport::of_cost(1.0));
        assert!(cache.peek(4, &key).is_some());
        assert!(cache.peek(5, &key).is_none());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn empty_cache_hit_rate_is_zero() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        assert!(CostCache::new().is_empty());
    }

    fn populated_cache() -> CostCache {
        use rand::SeedableRng;
        let space = space();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut cache = CostCache::new();
        for input in 0..5usize {
            for c in 0..4 {
                let cfg = space.random(&mut rng);
                cache.insert(
                    input,
                    ConfigKey::of(&cfg),
                    ExecutionReport::with_accuracy((input * 10 + c) as f64 + 0.5, 0.25),
                );
            }
        }
        cache
    }

    #[test]
    fn save_load_round_trips_every_cell() {
        let dir = intune_core::unique_temp_dir("cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.cache.json");

        let cache = populated_cache();
        cache.save(&path).unwrap();
        let loaded = CostCache::load(&path).unwrap();
        assert_eq!(loaded.len(), cache.len());
        assert_eq!(loaded.stats(), CacheStats::default(), "counters reset");
        for (input, per) in &cache.map {
            for (key, report) in per {
                assert_eq!(loaded.peek(*input, key), Some(*report));
            }
        }
    }

    #[test]
    fn serialization_is_deterministic() {
        // HashMap iteration order varies; the document must not.
        let a = serde_json::to_string(&populated_cache().to_value()).unwrap();
        let b = serde_json::to_string(&populated_cache().to_value()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn remap_inputs_rekeys_and_drops() {
        let cache = populated_cache();
        let expected: Vec<(usize, ConfigKey, ExecutionReport)> = cache
            .map
            .iter()
            .flat_map(|(i, per)| per.iter().map(move |(k, r)| (*i, k.clone(), *r)))
            .collect();
        // Shift inputs 1.. down by one, dropping input 0's cells.
        let remapped = cache.remap_inputs(|i| i.checked_sub(1));
        assert_eq!(remapped.len(), expected.len() - 4, "input 0's cells gone");
        assert_eq!(remapped.stats(), CacheStats::default(), "counters reset");
        for (i, key, report) in expected {
            match i.checked_sub(1) {
                Some(new_i) => assert_eq!(remapped.peek(new_i, &key), Some(report)),
                None => {
                    // Input 0's cells must not alias any surviving slot
                    // unless another input happened to share the key.
                }
            }
        }
    }

    #[test]
    fn tampered_cache_file_is_rejected() {
        let dir = intune_core::unique_temp_dir("cache-tamper");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.cache.json");
        populated_cache().save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let tampered = text.replacen("0.5", "9.5", 1);
        assert_ne!(tampered, text);
        std::fs::write(&path, tampered).unwrap();
        let err = CostCache::load(&path).unwrap_err();
        assert!(
            matches!(err, intune_core::Error::Artifact { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn float_bit_patterns_survive_persistence() {
        let space = ConfigSpace::builder().float("x", 0.0, 1.0).build();
        let mut cfg = space.default_config();
        // A value whose decimal expansion exercises shortest-float printing.
        cfg.set(0, intune_core::ParamValue::Float(0.1 + 0.2));
        let key = ConfigKey::of(&cfg);
        let mut cache = CostCache::new();
        cache.insert(0, key.clone(), ExecutionReport::of_cost(1.0 / 3.0));
        let loaded = CostCache::from_value(&cache.to_value()).unwrap();
        let report = loaded.peek(0, &key).expect("exact key must match");
        assert_eq!(report.cost.to_bits(), (1.0f64 / 3.0).to_bits());
    }
}
