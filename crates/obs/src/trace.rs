//! Sampled span capture: the per-request causality layer.
//!
//! Aggregates (counters, histograms) say *that* p999 moved; spans say
//! *which* request moved it, *which* stage spent the time, and *which*
//! artifact revision answered. A [`Span`] is one timed operation inside
//! a trace ([`intune_core::TraceContext`] names the trace); spans from
//! every process append to a crash-tolerant [`SpanLog`] — an
//! [`intune_core::applog::FileLog`] like the [`EventLog`](crate::EventLog)
//! (schema `intune-obs-span` v1), equally best-effort-infallible on the
//! record path.
//!
//! Cost is bounded head-based: a [`Sampler`] admits 1-in-N requests
//! (N = 0 disables tracing entirely), and only sampled requests pay for
//! span assembly. Ids come from an [`IdMinter`] — a per-process nonce
//! mixed with a monotone counter, never wall-clock time — so tests and
//! replays see stable, collision-free ids.
//!
//! The `intune_trace` bin reconstructs trace trees from one or more
//! span logs (client + daemon files side by side in one directory).

use intune_core::applog::{self, FileLog};
use intune_core::codec::{fnv1a64, RecordScan};
use intune_core::{Error, Result};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Span-log record schema name.
pub const SPAN_SCHEMA: &str = "intune-obs-span";
/// Span-log record schema version.
pub const SPAN_VERSION: u32 = 1;

/// File-name suffix every span log uses, so tools can sweep a directory
/// holding one log per process (`daemon.spans.log`, `client.spans.log`).
pub const SPAN_LOG_SUFFIX: &str = ".spans.log";

/// One timed operation inside a trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// This span's id (unique within the trace).
    pub span_id: u64,
    /// Parent span id (0 = a trace root).
    pub parent_span: u64,
    /// Operation name, dot-scoped by layer (`client.select_batch`,
    /// `server.request`, `stage.decode`, `service.select`).
    pub name: String,
    /// The tenant (benchmark) the operation served (`"-"` if none).
    pub tenant: String,
    /// Wall-clock start, milliseconds since the unix epoch.
    pub start_unix_ms: u64,
    /// Elapsed nanoseconds.
    pub duration_ns: u64,
    /// Free-form `key=value` annotations (revision, drift score,
    /// fallback / probe verdicts, batch size, ...).
    pub annotations: Vec<(String, String)>,
}

impl Span {
    /// A span with no annotations yet; timing fields start zeroed and
    /// are filled by the recording site.
    #[must_use]
    pub fn new(trace_id: u64, span_id: u64, parent_span: u64, name: &str, tenant: &str) -> Span {
        Span {
            trace_id,
            span_id,
            parent_span,
            name: name.to_string(),
            tenant: tenant.to_string(),
            start_unix_ms: crate::events::unix_ms_now(),
            duration_ns: 0,
            annotations: Vec::new(),
        }
    }

    /// Adds one `key=value` annotation (builder style).
    #[must_use]
    pub fn annotate(mut self, key: &str, value: impl ToString) -> Span {
        self.annotations.push((key.to_string(), value.to_string()));
        self
    }

    /// Sets the elapsed time (builder style).
    #[must_use]
    pub fn lasting(mut self, duration_ns: u64) -> Span {
        self.duration_ns = duration_ns;
        self
    }
}

/// Head-based 1-in-N sampler. Wait-free: one relaxed `fetch_add` per
/// decision; `every = 0` never samples (the default, tracing off),
/// `every = 1` samples everything.
#[derive(Debug)]
pub struct Sampler {
    every: u64,
    counter: AtomicU64,
}

impl Sampler {
    /// A sampler admitting 1 in `every` requests (0 = none).
    #[must_use]
    pub fn new(every: u64) -> Sampler {
        Sampler {
            every,
            counter: AtomicU64::new(0),
        }
    }

    /// Whether tracing is enabled at all (`every > 0`).
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.every > 0
    }

    /// The configured 1-in-N rate (0 = off).
    #[must_use]
    pub fn rate(&self) -> u64 {
        self.every
    }

    /// Decides one request: the first and every `every`-th thereafter
    /// samples.
    pub fn decide(&self) -> bool {
        if self.every == 0 {
            return false;
        }
        self.counter
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(self.every)
    }
}

/// Deterministic id source: a fixed nonce (derived from stable process
/// identity, never the clock) mixed with a monotone counter. Two
/// processes with different nonces cannot collide in practice; one
/// process never repeats an id.
#[derive(Debug)]
pub struct IdMinter {
    nonce: u64,
    counter: AtomicU64,
}

impl IdMinter {
    /// A minter whose nonce is the FNV-1a hash of `seed` (e.g.
    /// `"client/1234/sort"`).
    #[must_use]
    pub fn new(seed: &str) -> IdMinter {
        IdMinter {
            nonce: fnv1a64(seed.as_bytes()),
            counter: AtomicU64::new(0),
        }
    }

    /// The next id: never 0 (0 is the "no parent" sentinel).
    pub fn next(&self) -> u64 {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        let id = self.nonce ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        if id == 0 {
            1
        } else {
            id
        }
    }
}

/// The crash-tolerant span-log append handle: the [`EventLog`]
/// discipline applied to spans. Appends are best-effort and infallible
/// at the call site — encode or IO failures count into `dropped`.
///
/// [`EventLog`]: crate::EventLog
#[derive(Debug)]
pub struct SpanLog(FileLog);

impl SpanLog {
    /// Opens (or creates) the span log at `path`, truncating a torn
    /// tail so the next append starts on a frame boundary.
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] when the file cannot be read,
    /// created, or truncated.
    pub fn open(path: &Path) -> Result<SpanLog> {
        // Spans carry no sequence number: only the truncation matters.
        FileLog::open(path, SPAN_SCHEMA, SPAN_VERSION, |bytes| {
            scan_spans(bytes).map(|_| 0)
        })
        .map(SpanLog)
    }

    /// Appends one span, best-effort, with one `write(2)`; failures
    /// count into [`dropped`](Self::dropped) and never surface.
    pub fn record(&self, span: &Span) {
        self.0.append(|_, out| {
            let text = serde_json::to_string(span).expect("value printing is infallible");
            out.extend_from_slice(text.as_bytes());
        });
    }

    /// Spans successfully appended by this handle.
    #[must_use]
    pub fn appended(&self) -> u64 {
        self.0.appended()
    }

    /// Spans this handle failed to append.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.0.dropped()
    }
}

/// Scans a byte stream of span-log frames: truncation at any offset
/// yields every complete span plus a typed `torn` error, never a panic.
#[must_use]
pub fn scan_spans(bytes: &[u8]) -> RecordScan<Span> {
    applog::scan_as(bytes, SPAN_SCHEMA, SPAN_VERSION, &"span log")
}

/// Reads and scans the span log at `path`.
///
/// # Errors
/// Returns [`Error::Artifact`] when the file cannot be read. A torn
/// tail is *not* an error — it comes back typed in [`RecordScan::torn`].
pub fn read_spans(path: &Path) -> Result<RecordScan<Span>> {
    Ok(scan_spans(&applog::read_file(path)?))
}

/// Sweeps every `*.spans.log` file in `dir` (name order, so output is
/// deterministic) and merges their spans into one scan. Each file's
/// torn tail is tolerated independently; the last one seen is reported.
///
/// # Errors
/// Returns [`Error::Artifact`] when the directory cannot be listed or a
/// log file cannot be read.
pub fn read_span_dir(dir: &Path) -> Result<RecordScan<Span>> {
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| Error::artifact(format!("cannot list span dir {}: {e}", dir.display())))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(SPAN_LOG_SUFFIX))
        })
        .collect();
    names.sort();
    let mut merged = RecordScan {
        records: Vec::new(),
        consumed: 0,
        torn: None,
    };
    for path in names {
        let scan = read_spans(&path)?;
        merged.records.extend(scan.records);
        merged.consumed += scan.consumed;
        if scan.torn.is_some() {
            merged.torn = scan.torn;
        }
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> intune_core::TempDir {
        let dir = intune_core::unique_temp_dir(&format!("obs-span-test-{name}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn spans_round_trip_with_annotations() {
        let dir = tmp("roundtrip");
        let path = dir.join("t.spans.log");
        let log = SpanLog::open(&path).unwrap();
        let span = Span::new(0xabc, 2, 1, "stage.decode", "sort")
            .annotate("revision", 3)
            .annotate("batch", 64)
            .lasting(12_345);
        log.record(&span);
        assert_eq!(log.appended(), 1);
        let scan = read_spans(&path).unwrap();
        assert!(scan.torn.is_none());
        assert_eq!(scan.records, vec![span]);
    }

    #[test]
    fn reopen_truncates_torn_tail_and_keeps_complete_spans() {
        let dir = tmp("torn");
        let path = dir.join("t.spans.log");
        {
            let log = SpanLog::open(&path).unwrap();
            log.record(&Span::new(1, 1, 0, "a", "-").lasting(10));
            log.record(&Span::new(1, 2, 1, "b", "-").lasting(20));
        }
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let log = SpanLog::open(&path).unwrap();
        log.record(&Span::new(1, 3, 1, "c", "-").lasting(30));
        let scan = read_spans(&path).unwrap();
        assert!(scan.torn.is_none(), "recovery left a torn tail");
        let names: Vec<&str> = scan.records.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["a", "c"], "torn span dropped, log resumed");
    }

    #[test]
    fn sampler_admits_one_in_n_and_zero_disables() {
        let off = Sampler::new(0);
        assert!(!off.enabled());
        assert!((0..100).all(|_| !off.decide()));

        let s = Sampler::new(4);
        assert!(s.enabled());
        let decisions: Vec<bool> = (0..8).map(|_| s.decide()).collect();
        assert_eq!(
            decisions,
            vec![true, false, false, false, true, false, false, false]
        );

        let all = Sampler::new(1);
        assert!((0..10).all(|_| all.decide()));
    }

    #[test]
    fn minted_ids_are_unique_and_nonzero() {
        let m = IdMinter::new("test/1");
        let ids: Vec<u64> = (0..1000).map(|_| m.next()).collect();
        assert!(ids.iter().all(|&id| id != 0));
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "ids repeat");
        // Different seeds take different id sequences.
        let other = IdMinter::new("test/2");
        assert_ne!(other.next(), ids[0]);
    }

    #[test]
    fn span_dir_sweep_merges_logs_in_name_order() {
        let dir = tmp("sweep");
        let a = SpanLog::open(&dir.join("a.spans.log")).unwrap();
        let b = SpanLog::open(&dir.join("b.spans.log")).unwrap();
        b.record(&Span::new(9, 2, 1, "server.request", "sort").lasting(5));
        a.record(&Span::new(9, 1, 0, "client.select_batch", "sort").lasting(9));
        // A foreign file is ignored by the sweep.
        std::fs::write(dir.join("notes.txt"), b"not a span log").unwrap();
        let scan = read_span_dir(&dir).unwrap();
        assert!(scan.torn.is_none());
        let names: Vec<&str> = scan.records.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["client.select_batch", "server.request"]);
    }
}
