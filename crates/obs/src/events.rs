//! The structured lifecycle event log.
//!
//! One append-only file of [`intune_core::codec::encode_record`] frames
//! (schema `intune-obs-event` v1), each frame one [`Event`]: a monotone
//! sequence number, a wall-clock unix-millisecond timestamp, the tenant
//! and revision it concerns, and a typed [`EventKind`]. The file is an
//! [`intune_core::applog::FileLog`]: opening it truncates a torn tail and
//! resumes the sequence, and appends are **best-effort and infallible at
//! the call site** — the serving path must never fail or block on
//! observability, so an append that cannot be encoded or written is
//! counted in [`EventLog::dropped`] and otherwise ignored. Readers use
//! [`read_events`]/[`scan_events`], which type the torn tail instead of
//! panicking.

use crate::LatencySummary;
use intune_core::applog::{self, FileLog};
use intune_core::codec::RecordScan;
use intune_core::Result;
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

/// Event-log record schema name.
pub const EVENT_SCHEMA: &str = "intune-obs-event";
/// Event-log record schema version.
pub const EVENT_VERSION: u32 = 1;

/// What happened. Externally tagged (the variant name is the JSON key),
/// so a timeline renderer can dispatch without knowing every field.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// A connection sent `Hello` and bound to this tenant.
    TenantBound {
        /// Daemon-assigned connection id.
        conn: u64,
    },
    /// `LoadArtifact` validated and staged a new artifact revision as
    /// the tenant's shadow.
    ShadowStaged {
        /// Inputs the staged artifact was trained on.
        trained_inputs: u64,
    },
    /// The shadow gate accepted: the staged revision is now primary.
    /// Carries the gating counters the decision was made on.
    Promoted {
        /// Selections mirrored to the shadow before the gate opened.
        mirrored: u64,
        /// Mirrored selections where shadow agreed with primary.
        agreed: u64,
        /// `agreed / mirrored` at promotion time.
        agreement_rate: f64,
    },
    /// `Promote` was refused (gate unsatisfied, or no shadow staged).
    PromoteRejected {
        /// The refusal reason, verbatim from the gate.
        reason: String,
    },
    /// The staged shadow's own drift monitor tripped while mirroring;
    /// the daemon discarded it without an operator `Promote`.
    ShadowAutoRejected {
        /// The shadow's OOD rate when it tripped.
        trip_rate: f64,
    },
    /// A service's drift monitor crossed its threshold: probed traffic
    /// looks out-of-distribution and fallback engaged.
    DriftTripped {
        /// Inputs probed since reset.
        probed: u64,
        /// Probed inputs classified out-of-distribution.
        ood: u64,
        /// `ood / probed` at the transition.
        trip_rate: f64,
    },
    /// The drift monitor recovered below threshold: selection resumed
    /// from the model instead of the safe fallback landmark.
    FallbackCleared {
        /// OOD rate at the transition back.
        trip_rate: f64,
    },
    /// A retrain controller cycle finished.
    RetrainCycle {
        /// `"promoted"`, `"rejected"`, or `"idle"`.
        outcome: String,
        /// Outcome detail: the idle/rejection reason, or the promoted
        /// revision's agreement rate rendered by the controller.
        detail: String,
        /// Journal-derived inputs in the retrained artifact (0 when the
        /// cycle idled).
        new_inputs: u64,
        /// Trace ids of the journaled requests that fed this cycle
        /// (only traced requests appear; empty when tracing is off or
        /// the cycle idled). Links a retrain decision back to the
        /// concrete traffic that caused it.
        trace_ids: Vec<u64>,
    },
    /// Per-tenant heartbeat with the request-latency summary at
    /// snapshot time. The daemon writes one per tenant on every
    /// `Metrics` wire request (an operator looking — never on HTTP
    /// scrapes, which poll), so a recorded timeline carries latency
    /// context next to its lifecycle events.
    LatencySnapshot {
        /// Per-request wire latency at snapshot time.
        latency: LatencySummary,
    },
}

/// One timestamped, tenant/revision-keyed lifecycle event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Monotone per-log sequence number (resumes across reopen).
    pub seq: u64,
    /// Wall-clock milliseconds since the unix epoch.
    pub unix_ms: u64,
    /// The tenant the event concerns (`"-"` for daemon-wide events).
    pub tenant: String,
    /// The artifact revision in force (or being decided) at the event.
    pub revision: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The crash-tolerant append-side handle. Cheap to share behind an
/// `Arc`; appends serialize on an internal mutex, which also stamps each
/// event's `seq`, so events reach the file in `seq` order, and each
/// issues exactly one `write(2)`.
#[derive(Debug)]
pub struct EventLog(FileLog);

impl EventLog {
    /// Opens (or creates) the event log at `path`, recovering from a
    /// torn tail: complete events are kept, the tail is truncated, and
    /// the sequence resumes after the last recovered `seq`.
    ///
    /// # Errors
    /// Returns [`intune_core::Error::Artifact`] when the file cannot be
    /// read, created, or truncated.
    pub fn open(path: &Path) -> Result<EventLog> {
        FileLog::open(path, EVENT_SCHEMA, EVENT_VERSION, |bytes| {
            scan_events(bytes).map(|e| e.seq)
        })
        .map(EventLog)
    }

    /// Appends one event, best-effort. Never returns an error and never
    /// panics: encode or IO failures increment [`dropped`](Self::dropped)
    /// and the caller proceeds — observability must not take down
    /// serving.
    pub fn record(&self, tenant: &str, revision: u64, kind: EventKind) {
        self.0.append(|seq, out| {
            let event = Event {
                seq,
                unix_ms: unix_ms_now(),
                tenant: tenant.to_string(),
                revision,
                kind,
            };
            let text = serde_json::to_string(&event).expect("value printing is infallible");
            out.extend_from_slice(text.as_bytes());
        });
    }

    /// Events successfully appended by this handle (not counting those
    /// recovered from a previous process).
    #[must_use]
    pub fn appended(&self) -> u64 {
        self.0.appended()
    }

    /// Events this handle failed to append (encode or IO error).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.0.dropped()
    }
}

/// Scans a byte stream of event-log frames. Never panics: truncation at
/// any offset yields every complete event plus a typed `torn` error.
/// A frame whose payload no longer deserializes as an [`Event`] (schema
/// drift) also stops the scan with a typed error.
#[must_use]
pub fn scan_events(bytes: &[u8]) -> RecordScan<Event> {
    applog::scan_as(bytes, EVENT_SCHEMA, EVENT_VERSION, &"event log")
}

/// Reads and scans the event log at `path`.
///
/// # Errors
/// Returns [`intune_core::Error::Artifact`] when the file cannot be read.
/// A torn tail is *not* an error — it comes back typed in
/// [`RecordScan::torn`].
pub fn read_events(path: &Path) -> Result<RecordScan<Event>> {
    Ok(scan_events(&applog::read_file(path)?))
}

/// Current wall clock as milliseconds since the unix epoch (0 if the
/// clock reads before the epoch).
#[must_use]
pub fn unix_ms_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// A fresh directory and the path of an event log inside it.
    fn tmp(name: &str) -> (intune_core::TempDir, PathBuf) {
        let dir = intune_core::unique_temp_dir(&format!("obs-test-{name}"));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.log");
        (dir, path)
    }

    #[test]
    fn append_and_scan_round_trip() {
        let (_dir, path) = tmp("roundtrip");
        let log = EventLog::open(&path).unwrap();
        log.record("sort", 1, EventKind::TenantBound { conn: 7 });
        log.record(
            "sort",
            2,
            EventKind::Promoted {
                mirrored: 128,
                agreed: 127,
                agreement_rate: 127.0 / 128.0,
            },
        );
        assert_eq!(log.appended(), 2);
        assert_eq!(log.dropped(), 0);
        let scan = read_events(&path).unwrap();
        assert!(scan.torn.is_none());
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0].seq, 0);
        assert_eq!(scan.records[0].tenant, "sort");
        assert_eq!(scan.records[0].kind, EventKind::TenantBound { conn: 7 });
        assert_eq!(scan.records[1].seq, 1);
        assert!(matches!(scan.records[1].kind, EventKind::Promoted { .. }));
        assert!(scan.records[1].unix_ms >= scan.records[0].unix_ms);
    }

    #[test]
    fn reopen_resumes_sequence_and_truncates_torn_tail() {
        let (_dir, path) = tmp("reopen");
        {
            let log = EventLog::open(&path).unwrap();
            log.record("a", 1, EventKind::TenantBound { conn: 0 });
            log.record("a", 1, EventKind::TenantBound { conn: 1 });
        }
        // Simulate a crash mid-append: chop bytes off the tail.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let log = EventLog::open(&path).unwrap();
        log.record("a", 1, EventKind::TenantBound { conn: 2 });
        let scan = read_events(&path).unwrap();
        assert!(scan.torn.is_none(), "recovery left a torn tail");
        let seqs: Vec<u64> = scan.records.iter().map(|e| e.seq).collect();
        // Event 1 was torn away; the sequence resumes after the
        // highest *recovered* seq.
        assert_eq!(seqs, vec![0, 1]);
        assert_eq!(
            scan.records[1].kind,
            EventKind::TenantBound { conn: 2 },
            "resumed append must be the recovered-then-written event"
        );
    }

    #[test]
    fn concurrent_appends_reach_the_file_in_seq_order() {
        let (_dir, path) = tmp("concurrent");
        let log = EventLog::open(&path).unwrap();
        // Four threads start appending together.
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let (log, start) = (&log, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..2000 {
                        log.record("t", t, EventKind::TenantBound { conn: i });
                    }
                });
            }
        });
        let scan = read_events(&path).unwrap();
        assert!(scan.torn.is_none());
        let seqs: Vec<u64> = scan.records.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..8000).collect::<Vec<u64>>());
    }

    #[test]
    fn every_kind_round_trips() {
        let kinds = vec![
            EventKind::TenantBound { conn: 3 },
            EventKind::ShadowStaged { trained_inputs: 90 },
            EventKind::Promoted {
                mirrored: 10,
                agreed: 9,
                agreement_rate: 0.9,
            },
            EventKind::PromoteRejected {
                reason: "gate unsatisfied".to_string(),
            },
            EventKind::ShadowAutoRejected { trip_rate: 0.5 },
            EventKind::DriftTripped {
                probed: 100,
                ood: 31,
                trip_rate: 0.31,
            },
            EventKind::FallbackCleared { trip_rate: 0.1 },
            EventKind::RetrainCycle {
                outcome: "idle".to_string(),
                detail: "below volume threshold".to_string(),
                new_inputs: 0,
                trace_ids: vec![],
            },
            EventKind::RetrainCycle {
                outcome: "promoted".to_string(),
                detail: "agreement 0.98".to_string(),
                new_inputs: 12,
                trace_ids: vec![0xdead_beef, 0xcafe],
            },
            EventKind::LatencySnapshot {
                latency: LatencySummary {
                    count: 5,
                    sum_ns: 150,
                    p50_ns: 30,
                    p90_ns: 50,
                    p99_ns: 50,
                    p999_ns: 50,
                    max_ns: 50,
                },
            },
        ];
        let (_dir, path) = tmp("kinds");
        let log = EventLog::open(&path).unwrap();
        for (i, kind) in kinds.iter().enumerate() {
            log.record("t", i as u64, kind.clone());
        }
        let scan = read_events(&path).unwrap();
        assert!(scan.torn.is_none());
        let back: Vec<EventKind> = scan.records.into_iter().map(|e| e.kind).collect();
        assert_eq!(back, kinds);
    }
}
