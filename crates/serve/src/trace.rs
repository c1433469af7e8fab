//! The serving runtime's trace hook: every answered selection can be
//! observed by a caller-supplied sink.
//!
//! Continuous learning starts with observation: a model can only be
//! retrained on the traffic it actually saw. A [`TraceSink`] attached to a
//! [`VectorService`](crate::VectorService) receives, per answered batch,
//! the served feature vectors, optional opaque raw-input payloads (what a
//! client shipped alongside its vectors for exactly this purpose), and
//! the selections — landmark, drift-probe outcome, fallback flag. The
//! canonical sink is the request journal
//! ([`JournalSink`](crate::journal::JournalSink)); tests and benches plug
//! in counters.
//!
//! Sinks are observation-only by contract: they must not fail the serving
//! path (the trait is infallible — a sink that cannot persist buffers the
//! error internally) and are called *after* the selections and drift
//! counters are final, so tracing can never change an answer.
//!
//! Payloads reach a sink printed: each is the JSON text
//! `serde_json::to_string` gives for it, which a journal stores as it
//! is. A daemon hands over a canonical client's wire text unchanged and
//! prints any other payload once; [`print_payloads`] is that print.

use crate::service::Selection;
use intune_core::FeatureVector;
use serde_json::Value;

/// Observer of served selections (see the module docs for the contract).
pub trait TraceSink: Send + Sync {
    /// Called once per answered request/batch with parallel slices:
    /// `selections[i]` answered `features[i]`. `payloads` is either empty
    /// (the caller had no raw inputs to attach) or parallel too, each the
    /// canonical JSON print of a payload, with `null` marking vectors that
    /// arrived without one. `revision` is the rollout revision of the
    /// artifact that answered, and `trace_id` the request's trace id when
    /// the batch arrived inside a sampled trace: the journal stamps it
    /// onto every record, which is how a retrain cycle can later name the
    /// traces whose inputs it consumed.
    fn record_batch_printed(
        &self,
        revision: u64,
        features: &[FeatureVector],
        payloads: &[&str],
        selections: &[Selection],
        trace_id: Option<u64>,
    );

    /// [`TraceSink::record_batch_printed`] for payloads as values: prints
    /// each once and hands the texts over.
    fn record_batch_traced(
        &self,
        revision: u64,
        features: &[FeatureVector],
        payloads: &[Value],
        selections: &[Selection],
        trace_id: Option<u64>,
    ) {
        let printed = print_payloads(payloads);
        let texts: Vec<&str> = printed.iter().map(String::as_str).collect();
        self.record_batch_printed(revision, features, &texts, selections, trace_id);
    }

    /// Total records this sink has durably recorded (0 for sinks that do
    /// not count). Surfaces in daemon `Stats` as `journaled`.
    fn appended(&self) -> u64 {
        0
    }

    /// Total records this sink failed to record (0 for sinks that
    /// cannot fail). Surfaces in daemon `Stats` as `journal_dropped`.
    fn dropped(&self) -> u64 {
        0
    }
}

/// The canonical JSON print of each payload, in order.
pub fn print_payloads(payloads: &[Value]) -> Vec<String> {
    payloads
        .iter()
        .map(|p| serde_json::to_string(p).expect("value printing is infallible"))
        .collect()
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    /// A sink that counts and remembers what it saw.
    #[derive(Debug, Default)]
    pub struct CountingSink {
        pub records: AtomicU64,
        pub batches: AtomicU64,
        pub seen: Mutex<Vec<(u64, usize, usize)>>,
    }

    impl TraceSink for CountingSink {
        fn record_batch_printed(
            &self,
            revision: u64,
            features: &[FeatureVector],
            payloads: &[&str],
            selections: &[Selection],
            _trace_id: Option<u64>,
        ) {
            assert_eq!(features.len(), selections.len());
            assert!(payloads.is_empty() || payloads.len() == features.len());
            self.records
                .fetch_add(features.len() as u64, Ordering::AcqRel);
            self.batches.fetch_add(1, Ordering::AcqRel);
            self.seen
                .lock()
                .unwrap()
                .push((revision, features.len(), payloads.len()));
        }

        fn appended(&self) -> u64 {
            self.records.load(Ordering::Acquire)
        }
    }
}
