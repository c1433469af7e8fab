//! Histogram snapshot properties: merging is associative on every
//! readout surface. (The event log's crash tolerance is the workspace's
//! shared log property, `tests/log_crash_tolerance.rs`.)

use intune_obs::{Histogram, HistogramSnapshot};
use proptest::prelude::*;

/// Builds a histogram from `(value, trace_id)` samples: zero trace id
/// records plain, nonzero records with an exemplar.
fn hist(samples: &[(u64, u64)]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &(v, trace_id) in samples {
        if trace_id == 0 {
            h.record(v);
        } else {
            h.record_exemplar(v, trace_id);
        }
    }
    h.snapshot()
}

/// Field-by-field snapshot equality (the type is intentionally not
/// `PartialEq`; readout accessors are the comparison surface).
fn assert_snap_eq(
    a: &HistogramSnapshot,
    b: &HistogramSnapshot,
) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert_eq!(a.count, b.count);
    prop_assert_eq!(a.sum, b.sum);
    prop_assert_eq!(a.max, b.max);
    prop_assert_eq!(
        a.ranges().collect::<Vec<_>>(),
        b.ranges().collect::<Vec<_>>()
    );
    prop_assert_eq!(
        a.exemplars().collect::<Vec<_>>(),
        b.exemplars().collect::<Vec<_>>()
    );
    for q in [0.5, 0.9, 0.99, 0.999] {
        prop_assert_eq!(a.quantile(q), b.quantile(q));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Snapshot merge is associative — `(a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)` on
    /// every readout surface (counts, sum, max, bucket ranges, bucket
    /// exemplars, quantiles) — so a fleet of per-tenant histograms can
    /// be folded into a global view in any grouping. Exemplar right
    /// bias is what makes this hold: both groupings land on the
    /// rightmost operand's exemplar per bucket.
    #[test]
    fn snapshot_merge_is_associative(
        a in prop::collection::vec((0u64..2_000_000, 0u64..4), 0..24),
        b in prop::collection::vec((0u64..2_000_000, 0u64..4), 0..24),
        c in prop::collection::vec((0u64..2_000_000, 0u64..4), 0..24),
    ) {
        let (a, b, c) = (hist(&a), hist(&b), hist(&c));
        let left = a.merge(&b).merge(&c);
        let right = a.merge(&b.merge(&c));
        assert_snap_eq(&left, &right)?;
        // Merging the empty snapshot on either side is the identity.
        let empty = Histogram::new().snapshot();
        assert_snap_eq(&a.merge(&empty), &a)?;
        assert_snap_eq(&empty.merge(&a), &a)?;
    }
}
