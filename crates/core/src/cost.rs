//! Deterministic cost accounting and execution reports.
//!
//! The paper evaluates on wall-clock time on a 32-core Xeon. This
//! reproduction uses a *deterministic abstract cost* (weighted operation
//! counts accumulated in a [`Cost`]) as the primary metric so that every
//! experiment is exactly reproducible; an [`ExecutionReport`] keeps an
//! optional wall-clock field beside it. See DESIGN.md §4 for the
//! substitution argument.

use serde::{Deserialize, Serialize};

/// An accumulator of abstract work units.
///
/// Benchmarks charge representative operations (comparisons, moves, flops,
/// stencil applications) with calibrated weights as they execute. The final
/// tally is the deterministic "execution time" the learning pipeline
/// optimizes.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Cost {
    units: f64,
}

impl Cost {
    /// A fresh, zeroed accumulator.
    pub fn new() -> Self {
        Cost::default()
    }

    /// Charges `n` units of work.
    #[inline]
    pub fn charge(&mut self, n: f64) {
        self.units += n;
    }

    /// Charges one unit of work.
    #[inline]
    pub fn tick(&mut self) {
        self.units += 1.0;
    }

    /// Total units charged so far.
    #[inline]
    pub fn total(&self) -> f64 {
        self.units
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: Cost) {
        self.units += other.units;
    }
}

/// The outcome of running one configuration on one input.
///
/// `cost` is the deterministic abstract execution time. `accuracy` is the
/// benchmark's variable-accuracy metric (`None` for fixed-accuracy programs
/// such as sorting). `time_ns` optionally carries wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecutionReport {
    /// Deterministic abstract execution cost (work units).
    pub cost: f64,
    /// Variable-accuracy metric value, if the benchmark defines one.
    pub accuracy: Option<f64>,
    /// Optional wall-clock nanoseconds.
    pub time_ns: Option<u64>,
}

impl ExecutionReport {
    /// Report for a fixed-accuracy program (e.g. sort): only a cost.
    pub fn of_cost(cost: f64) -> Self {
        ExecutionReport {
            cost,
            accuracy: None,
            time_ns: None,
        }
    }

    /// Report for a variable-accuracy program.
    pub fn with_accuracy(cost: f64, accuracy: f64) -> Self {
        ExecutionReport {
            cost,
            accuracy: Some(accuracy),
            time_ns: None,
        }
    }

    /// Whether the report meets an accuracy threshold. Fixed-accuracy reports
    /// always meet any threshold.
    pub fn meets(&self, threshold: Option<f64>) -> bool {
        match (threshold, self.accuracy) {
            (None, _) => true,
            (Some(t), Some(a)) => a >= t,
            // A variable-accuracy threshold against a report that carries no
            // accuracy means the run failed to produce a measurable result.
            (Some(_), None) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_accumulates() {
        let mut c = Cost::new();
        c.tick();
        c.charge(2.5);
        let mut d = Cost::new();
        d.charge(1.5);
        c.merge(d);
        assert_eq!(c.total(), 5.0);
    }

    #[test]
    fn report_constructors() {
        let r = ExecutionReport::of_cost(10.0);
        assert_eq!(r.cost, 10.0);
        assert_eq!(r.accuracy, None);
        let r = ExecutionReport::with_accuracy(5.0, 0.9);
        assert_eq!(r.accuracy, Some(0.9));
        assert_eq!(r.time_ns, None);
    }

    #[test]
    fn meets_threshold_logic() {
        assert!(ExecutionReport::of_cost(1.0).meets(None));
        assert!(!ExecutionReport::of_cost(1.0).meets(Some(0.9)));
        assert!(ExecutionReport::with_accuracy(1.0, 0.95).meets(Some(0.9)));
        assert!(!ExecutionReport::with_accuracy(1.0, 0.85).meets(Some(0.9)));
    }
}
