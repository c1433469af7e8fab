//! Metric values, correctness verdicts, and the result line the run
//! ends with.

use crate::host::HostSpeed;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as declared in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// One correctness verdict.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// What was seen.
    pub detail: String,
}

impl Check {
    /// A verdict.
    pub fn new(name: &'static str, ok: bool, detail: impl Into<String>) -> Check {
        Check {
            name,
            ok,
            detail: detail.into(),
        }
    }
}

/// What one workload run measured and verified.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted in the timed work.
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// Correctness verdicts.
    pub checks: Vec<Check>,
    /// End-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// End-to-end readings of the traced run beside the same readings
    /// untraced, `(name, untraced, traced, unit)`: the tracing overhead.
    pub overhead: Vec<(&'static str, f64, f64, &'static str)>,
}

impl Outcome {
    /// Whether every check held and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }
}

/// How an end-to-end metric follows the host's speed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Follows {
    /// A time: scales with the reference kernel's time.
    Time,
    /// Work per second: scales with its inverse.
    Rate,
    /// Not a time (memory).
    Nothing,
}

/// End-to-end metrics, `(name, unit, how it follows the host)`, as
/// `BENCHMARK.json` declares them: every workload reports every one
/// (untraced).
pub const END_TO_END: &[(&str, &str, Follows)] = &[
    ("setup_s", "s", Follows::Time),
    ("rss_mb", "MiB", Follows::Nothing),
    ("ops_per_s", "1/s", Follows::Rate),
    ("cpu_us_per_op", "us", Follows::Time),
    ("learn_s", "s", Follows::Time),
];

/// `metrics` as measured on this host, restated for the nominal host:
/// every time divided by how much slower than nominal the reference
/// kernel ran over the same run.
pub fn at_nominal(metrics: &[Metric], speed: &HostSpeed) -> Vec<Metric> {
    metrics
        .iter()
        .map(|m| {
            let follows = END_TO_END
                .iter()
                .find(|d| d.0 == m.name)
                .map_or(Follows::Nothing, |d| d.2);
            let value = match follows {
                Follows::Time => speed.nominal(m.value),
                Follows::Rate => m.value / speed.nominal(1.0),
                Follows::Nothing => m.value,
            };
            Metric { value, ..m.clone() }
        })
        .collect()
}

/// Per-layer metrics, `(name, unit)`, as `BENCHMARK.json` declares them
/// (traced). A workload that never calls into a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("daemon.decode_us", "us"),
    ("daemon.select_us", "us"),
    ("daemon.encode_us", "us"),
    ("daemon.write_us", "us"),
    ("daemon.wait_us", "us"),
    ("daemon.util", "ratio"),
    ("daemon.util_service", "ratio"),
    ("bench.gen_util", "ratio"),
    ("bench.gen_util_service", "ratio"),
    ("bench.p50_ms", "ms"),
    ("bench.p99_ms", "ms"),
    ("bench.latency_samples", "count"),
    ("heavy.p50_ms", "ms"),
    ("heavy.p99_ms", "ms"),
    ("heavy.samples", "count"),
    ("protocol.frame_us", "us"),
    ("protocol.decode_us", "us"),
    ("protocol.encode_us", "us"),
    ("protocol.req_bytes", "bytes"),
    ("protocol.reply_bytes", "bytes"),
    ("serve.select_us", "us"),
    ("serve.mirror_us", "us"),
    ("serve.journal_us", "us"),
    ("serve.journal_bytes", "bytes"),
    ("datalog.record_us", "us"),
    ("datalog.record_bytes", "bytes"),
    ("retrain.compact_s", "s"),
    ("retrain.learn_s", "s"),
    ("retrain.push_s", "s"),
    ("retrain.mirror_s", "s"),
    ("retrain.promote_s", "s"),
    ("retrain.records_per_entry", "ratio"),
    ("retrain.warm_cells", "count"),
    ("retrain.cells_measured", "count"),
    ("learning.level1_s", "s"),
    ("learning.level2_s", "s"),
    ("learning.eval_s", "s"),
    ("learning.speedup", "x"),
    ("exec.cells_measured", "count"),
    ("exec.hit_rate", "ratio"),
    ("exec.plans", "count"),
    ("exec.steals", "count"),
    ("exec.util", "ratio"),
    ("autotuner.evals", "count"),
    ("eval.corpus_s", "s"),
    ("host.steal_pct", "%"),
    ("host.ref_ms", "ms"),
];

impl Outcome {
    /// The declared metrics of one kind, in declared order: end-to-end
    /// (every one must be present) or per-layer (missing ones are 0).
    ///
    /// # Panics
    /// Panics if the workload left out an end-to-end metric, or reported
    /// a metric or unit that is not declared.
    pub fn declared(&self, traced: bool) -> Vec<Metric> {
        let end_to_end: Vec<(&str, &str)> = END_TO_END.iter().map(|d| (d.0, d.1)).collect();
        let (declared, reported) = if traced {
            (PER_LAYER, &self.per_layer)
        } else {
            (end_to_end.as_slice(), &self.end_to_end)
        };
        for m in reported {
            assert!(
                declared.contains(&(m.name.as_str(), m.unit)),
                "undeclared metric {} ({})",
                m.name,
                m.unit
            );
        }
        declared
            .iter()
            .map(
                |&(name, unit)| match reported.iter().find(|m| m.name == name) {
                    Some(m) => m.clone(),
                    None if traced => Metric::new(name, 0.0, unit),
                    None => panic!("end-to-end metric {name} not measured"),
                },
            )
            .collect()
    }
}

/// Median of `xs` (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and the chosen metrics, each value printed with all its
/// digits.
///
/// # Panics
/// Panics on a non-finite metric value (not representable in JSON).
pub fn result_line(outcome: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn at_nominal_scales_times_and_rates_but_not_memory() {
        // The kernel ran twice as long as nominal: this host ran at half
        // the nominal speed.
        let speed = HostSpeed {
            reference_s: 2.0 * crate::host::NOMINAL_REFERENCE_S,
            samples: 1,
        };
        let scaled = at_nominal(
            &[
                Metric::new("learn_s", 4.0, "s"),
                Metric::new("ops_per_s", 100.0, "1/s"),
                Metric::new("rss_mb", 5.0, "MiB"),
            ],
            &speed,
        );
        let values: Vec<f64> = scaled.iter().map(|m| m.value).collect();
        assert_eq!(values, [2.0, 200.0, 5.0]);
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let outcome = Outcome {
            attempted: 3,
            failed: 1,
            ..Outcome::default()
        };
        let line = result_line(
            &outcome,
            &[Metric::new("a", 1.5, "ms"), Metric::new("b", 2.0, "s")],
        );
        let v: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
        let text = serde_json::to_string(&v).expect("printable");
        assert!(text.contains("\"correct\":false"), "{text}");
        assert!(
            text.contains("\"a\":{\"value\":1.5,\"unit\":\"ms\"}"),
            "{text}"
        );
        assert!(
            text.contains("\"b\":{\"value\":2.0,\"unit\":\"s\"}"),
            "{text}"
        );
    }
}
