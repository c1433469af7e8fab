//! The benchmark's own tests: tiny-scale runs of the built binary
//! against the contract in `BENCHMARK.json`.
//!
//! The `select` and `ingest` workloads spawn the `intune_daemon` binary.
//! `bash perfbench/test.sh` builds it and runs these tests; to run them
//! by hand, point `PERFBENCH_DAEMON_BIN` at a built daemon.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

fn daemon_bin() -> PathBuf {
    let path = std::env::var_os("PERFBENCH_DAEMON_BIN")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_BIN_EXE_perfbench")).with_file_name("intune_daemon")
        });
    assert!(
        path.is_file(),
        "no intune_daemon at {}: run `bash perfbench/test.sh`",
        path.display()
    );
    path
}

/// Runs one tiny workload; returns the result line and the whole output.
fn run(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> (Value, String) {
    let work = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{seed}-{trace}"));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--scale", "tiny", "--seconds", "1"])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--daemon-bin")
        .arg(daemon_bin())
        .arg("--work-dir")
        .arg(&work)
        .args(extra)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("the last line is JSON");
    (result, stdout)
}

/// `(name, unit)` of every metric of `kind` that `BENCHMARK.json`
/// declares.
fn declared(kind: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
    doc.get(kind)
        .and_then(Value::as_array)
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Per-layer metrics each workload measures (the `on` column of the
/// README's per-layer table). Each must read above 0 on a traced run of
/// that workload, and every other per-layer metric must read 0.
const MEASURED: &[(&str, &[&str])] = &[
    (
        "select",
        &[
            "daemon.decode_us",
            "daemon.select_us",
            "daemon.encode_us",
            "daemon.write_us",
            "daemon.wait_us",
            "daemon.util",
            "daemon.util_service",
            "bench.gen_util",
            "bench.gen_util_service",
            "bench.p50_ms",
            "bench.p99_ms",
            "bench.latency_samples",
            "heavy.p50_ms",
            "heavy.p99_ms",
            "heavy.samples",
            "protocol.frame_us",
            "protocol.decode_us",
            "protocol.encode_us",
            "protocol.req_bytes",
            "protocol.reply_bytes",
            "serve.select_us",
            "serve.mirror_us",
            "host.steal_pct",
            "host.ref_ms",
        ],
    ),
    (
        "ingest",
        &[
            "daemon.decode_us",
            "daemon.select_us",
            "daemon.encode_us",
            "daemon.write_us",
            "daemon.util",
            "bench.gen_util",
            "bench.p50_ms",
            "bench.p99_ms",
            "bench.latency_samples",
            "protocol.frame_us",
            "protocol.decode_us",
            "protocol.encode_us",
            "protocol.req_bytes",
            "protocol.reply_bytes",
            "serve.select_us",
            "serve.journal_us",
            "serve.journal_bytes",
            "datalog.record_us",
            "datalog.record_bytes",
            "retrain.compact_s",
            "retrain.learn_s",
            "retrain.push_s",
            "retrain.mirror_s",
            "retrain.promote_s",
            "retrain.records_per_entry",
            "retrain.warm_cells",
            "retrain.cells_measured",
            "learning.level1_s",
            "learning.level2_s",
            "learning.eval_s",
            "exec.cells_measured",
            "exec.hit_rate",
            "exec.plans",
            "exec.steals",
            "exec.util",
            "host.steal_pct",
            "host.ref_ms",
        ],
    ),
    (
        "table1",
        &[
            "bench.p50_ms",
            "bench.p99_ms",
            "bench.latency_samples",
            "learning.level1_s",
            "learning.level2_s",
            "learning.eval_s",
            "learning.speedup",
            "exec.cells_measured",
            "exec.hit_rate",
            "exec.plans",
            "exec.steals",
            "exec.util",
            "autotuner.evals",
            "eval.corpus_s",
            "host.steal_pct",
            "host.ref_ms",
        ],
    ),
];

/// Measured metrics that may still read 0: one learning thread never
/// steals work, and a quiet host steals no time.
const MAY_BE_ZERO: &[&str] = &["exec.steals", "host.steal_pct"];

fn assert_contract(workload: &str, result: &Value, kind: &str, output: &str) {
    assert_eq!(
        result.get("correct").and_then(Value::as_bool),
        Some(true),
        "{output}"
    );
    assert!(
        result
            .get("attempted")
            .and_then(Value::as_u64)
            .expect("attempted")
            >= 1
    );
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
    let want = declared(kind);
    assert_eq!(names.len(), want.len(), "printed {names:?}");
    for (name, unit) in want {
        let m = result
            .get("metrics")
            .and_then(|ms| ms.get(&name))
            .unwrap_or_else(|| panic!("{name} missing from {names:?}"));
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        let value = m.get("value").and_then(Value::as_f64).expect("a number");
        assert!(value.is_finite(), "{name} = {value}");
        if kind == "end_to_end" {
            assert!(value > 0.0, "{name} = {value}");
            continue;
        }
        let measured = MEASURED
            .iter()
            .find(|(w, _)| *w == workload)
            .expect("a workload with measured metrics")
            .1;
        if !measured.contains(&name.as_str()) {
            assert_eq!(value, 0.0, "{workload} does not measure {name}");
        } else if !MAY_BE_ZERO.contains(&name.as_str()) {
            assert!(value > 0.0, "{workload} measures {name} = {value}");
        }
    }
}

#[test]
fn every_workload_prints_every_declared_metric() {
    for workload in ["select", "ingest", "table1"] {
        let (result, output) = run(workload, 1, false, &[]);
        assert_contract(workload, &result, "end_to_end", &output);
        let (result, output) = run(workload, 1, true, &[]);
        assert_contract(workload, &result, "per_layer", &output);
        assert!(output.contains("untraced vs traced"), "{output}");
    }
}

#[test]
fn a_corrupted_expected_reply_is_caught() {
    let (result, output) = run("select", 2, false, &["--corrupt-expected"]);
    assert_eq!(
        result.get("correct").and_then(Value::as_bool),
        Some(false),
        "{output}"
    );
    assert!(
        result
            .get("failed")
            .and_then(Value::as_u64)
            .expect("failed")
            >= 1
    );
}

#[test]
fn table1_speedup_repeats_exactly() {
    let speedup = || {
        let (result, _) = run("table1", 3, true, &[]);
        result
            .get("metrics")
            .and_then(|m| m.get("learning.speedup"))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .expect("learning.speedup")
    };
    let first = speedup();
    assert!(first > 0.0);
    assert_eq!(first.to_bits(), speedup().to_bits());
}
