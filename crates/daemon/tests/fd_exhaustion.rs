//! A daemon out of file descriptors must not spin. Its listener polls
//! level-triggered, so a connection left in the backlog by a failed
//! accept (EMFILE) would wake every poll at once; the daemon stops
//! polling that listener until a connection closes or a heartbeat passes.
//! The daemon binary runs under `ulimit -n 24` with 40 connections open
//! against it; its CPU time over half a second must stay well under a
//! quarter of the wall time, and once the connections close it serves a
//! fresh one. Linux only: the CPU time is read from `/proc/<pid>/stat`.
#![cfg(target_os = "linux")]

use intune_core::{ConfigSpace, FeatureDef, FeatureSet, ParamValue};
use intune_daemon::protocol::{self, FrameReader};
use intune_daemon::{Request, Response};
use intune_learning::classifiers::Classifier;
use intune_ml::{DecisionTree, TreeOptions, ZScore};
use intune_serve::ModelArtifact;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// `/proc/<pid>/stat` counts CPU time in clock ticks of `USER_HZ`, which
/// Linux fixes at 100 per second for user space.
const TICKS_PER_S: f64 = 100.0;

/// A one-split tree over one feature: enough of a model to serve.
fn artifact() -> ModelArtifact {
    let space = ConfigSpace::builder().switch("alg", 2).build();
    let rows: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64]).collect();
    let labels: Vec<usize> = (0..8).map(|i| usize::from(i >= 4)).collect();
    let landmarks = (0..2)
        .map(|c| {
            let mut cfg = space.default_config();
            cfg.set(0, ParamValue::Choice(c));
            cfg
        })
        .collect();
    ModelArtifact {
        benchmark: "fd-test".to_string(),
        feature_defs: vec![FeatureDef::new("a", 1)],
        normalizer: ZScore::fit(&rows),
        landmarks,
        classifier: Classifier::Tree {
            set: FeatureSet::from_choices(vec![Some(0)]),
            tree: DecisionTree::fit_plain(&rows, &labels, 2, TreeOptions::default()),
        },
        centroids: vec![vec![0.0], vec![1.0]],
        dispersion: vec![2.0, 2.0],
        fallback: 0,
        accuracy_threshold: None,
        revision: 1,
        trained_inputs: 8,
    }
}

/// The daemon child, killed if the test ends before it exits.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// User plus system CPU seconds the process has used so far.
fn cpu_s(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("the daemon's stat");
    // Fields after the parenthesized command name, which may hold spaces:
    // state is field 3, utime and stime fields 14 and 15.
    let fields: Vec<&str> = stat[stat.rfind(')').expect("a command name") + 2..]
        .split(' ')
        .collect();
    let ticks = |i: usize| fields[i - 3].parse::<f64>().expect("a tick count");
    (ticks(14) + ticks(15)) / TICKS_PER_S
}

/// One request and its reply over a fresh connection, each wait bounded.
fn round_trip(addr: &str, request: &Request) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    protocol::send(&mut stream, request).expect("send");
    FrameReader::new()
        .recv(&mut stream)
        .expect("a reply in time")
        .expect("a reply before the close")
}

#[test]
fn a_daemon_out_of_file_descriptors_does_not_spin_and_serves_again() {
    let dir = intune_core::unique_temp_dir("fd-exhaustion");
    std::fs::create_dir_all(&*dir).unwrap();
    let model = dir.join("fd-test.model.json");
    artifact().save(&model).unwrap();
    let child = Command::new("sh")
        .arg("-c")
        .arg(r#"ulimit -n 24; exec "$0" --artifact "$1" --listen 127.0.0.1:0"#)
        .arg(env!("CARGO_BIN_EXE_intune_daemon"))
        .arg(&model)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn the daemon");
    let mut daemon = Daemon(child);
    let pid = daemon.0.id();
    let mut line = String::new();
    BufReader::new(daemon.0.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .unwrap();
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("expected the listening line, got {line:?}"))
        .to_string();

    // Past the limit: the kernel completes every handshake, the daemon
    // accepts what its descriptors allow, and the rest wait in the
    // backlog with the listener readable.
    let conns: Vec<TcpStream> = (0..40)
        .map(|_| TcpStream::connect(&addr).expect("connect"))
        .collect();
    std::thread::sleep(Duration::from_millis(200));
    let (cpu0, wall0) = (cpu_s(pid), Instant::now());
    std::thread::sleep(Duration::from_millis(500));
    let (cpu, wall) = (cpu_s(pid) - cpu0, wall0.elapsed().as_secs_f64());
    assert!(
        cpu < wall / 4.0,
        "a daemon out of file descriptors used {cpu:.2} s of CPU in {wall:.2} s"
    );

    // Closing the connections frees descriptors: a new client is served.
    drop(conns);
    let hello = Request::Hello {
        client: "after".to_string(),
        benchmark: String::new(),
    };
    let reply = round_trip(&addr, &hello);
    assert!(
        matches!(reply, Response::HelloAck { ref benchmark, .. } if benchmark == "fd-test"),
        "{reply:?}"
    );
    assert_eq!(
        round_trip(&addr, &Request::Shutdown),
        Response::ShuttingDown
    );
    let status = daemon.0.wait().unwrap();
    assert!(status.success(), "{status}");
}
