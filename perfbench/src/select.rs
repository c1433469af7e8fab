//! `select`: the read-only serving path.
//!
//! Two tenants (`sort2`, `binpacking`) served by one `intune_daemon`
//! process at its default single serving thread, each with an identical
//! revision-bumped shadow staged behind it, the fallback pinned off so
//! every reply is checkable. One generator thread drives one connection
//! per tenant with `light` (8-vector) and `heavy` (64-vector) requests
//! alternating: per-frame costs dominate the light ones, per-vector
//! costs the heavy ones. No disk, no learning in the timed work.

use crate::host::{self, CpuTimes, CpuWindow};
use crate::report::{median, Check, Metric, Outcome};
use crate::spans::{Open, Tracer, REPLAY_TRACE_BASE};
use crate::wire::{Conn, DaemonProc, Exchange};
use crate::Opts;
use intune_core::{Benchmark, FeatureVector};
use intune_daemon::protocol::{self, FrameReader, MetricsSnapshot, Response};
use intune_daemon::DaemonClient;
use intune_eval::{visit_case, CaseVisitor, TestCase};
use intune_exec::Engine;
use intune_learning::pipeline::learn;
use intune_learning::TwoLevelOptions;
use intune_obs::{Histogram, LatencySummary};
use intune_serve::{ModelArtifact, ServeOptions, VectorService};
use std::collections::VecDeque;
use std::path::Path;
use std::time::Instant;

/// Set-ups per run, each training on a corpus of its own: `setup_s` is
/// their median and `learn_s` their mean (training time follows what
/// each corpus happened to draw).
const SETUPS: usize = 16;
/// Vectors in a light request.
const LIGHT: usize = 8;
/// Requests in flight on each connection during saturation.
const WINDOW: usize = 32;
/// Saturation-then-latency rounds per run.
const ROUNDS: usize = 16;
/// Saturation requests per connection per second of run length.
const SATURATION_PER_S: u64 = 2000;
/// Service-latency requests (all tenants and classes) per second of run
/// length; each class gets half, so 1000 per class is reached at 4 s.
const LATENCY_PER_S: u64 = 600;
/// Recorded frames pushed through the in-process replay when traced.
const REPLAY_FRAMES: usize = 400;

/// Trains a case and returns its artifact, the feature vectors of its
/// held-out inputs (what wire clients ship), and the training's wall
/// seconds.
struct Export(TwoLevelOptions);

impl CaseVisitor for Export {
    type Output = (ModelArtifact, Vec<FeatureVector>, f64);

    fn visit<B: Benchmark + Sync>(
        &mut self,
        _case: TestCase,
        benchmark: &B,
        train: &[B::Input],
        test: &[B::Input],
        _seeded: &TwoLevelOptions,
        engine: &Engine,
    ) -> intune_core::Result<Self::Output>
    where
        B::Input: Sync,
    {
        let started = Instant::now();
        let result = learn(benchmark, train, &self.0, engine)?;
        let learn_s = started.elapsed().as_secs_f64();
        let artifact = ModelArtifact::export(benchmark, &result).with_revision(1);
        Ok((
            artifact,
            test.iter().map(|i| benchmark.extract_all(i)).collect(),
            learn_s,
        ))
    }
}

/// Trains `case` on corpus `corpus` of the run's seed.
fn train(opts: &Opts, case: TestCase, corpus: usize) -> (ModelArtifact, Vec<FeatureVector>, f64) {
    visit_case(
        case,
        &opts.suite_for(corpus),
        &Engine::new(crate::LEARN_THREADS),
        &mut Export(opts.learn_opts(case)),
    )
    .unwrap_or_else(|e| panic!("training {} failed: {e}", case.name()))
}

/// The in-process service the daemon's answers are checked against:
/// same artifact, same options as the daemon command line.
pub fn reference(artifact: &ModelArtifact) -> VectorService {
    VectorService::new(
        artifact.clone(),
        ServeOptions {
            drift_threshold: 1.0,
            ..ServeOptions::default()
        },
    )
    .expect("artifact serves in-process")
}

/// Frames a `SelectBatch` of `vectors` with the reply `service` gives.
fn select_exchange(service: &VectorService, vectors: &[FeatureVector]) -> Exchange {
    let selections = service
        .select_vector_batch(vectors)
        .expect("in-process selection");
    Exchange::new(
        &protocol::encode_select_batch(vectors),
        &Response::Selections { selections },
        vectors.len(),
    )
}

/// One served tenant and its pre-framed traffic.
struct Tenant {
    /// `Benchmark::name()`, the tenant key.
    name: String,
    artifact: ModelArtifact,
    light: Vec<Exchange>,
    heavy: Exchange,
}

impl Tenant {
    /// The request a connection sends `k`-th: light and heavy alternate.
    fn request(&self, k: usize) -> &Exchange {
        if k.is_multiple_of(2) {
            &self.light[(k / 2) % self.light.len()]
        } else {
            &self.heavy
        }
    }
}

/// A daemon serving both tenants, warmed up and connected.
struct Served {
    daemon: DaemonProc,
    conns: Vec<Conn>,
    tenants: Vec<Tenant>,
    learn_s: f64,
    setup_s: f64,
}

/// One set-up, serving models trained on corpus `corpus`.
fn set_up(opts: &Opts, dir: &Path, corpus: usize) -> Served {
    let started = Instant::now();
    let mut tenants = Vec::new();
    let mut learn_s = 0.0;
    let mut args = vec![
        "--drift-threshold".to_string(),
        "1".to_string(),
        "--shadow-drift-threshold".to_string(),
        "1".to_string(),
    ];
    for case in [TestCase::Sort2, TestCase::Binpacking] {
        let (artifact, features, secs) = train(opts, case, corpus);
        learn_s += secs;
        let path = dir.join(format!("{}.model.json", case.name()));
        artifact.save(&path).expect("save the artifact");
        args.extend(["--artifact".to_string(), path.display().to_string()]);
        let service = reference(&artifact);
        let mut light: Vec<Exchange> = features
            .chunks_exact(LIGHT)
            .map(|w| select_exchange(&service, w))
            .collect();
        if opts.corrupt_expected && tenants.is_empty() {
            let last = light[0].reply.len() - 2;
            light[0].reply[last] ^= 1;
        }
        tenants.push(Tenant {
            name: artifact.benchmark.clone(),
            heavy: select_exchange(&service, &features),
            light,
            artifact,
        });
    }
    let daemon = DaemonProc::spawn(&opts.daemon_bin, &args, &dir.join("daemon.log"));
    for t in &tenants {
        DaemonClient::connect_to(&daemon.addr, &t.name)
            .and_then(|c| c.load_artifact(&t.artifact.clone().with_revision(2)))
            .expect("stage the shadow");
    }
    let mut conns: Vec<Conn> = tenants
        .iter()
        .map(|t| Conn::open(&daemon.addr, &t.name))
        .collect();
    // Warm-up: every distinct request once on its connection.
    for (t, conn) in tenants.iter().zip(&mut conns) {
        for x in t.light.iter().chain([&t.heavy]) {
            conn.exchange(x);
        }
    }
    Served {
        daemon,
        conns,
        tenants,
        learn_s,
        setup_s: started.elapsed().as_secs_f64(),
    }
}

/// Saturation: a fixed number of requests pipelined `WINDOW` deep on
/// each connection by the one generator thread.
struct Saturation {
    selections: u64,
    requests: u64,
    failed: u64,
    wall_s: f64,
    daemon_cpu_s: f64,
    gen_cpu_s: f64,
}

fn saturate(served: &mut Served, per_conn: usize, mut tracer: Option<&mut Tracer>) -> Saturation {
    let gen_cpu = host::thread_cpu_s();
    let window = CpuWindow::open(served.daemon.pid());
    let n = served.conns.len();
    let mut sent = vec![0usize; n];
    let mut received = vec![0usize; n];
    let mut open: Vec<VecDeque<Option<Open>>> = (0..n).map(|_| VecDeque::new()).collect();
    let mut failed = 0;
    let mut selections = 0;
    let trace_of = |c: usize, k: usize| (c * per_conn + k + 1) as u64;
    for c in 0..n {
        while sent[c] < per_conn.min(WINDOW) {
            let x = served.tenants[c].request(sent[c]);
            let root = send(&mut served.conns[c], x, &mut tracer, trace_of(c, sent[c]));
            open[c].push_back(root);
            sent[c] += 1;
        }
    }
    while received.iter().any(|&r| r < per_conn) {
        for c in 0..n {
            if received[c] == per_conn {
                continue;
            }
            let x = served.tenants[c].request(received[c]);
            let root = open[c].pop_front().expect("a request in flight");
            failed += u64::from(!recv(&mut served.conns[c], x, &mut tracer, root));
            selections += x.vectors;
            received[c] += 1;
            if sent[c] < per_conn {
                let x = served.tenants[c].request(sent[c]);
                let root = send(&mut served.conns[c], x, &mut tracer, trace_of(c, sent[c]));
                open[c].push_back(root);
                sent[c] += 1;
            }
        }
    }
    let (daemon_cpu_s, wall_s) = window.close();
    Saturation {
        selections,
        requests: (per_conn * n) as u64,
        failed,
        wall_s,
        daemon_cpu_s,
        gen_cpu_s: host::thread_cpu_s() - gen_cpu,
    }
}

/// Sends `x`; traced, opens the request's root span and times the send
/// under it.
fn send(
    conn: &mut Conn,
    x: &Exchange,
    tracer: &mut Option<&mut Tracer>,
    trace: u64,
) -> Option<Open> {
    match tracer.as_deref_mut() {
        Some(t) => {
            let root = t.begin(trace, 0, "request");
            t.time(trace, root.id(), "bench.send", || conn.send(&x.request));
            Some(root)
        }
        None => {
            conn.send(&x.request);
            None
        }
    }
}

/// Receives the reply to `x` and checks its bytes; traced, times the
/// receive and closes the request's root span.
fn recv(
    conn: &mut Conn,
    x: &Exchange,
    tracer: &mut Option<&mut Tracer>,
    root: Option<Open>,
) -> bool {
    match (tracer.as_deref_mut(), root) {
        (Some(t), Some(root)) => {
            let trace = root.trace();
            let ok = t.time(trace, root.id(), "bench.recv", || {
                conn.recv() == x.reply.as_slice()
            });
            t.end(root);
            ok
        }
        _ => conn.recv() == x.reply.as_slice(),
    }
}

/// Service latency: one request in flight at a time, tenants and
/// classes alternating, each round trip recorded per class. Accumulates
/// over the run's latency windows.
#[derive(Default)]
struct Latency {
    /// Round trips of light and heavy requests, nanoseconds.
    light: Histogram,
    heavy: Histogram,
    requests: u64,
    failed: u64,
    /// Client round trips, summed, nanoseconds.
    rtt_ns: f64,
    /// The daemon's own request latency over the same requests, summed,
    /// nanoseconds, and the requests it counted.
    daemon_ns: f64,
    daemon_requests: f64,
    gen_util: Vec<f64>,
    daemon_util: Vec<f64>,
}

fn measure_latency(served: &mut Served, requests: usize, lat: &mut Latency) {
    let before = metrics_of(served);
    let gen_cpu = host::thread_cpu_s();
    let window = CpuWindow::open(served.daemon.pid());
    let n = served.conns.len();
    for i in 0..requests {
        let (c, k) = (i % n, i / n);
        let x = served.tenants[c].request(k);
        let t = Instant::now();
        let ok = served.conns[c].exchange(x);
        let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        lat.rtt_ns += ns as f64;
        lat.failed += u64::from(!ok);
        if k.is_multiple_of(2) {
            &lat.light
        } else {
            &lat.heavy
        }
        .record(ns);
    }
    let (daemon_cpu_s, wall_s) = window.close();
    lat.gen_util.push((host::thread_cpu_s() - gen_cpu) / wall_s);
    lat.daemon_util.push(daemon_cpu_s / wall_s);
    lat.requests += requests as u64;
    let after = metrics_of(served);
    let total = |m: &MetricsSnapshot| {
        m.tenants.iter().fold((0.0, 0.0), |(s, c), t| {
            (s + t.latency.sum_ns as f64, c + t.latency.count as f64)
        })
    };
    let ((s0, c0), (s1, c1)) = (total(&before), total(&after));
    lat.daemon_ns += s1 - s0;
    lat.daemon_requests += c1 - c0;
}

fn metrics_of(served: &Served) -> MetricsSnapshot {
    DaemonClient::connect_to(&served.daemon.addr, &served.tenants[0].name)
        .and_then(|c| c.metrics())
        .expect("daemon metrics")
}

/// Nanoseconds as milliseconds.
fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Mean of a stage histogram, microseconds.
pub fn mean_us(s: &LatencySummary) -> f64 {
    if s.count == 0 {
        0.0
    } else {
        s.sum_ns as f64 / s.count as f64 / 1e3
    }
}

/// Pushes recorded request frames through the functions the daemon's
/// per-frame path calls, in-process, one span each, the request's id
/// shared across them. Returns (failed replies, wall seconds).
fn replay(tenants: &[Tenant], frames: usize, mut tracer: Option<&mut Tracer>) -> (u64, f64) {
    let services: Vec<(VectorService, VectorService)> = tenants
        .iter()
        .map(|t| {
            (
                reference(&t.artifact),
                reference(&t.artifact.clone().with_revision(2)),
            )
        })
        .collect();
    let mut failed = 0;
    let started = Instant::now();
    for i in 0..frames {
        let c = i % tenants.len();
        let x = tenants[c].request(i / tenants.len());
        let (primary, shadow) = &services[c];
        let trace = REPLAY_TRACE_BASE + i as u64;
        let reply = match tracer.as_deref_mut() {
            Some(t) => {
                let root = t.begin(trace, 0, "replay.request");
                let r = root.id();
                let mut reader = FrameReader::new();
                let payload = t.time(trace, r, "protocol.frame", || {
                    pop_whole_frame(&mut reader, &x.request)
                });
                let features = t.time(trace, r, "protocol.decode", || {
                    protocol::decode_select_batch(&payload).expect("canonical SelectBatch")
                });
                let selections = t.time(trace, r, "serve.select", || {
                    primary.select_vector_batch(&features).expect("select")
                });
                t.time(trace, r, "serve.mirror", || {
                    shadow.select_vector_batch(&features).expect("mirror")
                });
                let reply = t.time(trace, r, "protocol.encode", || {
                    protocol::encode_frame(&protocol::encode_message(&Response::Selections {
                        selections,
                    }))
                    .expect("reply fits a frame")
                });
                t.end(root);
                reply
            }
            None => {
                let mut reader = FrameReader::new();
                let payload = pop_whole_frame(&mut reader, &x.request);
                let features =
                    protocol::decode_select_batch(&payload).expect("canonical SelectBatch");
                let selections = primary.select_vector_batch(&features).expect("select");
                std::hint::black_box(shadow.select_vector_batch(&features).expect("mirror"));
                protocol::encode_frame(&protocol::encode_message(&Response::Selections {
                    selections,
                }))
                .expect("reply fits a frame")
            }
        };
        failed += u64::from(reply != x.reply);
    }
    (failed, started.elapsed().as_secs_f64())
}

/// Feeds one whole request frame to a fresh reader and pops it.
pub fn pop_whole_frame(reader: &mut FrameReader, frame: &[u8]) -> String {
    let mut src = frame;
    loop {
        if let Some(payload) = reader.pop_frame().expect("a well-formed frame") {
            return payload.to_string();
        }
        reader.fill(&mut src).expect("fill from memory");
    }
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Outcome {
    let dir = opts.scratch("select");
    let steal_from = CpuTimes::now();
    let mut setups = Vec::new();
    let mut learns = Vec::new();
    // Each set-up trains on a corpus of its own, so the median training
    // time does not hang on what one small corpus happened to draw; the
    // last set-up's models are served.
    let mut served = loop {
        let served = set_up(opts, &dir, setups.len());
        setups.push(served.setup_s);
        learns.push(served.learn_s);
        if setups.len() == SETUPS {
            break served;
        }
        let first = served.tenants[0].name.clone();
        served.daemon.shutdown(&first);
    };

    // Rounds of one saturation window and one latency window: a host
    // disturbance shifts a few windows, not the medians over all.
    let per_conn = opts.per_run(SATURATION_PER_S, 40) as usize / ROUNDS;
    let per_window = opts.per_run(LATENCY_PER_S, 80) as usize / ROUNDS;
    let mut sats = Vec::new();
    let mut lat = Latency::default();
    for _ in 0..ROUNDS {
        sats.push(saturate(&mut served, per_conn, None));
        measure_latency(&mut served, per_window, &mut lat);
    }
    let after = metrics_of(&served);

    let mut outcome = Outcome {
        attempted: sats.iter().map(|s| s.requests).sum::<u64>() + lat.requests,
        failed: sats.iter().map(|s| s.failed).sum::<u64>() + lat.failed,
        ..Outcome::default()
    };
    // Totals over the windows: with the host's speed changing within a
    // run, a total follows its mean speed, as the reference kernel's
    // mean does (a median over windows would follow whichever speed most
    // windows ran at).
    let total = |f: fn(&Saturation) -> f64| sats.iter().map(f).sum::<f64>();
    let selections = total(|s| s.selections as f64);
    let wall_s = total(|s| s.wall_s);
    let daemon_cpu_s = total(|s| s.daemon_cpu_s);
    let sel_per_s = selections / wall_s;
    let cpu_us = daemon_cpu_s * 1e6 / selections;
    let daemon_util = daemon_cpu_s / wall_s;
    let gen_util = total(|s| s.gen_cpu_s) / wall_s;
    outcome.checks.push(Check::new(
        "every reply byte-identical to in-process",
        outcome.failed == 0,
        format!("{} of {} differ", outcome.failed, outcome.attempted),
    ));
    let gen_bound = sats.iter().filter(|s| s.gen_cpu_s > s.daemon_cpu_s).count();
    outcome.checks.push(Check::new(
        "daemon, not generator, bounds saturation",
        gen_bound == 0,
        format!(
            "daemon util {daemon_util:.3}, generator util {gen_util:.3}; \
             generator busier in {gen_bound} of {ROUNDS} windows"
        ),
    ));

    outcome.end_to_end = vec![
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("rss_mb", host::peak_rss_mb(served.daemon.pid()), "MiB"),
        Metric::new("ops_per_s", sel_per_s, "1/s"),
        Metric::new("cpu_us_per_op", cpu_us, "us"),
        Metric::new("learn_s", learns.iter().sum::<f64>() / SETUPS as f64, "s"),
    ];

    let stages = &after.stages;
    let light = LatencySummary::of(&lat.light.snapshot());
    let heavy = LatencySummary::of(&lat.heavy.snapshot());
    outcome.per_layer = vec![
        Metric::new("daemon.decode_us", mean_us(&stages.decode), "us"),
        Metric::new("daemon.select_us", mean_us(&stages.select), "us"),
        Metric::new("daemon.encode_us", mean_us(&stages.encode), "us"),
        Metric::new("daemon.write_us", mean_us(&stages.queued_write), "us"),
        Metric::new(
            "daemon.wait_us",
            (lat.rtt_ns / lat.requests as f64 - lat.daemon_ns / lat.daemon_requests) / 1e3,
            "us",
        ),
        Metric::new("daemon.util", daemon_util, "ratio"),
        Metric::new("daemon.util_service", median(&lat.daemon_util), "ratio"),
        Metric::new("bench.gen_util", gen_util, "ratio"),
        Metric::new("bench.gen_util_service", median(&lat.gen_util), "ratio"),
        Metric::new("bench.p50_ms", ms(light.p50_ns), "ms"),
        Metric::new("bench.p99_ms", ms(light.p99_ns), "ms"),
        Metric::new("bench.latency_samples", light.count as f64, "count"),
        Metric::new("heavy.p50_ms", ms(heavy.p50_ns), "ms"),
        Metric::new("heavy.p99_ms", ms(heavy.p99_ns), "ms"),
        Metric::new("heavy.samples", heavy.count as f64, "count"),
    ];

    if opts.trace {
        // The traced run's own traffic: every request a root span with
        // the generator's calls under it.
        let mut tracer = Tracer::new();
        let traced = saturate(&mut served, per_conn, Some(&mut tracer));
        outcome.attempted += traced.requests;
        outcome.failed += traced.failed;
        outcome.overhead = vec![
            (
                "ops_per_s",
                sel_per_s,
                traced.selections as f64 / traced.wall_s,
                "1/s",
            ),
            (
                "cpu_us_per_op",
                cpu_us,
                traced.daemon_cpu_s * 1e6 / traced.selections as f64,
                "us",
            ),
        ];
        let (plain_failed, plain_s) = replay(&served.tenants, REPLAY_FRAMES, None);
        let (traced_failed, traced_s) = replay(&served.tenants, REPLAY_FRAMES, Some(&mut tracer));
        outcome.attempted += 2 * REPLAY_FRAMES as u64;
        outcome.failed += plain_failed + traced_failed;
        outcome.overhead.push((
            "replay_us_per_frame",
            plain_s * 1e6 / REPLAY_FRAMES as f64,
            traced_s * 1e6 / REPLAY_FRAMES as f64,
            "us",
        ));
        let replayed = (0..REPLAY_FRAMES).map(|i| served.tenants[i % 2].request(i / 2));
        let (req_bytes, reply_bytes) =
            replayed.fold((0, 0), |(q, r), x| (q + x.request.len(), r + x.reply.len()));
        let per_frame = |bytes: usize| bytes as f64 / REPLAY_FRAMES as f64;
        outcome.per_layer.extend([
            Metric::new("protocol.frame_us", tracer.mean_us("protocol.frame"), "us"),
            Metric::new(
                "protocol.decode_us",
                tracer.mean_us("protocol.decode"),
                "us",
            ),
            Metric::new(
                "protocol.encode_us",
                tracer.mean_us("protocol.encode"),
                "us",
            ),
            Metric::new("protocol.req_bytes", per_frame(req_bytes), "bytes"),
            Metric::new("protocol.reply_bytes", per_frame(reply_bytes), "bytes"),
            Metric::new("serve.select_us", tracer.mean_us("serve.select"), "us"),
            Metric::new("serve.mirror_us", tracer.mean_us("serve.mirror"), "us"),
        ]);
        opts.write_spans(&tracer);
    }

    // Both shadows mirrored every selection their tenant answered,
    // agreed on all of them, and promote.
    let answered = metrics_of(&served);
    for (t, m) in served.tenants.iter().zip(&answered.tenants) {
        let client = DaemonClient::connect_to(&served.daemon.addr, &t.name).expect("control");
        let shadow = client
            .stats()
            .expect("stats")
            .shadow
            .expect("shadow still staged");
        let promoted = client.promote();
        outcome.checks.push(Check::new(
            "shadow agreement exactly 1.0, promoted",
            shadow.agreed == shadow.mirrored
                && shadow.mirrored == m.selections
                && matches!(promoted, Ok(2)),
            format!(
                "{}: {} of {} mirrored agreed, {} answered, promote {:?}",
                t.name, shadow.agreed, shadow.mirrored, m.selections, promoted
            ),
        ));
    }
    outcome.per_layer.push(Metric::new(
        "host.steal_pct",
        CpuTimes::now().steal_pct_since(&steal_from),
        "%",
    ));
    let first = served.tenants[0].name.clone();
    served.daemon.shutdown(&first);
    std::fs::remove_dir_all(&dir).ok();
    outcome
}
