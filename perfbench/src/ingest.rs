//! `ingest`: the continuous-learning write path.
//!
//! One `sort2` tenant with both request logs attached (`--journal` and
//! `--record`). One connection sends `SelectBatchTraced` frames (feature
//! vectors plus the raw inputs behind them), one in flight: the same
//! daemon path as `select`, but every frame goes through the full JSON
//! parser and every selection is written to two crash-tolerant logs.
//! Then retrain cycles run against the live daemon and must promote.

use crate::host::{self, CpuTimes, CpuWindow};
use crate::report::{median, Check, Metric, Outcome};
use crate::select::{mean_us, pop_whole_frame, reference};
use crate::spans::{Tracer, REPLAY_TRACE_BASE};
use crate::wire::{Conn, DaemonProc, Exchange};
use crate::Opts;
use intune_core::{Benchmark, FeatureVector};
use intune_daemon::protocol::{self, FrameReader, Request, Response};
use intune_daemon::DaemonClient;
use intune_datalog::{load_recording, FrameBody, RecorderSink, RecordingOptions};
use intune_eval::{visit_case, CaseVisitor, TestCase};
use intune_exec::Engine;
use intune_learning::pipeline::learn;
use intune_learning::TwoLevelOptions;
use intune_obs::{Histogram, LatencySummary};
use intune_retrain::journal::{list_segments, read_segment};
use intune_retrain::{
    compact_journal, feature_key, input_fingerprint, remove_segments, retrain_from_corpus,
    run_cycle, save_warm_cache, CorpusStore, CycleOutcome, RetrainConfig, RetrainPolicy,
};
use intune_serve::{JournalOptions, JournalSink, ModelArtifact, TraceSink};
use serde_json::Value;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Vectors (with their raw inputs) per request frame.
const BATCH: usize = 8;
/// Journaled requests per second of run length.
const REQUESTS_PER_S: u64 = 40;
/// Traffic windows per run.
const WINDOWS: usize = 8;
/// Corpora whose held-out inputs make up the traffic.
const TRAFFIC_CORPORA: usize = 4;
/// Retrain cycles per run; `learn_s` is their mean.
const CYCLES: usize = 5;
/// Recorded frames pushed through the in-process replay when traced.
const REPLAY_FRAMES: usize = 64;
/// Selections the staged shadow must mirror before the promote.
const MIRROR_TARGET: u64 = 64;

/// One journaled request: the frame, its expected reply, and what the
/// daemon must write to its logs for it.
struct Journaled {
    exchange: Exchange,
    features: Vec<FeatureVector>,
    payloads: Vec<Value>,
    landmarks: Vec<u64>,
}

/// A daemon with both request logs, warmed up and connected.
struct Staged {
    daemon: DaemonProc,
    conn: Conn,
    tenant: String,
    traffic: Vec<Journaled>,
    journal: PathBuf,
    recording: PathBuf,
    /// The warm cost cache the set-up training left (base inputs only).
    base_cache: PathBuf,
    /// Request frames sent so far, in order (indices into `traffic`).
    sent: Vec<usize>,
}

impl Staged {
    fn send(&mut self, i: usize) -> bool {
        self.sent.push(i);
        self.conn.exchange(&self.traffic[i].exchange)
    }
}

/// Feature vectors and raw-input payloads of held-out inputs.
fn held_out<B: Benchmark>(benchmark: &B, test: &[B::Input]) -> Vec<(FeatureVector, Value)> {
    test.iter()
        .map(|i| {
            let payload = benchmark.encode_input(i).unwrap_or(Value::Null);
            (benchmark.extract_all(i), payload)
        })
        .collect()
}

/// The held-out inputs of another corpus of the same case.
struct HeldOut;

impl CaseVisitor for HeldOut {
    type Output = Vec<(FeatureVector, Value)>;

    fn visit<B: Benchmark + Sync>(
        &mut self,
        _case: TestCase,
        benchmark: &B,
        _train: &[B::Input],
        test: &[B::Input],
        _opts: &TwoLevelOptions,
        _engine: &Engine,
    ) -> intune_core::Result<Self::Output> {
        Ok(held_out(benchmark, test))
    }
}

/// Set-up: train `sort2`, save its artifact and warm cache, spawn the
/// daemon with both logs, connect, warm up.
fn stage<B: Benchmark + Sync>(
    opts: &Opts,
    dir: &Path,
    benchmark: &B,
    train: &[B::Input],
    test: &[B::Input],
    learn_opts: &TwoLevelOptions,
    engine: &Engine,
) -> intune_core::Result<Staged>
where
    B::Input: Sync,
{
    let result = learn(benchmark, train, learn_opts, engine)?;
    let artifact = ModelArtifact::export(benchmark, &result).with_revision(1);
    let model = dir.join("sort2.model.json");
    artifact.save(&model)?;
    let prints: Vec<Option<u64>> = train
        .iter()
        .map(|i| input_fingerprint(benchmark, i))
        .collect();
    let base_cache = dir.join("cache.base.json");
    save_warm_cache(&base_cache, &prints, &result.level1.cache)?;
    std::fs::copy(&base_cache, dir.join("cache.json"))
        .map_err(|e| intune_core::Error::artifact(format!("warm cache: {e}")))?;

    // Traffic: the held-out inputs of several corpora, so the bytes a
    // run journals do not hang on the sizes one small corpus happened
    // to draw.
    let mut pool = held_out(benchmark, test);
    for j in 1..TRAFFIC_CORPORA {
        pool.extend(visit_case(
            TestCase::Sort2,
            &opts.suite_for(j),
            engine,
            &mut HeldOut,
        )?);
    }
    let service = reference(&artifact);
    let traffic: Vec<Journaled> = pool
        .chunks_exact(BATCH)
        .map(|inputs| {
            let (features, payloads): (Vec<FeatureVector>, Vec<Value>) =
                inputs.iter().cloned().unzip();
            let selections = service
                .select_vector_batch(&features)
                .expect("in-process selection");
            let request = protocol::encode_message(&Request::SelectBatchTraced {
                features: features.clone(),
                payloads: payloads.clone(),
                trace: None,
            });
            Journaled {
                landmarks: selections.iter().map(|s| s.landmark as u64).collect(),
                exchange: Exchange::new(
                    &request,
                    &Response::Selections { selections },
                    features.len(),
                ),
                features,
                payloads,
            }
        })
        .collect();

    let (journal, recording) = (dir.join("journal"), dir.join("recording"));
    let args: Vec<String> = [
        "--artifact",
        &model.display().to_string(),
        "--journal",
        &journal.display().to_string(),
        "--record",
        &recording.display().to_string(),
        "--drift-threshold",
        "1",
        "--shadow-drift-threshold",
        "1",
        "--min-agreement",
        "0",
        "--min-mirrored",
        &MIRROR_TARGET.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let daemon = DaemonProc::spawn(&opts.daemon_bin, &args, &dir.join("daemon.log"));
    let conn = Conn::open(&daemon.addr, &artifact.benchmark);
    let mut staged = Staged {
        daemon,
        conn,
        tenant: artifact.benchmark.clone(),
        traffic,
        journal,
        recording,
        base_cache,
        sent: Vec::new(),
    };
    for i in 0..staged.traffic.len() {
        staged.send(i);
    }
    Ok(staged)
}

/// The timed traffic: `requests` journaled frames, one in flight.
struct Traffic {
    selections: u64,
    failed: u64,
    wall_s: f64,
    daemon_cpu_s: f64,
    gen_cpu_s: f64,
}

/// Sends `requests` journaled frames, one in flight, recording each
/// round trip (nanoseconds) into `rtt`.
fn drive(
    staged: &mut Staged,
    requests: usize,
    rtt: &Histogram,
    mut tracer: Option<&mut Tracer>,
) -> Traffic {
    let gen_cpu = host::thread_cpu_s();
    let window = CpuWindow::open(staged.daemon.pid());
    let mut failed = 0;
    let mut selections = 0;
    for k in 0..requests {
        let i = k % staged.traffic.len();
        let t = Instant::now();
        let ok = match tracer.as_deref_mut() {
            Some(tr) => {
                let trace = k as u64 + 1;
                let root = tr.begin(trace, 0, "request");
                let ok = tr.time(trace, root.id(), "bench.exchange", || staged.send(i));
                tr.end(root);
                ok
            }
            None => staged.send(i),
        };
        rtt.record(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
        failed += u64::from(!ok);
        selections += staged.traffic[i].exchange.vectors;
    }
    let (daemon_cpu_s, wall_s) = window.close();
    Traffic {
        selections,
        failed,
        wall_s,
        daemon_cpu_s,
        gen_cpu_s: host::thread_cpu_s() - gen_cpu,
    }
}

/// Reads the journal and the recording back and checks them against
/// every frame sent: same selections, same vectors, same raw inputs.
fn check_logs(staged: &Staged) -> Vec<Check> {
    let mut expected: Vec<(&FeatureVector, u64, &Value)> = Vec::new();
    for &i in &staged.sent {
        let t = &staged.traffic[i];
        for ((f, l), p) in t.features.iter().zip(&t.landmarks).zip(&t.payloads) {
            expected.push((f, *l, p));
        }
    }
    let mut records = Vec::new();
    let mut torn = 0;
    for path in list_segments(&staged.journal).expect("list journal segments") {
        let scan = read_segment(&path).expect("read a journal segment");
        torn += u64::from(scan.torn.is_some());
        records.extend(scan.records);
    }
    let journal_ok = torn == 0
        && records.len() == expected.len()
        && records.iter().zip(&expected).all(|(r, (f, l, p))| {
            &r.features == *f && r.landmark == *l && r.payload.as_ref() == Some(*p)
        });

    let recording = load_recording(&staged.recording).expect("load the recording");
    let selects: Vec<(&[FeatureVector], &[Value])> = recording
        .frames
        .iter()
        .filter_map(|f| f.body.select_parts())
        .collect();
    let recording_ok = recording.torn_segments == 0
        && selects.len() == staged.sent.len()
        && selects.iter().zip(&staged.sent).all(|((f, p), &i)| {
            *f == staged.traffic[i].features.as_slice()
                && *p == staged.traffic[i].payloads.as_slice()
        });
    let stats = DaemonClient::connect_to(&staged.daemon.addr, &staged.tenant)
        .and_then(|c| c.stats())
        .expect("daemon stats");
    vec![
        Check::new(
            "journal holds every selection sent",
            journal_ok && stats.journaled == expected.len() as u64,
            format!(
                "{} records read, {} journaled, {} sent",
                records.len(),
                stats.journaled,
                expected.len()
            ),
        ),
        Check::new(
            "recording holds every frame sent",
            recording_ok && stats.recorded_dropped == 0,
            format!(
                "{} select frames recorded, {} sent, {} dropped",
                selects.len(),
                staged.sent.len(),
                stats.recorded_dropped
            ),
        ),
    ]
}

fn retrain_config(dir: &Path, staged: &Staged) -> RetrainConfig {
    RetrainConfig {
        cache_path: Some(dir.join("cache.json")),
        policy: RetrainPolicy {
            min_new_inputs: 1,
            cooldown_records: 0,
            ..RetrainPolicy::default()
        },
        mirror_target: MIRROR_TARGET,
        ..RetrainConfig::new(&staged.journal, dir.join("corpus.json"))
    }
}

/// Pushes recorded frames through the functions the daemon calls for a
/// journaled request, in-process and in its order: recorder tap, parse,
/// selection, journal append, reply encode. Returns (failed replies,
/// journal bytes per selection, recording bytes per frame).
fn replay(
    staged: &Staged,
    artifact: &ModelArtifact,
    dir: &Path,
    tracer: &mut Tracer,
) -> (u64, f64, f64) {
    let (jdir, rdir) = (dir.join("replay-journal"), dir.join("replay-recording"));
    let journal = JournalSink::open(&jdir, JournalOptions::default()).expect("replay journal");
    let recorder =
        RecorderSink::open(&rdir, RecordingOptions::default()).expect("replay recording");
    let primary = reference(artifact);
    let mut failed = 0;
    let mut selections = 0;
    for k in 0..REPLAY_FRAMES {
        let x = &staged.traffic[k % staged.traffic.len()].exchange;
        let trace = REPLAY_TRACE_BASE + k as u64;
        let root = tracer.begin(trace, 0, "replay.request");
        let r = root.id();
        let mut reader = FrameReader::new();
        let payload = tracer.time(trace, r, "protocol.frame", || {
            pop_whole_frame(&mut reader, &x.request)
        });
        let request = tracer.time(trace, r, "protocol.decode", || {
            protocol::decode_message::<Request>(&payload).expect("a journaled request")
        });
        let Request::SelectBatchTraced {
            features, payloads, ..
        } = request
        else {
            panic!("replayed frame is not SelectBatchTraced");
        };
        tracer.time(trace, r, "datalog.record", || {
            recorder.record(
                &staged.tenant,
                1,
                FrameBody::Select {
                    features: features.clone(),
                    payloads: payloads.clone(),
                    trace: None,
                },
            )
        });
        let answered = tracer.time(trace, r, "serve.select", || {
            primary.select_vector_batch(&features).expect("select")
        });
        tracer.time(trace, r, "serve.journal", || {
            journal.record_batch_traced(1, &features, &payloads, &answered, None)
        });
        let reply = tracer.time(trace, r, "protocol.encode", || {
            protocol::encode_frame(&protocol::encode_message(&Response::Selections {
                selections: answered,
            }))
            .expect("reply fits a frame")
        });
        tracer.end(root);
        failed += u64::from(reply != x.reply);
        selections += features.len() as u64;
    }
    assert_eq!(
        journal.dropped() + recorder.dropped(),
        0,
        "replay sinks dropped"
    );
    (
        failed,
        host::dir_bytes(&jdir) as f64 / selections as f64,
        host::dir_bytes(&rdir) as f64 / REPLAY_FRAMES as f64,
    )
}

/// Trace id of the traced retrain cycle.
const CYCLE_TRACE: u64 = 1 << 33;
/// Trace id of the traced training of the set-up's model.
const LEARN_TRACE: u64 = CYCLE_TRACE + 1;

/// The cycle's public steps, one by one in `run_cycle`'s order, one
/// span each. Returns the promoted artifact, or `None` if the daemon
/// refused it.
fn traced_cycle<B: Benchmark + Sync>(
    staged: &Staged,
    cfg: &RetrainConfig,
    benchmark: &B,
    train: &[B::Input],
    learn_opts: &TwoLevelOptions,
    engine: &Engine,
    tracer: &mut Tracer,
) -> intune_core::Result<Option<ModelArtifact>>
where
    B::Input: Sync + Clone,
{
    let client = DaemonClient::connect_to(&staged.daemon.addr, &staged.tenant)?;
    let t = CYCLE_TRACE;
    let root = tracer.begin(t, 0, "retrain.cycle");
    let r = root.id();
    let corpus = tracer.time(t, r, "retrain.compact", || {
        let mut corpus = CorpusStore::new(cfg.capacity);
        let compaction = compact_journal(&cfg.journal_dir, &mut corpus)?;
        corpus.save(&cfg.corpus_path)?;
        remove_segments(&compaction.absorbed);
        intune_core::Result::Ok(corpus)
    })?;
    let revision = client.stats()?.revision + 1;
    let model = tracer.time(t, r, "retrain.learn", || {
        retrain_from_corpus(
            benchmark,
            train,
            learn_opts,
            engine,
            &corpus,
            cfg.cache_path.as_deref(),
            revision,
        )
    })?;
    tracer.time(t, r, "retrain.push", || {
        client.load_artifact(&model.artifact)
    })?;
    let vectors: Vec<FeatureVector> = corpus
        .entries()
        .iter()
        .map(|e| e.features.clone())
        .collect();
    tracer.time(t, r, "retrain.mirror", || {
        let mut start = 0;
        while client.stats()?.shadow.map_or(0, |s| s.mirrored) < cfg.mirror_target {
            let frame: Vec<FeatureVector> = (0..cfg.mirror_batch)
                .map(|i| vectors[(start + i) % vectors.len()].clone())
                .collect();
            client.select_batch_traced(&frame, &[])?;
            start = (start + cfg.mirror_batch) % vectors.len();
        }
        intune_core::Result::Ok(())
    })?;
    let promoted = tracer.time(t, r, "retrain.promote", || client.promote());
    tracer.end(root);
    Ok((promoted == Ok(revision)).then_some(model.artifact))
}

/// Runs set-up, traffic, the cycle and (traced) the replay inside the
/// case visitor, where the benchmark's input type is known.
struct Ingest<'o> {
    opts: &'o Opts,
    /// Learning options at the suite's default seed.
    learn_opts: TwoLevelOptions,
    dir: PathBuf,
    started: Instant,
    /// Set-up only: stage, time, and tear down.
    setup_only: bool,
}

/// What one visit gives: set-up seconds and (for the measured visit) the
/// outcome.
type Visit = (f64, Option<Outcome>);

impl CaseVisitor for Ingest<'_> {
    type Output = Visit;

    fn visit<B: Benchmark + Sync>(
        &mut self,
        _case: TestCase,
        benchmark: &B,
        train: &[B::Input],
        test: &[B::Input],
        _seeded: &TwoLevelOptions,
        engine: &Engine,
    ) -> intune_core::Result<Visit>
    where
        B::Input: Sync + Clone,
    {
        let learn_opts = &self.learn_opts;
        let mut staged = stage(
            self.opts, &self.dir, benchmark, train, test, learn_opts, engine,
        )?;
        let setup_s = self.started.elapsed().as_secs_f64();
        if self.setup_only {
            let tenant = staged.tenant.clone();
            staged.daemon.shutdown(&tenant);
            return Ok((setup_s, None));
        }
        let opts = self.opts;
        // Windows of traffic: a host disturbance shifts a few windows,
        // not the medians over all.
        let per_window = opts.per_run(REQUESTS_PER_S, 24) as usize / WINDOWS;
        let requests = per_window * WINDOWS;
        let rtt = Histogram::new();
        let windows: Vec<Traffic> = (0..WINDOWS)
            .map(|_| drive(&mut staged, per_window, &rtt, None))
            .collect();
        let rtt = LatencySummary::of(&rtt.snapshot());
        // Totals over the windows and the mean cycle: with the host's
        // speed changing within a run, a total follows its mean speed, as
        // the reference kernel's mean does.
        let total = |f: fn(&Traffic) -> f64| windows.iter().map(f).sum::<f64>();
        let selections = total(|t| t.selections as f64);
        let wall_s = total(|t| t.wall_s);
        let daemon_cpu_s = total(|t| t.daemon_cpu_s);
        let sel_per_s = selections / wall_s;
        let cpu_us = daemon_cpu_s * 1e6 / selections;
        let daemon_util = daemon_cpu_s / wall_s;
        let gen_util = total(|t| t.gen_cpu_s) / wall_s;
        let failed: u64 = windows.iter().map(|t| t.failed).sum();
        let metrics = DaemonClient::connect_to(&staged.daemon.addr, &staged.tenant)
            .and_then(|c| c.metrics())
            .expect("daemon metrics");

        let mut outcome = Outcome {
            attempted: requests as u64,
            failed,
            ..Outcome::default()
        };
        outcome.checks.push(Check::new(
            "every reply byte-identical to in-process",
            failed == 0,
            format!("{failed} of {requests} differ"),
        ));
        outcome.checks.extend(check_logs(&staged));
        let distinct: HashSet<u64> = staged
            .traffic
            .iter()
            .flat_map(|t| t.features.iter().map(feature_key))
            .collect();

        // Every cycle compacts the journal the first one sees: the live
        // one first, then fresh copies of it, each from a fresh corpus
        // and the set-up's warm cache, so the cycles repeat the same work.
        let snapshot = self.dir.join("journal.snapshot");
        snapshot_journal(&staged.journal, &snapshot)?;
        let client = DaemonClient::connect_to(&staged.daemon.addr, &staged.tenant)?;
        let want_inputs = (train.len() + distinct.len()) as u64;
        let mut cycles = Vec::new();
        let mut report = None;
        for i in 0..CYCLES {
            let mut cfg = retrain_config(&self.dir, &staged);
            if i > 0 {
                cfg.journal_dir = self.dir.join(format!("journal.cycle{i}"));
                snapshot_journal(&snapshot, &cfg.journal_dir)?;
                reset_corpus(&cfg, &staged)?;
            }
            let before = engine.stats();
            let cpu = CpuWindow::open(std::process::id());
            let started = Instant::now();
            let cycle = run_cycle(benchmark, train, learn_opts, engine, &cfg, &client)?;
            let secs = started.elapsed().as_secs_f64();
            let (cpu_s, _) = cpu.close();
            let promoted = matches!(
                cycle.outcome,
                CycleOutcome::Promoted { trained_inputs, .. } if trained_inputs == want_inputs
            );
            outcome.attempted += 1;
            outcome.failed += u64::from(!promoted);
            outcome.checks.push(Check::new(
                "cycle promotes, trained on base + distinct journaled inputs",
                promoted,
                format!("{:?}, want {want_inputs} trained inputs", cycle.outcome),
            ));
            cycles.push((secs, cpu_s, engine.stats().since(&before)));
            report.get_or_insert(cycle);
            if i > 0 {
                std::fs::remove_dir_all(&cfg.journal_dir).ok();
            }
        }
        let report = report.expect("at least one cycle");
        let cycle_s = cycles.iter().map(|c| c.0).sum::<f64>() / CYCLES as f64;
        let (_, cycle_cpu_s, exec) = cycles[0];

        let stats = report.retrain.unwrap_or_default();
        let stages = &metrics.stages;
        outcome.end_to_end = vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("rss_mb", host::peak_rss_mb(staged.daemon.pid()), "MiB"),
            Metric::new("ops_per_s", sel_per_s, "1/s"),
            Metric::new("cpu_us_per_op", cpu_us, "us"),
            Metric::new("learn_s", cycle_s, "s"),
        ];
        outcome.per_layer = vec![
            Metric::new("daemon.decode_us", mean_us(&stages.decode), "us"),
            Metric::new("daemon.select_us", mean_us(&stages.select), "us"),
            Metric::new("daemon.encode_us", mean_us(&stages.encode), "us"),
            Metric::new("daemon.write_us", mean_us(&stages.queued_write), "us"),
            Metric::new("daemon.util", daemon_util, "ratio"),
            Metric::new("bench.p50_ms", rtt.p50_ns as f64 / 1e6, "ms"),
            Metric::new("bench.p99_ms", rtt.p99_ns as f64 / 1e6, "ms"),
            Metric::new("bench.latency_samples", rtt.count as f64, "count"),
            Metric::new("bench.gen_util", gen_util, "ratio"),
            Metric::new(
                "retrain.records_per_entry",
                report.compaction.records as f64 / report.compaction.added.max(1) as f64,
                "ratio",
            ),
            Metric::new("retrain.warm_cells", stats.warm_cells as f64, "count"),
            Metric::new(
                "retrain.cells_measured",
                stats.cells_measured as f64,
                "count",
            ),
            Metric::new("exec.cells_measured", exec.cells_measured as f64, "count"),
            Metric::new("exec.hit_rate", exec.hit_rate(), "ratio"),
            Metric::new("exec.plans", exec.plans as f64, "count"),
            Metric::new("exec.steals", exec.steals as f64, "count"),
            Metric::new(
                "exec.util",
                cycle_cpu_s / (cycles[0].0 * engine.threads() as f64),
                "ratio",
            ),
        ];

        if opts.trace {
            let mut tracer = Tracer::new();
            let artifact = ModelArtifact::load(&self.dir.join("sort2.model.json"))?;
            let (replay_failed, journal_bytes, record_bytes) =
                replay(&staged, &artifact, &self.dir, &mut tracer);
            outcome.attempted += REPLAY_FRAMES as u64;
            outcome.failed += replay_failed;
            // The traced cycle repeats the untraced ones' work too.
            let traced_cfg = RetrainConfig {
                journal_dir: snapshot,
                ..retrain_config(&self.dir, &staged)
            };
            reset_corpus(&traced_cfg, &staged)?;
            let promoted = traced_cycle(
                &staged,
                &traced_cfg,
                benchmark,
                train,
                learn_opts,
                engine,
                &mut tracer,
            )?;
            outcome.attempted += 1;
            outcome.failed += u64::from(promoted.is_none());
            outcome.checks.push(Check::new(
                "traced cycle promotes",
                promoted.is_some(),
                format!("promoted {}", promoted.is_some()),
            ));
            // The set-up's training again, one span per learning step.
            let root = tracer.begin(LEARN_TRACE, 0, "case");
            crate::table1::traced_learning(
                &mut tracer,
                LEARN_TRACE,
                root.id(),
                benchmark,
                train,
                test,
                learn_opts,
                engine,
            )?;
            tracer.end(root);
            outcome
                .per_layer
                .extend(crate::table1::learning_metrics(&tracer));
            // The traced traffic meets the model that cycle promoted.
            if let Some(artifact) = &promoted {
                let service = reference(artifact);
                for t in &mut staged.traffic {
                    let selections = service
                        .select_vector_batch(&t.features)
                        .expect("in-process selection");
                    t.exchange.reply =
                        protocol::encode_frame(&protocol::encode_message(&Response::Selections {
                            selections,
                        }))
                        .expect("reply fits a frame");
                }
            }
            let traced_rtt = Histogram::new();
            let traced = drive(&mut staged, per_window, &traced_rtt, Some(&mut tracer));
            outcome.attempted += per_window as u64;
            outcome.failed += traced.failed;
            let step_s = |name: &str| tracer.mean_us(name) / 1e6;
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
                Metric::new(
                    "protocol.req_bytes",
                    mean_len(&staged, |x| x.request.len()),
                    "bytes",
                ),
                Metric::new(
                    "protocol.reply_bytes",
                    mean_len(&staged, |x| x.reply.len()),
                    "bytes",
                ),
                Metric::new("serve.select_us", tracer.mean_us("serve.select"), "us"),
                Metric::new("serve.journal_us", tracer.mean_us("serve.journal"), "us"),
                Metric::new("serve.journal_bytes", journal_bytes, "bytes"),
                Metric::new("datalog.record_us", tracer.mean_us("datalog.record"), "us"),
                Metric::new("datalog.record_bytes", record_bytes, "bytes"),
                Metric::new("retrain.compact_s", step_s("retrain.compact"), "s"),
                Metric::new("retrain.learn_s", step_s("retrain.learn"), "s"),
                Metric::new("retrain.push_s", step_s("retrain.push"), "s"),
                Metric::new("retrain.mirror_s", step_s("retrain.mirror"), "s"),
                Metric::new("retrain.promote_s", step_s("retrain.promote"), "s"),
            ]);
            let traced_rtt = LatencySummary::of(&traced_rtt.snapshot());
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
                (
                    "bench.p50_ms",
                    rtt.p50_ns as f64 / 1e6,
                    traced_rtt.p50_ns as f64 / 1e6,
                    "ms",
                ),
                (
                    "learn_s",
                    cycle_s,
                    tracer.durations_ns("retrain.cycle").iter().sum::<u64>() as f64 / 1e9,
                    "s",
                ),
            ];
            opts.write_spans(&tracer);
        }
        let tenant = staged.tenant.clone();
        staged.daemon.shutdown(&tenant);
        Ok((setup_s, Some(outcome)))
    }
}

/// Starts a cycle over: no corpus yet, and the set-up's warm cache.
fn reset_corpus(cfg: &RetrainConfig, staged: &Staged) -> intune_core::Result<()> {
    std::fs::remove_file(&cfg.corpus_path).ok();
    std::fs::copy(
        &staged.base_cache,
        cfg.cache_path.as_ref().expect("a cache path"),
    )
    .map(drop)
    .map_err(|e| intune_core::Error::artifact(format!("restore the warm cache: {e}")))
}

/// Snapshots journal directory `from` into a new directory `to`.
/// Sealed segments never change again, so they are hard-linked; the
/// newest segment may still grow and is copied.
fn snapshot_journal(from: &Path, to: &Path) -> intune_core::Result<()> {
    let io = |e: std::io::Error| intune_core::Error::artifact(format!("snapshot the journal: {e}"));
    std::fs::create_dir_all(to).map_err(io)?;
    let segments = list_segments(from)?;
    for (i, path) in segments.iter().enumerate() {
        let target = to.join(path.file_name().expect("a segment file name"));
        if i + 1 == segments.len() {
            std::fs::copy(path, target).map_err(io)?;
        } else {
            std::fs::hard_link(path, target).map_err(io)?;
        }
    }
    Ok(())
}

/// Mean size over the distinct request frames of `f` applied to each.
fn mean_len(staged: &Staged, f: impl Fn(&Exchange) -> usize) -> f64 {
    let n = staged.traffic.len();
    staged.traffic.iter().map(|t| f(&t.exchange)).sum::<usize>() as f64 / n as f64
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Outcome {
    let steal_from = CpuTimes::now();
    let engine = Engine::new(crate::LEARN_THREADS);
    let mut setups = Vec::new();
    let mut measured = None;
    for i in 0..SETUPS {
        let mut visitor = Ingest {
            opts,
            learn_opts: opts.learn_opts(TestCase::Sort2),
            dir: opts.scratch("ingest"),
            started: Instant::now(),
            setup_only: i + 1 < SETUPS,
        };
        let (setup_s, outcome) = visit_case(TestCase::Sort2, &opts.suite(), &engine, &mut visitor)
            .unwrap_or_else(|e| panic!("ingest failed: {e}"));
        setups.push(setup_s);
        measured = outcome;
        std::fs::remove_dir_all(&visitor.dir).ok();
    }
    let mut outcome = measured.expect("the last visit measures");
    for m in &mut outcome.end_to_end {
        if m.name == "setup_s" {
            m.value = median(&setups);
        }
    }
    outcome.per_layer.push(Metric::new(
        "host.steal_pct",
        CpuTimes::now().steal_pct_since(&steal_from),
        "%",
    ));
    outcome
}
