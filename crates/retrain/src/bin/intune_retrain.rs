//! The `intune_retrain` binary: the continuous-learning loop as a CLI.
//!
//! ```text
//! # train a revision-0 artifact for a case and save it
//! intune_retrain --case sort2 --scale micro --train artifacts/sort2.model.json
//!
//! # replay a shifted corpus as traced requests (features + raw-input
//! # payloads) against a running daemon, so its journal fills
//! intune_retrain --case sort2 --scale micro --daemon ADDR --replay 4
//!
//! # one journal→corpus→retrain→push cycle; the daemon's shadow gate
//! # decides the promote
//! intune_retrain --case sort2 --scale micro --daemon ADDR \
//!     --journal jdir --corpus corpus.json --cache cache.json --once \
//!     --min-new 1 --cooldown 0 --mirror 16
//!
//! # deterministic offline retrain from a corpus (CI diffs the artifact
//! # at INTUNE_THREADS=1 vs 4)
//! intune_retrain --case sort2 --scale micro --corpus corpus.json \
//!     --dry-run --revision 7 --emit retrained.model.json
//!
//! # observability / control (--benchmark routes to one tenant of a
//! # multi-tenant daemon; omit it against a single-tenant one)
//! intune_retrain --daemon ADDR [--benchmark NAME] --stats
//! intune_retrain --daemon ADDR [--benchmark NAME] --shutdown
//! ```
//!
//! Exit codes: 0 success (including an idle cycle), 3 the daemon's gate
//! rejected the pushed revision, 2 usage or runtime error.

use intune_core::{Benchmark, Result};
use intune_daemon::DaemonClient;
use intune_eval::{visit_case, CaseVisitor, SuiteConfig, TestCase};
use intune_exec::Engine;
use intune_learning::TwoLevelOptions;
use intune_retrain::{
    compact_journal, compact_recording, retrain_from_corpus, run_cycle, AdmissionPolicy,
    CompactionReport, CorpusStore, CycleOutcome, RetrainConfig, RetrainPolicy,
};
use intune_serve::ModelArtifact;
use std::path::PathBuf;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Train,
    Replay,
    Cycle,
    DryRun,
    Stats,
    Shutdown,
}

struct Args {
    mode: Mode,
    case: Option<TestCase>,
    scale: String,
    daemon: Option<String>,
    benchmark: String,
    journal: Option<PathBuf>,
    from_recording: Option<PathBuf>,
    corpus: Option<PathBuf>,
    cache: Option<PathBuf>,
    train_out: Option<PathBuf>,
    replay_frames: usize,
    replay_seed: u64,
    loops: u64,
    sleep_ms: u64,
    revision: u64,
    emit: Option<PathBuf>,
    capacity: usize,
    policy: RetrainPolicy,
    mirror: u64,
    mirror_batch: usize,
    keep_segments: bool,
    admission: AdmissionPolicy,
    events: Option<PathBuf>,
    trace_sample: u64,
    spans: Option<PathBuf>,
}

fn main() {
    let args = parse_args();
    let code = match args.mode {
        Mode::Stats => run_stats(&args),
        Mode::Shutdown => run_shutdown(&args),
        Mode::Replay => {
            // Replay builds its corpora at the *shifted* seed directly —
            // the distribution change the daemon will journal.
            let case = args
                .case
                .unwrap_or_else(|| die("--case NAME is required for this mode"));
            let engine = Engine::from_env();
            let shifted = suite_config(&args.scale, args.replay_seed);
            let mut replayer = ReplayVisitor {
                addr: daemon_addr(&args),
                frames: args.replay_frames,
                trace_sample: args.trace_sample,
                spans: args.spans.clone(),
            };
            // ReplayVisitor binds to the tenant named by the case inside
            // visit(), where `benchmark.name()` is in scope.
            exit_code(visit_case(case, &shifted, &engine, &mut replayer))
        }
        _ => {
            let case = args
                .case
                .unwrap_or_else(|| die("--case NAME is required for this mode"));
            let engine = Engine::from_env();
            let cfg = suite_config(&args.scale, 0);
            let mut visitor = RunVisitor { args: &args };
            exit_code(visit_case(case, &cfg, &engine, &mut visitor))
        }
    };
    std::process::exit(code);
}

fn exit_code(outcome: Result<i32>) -> i32 {
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

/// What one journal compaction did, as the cycle and dry-run logs print it.
fn compaction_line(c: &CompactionReport) -> String {
    format!(
        "compacted {} records from {} segments ({} new, {} merged, {} payloads parsed, {} torn)",
        c.records, c.segments, c.added, c.merged, c.payloads_parsed, c.torn_segments
    )
}

/// The suite scale the artifact, base corpus, and replay corpus share.
fn suite_config(scale: &str, seed: u64) -> SuiteConfig {
    let mut cfg = match scale {
        "micro" => SuiteConfig::micro(),
        "ci" => SuiteConfig::ci(),
        other => die(&format!("unknown --scale `{other}` (micro or ci)")),
    };
    cfg.seed = seed;
    cfg
}

struct RunVisitor<'a> {
    args: &'a Args,
}

impl CaseVisitor for RunVisitor<'_> {
    type Output = i32;

    fn visit<B: Benchmark + Sync>(
        &mut self,
        _case: TestCase,
        benchmark: &B,
        train: &[B::Input],
        _test: &[B::Input],
        opts: &TwoLevelOptions,
        engine: &Engine,
    ) -> Result<i32>
    where
        B::Input: Sync + Clone,
    {
        let args = self.args;
        match args.mode {
            Mode::Train => {
                let result = intune_learning::pipeline::learn(benchmark, train, opts, engine)?;
                let artifact = ModelArtifact::export(benchmark, &result);
                let out = args.train_out.clone().expect("mode implies --train PATH");
                artifact.save(&out)?;
                println!(
                    "trained {} revision {} on {} inputs -> {}",
                    artifact.benchmark,
                    artifact.revision,
                    artifact.trained_inputs,
                    out.display()
                );
                Ok(0)
            }
            Mode::DryRun => {
                let corpus_path = args
                    .corpus
                    .clone()
                    .unwrap_or_else(|| die("--dry-run requires --corpus PATH"));
                let mut corpus = CorpusStore::load_or_new(&corpus_path, args.capacity)?;
                corpus.set_admission_policy(args.admission);
                if let Some(journal) = &args.journal {
                    // In-memory compaction only: a dry run never mutates
                    // the on-disk corpus or the journal.
                    let compaction = compact_journal(journal, &mut corpus)?;
                    eprintln!("journal: {}", compaction_line(&compaction));
                }
                if let Some(recording) = &args.from_recording {
                    // A wire recording (the daemon's `--record` tap) is
                    // request traffic without served verdicts; its vectors
                    // are folded in as neutral, quiet evidence.
                    let folded = compact_recording(recording, &mut corpus)?;
                    eprintln!(
                        "recording: {} vectors from {} frames ({} added, {} merged)",
                        folded.vectors, folded.select_frames, folded.added, folded.merged
                    );
                }
                let retrained = retrain_from_corpus(
                    benchmark,
                    train,
                    opts,
                    engine,
                    &corpus,
                    None,
                    args.revision,
                )?;
                let emit = args
                    .emit
                    .clone()
                    .unwrap_or_else(|| die("--dry-run requires --emit PATH"));
                retrained.artifact.save(&emit)?;
                println!(
                    "dry-run retrained revision {} on {} inputs ({} journaled, {} cells measured) -> {}",
                    retrained.artifact.revision,
                    retrained.stats.merged_inputs,
                    retrained.stats.new_inputs,
                    retrained.stats.cells_measured,
                    emit.display()
                );
                Ok(0)
            }
            Mode::Cycle => {
                // A multi-tenant daemon journals each benchmark under
                // `DIR/<benchmark>/`; a sole tenant journals to DIR
                // itself. Prefer the per-tenant subdirectory when it
                // exists so one --journal flag works for both layouts.
                let journal_root = args
                    .journal
                    .clone()
                    .unwrap_or_else(|| die("--once/--loop require --journal DIR"));
                let per_tenant = journal_root.join(benchmark.name());
                let cfg = RetrainConfig {
                    journal_dir: if per_tenant.is_dir() {
                        per_tenant
                    } else {
                        journal_root
                    },
                    corpus_path: args
                        .corpus
                        .clone()
                        .unwrap_or_else(|| die("--once/--loop require --corpus PATH")),
                    cache_path: args.cache.clone(),
                    capacity: args.capacity,
                    policy: args.policy.clone(),
                    mirror_target: args.mirror,
                    mirror_batch: args.mirror_batch,
                    remove_compacted: !args.keep_segments,
                    admission: args.admission,
                    // The controller's own cycle journal (one file per
                    // writer — the daemon's `--events` log is separate).
                    events: args.events.as_ref().map(|path| {
                        std::sync::Arc::new(
                            intune_obs::EventLog::open(path)
                                .unwrap_or_else(|e| die(&e.to_string())),
                        )
                    }),
                };
                let client = connect_tenant(args, benchmark.name());
                let mut code = 0;
                for i in 0..args.loops {
                    let report = run_cycle(benchmark, train, opts, engine, &cfg, &client)?;
                    eprintln!("cycle {}: {}", i + 1, compaction_line(&report.compaction));
                    if let Some(trigger) = &report.trigger {
                        eprintln!("retrain trigger: {trigger}");
                    }
                    code = match &report.outcome {
                        CycleOutcome::Idle { reason } => {
                            println!("outcome idle: {reason}");
                            0
                        }
                        CycleOutcome::Promoted {
                            revision,
                            trained_inputs,
                            new_inputs,
                            agreement_rate,
                        } => {
                            println!(
                                "outcome promoted revision {revision} trained_inputs \
                                 {trained_inputs} new_inputs {new_inputs} agreement \
                                 {agreement_rate:.4}"
                            );
                            0
                        }
                        CycleOutcome::Rejected { revision, reason } => {
                            println!("outcome rejected revision {revision}: {reason}");
                            3
                        }
                    };
                    if i + 1 < args.loops && args.sleep_ms > 0 {
                        std::thread::sleep(std::time::Duration::from_millis(args.sleep_ms));
                    }
                }
                Ok(code)
            }
            Mode::Stats | Mode::Shutdown | Mode::Replay => {
                unreachable!("dispatched in main before visit_case")
            }
        }
    }
}

/// Replays the case's (shifted) held-out corpus as traced batches.
struct ReplayVisitor {
    addr: String,
    frames: usize,
    /// `--trace-sample N`: head-sample 1-in-N replayed frames into a
    /// span log (0 = off).
    trace_sample: u64,
    /// `--spans DIR`: where the client's span log lives.
    spans: Option<PathBuf>,
}

impl CaseVisitor for ReplayVisitor {
    type Output = i32;

    fn visit<B: Benchmark + Sync>(
        &mut self,
        _case: TestCase,
        benchmark: &B,
        _train: &[B::Input],
        test: &[B::Input],
        _opts: &TwoLevelOptions,
        _engine: &Engine,
    ) -> Result<i32>
    where
        B::Input: Sync + Clone,
    {
        let mut client = DaemonClient::connect_to(&self.addr, benchmark.name())?;
        if self.trace_sample > 0 {
            let dir = self
                .spans
                .clone()
                .unwrap_or_else(|| die("--trace-sample needs --spans DIR"));
            std::fs::create_dir_all(&dir)
                .unwrap_or_else(|e| die(&format!("cannot create span dir: {e}")));
            let path = dir.join("intune-retrain.spans.log");
            let log = intune_obs::SpanLog::open(&path).unwrap_or_else(|e| die(&e.to_string()));
            eprintln!("recording sampled client spans to {}", path.display());
            client.enable_tracing(self.trace_sample, std::sync::Arc::new(log));
        }
        let features: Vec<intune_core::FeatureVector> =
            test.iter().map(|i| benchmark.extract_all(i)).collect();
        let payloads: Vec<serde_json::Value> = test
            .iter()
            .map(|i| benchmark.encode_input(i).unwrap_or(serde_json::Value::Null))
            .collect();
        if payloads.iter().all(serde_json::Value::is_null) {
            eprintln!(
                "note: case `{}` does not support input journaling; \
                 replayed vectors carry no payloads and cannot be retrained on",
                benchmark.name()
            );
        }
        for _ in 0..self.frames {
            client.select_batch_traced(&features, &payloads)?;
        }
        let stats = client.stats()?;
        println!(
            "replayed {} frames x {} vectors; daemon journaled {}",
            self.frames,
            features.len(),
            stats.journaled
        );
        Ok(0)
    }
}

fn run_stats(args: &Args) -> i32 {
    let client = connect(args);
    match client.stats() {
        Ok(stats) => {
            println!("benchmark {}", stats.benchmark);
            println!("tenants {}", stats.tenants);
            println!("revision {}", stats.revision);
            println!("promotions {}", stats.promotions);
            println!("shadow_rejections {}", stats.shadow_rejections);
            println!("journaled {}", stats.journaled);
            println!("journal_dropped {}", stats.journal_dropped);
            println!("recorded {}", stats.recorded);
            println!("recorded_dropped {}", stats.recorded_dropped);
            println!("requests {}", stats.primary.requests);
            if stats.latency.count == 0 {
                // No requests means no percentiles: print `-`, not a
                // fake 0.000 a dashboard would ingest as a measurement.
                println!("latency_ms count 0 p50 - p90 - p99 - p999 - max -");
            } else {
                let ms = |ns: u64| ns as f64 / 1e6;
                println!(
                    "latency_ms count {} p50 {:.3} p90 {:.3} p99 {:.3} p999 {:.3} max {:.3}",
                    stats.latency.count,
                    ms(stats.latency.p50_ns),
                    ms(stats.latency.p90_ns),
                    ms(stats.latency.p99_ns),
                    ms(stats.latency.p999_ns),
                    ms(stats.latency.max_ns)
                );
            }
            if let Some(shadow) = &stats.shadow {
                println!(
                    "shadow revision {} mirrored {} agreement {:.4}",
                    shadow.revision, shadow.mirrored, shadow.agreement_rate
                );
            }
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

fn run_shutdown(args: &Args) -> i32 {
    let client = connect(args);
    match client.shutdown() {
        Ok(()) => {
            println!("daemon shutting down");
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

/// Dials the daemon bound to one tenant. `--benchmark` (for caseless
/// modes) or the case's own name routes; empty means "the sole tenant".
fn connect_tenant(args: &Args, benchmark: &str) -> DaemonClient {
    let name = if args.benchmark.is_empty() {
        benchmark
    } else {
        &args.benchmark
    };
    DaemonClient::connect_to(&daemon_addr(args), name).unwrap_or_else(|e| die(&e.to_string()))
}

fn connect(args: &Args) -> DaemonClient {
    connect_tenant(args, "")
}

fn daemon_addr(args: &Args) -> String {
    args.daemon
        .clone()
        .unwrap_or_else(|| die("--daemon ADDR is required for this mode"))
}

fn parse_args() -> Args {
    let mut args = Args {
        mode: Mode::Cycle,
        case: None,
        scale: "micro".to_string(),
        daemon: None,
        benchmark: String::new(),
        journal: None,
        from_recording: None,
        corpus: None,
        cache: None,
        train_out: None,
        replay_frames: 1,
        replay_seed: 9001,
        loops: 1,
        sleep_ms: 0,
        revision: 1,
        emit: None,
        capacity: 4096,
        policy: RetrainPolicy::default(),
        mirror: 64,
        mirror_batch: 64,
        keep_segments: false,
        admission: AdmissionPolicy::default(),
        events: None,
        trace_sample: 0,
        spans: None,
    };
    let mut mode: Option<Mode> = None;
    let set_mode = |m: Mode, current: &mut Option<Mode>| {
        if current.is_some() && *current != Some(m) {
            die("exactly one mode flag is allowed");
        }
        *current = Some(m);
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        match flag {
            "--help" | "-h" => usage(),
            "--once" => set_mode(Mode::Cycle, &mut mode),
            "--dry-run" => set_mode(Mode::DryRun, &mut mode),
            "--stats" => set_mode(Mode::Stats, &mut mode),
            "--shutdown" => set_mode(Mode::Shutdown, &mut mode),
            "--keep-segments" => args.keep_segments = true,
            _ => {
                i += 1;
                let value = argv
                    .get(i)
                    .unwrap_or_else(|| die(&format!("{flag} needs a value")));
                match flag {
                    "--case" => args.case = Some(parse_case(value)),
                    "--scale" => args.scale = value.clone(),
                    "--daemon" => args.daemon = Some(value.clone()),
                    "--benchmark" => args.benchmark = value.clone(),
                    "--journal" => args.journal = Some(PathBuf::from(value)),
                    "--from-recording" => args.from_recording = Some(PathBuf::from(value)),
                    "--admission" => {
                        args.admission = match value.as_str() {
                            "uniform" => AdmissionPolicy::UniformHash,
                            "novelty" => AdmissionPolicy::Novelty,
                            other => die(&format!(
                                "unknown --admission `{other}` (uniform or novelty)"
                            )),
                        }
                    }
                    "--corpus" => args.corpus = Some(PathBuf::from(value)),
                    "--cache" => args.cache = Some(PathBuf::from(value)),
                    "--train" => {
                        set_mode(Mode::Train, &mut mode);
                        args.train_out = Some(PathBuf::from(value));
                    }
                    "--replay" => {
                        set_mode(Mode::Replay, &mut mode);
                        args.replay_frames = parse(flag, value);
                    }
                    "--loop" => {
                        set_mode(Mode::Cycle, &mut mode);
                        args.loops = parse(flag, value);
                    }
                    "--sleep-ms" => args.sleep_ms = parse(flag, value),
                    "--replay-seed" => args.replay_seed = parse(flag, value),
                    "--revision" => args.revision = parse(flag, value),
                    "--emit" => args.emit = Some(PathBuf::from(value)),
                    "--capacity" => args.capacity = parse(flag, value),
                    "--min-new" => args.policy.min_new_inputs = parse(flag, value),
                    "--drift-rate" => args.policy.drift_trip_rate = parse(flag, value),
                    "--min-drift-obs" => args.policy.min_drift_observations = parse(flag, value),
                    "--cooldown" => args.policy.cooldown_records = parse(flag, value),
                    "--mirror" => args.mirror = parse(flag, value),
                    "--mirror-batch" => args.mirror_batch = parse(flag, value),
                    "--events" => args.events = Some(PathBuf::from(value)),
                    "--trace-sample" => args.trace_sample = parse(flag, value),
                    "--spans" => args.spans = Some(PathBuf::from(value)),
                    other => die(&format!("unknown flag {other}")),
                }
            }
        }
        i += 1;
    }
    args.mode = mode.unwrap_or(Mode::Cycle);
    args
}

fn parse_case(name: &str) -> TestCase {
    TestCase::all()
        .into_iter()
        .find(|c| c.name() == name)
        .unwrap_or_else(|| {
            die(&format!(
                "unknown case `{name}` (one of: {})",
                TestCase::all().map(|c| c.name()).join(", ")
            ))
        })
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| die(&format!("{flag}: cannot parse `{value}`")))
}

fn usage() -> ! {
    eprintln!(
        "usage: intune_retrain --case NAME [--scale micro|ci] MODE [options]\n\
         modes:\n\
         \x20 --train PATH      train + save a revision-0 artifact\n\
         \x20 --replay N        send N traced frames of a shifted corpus (--replay-seed S)\n\
         \x20 --once | --loop N run the journal->corpus->retrain->push cycle\n\
         \x20 --dry-run         offline retrain from --corpus; --revision R --emit PATH\n\
         \x20 --stats           print daemon counters\n\
         \x20 --shutdown        stop the daemon\n\
         options: --daemon ADDR --benchmark NAME --journal DIR --corpus PATH --cache PATH\n\
         \x20 --from-recording DIR (dry-run: also fold a wire recording into the corpus)\n\
         \x20 --admission uniform|novelty (corpus admission policy; default uniform)\n\
         \x20 --capacity N --min-new N --drift-rate X --min-drift-obs N --cooldown N\n\
         \x20 --mirror N --mirror-batch N --keep-segments --sleep-ms MS\n\
         \x20 --events PATH (cycle modes: append a RetrainCycle event per cycle)\n\
         \x20 --trace-sample N --spans DIR (replay: head-sample 1-in-N frames\n\
         \x20 into DIR/intune-retrain.spans.log; the trace context rides the wire)"
    );
    std::process::exit(0)
}

fn die(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}
