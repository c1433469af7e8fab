//! The `intune_daemon` binary: load model artifacts, listen, serve.
//!
//! ```text
//! cargo run --release -p intune_daemon --bin intune_daemon -- \
//!     --artifact artifacts/sort2.model.json [--artifact MORE.json ...] \
//!     [--listen 127.0.0.1:0] \
//!     [--uds /tmp/intune.sock] [--journal DIR] [--journal-segment N] \
//!     [--record DIR] [--record-segment N] \
//!     [--metrics 127.0.0.1:0] [--events events.log] \
//!     [--spans DIR] [--trace-sample N] \
//!     [--probe-every N] \
//!     [--radius-factor X] [--drift-threshold X] [--min-observations N] \
//!     [--shadow-drift-threshold X] [--shadow-min-observations N] \
//!     [--min-agreement X] [--min-mirrored N] [--max-outbound-bytes N]
//! ```
//!
//! `--artifact` is repeatable: each artifact becomes one serving tenant,
//! keyed by its benchmark name, all served out of one readiness-driven
//! event loop. Clients route with `Hello { benchmark }`
//! (`DaemonClient::connect_to`); single-tenant daemons keep accepting
//! the anonymous handshake.
//!
//! `--journal DIR` appends every served selection (features, chosen
//! landmark, drift outcome, optional client-shipped raw-input payload) to
//! a segmented crash-tolerant log — the observation half of the
//! continuous-learning loop that `intune_retrain` closes. With one
//! tenant the journal lives in DIR itself (compatible with existing
//! tooling); with several, each tenant journals to `DIR/<benchmark>/`
//! so the retrainer consumes one corpus per benchmark.
//!
//! `--record DIR` taps every inbound request frame (selections *and*
//! control traffic) into a segmented `intune-datalog/1` wire recording
//! that `intune_replay` can stream back for divergence checking. The
//! directory layout mirrors `--journal`: the sole tenant records into
//! DIR itself, several tenants into `DIR/<benchmark>/`.
//!
//! `--spans DIR` appends sampled request spans to
//! `DIR/intune-daemon.spans.log` (`intune-obs-span/1`); `--trace-sample N`
//! self-samples 1-in-N un-traced batch requests (0, the default, traces
//! only requests whose clients shipped a sampled context). `intune_trace`
//! reassembles the per-process logs in DIR into trace trees.
//!
//! Prints exactly one `listening on ADDR` line to stdout once bound (so
//! scripts can grab the resolved ephemeral port), then serves until a
//! client sends `Shutdown`. `--drift-threshold 1` disables the fallback
//! policy (the out-of-distribution fraction can never strictly exceed 1),
//! which CI uses to pin byte-determinism of remote evaluation. Every
//! request is served inline on the event-loop thread.

use intune_daemon::{Daemon, DaemonOptions, ListenConfig, TenantSpec};
use intune_datalog::{RecorderSink, RecordingOptions};
use intune_obs::{EventLog, SpanLog};
use intune_serve::{JournalOptions, JournalSink, ModelArtifact, TraceSink};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn main() {
    let mut artifact_paths: Vec<PathBuf> = Vec::new();
    let mut journal_dir: Option<PathBuf> = None;
    let mut journal_segment = JournalOptions::default().segment_max_records;
    let mut record_dir: Option<PathBuf> = None;
    let mut record_segment = RecordingOptions::default().segment_max_frames;
    let mut listen = ListenConfig::default();
    let mut opts = DaemonOptions::default();
    // Staged shadows keep their own (default: armed) drift monitor even
    // when the primary's fallback is pinned off.

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        match flag {
            "--help" | "-h" => usage(),
            _ => {
                i += 1;
                let value = argv
                    .get(i)
                    .unwrap_or_else(|| die(&format!("{flag} needs a value")));
                match flag {
                    "--artifact" => artifact_paths.push(PathBuf::from(value)),
                    "--journal" => journal_dir = Some(PathBuf::from(value)),
                    "--journal-segment" => journal_segment = parse(flag, value),
                    "--record" => record_dir = Some(PathBuf::from(value)),
                    "--record-segment" => record_segment = parse(flag, value),
                    "--listen" => listen.tcp = value.clone(),
                    "--uds" => listen.uds = Some(PathBuf::from(value)),
                    "--metrics" => listen.metrics = Some(value.clone()),
                    "--events" => {
                        let log = EventLog::open(Path::new(value))
                            .unwrap_or_else(|e| die(&e.to_string()));
                        eprintln!("journaling lifecycle events to {value}");
                        opts.events = Some(Arc::new(log));
                    }
                    "--spans" => {
                        let dir = PathBuf::from(value);
                        std::fs::create_dir_all(&dir).unwrap_or_else(|e| {
                            die(&format!("cannot create span dir {value}: {e}"))
                        });
                        let path = dir.join("intune-daemon.spans.log");
                        let log = SpanLog::open(&path).unwrap_or_else(|e| die(&e.to_string()));
                        eprintln!("recording sampled spans to {}", path.display());
                        opts.spans = Some(Arc::new(log));
                    }
                    "--trace-sample" => opts.trace_sample = parse(flag, value),
                    "--probe-every" => opts.serve.probe_every = parse(flag, value),
                    "--radius-factor" => opts.serve.radius_factor = parse(flag, value),
                    "--drift-threshold" => opts.serve.drift_threshold = parse(flag, value),
                    "--min-observations" => opts.serve.min_observations = parse(flag, value),
                    "--shadow-drift-threshold" => {
                        opts.shadow_serve.drift_threshold = parse(flag, value)
                    }
                    "--shadow-min-observations" => {
                        opts.shadow_serve.min_observations = parse(flag, value)
                    }
                    "--min-agreement" => opts.shadow.min_agreement = parse(flag, value),
                    "--min-mirrored" => opts.shadow.min_mirrored = parse(flag, value),
                    "--max-outbound-bytes" => opts.max_outbound_bytes = parse(flag, value),
                    other => die(&format!("unknown flag {other}")),
                }
            }
        }
        i += 1;
    }
    if artifact_paths.is_empty() {
        die("--artifact PATH is required (repeat for multiple tenants)");
    }

    let multi_tenant = artifact_paths.len() > 1;
    let specs: Vec<TenantSpec> = artifact_paths
        .iter()
        .map(|path| {
            let artifact = ModelArtifact::load(path).unwrap_or_else(|e| die(&e.to_string()));
            eprintln!(
                "loaded {} (benchmark `{}`, revision {}, {} landmarks)",
                path.display(),
                artifact.benchmark,
                artifact.revision,
                artifact.landmarks.len()
            );
            let trace = journal_dir.as_ref().map(|dir| {
                // Sole tenant journals to DIR itself (the pre-multi-tenant
                // layout existing tooling reads); several tenants get one
                // journal per benchmark under it.
                let tenant_dir = if multi_tenant {
                    dir.join(&artifact.benchmark)
                } else {
                    dir.clone()
                };
                open_journal(&tenant_dir, journal_segment)
            });
            let recorder = record_dir.as_ref().map(|dir| {
                // Same layout rule as the journal: sole tenant records
                // into DIR itself, several tenants one dir per benchmark.
                let tenant_dir = if multi_tenant {
                    dir.join(&artifact.benchmark)
                } else {
                    dir.clone()
                };
                open_recorder(&tenant_dir, record_segment)
            });
            TenantSpec {
                artifact,
                trace,
                recorder,
                trace_sample: None,
            }
        })
        .collect();
    let daemon = Daemon::bind_tenants(specs, opts, &listen).unwrap_or_else(|e| die(&e.to_string()));
    println!("listening on {}", daemon.tcp_addr());
    if let Some(addr) = daemon.metrics_addr() {
        // On stdout like the wire line: scripts scrape the resolved port.
        println!("metrics on {addr}");
    }
    if let Some(path) = &listen.uds {
        eprintln!("also listening on unix:{}", path.display());
    }
    std::io::stdout().flush().ok();
    daemon.run().unwrap_or_else(|e| die(&e.to_string()));
    eprintln!("daemon exited cleanly");
}

fn open_journal(dir: &Path, segment_max_records: usize) -> Arc<dyn TraceSink> {
    let sink = JournalSink::open(
        dir,
        JournalOptions {
            segment_max_records,
            ..JournalOptions::default()
        },
    )
    .unwrap_or_else(|e| die(&e.to_string()));
    eprintln!("journaling served selections to {}", dir.display());
    Arc::new(sink)
}

fn open_recorder(dir: &Path, segment_max_frames: usize) -> Arc<RecorderSink> {
    let sink = RecorderSink::open(
        dir,
        RecordingOptions {
            segment_max_frames,
            ..RecordingOptions::default()
        },
    )
    .unwrap_or_else(|e| die(&e.to_string()));
    eprintln!("recording wire traffic to {}", dir.display());
    Arc::new(sink)
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| die(&format!("{flag}: cannot parse `{value}`")))
}

fn usage() -> ! {
    eprintln!(
        "usage: intune_daemon --artifact PATH [--artifact PATH ...] \
         [--listen ADDR] [--uds PATH] \
         [--metrics ADDR] [--events PATH] \
         [--spans DIR] [--trace-sample N] \
         [--journal DIR] [--journal-segment N] \
         [--record DIR] [--record-segment N] \
         [--probe-every N] [--radius-factor X] \
         [--drift-threshold X] [--min-observations N] \
         [--shadow-drift-threshold X] [--shadow-min-observations N] \
         [--min-agreement X] [--min-mirrored N] [--max-outbound-bytes N]"
    );
    std::process::exit(0)
}

fn die(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}
