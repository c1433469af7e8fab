//! The `intune_replay` binary: stream a wire recording back at a
//! selection target and check for divergence.
//!
//! ```text
//! cargo run --release -p intune_daemon --bin intune_replay -- \
//!     --recording DIR \
//!     (--daemon ADDR | --artifact PATH) \
//!     [--artifact-b PATH] [--b-pin-fallback] [--check] \
//!     [--speed X] [--transcript PATH] [--window N] \
//!     [--probe-every N] [--radius-factor X] \
//!     [--drift-threshold X] [--min-observations N]
//! ```
//!
//! Side A replays the recording against a live daemon (`--daemon`) or an
//! in-process service built from an artifact file (`--artifact`). An
//! in-process side answers on the calling thread, so its transcript
//! depends only on the recording, the artifact and the serve options.
//! `--speed 0` (the default) replays as fast as possible, pipelining
//! runs of selection frames; `--speed 1.0` reproduces the recorded
//! inter-frame timing, `2.0` plays it twice as fast.
//!
//! A side B (`--artifact-b`, or `--b-pin-fallback` to replay side A's
//! artifact with every answer pinned to its fallback landmark — a
//! guaranteed-divergent control) turns the run into a divergence check:
//! both sides answer the same captured traffic and the selections are
//! byte-compared. With `--check` a divergence exits 4 (0 when clean,
//! 2 on any operational error), so CI can gate on "the new revision
//! answers yesterday's traffic identically".
//!
//! Divergence checks run **in-process** on purpose: replaying one live
//! daemon twice would thread the first pass's drift-monitor state into
//! the second, reporting phantom divergence that no revision caused.
//! `--daemon` is therefore side A only.

use intune_core::{Error, FeatureVector, Result};
use intune_daemon::DaemonClient;
use intune_datalog::{
    divergence, load_recording, replay, DivergenceReport, RecordedFrame, ReplayOptions,
    ReplayOutcome, ReplayTarget,
};
use intune_serve::{ModelArtifact, Selection, ServeOptions, VectorService};
use serde_json::Value;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

/// Default pipeline window for wire replay: deep enough to hide
/// round-trip latency, shallow enough that neither side's bounded
/// buffers fill while replies go undrained.
const DEFAULT_WINDOW: usize = 16;

/// Exit status when `--check` finds diverging answers.
const EXIT_DIVERGED: i32 = 4;

/// A live daemon as a replay target: one pipelined connection per
/// tenant, created lazily at the first frame addressed to it.
struct WireTarget {
    addr: String,
    window: usize,
    clients: Mutex<HashMap<String, Arc<DaemonClient>>>,
}

impl WireTarget {
    fn new(addr: &str, window: usize) -> Self {
        WireTarget {
            addr: addr.to_string(),
            window,
            clients: Mutex::new(HashMap::new()),
        }
    }

    fn client(&self, tenant: &str) -> Result<Arc<DaemonClient>> {
        let mut clients = self.clients.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(client) = clients.get(tenant) {
            return Ok(Arc::clone(client));
        }
        let client = Arc::new(DaemonClient::connect_to(&self.addr, tenant)?);
        clients.insert(tenant.to_string(), Arc::clone(&client));
        Ok(client)
    }
}

impl ReplayTarget for WireTarget {
    fn select(
        &self,
        tenant: &str,
        features: &[FeatureVector],
        payloads: &[Value],
    ) -> Result<Vec<Selection>> {
        self.client(tenant)?.select_batch_traced(features, payloads)
    }

    /// Pipelines the run: frames are partitioned per tenant (each tenant
    /// has its own connection, so per-connection ordering is preserved
    /// exactly as recorded) and streamed with up to `window` requests in
    /// flight, then reassembled into frame order.
    fn select_run(&self, frames: &[&RecordedFrame]) -> Result<Vec<Vec<Selection>>> {
        let mut by_tenant: Vec<(&str, Vec<usize>)> = Vec::new();
        for (i, frame) in frames.iter().enumerate() {
            match by_tenant.iter_mut().find(|(t, _)| *t == frame.tenant) {
                Some((_, indexes)) => indexes.push(i),
                None => by_tenant.push((frame.tenant.as_str(), vec![i])),
            }
        }
        let mut out: Vec<Option<Vec<Selection>>> = vec![None; frames.len()];
        for (tenant, indexes) in by_tenant {
            let client = self.client(tenant)?;
            let batches: Vec<(&[FeatureVector], &[Value])> = indexes
                .iter()
                .map(|&i| {
                    frames[i]
                        .body
                        .select_parts()
                        .ok_or_else(|| Error::artifact("control frame in a selection run"))
                })
                .collect::<Result<_>>()?;
            let answers = client.select_batch_pipelined(&batches, self.window)?;
            for (i, selections) in indexes.into_iter().zip(answers) {
                out[i] = Some(selections);
            }
        }
        Ok(out
            .into_iter()
            .map(|o| o.expect("frame answered"))
            .collect())
    }
}

/// A target whose every answer is overridden to the fallback landmark —
/// a guaranteed-deterministic divergent side B for exercising the check
/// path (CI proves the exit code fires without needing a genuinely
/// retrained artifact).
struct PinnedFallback {
    inner: VectorService,
    fallback: usize,
}

impl ReplayTarget for PinnedFallback {
    fn select(
        &self,
        tenant: &str,
        features: &[FeatureVector],
        payloads: &[Value],
    ) -> Result<Vec<Selection>> {
        let mut selections = self.inner.select(tenant, features, payloads)?;
        for s in &mut selections {
            s.landmark = self.fallback;
            s.fell_back = true;
        }
        Ok(selections)
    }
}

fn main() {
    let mut recording_dir: Option<PathBuf> = None;
    let mut daemon_addr: Option<String> = None;
    let mut artifact_path: Option<PathBuf> = None;
    let mut artifact_b_path: Option<PathBuf> = None;
    let mut b_pin_fallback = false;
    let mut check = false;
    let mut speed = 0.0f64;
    let mut transcript_path: Option<PathBuf> = None;
    let mut window = DEFAULT_WINDOW;
    let mut serve = ServeOptions::default();

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        match flag {
            "--help" | "-h" => usage(),
            "--b-pin-fallback" => b_pin_fallback = true,
            "--check" => check = true,
            _ => {
                i += 1;
                let value = argv
                    .get(i)
                    .unwrap_or_else(|| die(&format!("{flag} needs a value")));
                match flag {
                    "--recording" => recording_dir = Some(PathBuf::from(value)),
                    "--daemon" => daemon_addr = Some(value.clone()),
                    "--artifact" => artifact_path = Some(PathBuf::from(value)),
                    "--artifact-b" => artifact_b_path = Some(PathBuf::from(value)),
                    "--speed" => speed = parse(flag, value),
                    "--transcript" => transcript_path = Some(PathBuf::from(value)),
                    "--window" => window = parse(flag, value),
                    "--probe-every" => serve.probe_every = parse(flag, value),
                    "--radius-factor" => serve.radius_factor = parse(flag, value),
                    "--drift-threshold" => serve.drift_threshold = parse(flag, value),
                    "--min-observations" => serve.min_observations = parse(flag, value),
                    other => die(&format!("unknown flag {other}")),
                }
            }
        }
        i += 1;
    }

    let recording_dir = recording_dir.unwrap_or_else(|| die("--recording DIR is required"));
    if daemon_addr.is_some() == artifact_path.is_some() {
        die("pick exactly one of --daemon ADDR or --artifact PATH for side A");
    }
    if speed < 0.0 || !speed.is_finite() {
        die("--speed must be a finite value >= 0");
    }

    let recording = load_recording(&recording_dir).unwrap_or_else(|e| die(&e.to_string()));
    eprintln!(
        "loaded {} frames from {} ({} segments, {} torn)",
        recording.frames.len(),
        recording_dir.display(),
        recording.segments,
        recording.torn_segments
    );

    let target_a: Box<dyn ReplayTarget> = match (&daemon_addr, &artifact_path) {
        (Some(addr), _) => Box::new(WireTarget::new(addr, window)),
        (None, Some(path)) => Box::new(service(path, &serve)),
        (None, None) => unreachable!("validated above"),
    };
    let target_b: Option<Box<dyn ReplayTarget>> = match (&artifact_b_path, b_pin_fallback) {
        (Some(path), false) => Some(Box::new(service(path, &serve))),
        (base, true) => {
            // Pinning needs an in-process service to know the fallback
            // landmark; base on --artifact-b when given, else side A's
            // artifact.
            let path = base.as_ref().or(artifact_path.as_ref()).unwrap_or_else(|| {
                die("--b-pin-fallback needs --artifact or --artifact-b (an artifact file)")
            });
            let inner = service(path, &serve);
            let fallback = inner.artifact().fallback;
            Some(Box::new(PinnedFallback { inner, fallback }))
        }
        (None, false) => None,
    };
    if check && target_b.is_none() {
        die("--check needs a side B: --artifact-b PATH or --b-pin-fallback");
    }

    let opts = ReplayOptions { speed };
    let outcome_a =
        replay(&recording.frames, target_a.as_ref(), &opts).unwrap_or_else(|e| die(&e.to_string()));
    eprintln!(
        "side A answered {} selection frames ({} selections, {} control frames skipped)",
        outcome_a.results.len(),
        outcome_a.selections(),
        outcome_a.control_skipped
    );
    if let Some(path) = &transcript_path {
        std::fs::write(path, outcome_a.transcript())
            .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", path.display())));
        eprintln!("transcript written to {}", path.display());
    }

    let Some(target_b) = target_b else {
        return;
    };
    let outcome_b =
        replay(&recording.frames, target_b.as_ref(), &opts).unwrap_or_else(|e| die(&e.to_string()));
    let report = divergence(&outcome_a, &outcome_b);
    print_report(&report, &outcome_a, &outcome_b);
    if check && !report.clean() {
        std::process::exit(EXIT_DIVERGED);
    }
}

fn service(path: &Path, serve: &ServeOptions) -> VectorService {
    let artifact = ModelArtifact::load(path).unwrap_or_else(|e| die(&e.to_string()));
    eprintln!(
        "loaded {} (benchmark `{}`, revision {})",
        path.display(),
        artifact.benchmark,
        artifact.revision
    );
    VectorService::new(artifact, serve.clone()).unwrap_or_else(|e| die(&e.to_string()))
}

fn print_report(report: &DivergenceReport, a: &ReplayOutcome, b: &ReplayOutcome) {
    println!(
        "compared {} frames / {} selections: {} diverged in {} frames",
        report.frames, report.selections, report.diverged, report.diverged_frames
    );
    println!(
        "fallbacks: side A {}, side B {}; shape mismatch: {}; control skipped: {}/{}",
        report.fallbacks_a,
        report.fallbacks_b,
        report.shape_mismatch,
        a.control_skipped,
        b.control_skipped
    );
    match &report.first {
        Some(first) => println!(
            "first divergence: seq {} conn {} tenant {} selection {}\n  a: {}\n  b: {}",
            first.seq, first.conn, first.tenant, first.index, first.a, first.b
        ),
        None if report.clean() => println!("replays are byte-identical"),
        None => {}
    }
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| die(&format!("{flag}: cannot parse `{value}`")))
}

fn usage() -> ! {
    eprintln!(
        "usage: intune_replay --recording DIR (--daemon ADDR | --artifact PATH) \
         [--artifact-b PATH] [--b-pin-fallback] [--check] \
         [--speed X] [--transcript PATH] [--window N] \
         [--probe-every N] [--radius-factor X] \
         [--drift-threshold X] [--min-observations N]"
    );
    std::process::exit(0)
}

fn die(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}
