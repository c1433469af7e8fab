//! `intune_obs_dump` — render a recorded event log as a timeline.
//!
//! ```text
//! intune_obs_dump PATH          human-readable timeline (one line/event)
//! intune_obs_dump PATH --json   one compact JSON object per line
//! intune_obs_dump PATH --follow keep polling for new events (tail -f)
//! ```
//!
//! Exit codes: 0 on a clean log, 2 on usage errors, 3 when the log
//! cannot be read. A torn tail is reported on stderr but the complete
//! events still print and the exit stays 0 — a crash-truncated log is a
//! recovered log, not a broken one. `--follow` never reports a torn
//! tail: mid-write frames are the normal transient state it polls
//! through, and the mode runs until interrupted.

use intune_obs::timefmt::iso8601_utc_ms;
use intune_obs::{read_events, Event, EventKind};
use std::io::Write;
use std::path::PathBuf;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut path: Option<PathBuf> = None;
    let mut json = false;
    let mut follow = false;
    for arg in &mut args {
        match arg.as_str() {
            "--json" => json = true,
            "--follow" | "-f" => follow = true,
            "--help" | "-h" => {
                println!("usage: intune_obs_dump PATH [--json] [--follow]");
                return;
            }
            other if path.is_none() && !other.starts_with('-') => {
                path = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("intune_obs_dump: unexpected argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    let Some(path) = path else {
        eprintln!("usage: intune_obs_dump PATH [--json] [--follow]");
        std::process::exit(2);
    };
    let scan = match read_events(&path) {
        Ok(scan) => scan,
        Err(e) => {
            eprintln!("intune_obs_dump: {e}");
            std::process::exit(3);
        }
    };
    let mut out = std::io::stdout();
    for event in &scan.records {
        emit(&mut out, event, json);
    }
    if !follow {
        if let Some(torn) = &scan.torn {
            eprintln!(
                "intune_obs_dump: torn tail after {} complete events ({} clean bytes): {torn}",
                scan.records.len(),
                scan.consumed
            );
        }
        return;
    }
    // Tail mode: poll for frames appended past what we already printed.
    // The writer appends whole frames with one write(2), so re-scanning
    // from byte 0 and skipping the printed prefix is race-free; a
    // half-written frame just parks us until the next poll. A log that
    // shrinks (rotation, truncate-on-reopen) restarts the tail.
    let mut seen = scan.records.len();
    loop {
        std::thread::sleep(std::time::Duration::from_millis(200));
        let scan = match read_events(&path) {
            Ok(scan) => scan,
            Err(_) => continue, // transiently unreadable: keep polling
        };
        if scan.records.len() < seen {
            seen = 0;
        }
        for event in &scan.records[seen..] {
            emit(&mut out, event, json);
        }
        seen = scan.records.len();
    }
}

/// Prints one event (and flushes, so `--follow` output streams through
/// pipes without block buffering).
fn emit(out: &mut std::io::Stdout, event: &Event, json: bool) {
    if json {
        let text = serde_json::to_string(&serde_json::to_value(event))
            .expect("value printing is infallible");
        writeln!(out, "{text}").ok();
    } else {
        writeln!(out, "{}", render(event)).ok();
    }
    out.flush().ok();
}

/// One timeline line: timestamp, seq, tenant@revision, then the event.
fn render(event: &Event) -> String {
    let head = format!(
        "{} #{:<4} {}@r{}",
        iso8601_utc_ms(event.unix_ms),
        event.seq,
        event.tenant,
        event.revision
    );
    let body = match &event.kind {
        EventKind::TenantBound { conn } => format!("tenant-bound conn={conn}"),
        EventKind::ShadowStaged { trained_inputs } => {
            format!("shadow-staged trained_inputs={trained_inputs}")
        }
        EventKind::Promoted {
            mirrored,
            agreed,
            agreement_rate,
        } => format!(
            "PROMOTED mirrored={mirrored} agreed={agreed} agreement_rate={agreement_rate:.4}"
        ),
        EventKind::PromoteRejected { reason } => format!("promote-rejected: {reason}"),
        EventKind::ShadowAutoRejected { trip_rate } => {
            format!("shadow-auto-rejected trip_rate={trip_rate:.4}")
        }
        EventKind::DriftTripped {
            probed,
            ood,
            trip_rate,
        } => format!("DRIFT-TRIPPED probed={probed} ood={ood} trip_rate={trip_rate:.4}"),
        EventKind::FallbackCleared { trip_rate } => {
            format!("fallback-cleared trip_rate={trip_rate:.4}")
        }
        EventKind::RetrainCycle {
            outcome,
            detail,
            new_inputs,
            trace_ids,
        } => {
            let mut line =
                format!("retrain-cycle outcome={outcome} new_inputs={new_inputs}: {detail}");
            if !trace_ids.is_empty() {
                let rendered: Vec<String> = trace_ids
                    .iter()
                    .map(|&id| intune_core::TraceContext::format_trace_id(id))
                    .collect();
                line.push_str(&format!(" traces=[{}]", rendered.join(",")));
            }
            line
        }
        EventKind::LatencySnapshot { latency } => format!(
            "latency count={} p50={}ns p90={}ns p99={}ns p999={}ns max={}ns",
            latency.count,
            latency.p50_ns,
            latency.p90_ns,
            latency.p99_ns,
            latency.p999_ns,
            latency.max_ns
        ),
    };
    format!("{head} {body}")
}
