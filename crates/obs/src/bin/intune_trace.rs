//! `intune_trace` — reassemble trace trees from recorded span logs.
//!
//! ```text
//! intune_trace PATH [PATH ...]              list every trace (one line each)
//! intune_trace PATH --trace-id HEX         render one trace as a span tree
//! intune_trace PATH --slowest K            the K slowest traces, trees and all
//! intune_trace PATH --json                 machine-readable output
//! ```
//!
//! Each `PATH` is a span-log file (`*.spans.log`) or a directory swept
//! for them — pass the daemon's directory and a client's file together
//! and one trace id knits the cross-process spans into a single tree.
//!
//! Exit codes: 0 on success (including an empty log), 2 on usage
//! errors, 3 when a log cannot be read, 4 when `--trace-id` names a
//! trace no log contains. A torn tail is reported on stderr but the
//! complete spans still render and the exit stays 0.

use intune_core::TraceContext;
use intune_obs::{read_span_dir, read_spans, Span};
use std::collections::BTreeMap;
use std::path::Path;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<String> = Vec::new();
    let mut trace_id: Option<u64> = None;
    let mut slowest: Option<usize> = None;
    let mut json = false;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--help" | "-h" => {
                println!(
                    "usage: intune_trace PATH [PATH ...] [--trace-id HEX] [--slowest K] [--json]"
                );
                return;
            }
            "--json" => json = true,
            "--trace-id" => {
                i += 1;
                let value = argv
                    .get(i)
                    .unwrap_or_else(|| die("--trace-id needs a value"));
                trace_id = Some(
                    TraceContext::parse_trace_id(value)
                        .unwrap_or_else(|| die(&format!("--trace-id: bad hex id `{value}`"))),
                );
            }
            "--slowest" => {
                i += 1;
                let value = argv
                    .get(i)
                    .unwrap_or_else(|| die("--slowest needs a value"));
                slowest = Some(
                    value
                        .parse()
                        .unwrap_or_else(|_| die(&format!("--slowest: bad count `{value}`"))),
                );
            }
            other if !other.starts_with('-') => paths.push(other.to_string()),
            other => die(&format!("unexpected argument {other:?}")),
        }
        i += 1;
    }
    if paths.is_empty() {
        die("at least one span log or directory is required");
    }

    let mut spans: Vec<Span> = Vec::new();
    for arg in &paths {
        let path = Path::new(arg);
        let scan = if path.is_dir() {
            read_span_dir(path)
        } else {
            read_spans(path)
        }
        .unwrap_or_else(|e| {
            eprintln!("intune_trace: {e}");
            std::process::exit(3);
        });
        if let Some(torn) = scan.torn {
            eprintln!("intune_trace: torn tail in {arg}: {torn}");
        }
        spans.extend(scan.records);
    }

    // trace id -> spans, insertion-ordered within a trace (append order
    // approximates causal order; the tree render re-orders by parent).
    let mut traces: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
    for span in spans {
        traces.entry(span.trace_id).or_default().push(span);
    }

    if let Some(id) = trace_id {
        let Some(trace) = traces.get(&id) else {
            eprintln!(
                "intune_trace: no spans for trace {}",
                TraceContext::format_trace_id(id)
            );
            std::process::exit(4);
        };
        render_trace(id, trace, json);
        return;
    }

    if let Some(k) = slowest {
        let mut ranked: Vec<(u64, u64)> = traces
            .iter()
            .map(|(id, spans)| (trace_duration(spans), *id))
            .collect();
        ranked.sort_by(|a, b| b.cmp(a));
        for (_, id) in ranked.into_iter().take(k) {
            render_trace(id, &traces[&id], json);
        }
        return;
    }

    // Default: one summary line per trace.
    for (id, spans) in &traces {
        let root = spans
            .iter()
            .find(|s| s.parent_span == 0)
            .or_else(|| spans.first());
        let (name, tenant) = root.map_or(("?", "?"), |s| (s.name.as_str(), s.tenant.as_str()));
        if json {
            println!(
                "{{\"trace_id\":\"{}\",\"root\":\"{}\",\"tenant\":\"{}\",\"spans\":{},\"duration_ns\":{}}}",
                TraceContext::format_trace_id(*id),
                name,
                tenant,
                spans.len(),
                trace_duration(spans),
            );
        } else {
            println!(
                "{}  {:<22} tenant={:<12} spans={:<3} {}",
                TraceContext::format_trace_id(*id),
                name,
                tenant,
                spans.len(),
                fmt_ns(trace_duration(spans)),
            );
        }
    }
}

/// A trace's headline duration: its longest span (the root, when the
/// root was recorded; the slowest fragment otherwise).
fn trace_duration(spans: &[Span]) -> u64 {
    spans.iter().map(|s| s.duration_ns).max().unwrap_or(0)
}

/// Renders one trace as an indented tree, children under parents.
/// Orphans (spans whose parent was lost to sampling or truncation) root
/// their own subtree rather than vanishing.
fn render_trace(id: u64, spans: &[Span], json: bool) {
    if json {
        for span in spans {
            match serde_json::to_string(span) {
                Ok(line) => println!("{line}"),
                Err(e) => eprintln!("intune_trace: cannot serialize span: {e}"),
            }
        }
        return;
    }
    println!("trace {}", TraceContext::format_trace_id(id));
    let known: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.span_id).collect();
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    let mut roots: Vec<&Span> = Vec::new();
    for span in spans {
        if span.parent_span != 0 && known.contains(&span.parent_span) {
            children.entry(span.parent_span).or_default().push(span);
        } else {
            roots.push(span);
        }
    }
    for root in roots {
        render_node(root, &children, 0);
    }
}

fn render_node(span: &Span, children: &BTreeMap<u64, Vec<&Span>>, depth: usize) {
    let notes = if span.annotations.is_empty() {
        String::new()
    } else {
        let joined: Vec<String> = span
            .annotations
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!("  [{}]", joined.join(" "))
    };
    println!(
        "{}{} {:<10} {}{}",
        "  ".repeat(depth + 1),
        span.name,
        fmt_ns(span.duration_ns),
        span.tenant,
        notes,
    );
    if let Some(kids) = children.get(&span.span_id) {
        for kid in kids {
            render_node(kid, children, depth + 1);
        }
    }
}

/// `1234567` → `"1.235ms"`; sub-microsecond values stay in ns.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn die(message: &str) -> ! {
    eprintln!("intune_trace: {message}");
    std::process::exit(2)
}
