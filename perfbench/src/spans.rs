//! The traced run's span recorder.
//!
//! Spans are taken from outside the program: the benchmark times its own
//! calls into each layer's public functions. They stay in memory while
//! the run measures and are written out once it ends. Spans of one
//! request (or learning case, or retrain cycle) share a trace id; a
//! span's self time is its duration minus the part of it that its
//! children cover.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id, unique within the run (1-based).
    pub id: u64,
    /// Parent span id (0 for a root).
    pub parent: u64,
    /// Trace id shared by every span of one request, case or cycle.
    pub trace: u64,
    /// Layer-scoped name of the call, e.g. `protocol.decode`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

/// First trace id of requests replayed in-process, after the ids of
/// the traced traffic, which count from 1.
pub const REPLAY_TRACE_BASE: u64 = 1 << 32;

/// An open span: close it with [`Tracer::end`].
#[derive(Debug)]
#[must_use = "an open span must be ended"]
pub struct Open {
    id: u64,
    parent: u64,
    trace: u64,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    /// The open span's id, for parenting child spans.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The open span's trace id.
    pub fn trace(&self) -> u64 {
        self.trace
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    next_id: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder; span times count from now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            next_id: 1,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span in `trace` under `parent` (0 for a root).
    pub fn begin(&mut self, trace: u64, parent: u64, name: &'static str) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open {
            id,
            parent,
            trace,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Closes `open` and keeps it.
    pub fn end(&mut self, open: Open) {
        let end = self.now_ns();
        self.spans.push(Span {
            id: open.id,
            parent: open.parent,
            trace: open.trace,
            name: open.name,
            start_ns: open.start_ns,
            dur_ns: end.saturating_sub(open.start_ns),
        });
    }

    /// Keeps a span of `dur_ns` that ended just now: for work the
    /// benchmark could only time after the fact.
    pub fn record_ended(&mut self, trace: u64, parent: u64, name: &'static str, dur_ns: u64) {
        let id = self.next_id;
        self.next_id += 1;
        let end = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            trace,
            name,
            start_ns: end.saturating_sub(dur_ns),
            dur_ns: dur_ns.min(end),
        });
    }

    /// Times `f` as one span in `trace` under `parent`.
    pub fn time<T>(
        &mut self,
        trace: u64,
        parent: u64,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.begin(trace, parent, name);
        let out = f();
        self.end(open);
        out
    }

    /// Every closed span, in closing order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, parallel to [`Tracer::spans`].
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// Durations in nanoseconds of the spans named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .collect()
    }

    /// Mean duration in microseconds of the spans named `name` (0 if
    /// there are none).
    pub fn mean_us(&self, name: &str) -> f64 {
        let d = self.durations_ns(name);
        d.iter().sum::<u64>() as f64 / d.len().max(1) as f64 / 1e3
    }

    /// Writes every span as one JSON object per line, self time included.
    ///
    /// # Errors
    /// Returns the IO error if the file cannot be written.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            writeln!(
                out,
                "{{\"trace\": {}, \"id\": {}, \"parent\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"dur_ns\": {}, \"self_ns\": {}}}",
                s.trace, s.id, s.parent, s.name, s.start_ns, s.dur_ns, self_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of each span: its duration minus the union of its
/// children's intervals clipped to its own.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            children[p].push((s.start_ns, s.start_ns + s.dur_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let (lo, hi) = (s.start_ns, s.start_ns + s.dur_ns);
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = lo;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(hi));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns - covered.min(s.dur_ns)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, dur_ns: u64) -> Span {
        Span {
            id,
            parent,
            trace: 1,
            name: "x",
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Root 0..100 with children 10..30 and 20..50 (overlapping) and
        // a grandchild inside the first child.
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 20),
            span(3, 1, 20, 30),
            span(4, 2, 12, 5),
        ];
        assert_eq!(self_times_ns(&spans), vec![60, 15, 30, 5]);
    }

    #[test]
    fn tracer_nests_spans_under_their_parent() {
        let mut t = Tracer::new();
        let root = t.begin(7, 0, "root");
        let v = t.time(7, root.id(), "child", || 41 + 1);
        t.end(root);
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "child");
        assert_eq!(spans[0].parent, spans[1].id);
        assert!(spans.iter().all(|s| s.trace == 7));
        let selfs = t.self_times_ns();
        assert_eq!(selfs[1], spans[1].dur_ns - spans[0].dur_ns);
    }
}
