//! In-memory spans recorded by the benchmark around its calls into each
//! layer (the program itself is not instrumented). Each span has a
//! name, start, end, parent and the id of the request that caused it;
//! spans are kept in memory and written out as JSON lines at the end.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span (times in ns since the tracer's epoch).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `session.compile`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request that caused the span.
    pub req: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// A span recorder with an explicit stack of open spans.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for request `req`, nested
    /// under the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent, req });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end = self.now();
        r
    }

    /// [`Tracer::span`], also returning the span's duration in µs.
    pub fn timed<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let r = self.span(name, req, |_| f());
        let sp = self.spans.last().expect("span just recorded");
        (r, sp.dur() as f64 / 1e3)
    }

    /// All spans, in start order of recording.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                sp.name, sp.start, sp.end, sp.req
            );
        }
        s
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its direct children (children may overlap
/// each other, e.g. work on parallel threads, and are clipped to the
/// parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for sp in spans {
        if let Some(p) = sp.parent {
            children[p].push((sp.start, sp.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(sp, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (s, e) in kids {
                let (s, e) = (s.max(sp.start), e.min(sp.end));
                if s >= e {
                    continue;
                }
                cur = match cur {
                    Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
                    Some((cs, ce)) => {
                        covered += ce - cs;
                        Some((s, e))
                    }
                    None => Some((s, e)),
                };
            }
            if let Some((cs, ce)) = cur {
                covered += ce - cs;
            }
            sp.dur() - covered
        })
        .collect()
}

/// Share of the time of the root spans named `root` not covered by
/// any of their child spans.
pub fn unattributed_share(spans: &[Span], root: &str) -> f64 {
    let selfs = self_times(spans);
    let (mut total, mut unattributed) = (0u64, 0u64);
    for (sp, st) in spans.iter().zip(selfs) {
        if sp.parent.is_none() && sp.name == root {
            total += sp.dur();
            unattributed += st;
        }
    }
    if total == 0 {
        0.0
    } else {
        unattributed as f64 / total as f64
    }
}
