//! In-memory spans recorded by the harness around every call it makes into
//! the system. A span has a name, a start, an end, the span that caused it
//! and the request (op index) it belongs to; self time is the span's
//! duration minus the part of it its children cover. Spans are written as
//! JSON lines when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Single-threaded span recorder. `time` always measures; the span is kept
/// only while recording is on, so the same call sites serve the untraced
/// run and the control half of the traced run.
pub struct Tracer {
    t0: Instant,
    recording: bool,
    request: u64,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            recording: false,
            request: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Turns span recording on or off (only between requests).
    pub fn set_recording(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggle between requests only");
        self.recording = on;
    }

    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Runs `f` as the root span `request` of op `request`.
    pub fn request<T>(&mut self, request: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        self.request = request;
        self.time("request", f).0
    }

    /// Runs `f` inside a span called `name`; returns its result and its
    /// wall time in seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let start = Instant::now();
        let slot = self.recording.then(|| {
            let id = self.spans.len() as u32;
            self.spans.push(Span {
                id,
                parent: self.open.last().copied(),
                request: self.request,
                name,
                start_ns: (start - self.t0).as_nanos() as u64,
                end_ns: 0,
            });
            self.open.push(id);
            id
        });
        let out = f(self);
        let end = Instant::now();
        if let Some(id) = slot {
            self.spans[id as usize].end_ns = (end - self.t0).as_nanos() as u64;
            self.open.pop();
        }
        (out, (end - start).as_secs_f64())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines (one object per span, with its self
    /// time).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self_times_ns(&self.spans);
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                s.id, parent, s.request, s.name, s.start_ns, s.end_ns, self_ns
            )?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus the union of the intervals
/// its direct children cover (clipped to the span), so overlapping or
/// back-to-back children are never counted twice.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Self times (ms) of every span called `name`.
pub fn self_ms_of(spans: &[Span], name: &str) -> Vec<f64> {
    self_times_ns(spans)
        .into_iter()
        .zip(spans)
        .filter(|(_, s)| s.name == name)
        .map(|(ns, _)| ns as f64 / 1e6)
        .collect()
}

/// Total duration (seconds) of the spans called `name` below the span `root`
/// (any depth).
pub fn total_secs_under(spans: &[Span], root: u32, name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name && has_ancestor(spans, s, root))
        .map(|s| s.duration_ns() as f64 / 1e9)
        .sum()
}

fn has_ancestor(spans: &[Span], span: &Span, root: u32) -> bool {
    let mut cur = span.parent;
    while let Some(p) = cur {
        if p == root {
            return true;
        }
        cur = spans[p as usize].parent;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span(0, None, "request", 0, 100),
            span(1, Some(0), "a", 10, 40),
            span(2, Some(0), "b", 40, 70),
            span(3, Some(1), "a.inner", 15, 25),
        ];
        // request: 100 - (30 + 30); a: 30 - 10; grandchildren do not count
        // against the root twice.
        assert_eq!(self_times_ns(&spans), vec![40, 20, 30, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span(0, None, "request", 0, 100),
            span(1, Some(0), "a", 10, 60),
            span(2, Some(0), "b", 40, 80),
            // A child leaking past its parent is clipped.
            span(3, Some(0), "c", 90, 120),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn tracer_nests_spans_and_keeps_only_recorded_ones() {
        let mut t = Tracer::new();
        let (v, secs) = t.time("untraced", |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());

        t.set_recording(true);
        t.request(5, |t| {
            t.time("outer", |t| {
                t.time("inner", |_| ());
            });
            t.time("sibling", |_| ());
        });
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("request", None),
                ("outer", Some(0)),
                ("inner", Some(1)),
                ("sibling", Some(0)),
            ]
        );
        assert!(t.spans().iter().all(|s| s.request == 5));
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(total_secs_under(t.spans(), 1, "sibling"), 0.0);
        assert!(total_secs_under(t.spans(), 0, "inner") >= 0.0);
    }
}
