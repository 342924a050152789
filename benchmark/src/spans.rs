//! The harness's own spans: one around every call it makes into a layer
//! during the traced run, kept in memory and written out at exit. The
//! per-layer table is derived from them.

use crate::workloads::Clock;
use std::path::Path;
use std::time::Instant;

/// One recorded call: what, when, under which parent, and how many
/// operations it covered (so ratios are taken where the work happens).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub count: u64,
}

/// In-memory span recorder for one workload's traced run.
pub struct Spans {
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(workload: &str) -> Self {
        Spans {
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its id.
    pub fn enter(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            count: 0,
        });
        self.open.push(id);
        self.spans[id].start_ns = self.now_ns();
        id
    }

    /// Closes span `id`, which covered `count` operations; returns its
    /// seconds.
    pub fn exit(&mut self, id: usize, count: u64) -> f64 {
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.count = count;
        (end - span.start_ns) as f64 / 1e9
    }

    /// A span's duration minus the part its children cover.
    fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (self.spans[id].end_ns - self.spans[id].start_ns).saturating_sub(children)
    }

    /// Durations and counts of the spans called `name`.
    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (f64, u64)> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(|s| ((s.end_ns - s.start_ns) as f64 / 1e9, s.count))
    }

    /// Seconds of the fastest span called `name` (0 when none ran): the
    /// time of a ladder rung, which runs more than once.
    pub fn fastest(&self, name: &str) -> f64 {
        self.named(name)
            .map(|(secs, _)| secs)
            .min_by(f64::total_cmp)
            .unwrap_or(0.0)
    }

    /// Nanoseconds per counted operation over the spans called `name`
    /// (0 when nothing was counted).
    pub fn ns_per_op(&self, name: &str) -> f64 {
        let (secs, count) = self
            .named(name)
            .fold((0.0, 0u64), |(s, c), (secs, count)| (s + secs, c + count));
        if count == 0 {
            0.0
        } else {
            secs * 1e9 / count as f64
        }
    }

    /// Writes every span (with its self time) as one JSON document.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"count\":{},\"self_ns\":{}}}",
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.count,
                    self.self_ns(id)
                )
            })
            .collect();
        std::fs::write(
            path,
            format!(
                "{{\"workload\":\"{}\",\"spans\":[\n{}\n]}}\n",
                self.workload,
                rows.join(",\n")
            ),
        )
    }
}

impl Clock for Spans {
    fn time<T>(&mut self, name: &str, count: u64, body: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name);
        let result = body();
        (result, self.exit(id, count))
    }
}
