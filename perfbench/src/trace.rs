//! In-memory span recorder for the traced run.
//!
//! Spans sit in the benchmark's own code, around its calls into each
//! crate's public functions. Each span keeps its name, start, end, parent
//! and the id of the op it belongs to. Spans stay in memory while the run
//! measures and are written out once it ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-boundary name, e.g. `segnet.infer.f32.hr`.
    pub name: &'static str,
    /// Start time in ns.
    pub start_ns: u64,
    /// End time in ns (0 while the span is open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. A disabled tracer records nothing and only runs the
/// wrapped closures.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Self {
        Self {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            enabled: false,
            ..Self::on()
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::close`]. Returns `None` when
    /// disabled.
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        Some(idx)
    }

    /// Closes a span opened by [`Tracer::open`] and returns its duration.
    pub fn close(&mut self, id: Option<usize>) -> u64 {
        let Some(idx) = id else { return 0 };
        let end = self.now_ns();
        if self.stack.last() == Some(&idx) {
            self.stack.pop();
        }
        self.spans[idx].end_ns = end;
        self.spans[idx].dur_ns()
    }

    /// Runs `f` inside a leaf span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let r = f();
        self.close(id);
        r
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// `(count, total ns)` of the spans named `name`.
    pub fn totals(&self, name: &str) -> (usize, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(n, t), s| (n + 1, t + s.dur_ns()))
    }

    /// Median duration of the spans named `name`, in µs (0 if none).
    /// Medians keep a call the host descheduled from moving the figure.
    pub fn median_us(&self, name: &str) -> f64 {
        self.median_ns(|s| s.name == name).1 as f64 / 1e3
    }

    /// `(count, median ns)` of the spans named `name` stamped with op `op`.
    pub fn op_median_ns(&self, name: &str, op: u64) -> (usize, u64) {
        self.median_ns(|s| s.op == op && s.name == name)
    }

    fn median_ns(&self, keep: impl Fn(&Span) -> bool) -> (usize, u64) {
        let mut d: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| keep(s))
            .map(Span::dur_ns)
            .collect();
        d.sort_unstable();
        (
            d.len(),
            d.get(d.len().saturating_sub(1) / 2).copied().unwrap_or(0),
        )
    }

    /// Writes every span as a JSON array.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.op,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("]\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_op() {
        let mut tr = Tracer::on();
        tr.set_op(7);
        let root = tr.open("root");
        let v = tr.span("leaf", || 41 + 1);
        tr.close(root);
        assert_eq!(v, 42);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert_eq!(tr.totals("leaf").0, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::off();
        let id = tr.open("root");
        assert_eq!(tr.span("leaf", || 3), 3);
        tr.close(id);
        assert!(tr.spans().is_empty());
    }
}
