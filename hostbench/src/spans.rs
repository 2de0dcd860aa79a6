//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its layer, operation, start, end and parent; spans
//! of one configuration share a configuration id. Nothing is written
//! until the run ends. A span's self time is its duration minus its
//! children's.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// The layer (crate name) the call belongs to.
    pub layer: &'static str,
    /// The operation within the layer.
    pub op: &'static str,
    /// A qualifier, such as the layout a link ran under.
    pub detail: &'static str,
    /// The run phase: `setup`, `pass` or `probe`.
    pub phase: &'static str,
    /// The configuration the span belongs to (0: none).
    pub config: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans in memory.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// The phase new spans are recorded under.
    pub phase: &'static str,
    /// The configuration id new spans are recorded under.
    pub config: u64,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), phase: "", config: 0 }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; it encloses every span opened before the matching
    /// [`Tracer::exit`].
    pub fn enter(&mut self, layer: &'static str, op: &'static str, detail: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            op,
            detail,
            phase: self.phase,
            config: self.config,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// When no span is open.
    pub fn exit(&mut self) {
        let index = self.open.pop().expect("exit matches an enter");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span with no children.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        op: &'static str,
        detail: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        self.enter(layer, op, detail);
        let result = f();
        self.exit();
        result
    }

    /// Self time of every span, in nanoseconds, indexed like
    /// [`Tracer::spans`].
    #[must_use]
    pub fn self_ns(&self) -> Vec<u64> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                self_ns[parent] = self_ns[parent].saturating_sub(span.duration_ns());
            }
        }
        self_ns
    }

    /// Summed self seconds and span count of the spans `keep` selects.
    #[must_use]
    pub fn total(&self, keep: impl Fn(&Span) -> bool) -> (f64, u64) {
        let self_ns = self.self_ns();
        let (mut ns, mut calls) = (0u64, 0u64);
        for (span, own) in self.spans.iter().zip(self_ns) {
            if keep(span) {
                ns += own;
                calls += 1;
            }
        }
        (ns as f64 * 1e-9, calls)
    }

    /// Self seconds and span count per layer within `phase`.
    #[must_use]
    pub fn by_layer(&self, phase: &str) -> BTreeMap<&'static str, (f64, u64)> {
        let mut layers = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_ns()) {
            if span.phase == phase {
                let entry = layers.entry(span.layer).or_insert((0.0, 0));
                entry.0 += own as f64 * 1e-9;
                entry.1 += 1;
            }
        }
        layers
    }

    /// Every span as one JSON object per line.
    #[must_use]
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"config\":{},\"phase\":\"{}\",\
                 \"layer\":\"{}\",\"op\":\"{}\",\"detail\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                span.config,
                span.phase,
                span.layer,
                span.op,
                span.detail,
                span.start_ns,
                span.end_ns
            );
        }
        out
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::new();
        tracer.phase = "pass";
        tracer.enter("bench", "config", "");
        tracer.span("sim", "simulate", "", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        tracer.exit();
        assert_eq!(tracer.spans[1].parent, Some(0));
        let self_ns = tracer.self_ns();
        assert_eq!(self_ns[0] + self_ns[1], tracer.spans[0].duration_ns());
        assert!(self_ns[1] >= 5_000_000);
        let layers = tracer.by_layer("pass");
        assert_eq!(layers["sim"].1, 1);
        assert_eq!(tracer.jsonl().lines().count(), 2);
    }
}
