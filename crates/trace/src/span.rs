//! Engine-level spans: wall-clock phase timings and instant events
//! (retries, watchdog timeouts, fault injections, panics)
//! from the experiment harness, collected thread-safely.
//!
//! Span timestamps are host wall-clock microseconds relative to the
//! collector's epoch. They are *not* deterministic and are therefore
//! excluded from the determinism-tested JSONL stream; they feed the
//! Chrome `trace_event` export instead.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// One completed span or instant event.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SpanEvent {
    /// Event name (e.g. `"workbench:crc"`, `"measure:crc/way-placement"`).
    pub name: String,
    /// Category (e.g. `"build"`, `"measure"`, `"retry"`).
    pub category: &'static str,
    /// Microseconds since the collector's epoch.
    pub start_us: u64,
    /// Span duration in microseconds; `0` for instant events.
    pub duration_us: u64,
    /// Free-form key/value annotations.
    pub args: Vec<(String, String)>,
}

/// A thread-safe collector of [`SpanEvent`]s.
#[derive(Debug)]
pub struct SpanCollector {
    epoch: Instant,
    spans: Mutex<Vec<SpanEvent>>,
}

impl SpanCollector {
    /// An empty collector whose epoch is now.
    #[must_use]
    pub fn new() -> SpanCollector {
        SpanCollector { epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    /// A shared collector when `$WP_TRACE` enables tracing, else
    /// `None` — the harness's construction-time gate.
    #[must_use]
    pub fn from_env() -> Option<Arc<SpanCollector>> {
        crate::trace_enabled().then(|| Arc::new(SpanCollector::new()))
    }

    fn micros_since_epoch(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Records a span that started at `started` and ends now.
    pub fn record(
        &self,
        name: impl Into<String>,
        category: &'static str,
        started: Instant,
        args: Vec<(String, String)>,
    ) {
        let start_us = self.micros_since_epoch(started);
        let end_us = self.micros_since_epoch(Instant::now());
        self.push(SpanEvent {
            name: name.into(),
            category,
            start_us,
            duration_us: end_us.saturating_sub(start_us),
            args,
        });
    }

    /// Records an instant event (zero duration) happening now.
    pub fn instant(
        &self,
        name: impl Into<String>,
        category: &'static str,
        args: Vec<(String, String)>,
    ) {
        let start_us = self.micros_since_epoch(Instant::now());
        self.push(SpanEvent { name: name.into(), category, start_us, duration_us: 0, args });
    }

    fn push(&self, span: SpanEvent) {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner).push(span);
    }

    /// Snapshots the collected spans, ordered by start time (stable on
    /// ties, so concurrent recorders still yield a canonical order).
    #[must_use]
    pub fn spans(&self) -> Vec<SpanEvent> {
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner).clone();
        spans.sort_by_key(|s| s.start_us);
        spans
    }

    /// Spans collected so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// Whether nothing has been collected.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for SpanCollector {
    fn default() -> SpanCollector {
        SpanCollector::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_spans_and_instants_in_order() {
        let collector = SpanCollector::new();
        let started = Instant::now();
        collector.record("phase", "measure", started, vec![("k".into(), "v".into())]);
        collector.instant("retry", "retry", Vec::new());
        let spans = collector.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(collector.len(), 2);
        assert!(!collector.is_empty());
        assert_eq!(spans[0].name, "phase");
        assert_eq!(spans[1].duration_us, 0);
        assert!(spans[0].start_us <= spans[1].start_us);
    }
}
