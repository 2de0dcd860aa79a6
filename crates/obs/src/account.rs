//! Per-phase resource accounting, attributed by benchmark × scheme ×
//! phase.
//!
//! The journal answers "what happened, in order"; the accounts answer
//! "where did the cycles go". Each `(benchmark, scheme, phase)` cell
//! accumulates wall time, simulated cycles, fetches, retries and
//! I-cache energy. Wall time is the only non-deterministic column and
//! is excluded from canonical exports by the callers.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Accumulated resources for one `(benchmark, scheme, phase)` cell.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Usage {
    /// Host wall time spent, nanoseconds (non-deterministic).
    pub wall_ns: u64,
    /// Simulated guest cycles.
    pub cycles: u64,
    /// Simulated instruction fetches.
    pub fetches: u64,
    /// Retry attempts charged to this cell.
    pub retries: u64,
    /// I-cache energy, picojoules.
    pub energy_pj: f64,
}

impl Usage {
    fn absorb(&mut self, other: &Usage) {
        self.wall_ns += other.wall_ns;
        self.cycles += other.cycles;
        self.fetches += other.fetches;
        self.retries += other.retries;
        self.energy_pj += other.energy_pj;
    }
}

/// Attribution key. `BTreeMap` ordering gives deterministic exports.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    /// Benchmark name.
    pub benchmark: String,
    /// Fetch-scheme label (or a campaign-specific key like
    /// `way-memoization@1000ppm`).
    pub scheme: String,
    /// Pipeline phase: `workbench`, `baseline`, `measure`, `chaos`,
    /// ...
    pub phase: String,
}

/// Thread-safe account book.
#[derive(Default)]
pub struct Accounts {
    cells: Mutex<BTreeMap<Key, Usage>>,
}

impl Accounts {
    /// Fresh, empty book.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge `usage` to `(benchmark, scheme, phase)`.
    pub fn charge(&self, benchmark: &str, scheme: &str, phase: &str, usage: Usage) {
        let key = Key {
            benchmark: benchmark.to_string(),
            scheme: scheme.to_string(),
            phase: phase.to_string(),
        };
        let mut cells = match self.cells.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        cells.entry(key).or_default().absorb(&usage);
    }

    /// All cells in deterministic key order.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(Key, Usage)> {
        let cells = match self.cells.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        cells.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// Sum of one column across every cell matching `phase` (all
    /// phases when `None`).
    #[must_use]
    pub fn total(&self, phase: Option<&str>, pick: impl Fn(&Usage) -> u64) -> u64 {
        self.snapshot()
            .iter()
            .filter(|(k, _)| phase.is_none_or(|p| k.phase == p))
            .map(|(_, u)| pick(u))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_cell() {
        let book = Accounts::new();
        book.charge("crc", "wp", "measure", Usage { cycles: 10, fetches: 5, ..Usage::default() });
        book.charge("crc", "wp", "measure", Usage { cycles: 1, retries: 2, ..Usage::default() });
        book.charge("crc", "wp", "baseline", Usage { cycles: 7, ..Usage::default() });
        let cells = book.snapshot();
        assert_eq!(cells.len(), 2);
        // BTreeMap order: baseline < measure.
        assert_eq!(cells[0].0.phase, "baseline");
        assert_eq!(cells[1].1.cycles, 11);
        assert_eq!(cells[1].1.fetches, 5);
        assert_eq!(cells[1].1.retries, 2);
        assert_eq!(book.total(Some("measure"), |u| u.cycles), 11);
        assert_eq!(book.total(None, |u| u.cycles), 18);
    }
}
