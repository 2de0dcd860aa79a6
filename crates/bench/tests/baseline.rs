//! Round-trip integration tests for the stored-baseline subsystem:
//! bless → gate clean, perturb → gate flags with exit code exactly 1,
//! two independent bless runs are byte-identical, and the perf
//! manifest's generous gates hold on fixed synthetic inputs.
//!
//! Every test that asserts a clean gate blesses and gates only the
//! byte-deterministic groups: the perf manifest is wall-clock, so a
//! live re-measurement must never decide a test outcome.

use std::path::PathBuf;

use wp_bench::baseline::{bless, gate, perf_thresholds, DETERMINISTIC_GROUPS};
use wp_bench::perf::{PerfReport, PerfRow};
use wp_campaign::Store;
use wp_tune::{DiffThresholds, TraceDiff, TraceSet};

/// A fresh scratch directory under the system temp dir; any leftover
/// from a previous run is cleared first.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wp-baseline-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn bless_gate_round_trip_and_perturbation() {
    let blessed = scratch("blessed");
    let bless_store = Store::new(scratch("bless-store"));
    let paths = bless(&blessed, &bless_store, &DETERMINISTIC_GROUPS, true).expect("bless");
    assert_eq!(paths.len(), DETERMINISTIC_GROUPS.len());
    for path in &paths {
        assert!(path.is_file(), "{} missing", path.display());
    }

    // A gate straight after a bless must be clean: same tree, same
    // pipelines re-run on a cold store of its own, deterministic
    // manifests.
    let fresh = Store::new(scratch("fresh"));
    let report =
        gate(&blessed, &fresh, &DETERMINISTIC_GROUPS, true, DiffThresholds::default(), None)
            .expect("gate");
    assert!(report.is_clean(), "fresh gate flagged: {:?}", report.json().to_compact());
    assert_eq!(report.exit_code(), 0);

    // Perturb one blessed chain energy by far more than the 2%
    // relative gate and the 1024 pJ absolute floor (prepending a digit
    // scales the value ~10x): the gate must flag it, exit code
    // exactly 1.
    let trace_path = &paths[0];
    let text = std::fs::read_to_string(trace_path).expect("read blessed trace report");
    let perturbed = text.replacen("\"energy_pj\": ", "\"energy_pj\": 9", 1);
    assert_ne!(text, perturbed, "no chain energy found to perturb");
    std::fs::write(trace_path, perturbed).expect("write perturbed baseline");

    let report =
        gate(&blessed, &fresh, &DETERMINISTIC_GROUPS, true, DiffThresholds::default(), None)
            .expect("gate");
    assert!(report.regressions() > 0);
    assert_eq!(report.exit_code(), 1, "a gated shift exits exactly 1");
    // Only the trace-report manifest was touched; the tuned-areas
    // manifest must still diff clean.
    assert_eq!(report.diffs[1].1.regressions(), 0);

    for dir in [blessed, bless_store.root().to_path_buf(), fresh.root().to_path_buf()] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// A synthetic throughput manifest shaped like the blessed one, with
/// every Mfetch/s and speedup column scaled by `scale`.
fn perf_manifest(scale: f64) -> TraceSet {
    let row = |scenario, core, mfetch_per_s: f64, speedup_vs_ref: f64| PerfRow {
        scenario,
        core,
        ns: 1e6,
        mfetch_per_s: mfetch_per_s * scale,
        speedup_vs_ref: speedup_vs_ref * scale,
    };
    let report = PerfReport {
        rows: vec![
            row("straight", "soa-fetch", 94.0, 1.0),
            row("straight", "soa-block", 350.0, 3.7),
            row("loopy", "soa-fetch", 21.0, 1.0),
            row("loopy", "soa-block", 20.4, 0.97),
        ],
        words: 400_000,
        iters: 7,
        quick: false,
    };
    TraceSet::parse(&report.json().to_pretty(), "synthetic", "perf_fetch").expect("parses")
}

/// The perf gate on fixed inputs: speedups and throughputs 1.5x the
/// blessed ones are the wall-clock wobble the generous thresholds
/// exist to absorb, so they stay clean; a tenfold shift is far past
/// the 75% relative gate and the 1.0x / 5 Mfetch/s floors, so it
/// flags.
#[test]
fn perf_speedup_drift_gates_under_generous_thresholds() {
    let blessed = perf_manifest(1.0);
    let wobble = TraceDiff::compute(&blessed, &perf_manifest(1.5), perf_thresholds());
    assert_eq!(wobble.regressions(), 0, "{}", wobble.json().to_compact());
    let shifted = TraceDiff::compute(&blessed, &perf_manifest(10.0), perf_thresholds());
    assert!(shifted.regressions() > 0, "tenfold speedup shift must flag");
    // The deterministic manifests' tight default gates would flag the
    // same 1.5x wobble: the band, not the inputs, absorbs it.
    let tight = TraceDiff::compute(&blessed, &perf_manifest(1.5), DiffThresholds::default());
    assert!(tight.regressions() > 0);
}

#[test]
fn independent_bless_runs_are_byte_identical() {
    let first_dir = scratch("determinism-a");
    let second_dir = scratch("determinism-b");
    let first_store = Store::new(scratch("determinism-store-a"));
    let second_store = Store::new(scratch("determinism-store-b"));
    let first = bless(&first_dir, &first_store, &DETERMINISTIC_GROUPS, true).expect("first bless");
    let second =
        bless(&second_dir, &second_store, &DETERMINISTIC_GROUPS, true).expect("second bless");
    for (a, b) in first.iter().zip(&second) {
        let name = a.file_name().expect("file name");
        assert_eq!(
            std::fs::read(a).expect("read first"),
            std::fs::read(b).expect("read second"),
            "{} differs between two bless runs",
            name.to_string_lossy()
        );
    }
    for dir in
        [first_dir, second_dir, first_store.root().to_path_buf(), second_store.root().to_path_buf()]
    {
        let _ = std::fs::remove_dir_all(dir);
    }
}
