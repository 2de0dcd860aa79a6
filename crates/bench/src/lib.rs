//! # wp-bench — the experiment harness
//!
//! Regenerates every table and figure of the way-placement paper (see
//! DESIGN.md §6 for the experiment index):
//!
//! | binary   | reproduces                                        |
//! |----------|---------------------------------------------------|
//! | `table1` | Table 1 — the baseline system configuration       |
//! | `fig1`   | Figure 1 — 12 vs 3 tag comparisons                |
//! | `fig4`   | Figure 4 — per-benchmark energy and ED, 32 KB/32w |
//! | `fig5`   | Figure 5 — way-placement area size sweep          |
//! | `fig6`   | Figure 6 — cache size x associativity grid        |
//! | `ablation` | DESIGN.md §10 — layout/elision/replacement studies |
//! | `sensitivity` | energy-model perturbation study              |
//!
//! Every binary runs on the shared [`engine`]: workbenches are
//! assembled and profiled exactly once per process, baselines are
//! shared across schemes, jobs run on a bounded deterministic worker
//! pool, failures are reported structurally instead of panicking, and
//! each binary writes a `BENCH_<fig>.json` manifest (see
//! [`write_manifest`]) alongside its human-readable output.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod autotune;
pub mod baseline;
pub mod campaign;
pub mod chaos;
pub mod engine;
pub mod layout_compare;
pub mod obs;
pub mod perf;
pub mod timing;

/// The serde-free JSON module now lives in `wp-trace` (telemetry needs
/// it below the harness); re-exported here so `wp_bench::json::Json`
/// keeps working.
pub use wp_trace::json;

use std::path::PathBuf;

use wp_core::wp_mem::CacheGeometry;
use wp_core::wp_workloads::{Benchmark, InputSet};
use wp_core::{Measurement, Scheme};

pub use engine::{
    Engine, EngineStats, Experiment, JobFailure, JobPhase, JobRow, PoolSnapshot, RetryPolicy,
    SharedError, SuiteReport,
};
pub use json::Json;

/// One benchmark's baseline-normalised results for a set of schemes.
#[derive(Clone, Debug)]
pub struct SuiteRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Per scheme: `(label, normalised I-cache energy, ED product)`.
    pub values: Vec<(String, f64, f64)>,
}

/// Measures `schemes` (plus the implicit shared baseline) for one
/// benchmark, through the process-wide [`Engine`] caches.
///
/// # Errors
///
/// Propagates any (shared) link/simulation/verification failure.
pub fn run_benchmark(
    benchmark: Benchmark,
    icache: CacheGeometry,
    schemes: &[Scheme],
) -> Result<SuiteRow, SharedError> {
    let engine = Engine::global();
    let baseline = engine.baseline(benchmark, icache, InputSet::Large)?;
    let values = schemes
        .iter()
        .map(|&scheme| -> Result<_, SharedError> {
            let m = engine.measure(benchmark, icache, scheme, InputSet::Large)?;
            Ok((scheme.label(), m.normalized_icache_energy(&baseline), m.ed_product(&baseline)))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(SuiteRow { benchmark, values })
}

/// Runs the whole suite on the process-wide [`Engine`]: bounded
/// parallelism, memoised workbenches and baselines, deterministic row
/// order, and structured (panic-free) failure reporting via
/// [`SuiteReport::failures`].
#[must_use]
pub fn run_suite(
    benchmarks: &[Benchmark],
    icache: CacheGeometry,
    schemes: &[Scheme],
) -> SuiteReport {
    Engine::global().run(&Experiment::new(benchmarks, [icache], schemes))
}

/// Arithmetic mean of the `index`-th scheme's normalised energy across
/// rows (the paper's "average" bars).
#[must_use]
pub fn mean_energy(rows: &[SuiteRow], index: usize) -> f64 {
    rows.iter().map(|r| r.values[index].1).sum::<f64>() / rows.len() as f64
}

/// Arithmetic mean of the `index`-th scheme's ED product.
#[must_use]
pub fn mean_ed(rows: &[SuiteRow], index: usize) -> f64 {
    rows.iter().map(|r| r.values[index].2).sum::<f64>() / rows.len() as f64
}

/// Renders a padded table: per-benchmark rows plus the average, one
/// column pair (energy, ED) per scheme.
#[must_use]
pub fn format_table(rows: &[SuiteRow]) -> String {
    let mut out = String::new();
    let labels: Vec<&str> = rows[0].values.iter().map(|(label, _, _)| label.as_str()).collect();
    out.push_str(&format!("{:<12}", "benchmark"));
    for label in &labels {
        out.push_str(&format!(" | {label:>26} (E%, ED)"));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&format!("{:<12}", row.benchmark.name()));
        for (_, energy, ed) in &row.values {
            out.push_str(&format!(" | {:>26.1}%, {:>5.3}", energy * 100.0, ed));
        }
        out.push('\n');
    }
    out.push_str(&format!("{:<12}", "average"));
    for index in 0..labels.len() {
        out.push_str(&format!(
            " | {:>26.1}%, {:>5.3}",
            mean_energy(rows, index) * 100.0,
            mean_ed(rows, index)
        ));
    }
    out.push('\n');
    out
}

/// Extra detail used by the figure binaries: a single measurement's
/// activity summary line.
#[must_use]
pub fn describe(m: &Measurement) -> String {
    format!(
        "{}: {} insns, {} cycles (CPI {:.2}), fetch hit {:.2}%, tags/fetch {:.2}",
        m.scheme.label(),
        m.run.instructions,
        m.run.cycles,
        m.run.cpi(),
        m.run.fetch.hit_rate() * 100.0,
        m.run.fetch.tags_per_fetch(),
    )
}

/// The paper's evaluation geometries (figure 6 grid).
#[must_use]
pub fn figure6_geometries() -> Vec<CacheGeometry> {
    let mut geometries = Vec::new();
    for size_kb in [16u32, 32, 64] {
        for ways in [8u32, 16, 32] {
            geometries.push(CacheGeometry::new(size_kb * 1024, ways, 32));
        }
    }
    geometries
}

/// The figure 5 way-placement area sizes, in bytes.
pub const FIGURE5_AREAS: [u32; 6] = [32 * 1024, 16 * 1024, 8 * 1024, 4 * 1024, 2 * 1024, 1024];

/// Where `BENCH_<fig>.json` manifests go: `$WP_BENCH_DIR` when set
/// (created if missing by [`write_manifest`]), else the working
/// directory.
#[must_use]
pub fn manifest_path(fig: &str) -> PathBuf {
    wp_core::env::bench_dir().join(format!("BENCH_{fig}.json"))
}

/// Writes a pretty-printed manifest to [`manifest_path`] and returns
/// the path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_manifest(fig: &str, manifest: &Json) -> std::io::Result<PathBuf> {
    let path = manifest_path(fig);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(&path, manifest.to_pretty())?;
    Ok(path)
}

/// End-of-binary bookkeeping shared by the figure binaries: writes the
/// `BENCH_<fig>.json` manifest, prints the engine stats line and every
/// structured failure to stderr, and returns the process exit code
/// (`1` when any job failed, else `0`).
#[must_use = "pass the exit code to std::process::exit"]
pub fn finish(fig: &str, report: &SuiteReport, manifest: &Json) -> i32 {
    match write_manifest(fig, manifest) {
        Ok(path) => eprintln!("manifest: {}", path.display()),
        Err(e) => eprintln!("manifest: failed to write BENCH_{fig}.json: {e}"),
    }
    eprintln!("{}", report.stats);
    if report.print_failures() > 0 {
        1
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_runs_one_small_benchmark() {
        let geom = CacheGeometry::xscale_icache();
        let report =
            run_suite(&[Benchmark::Crc], geom, &[Scheme::WayPlacement { area_bytes: 32 * 1024 }]);
        assert!(report.is_complete(), "failures: {:?}", report.failures);
        let rows = report.rows_for(geom);
        assert_eq!(rows.len(), 1);
        let (_, energy, ed) = &rows[0].values[0];
        assert!(*energy < 1.0);
        assert!(*ed < 1.0);
        let table = format_table(&rows);
        assert!(table.contains("crc"));
        assert!(table.contains("average"));
        assert!(report.stats.workbench_builds >= 1);
    }

    #[test]
    fn figure6_grid_is_nine_points() {
        assert_eq!(figure6_geometries().len(), 9);
    }

    #[test]
    fn manifest_path_defaults_to_cwd() {
        // Mutating the process env would race other tests; only the
        // default is asserted here.
        if std::env::var_os("WP_BENCH_DIR").is_none() {
            assert_eq!(manifest_path("fig4"), PathBuf::from("./BENCH_fig4.json"));
        }
    }
}
