//! `gate` — drift gating against stored baselines.
//!
//! Produces fresh manifests of the six baseline pipelines with
//! `campaign::run` and drives `wp_tune::diff` against the blessed
//! copies in the baselines directory (default `baselines/`): every
//! counter or energy shift clearing both the relative gate and the
//! absolute floor flags, as does any structural mismatch — a missing
//! run, a changed grid, a renamed chain. The comparison is written to
//! `BENCH_gate.json`.
//!
//! Usage: `gate [--quick] [--dir DIR] [--store DIR] [--bless]
//! [--rel T] [--abs-fetches N] [--abs-energy N]`
//!
//! `--quick` gates the CI smoke shape against a `bless --quick`
//! directory; `--bless` refreshes the blessed manifests in place
//! instead of gating — use it after an intentional change, then
//! commit the result.
//!
//! The campaign runs against the store at `--store DIR` (or
//! `$WP_STORE_DIR`): a warm store (e.g. right after a clean campaign
//! run) serves every manifest as a pure hit and the gate costs
//! seconds. With neither set, it runs against a scratch store under a
//! temporary directory, removed afterwards. `--bless` always runs on a
//! scratch store, so it never re-blesses payloads of an older tree.
//!
//! Exit codes: `0` clean, `1` gated shift, structural regression or
//! pipeline failure during the re-run, `2` usage or I/O error (a
//! missing or unreadable baseline is an invocation problem, not
//! drift).

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use std::path::PathBuf;

use wp_bench::baseline::{bless, gate, DEFAULT_BASELINE_DIR};
use wp_bench::campaign::Group;
use wp_bench::write_manifest;
use wp_campaign::Store;
use wp_tune::{parse_threshold, DiffThresholds, TuneError};

fn usage() -> ! {
    eprintln!(
        "usage: gate [--quick] [--dir DIR] [--store DIR] [--bless] [--rel T] [--abs-fetches N] \
         [--abs-energy N]"
    );
    std::process::exit(2);
}

/// The gate's exit-code map for errors (regressions are not errors):
/// bad arguments and unreadable/missing/corrupt baseline files are
/// invocation problems (`2`); a pipeline failure while re-running
/// means the tree can no longer reproduce its baseline (`1`).
fn error_exit_code(error: &TuneError) -> i32 {
    match error {
        TuneError::Io { .. }
        | TuneError::Json { .. }
        | TuneError::MissingField { .. }
        | TuneError::Malformed { .. } => 2,
        _ => error.exit_code(),
    }
}

fn run() -> Result<i32, TuneError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut refresh = false;
    let mut dir = PathBuf::from(DEFAULT_BASELINE_DIR);
    let mut store_root = wp_core::env::store_dir();
    let mut thresholds = DiffThresholds::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--bless" => refresh = true,
            "--dir" => dir = PathBuf::from(iter.next().unwrap_or_else(|| usage())),
            "--store" => store_root = Some(PathBuf::from(iter.next().unwrap_or_else(|| usage()))),
            "--rel" => thresholds.rel = parse_threshold(iter.next().unwrap_or_else(|| usage()))?,
            "--abs-fetches" => {
                thresholds.abs_fetches = parse_threshold(iter.next().unwrap_or_else(|| usage()))?;
            }
            "--abs-energy" => {
                thresholds.abs_energy = parse_threshold(iter.next().unwrap_or_else(|| usage()))?;
            }
            _ => usage(),
        }
    }

    // Scratch store for `--bless` and for a gate with no store set;
    // removed once it has served its purpose either way.
    let scratch_dir = std::env::temp_dir().join(format!("wp-gate-{}", std::process::id()));
    let scratch = Store::new(scratch_dir.join("store"));
    if refresh {
        let blessed = bless(&dir, &scratch, &Group::BASELINE, quick);
        let _ = std::fs::remove_dir_all(&scratch_dir);
        for path in blessed? {
            println!("blessed: {}", path.display());
        }
        return Ok(0);
    }
    let store = store_root.map_or(scratch, Store::new);
    eprintln!("gate: fresh side via campaign store at {}", store.root().display());
    let report = gate(&dir, &store, &Group::BASELINE, quick, thresholds, None);
    let _ = std::fs::remove_dir_all(&scratch_dir);
    let report = report?;

    for (name, diff) in &report.diffs {
        let flags = diff.regressions();
        let verdict = if flags == 0 { "ok" } else { "REGRESSED" };
        println!("{name:<28} {verdict:<9} {} run(s), {flags} flag(s)", diff.runs.len());
        for run in diff.runs.iter().filter(|r| r.regressions() > 0) {
            println!("  {:<26} {} flag(s)", run.key, run.regressions());
        }
    }
    println!(
        "{} manifest(s), {} regression(s) (rel > {}, abs fetches > {}, abs energy > {})",
        report.diffs.len(),
        report.regressions(),
        thresholds.rel,
        thresholds.abs_fetches,
        thresholds.abs_energy,
    );

    let path = write_manifest("gate", &report.json()).map_err(|e| TuneError::Io {
        path: "BENCH_gate.json".to_string(),
        message: e.to_string(),
    })?;
    eprintln!("manifest: {}", path.display());
    Ok(report.exit_code())
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(error) => {
            eprintln!("gate: {error}");
            std::process::exit(error_exit_code(&error));
        }
    }
}
