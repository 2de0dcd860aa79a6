//! `bless` — write canonical stored baselines.
//!
//! Runs the six baseline pipelines as one campaign (`campaign::run`
//! over the baseline groups) on a scratch store and writes their
//! canonical, deterministic manifests into the baselines directory
//! (default `baselines/`, the copy committed to the repository). Run
//! it after an *intentional* change to the simulator, energy model or
//! layout shifts the numbers, then commit the refreshed manifests; the
//! `gate` binary fails CI on any drift against them in the meantime.
//! The scratch store is always cold, so a bless never re-publishes
//! payloads computed by an older tree.
//!
//! Usage: `bless [--quick] [--dir DIR]`
//!
//! `--quick` blesses the CI smoke shape (one benchmark, small inputs)
//! — useful for the self-bless/gate smoke test, never for the
//! committed baselines. Exit codes: `0` blessed, `1` pipeline
//! failure, `2` usage error.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use std::path::PathBuf;

use wp_bench::baseline::{bless, DEFAULT_BASELINE_DIR};
use wp_bench::campaign::Group;
use wp_campaign::Store;

fn usage() -> ! {
    eprintln!("usage: bless [--quick] [--dir DIR]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut dir = PathBuf::from(DEFAULT_BASELINE_DIR);
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--dir" => dir = PathBuf::from(iter.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }

    let scratch = std::env::temp_dir().join(format!("wp-bless-{}", std::process::id()));
    let blessed = bless(&dir, &Store::new(&scratch), &Group::BASELINE, quick);
    let _ = std::fs::remove_dir_all(&scratch);
    match blessed {
        Ok(paths) => {
            for path in paths {
                println!("blessed: {}", path.display());
            }
        }
        Err(error) => {
            eprintln!("bless: {error}");
            std::process::exit(error.exit_code());
        }
    }
}
