//! End-to-end tests for the campaign DAG: cold-run byte identity with
//! the standalone builders, warm-rerun purity (zero misses, identical
//! bytes), single-benchmark invalidation recomputing only its
//! dependency cone, and the gate resolving every fresh manifest as a
//! hit against the store a bless just filled.

use std::path::PathBuf;

use wp_bench::baseline::{bless, gate, DETERMINISTIC_GROUPS};
use wp_bench::campaign::{fig1_data, fig1_manifest, keys, run, CampaignConfig, Group, InputTags};
use wp_campaign::Store;
use wp_core::wp_workloads::Benchmark;
use wp_obs::Obs;
use wp_tune::DiffThresholds;

/// A fresh scratch directory under the system temp dir; any leftover
/// from a previous run is cleared first.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wp-campaign-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn hits(obs: &Obs) -> u64 {
    obs.metrics.counter_value("wp_campaign_store_hits_total").unwrap_or(0)
}

fn misses(obs: &Obs) -> u64 {
    obs.metrics.counter_value("wp_campaign_store_misses_total").unwrap_or(0)
}

#[test]
fn campaign_manifests_match_standalone_builders_and_carry_task_keys() {
    let store = Store::new(scratch("builders"));
    let config = CampaignConfig::new(true, vec![Group::Fig1, Group::Table1]);
    let run = run(&config, &store, None);
    assert!(run.report.ok(), "campaign failed: {:?}", run.report.failures());

    // The DAG nodes call the very builders the standalone binaries
    // call, so the payloads must be byte-identical to a direct render.
    let fig1 = run.manifest(Group::Fig1).expect("fig1 payload");
    assert_eq!(fig1, fig1_manifest(&fig1_data(), &keys::fig1()).to_pretty().as_bytes());
    for group in [Group::Fig1, Group::Table1] {
        let text = String::from_utf8(run.manifest(group).expect("payload").to_vec()).expect("utf8");
        assert!(text.contains("\"task_key\""), "{group:?} manifest lacks provenance.task_key");
    }

    let _ = std::fs::remove_dir_all(store.root());
}

#[test]
fn warm_rerun_is_pure_hits_and_tag_flip_recomputes_only_the_cone() {
    let store = Store::new(scratch("incremental"));
    let groups = vec![Group::Fig1, Group::Table1, Group::Fig4, Group::Trace, Group::Tune];
    let config = CampaignConfig::new(true, groups.clone());

    // Cold run: every node computes. 12 nodes total — fig1, table1,
    // fig4 (2 benchmarks x 2 schemes = 4 measures + manifest), trace
    // (Crc x 2 schemes = 2 runs + manifest), tune (Crc + manifest).
    let obs1 = Obs::new();
    let run1 = run(&config, &store, Some(&obs1));
    assert!(run1.report.ok(), "cold run failed: {:?}", run1.report.failures());
    assert_eq!((misses(&obs1), hits(&obs1)), (12, 0), "cold run must compute all 12 nodes");

    // Warm rerun: the five manifest roots hit, their whole upstream
    // cones prune — nothing re-simulates, bytes identical.
    let obs2 = Obs::new();
    let run2 = run(&config, &store, Some(&obs2));
    assert!(run2.report.ok());
    assert_eq!(misses(&obs2), 0, "warm rerun must not recompute anything");
    assert_eq!(hits(&obs2), 5, "each manifest root resolves from the store");
    assert_eq!(run2.report.pruned(), 7, "upstream measure/run nodes never evaluate");
    for &group in &groups {
        assert_eq!(
            run1.manifest(group),
            run2.manifest(group),
            "{group:?} warm manifest must be byte-identical"
        );
    }

    // Flip one benchmark's input tag: only the nodes whose keys mix in
    // that benchmark recompute — fig4's two Crc measures + manifest,
    // both trace runs (trace quick is Crc-only) + manifest, tune/crc +
    // manifest. Everything else (fig1, table1, the Sha measures) hits.
    let mut flipped = config.clone();
    flipped.tags = InputTags::default().with(Benchmark::Crc, "v2");
    let obs3 = Obs::new();
    let run3 = run(&flipped, &store, Some(&obs3));
    assert!(run3.report.ok(), "flipped run failed: {:?}", run3.report.failures());
    assert_eq!(misses(&obs3), 8, "exactly the Crc-dependent cone recomputes");
    assert_eq!(hits(&obs3), 4, "fig1, table1 and the two Sha measures stay hits");
    for group in [Group::Fig1, Group::Table1] {
        assert_eq!(
            run1.manifest(group),
            run3.manifest(group),
            "{group:?} does not depend on Crc inputs"
        );
    }
    // The recomputed manifests carry the new key, so their bytes move.
    assert_ne!(run1.manifest(Group::Fig4), run3.manifest(Group::Fig4));

    let _ = std::fs::remove_dir_all(store.root());
}

#[test]
fn gate_is_pure_hits_against_the_store_a_bless_filled() {
    // Bless the deterministic groups into a fresh store: the gate must
    // then diff clean without a single re-simulation.
    let store = Store::new(scratch("gate"));
    let blessed = scratch("gate-blessed");
    bless(&blessed, &store, &DETERMINISTIC_GROUPS, true).expect("bless");

    let obs = Obs::new();
    let groups = &DETERMINISTIC_GROUPS;
    let report =
        gate(&blessed, &store, groups, true, DiffThresholds::default(), Some(&obs)).expect("gate");
    assert!(report.is_clean(), "warm gate flagged: {:?}", report.json().to_compact());
    assert_eq!(report.exit_code(), 0);
    assert_eq!(misses(&obs), 0, "a warm gate re-simulates nothing");
    assert_eq!(hits(&obs), groups.len() as u64, "every fresh manifest resolves from the store");

    let _ = std::fs::remove_dir_all(store.root());
    let _ = std::fs::remove_dir_all(blessed);
}
