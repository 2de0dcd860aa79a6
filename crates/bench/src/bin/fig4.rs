//! Figure 4 reproduction: per-benchmark normalised instruction-cache
//! energy (a) and ED product (b) for way-memoization and way-placement
//! against the unmodified baseline, on the paper's initial
//! configuration — a 32 KB, 32-way I-cache with a 32 KB way-placement
//! area.
//!
//! Paper shape targets: way-placement ≈ 50% energy on average (vs
//! ≈ 68% for way-memoization), way-placement wins on every benchmark,
//! average ED ≈ 0.93 with a couple of benchmarks below 0.9.
//!
//! For a run that resumes after an interruption, use
//! `wp-campaign run --only fig4 --store DIR`: its store keeps one entry
//! per measured job and writes the same `BENCH_fig4.json`.

use wp_bench::campaign::{keys, provenance_json, InputTags};
use wp_bench::{finish, mean_ed, mean_energy, Engine, Experiment, Json};
use wp_core::wp_mem::CacheGeometry;
use wp_core::wp_workloads::Benchmark;
use wp_core::Scheme;

fn main() {
    let geom = CacheGeometry::xscale_icache();
    let schemes = [Scheme::WayMemoization, Scheme::WayPlacement { area_bytes: 32 * 1024 }];
    println!("== Figure 4: {geom}, 32KB way-placement area ==");
    let experiment = Experiment::new(Benchmark::ALL, [geom], schemes);
    let report = Engine::global().run(&experiment);
    print!("{}", report.table_for(geom));
    println!();
    println!("paper:   way-memoization ~68.0% energy | way-placement ~50.0% energy, ED ~0.93");
    let rows = report.rows_for(geom);
    if !rows.is_empty() {
        println!(
            "measured: way-memoization {:.1}% energy (ED {:.3}) | way-placement {:.1}% energy (ED {:.3})",
            mean_energy(&rows, 0) * 100.0,
            mean_ed(&rows, 0),
            mean_energy(&rows, 1) * 100.0,
            mean_ed(&rows, 1),
        );
        let wins = rows.iter().filter(|r| r.values[1].1 < r.values[0].1).count();
        println!("way-placement beats way-memoization on {wins}/{} benchmarks", rows.len());
    }

    // The deterministic manifest subset plus the campaign task key:
    // byte-identical to what a warm `wp-campaign run` assembles.
    let key = keys::fig_manifest("fig4", &experiment, &InputTags::default());
    let mut manifest = Json::obj([("figure", Json::from("fig4"))]);
    manifest.push("suite", report.results_json());
    manifest.push("provenance", provenance_json(&key));
    std::process::exit(finish("fig4", &report, &manifest));
}
