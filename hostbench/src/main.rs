//! Host-time benchmark of the way-placement reproduction.
//!
//! ```text
//! wp-hostbench --workload <sweep|layouts|faults> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: as many passes of the
//! workload as `--seconds` holds (at least three), each on a fresh
//! one-worker `Engine` after its own set-up and followed by a second
//! set-up, reporting the fastest pass and the fastest set-up.
//! `--trace 1` runs one untraced pass for reference, then the
//! same plan through direct, span-wrapped layer calls, then the fetch
//! replay probes, and reports the per-layer metrics; it also writes the
//! "where the time goes" table and the spans under `out/`.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0
//! only when every output checked out.

mod host;
mod spans;
mod traced;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use wp_bench::Engine;

use crate::host::{cpu_seconds, median, peak_rss_mib, single_arena};
use crate::spans::Tracer;
use crate::workload::{engine_pass, plan, setup, Summary, Workload};

/// A pass whose CPU time exceeds its wall time by this factor kept more
/// than one thread busy; it fails the run and is left out of the figures.
const BUSY_LIMIT: f64 = 1.5;

/// Passes per untraced run at the least. On a shared host the
/// simulator runs in slow spells of a few seconds, up to 1.8x; the
/// fastest of several passes is the steady figure (see `README.md`).
const MIN_PASSES: usize = 3;

/// Figure 5 of the paper, read off its plot: mean normalised I-cache
/// energy of way-placement with a 1 KB area and of way-memoization.
const PAPER_FIG5: [(&str, f64); 2] =
    [("way-placement/way-placement/1KB", 0.56), ("natural/way-memoization", 0.68)];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!("wp-hostbench: {problem}");
    eprintln!(
        "usage: wp-hostbench --workload <sweep|layouts|faults> --seed <n> --seconds <s> \
         --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 20.0;
    let mut trace = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .unwrap_or_else(|| usage(&format!("unknown workload `{value}`"))),
                );
            }
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage("bad --seconds"));
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                };
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    Args { workload, seed, seconds, trace }
}

/// The result line and its exit status.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn print(&self) {
        for (name, value, unit) in &self.metrics {
            eprintln!("  {name:<26} {value:>22} {unit}");
        }
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { format!("{value}") } else { "null".to_string() };
            let _ = write!(line, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        line.push_str("}}");
        println!("{line}");
    }
}

/// Prints a pass's simulated results at full precision.
fn print_simulated(workload: Workload, summary: &Summary) {
    eprintln!(
        "exact: sim.simulations={} sim.insns={} sim.cycles={} mem.fetches={}",
        summary.ok, summary.insns, summary.cycles, summary.fetches
    );
    eprintln!(
        "simulated: icache_energy_norm={:?} ed_norm={:?} cycles_norm={:?}",
        summary.energy_norm, summary.ed_norm, summary.cycles_norm
    );
    for (label, mean) in &summary.means {
        let paper = PAPER_FIG5.iter().find(|(l, _)| *l == label);
        match (workload, paper) {
            (Workload::Sweep, Some((_, reported))) => eprintln!(
                "mean energy {label}: {mean:?} (paper Figure 5 reports about {reported}; \
                 context only, the model is not validated against hardware)"
            ),
            _ => eprintln!("mean energy {label}: {mean:?}"),
        }
    }
}

/// Runs set-up, one engine pass and a second set-up [`passes`] times.
fn untraced(args: &Args) -> Report {
    let plan = plan(args.workload, args.seed);
    let (mut setups, mut walls, mut cpus) = (vec![], vec![], vec![]);
    let (mut attempted, mut ok, mut failed) = (0u64, 0u64, 0u64);
    let mut correct = true;
    let mut first: Option<Summary> = None;
    let mut peak_rss = f64::NAN;
    for index in 1..=passes(args) {
        let engine = Engine::with_workers(1);
        let t = Instant::now();
        let setup_failures = setup(&engine, args.workload);
        setups.push(t.elapsed().as_secs_f64());
        if !setup_failures.is_empty() {
            setup_failures.iter().for_each(|f| eprintln!("set-up failed: {f}"));
            attempted += plan.len() as u64;
            failed += plan.len() as u64;
            correct = false;
            break;
        }
        let (cpu0, t) = (cpu_seconds(), Instant::now());
        let summary = engine_pass(&engine, args.workload, &plan).summary;
        let wall = t.elapsed().as_secs_f64();
        let cpu = cpu_seconds() - cpu0;
        let busy = cpu / wall;
        let workers = engine.workers();
        if first.is_none() {
            // Read after the first pass and before the second set-up,
            // so the figure depends neither on how many passes ran nor
            // on whether the allocator reuses the pass's freed memory.
            peak_rss = peak_rss_mib();
        }
        drop(engine);
        // A second set-up per pass, on a fresh engine, doubles the
        // set-up samples and spreads them over the whole run.
        let t = Instant::now();
        let setup_failures = setup(&Engine::with_workers(1), args.workload);
        setups.push(t.elapsed().as_secs_f64());
        setup_failures.iter().for_each(|f| eprintln!("set-up failed: {f}"));
        correct &= setup_failures.is_empty();
        eprintln!(
            "pass {index}: set-up {:.3} s + {:.3} s, wall {wall:.3} s, cpu {cpu:.3} s, \
             pool workers {workers}, busy threads {busy:.3}",
            setups[setups.len() - 2],
            setups[setups.len() - 1],
        );
        attempted += summary.attempted;
        if busy > BUSY_LIMIT {
            eprintln!("pass kept {busy:.2} threads busy (limit {BUSY_LIMIT}); counted as failed");
            failed += summary.attempted;
            correct = false;
        } else {
            ok += summary.ok;
            failed += summary.attempted - summary.ok;
            walls.push(wall);
            cpus.push(cpu);
        }
        summary.failures.iter().for_each(|f| eprintln!("configuration failed: {f}"));
        correct &= summary.failures.is_empty();
        match &first {
            None => first = Some(summary),
            Some(earlier) if *earlier != summary => {
                eprintln!("simulated results differ between passes of one run");
                correct = false;
            }
            Some(_) => {}
        }
    }
    let summary = first.unwrap_or_default();
    print_simulated(args.workload, &summary);
    if walls.is_empty() {
        eprintln!("no pass ran on one busy thread");
        correct = false;
    }
    let fastest = |v: &[f64]| v.iter().copied().fold(f64::NAN, f64::min);
    let wall = fastest(&walls);
    if !walls.is_empty() {
        eprintln!(
            "passes: fastest {wall:.4} s, median {:.4} s, slowest {:.4} s over {}; set-ups: \
             fastest {:.4} s, median {:.4} s over {}",
            median(&walls),
            walls.iter().copied().fold(f64::NAN, f64::max),
            walls.len(),
            fastest(&setups),
            median(&setups),
            setups.len()
        );
    }
    Report {
        correct,
        attempted,
        failed,
        metrics: vec![
            ("wall_s", wall, "s"),
            ("cpu_s", fastest(&cpus), "s"),
            ("setup_s", fastest(&setups), "s"),
            ("sim_mips", summary.insns as f64 / wall * 1e-6, "Minsn/s"),
            ("peak_rss_mb", peak_rss, "MiB"),
            ("ok_share", ok as f64 / attempted.max(1) as f64, "ratio"),
            ("icache_energy_norm", summary.energy_norm, "ratio"),
            ("ed_norm", summary.ed_norm, "ratio"),
            ("cycles_norm", summary.cycles_norm, "ratio"),
        ],
    }
}

/// Passes per untraced run: as many nominal passes as fit in
/// `--seconds`, and never fewer than [`MIN_PASSES`]. The count depends
/// only on the arguments, never on how fast the host is today, so every
/// run of a workload takes the fastest of the same number of passes.
fn passes(args: &Args) -> usize {
    let fit = (args.seconds / args.workload.nominal_pass_seconds()).floor() as usize;
    fit.max(MIN_PASSES)
}

/// Where the traced run writes its table and spans.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One untraced reference pass, the traced set-up and pass, and the
/// replay probes.
fn traced_run(args: &Args) -> Report {
    let workload = args.workload;
    let plan = plan(workload, args.seed);
    let set = workload.input_set();
    let mut problems: Vec<String> = Vec::new();

    let engine = Engine::with_workers(1);
    problems.extend(setup(&engine, workload));
    let (cpu0, t) = (cpu_seconds(), Instant::now());
    let workload::Pass { summary: reference, layer_s, .. } = engine_pass(&engine, workload, &plan);
    let wall = t.elapsed().as_secs_f64();
    let busy = (cpu_seconds() - cpu0) / wall;
    let builds = engine.stats().workbench_builds;
    problems.extend(reference.failures.iter().cloned());
    if busy > BUSY_LIMIT {
        problems.push(format!("reference pass kept {busy:.2} threads busy"));
    }
    print_simulated(workload, &reference);

    let mut tr = Tracer::new();
    let mut census = traced::Census::default();
    let t = Instant::now();
    let benches = match traced::setup(&mut tr, &mut census, workload) {
        Ok(benches) => benches,
        Err(e) => {
            eprintln!("traced set-up failed: {e}");
            return Report { correct: false, attempted: 1, failed: 1, metrics: Vec::new() };
        }
    };
    let setup_wall = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let outcomes = traced::pass(&mut tr, &mut census, &benches, &plan, set);
    let traced_wall = t.elapsed().as_secs_f64();
    let summary = Summary::from_outcomes(&plan, &outcomes);
    problems.extend(summary.failures.iter().cloned());
    if summary != reference {
        problems.push("the traced pass's results differ from the engine pass's".to_string());
    }
    let probes = traced::probes(&mut tr, &benches, workload, args.seed).unwrap_or_else(|e| {
        problems.push(e);
        traced::Probes::default()
    });

    let done: Vec<_> = outcomes.iter().flatten().collect();
    let sum = |f: fn(&workload::Outcome) -> u64| done.iter().map(|o| f(o)).sum::<u64>();
    let pass_op = |layer: &'static str, op: &'static str| {
        tr.total(|s| s.phase == "pass" && s.layer == layer && s.op == op)
    };
    let any_op = |layer: &'static str, op: &'static str| {
        tr.total(|s| s.phase != "setup" && s.layer == layer && s.op == op).0
    };
    let link_detail = |detail: &'static str| {
        tr.total(|s| s.phase == "pass" && s.op == "link" && s.detail == detail).0
    };
    let (links_s, links) =
        tr.total(|s| s.phase != "probe" && s.layer == "linker" && s.op == "link");
    let (plain_s, _) = pass_op("sim", "simulate");
    let (traced_s, _) = pass_op("trace", "simulate_traced");
    let simulate_s = plain_s + traced_s;
    let metrics = vec![
        ("workloads.modules_s", tr.total(|s| s.op == "modules").0, "s"),
        ("workloads.reference_s", tr.total(|s| s.phase != "probe" && s.op == "reference").0, "s"),
        ("linker.link_s", links_s, "s"),
        ("linker.links", links as f64, "count"),
        ("linker.ext-tsp_s", link_detail("ext-tsp"), "s"),
        ("linker.codestitcher_s", link_detail("codestitcher"), "s"),
        ("linker.coverage_1k", census.coverage_1k, "ratio"),
        ("sim.profile_s", tr.total(|s| s.op == "profile" && s.layer == "sim").0, "s"),
        ("sim.profile_insns", census.profile_insns as f64, "count"),
        ("sim.simulate_s", simulate_s, "s"),
        ("sim.simulations", summary.ok as f64, "count"),
        ("sim.insns", summary.insns as f64, "count"),
        ("sim.cycles", summary.cycles as f64, "count"),
        ("sim.mips", summary.insns as f64 / simulate_s * 1e-6, "Minsn/s"),
        ("sim.boot_s", pass_op("sim", "boot").0, "s"),
        ("sim.images", census.images as f64, "count"),
        ("sim.configs_per_image", plan.len() as f64 / census.images.max(1) as f64, "ratio"),
        ("sim.demotions", sum(|o| o.demotions) as f64, "count"),
        ("mem.fetch_s", probes.fetch_s, "s"),
        ("mem.fetches", probes.fetches as f64, "count"),
        ("mem.fetch_ns", probes.fetch_s / probes.fetches.max(1) as f64 * 1e9, "ns"),
        ("mem.fetch_share", probes.own_fetch_s / probes.own_s, "ratio"),
        ("mem.armed_fetch_s", probes.armed_fetch_s, "s"),
        ("mem.tag_compares", sum(|o| o.tag_compares) as f64, "count"),
        ("mem.itlb_misses", sum(|o| o.itlb_misses) as f64, "count"),
        ("trace.traced_s", any_op("trace", "simulate_traced"), "s"),
        ("trace.overhead", probes.traced_s / probes.plain_s, "ratio"),
        ("tune.predict_s", any_op("tune", "predict"), "s"),
        ("energy.price_s", pass_op("energy", "price").0, "s"),
        ("bench.runner_s", wall - layer_s, "s"),
        ("bench.workbench_builds", builds as f64, "count"),
        ("bench.pool_workers", engine.workers() as f64, "count"),
        ("bench.busy_threads", busy, "ratio"),
        ("bench.trace_overhead", traced_wall / wall, "ratio"),
    ];
    eprintln!(
        "exact: sim.demotions={} mem.tag_compares={} mem.itlb_misses={} linker.coverage_1k={:?}",
        sum(|o| o.demotions),
        sum(|o| o.tag_compares),
        sum(|o| o.itlb_misses),
        census.coverage_1k
    );

    let table = where_the_time_goes(args, &tr, wall, setup_wall, traced_wall, &metrics);
    let dir = out_dir();
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("where-{}.md", workload.name())), &table))
        .and_then(|()| {
            std::fs::write(dir.join(format!("spans-{}.jsonl", workload.name())), tr.jsonl())
        });
    if let Err(e) = written {
        problems.push(format!("writing {}: {e}", dir.display()));
    }
    eprint!("{table}");
    problems.iter().for_each(|p| eprintln!("problem: {p}"));
    Report {
        correct: problems.is_empty(),
        attempted: summary.attempted,
        failed: summary.attempted - summary.ok,
        metrics,
    }
}

/// The per-layer table: self time per layer in set-up and in the pass,
/// each with its share, then every per-layer metric.
fn where_the_time_goes(
    args: &Args,
    tr: &Tracer,
    wall: f64,
    setup_wall: f64,
    traced_wall: f64,
    metrics: &[(&'static str, f64, &'static str)],
) -> String {
    let mut out = String::new();
    let name = args.workload.name();
    let _ = writeln!(out, "# Where the time goes: `{name}` (seed {})\n", args.seed);
    let _ = writeln!(
        out,
        "Untraced engine pass (one worker): wall_s {wall:.3} s. The same plan through \
         span-wrapped direct layer calls: {traced_wall:.3} s ({:.3}x).\n",
        traced_wall / wall
    );
    let _ = writeln!(out, "## Set-up ({setup_wall:.3} s, traced)\n");
    let _ = writeln!(out, "| layer | self s | share of set-up | calls |\n|---|---:|---:|---:|");
    for (layer, (s, calls)) in tr.by_layer("setup") {
        let _ = writeln!(out, "| {layer} | {s:.4} | {:.1}% | {calls} |", 100.0 * s / setup_wall);
    }
    let _ = writeln!(out, "\n## Timed pass ({traced_wall:.3} s, traced)\n");
    let _ =
        writeln!(out, "| layer | self s | share of traced pass | calls |\n|---|---:|---:|---:|");
    let mut spanned = 0.0;
    for (layer, (s, calls)) in tr.by_layer("pass") {
        spanned += s;
        let _ = writeln!(out, "| {layer} | {s:.4} | {:.1}% | {calls} |", 100.0 * s / traced_wall);
    }
    let unspanned = traced_wall - spanned;
    let _ = writeln!(
        out,
        "| (outside spans) | {unspanned:.4} | {:.1}% | |",
        100.0 * unspanned / traced_wall
    );
    let _ = writeln!(out, "\n## Per-layer metrics\n\n| metric | value | unit |\n|---|---:|---|");
    for (metric, value, unit) in metrics {
        let _ = writeln!(out, "| {metric} | {value} | {unit} |");
    }
    out
}

fn main() {
    single_arena();
    let args = parse_args();
    eprintln!(
        "wp-hostbench: workload {} seed {} seconds {} trace {} (host parallelism {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let report = if args.trace { traced_run(&args) } else { untraced(&args) };
    report.print();
    if !report.correct {
        std::process::exit(1);
    }
}
