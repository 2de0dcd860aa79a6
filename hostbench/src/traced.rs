//! The traced run's direct-layer pass: the workload's plan walked by
//! calling each layer's public functions from here, every call wrapped
//! in a span, plus the fetch-stream replay probes.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use wp_bench::chaos::chaos_policy;
use wp_bench::layout_compare::COMPARE_AREA_BYTES;
use wp_bench::FIGURE5_AREAS;
use wp_core::wp_energy::{EnergyModel, SystemActivity};
use wp_core::wp_linker::{Layout, LinkOutput, Linker, Profile};
use wp_core::wp_mem::{FaultConfig, MemoryConfig, MemorySystem};
use wp_core::wp_sim::{simulate, simulate_traced, Machine, RunResult, SimConfig};
use wp_core::wp_trace::{FetchEvent, TraceRecorder, TraceSink};
use wp_core::wp_workloads::{Benchmark, InputSet};
use wp_core::{verify, Scheme};
use wp_tune::DEFAULT_TOLERANCE;

use crate::host::mix;
use crate::spans::Tracer;
use crate::workload::{geometry, Config, Outcome, Workload};

/// The injection rate of the armed replay and the armed probe run.
pub const PROBE_RATE_PPM: u32 = 10_000;

/// A benchmark's trained state, built from the layers directly: the
/// same steps as `wp_core::Workbench::build`.
#[derive(Debug)]
pub struct Bench {
    benchmark: Benchmark,
    linkers: [Linker; 2],
    profile: Profile,
}

impl Bench {
    fn linker(&self, set: InputSet) -> &Linker {
        match set {
            InputSet::Small => &self.linkers[0],
            InputSet::Large => &self.linkers[1],
        }
    }
}

/// Counts the traced set-up and pass produce besides their spans.
#[derive(Debug, Default)]
pub struct Census {
    /// Instructions retired by the profiling runs.
    pub profile_insns: u64,
    /// Mean 1 KB prefix coverage over the distinct images simulated.
    pub coverage_1k: f64,
    /// Distinct (benchmark, layout) images simulated.
    pub images: u64,
}

fn err(benchmark: Benchmark, step: &str, e: &dyn std::fmt::Display) -> String {
    format!("{benchmark}: {step}: {e}")
}

/// Assembles, naturally links and profiles every benchmark.
///
/// # Errors
///
/// The first failing step, naming its benchmark.
pub fn setup(
    tr: &mut Tracer,
    census: &mut Census,
    workload: Workload,
) -> Result<Vec<Bench>, String> {
    tr.phase = "setup";
    workload
        .benchmarks()
        .iter()
        .map(|&b| {
            tr.enter("bench", "setup", b.name());
            let bench = setup_one(tr, census, b);
            tr.exit();
            bench
        })
        .collect()
}

fn setup_one(tr: &mut Tracer, census: &mut Census, b: Benchmark) -> Result<Bench, String> {
    let small = tr.span("workloads", "modules", "small", || b.modules(InputSet::Small));
    let large = tr.span("workloads", "modules", "large", || b.modules(InputSet::Large));
    let linkers = tr.span("linker", "load", "", || {
        [Linker::new().with_modules(small), Linker::new().with_modules(large)]
    });
    let natural = tr
        .span("linker", "link", "natural", || linkers[0].link(Layout::Natural, &Profile::empty()))
        .map_err(|e| err(b, "link", &e))?;
    let config = SimConfig::new(MemoryConfig::baseline(geometry())).with_profile();
    let run = tr
        .span("sim", "profile", "", || simulate(&natural.image, &config))
        .map_err(|e| err(b, "profile", &e))?;
    tr.span("workloads", "reference", "", || verify(b, InputSet::Small, run.checksum))
        .map_err(|e| err(b, "verify", &e))?;
    census.profile_insns += run.instructions;
    let counts = run.insn_counts.as_deref().unwrap_or(&[]);
    let profile = tr.span("linker", "profile", "", || natural.profile_from_counts(counts));
    Ok(Bench { benchmark: b, linkers, profile })
}

/// Walks `plan` through the layers. Outcomes are in plan order.
pub fn pass(
    tr: &mut Tracer,
    census: &mut Census,
    benches: &[Bench],
    plan: &[Config],
    set: InputSet,
) -> Vec<Result<Outcome, String>> {
    tr.phase = "pass";
    let mut images = BTreeSet::new();
    let mut coverage = 0.0;
    let outcomes = plan
        .iter()
        .enumerate()
        .map(|(index, config)| {
            let bench = benches
                .iter()
                .find(|b| b.benchmark == config.benchmark)
                .expect("set-up built every benchmark");
            tr.config = index as u64 + 1;
            tr.enter("bench", "config", config.benchmark.name());
            let link = tr
                .span("linker", "link", config.layout.label(), || {
                    bench.linker(set).link(config.layout, &bench.profile)
                })
                .map_err(|e| err(config.benchmark, "link", &e));
            let outcome = link.and_then(|link| {
                if images.insert((config.benchmark.name(), config.layout.label())) {
                    coverage += tr.span("linker", "coverage", "", || {
                        link.coverage_of_prefix(&bench.profile, COMPARE_AREA_BYTES)
                    });
                }
                run_config(tr, config, &link, set)
            });
            tr.exit();
            outcome
        })
        .collect();
    tr.config = 0;
    census.images = images.len() as u64;
    census.coverage_1k = coverage / images.len().max(1) as f64;
    outcomes
}

/// The memory system and simulator settings `wp_core::measure_traced`
/// derives for `config`.
fn sim_config(config: &Config) -> (MemoryConfig, SimConfig) {
    let mut mem = config.scheme.memory_config(geometry());
    let mut degradation = None;
    if let Some(fault) = config.fault {
        mem.fault = Some(fault);
        mem.detection = true;
        degradation = Some(chaos_policy());
    }
    let mut sim = SimConfig::new(mem);
    sim.degradation = degradation;
    (mem, sim)
}

fn run_config(
    tr: &mut Tracer,
    config: &Config,
    link: &LinkOutput,
    set: InputSet,
) -> Result<Outcome, String> {
    let b = config.benchmark;
    let (mem, sim) = sim_config(config);
    tr.span("sim", "boot", "", || black_box(Machine::boot(&link.image)));
    let run = if config.traced {
        let map = tr.span("linker", "layout_map", "", || link.layout_map());
        let mut recorder = TraceRecorder::new().with_layout(map.clone());
        let run = tr
            .span("trace", "simulate_traced", "", || {
                simulate_traced(&link.image, &sim, &mut recorder)
            })
            .map_err(|e| err(b, "simulate", &e))?;
        let attribution =
            recorder.attribution().ok_or_else(|| err(b, "trace", &"no attribution"))?;
        tr.span("tune", "predict", "", || {
            wp_tune::predict(&map, attribution, geometry(), &FIGURE5_AREAS, DEFAULT_TOLERANCE)
        })
        .map_err(|e| err(b, "predict", &e))?;
        run
    } else {
        tr.span("sim", "simulate", "", || simulate(&link.image, &sim))
            .map_err(|e| err(b, "simulate", &e))?
    };
    tr.span("workloads", "reference", "", || verify(b, set, run.checksum))
        .map_err(|e| err(b, "verify", &e))?;
    let energy = tr.span("energy", "price", "", || EnergyModel::new().price(&mem, &activity(&run)));
    Ok(Outcome {
        insns: run.instructions,
        cycles: run.cycles,
        fetches: run.fetch.fetches,
        tag_compares: run.fetch.tag_comparisons,
        itlb_misses: run.itlb.misses,
        demotions: run.demotions,
        energy,
    })
}

fn activity(run: &RunResult) -> SystemActivity {
    SystemActivity {
        fetch: run.fetch,
        dcache: run.dcache,
        itlb: run.itlb,
        dtlb: run.dtlb,
        cycles: run.cycles,
        instructions: run.instructions,
        detection: run.detection,
    }
}

/// Records the fetched pc stream of a run.
#[derive(Debug, Default)]
struct PcCapture(Vec<u32>);

impl TraceSink for PcCapture {
    fn enabled(&self) -> bool {
        true
    }

    fn record_fetch(&mut self, event: &FetchEvent) {
        self.0.push(event.pc);
    }
}

/// What the replay probes measured, summed over benchmarks.
#[derive(Debug, Default)]
pub struct Probes {
    /// Untraced simulation of the probe configuration.
    pub plain_s: f64,
    /// The same configuration into a `TraceRecorder`.
    pub traced_s: f64,
    /// Untraced simulation of the configuration whose fetch path the
    /// workload exercises (armed on `faults`, plain elsewhere).
    pub own_s: f64,
    /// The captured stream replayed through `MemorySystem::fetch`.
    pub fetch_s: f64,
    /// The same replay with the injector and detection armed.
    pub armed_fetch_s: f64,
    /// The replay of the workload's own fetch path (armed on
    /// `faults`, plain elsewhere).
    pub own_fetch_s: f64,
    /// Fetches replayed (per replay).
    pub fetches: u64,
}

/// Per benchmark, runs way-placement at 32 KB (the workload's input
/// set) untraced, into a `TraceRecorder` whose attribution feeds
/// `wp_tune::predict`, and into a pc capture, then replays the captured
/// stream through `MemorySystem::fetch` plain and armed.
///
/// # Errors
///
/// A failed simulation, or a replay whose fetch count differs from the
/// simulated run's.
pub fn probes(
    tr: &mut Tracer,
    benches: &[Bench],
    workload: Workload,
    seed: u64,
) -> Result<Probes, String> {
    tr.phase = "probe";
    let set = workload.input_set();
    let scheme = Scheme::WayPlacement { area_bytes: 32 * 1024 };
    let mut probes = Probes::default();
    for (index, bench) in benches.iter().enumerate() {
        let b = bench.benchmark;
        let plain = Config {
            benchmark: b,
            layout: scheme.layout(),
            scheme,
            fault: None,
            traced: false,
            base: None,
            job: index,
        };
        let fault = FaultConfig::all(mix(seed, 0xa1 + index as u64), PROBE_RATE_PPM);
        let armed = Config { fault: Some(fault), ..plain };
        let link = bench
            .linker(set)
            .link(plain.layout, &bench.profile)
            .map_err(|e| err(b, "link", &e))?;
        let (plain_mem, plain_sim) = sim_config(&plain);
        let (armed_mem, armed_sim) = sim_config(&armed);

        let start = Instant::now();
        let run = tr
            .span("sim", "simulate", "plain", || simulate(&link.image, &plain_sim))
            .map_err(|e| err(b, "simulate", &e))?;
        let plain_s = start.elapsed().as_secs_f64();
        let map = link.layout_map();
        let mut recorder = TraceRecorder::new().with_layout(map.clone());
        let start = Instant::now();
        tr.span("trace", "simulate_traced", "", || {
            simulate_traced(&link.image, &plain_sim, &mut recorder)
        })
        .map_err(|e| err(b, "simulate", &e))?;
        probes.traced_s += start.elapsed().as_secs_f64();
        let attribution =
            recorder.attribution().ok_or_else(|| err(b, "trace", &"no attribution"))?;
        tr.span("tune", "predict", "", || {
            wp_tune::predict(&map, attribution, geometry(), &FIGURE5_AREAS, DEFAULT_TOLERANCE)
        })
        .map_err(|e| err(b, "predict", &e))?;
        let mut capture = PcCapture::default();
        simulate_traced(&link.image, &plain_sim, &mut capture)
            .map_err(|e| err(b, "capture", &e))?;
        let pcs = capture.0;

        let mut replay = |detail: &'static str, config: MemoryConfig| {
            let start = Instant::now();
            let fetches = tr.span("mem", "fetch_replay", detail, || {
                let mut mem = MemorySystem::new(config);
                for &pc in &pcs {
                    black_box(mem.fetch(pc));
                }
                mem.fetch_stats().fetches
            });
            (fetches, start.elapsed().as_secs_f64())
        };
        let (plain_fetches, fetch_s) = replay("plain", plain_mem);
        let (armed_fetches, armed_fetch_s) = replay("armed", armed_mem);
        if pcs.len() as u64 != run.fetch.fetches
            || plain_fetches != run.fetch.fetches
            || armed_fetches != run.fetch.fetches
        {
            return Err(err(b, "replay", &"replayed fetch count differs from the run"));
        }
        probes.plain_s += plain_s;
        probes.fetch_s += fetch_s;
        probes.armed_fetch_s += armed_fetch_s;
        probes.fetches += run.fetch.fetches;
        if workload == Workload::Faults {
            let start = Instant::now();
            tr.span("sim", "simulate", "armed", || simulate(&link.image, &armed_sim))
                .map_err(|e| err(b, "simulate", &e))?;
            probes.own_s += start.elapsed().as_secs_f64();
            probes.own_fetch_s += armed_fetch_s;
        } else {
            probes.own_s += plain_s;
            probes.own_fetch_s += fetch_s;
        }
    }
    Ok(probes)
}
