//! The three workloads: their configuration plans, and the untraced
//! pass that drives each one through the repository's own runner.
//!
//! Every workload runs on a one-worker [`Engine`], so a pass keeps one
//! thread busy. The plan lists every configuration a pass simulates in
//! a fixed order; the traced run (`traced.rs`) walks the same plan by
//! calling each layer directly, and its counts must match the engine's.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use wp_bench::chaos::{chaos_policy, CHAOS_RATES_PPM};
use wp_bench::layout_compare::COMPARE_AREA_BYTES;
use wp_bench::{Engine, Experiment, FIGURE5_AREAS};
use wp_core::wp_energy::EnergyReport;
use wp_core::wp_linker::Layout;
use wp_core::wp_mem::{CacheGeometry, FaultConfig};
use wp_core::wp_trace::TraceRecorder;
use wp_core::wp_workloads::{Benchmark, InputSet};
use wp_core::{
    measure_traced, measure_with, FaultSpec, MeasureOptions, Measurement, Scheme, Workbench,
};
use wp_tune::DEFAULT_TOLERANCE;

use crate::host::{geomean, mix};

/// A named workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Figure 5: large inputs under baseline, way-memoization and
    /// way-placement at the six area sizes.
    Sweep,
    /// The layout competition: six layout passes per benchmark, each
    /// with one traced full-coverage run into `wp_tune::predict`, plus
    /// way-placement at 1 KB and way-memoization.
    Layouts,
    /// The chaos ladder: way-placement at 32 KB and way-memoization,
    /// each with a clean twin and four injection rates, with
    /// detection and degradation armed.
    Faults,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Sweep, Workload::Layouts, Workload::Faults];

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::Layouts => "layouts",
            Workload::Faults => "faults",
        }
    }

    /// Host seconds of one pass and its two set-ups on the reference
    /// host (a 2.1 GHz Xeon vCPU, outside its slow spells); sets how
    /// many passes an untraced run makes.
    #[must_use]
    pub fn nominal_pass_seconds(self) -> f64 {
        match self {
            Workload::Sweep => 3.0,
            Workload::Layouts | Workload::Faults => 2.6,
        }
    }

    /// The benchmarks every pass runs.
    #[must_use]
    pub fn benchmarks(self) -> &'static [Benchmark] {
        match self {
            Workload::Sweep => &LARGE_INPUT_BENCHMARKS,
            Workload::Layouts | Workload::Faults => &SMALL_INPUT_BENCHMARKS,
        }
    }

    /// The guest input set every configuration runs on. The layout
    /// competition runs the small set: on large inputs one pass of its
    /// matrix is about 4x longer.
    #[must_use]
    pub fn input_set(self) -> InputSet {
        match self {
            Workload::Sweep => InputSet::Large,
            Workload::Layouts | Workload::Faults => InputSet::Small,
        }
    }
}

/// The modelled I-cache: the XScale 32 KB, 32-way cache.
#[must_use]
pub fn geometry() -> CacheGeometry {
    CacheGeometry::xscale_icache()
}

/// The benchmarks `layouts` and `faults` run: one or two per MiBench
/// category (automotive, consumer, office, security, telecomm). The
/// whole suite is too long for several passes per run, and a steady
/// figure needs several: see `README.md`.
const SMALL_INPUT_BENCHMARKS: [Benchmark; 8] = [
    Benchmark::Bitcount,
    Benchmark::SusanE,
    Benchmark::Cjpeg,
    Benchmark::Ispell,
    Benchmark::Sha,
    Benchmark::BlowfishE,
    Benchmark::Crc,
    Benchmark::Fft,
];

/// The benchmarks `sweep` runs on large inputs: five of the eight
/// above, so that a pass is about 4 s and a run holds six of them.
const LARGE_INPUT_BENCHMARKS: [Benchmark; 5] =
    [Benchmark::Cjpeg, Benchmark::Ispell, Benchmark::Sha, Benchmark::Crc, Benchmark::Fft];

/// The six competing layout passes; the seed picks the random one.
#[must_use]
pub fn layouts(seed: u64) -> [Layout; 6] {
    [
        Layout::Natural,
        Layout::WayPlacement,
        Layout::Random(mix(seed, 0x1a70)),
        Layout::Pessimal,
        Layout::ExtTsp,
        Layout::Codestitcher,
    ]
}

/// One configuration of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// The benchmark simulated.
    pub benchmark: Benchmark,
    /// The layout the image is linked under.
    pub layout: Layout,
    /// The fetch scheme.
    pub scheme: Scheme,
    /// Injected hardware faults; when present, detection and the
    /// chaos degradation policy are armed too.
    pub fault: Option<FaultConfig>,
    /// Runs into a `TraceRecorder` whose attribution feeds
    /// `wp_tune::predict`.
    pub traced: bool,
    /// Index of the configuration this one is normalised against;
    /// `None` for configurations that are not a ratio row.
    pub base: Option<usize>,
    /// Index of the engine job the configuration belongs to.
    pub job: usize,
}

impl Config {
    fn new(benchmark: Benchmark, layout: Layout, scheme: Scheme, job: usize) -> Config {
        Config { benchmark, layout, scheme, fault: None, traced: false, base: None, job }
    }

    /// The row label: layout, scheme and, when faulted, the rate.
    #[must_use]
    pub fn label(&self) -> String {
        let label = format!("{}/{}", self.layout.label(), self.scheme.label());
        match self.fault {
            Some(fault) => format!("{label}@{}ppm", fault.rate_ppm),
            None => label,
        }
    }

    /// The measurement options the repository's pipelines use for this
    /// configuration.
    #[must_use]
    pub fn options(&self, set: InputSet) -> MeasureOptions {
        let options = MeasureOptions::new(set).with_layout(self.layout);
        match self.fault {
            Some(fault) => {
                options.with_fault(FaultSpec::Hardware(fault)).with_degradation(chaos_policy())
            }
            None => options,
        }
    }
}

/// Every configuration one pass of `workload` simulates, in pass order.
#[must_use]
pub fn plan(workload: Workload, seed: u64) -> Vec<Config> {
    let mut plan = Vec::new();
    match workload {
        Workload::Sweep => {
            for (job, &benchmark) in workload.benchmarks().iter().enumerate() {
                let base = plan.len();
                for scheme in sweep_schemes() {
                    let mut config = Config::new(benchmark, scheme.layout(), scheme, job);
                    config.base = (scheme != Scheme::Baseline).then_some(base);
                    plan.push(config);
                }
            }
        }
        Workload::Layouts => {
            let full = Scheme::WayPlacement { area_bytes: FIGURE5_AREAS[0] };
            let small = Scheme::WayPlacement { area_bytes: COMPARE_AREA_BYTES };
            for (job, &benchmark) in workload.benchmarks().iter().enumerate() {
                let natural = plan.len();
                for layout in layouts(seed) {
                    let mut traced = Config::new(benchmark, layout, full, job);
                    traced.traced = true;
                    plan.push(traced);
                    let is_natural = layout == Layout::Natural;
                    for (offset, scheme) in [(1, small), (2, Scheme::WayMemoization)] {
                        let mut config = Config::new(benchmark, layout, scheme, job);
                        config.base = (!is_natural).then_some(natural + offset);
                        plan.push(config);
                    }
                }
            }
        }
        Workload::Faults => {
            let schemes = [Scheme::WayPlacement { area_bytes: 32 * 1024 }, Scheme::WayMemoization];
            let pairs = workload.benchmarks().iter().flat_map(|&b| schemes.map(|s| (b, s)));
            for (job, (benchmark, scheme)) in pairs.enumerate() {
                let clean = plan.len();
                plan.push(Config::new(benchmark, scheme.layout(), scheme, job));
                let injection_seed = mix(seed, job as u64);
                for rate in CHAOS_RATES_PPM {
                    let mut config = Config::new(benchmark, scheme.layout(), scheme, job);
                    config.fault = Some(FaultConfig::all(injection_seed, rate));
                    config.base = Some(clean);
                    plan.push(config);
                }
            }
        }
    }
    plan
}

/// Figure 5's schemes: the baseline, way-memoization, then
/// way-placement at every area size.
fn sweep_schemes() -> Vec<Scheme> {
    let mut schemes = vec![Scheme::Baseline, Scheme::WayMemoization];
    schemes.extend(FIGURE5_AREAS.iter().map(|&area_bytes| Scheme::WayPlacement { area_bytes }));
    schemes
}

/// What one simulated configuration produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Guest instructions retired.
    pub insns: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Instruction fetches.
    pub fetches: u64,
    /// I-cache tag comparisons.
    pub tag_compares: u64,
    /// I-TLB misses.
    pub itlb_misses: u64,
    /// Scheme demotions the degradation controller took.
    pub demotions: u64,
    /// The priced energy report.
    pub energy: EnergyReport,
}

impl Outcome {
    /// The counters of a verified measurement.
    #[must_use]
    pub fn of(m: &Measurement) -> Outcome {
        Outcome {
            insns: m.run.instructions,
            cycles: m.run.cycles,
            fetches: m.run.fetch.fetches,
            tag_compares: m.run.fetch.tag_comparisons,
            itlb_misses: m.run.itlb.misses,
            demotions: m.run.demotions,
            energy: m.energy,
        }
    }
}

/// A pass's simulated results: exact counts and the geometric-mean
/// ratios against each configuration's base run. Both the engine pass
/// and the traced pass produce one, and they must be equal.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Summary {
    /// Configurations attempted.
    pub attempted: u64,
    /// Configurations that completed with a verified checksum.
    pub ok: u64,
    /// Guest instructions over every completed configuration.
    pub insns: u64,
    /// Simulated cycles over every completed configuration.
    pub cycles: u64,
    /// Instruction fetches over every completed configuration.
    pub fetches: u64,
    /// Geometric-mean I-cache energy ratio.
    pub energy_norm: f64,
    /// Geometric-mean ED-product ratio.
    pub ed_norm: f64,
    /// Geometric-mean cycle ratio.
    pub cycles_norm: f64,
    /// Arithmetic-mean I-cache energy ratio per configuration label,
    /// in first-appearance order (Figure 5 reports these means).
    pub means: Vec<(String, f64)>,
    /// One line per failed configuration.
    pub failures: Vec<String>,
}

impl Summary {
    /// Summarises per-configuration results, in plan order.
    #[must_use]
    pub fn from_outcomes(plan: &[Config], outcomes: &[Result<Outcome, String>]) -> Summary {
        let mut summary = Summary { attempted: plan.len() as u64, ..Summary::default() };
        let mut ratios = Ratios::default();
        for (config, outcome) in plan.iter().zip(outcomes) {
            match outcome {
                Ok(o) => {
                    summary.add(o.insns, o.cycles, o.fetches);
                    if let Some(Ok(base)) = config.base.map(|i| &outcomes[i]) {
                        ratios.push(
                            config.label(),
                            o.energy.normalized_icache_energy(&base.energy),
                            o.energy.ed_product(&base.energy),
                            o.cycles as f64 / base.cycles as f64,
                        );
                    }
                }
                Err(message) => summary.failures.push(message.clone()),
            }
        }
        ratios.finish(&mut summary);
        summary
    }

    fn add(&mut self, insns: u64, cycles: u64, fetches: u64) {
        self.ok += 1;
        self.insns += insns;
        self.cycles += cycles;
        self.fetches += fetches;
    }
}

/// Ratio rows of a pass, in plan order.
#[derive(Default)]
struct Ratios {
    energy: Vec<f64>,
    ed: Vec<f64>,
    cycles: Vec<f64>,
    labels: Vec<String>,
}

impl Ratios {
    fn push(&mut self, label: String, energy: f64, ed: f64, cycles: f64) {
        self.labels.push(label);
        self.energy.push(energy);
        self.ed.push(ed);
        self.cycles.push(cycles);
    }

    fn finish(self, summary: &mut Summary) {
        summary.energy_norm = geomean(&self.energy);
        summary.ed_norm = geomean(&self.ed);
        summary.cycles_norm = geomean(&self.cycles);
        let mut sums: Vec<(String, f64, u32)> = Vec::new();
        for (label, energy) in self.labels.into_iter().zip(self.energy) {
            match sums.iter_mut().find(|(l, _, _)| *l == label) {
                Some(entry) => {
                    entry.1 += energy;
                    entry.2 += 1;
                }
                None => sums.push((label, energy, 1)),
            }
        }
        summary.means = sums.into_iter().map(|(l, sum, n)| (l, sum / f64::from(n))).collect();
    }
}

/// Builds every workbench `workload` needs on `engine` (assembly,
/// natural link, small-input profiling run). Returns the failures.
pub fn setup(engine: &Engine, workload: Workload) -> Vec<String> {
    let benchmarks = workload.benchmarks();
    engine
        .execute(benchmarks, |&b| engine.workbench(b).map(|_| ()))
        .into_iter()
        .zip(benchmarks)
        .filter_map(|(r, b)| r.err().map(|e| format!("{b}: workbench: {e}")))
        .collect()
}

/// One untraced pass: the simulated results, and the seconds spent
/// inside the layer calls the runner made (link, simulate, verify,
/// price and, on `layouts`, predict); the runner's own time is the rest.
#[derive(Debug)]
pub struct Pass {
    /// The simulated results.
    pub summary: Summary,
    /// Seconds inside layer calls.
    pub layer_s: f64,
}

/// One untraced pass of `workload` on `engine`, whose workbenches
/// [`setup`] has already built: one `Engine::run` for `sweep`, one
/// `Engine::execute` over (benchmark, scheme) jobs otherwise.
#[must_use]
pub fn engine_pass(engine: &Engine, workload: Workload, plan: &[Config]) -> Pass {
    if workload == Workload::Sweep {
        return sweep_pass(engine, plan);
    }
    let set = workload.input_set();
    let layer_ns = AtomicU64::new(0);
    let groups: Vec<&[Config]> = plan.chunk_by(|a, b| a.job == b.job).collect();
    let outcomes: Vec<Result<Outcome, String>> = engine
        .execute(&groups, |group| {
            let Some(first) = group.first() else { return Vec::new() };
            match engine.workbench(first.benchmark) {
                Ok(workbench) => group
                    .iter()
                    .map(|config| {
                        let start = Instant::now();
                        let outcome = run_config(engine, &workbench, config, set);
                        layer_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        outcome
                    })
                    .collect(),
                Err(e) => group.iter().map(|_| Err(format!("workbench: {e}"))).collect(),
            }
        })
        .into_iter()
        .flatten()
        .collect();
    Pass {
        summary: Summary::from_outcomes(plan, &outcomes),
        layer_s: layer_ns.into_inner() as f64 * 1e-9,
    }
}

/// One configuration of the layout or fault workloads, through the
/// same calls `wp_bench::layout_compare` and `wp_bench::chaos` make.
fn run_config(
    engine: &Engine,
    workbench: &Arc<Workbench>,
    config: &Config,
    set: InputSet,
) -> Result<Outcome, String> {
    let tag = |e: &dyn std::fmt::Display| {
        format!("{}/{}/{}: {e}", config.benchmark, config.layout.label(), config.scheme.label())
    };
    let icache = geometry();
    if config.traced {
        let link = workbench.link(config.layout, set).map_err(|e| tag(&e))?;
        let mut recorder = TraceRecorder::new().with_layout(link.layout_map());
        let (m, _) =
            measure_traced(workbench, icache, config.scheme, config.options(set), &mut recorder)
                .map_err(|e| tag(&e))?;
        let attribution = recorder.attribution().ok_or_else(|| tag(&"no attribution"))?;
        wp_tune::predict(
            &link.layout_map(),
            attribution,
            icache,
            &FIGURE5_AREAS,
            DEFAULT_TOLERANCE,
        )
        .map_err(|e| tag(&e))?;
        return Ok(Outcome::of(&m));
    }
    if config.fault.is_none() && config.layout == config.scheme.layout() {
        let m = engine
            .measure(config.benchmark, icache, config.scheme, set)
            .map_err(|e| tag(&e))?;
        return Ok(Outcome::of(&m));
    }
    let (m, _) =
        measure_with(workbench, icache, config.scheme, config.options(set)).map_err(|e| tag(&e))?;
    Ok(Outcome::of(&m))
}

/// The Figure-5 pass: one `Engine::run` over the whole experiment.
fn sweep_pass(engine: &Engine, plan: &[Config]) -> Pass {
    let before = engine.stats();
    let benchmarks = Workload::Sweep.benchmarks();
    let report = engine.run(&Experiment::new(benchmarks, [geometry()], sweep_schemes()));
    let after = engine.stats();
    let mut summary = Summary { attempted: plan.len() as u64, ..Summary::default() };
    let mut ratios = Ratios::default();
    for row in &report.rows {
        summary.add(row.instructions, row.cycles, row.fetches);
        let base = report
            .rows
            .iter()
            .find(|b| b.benchmark == row.benchmark && b.scheme == Scheme::Baseline);
        if let (Some(base), false) = (base, row.scheme == Scheme::Baseline) {
            let label = Config::new(row.benchmark, row.scheme.layout(), row.scheme, 0).label();
            ratios.push(label, row.energy, row.ed, row.cycles as f64 / base.cycles as f64);
        }
    }
    summary.failures = report.failures.iter().map(ToString::to_string).collect();
    ratios.finish(&mut summary);
    let layer_ns = (after.link_ns + after.simulate_ns + after.price_ns)
        - (before.link_ns + before.simulate_ns + before.price_ns);
    Pass { summary, layer_s: layer_ns as f64 * 1e-9 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_have_the_documented_shapes() {
        let count = |w: Workload| w.benchmarks().len();
        assert_eq!(plan(Workload::Sweep, 1).len(), count(Workload::Sweep) * 8);
        assert_eq!(plan(Workload::Layouts, 1).len(), count(Workload::Layouts) * 6 * 3);
        assert_eq!(plan(Workload::Faults, 1).len(), count(Workload::Faults) * 2 * 5);
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
    }

    #[test]
    fn the_seed_moves_only_seeded_inputs() {
        let (a, b) = (plan(Workload::Faults, 1), plan(Workload::Faults, 2));
        assert_ne!(a[1].fault.map(|f| f.seed), b[1].fault.map(|f| f.seed));
        assert_ne!(layouts(1)[2], layouts(2)[2]);
        assert_eq!(layouts(1)[..2], layouts(2)[..2]);
    }
}
