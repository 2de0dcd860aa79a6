//! Stored-baseline blessing and gating.
//!
//! The reproduction's central artefacts — the traced-run report, the
//! autotuned WP-area manifest, the chaos-campaign resilience manifest,
//! the obs-report reconciliation manifest, the layout competition and
//! the fetch-core throughput manifest — must stay stable as the
//! simulator grows: silent drift in any scheme's counters invalidates
//! every number the paper comparison rests on. This module freezes
//! them. Both sides get their manifests from one producer,
//! [`campaign::run`] over the baseline groups:
//!
//! * [`bless`] writes the campaign's **canonical** payloads
//!   (deterministic: no wall-clock fields outside the perf manifest, no
//!   environment-dependent paths, with a provenance header recording
//!   grid/tolerance/input set/task key) into a baselines directory that
//!   is committed to the repository;
//! * [`gate`] diffs fresh payloads against the blessed copies with
//!   [`wp_tune::diff`], flagging any fetch/energy shift past the gates
//!   and any structural mismatch (missing run, changed grid, renamed
//!   chain). A warm store serves every fresh manifest as a hit.
//!
//! The `bless` and `gate` binaries are thin wrappers; the library
//! entry points keep the whole round trip testable in-process.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use wp_campaign::{Store, TaskKey};
use wp_core::{measure_traced, MeasureOptions, Scheme};
use wp_energy::CacheEnergyModel;
use wp_mem::{CacheGeometry, FetchStats};
use wp_obs::Obs;
use wp_trace::{ChainAttribution, TraceRecorder};
use wp_tune::{DiffThresholds, TraceDiff, TraceSet, TuneError};
use wp_workloads::{Benchmark, InputSet};

use crate::campaign::{self, CampaignConfig, Group};
use crate::engine::Engine;
use crate::Json;

/// Schema tag the blessed trace-report baseline carries.
pub const BASELINE_SCHEMA: &str = "baseline/v1";
/// The default committed baselines directory, relative to the repo
/// root (where CI runs).
pub const DEFAULT_BASELINE_DIR: &str = "baselines";
/// The **byte-deterministic** baseline groups, in bless/gate order:
/// [`Group::BASELINE`] without the wall-clock perf manifest. Two bless
/// runs over the same tree produce these byte-identically, so a test
/// that asserts a clean gate blesses and gates exactly these.
pub const DETERMINISTIC_GROUPS: [Group; 5] =
    [Group::Trace, Group::Tune, Group::Chaos, Group::Obs, Group::LayoutCompare];
/// Hottest chains recorded per traced run (mirrors `trace_report`).
pub const TOP_K: usize = 5;
/// Relative tolerance when reconciling per-chain picojoule sums.
const ENERGY_REL_TOL: f64 = 1e-6;

/// The `BENCH_<name>.json` file a baseline group is blessed to.
#[must_use]
pub fn baseline_file(group: Group) -> String {
    format!("BENCH_{}.json", group.manifest_name())
}

/// The traced-run matrix of the trace-report pipeline: quick is the
/// CI smoke shape (one benchmark, small inputs), full is the shape
/// `trace_report` publishes.
#[must_use]
pub fn trace_benchmarks(quick: bool) -> (&'static [Benchmark], InputSet) {
    if quick {
        (&[Benchmark::Crc], InputSet::Small)
    } else {
        (&[Benchmark::Crc, Benchmark::Sha, Benchmark::Bitcount], InputSet::Large)
    }
}

/// The benchmark set of the tuned-areas pipeline: quick tunes the CI
/// smoke benchmark, full tunes the whole 23-benchmark suite so the
/// blessed `BENCH_tuned_areas.json` covers every figure-5 curve.
#[must_use]
pub fn tuned_benchmarks(quick: bool) -> (Vec<Benchmark>, InputSet) {
    if quick {
        (vec![Benchmark::Crc], InputSet::Small)
    } else {
        (Benchmark::ALL.to_vec(), InputSet::Large)
    }
}

fn pipeline_error(context: &str, error: &dyn std::fmt::Display) -> TuneError {
    TuneError::Measure { message: format!("{context}: {error}") }
}

/// Renders the hottest `top_k` chains of an attribution as manifest
/// rows (shared with the `trace_report` binary, so blessed baselines
/// and published reports agree on what a hot-chain record is).
#[must_use]
pub fn hot_chains_json(
    attribution: &ChainAttribution,
    model: &CacheEnergyModel,
    top_k: usize,
) -> Vec<Json> {
    let total_fetches = attribution.total().fetches.max(1);
    attribution
        .ranked()
        .into_iter()
        .take(top_k)
        .map(|id| {
            let row = &attribution.rows()[id as usize];
            let info = &attribution.map().chains()[id as usize];
            let energy_pj = model.fetch_energy(&FetchStats::from(&row.to_counters())).total_pj();
            Json::obj([
                ("chain", Json::from(id)),
                ("label", Json::from(info.label.as_str())),
                ("weight", Json::Uint(info.weight)),
                ("insns", Json::from(info.insns)),
                ("fetches", Json::Uint(row.fetches)),
                ("fetch_share", Json::from(row.fetches as f64 / total_fetches as f64)),
                (
                    "tags_per_fetch",
                    Json::from(row.tag_comparisons as f64 / row.fetches.max(1) as f64),
                ),
                ("energy_pj", Json::from(energy_pj)),
            ])
        })
        .collect()
}

/// One canonical traced run: everything `trace_report` derives that is
/// deterministic (counters, energies, hot chains), nothing that is not
/// (wall-clock spans, sink overhead, ring/interval bookkeeping).
/// Reconciliation failures are hard errors — a baseline whose chain
/// sums disagree with the hardware counters must never be blessed.
/// Runs on the campaign's engine, with its retry policy and armed
/// [`wp_obs::Obs`].
pub(crate) fn canonical_run(
    engine: &Engine,
    benchmark: Benchmark,
    icache: CacheGeometry,
    scheme: Scheme,
    set: InputSet,
) -> Result<Json, TuneError> {
    let tag = format!("{}/{}", benchmark.name(), scheme.label());
    let workbench = engine.workbench(benchmark).map_err(|e| pipeline_error(&tag, &e))?;
    let map = workbench
        .link(scheme.layout(), set)
        .map_err(|e| pipeline_error(&tag, &e))?
        .layout_map();
    let mut recorder = TraceRecorder::new().with_layout(map);
    let (m, _) =
        measure_traced(&workbench, icache, scheme, MeasureOptions::new(set), &mut recorder)
            .map_err(|e| pipeline_error(&tag, &e))?;
    let attribution = recorder
        .attribution()
        .ok_or_else(|| pipeline_error(&tag, &"recorder has no layout"))?;

    let total = attribution.total();
    let aggregate = m.run.fetch;
    if total.fetches != aggregate.fetches
        || total.tag_comparisons != aggregate.tag_comparisons
        || attribution.unattributed().fetches != 0
    {
        return Err(pipeline_error(&tag, &"attribution does not reconcile with counters"));
    }
    let mem = scheme.memory_config(icache);
    let model = CacheEnergyModel::for_scheme(icache, mem.icache.scheme);
    let chain_pj: f64 = attribution
        .rows()
        .iter()
        .chain(std::iter::once(attribution.unattributed()))
        .map(|row| model.fetch_energy(&FetchStats::from(&row.to_counters())).total_pj())
        .sum();
    let aggregate_pj = m.energy.icache.total_pj();
    if (chain_pj - aggregate_pj).abs() > ENERGY_REL_TOL * aggregate_pj.max(1.0) {
        return Err(pipeline_error(&tag, &"per-chain energies do not sum to the aggregate"));
    }

    Ok(Json::obj([
        ("benchmark", Json::from(benchmark.name())),
        ("scheme", Json::from(scheme.label().as_str())),
        ("fetches", Json::Uint(aggregate.fetches)),
        ("cycles", Json::Uint(m.run.cycles)),
        ("icache_pj", Json::from(aggregate_pj)),
        ("chains", Json::from(attribution.rows().len())),
        ("hot_chains", Json::Arr(hot_chains_json(attribution, &model, TOP_K))),
    ]))
}

pub(crate) fn input_set_name(set: InputSet) -> &'static str {
    match set {
        InputSet::Small => "small",
        InputSet::Large => "large",
    }
}

/// The two way-aware schemes every trace-report run covers, in manifest
/// order. Shared by the campaign planner's per-run nodes and task keys.
#[must_use]
pub fn trace_schemes() -> [Scheme; 2] {
    [Scheme::WayPlacement { area_bytes: 32 * 1024 }, Scheme::WayMemoization]
}

/// Assembles the trace-report baseline manifest from already-rendered
/// canonical run objects, so the campaign manifest node builds it from
/// stored run payloads without re-simulating; `task_key` lands in the
/// provenance block (display-only — the diff gate never joins on it).
#[must_use]
pub fn trace_manifest_from_runs(quick: bool, runs: Vec<Json>, task_key: &TaskKey) -> Json {
    let icache = CacheGeometry::xscale_icache();
    let (benchmarks, set) = trace_benchmarks(quick);
    let schemes = trace_schemes();
    Json::obj([
        ("schema", Json::from(BASELINE_SCHEMA)),
        ("kind", Json::from("trace_report")),
        (
            "provenance",
            Json::obj([
                ("quick", Json::from(quick)),
                ("input_set", Json::from(input_set_name(set))),
                ("geometry", Json::from(icache.to_string())),
                ("schemes", Json::arr(schemes.iter().map(|s| Json::from(s.label().as_str())))),
                ("benchmarks", Json::arr(benchmarks.iter().map(|b| Json::from(b.name())))),
                ("hot_chains", Json::from(TOP_K)),
                ("task_key", Json::from(task_key.hex().as_str())),
            ]),
        ),
        ("runs", Json::Arr(runs)),
    ])
}

/// Gates for the throughput manifest: deliberately generous, because
/// the Mfetch/s columns are wall-clock (they shift with the host),
/// while the speedup-vs-reference column (the energy metric slot) is
/// same-machine/same-process and only large, real fetch-core
/// slowdowns move it past a 75% relative shift.
#[must_use]
pub fn perf_thresholds() -> DiffThresholds {
    DiffThresholds { rel: 0.75, abs_fetches: 5.0, abs_energy: 1.0 }
}

/// Runs `groups` (baseline groups, e.g. [`Group::BASELINE`]) through
/// [`campaign::run`] against `store` and returns each group's manifest
/// payload, in `groups` order.
///
/// # Errors
///
/// [`TuneError::Measure`] naming every failed node.
fn fresh_manifests(
    store: &Store,
    groups: &[Group],
    quick: bool,
    obs: Option<&Arc<Obs>>,
) -> Result<Vec<(Group, Vec<u8>)>, TuneError> {
    let run = campaign::run(&CampaignConfig::new(quick, groups.to_vec()), store, obs);
    if !run.report.ok() {
        let failures: Vec<String> = run
            .report
            .failures()
            .iter()
            .map(|(label, error)| format!("{label}: {error}"))
            .collect();
        return Err(TuneError::Measure {
            message: format!("campaign pipelines failed: {}", failures.join("; ")),
        });
    }
    groups
        .iter()
        .map(|&group| {
            let bytes = run.manifest(group).ok_or_else(|| TuneError::Measure {
                message: format!("campaign produced no payload for {}", baseline_file(group)),
            })?;
            Ok((group, bytes.to_vec()))
        })
        .collect()
}

/// Runs the `groups` pipelines through the campaign store and writes
/// their manifests into `dir` (created if missing), returning the
/// written paths in `groups` order. Pass a cold store: a warm one
/// re-blesses whatever payloads it already holds.
///
/// # Errors
///
/// [`TuneError::Io`] on write failure, plus [`TuneError::Measure`]
/// naming every failed pipeline node — including the perf tripwire,
/// which refuses a throughput number from fetch cores that disagree,
/// the chaos campaign, which refuses a tree whose resilience
/// invariants fail, and the obs_report pipeline, which refuses a tree
/// whose metrics do not reconcile with ground truth.
pub fn bless(
    dir: &Path,
    store: &Store,
    groups: &[Group],
    quick: bool,
) -> Result<Vec<PathBuf>, TuneError> {
    let manifests = fresh_manifests(store, groups, quick, None)?;
    std::fs::create_dir_all(dir).map_err(|e| TuneError::io(dir, &e))?;
    let mut paths = Vec::with_capacity(manifests.len());
    for (group, bytes) in manifests {
        let path = dir.join(baseline_file(group));
        std::fs::write(&path, bytes).map_err(|e| TuneError::io(&path, &e))?;
        paths.push(path);
    }
    Ok(paths)
}

/// The outcome of gating a fresh re-run against a blessed baseline
/// set: one [`TraceDiff`] per baseline manifest.
#[derive(Clone, Debug)]
pub struct GateReport {
    /// The blessed (baseline) directory.
    pub blessed_dir: PathBuf,
    /// Per-manifest comparisons, in the gated groups' order; the perf
    /// manifest diffs under [`perf_thresholds`].
    pub diffs: Vec<(String, TraceDiff)>,
}

impl GateReport {
    /// Total regression flags across every manifest.
    #[must_use]
    pub fn regressions(&self) -> usize {
        self.diffs.iter().map(|(_, diff)| diff.regressions()).sum()
    }

    /// `true` when nothing flagged.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.regressions() == 0
    }

    /// The process exit code CI gates on: 0 clean, 1 regression.
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.is_clean())
    }

    /// Renders the `BENCH_gate.json` manifest body.
    #[must_use]
    pub fn json(&self) -> Json {
        Json::obj([
            ("schema", Json::from("gate/v1")),
            ("blessed_dir", Json::from(self.blessed_dir.display().to_string().as_str())),
            (
                "manifests",
                Json::arr(self.diffs.iter().map(|(name, diff)| {
                    Json::obj([
                        ("file", Json::from(name.as_str())),
                        ("regressions", Json::from(diff.regressions())),
                        ("diff", diff.json()),
                    ])
                })),
            ),
            ("regressions", Json::from(self.regressions())),
            ("ok", Json::from(self.is_clean())),
        ])
    }
}

/// Produces fresh `groups` manifests with [`campaign::run`] against
/// `store` and diffs each against its blessed copy in `blessed_dir`:
/// the perf manifest under [`perf_thresholds`], every other one under
/// `thresholds`. A warm store (e.g. right after a bless into the same
/// store) serves every manifest as a pure hit; a cold one re-runs the
/// pipelines. `obs`, when armed, receives the campaign's store hit/miss
/// counters and the engine metrics.
///
/// # Errors
///
/// [`TuneError::Io`] / [`TuneError::Json`] / [`TuneError::Malformed`]
/// when a blessed manifest is missing or unreadable, plus any pipeline
/// failure inside the campaign run (reported with the failing node
/// labels, as in [`bless`]). Regressions are *not* errors —
/// they are reported through [`GateReport::regressions`].
pub fn gate(
    blessed_dir: &Path,
    store: &Store,
    groups: &[Group],
    quick: bool,
    thresholds: DiffThresholds,
    obs: Option<&Arc<Obs>>,
) -> Result<GateReport, TuneError> {
    // Load every blessed copy first: a missing baseline is an
    // invocation problem and must not cost a campaign run.
    let blessed: Vec<TraceSet> = groups
        .iter()
        .map(|&group| TraceSet::load(&blessed_dir.join(baseline_file(group))))
        .collect::<Result<_, _>>()?;
    let mut diffs = Vec::with_capacity(groups.len());
    for ((group, bytes), blessed) in
        fresh_manifests(store, groups, quick, obs)?.into_iter().zip(blessed)
    {
        let name = baseline_file(group);
        let text = String::from_utf8(bytes).map_err(|e| TuneError::Measure {
            message: format!("{name}: stored payload is not UTF-8: {e}"),
        })?;
        let fresh = TraceSet::parse(&text, &format!("store:{name}"), group.manifest_name())?;
        let gates = if group == Group::Perf { perf_thresholds() } else { thresholds };
        diffs.push((name, TraceDiff::compute(&blessed, &fresh, gates)));
    }
    Ok(GateReport { blessed_dir: blessed_dir.to_path_buf(), diffs })
}
