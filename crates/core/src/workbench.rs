//! The per-benchmark workbench: the full compiler-side flow of the
//! paper — assemble, link naturally, profile on the *small* input,
//! then relink under any layout for the *large* measurement runs.

use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

use wp_isa::Image;
use wp_linker::{Layout, LinkError, LinkOutput, Linker, Profile};
use wp_mem::{CacheGeometry, MemoryConfig};
use wp_sim::{simulate, SimConfig, SimError};
use wp_workloads::{Benchmark, InputSet};

/// Errors raised by the end-to-end flow.
#[derive(Debug)]
pub enum CoreError {
    /// Linking failed.
    Link(LinkError),
    /// Simulation failed.
    Sim(SimError),
    /// The guest ran but produced the wrong architectural checksum —
    /// a simulator or cache-model bug, never acceptable noise.
    ChecksumMismatch {
        /// The benchmark that failed.
        benchmark: Benchmark,
        /// Expected (from the reference implementation).
        expected: u64,
        /// What the guest produced.
        actual: u64,
    },
    /// A job panicked; the panic was caught at the job boundary and
    /// converted into this structured error (engine panic isolation).
    Panic {
        /// The panic payload, best-effort stringified.
        message: String,
    },
    /// A host-side I/O failure — the one error family that is
    /// genuinely transient and worth retrying. No simulation phase
    /// raises it; the harness injects it through its fault hooks to
    /// exercise retry and the kill/resume drill.
    Io {
        /// What was being attempted.
        context: String,
        /// The underlying OS error.
        message: String,
    },
}

impl CoreError {
    /// Whether the error is *transient*: caused by host-side conditions
    /// (I/O hiccups, a loaded machine tripping the wall-clock watchdog)
    /// rather than by the guest, the model or the experiment itself.
    /// Retry policies key off this — deterministic failures (link
    /// errors, architecture violations, checksum mismatches, panics)
    /// would only fail again identically.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        match self {
            CoreError::Io { .. } => true,
            CoreError::Sim(e) => e.is_transient(),
            CoreError::Link(_) | CoreError::ChecksumMismatch { .. } | CoreError::Panic { .. } => {
                false
            }
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Link(e) => e.fmt(f),
            CoreError::Sim(e) => e.fmt(f),
            CoreError::ChecksumMismatch { benchmark, expected, actual } => write!(
                f,
                "{benchmark}: checksum mismatch (expected {expected:#018x}, got {actual:#018x})"
            ),
            CoreError::Panic { message } => write!(f, "job panicked: {message}"),
            CoreError::Io { context, message } => write!(f, "{context}: {message}"),
        }
    }
}

impl Error for CoreError {}

impl From<LinkError> for CoreError {
    fn from(e: LinkError) -> CoreError {
        CoreError::Link(e)
    }
}

impl From<SimError> for CoreError {
    fn from(e: SimError) -> CoreError {
        CoreError::Sim(e)
    }
}

/// A benchmark with its profile gathered and linkers ready.
///
/// Construction performs the paper's §3/§5 training flow once; every
/// later [`Workbench::link`] call is a pure relink (the "no
/// recompilation" property — one profile serves every layout and every
/// way-placement area size).
#[derive(Debug)]
pub struct Workbench {
    benchmark: Benchmark,
    linkers: [Linker; 2], // indexed by InputSet
    profile: Profile,
    profiling_instructions: u64,
}

fn set_index(set: InputSet) -> usize {
    match set {
        InputSet::Small => 0,
        InputSet::Large => 1,
    }
}

impl Workbench {
    /// Assembles the benchmark and gathers its block profile by running
    /// the natural-layout binary on the small input set.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] if linking or the profiling run fails, or
    /// if the profiling run's checksum does not match the reference.
    pub fn new(benchmark: Benchmark) -> Result<Workbench, CoreError> {
        Workbench::new_timed(benchmark).map(|(workbench, _)| workbench)
    }

    /// [`Workbench::new`] with a wall-clock breakdown of the two
    /// construction phases (assembly+link vs the profiling run) — the
    /// observability hook `wp-bench`'s engine aggregates.
    ///
    /// # Errors
    ///
    /// As for [`Workbench::new`].
    pub fn new_timed(benchmark: Benchmark) -> Result<(Workbench, BuildTiming), CoreError> {
        Workbench::build(benchmark, None)
    }

    /// [`Workbench::new_timed`] with an optional wall-clock watchdog
    /// covering the profiling run (the engine's job time limit).
    ///
    /// # Errors
    ///
    /// As for [`Workbench::new`]; additionally
    /// [`wp_sim::SimError::Timeout`] if the watchdog fires.
    pub fn build(
        benchmark: Benchmark,
        time_limit: Option<Duration>,
    ) -> Result<(Workbench, BuildTiming), CoreError> {
        let start = Instant::now();
        let linkers = [
            Linker::new().with_modules(benchmark.modules(InputSet::Small)),
            Linker::new().with_modules(benchmark.modules(InputSet::Large)),
        ];
        let natural = linkers[0].link(Layout::Natural, &Profile::empty())?;
        let assemble = start.elapsed();

        // The profiling machine's cache geometry is irrelevant to the
        // counts; use the paper's default.
        let start = Instant::now();
        let mut config =
            SimConfig::new(MemoryConfig::baseline(CacheGeometry::xscale_icache())).with_profile();
        config.time_limit = time_limit;
        let run = simulate(&natural.image, &config)?;
        verify(benchmark, InputSet::Small, run.checksum)?;
        let counts = run.insn_counts.as_deref().unwrap_or(&[]);
        let profile = natural.profile_from_counts(counts);
        let profiling = start.elapsed();

        let workbench =
            Workbench { benchmark, linkers, profile, profiling_instructions: run.instructions };
        Ok((workbench, BuildTiming { assemble, profiling }))
    }

    /// The benchmark.
    #[must_use]
    pub fn benchmark(&self) -> Benchmark {
        self.benchmark
    }

    /// The training profile (natural block ids).
    #[must_use]
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Instructions executed by the profiling run.
    #[must_use]
    pub fn profiling_instructions(&self) -> u64 {
        self.profiling_instructions
    }

    /// Links the binary for `set` under `layout`, using the training
    /// profile.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Link`] on resolution failures.
    pub fn link(&self, layout: Layout, set: InputSet) -> Result<LinkOutput, CoreError> {
        self.link_with(layout, set, &self.profile)
    }

    /// [`Workbench::link`] with an explicit profile instead of the
    /// trained one — the hook the fault campaign uses to link under a
    /// deliberately corrupted profile.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Link`] on resolution failures.
    pub fn link_with(
        &self,
        layout: Layout,
        set: InputSet,
        profile: &Profile,
    ) -> Result<LinkOutput, CoreError> {
        Ok(self.linkers[set_index(set)].link(layout, profile)?)
    }

    /// Convenience: the linked image's text size in bytes (layout
    /// independent).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Link`] on resolution failures.
    pub fn text_bytes(&self) -> Result<u32, CoreError> {
        let output = self.link(Layout::Natural, InputSet::Large)?;
        Ok(output.image.text.len() as u32 * 4)
    }
}

/// Wall-clock breakdown of one [`Workbench::new_timed`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct BuildTiming {
    /// Assembling the benchmark's modules and linking them naturally.
    pub assemble: Duration,
    /// The profiling run on the small input set (includes checksum
    /// verification and profile extraction).
    pub profiling: Duration,
}

/// Checks a run's checksum against the benchmark's reference.
///
/// # Errors
///
/// Returns [`CoreError::ChecksumMismatch`] when they differ.
pub fn verify(benchmark: Benchmark, set: InputSet, actual: u64) -> Result<(), CoreError> {
    let expected = wp_sim::checksum_of(benchmark.reference_reports(set));
    if expected == actual {
        Ok(())
    } else {
        Err(CoreError::ChecksumMismatch { benchmark, expected, actual })
    }
}

/// The way-placement area sizes must be multiples of the I-TLB page
/// size (§4.1); this helper rounds a requested size up.
#[must_use]
pub fn align_area(bytes: u32, page_bytes: u32) -> u32 {
    bytes.div_ceil(page_bytes) * page_bytes
}

/// Text base re-exported for area arithmetic.
#[must_use]
pub fn text_base() -> u32 {
    Image::TEXT_BASE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workbench_profiles_and_relinks() {
        let bench = Workbench::new(Benchmark::Crc).expect("workbench");
        assert!(bench.profiling_instructions() > 10_000);
        assert!(bench.profile().total() > 0);
        // Hot code moves to the front under the way-placement layout.
        let natural = bench.link(Layout::Natural, InputSet::Large).expect("link");
        let optimised = bench.link(Layout::WayPlacement, InputSet::Large).expect("link");
        assert_eq!(natural.image.text.len(), optimised.image.text.len());
        let coverage_natural = natural.coverage_of_prefix(bench.profile(), 2 * 1024);
        let coverage_optimised = optimised.coverage_of_prefix(bench.profile(), 2 * 1024);
        assert!(
            coverage_optimised > coverage_natural,
            "{coverage_optimised} vs {coverage_natural}"
        );
        assert!(coverage_optimised > 0.9, "{coverage_optimised}");
    }

    #[test]
    fn verify_rejects_wrong_checksums() {
        let err = verify(Benchmark::Crc, InputSet::Small, 0xdead_beef).unwrap_err();
        match err {
            CoreError::ChecksumMismatch { benchmark, actual, .. } => {
                assert_eq!(benchmark, Benchmark::Crc);
                assert_eq!(actual, 0xdead_beef);
            }
            other => panic!("unexpected error {other}"),
        }
        assert!(err.to_string().contains("checksum mismatch"));
        // The happy path accepts the true checksum.
        let expected = wp_sim::checksum_of(Benchmark::Crc.reference_reports(InputSet::Small));
        verify(Benchmark::Crc, InputSet::Small, expected).expect("true checksum verifies");
    }

    #[test]
    fn align_area_rounds_up() {
        assert_eq!(align_area(1, 1024), 1024);
        assert_eq!(align_area(1024, 1024), 1024);
        assert_eq!(align_area(1025, 1024), 2048);
    }
}
