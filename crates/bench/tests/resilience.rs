//! Engine resilience integration tests: panic isolation, bounded
//! retry of transient failures, watchdog timeouts, and resuming a
//! killed run from the campaign store.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use wp_bench::campaign::{keys, plan_suite, InputTags};
use wp_bench::chaos::kill_resume_drill;
use wp_bench::{Engine, Experiment, JobPhase, Json, RetryPolicy};
use wp_campaign::{Dag, NullMonitor, Store};
use wp_core::wp_mem::CacheGeometry;
use wp_core::wp_sim::SimError;
use wp_core::wp_workloads::{Benchmark, InputSet};
use wp_core::{CoreError, Scheme};

const AREA: u32 = 8 * 1024;

/// A scratch directory under the system temp dir, unique to this
/// process and `name`; any leftover is cleared first.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wp-resilience-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn experiment(benchmarks: impl Into<Vec<Benchmark>>) -> Experiment {
    Experiment::new(
        benchmarks,
        [CacheGeometry::xscale_icache()],
        [Scheme::WayMemoization, Scheme::WayPlacement { area_bytes: AREA }],
    )
    .with_input_set(InputSet::Small)
}

/// A job that panics during workbench construction is converted into a
/// structured `CoreError::Panic` failure while every sibling job —
/// including siblings running concurrently on the same pool —
/// completes with real results.
#[test]
fn panicking_build_is_isolated_and_siblings_complete() {
    let engine = Engine::with_workers(4).with_build_fault(|benchmark, _attempt| {
        if benchmark == Benchmark::Sha {
            panic!("injected build panic for {benchmark}");
        }
        None
    });
    let report = engine.run(&experiment([Benchmark::Crc, Benchmark::Sha]));

    // Both Sha jobs fail (the memoised build failure is shared)...
    assert_eq!(report.failures.len(), 2, "failures: {:?}", report.failures);
    for failure in &report.failures {
        assert_eq!(failure.benchmark, Benchmark::Sha);
        assert_eq!(failure.phase, JobPhase::Workbench);
        assert_eq!(failure.attempts, 1, "panics are not transient, so no retry");
        assert!(
            matches!(&*failure.error, CoreError::Panic { message }
                if message.contains("injected build panic")),
            "unexpected error {:?}",
            failure.error
        );
    }
    // ...while both Crc jobs produced rows.
    assert_eq!(report.rows.len(), 2);
    assert!(report.rows.iter().all(|r| r.benchmark == Benchmark::Crc));
    assert!(report.stats.panics >= 1, "{:?}", report.stats);
    // The failure renders into the manifest (exercises JobFailure::json).
    assert!(report.results_json().to_compact().contains("job panicked"));
}

/// A transient (I/O) failure on the first build attempt is retried
/// after the failed cache cell is evicted, and the second attempt
/// succeeds — the workbench really is built twice.
#[test]
fn transient_build_failure_is_retried_and_succeeds() {
    let engine = Engine::with_workers(2)
        .with_retry(RetryPolicy::new(3, Duration::ZERO))
        .with_build_fault(|_benchmark, attempt| {
            (attempt == 1).then(|| CoreError::Io {
                context: "injected transient fault".to_string(),
                message: "simulated EIO".to_string(),
            })
        });
    let report = engine.run(&experiment([Benchmark::Crc]));

    assert!(report.is_complete(), "failures: {:?}", report.failures);
    assert_eq!(report.rows.len(), 2);
    assert_eq!(report.stats.retries, 1, "{:?}", report.stats);
    // Attempt 1 hit the injected fault; attempt 2 built for real.
    assert_eq!(report.stats.workbench_builds, 2, "{:?}", report.stats);
}

/// Deterministic failures (wrong checksum) are not retried even under
/// a generous retry policy: the failure reports exactly one attempt.
#[test]
fn permanent_failure_is_not_retried() {
    let attempts = AtomicU32::new(0);
    let engine = Engine::with_workers(2)
        .with_retry(RetryPolicy::new(5, Duration::ZERO))
        .with_fault(move |benchmark, _geometry, scheme| {
            (benchmark == Benchmark::Crc && scheme == Scheme::WayMemoization).then(|| {
                attempts.fetch_add(1, Ordering::Relaxed);
                CoreError::ChecksumMismatch { benchmark, expected: 1, actual: 2 }
            })
        });
    let report = engine.run(&experiment([Benchmark::Crc]));

    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.failures[0].attempts, 1);
    assert_eq!(report.stats.retries, 0, "{:?}", report.stats);
    assert_eq!(report.rows.len(), 1, "the sibling scheme still completed");
}

/// An immediate watchdog limit times out the profiling run; the
/// timeout is transient, so the policy retries it (uselessly here —
/// the limit still applies) and the final failure records every
/// attempt.
#[test]
fn watchdog_timeout_is_typed_transient_and_retried() {
    let engine = Engine::with_workers(1)
        .with_job_time_limit(Duration::ZERO)
        .with_retry(RetryPolicy::new(2, Duration::ZERO));
    let report = engine.run(&Experiment::new(
        [Benchmark::Crc],
        [CacheGeometry::xscale_icache()],
        [Scheme::WayMemoization],
    ));

    assert_eq!(report.failures.len(), 1);
    let failure = &report.failures[0];
    assert!(
        matches!(&*failure.error, CoreError::Sim(SimError::Timeout { .. })),
        "unexpected error {:?}",
        failure.error
    );
    assert!(failure.error.is_transient());
    assert_eq!(failure.attempts, 2, "retried once, then gave up");
    assert_eq!(report.stats.retries, 1, "{:?}", report.stats);
    assert!(report.stats.timeouts >= 2, "{:?}", report.stats);
}

/// Store-backed resume: a partially-failed run publishes every
/// completed measure job to the campaign store before the suite node
/// gives up; resuming on a fresh engine against the same store replays
/// those jobs from disk (no re-execution, no rebuild of their
/// workbenches), runs only the failed job, and assembles a suite
/// byte-identical to an uninterrupted run.
#[test]
fn checkpoint_resume_replays_completed_jobs_from_disk() {
    let scratch = scratch_dir("replay");
    let experiment = experiment([Benchmark::Crc, Benchmark::Sha]);
    let jobs = experiment.job_count();
    let tags = InputTags::default();
    let store = Store::new(scratch.join("store"));
    let run = |engine: &Arc<Engine>, store: &Store| {
        let mut dag = Dag::new();
        let root = plan_suite(&mut dag, engine, &tags, "resume", experiment.clone(), None);
        let report = dag.run(store, &[root], 2, &NullMonitor);
        let suite = report.payload(root).map(<[u8]>::to_vec);
        (report, suite)
    };

    // First run: the last job (Sha / way-placement) fails, so the
    // suite node is skipped while the other three jobs publish.
    let broken = Arc::new(Engine::with_workers(2).with_fault(|benchmark, _geometry, scheme| {
        (benchmark == Benchmark::Sha && !matches!(scheme, Scheme::WayMemoization))
            .then_some(CoreError::ChecksumMismatch { benchmark, expected: 0xa, actual: 0xb })
    }));
    let (first, first_suite) = run(&broken, &store);
    assert_eq!(first.failed(), 1, "failures: {:?}", first.failures());
    assert_eq!(first.skipped(), 1, "the suite node waits on the failed job");
    assert!(first_suite.is_none());
    let geometry = experiment.geometries[0];
    let published = experiment
        .benchmarks
        .iter()
        .flat_map(|&b| experiment.schemes.iter().map(move |&s| (b, s)))
        .filter(|&(b, s)| {
            store.get(&keys::measure(b, geometry, s, experiment.input_set, &tags)).is_some()
        })
        .count();
    assert_eq!(published, jobs - 1, "one store entry per completed job");

    // Resume on a fresh engine with the fault gone: the three
    // completed jobs are store hits, only Sha/WP executes.
    let healthy = Arc::new(Engine::with_workers(2));
    let (second, second_suite) = run(&healthy, &store);
    assert!(second.ok(), "failures: {:?}", second.failures());
    assert_eq!(second.hits(), jobs - 1, "completed jobs replay from the store");
    let stats = healthy.stats();
    assert_eq!(stats.jobs_ok, 1, "only the failed job re-ran: {stats:?}");
    // Crc was never rebuilt: all its jobs came from the store.
    assert_eq!(stats.workbench_builds, 1, "{stats:?}");

    // The resumed suite is byte-identical to an uninterrupted run.
    let (reference, reference_suite) =
        run(&Arc::new(Engine::with_workers(2)), &Store::new(scratch.join("reference")));
    let _ = std::fs::remove_dir_all(&scratch);
    assert!(reference.ok(), "failures: {:?}", reference.failures());
    assert!(second_suite.is_some());
    assert_eq!(second_suite, reference_suite, "resumed suite must match a clean run exactly");
}

/// Torn-write recovery, for two seeds: the chaos drill kills a
/// campaign-store run of a four-job suite at a seeded job, tears one
/// entry the killed run published by a seeded number of bytes, and
/// resumes against the same store. The intact entries must serve as
/// hits (`jobs - 2` of them: the victim and the torn entry re-run) and
/// the resumed suite must match an uninterrupted run byte for byte.
/// Tolerance of corrupt entries in general is the store's own test
/// (`truncated_entry_is_a_miss_and_recomputes` in wp-campaign).
#[test]
fn torn_checkpoint_write_resumes_byte_identical() {
    for seed in [0xD1BB_u64, 0x50AC] {
        let scratch = scratch_dir(&format!("torn-{seed:x}"));
        let fragment = kill_resume_drill(seed, &scratch);
        let _ = std::fs::remove_dir_all(&scratch);
        let fragment = fragment.unwrap_or_else(|e| panic!("seed {seed:#x}: {e}"));
        let field = |name| fragment.get(name).and_then(Json::as_u64);
        let jobs = field("jobs").expect("jobs");
        assert_eq!(field("store_hits"), Some(jobs - 2), "{}", fragment.to_compact());
        assert_eq!(
            fragment.get("byte_identical").and_then(Json::as_bool),
            Some(true),
            "{}",
            fragment.to_compact()
        );
        assert!(field("torn_bytes").is_some_and(|n| n > 0), "{}", fragment.to_compact());
    }
}
