//! Host-side measurements (process CPU time, peak resident memory) and
//! the small statistics the metrics need.

use std::fs;

/// CPU time (user + system) of the whole process so far, every thread
/// included, living or exited, at nanosecond resolution.
///
/// `/proc/self/stat` counts in 10 ms ticks, too coarse for the fastest
/// of several 2 s passes: runs would often read the same figure.
///
/// # Panics
///
/// When the process CPU clock cannot be read: the benchmark runs on
/// Linux only.
#[must_use]
pub fn cpu_seconds() -> f64 {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    }
    /// `CLOCK_PROCESS_CPUTIME_ID` in Linux's `time.h`.
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut time = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `time` is a valid, writable `struct timespec`, and the
    // call writes nothing else.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    time.tv_sec as f64 + time.tv_nsec as f64 * 1e-9
}

/// Makes every thread allocate from glibc's one main arena.
///
/// glibc gives a new thread an arena of its own when it can, and the
/// engine starts fresh worker threads for every call. Which arena a
/// pass's allocations land in, and so whether the memory a set-up freed
/// is reused, then varies from run to run: peak RSS read 27.6 or
/// 42.6 MiB on `sweep` and 33 or 50 MiB on `layouts`. With one arena it
/// repeats to within 1%. Call it before starting any thread.
pub fn single_arena() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        /// `M_ARENA_MAX` in glibc's `malloc.h`.
        const M_ARENA_MAX: i32 = -8;
        // SAFETY: `mallopt` only sets an allocator parameter, and no
        // other thread is running yet.
        unsafe {
            mallopt(M_ARENA_MAX, 1);
        }
    }
}

/// Peak resident set size of the process, in MiB.
///
/// # Panics
///
/// When `/proc/self/status` has no `VmHWM` line.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).expect("VmHWM line");
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("numeric VmHWM");
    kib / 1024.0
}

/// The median of `values` (mean of the middle two for even lengths).
///
/// # Panics
///
/// On an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The geometric mean of positive `values`.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// SplitMix64 finaliser: derives independent 64-bit seeds from the
/// workload seed and a stream index.
#[must_use]
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn proc_readers_return_positive_values() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
