//! The one place that reads `WP_*` environment variables.
//!
//! Before this module the gates were scattered: `wp_trace` parsed
//! `$WP_TRACE` itself, `wp_bench` read `$WP_BENCH_DIR` in two files,
//! and the SoA equivalence harness checked `$WP_QUICK`. A typo like
//! `WP_TARCE=1` silently did nothing. Every accessor below funnels
//! through [`warn_unknown`], which scans the process environment once
//! and prints a single stderr warning per unrecognised `WP_*` name.
//!
//! Known variables:
//!
//! | variable        | accessor         | meaning |
//! |-----------------|------------------|---------|
//! | `WP_TRACE`      | [`trace_enabled`] | arm the wp-trace telemetry layer (span collector, fetch sinks) |
//! | `WP_OBS`        | [`obs_enabled`]   | arm the wp-obs metrics registry + event journal in the engine |
//! | `WP_BENCH_DIR`  | [`bench_dir`]     | directory for `BENCH_*.json` manifests (default: cwd) |
//! | `WP_QUICK`      | [`quick`]         | shrink long differential/soak sweeps to a quick subset |
//! | `WP_PRINT_GOLDEN` | [`print_golden`] | print refreshed golden vectors instead of asserting them |
//! | `WP_STORE_DIR`  | [`store_dir`]     | root of the wp-campaign content-addressed task store (unset: tool-specific fallback) |
//!
//! Flag semantics are uniform: a flag is *on* when the variable is set
//! to a non-empty value other than `"0"`. (`WP_TRACE=` and `WP_TRACE=0`
//! are both off.)

use std::path::PathBuf;
use std::sync::OnceLock;

/// Every variable this workspace understands. [`warn_unknown`] treats
/// any other `WP_*` name in the environment as a probable typo.
pub const KNOWN_VARS: [&str; 6] =
    ["WP_TRACE", "WP_OBS", "WP_BENCH_DIR", "WP_QUICK", "WP_PRINT_GOLDEN", "WP_STORE_DIR"];

fn flag(name: &str) -> bool {
    warn_unknown();
    std::env::var_os(name).is_some_and(|v| !v.is_empty() && v != *"0")
}

/// `$WP_TRACE`: arm the wp-trace telemetry layer.
#[must_use]
pub fn trace_enabled() -> bool {
    flag("WP_TRACE")
}

/// `$WP_OBS`: arm the wp-obs metrics registry and event journal for
/// engines constructed after this point.
#[must_use]
pub fn obs_enabled() -> bool {
    flag("WP_OBS")
}

/// `$WP_QUICK`: shrink long sweeps (differential equivalence, soaks)
/// to a quick subset.
#[must_use]
pub fn quick() -> bool {
    flag("WP_QUICK")
}

/// `$WP_PRINT_GOLDEN`: print refreshed golden vectors instead of
/// asserting against the committed ones.
#[must_use]
pub fn print_golden() -> bool {
    flag("WP_PRINT_GOLDEN")
}

/// `$WP_BENCH_DIR`: where `BENCH_*.json` manifests land. Defaults to
/// the current directory.
#[must_use]
pub fn bench_dir() -> PathBuf {
    warn_unknown();
    std::env::var_os("WP_BENCH_DIR").map_or_else(|| PathBuf::from("."), PathBuf::from)
}

/// `$WP_STORE_DIR`: the root of the wp-campaign content-addressed
/// task store. Unlike [`bench_dir`] there is no default here: each
/// store-aware tool decides what an unset variable means (the
/// campaign binary then requires `--store`, `gate` falls back to a
/// scratch store it removes afterwards).
#[must_use]
pub fn store_dir() -> Option<PathBuf> {
    warn_unknown();
    std::env::var_os("WP_STORE_DIR").filter(|v| !v.is_empty()).map(PathBuf::from)
}

/// Pure core of the typo check: which of `names` look like `WP_*`
/// variables this workspace does not understand? Split out so tests
/// can exercise it without mutating the process environment.
#[must_use]
pub fn unknown_in<I: IntoIterator<Item = String>>(names: I) -> Vec<String> {
    let mut bad: Vec<String> = names
        .into_iter()
        .filter(|n| n.starts_with("WP_") && !KNOWN_VARS.contains(&n.as_str()))
        .collect();
    bad.sort();
    bad.dedup();
    bad
}

/// Scan the process environment once and warn to stderr about any
/// `WP_*` variable the workspace does not understand. Called lazily by
/// every accessor, so the warning fires on first use, not at startup.
pub fn warn_unknown() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        for name in unknown_in(std::env::vars_os().filter_map(|(k, _)| k.into_string().ok())) {
            eprintln!(
                "warning: unknown environment variable {name} (known WP_* vars: {})",
                KNOWN_VARS.join(", ")
            );
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vars_are_not_flagged() {
        let names = KNOWN_VARS.iter().map(|s| (*s).to_string());
        assert!(unknown_in(names).is_empty());
    }

    #[test]
    fn typos_are_flagged_sorted_and_deduped() {
        let names = ["WP_TARCE", "PATH", "WP_QUICK", "WP_ZZZ", "WP_TARCE"]
            .map(String::from)
            .to_vec();
        assert_eq!(unknown_in(names), vec!["WP_TARCE".to_string(), "WP_ZZZ".to_string()]);
    }

    #[test]
    fn store_dir_is_known_and_optional() {
        assert!(KNOWN_VARS.contains(&"WP_STORE_DIR"), "campaign store root must not warn");
        // Mutating the process env would race other tests; assert the
        // unset default only when the harness did not set it.
        if std::env::var_os("WP_STORE_DIR").is_none() {
            assert_eq!(store_dir(), None);
        }
    }

    #[test]
    fn non_wp_vars_are_ignored() {
        let names = ["HOME", "CARGO_TARGET_DIR", "WPX_NOT_OURS"].map(String::from).to_vec();
        assert!(unknown_in(names).is_empty());
    }
}
