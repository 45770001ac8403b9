//! Environment knobs shared by the harness subcommands.
//!
//! A knob is read trimmed. A value that does not parse is ignored and the
//! default applies, so a typo never aborts a run. The report directory
//! ([`bench_dir`]) is a path and is taken as given.

use std::path::PathBuf;
use std::str::FromStr;

/// `name` parsed as `T`, or `None` when unset or malformed.
pub fn env_parse<T: FromStr>(name: &str) -> Option<T> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// A positive integer knob: unset, malformed and zero all mean `default`.
pub fn env_u64(name: &str, default: u64) -> u64 {
    env_parse(name).filter(|&n| n > 0).unwrap_or(default)
}

/// A comma-separated list of positive integers, sorted and deduplicated;
/// `default()` when unset. Malformed and zero entries are dropped, and a
/// list left empty becomes `[1]`.
pub fn env_list(name: &str, default: impl FnOnce() -> Vec<usize>) -> Vec<usize> {
    let mut list = match std::env::var(name) {
        Ok(raw) => parse_list(&raw),
        Err(_) => default(),
    };
    if list.is_empty() {
        list.push(1);
    }
    list.sort_unstable();
    list.dedup();
    list
}

/// The report directory: `FBUF_BENCH_DIR`, or `target/bench-reports`
/// relative to the working directory.
pub fn bench_dir() -> PathBuf {
    std::env::var("FBUF_BENCH_DIR")
        .map_or_else(|_| PathBuf::from("target/bench-reports"), PathBuf::from)
}

/// Iterations per simulated scenario: `FBUF_BENCH_ITERS`, default 5.
pub fn bench_iters() -> usize {
    env_u64("FBUF_BENCH_ITERS", 5) as usize
}

/// The seed a report's `repro` header names: `FBUF_BENCH_SEED` (any
/// `u64`, zero included), or the workspace property-test seed.
pub fn bench_seed() -> u64 {
    env_parse("FBUF_BENCH_SEED").unwrap_or(fbuf_sim::check::DEFAULT_SEED)
}

fn parse_list(raw: &str) -> Vec<usize> {
    raw.split(',')
        .filter_map(|t| t.trim().parse().ok())
        .filter(|&n| n > 0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test owns its variable names: the test harness runs tests on
    // parallel threads that share one environment.

    #[test]
    fn positive_knob_falls_back_on_unset_malformed_and_zero() {
        assert_eq!(env_u64("KNOBS_TEST_UNSET", 7), 7);
        std::env::set_var("KNOBS_TEST_U64", " 12 ");
        assert_eq!(env_u64("KNOBS_TEST_U64", 7), 12);
        std::env::set_var("KNOBS_TEST_U64", "0");
        assert_eq!(env_u64("KNOBS_TEST_U64", 7), 7);
        std::env::set_var("KNOBS_TEST_U64", "0x10");
        assert_eq!(env_u64("KNOBS_TEST_U64", 7), 7, "decimal only");
        std::env::set_var("KNOBS_TEST_U64", "0");
        assert_eq!(env_parse::<u64>("KNOBS_TEST_U64"), Some(0), "raw parse keeps zero");
    }

    #[test]
    fn list_knob_is_sorted_deduplicated_and_never_empty() {
        assert_eq!(parse_list("4, 1,x,0,4,2"), vec![4, 1, 4, 2]);
        assert_eq!(env_list("KNOBS_TEST_LIST_UNSET", || vec![1, 4]), vec![1, 4]);
        std::env::set_var("KNOBS_TEST_LIST", "16,4,4,x,0");
        assert_eq!(env_list("KNOBS_TEST_LIST", Vec::new), vec![4, 16]);
        std::env::set_var("KNOBS_TEST_LIST", "0,junk");
        assert_eq!(env_list("KNOBS_TEST_LIST", Vec::new), vec![1]);
    }

    // The three report knobs read fixed names, so one test owns them all.
    #[test]
    fn report_knobs_keep_their_defaults_and_parsing() {
        std::env::remove_var("FBUF_BENCH_DIR");
        assert_eq!(bench_dir(), PathBuf::from("target/bench-reports"));
        std::env::set_var("FBUF_BENCH_DIR", "out dir");
        assert_eq!(bench_dir(), PathBuf::from("out dir"), "not trimmed");
        for (raw, iters) in [("3", 3), (" 7 ", 7), ("0", 5), ("x", 5)] {
            std::env::set_var("FBUF_BENCH_ITERS", raw);
            assert_eq!(bench_iters(), iters, "FBUF_BENCH_ITERS={raw:?}");
        }
        let default = fbuf_sim::check::DEFAULT_SEED;
        for (raw, seed) in [("0", 0), ("42", 42), ("0x2a", default)] {
            std::env::set_var("FBUF_BENCH_SEED", raw);
            assert_eq!(bench_seed(), seed, "FBUF_BENCH_SEED={raw:?}");
        }
        for name in ["FBUF_BENCH_DIR", "FBUF_BENCH_ITERS", "FBUF_BENCH_SEED"] {
            std::env::remove_var(name);
        }
    }
}
