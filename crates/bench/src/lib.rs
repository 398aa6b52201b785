//! Shared helpers for the benchmark harness.
//!
//! The `bench_*` emitter binaries under `src/bin` share one [`percentile`],
//! one [`median`], one flag parser ([`usize_flag`]) and one report writer
//! ([`write_report`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Nearest-rank percentile (`pct` in 0–100, round-half-up — the rounding the
/// server's own latency window uses) over an ascending slice; 0 when empty.
pub fn percentile(sorted: &[u128], pct: usize) -> u128 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (pct * (sorted.len() - 1) + 50) / 100;
    sorted[rank.min(sorted.len() - 1)]
}

/// The median of `samples` (their 50th [`percentile`]); 0 when empty.
pub fn median(mut samples: Vec<u128>) -> u128 {
    samples.sort_unstable();
    percentile(&samples, 50)
}

/// Parses `<name> N` (e.g. `--max-nodes 500`) from the command line;
/// `default` when the flag is absent.
///
/// # Panics
///
/// If the flag is given without an integer value.
pub fn usize_flag(name: &str, default: usize) -> usize {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == name {
            return args
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} expects an integer"));
        }
    }
    default
}

/// Writes `json` to `file_name` at the repository root and returns the path.
///
/// # Panics
///
/// If the file cannot be written.
pub fn write_report(file_name: &str, json: &str) -> String {
    let path = format!("{}/../../{file_name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_round_half_up_nearest_rank() {
        let sorted: Vec<u128> = (1..=100).collect();
        // The same expectations as `sflow_server::stats`' own test.
        assert_eq!(percentile(&sorted, 50), 51);
        assert_eq!(percentile(&sorted, 90), 90);
        assert_eq!(percentile(&sorted, 99), 99);
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[42], 99), 42);
        assert_eq!(median(vec![9, 1, 5]), 5);
        assert_eq!(median(vec![4, 1, 3, 2]), 3);
        assert_eq!(median(Vec::new()), 0);
    }
}
