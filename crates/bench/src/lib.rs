//! Experiment runners for the `logmine` workspace.
//!
//! This crate carries no library code of its own; it hosts the
//! **table/figure binaries** (`src/bin/`) — `table1`, `table2`,
//! `table3`, `fig2`, `fig3`, `critical_events`, `preprocess_ablation`,
//! `mining_tasks` — each regenerating one artifact of the paper via
//! [`logparse_eval::experiments`] and printing a paper-style table.
//! Run with `cargo run -p logparse-bench --release --bin <name>`;
//! every binary accepts an optional `--quick` flag for a reduced-size
//! run. Throughput is measured by the repository benchmark
//! (`bash benchmark/run.sh`), not here.

#![forbid(unsafe_code)]

/// Returns `true` when `--quick` was passed on the command line; the
/// table/figure binaries use it to shrink their workloads for smoke runs.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Returns `true` when `--metrics` was passed on the command line; the
/// table/figure binaries then append the process-global metric registry
/// (Prometheus text format) to stderr via [`dump_metrics`] after their
/// run, exposing the `obs_span_duration_seconds{span="parser_parse"}`
/// histograms the experiments record through `LogParser::timed_parse`.
pub fn metrics_mode() -> bool {
    std::env::args().any(|a| a == "--metrics")
}

/// Returns the value of `--threads N` (or `-j N`) from the command
/// line; `default` when the flag is absent. The table/figure binaries
/// pass it to `LogParser::parse_parallel` for chunked-parallel runs.
///
/// # Panics
///
/// Panics with a usage message when the flag is present but its value is
/// missing or not a positive integer.
pub fn threads_arg(default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    let Some(i) = args.iter().position(|a| a == "--threads" || a == "-j") else {
        return default;
    };
    args.get(i + 1)
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| panic!("{} needs a positive integer value", args[i]))
}

/// Prints the process-global metric registry to stderr when
/// [`metrics_mode`] is on; a no-op otherwise. Stderr keeps the tables on
/// stdout clean for redirection.
pub fn dump_metrics() {
    if metrics_mode() {
        eprintln!("--- metrics ---");
        eprint!("{}", logparse_obs::global().render());
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_mode_is_callable() {
        // In the test harness there is no --quick flag.
        assert!(!super::quick_mode());
    }

    #[test]
    fn dump_metrics_without_flag_is_a_no_op() {
        assert!(!super::metrics_mode());
        super::dump_metrics();
    }

    #[test]
    fn threads_arg_defaults_when_flag_is_absent() {
        // The test harness passes no --threads flag.
        assert_eq!(super::threads_arg(1), 1);
        assert_eq!(super::threads_arg(4), 4);
    }
}
