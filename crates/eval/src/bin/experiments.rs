//! The one experiment binary: prints the stdout of any row of
//! [`logparse_eval::experiments::ALL`]. `run_experiments.sh` redirects it
//! into `results/`; `tests/paper_pins.rs` holds the same reports to those
//! files.

use std::process::ExitCode;

use logparse_eval::experiments::{Experiment, RunOptions, ALL};

const USAGE: &str = "usage: experiments list | <name>... [--quick] [--metrics] [--threads N|-j N]";

struct Invocation {
    experiments: Vec<&'static Experiment>,
    options: RunOptions,
    /// Append the process-global metric registry (Prometheus text, with
    /// the `parser_parse` span histograms the experiments record) to
    /// stderr, keeping the tables on stdout clean for redirection.
    metrics: bool,
}

fn parse(args: &[&str]) -> Result<Invocation, String> {
    let mut inv = Invocation {
        experiments: Vec::new(),
        options: RunOptions {
            quick: false,
            threads: 1,
        },
        metrics: false,
    };
    let mut iter = args.iter().copied();
    while let Some(arg) = iter.next() {
        match arg {
            "--quick" => inv.options.quick = true,
            "--metrics" => inv.metrics = true,
            "--threads" | "-j" => {
                let threads = iter.next().and_then(|v| v.parse().ok());
                inv.options.threads = threads
                    .filter(|&n| n > 0)
                    .ok_or(format!("{arg} needs a positive integer value"))?;
            }
            _ if arg.starts_with('-') => return Err(format!("unknown option {arg}")),
            _ => inv.experiments.push(
                ALL.iter()
                    .find(|e| e.name == arg)
                    .ok_or(format!("unknown experiment `{arg}`"))?,
            ),
        }
    }
    if inv.experiments.is_empty() {
        return Err("no experiment named".to_string());
    }
    Ok(inv)
}

fn list() -> String {
    ALL.iter().map(|e| format!("{}\n", e.name)).collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    if args == ["list"] {
        print!("{}", list());
        return ExitCode::SUCCESS;
    }
    let inv = match parse(&args) {
        Ok(inv) => inv,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for experiment in inv.experiments {
        let scale = if inv.options.quick { "quick" } else { "paper" };
        eprintln!("running {} at {scale} scale…", experiment.name);
        print!("{}", (experiment.report)(&inv.options));
    }
    if inv.metrics {
        eprintln!("--- metrics ---");
        eprint!("{}", logparse_obs::global().render());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_prints_the_twelve_names_in_table_order() {
        assert_eq!(
            list(),
            "table1\ntable2\nfig2\nfig3\ntable3\ncritical_events\npreprocess_ablation\n\
             mining_tasks\nextensions\nseed_sensitivity\ninvariant_compare\nspeedup\n"
        );
    }

    #[test]
    fn names_and_the_three_flags_are_accepted() {
        let inv = parse(&["fig2", "table1", "--quick", "--metrics", "-j", "4"]).expect("valid");
        let names: Vec<_> = inv.experiments.iter().map(|e| e.name).collect();
        assert_eq!(names, ["fig2", "table1"]);
        assert!(inv.options.quick && inv.metrics);
        assert_eq!(inv.options.threads, 4);
        let plain = parse(&["fig2", "--threads", "2"]).expect("valid").options;
        assert_eq!((plain.quick, plain.threads), (false, 2));
    }

    #[test]
    fn unknown_experiment_is_rejected() {
        // `list` is a command only on its own, never an experiment.
        for args in [&["table4"][..], &["table1", "list"], &[]] {
            assert!(parse(args).is_err(), "{args:?}");
        }
    }

    #[test]
    fn unknown_option_is_rejected() {
        // As a no-op, `--quik` would run Table III at paper scale.
        let err = parse(&["table3", "--quik"]).err();
        assert_eq!(err.as_deref(), Some("unknown option --quik"));
    }

    #[test]
    fn threads_needs_a_positive_integer() {
        for args in [
            &["fig2", "--threads"][..],
            &["fig2", "--threads", "0"],
            &["fig2", "-j", "many"],
            &["fig2", "-j", "--quick"],
        ] {
            let err = parse(args).err().expect("rejected");
            assert!(err.contains("positive integer"), "{err}");
        }
    }
}
