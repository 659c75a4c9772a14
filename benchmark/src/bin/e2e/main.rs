//! End-to-end benchmark driver for `logmine`.
//!
//! Pure `std`: it only spawns the release `logmine` binary and speaks
//! files, TCP lines and JSONL with it. It imports no `logparse_*` crate.
//!
//! ```text
//! e2e run --workload NAME|all --seed N [--seconds S] [--trace 0|1 | --traced]
//!         [--quick] [--root DIR] [--logmine PATH]
//! e2e compare A.json B.json [--root DIR]
//! ```
//!
//! `run` prints every metric as a `workload/name unit value` line, writes
//! `benchmark/out/result-<seed>.json`, and — for a single workload — ends
//! with one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod batch;
mod calm;
mod compare;
mod harness;
mod proc;
mod report;
mod spec;
mod stream;

use std::io;
use std::path::PathBuf;
use std::process::ExitCode;

use logmine_benchmark::trace::Tracer;

use harness::{Ctx, Metrics, Tally, Workload};
use report::WorkloadResult;
use spec::Spec;

fn workload_by_name(name: &str) -> Option<Box<dyn Workload>> {
    Some(match name {
        "parse_steady" => Box::new(batch::parse_steady()),
        "parse_hdfs_masked" => Box::new(batch::parse_hdfs_masked()),
        "serve_tcp_steady" => Box::new(stream::serve_tcp_steady()),
        "serve_file_churn" => Box::new(stream::serve_file_churn()),
        "jobs_hdfs" => Box::new(batch::jobs_hdfs()),
        _ => return None,
    })
}

/// Which passes a `run` makes.
#[derive(Clone, Copy, PartialEq)]
enum Passes {
    /// `--trace 0`, or neither flag: end-to-end metrics only.
    EndToEnd,
    /// `--trace 1`: the traced pass only.
    Traced,
    /// `--traced`: both.
    Both,
}

struct Flags {
    positional: Vec<String>,
    options: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Flags, String> {
        const SWITCHES: [&str; 2] = ["--quick", "--traced"];
        let mut flags = Flags {
            positional: Vec::new(),
            options: Vec::new(),
            switches: Vec::new(),
        };
        while let Some(arg) = args.next() {
            if SWITCHES.contains(&arg.as_str()) {
                flags.switches.push(arg);
            } else if arg.starts_with("--") {
                let value = args.next().ok_or_else(|| format!("{arg} needs a value"))?;
                flags.options.push((arg, value));
            } else {
                flags.positional.push(arg);
            }
        }
        Ok(flags)
    }

    fn option(&self, name: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(flag, _)| flag == name)
            .map(|(_, value)| value.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.option(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("invalid value `{v}` for {name}"))
            })
            .transpose()
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }
}

fn run(flags: &Flags) -> Result<ExitCode, String> {
    let root = PathBuf::from(flags.option("--root").unwrap_or("."));
    let spec = Spec::load(&root.join("BENCHMARK.json")).map_err(|e| e.to_string())?;
    let quick = flags.has("--quick");
    let seed: u64 = flags.parsed("--seed")?.ok_or("run needs --seed N")?;
    let seconds = match flags.parsed("--seconds")? {
        Some(seconds) => seconds,
        None if quick => 1.0,
        None => spec.run_seconds,
    };
    let passes = match (flags.has("--traced"), flags.parsed::<u8>("--trace")?) {
        (true, _) => Passes::Both,
        (false, Some(1)) => Passes::Traced,
        (false, Some(0) | None) => Passes::EndToEnd,
        (false, Some(other)) => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let chosen = flags.option("--workload").unwrap_or("all");
    let names: Vec<String> = if chosen == "all" {
        spec.workloads.clone()
    } else {
        vec![chosen.to_owned()]
    };

    let target = std::env::var_os("CARGO_TARGET_DIR").map(PathBuf::from);
    // `layers` is built beside this binary.
    let layers = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.join("layers")))
        .unwrap_or_else(|| PathBuf::from("layers"));
    let absolute = |path: PathBuf| std::path::absolute(&path).unwrap_or(path);
    let ctx = Ctx {
        out: absolute(root.join("benchmark").join("out")),
        logmine: absolute(flags.option("--logmine").map_or_else(
            || {
                target
                    .unwrap_or_else(|| root.join("target"))
                    .join("release")
                    .join("logmine")
            },
            PathBuf::from,
        )),
        layers: absolute(layers),
        seed,
        seconds,
        quick,
        build_s: std::env::var("BENCH_BUILD_S")
            .ok()
            .and_then(|s| s.parse().ok()),
    };
    if !ctx.logmine.is_file() {
        return Err(format!(
            "{} is missing: build it with `cargo build --release -p logparse-cli` (benchmark/run.sh does)",
            ctx.logmine.display()
        ));
    }
    std::fs::create_dir_all(&ctx.out).map_err(|e| e.to_string())?;

    let mut results = Vec::new();
    for name in &names {
        let mut workload = workload_by_name(name).ok_or_else(|| {
            format!(
                "unknown workload `{name}` (BENCHMARK.json lists: {})",
                spec.workloads.join(", ")
            )
        })?;
        let result =
            run_workload(workload.as_mut(), &ctx, passes).map_err(|e| format!("{name}: {e}"))?;
        report::print_lines(&spec, &result)?;
        results.push(result);
    }

    let path = ctx.out.join(format!("result-{seed}.json"));
    let document = report::document(&spec, &root, &ctx, &results)?;
    std::fs::write(&path, document.pretty()).map_err(|e| e.to_string())?;
    let failed: u64 = results.iter().map(|r| r.tally.failed).sum();
    match results.as_slice() {
        [single] => println!(
            "{}",
            report::driver_line(&spec, single, passes == Passes::Traced)
        ),
        _ => println!("result written to {}", path.display()),
    }
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_workload(
    workload: &mut dyn Workload,
    ctx: &Ctx,
    passes: Passes,
) -> io::Result<WorkloadResult> {
    let mut tracer = Tracer::new(workload.name());
    let mut tally = Tally::default();
    let e2e = if passes == Passes::Traced {
        Metrics::default()
    } else {
        tracer.span("end-to-end", |t| {
            harness::end_to_end(workload, ctx, t, &mut tally)
        })?
    };
    let layers = if passes == Passes::EndToEnd {
        Metrics::default()
    } else {
        let layers = tracer.span("traced", |t| harness::traced(workload, ctx, t, &mut tally))?;
        let path = ctx.out.join(format!("{}.trace.json", workload.name()));
        std::fs::write(&path, tracer.to_json().pretty())?;
        eprintln!(
            "{}: self time by span (s), full trace in {}",
            workload.name(),
            path.display()
        );
        for (span, seconds) in tracer.self_time_by_name() {
            eprintln!("  {span:<28} {seconds:.3}");
        }
        layers
    };
    Ok(WorkloadResult {
        name: workload.name().to_owned(),
        e2e,
        layers,
        tally,
    })
}

fn main() -> ExitCode {
    let flags = match Flags::parse(std::env::args().skip(1)) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match flags.positional.first().map(String::as_str) {
        Some("run") => run(&flags),
        Some("compare") => compare::compare(&flags),
        _ => Err("usage: e2e run|compare … (see benchmark/README.md)".into()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("e2e: {e}");
        ExitCode::from(2)
    })
}
