//! What every workload shares: the run context, metric collection, the
//! end-to-end pass and the traced pass.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use logmine_benchmark::stats;
use logmine_benchmark::trace::Tracer;

use crate::calm::Gate;
use crate::proc;

/// No child may run longer than this; one that does fails all its operations.
pub const CHILD_TIMEOUT: Duration = Duration::from_secs(60);

/// Set-ups per end-to-end pass; `setup_s` is their median.
const SETUPS: usize = 3;

/// Timed runs an end-to-end pass makes at least, however short `--seconds`
/// is; also how many calm runs it wants before it stops (see `calm`).
const MIN_RUNS: usize = 3;

/// A pass short of calm runs lasts at most this multiple of `--seconds`.
const MAX_STRETCH: f64 = 2.0;

pub struct Ctx {
    /// Directory every temporary file lives under (`benchmark/out`).
    pub out: PathBuf,
    pub logmine: PathBuf,
    pub layers: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    /// Line counts ÷ 10 and one-second passes: a smoke run.
    pub quick: bool,
    /// Seconds the wrapper script spent in `cargo build`, if it ran it.
    pub build_s: Option<f64>,
}

impl Ctx {
    pub fn scaled(&self, lines: usize) -> usize {
        if self.quick {
            lines / 10
        } else {
            lines
        }
    }

    /// A `logmine` invocation whose output goes to files under `dir`.
    pub fn logmine(&self, dir: &Path, args: &[&str]) -> io::Result<Command> {
        let mut command = Command::new(&self.logmine);
        command
            .args(args)
            .stdin(Stdio::null())
            .stdout(std::fs::File::create(dir.join("stdout.txt"))?)
            .stderr(std::fs::File::create(dir.join("stderr.txt"))?);
        Ok(command)
    }
}

/// One measured value: `samples` is how many measurements it summarises,
/// `spread` their quartile spread (share of the median) where there are
/// enough of them.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub samples: usize,
    pub spread: Option<f64>,
}

#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, samples: usize) {
        self.0.push(Metric {
            name: name.to_owned(),
            value,
            samples,
            spread: None,
        });
    }

    /// A metric summarising `series` (one entry per run) as `value`.
    pub fn push_series(&mut self, name: &str, value: f64, series: &[f64]) {
        self.0.push(Metric {
            name: name.to_owned(),
            value,
            samples: series.len(),
            spread: stats::quartile_spread(series),
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// What one timed run of a workload produced.
pub struct Outcome {
    /// Input lines the run processed.
    pub lines: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    /// Operations attempted and failed (lines, plus windows for `serve`).
    pub attempted: u64,
    pub failed: u64,
    pub grouping_accuracy: f64,
}

pub trait Workload {
    fn name(&self) -> &'static str;

    /// Generates the corpus from the seed, writes the input files, takes
    /// reference outputs and makes one untimed warm-up run. May be called
    /// again; each call starts over.
    fn setup(&mut self, ctx: &Ctx, tracer: &mut Tracer) -> io::Result<()>;

    /// One timed run. With `probe` the run also collects what the
    /// program exposes while it runs (`--metrics-addr`); without, nothing
    /// but the program and the load runs.
    fn run(&mut self, ctx: &Ctx, tracer: &mut Tracer, probe: bool) -> io::Result<Outcome>;

    /// The per-layer metrics of this workload, after at least one probed run.
    fn layers(&mut self, ctx: &Ctx, tracer: &mut Tracer, into: &mut Metrics) -> io::Result<()>;
}

/// Totals a pass hands back beside its metrics.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    fn add(&mut self, outcome: &Outcome) {
        self.attempted += outcome.attempted;
        self.failed += outcome.failed;
    }
}

/// Lines per second of the fastest run.
fn best_lines_per_s(outcomes: &[Outcome]) -> f64 {
    outcomes
        .iter()
        .map(|o| o.lines as f64 / o.wall_s.max(1e-9))
        .fold(0.0, f64::max)
}

/// Pushes a timing metric taken from the fastest of `times` (see `calm`
/// for why not the median). Its spread is how far the lower quartile lies
/// above the fastest: small when the pass reproduced its best run.
fn push_fastest(metrics: &mut Metrics, name: &str, times: &[f64], value_of: impl Fn(f64) -> f64) {
    let fastest = stats::fastest(times);
    let spread = stats::quartiles(times).map(|(q1, _)| (q1 - fastest) / fastest.max(1e-12));
    metrics.0.push(Metric {
        name: name.to_owned(),
        value: value_of(fastest),
        samples: times.len(),
        spread,
    });
}

/// The end-to-end pass: several set-ups, then timed runs for
/// `ctx.seconds`, with no scraping and no probes.
pub fn end_to_end(
    workload: &mut dyn Workload,
    ctx: &Ctx,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> io::Result<Metrics> {
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        let started = Instant::now();
        tracer.span("setup", |t| workload.setup(ctx, t))?;
        setups.push(started.elapsed().as_secs_f64());
    }

    let mut gate = Gate::open(&ctx.out);
    let mut outcomes: Vec<(Outcome, bool)> = Vec::new();
    let started = Instant::now();
    // A pass that has seen too little of the machine's fast state keeps
    // going (waiting for it, then measuring) up to this cap.
    let cap = started + Duration::from_secs_f64(MAX_STRETCH * ctx.seconds);
    loop {
        let calm = outcomes.iter().filter(|(_, calm)| *calm).count();
        let long_enough =
            outcomes.len() >= MIN_RUNS && started.elapsed().as_secs_f64() >= ctx.seconds;
        if long_enough && (calm >= MIN_RUNS || Instant::now() >= cap) {
            break;
        }
        gate.wait_for_calm(cap);
        tracer.set_run(outcomes.len() as u32 + 1);
        let measured = gate.around(|| tracer.span("run", |t| workload.run(ctx, t, false)))?;
        tally.add(&measured.0);
        outcomes.push(measured);
    }
    tracer.set_run(0);
    let calm = outcomes.iter().filter(|(_, calm)| *calm).count();
    eprintln!(
        "{}: {calm} of {} runs calm ({})",
        workload.name(),
        outcomes.len(),
        gate.describe()
    );

    let lines = outcomes[0].0.lines as f64;
    // Times come from calm runs that passed their checks (a failed run may
    // have stopped early); without any, from whatever there is.
    let usable = |need_calm: bool| -> Vec<&Outcome> {
        outcomes
            .iter()
            .filter(|(o, calm)| o.failed == 0 && (*calm || !need_calm))
            .map(|(o, _)| o)
            .collect()
    };
    let timed = match (usable(true), usable(false)) {
        (calm, _) if !calm.is_empty() => calm,
        (_, good) if !good.is_empty() => good,
        _ => outcomes.iter().map(|(o, _)| o).collect(),
    };
    let outcomes: Vec<&Outcome> = outcomes.iter().map(|(o, _)| o).collect();
    let series = |f: fn(&Outcome) -> f64| timed.iter().map(|o| f(o)).collect::<Vec<f64>>();
    let mut metrics = Metrics::default();
    push_fastest(&mut metrics, "lines_per_s", &series(|o| o.wall_s), |wall| {
        lines / wall.max(1e-9)
    });
    push_fastest(
        &mut metrics,
        "cpu_s_per_mline",
        &series(|o| o.cpu_s),
        |cpu| cpu * 1e6 / lines,
    );
    // Memory does not depend on how fast the machine runs: the median.
    let rss: Vec<f64> = outcomes.iter().map(|o| o.peak_rss_mb).collect();
    metrics.push_series("peak_rss_mb", stats::median(&rss), &rss);
    push_fastest(&mut metrics, "setup_s", &setups, |s| s);
    let (attempted, failed): (u64, u64) = outcomes
        .iter()
        .fold((0, 0), |(a, f), o| (a + o.attempted, f + o.failed));
    let failed_ratio = failed as f64 / attempted.max(1) as f64;
    metrics.push("failed_ratio", failed_ratio, outcomes.len());
    metrics.push("passed_ratio", 1.0 - failed_ratio, outcomes.len());
    // Deterministic for a seed, so any run that disagrees is the news.
    let accuracy: Vec<f64> = outcomes.iter().map(|o| o.grouping_accuracy).collect();
    let worst = accuracy.iter().copied().fold(f64::INFINITY, f64::min);
    metrics.push_series("grouping_accuracy", worst, &accuracy);
    Ok(metrics)
}

/// The traced pass: one set-up, then plain and probed runs in turn (their
/// difference is the tracing overhead), then the workload's layer metrics.
pub fn traced(
    workload: &mut dyn Workload,
    ctx: &Ctx,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> io::Result<Metrics> {
    tracer.span("setup", |t| workload.setup(ctx, t))?;
    let (mut plain, mut probed) = (Vec::new(), Vec::new());
    for pair in 0..2 {
        tracer.set_run(pair * 2 + 1);
        plain.push(tracer.span("run", |t| workload.run(ctx, t, false))?);
        tracer.set_run(pair * 2 + 2);
        probed.push(tracer.span("run.probed", |t| workload.run(ctx, t, true))?);
    }
    tracer.set_run(0);
    for outcome in plain.iter().chain(&probed) {
        tally.add(outcome);
    }
    let mut metrics = Metrics::default();
    let (base, with) = (best_lines_per_s(&plain), best_lines_per_s(&probed));
    metrics.push(
        "trace.overhead_pct",
        (base / with.max(1e-9) - 1.0) * 100.0,
        4,
    );
    tracer.span("layers", |t| workload.layers(ctx, t, &mut metrics))?;
    Ok(metrics)
}

/// Runs the `layers` binary and folds its metrics and spans in.
pub fn run_layers(
    ctx: &Ctx,
    tracer: &mut Tracer,
    into: &mut Metrics,
    args: &[(&str, String)],
) -> io::Result<()> {
    let printed = ctx.out.join("layers.stdout.txt");
    let mut command = Command::new(&ctx.layers);
    for (flag, value) in args {
        command.arg(flag).arg(value);
    }
    command
        .arg("--reps")
        .arg(if ctx.quick { "1" } else { "3" })
        .stdin(Stdio::null())
        .stdout(std::fs::File::create(&printed)?)
        .stderr(Stdio::inherit());
    tracer.span("layers.process", |tracer| {
        let offset = tracer.now_ns();
        if !proc::run(&mut command, false, 2 * CHILD_TIMEOUT)?.ok {
            return Err(io::Error::other("the layers binary failed or timed out"));
        }
        for line in std::fs::read_to_string(&printed)?.lines() {
            let fields: Vec<&str> = line.split(' ').collect();
            match fields.as_slice() {
                ["metric", name, value, samples] => into.push(
                    name,
                    value.parse().map_err(io::Error::other)?,
                    samples.parse().map_err(io::Error::other)?,
                ),
                ["span", name, start, end] => tracer.record(
                    name,
                    offset + start.parse::<u64>().map_err(io::Error::other)?,
                    offset + end.parse::<u64>().map_err(io::Error::other)?,
                ),
                _ => return Err(io::Error::other(format!("layers printed `{line}`"))),
            }
        }
        Ok(())
    })
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Empties and recreates `dir`.
pub fn fresh_dir(dir: &Path) -> io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)
}
