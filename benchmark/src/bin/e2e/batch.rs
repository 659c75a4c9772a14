//! The batch workloads: `parse_steady`, `parse_hdfs_masked`, `jobs_hdfs`.
//! Each spawns one `logmine` command per run and judges the structured
//! output it leaves.

use std::io;
use std::path::PathBuf;

use logmine_benchmark::json::Json;
use logmine_benchmark::trace::Tracer;
use logmine_benchmark::{check, gen, stats};

use crate::harness::{
    dir_bytes, fresh_dir, run_layers, Ctx, Metrics, Outcome, Workload, CHILD_TIMEOUT,
};
use crate::proc::{self, Finished};

enum Kind {
    /// `logmine parse --parser P [--preprocess R] -j 1`.
    Parse {
        parser: &'static str,
        preprocess: Option<&'static str>,
    },
    /// `logmine jobs run --parser drain -j 4 --workers 2 --backoff-ms 5`,
    /// checked byte for byte against `logmine parse --parser drain -j 4`.
    Jobs,
}

pub struct Batch {
    name: &'static str,
    corpus: &'static str,
    /// Input lines at full scale.
    lines: usize,
    kind: Kind,
    /// The `layers` probes whose layers this workload exercises.
    probes: &'static str,
    state: Option<State>,
}

struct State {
    dir: PathBuf,
    truth: Vec<u32>,
    /// Bytes of the reference events and structured files (`Jobs` only).
    reference: Option<(Vec<u8>, Vec<u8>)>,
}

pub fn parse_steady() -> Batch {
    Batch {
        name: "parse_steady",
        corpus: "steady",
        lines: 2_000_000,
        kind: Kind::Parse {
            parser: "drain",
            preprocess: None,
        },
        probes: "scan,build,build_j2,drain,slct,spell,logsig,lke,parallel,io",
        state: None,
    }
}

pub fn parse_hdfs_masked() -> Batch {
    Batch {
        name: "parse_hdfs_masked",
        corpus: "hdfs",
        lines: 300_000,
        kind: Kind::Parse {
            parser: "iplom",
            preprocess: Some("ip,blk,num"),
        },
        probes: "scan,build,build_j2,preprocess,iplom,mining",
        state: None,
    }
}

pub fn jobs_hdfs() -> Batch {
    Batch {
        name: "jobs_hdfs",
        corpus: "hdfs",
        lines: 200_000,
        kind: Kind::Jobs,
        probes: "build,drain,parallel",
        state: None,
    }
}

impl Batch {
    fn state(&self) -> io::Result<&State> {
        self.state
            .as_ref()
            .ok_or_else(|| io::Error::other("run before setup"))
    }

    /// Spawns the workload's command and waits for it, measured spawn → exit.
    fn invoke(&self, ctx: &Ctx, tracer: &mut Tracer) -> io::Result<Finished> {
        self.invoke_as(ctx, tracer, "cli", true)
    }

    /// [`Batch::invoke`] under another span name; `fresh_job` false keeps
    /// the job directory of the last `jobs run`, which makes this one a resume.
    fn invoke_as(
        &self,
        ctx: &Ctx,
        tracer: &mut Tracer,
        span: &str,
        fresh_job: bool,
    ) -> io::Result<Finished> {
        let dir = &self.state()?.dir;
        let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
        let (input, events, structured) = (
            path("input.log"),
            path("events.txt"),
            path("structured.txt"),
        );
        let mut args: Vec<&str> = Vec::new();
        let job_dir = path("job");
        match &self.kind {
            Kind::Parse { parser, preprocess } => {
                args.extend(["parse", "--parser", parser, "-j", "1"]);
                if let Some(rules) = preprocess {
                    args.extend(["--preprocess", rules]);
                }
            }
            Kind::Jobs => {
                // A finished job directory would make the run a no-op resume.
                if fresh_job {
                    fresh_dir(&dir.join("job"))?;
                }
                args.extend(["jobs", "run", "--job-dir", &job_dir, "--parser", "drain"]);
                args.extend(["-j", "4", "--workers", "2", "--backoff-ms", "5"]);
            }
        }
        args.extend([
            "--events-out",
            &events,
            "--structured-out",
            &structured,
            &input,
        ]);
        let mut command = ctx.logmine(dir, &args)?;
        let tree = matches!(self.kind, Kind::Jobs);
        tracer.span(span, |_| proc::run(&mut command, tree, CHILD_TIMEOUT))
    }

    /// `logmine parse --parser drain -j 4` on the input, into `prefix.*`.
    fn parse_j4(&self, ctx: &Ctx, tracer: &mut Tracer, prefix: &str) -> io::Result<Finished> {
        let dir = &self.state()?.dir;
        let path = |name: String| dir.join(name).to_string_lossy().into_owned();
        let (events, structured) = (
            path(format!("{prefix}.events.txt")),
            path(format!("{prefix}.structured.txt")),
        );
        let input = path("input.log".into());
        let mut command = ctx.logmine(
            dir,
            &[
                "parse",
                "--parser",
                "drain",
                "-j",
                "4",
                "--events-out",
                &events,
                "--structured-out",
                &structured,
                &input,
            ],
        )?;
        tracer.span("cli.parse_j4", |_| {
            proc::run(&mut command, false, CHILD_TIMEOUT)
        })
    }

    fn judge(&self, finished: &Finished) -> io::Result<Outcome> {
        let state = self.state()?;
        let structured = std::fs::read_to_string(state.dir.join("structured.txt")).ok();
        let matches_reference = state.reference.as_ref().map(|(events, reference)| {
            std::fs::read(state.dir.join("events.txt")).ok().as_ref() == Some(events)
                && structured.as_ref().map(String::as_bytes) == Some(reference.as_slice())
        });
        let verdict = check::judge_batch(
            &state.truth,
            finished.ok,
            structured.as_deref(),
            matches_reference,
        );
        Ok(Outcome {
            lines: state.truth.len() as u64,
            wall_s: finished.wall_s,
            cpu_s: finished.cpu_s,
            peak_rss_mb: finished.peak_rss_mb,
            attempted: state.truth.len() as u64,
            failed: verdict.failed as u64,
            grouping_accuracy: verdict.grouping_accuracy,
        })
    }
}

impl Workload for Batch {
    fn name(&self) -> &'static str {
        self.name
    }

    fn setup(&mut self, ctx: &Ctx, tracer: &mut Tracer) -> io::Result<()> {
        let dir = ctx.out.join(self.name);
        fresh_dir(&dir)?;
        let lines = ctx.scaled(self.lines);
        let corpus = tracer.span("generate", |_| {
            gen::by_name(self.corpus, lines, ctx.seed).expect("known corpus")
        });
        tracer.span("write", |_| {
            std::fs::write(dir.join("input.log"), &corpus.bytes)
        })?;
        self.state = Some(State {
            dir: dir.clone(),
            truth: corpus.truth,
            reference: None,
        });
        if matches!(self.kind, Kind::Jobs) {
            let reference = tracer.span("reference", |t| self.parse_j4(ctx, t, "reference"))?;
            if !reference.ok {
                return Err(io::Error::other("the reference `parse -j 4` run failed"));
            }
            let read = |name: &str| std::fs::read(dir.join(name));
            let bytes = (
                read("reference.events.txt")?,
                read("reference.structured.txt")?,
            );
            self.state.as_mut().expect("just set").reference = Some(bytes);
        }
        let warm = tracer.span("warmup", |t| self.invoke(ctx, t))?;
        if self.judge(&warm)?.failed > 0 {
            return Err(io::Error::other(format!(
                "{}: the warm-up run's output is wrong (see {})",
                self.name,
                dir.display()
            )));
        }
        Ok(())
    }

    fn run(&mut self, ctx: &Ctx, tracer: &mut Tracer, _probe: bool) -> io::Result<Outcome> {
        // Batch commands expose nothing while they run: a probed run is a
        // plain run, and `trace.overhead_pct` shows the noise floor.
        let finished = self.invoke(ctx, tracer)?;
        tracer.span("check", |_| self.judge(&finished))
    }

    fn layers(&mut self, ctx: &Ctx, tracer: &mut Tracer, into: &mut Metrics) -> io::Result<()> {
        let state = self.state()?;
        let dir = state.dir.clone();
        let parser = match &self.kind {
            Kind::Parse { parser, .. } => parser,
            Kind::Jobs => "drain",
        };
        run_layers(
            ctx,
            tracer,
            into,
            &[
                ("--corpus", self.corpus.into()),
                ("--lines", state.truth.len().to_string()),
                ("--seed", ctx.seed.to_string()),
                (
                    "--file",
                    dir.join("input.log").to_string_lossy().into_owned(),
                ),
                ("--scratch", dir.to_string_lossy().into_owned()),
                ("--parser", parser.to_string()),
                ("--probes", self.probes.into()),
            ],
        )?;
        if self.name == "parse_steady" {
            cli_floor(ctx, tracer, into, &dir)?;
        }
        if matches!(self.kind, Kind::Jobs) {
            self.jobs_layers(ctx, tracer, into)?;
        }
        Ok(())
    }
}

/// The floor under every workload: process start-up, and the build.
fn cli_floor(
    ctx: &Ctx,
    tracer: &mut Tracer,
    into: &mut Metrics,
    dir: &std::path::Path,
) -> io::Result<()> {
    const STARTS: usize = 20;
    let mut ms = Vec::new();
    tracer.span("cli.startup", |_| {
        for _ in 0..STARTS {
            let finished = proc::run(&mut ctx.logmine(dir, &["help"])?, false, CHILD_TIMEOUT)?;
            ms.push(finished.wall_s * 1e3);
        }
        io::Result::Ok(())
    })?;
    into.push_series("cli.startup_ms", stats::median(&ms), &ms);
    if let Some(build_s) = ctx.build_s {
        into.push("cli.build_s", build_s, 1);
    }
    Ok(())
}

impl Batch {
    /// What the jobs protocol costs over `parse -j 4`, from the job
    /// directory the last run left.
    fn jobs_layers(&self, ctx: &Ctx, tracer: &mut Tracer, into: &mut Metrics) -> io::Result<()> {
        let job_dir = self.state()?.dir.join("job");
        let journal = std::fs::read_to_string(job_dir.join("events.jsonl"))?;
        let stamp = |event: &Json| {
            Some((
                event.get("task")?.as_f64()? as u64,
                event.get("attempt")?.as_f64()? as u64,
                event.get("ts_mono_ns")?.as_f64()?,
            ))
        };
        let started: Vec<_> = check::events_of_kind(&journal, "agent_started")
            .iter()
            .filter_map(stamp)
            .collect();
        let completed: Vec<_> = check::events_of_kind(&journal, "task_completed")
            .iter()
            .filter_map(stamp)
            .collect();
        let walls: Vec<f64> = completed
            .iter()
            .filter_map(|(task, attempt, end)| {
                let (_, _, start) = started.iter().find(|(t, a, _)| t == task && a == attempt)?;
                Some((end - start) / 1e9)
            })
            .collect();
        into.push("jobs.worker.attempts", started.len() as f64, 1);
        let retries = check::events_of_kind(&journal, "job_finished")
            .last()
            .and_then(|e| e.get("retries")?.as_f64())
            .unwrap_or(0.0);
        into.push("jobs.worker.retries", retries, 1);
        into.push_series("jobs.worker.wall_s_p50", stats::median(&walls), &walls);
        into.push(
            "jobs.worker.wall_s_max",
            walls.iter().copied().fold(0.0, f64::max),
            walls.len(),
        );
        into.push("jobs.job_dir_bytes", dir_bytes(&job_dir) as f64, 1);

        // Re-running a finished job must find nothing to do.
        let noop = self.invoke_as(ctx, tracer, "cli.jobs_resume_noop", false)?;
        into.push("jobs.resume_noop_s", noop.wall_s, 1);

        let mut jobs_walls = Vec::new();
        let mut parse_walls = Vec::new();
        for _ in 0..2 {
            jobs_walls.push(self.invoke(ctx, tracer)?.wall_s);
            parse_walls.push(self.parse_j4(ctx, tracer, "ratio")?.wall_s);
        }
        into.push(
            "jobs.overhead_ratio",
            stats::fastest(&jobs_walls) / stats::fastest(&parse_walls).max(1e-9),
            2,
        );
        Ok(())
    }
}
