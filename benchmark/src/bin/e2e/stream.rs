//! The streaming workloads: `serve_tcp_steady` (TCP source, closed-loop
//! drain and open-loop freshness) and `serve_file_churn` (file source,
//! checkpoint store written and read back across `--resume`).

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use logmine_benchmark::check::{self, ServeVerdict};
use logmine_benchmark::trace::Tracer;
use logmine_benchmark::{gen, stats};

use crate::harness::{
    dir_bytes, fresh_dir, run_layers, Ctx, Metrics, Outcome, Workload, CHILD_TIMEOUT,
};
use crate::proc::{self, Finished, Running};

const SHARDS: usize = 2;
const WINDOW: u64 = 1_000;
/// TCP connections, fed round-robin by one sender thread.
const CONNECTIONS: usize = 2;
/// Lines per send: the unit the open loop schedules.
const TICK_LINES: usize = 100;
/// Open-loop rate: well under what the closed loop drains.
const OPEN_LOOP_LINES_PER_S: f64 = 60_000.0;
/// How often a probed run scrapes `--metrics-addr`. Short, because the
/// last scrape before the program exits stands in for its final busy
/// times and stall counts. (Counts that the `shutdown_complete` event also
/// carries are taken from there, exactly.)
const SCRAPE_EVERY: Duration = Duration::from_millis(10);
/// How often the tailer looks for new events.
const TAIL_EVERY: Duration = Duration::from_micros(500);

// ---------------------------------------------------------------------------
// Talking to a running `serve`.

/// Waits for a line of the child's stderr (redirected to `path`) that
/// starts with `prefix` and returns the rest of it.
fn await_line(running: &mut Running, path: &Path, prefix: &str) -> io::Result<String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let text = std::fs::read_to_string(path).unwrap_or_default();
        // Only complete lines: the address may still be half written.
        if let Some(rest) = text
            .split_inclusive('\n')
            .filter(|l| l.ends_with('\n'))
            .find_map(|l| l.strip_prefix(prefix))
        {
            return Ok(rest.trim().to_owned());
        }
        if running.poll()?.is_some() {
            return Err(io::Error::other(format!(
                "serve exited before printing `{prefix}`: {text}"
            )));
        }
        if Instant::now() >= deadline {
            return Err(io::Error::other(format!("serve never printed `{prefix}`")));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The samples of one Prometheus text exposition, plus what only repeated
/// scraping can see.
#[derive(Default)]
struct Scrape {
    samples: Vec<(String, f64)>,
    queue_depth_max: f64,
}

impl Scrape {
    fn parse(body: &str) -> Vec<(String, f64)> {
        body.lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (series, value) = l.rsplit_once(' ')?;
                Some((series.to_owned(), value.parse().ok()?))
            })
            .collect()
    }

    /// Every sample of `family`, labelled or not.
    fn family(&self, family: &str) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|(series, _)| {
                series
                    .strip_prefix(family)
                    .is_some_and(|rest| rest.is_empty() || rest.starts_with('{'))
            })
            .map(|(_, v)| *v)
            .collect()
    }

    fn sum(&self, family: &str) -> f64 {
        self.family(family).iter().sum()
    }

    /// Folds a later process's scrape into this one. Only counters and
    /// histogram sums are read from a scrape, so everything adds.
    fn absorb(&mut self, later: Scrape) {
        for (series, value) in later.samples {
            match self.samples.iter_mut().find(|(s, _)| *s == series) {
                Some(slot) => slot.1 += value,
                None => self.samples.push((series, value)),
            }
        }
        self.queue_depth_max = self.queue_depth_max.max(later.queue_depth_max);
    }
}

fn scrape_once(addr: &str) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    write!(
        stream,
        "GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_owned())
        .ok_or_else(|| io::Error::other("malformed HTTP response"))
}

/// Scrapes until `stop`; the endpoint going away (the program exited) also
/// ends it. Keeps the last exposition and the deepest queue seen.
fn scrape_until(addr: &str, stop: &AtomicBool) -> Scrape {
    let mut scrape = Scrape::default();
    while !stop.load(Ordering::SeqCst) {
        if let Ok(body) = scrape_once(addr) {
            let samples = Scrape::parse(&body);
            if !samples.is_empty() {
                scrape.samples = samples;
                let deepest = scrape
                    .family("ingest_queue_depth")
                    .into_iter()
                    .fold(0.0, f64::max);
                scrape.queue_depth_max = scrape.queue_depth_max.max(deepest);
            }
        }
        std::thread::sleep(SCRAPE_EVERY);
    }
    scrape
}

/// Follows the events file until `stop`, noting when each window's
/// `window_scored` first became visible to a reader.
fn tail_windows(path: &Path, stop: &AtomicBool) -> Vec<(u64, Instant)> {
    let mut seen = Vec::new();
    let mut pending = Vec::new();
    let mut offset = 0u64;
    loop {
        let stopping = stop.load(Ordering::SeqCst);
        if let Ok(mut file) = File::open(path) {
            if file.seek(SeekFrom::Start(offset)).is_ok() {
                let mut fresh = Vec::new();
                if let Ok(n) = file.read_to_end(&mut fresh) {
                    offset += n as u64;
                    pending.extend_from_slice(&fresh);
                }
            }
        }
        let now = Instant::now();
        while let Some(newline) = pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = pending.drain(..=newline).collect();
            let line = String::from_utf8_lossy(&line);
            if line.contains("\"event\":\"window_scored\"") {
                if let Some(window) = line
                    .split_once("\"window\":")
                    .and_then(|(_, rest)| rest.split([',', '}']).next()?.parse::<f64>().ok())
                {
                    seen.push((window as u64, now));
                }
            }
        }
        if stopping {
            return seen;
        }
        std::thread::sleep(TAIL_EVERY);
    }
}

/// Sends `ticks` round-robin over `conns`. With `interval`, tick `k` is due
/// at `t0 + k * interval` and the return value is how late each tick
/// started, in ms (open loop); without, ticks go out as fast as the
/// sockets take them (closed loop).
fn send_ticks(
    conns: &mut [TcpStream],
    bytes: &[u8],
    ticks: &[usize],
    t0: Instant,
    interval: Option<Duration>,
) -> io::Result<Vec<f64>> {
    let mut late_ms = Vec::new();
    let mut start = 0;
    for (k, &end) in ticks.iter().enumerate() {
        if let Some(interval) = interval {
            let due = t0 + interval * k as u32;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            late_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        }
        conns[k % conns.len()].write_all(&bytes[start..end])?;
        start = end;
    }
    Ok(late_ms)
}

/// Byte offset of the end of every `TICK_LINES`-line tick.
fn tick_ends(bytes: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut lines = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            lines += 1;
            if lines % TICK_LINES == 0 {
                ends.push(i + 1);
            }
        }
    }
    if ends.last() != Some(&bytes.len()) {
        ends.push(bytes.len());
    }
    ends
}

/// Sum over the run's `shutdown_complete` events (one per process) of a
/// count they carry.
fn shutdown_total(events: &str, field: &str) -> f64 {
    check::events_of_kind(events, "shutdown_complete")
        .iter()
        .filter_map(|e| e.get(field)?.as_f64())
        .sum()
}

/// Pushes the `ingest.*` layer metrics every `serve` run has. Counts come
/// from the events the run wrote, which are complete; busy times, stalls
/// and merges exist only in the registry, so they come from the last
/// scrape and miss what happened after it.
fn ingest_layers(into: &mut Metrics, scrape: &Scrape, wall_s: f64, events: &str) {
    into.push(
        "ingest.source.lines_total",
        shutdown_total(events, "lines"),
        1,
    );
    into.push(
        "ingest.source.idle_polls",
        scrape.sum("ingest_source_idle_polls_total"),
        1,
    );
    into.push(
        "ingest.router.batches_routed",
        shutdown_total(events, "batches"),
        1,
    );
    into.push(
        "ingest.router.backpressure_stalls",
        scrape.sum("ingest_backpressure_stalls_total"),
        1,
    );
    into.push("ingest.router.queue_depth_max", scrape.queue_depth_max, 1);
    let parse_busy = scrape.sum("ingest_parse_duration_seconds_sum");
    into.push("ingest.worker.parse_busy_s", parse_busy, 1);
    into.push(
        "ingest.worker.busy_frac",
        parse_busy / (wall_s * SHARDS as f64).max(1e-9),
        1,
    );
    let parsed = scrape.family("ingest_parsed_lines_total");
    let mean = parsed.iter().sum::<f64>() / parsed.len().max(1) as f64;
    let skew = parsed.iter().copied().fold(0.0, f64::max) / mean.max(1e-9);
    into.push("ingest.worker.shard_skew", skew, 1);
    let score_busy = scrape.sum("ingest_window_score_duration_seconds_sum");
    into.push("ingest.aggregate.score_busy_s", score_busy, 1);
    into.push(
        "ingest.aggregate.score_busy_frac",
        score_busy / wall_s.max(1e-9),
        1,
    );
    into.push(
        "ingest.aggregate.template_merges",
        scrape.sum("ingest_template_merges_total"),
        1,
    );
    let templates = check::events_of_kind(events, "shutdown_complete")
        .last()
        .and_then(|e| e.get("templates")?.as_f64())
        .unwrap_or(0.0);
    into.push("ingest.aggregate.global_templates", templates, 1);
    into.push(
        "ingest.aggregate.windows_scored",
        check::events_of_kind(events, "window_scored").len() as f64,
        1,
    );
    into.push("ingest.events.emitted", events.lines().count() as f64, 1);
    into.push("ingest.events.bytes", events.len() as f64, 1);
}

/// One `serve` process run to completion: its cost, verdict, the events
/// it wrote and, when probed, its last scrape.
struct Served {
    finished: Finished,
    verdict: ServeVerdict,
    events: String,
    scrape: Option<Scrape>,
}

/// `serve` over a file source, measured spawn → exit.
#[allow(clippy::too_many_arguments)]
fn serve_file(
    ctx: &Ctx,
    tracer: &mut Tracer,
    dir: &Path,
    span: &str,
    input: &Path,
    extra: &[&str],
    probe: bool,
    lines: u64,
    first_window: u64,
) -> io::Result<Served> {
    let events = dir.join("events.jsonl");
    let _ = std::fs::remove_file(&events);
    let (input, events_arg) = (input.to_string_lossy(), events.to_string_lossy());
    let shards = SHARDS.to_string();
    let mut args = vec![
        "serve",
        &input,
        "--shards",
        &shards,
        "--events-out",
        &events_arg,
    ];
    args.extend_from_slice(extra);
    if probe {
        args.extend(["--metrics-addr", "127.0.0.1:0"]);
    }
    let mut command = ctx.logmine(dir, &args)?;
    let (finished, scrape) = tracer.span(span, |_| {
        let since = Instant::now();
        let mut running = Running::spawn(&mut command, false)?;
        if !probe {
            return io::Result::Ok((running.wait(since, since + CHILD_TIMEOUT)?, None));
        }
        let addr = await_line(
            &mut running,
            &dir.join("stderr.txt"),
            "metrics listening on ",
        )?;
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let scraper = scope.spawn(|| scrape_until(&addr, &stop));
            let finished = running.wait(since, since + CHILD_TIMEOUT);
            stop.store(true, Ordering::SeqCst);
            let scrape = scraper
                .join()
                .map_err(|_| io::Error::other("scraper panicked"))?;
            Ok((finished?, Some(scrape)))
        })
    })?;
    let stdout = std::fs::read_to_string(dir.join("stdout.txt")).unwrap_or_default();
    let events = std::fs::read_to_string(&events).unwrap_or_default();
    Ok(Served {
        verdict: check::judge_serve(finished.ok, &stdout, &events, lines, WINDOW, first_window),
        finished,
        events,
        scrape,
    })
}

// ---------------------------------------------------------------------------
// serve_tcp_steady

pub struct ServeTcp {
    state: Option<TcpState>,
}

struct TcpState {
    dir: PathBuf,
    bytes: Vec<u8>,
    ticks: Vec<usize>,
    lines: u64,
    templates: usize,
    /// Last probed run: scrape, wall, events.
    probed: Option<(Scrape, f64, String)>,
    /// Closed-loop rate of the plain runs, lines/s.
    drain_lines_per_s: Vec<f64>,
}

pub fn serve_tcp_steady() -> ServeTcp {
    ServeTcp { state: None }
}

/// What one pass over the TCP source produced beyond [`Served`].
struct Streamed {
    served: Served,
    t0: Instant,
    seen: Vec<(u64, Instant)>,
    late_ms: Vec<f64>,
}

impl ServeTcp {
    fn state(&self) -> io::Result<&TcpState> {
        self.state
            .as_ref()
            .ok_or_else(|| io::Error::other("run before setup"))
    }

    /// Starts `serve --listen`, sends the corpus over TCP and waits for
    /// the program to exit at `--max-lines`. Wall runs from the first
    /// byte sent to process exit.
    fn stream(
        &self,
        ctx: &Ctx,
        tracer: &mut Tracer,
        probe: bool,
        interval: Option<Duration>,
    ) -> io::Result<Streamed> {
        let state = self.state()?;
        let events = state.dir.join("events.jsonl");
        let _ = std::fs::remove_file(&events);
        let (events_arg, max_lines) = (events.to_string_lossy(), state.lines.to_string());
        let (shards, window) = (SHARDS.to_string(), WINDOW.to_string());
        let mut args = vec![
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--shards",
            &shards,
            "--window",
            &window,
            "--max-lines",
            &max_lines,
            "--events-out",
            &events_arg,
        ];
        if probe {
            args.extend(["--metrics-addr", "127.0.0.1:0"]);
        }
        let mut command = ctx.logmine(&state.dir, &args)?;
        let stderr = state.dir.join("stderr.txt");

        let mut running = tracer.span("cli.spawn", |_| Running::spawn(&mut command, false))?;
        let listen = await_line(&mut running, &stderr, "listening on ")?;
        let metrics = if probe {
            Some(await_line(&mut running, &stderr, "metrics listening on ")?)
        } else {
            None
        };
        let mut conns = (0..CONNECTIONS)
            .map(|_| TcpStream::connect(&listen))
            .collect::<io::Result<Vec<_>>>()?;
        for conn in &conns {
            conn.set_nodelay(true)?;
        }

        let stop = AtomicBool::new(false);
        let origin_ns = tracer.now_ns();
        let t0 = Instant::now();
        let (finished, sent, seen, scrape) = std::thread::scope(|scope| {
            let sender = scope.spawn(|| {
                let sent = send_ticks(&mut conns, &state.bytes, &state.ticks, t0, interval);
                (sent, t0.elapsed())
            });
            let tailer = interval.map(|_| scope.spawn(|| tail_windows(&events, &stop)));
            let scraper = metrics
                .as_ref()
                .map(|addr| scope.spawn(|| scrape_until(addr, &stop)));
            let finished = running.wait(t0, t0 + CHILD_TIMEOUT);
            stop.store(true, Ordering::SeqCst);
            let panicked = |_| io::Error::other("a harness thread panicked");
            let sent = sender.join().map_err(panicked)?;
            let seen = tailer.map(|t| t.join().map_err(panicked)).transpose()?;
            let scrape = scraper.map(|s| s.join().map_err(panicked)).transpose()?;
            io::Result::Ok((finished?, sent, seen.unwrap_or_default(), scrape))
        })?;
        let (sent, send_time) = sent;
        let send_end = origin_ns + send_time.as_nanos() as u64;
        tracer.record("send", origin_ns, send_end);
        tracer.record(
            "drain-wait",
            send_end,
            origin_ns + (finished.wall_s * 1e9) as u64,
        );

        let stdout = std::fs::read_to_string(state.dir.join("stdout.txt")).unwrap_or_default();
        let events = std::fs::read_to_string(&events).unwrap_or_default();
        // A send error means the program went away early; the verdict
        // below counts the lines it never reported.
        let verdict = check::judge_serve(
            finished.ok && sent.is_ok(),
            &stdout,
            &events,
            state.lines,
            WINDOW,
            0,
        );
        Ok(Streamed {
            served: Served {
                finished,
                verdict,
                events,
                scrape,
            },
            t0,
            seen,
            late_ms: sent.unwrap_or_default(),
        })
    }
}

fn serve_outcome(lines: u64, cost: &Finished, failed: u64, found: usize, truth: usize) -> Outcome {
    let attempted = lines + lines / WINDOW;
    Outcome {
        lines,
        wall_s: cost.wall_s,
        cpu_s: cost.cpu_s,
        peak_rss_mb: cost.peak_rss_mb,
        attempted,
        failed: failed.min(attempted),
        grouping_accuracy: check::template_recovery(found, truth),
    }
}

impl Workload for ServeTcp {
    fn name(&self) -> &'static str {
        "serve_tcp_steady"
    }

    fn setup(&mut self, ctx: &Ctx, tracer: &mut Tracer) -> io::Result<()> {
        let dir = ctx.out.join(self.name());
        fresh_dir(&dir)?;
        // The open loop sends the same corpus at 60 000 lines/s, so the
        // corpus is that rate times the pass length.
        let lines = ctx.scaled(600_000);
        let corpus = tracer.span("generate", |_| gen::steady(lines, ctx.seed));
        let mut distinct = corpus.truth.clone();
        distinct.sort_unstable();
        distinct.dedup();
        self.state = Some(TcpState {
            dir,
            ticks: tick_ends(&corpus.bytes),
            bytes: corpus.bytes,
            lines: lines as u64,
            templates: distinct.len(),
            probed: None,
            drain_lines_per_s: Vec::new(),
        });
        let warm = tracer.span("warmup", |t| self.stream(ctx, t, false, None))?;
        if warm.served.verdict.failed > 0 {
            return Err(io::Error::other(
                "serve_tcp_steady: the warm-up drain lost lines or windows",
            ));
        }
        Ok(())
    }

    fn run(&mut self, ctx: &Ctx, tracer: &mut Tracer, probe: bool) -> io::Result<Outcome> {
        let streamed = self.stream(ctx, tracer, probe, None)?;
        let Served {
            finished,
            verdict,
            events,
            scrape,
        } = streamed.served;
        let state = self.state.as_mut().expect("stream checked it");
        if let Some(scrape) = scrape {
            state.probed = Some((scrape, finished.wall_s, events));
        } else {
            state
                .drain_lines_per_s
                .push(state.lines as f64 / finished.wall_s);
        }
        Ok(serve_outcome(
            state.lines,
            &finished,
            verdict.failed,
            verdict.summary.templates,
            state.templates,
        ))
    }

    fn layers(&mut self, ctx: &Ctx, tracer: &mut Tracer, into: &mut Metrics) -> io::Result<()> {
        let state = self.state()?;
        let (scrape, wall_s, events) = state
            .probed
            .as_ref()
            .ok_or_else(|| io::Error::other("layers before a probed run"))?;
        ingest_layers(into, scrape, *wall_s, events);
        let tcp = state.drain_lines_per_s.iter().copied().fold(0.0, f64::max);

        // The same corpus through the file source and through `parse`:
        // how far streaming is from batch, as a number.
        let input = state.dir.join("input.log");
        std::fs::write(&input, &state.bytes)?;
        let window = WINDOW.to_string();
        let file = serve_file(
            ctx,
            tracer,
            &state.dir,
            "cli.serve_file",
            &input,
            &["--window", &window],
            false,
            state.lines,
            0,
        )?;
        into.push(
            "ingest.source.tcp_over_file_ratio",
            tcp / (state.lines as f64 / file.finished.wall_s.max(1e-9)),
            1,
        );
        let path = |name: &str| state.dir.join(name).to_string_lossy().into_owned();
        let (events_out, structured, input_arg) = (
            path("parse.events.txt"),
            path("parse.structured.txt"),
            path("input.log"),
        );
        let mut parse = ctx.logmine(
            &state.dir,
            &[
                "parse",
                "--parser",
                "drain",
                "-j",
                "1",
                "--events-out",
                &events_out,
                "--structured-out",
                &structured,
                &input_arg,
            ],
        )?;
        let parsed = tracer.span("cli.parse", |_| proc::run(&mut parse, false, CHILD_TIMEOUT))?;
        into.push(
            "ingest.serve_over_parse_ratio",
            tcp / (state.lines as f64 / parsed.wall_s.max(1e-9)),
            1,
        );

        // Freshness: an open loop at a fixed rate, every window timed from
        // when its last line was due to be sent to when a reader of the
        // events file first sees it scored.
        let interval = Duration::from_secs_f64(TICK_LINES as f64 / OPEN_LOOP_LINES_PER_S);
        let open = tracer.span("open-loop", |t| self.stream(ctx, t, false, Some(interval)))?;
        let ticks_per_window = WINDOW as u32 / TICK_LINES as u32;
        let latency_ms: Vec<f64> = (0..state.lines / WINDOW)
            .filter_map(|w| {
                let due = open.t0 + interval * ((w as u32 + 1) * ticks_per_window - 1);
                let (_, at) = open.seen.iter().find(|(window, _)| *window == w)?;
                Some(at.saturating_duration_since(due).as_secs_f64() * 1e3)
            })
            .collect();
        for (name, p) in [("p50", 50.0), ("p90", 90.0), ("p99", 99.0)] {
            into.push(
                &format!("ingest.window_lat_ms_{name}"),
                stats::percentile(&latency_ms, p),
                latency_ms.len(),
            );
        }
        into.push(
            "loadgen.late_ms_p90",
            stats::percentile(&open.late_ms, 90.0),
            open.late_ms.len(),
        );
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// serve_file_churn

pub struct ServeFile {
    state: Option<FileState>,
}

struct FileState {
    dir: PathBuf,
    /// Lines in each half.
    half: u64,
    templates: usize,
    probed: Option<(Scrape, f64, String)>,
}

pub fn serve_file_churn() -> ServeFile {
    ServeFile { state: None }
}

/// Both halves served, the second with `--resume`, and what held across.
struct Resumed {
    cost: Finished,
    failed: u64,
    templates: usize,
    scrape: Option<Scrape>,
    events: String,
}

impl ServeFile {
    fn state(&self) -> io::Result<&FileState> {
        self.state
            .as_ref()
            .ok_or_else(|| io::Error::other("run before setup"))
    }

    /// Lines between periodic checkpoints: three per half.
    fn checkpoint_every(&self) -> io::Result<String> {
        Ok((self.state()?.half / 3).max(1).to_string())
    }

    fn phase(
        &self,
        ctx: &Ctx,
        tracer: &mut Tracer,
        half: usize,
        extra: &[&str],
        probe: bool,
    ) -> io::Result<Served> {
        let state = self.state()?;
        let store = state.dir.join("store").to_string_lossy().into_owned();
        let every = self.checkpoint_every()?;
        let mut args = vec![
            "--checkpoint",
            store.as_str(),
            "--checkpoint-every",
            every.as_str(),
        ];
        args.extend_from_slice(extra);
        let name = ["cli.serve_first_half", "cli.serve_resume"][half];
        let input = state.dir.join(["first.log", "second.log"][half]);
        let first_window = half as u64 * (state.half / WINDOW);
        serve_file(
            ctx,
            tracer,
            &state.dir,
            name,
            &input,
            &args,
            probe,
            state.half,
            first_window,
        )
    }

    fn resume_cycle(&self, ctx: &Ctx, tracer: &mut Tracer, probe: bool) -> io::Result<Resumed> {
        let state = self.state()?;
        fresh_dir(&state.dir.join("store"))?;
        let first = self.phase(ctx, tracer, 0, &[], probe)?;
        let second = self.phase(ctx, tracer, 1, &["--resume"], probe)?;

        let store = state.dir.join("store").to_string_lossy().into_owned();
        let verified = tracer.span("cli.store_verify", |_| {
            proc::run(
                &mut ctx.logmine(&state.dir, &["store", "verify", &store])?,
                false,
                CHILD_TIMEOUT,
            )
        })?;
        let moved = check::changed_gids(
            &check::template_gids(&first.events),
            &check::template_gids(&second.events),
        );
        let mut failed = first.verdict.failed + second.verdict.failed + moved;
        if !verified.ok {
            failed += 2 * state.half;
        }
        let scrape = match (first.scrape, second.scrape) {
            (Some(mut scrape), Some(later)) => {
                scrape.absorb(later);
                Some(scrape)
            }
            _ => None,
        };
        Ok(Resumed {
            cost: Finished {
                wall_s: first.finished.wall_s + second.finished.wall_s,
                cpu_s: first.finished.cpu_s + second.finished.cpu_s,
                peak_rss_mb: first.finished.peak_rss_mb.max(second.finished.peak_rss_mb),
                ok: first.finished.ok && second.finished.ok,
            },
            failed,
            templates: second.verdict.summary.templates,
            scrape,
            events: first.events + &second.events,
        })
    }
}

impl Workload for ServeFile {
    fn name(&self) -> &'static str {
        "serve_file_churn"
    }

    fn setup(&mut self, ctx: &Ctx, tracer: &mut Tracer) -> io::Result<()> {
        let dir = ctx.out.join(self.name());
        fresh_dir(&dir)?;
        let lines = ctx.scaled(120_000);
        let corpus = tracer.span("generate", |_| gen::churn(lines, ctx.seed));
        let cut = corpus.prefix_len(lines / 2);
        tracer.span("write", |_| {
            std::fs::write(dir.join("first.log"), &corpus.bytes[..cut])?;
            std::fs::write(dir.join("second.log"), &corpus.bytes[cut..])
        })?;
        let mut distinct = corpus.truth.clone();
        distinct.sort_unstable();
        distinct.dedup();
        self.state = Some(FileState {
            dir,
            half: (lines / 2) as u64,
            templates: distinct.len(),
            probed: None,
        });
        let warm = tracer.span("warmup", |t| self.resume_cycle(ctx, t, false))?;
        if warm.failed > 0 {
            return Err(io::Error::other(
                "serve_file_churn: the warm-up cycle failed its checks",
            ));
        }
        Ok(())
    }

    fn run(&mut self, ctx: &Ctx, tracer: &mut Tracer, probe: bool) -> io::Result<Outcome> {
        let cycle = self.resume_cycle(ctx, tracer, probe)?;
        let state = self.state.as_mut().expect("resume_cycle checked it");
        if let Some(scrape) = cycle.scrape {
            state.probed = Some((scrape, cycle.cost.wall_s, cycle.events));
        }
        Ok(serve_outcome(
            2 * state.half,
            &cycle.cost,
            cycle.failed,
            cycle.templates,
            state.templates,
        ))
    }

    fn layers(&mut self, ctx: &Ctx, tracer: &mut Tracer, into: &mut Metrics) -> io::Result<()> {
        let state = self.state()?;
        let (scrape, wall_s, events) = state
            .probed
            .as_ref()
            .ok_or_else(|| io::Error::other("layers before a probed run"))?;
        ingest_layers(into, scrape, *wall_s, events);
        into.push(
            "ingest.checkpoint.writes",
            shutdown_total(events, "checkpoints"),
            1,
        );
        into.push(
            "ingest.checkpoint.write_busy_s",
            scrape.sum("ingest_checkpoint_write_duration_seconds_sum"),
            1,
        );
        into.push(
            "store.snapshots_written",
            check::events_of_kind(events, "snapshot_written").len() as f64,
            1,
        );

        // The store the last cycle left: size, then offline verify and
        // compact, then how long a resume takes that has nothing to read.
        let store_dir = state.dir.join("store");
        into.push("store.dir_bytes", dir_bytes(&store_dir) as f64, 1);
        let store = store_dir.to_string_lossy().into_owned();
        for (metric, action) in [("store.verify_s", "verify"), ("store.compact_s", "compact")] {
            let done = tracer.span(&format!("cli.store_{action}"), |_| {
                proc::run(
                    &mut ctx.logmine(&state.dir, &["store", action, &store])?,
                    false,
                    CHILD_TIMEOUT,
                )
            })?;
            if !done.ok {
                return Err(io::Error::other(format!("`store {action}` failed")));
            }
            into.push(metric, done.wall_s, 1);
        }
        // `serve EMPTY --resume`: start-up, store recovery and replay, no lines.
        let empty = state.dir.join("empty.log");
        std::fs::write(&empty, b"")?;
        let replay = serve_file(
            ctx,
            tracer,
            &state.dir,
            "cli.serve_resume_empty",
            &empty,
            &["--checkpoint", &store, "--resume"],
            false,
            0,
            0,
        )?;
        into.push("store.resume_replay_ms", replay.finished.wall_s * 1e3, 1);

        // Drift telemetry and alerting on against off, on the first half.
        let (mut with, mut without) = (Vec::new(), Vec::new());
        for _ in 0..2 {
            fresh_dir(&store_dir)?;
            with.push(self.phase(ctx, tracer, 0, &[], false)?.finished.wall_s);
            fresh_dir(&store_dir)?;
            without.push(
                self.phase(ctx, tracer, 0, &["--no-drift", "--no-alerts"], false)?
                    .finished
                    .wall_s,
            );
        }
        into.push(
            "obs.drift_overhead_pct",
            (stats::fastest(&with) / stats::fastest(&without).max(1e-9) - 1.0) * 100.0,
            2,
        );

        run_layers(
            ctx,
            tracer,
            into,
            &[
                ("--corpus", "churn".into()),
                ("--lines", (2 * state.half).to_string()),
                ("--seed", ctx.seed.to_string()),
                (
                    "--file",
                    state.dir.join("first.log").to_string_lossy().into_owned(),
                ),
                ("--scratch", state.dir.to_string_lossy().into_owned()),
                ("--parser", "drain".into()),
                ("--probes", "merge,eigen".into()),
            ],
        )
    }
}
