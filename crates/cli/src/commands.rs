//! The `logmine` subcommand implementations.

use std::error::Error;
use std::fs::File;
use std::io::{BufWriter, Write};

use logparse_core::{
    write_events_file, write_structured_lines, Corpus, LineSource, LogParser, MaskRule,
    Preprocessor,
};
use logparse_datasets::{study_datasets, DatasetSpec, LabeledCorpus};
use logparse_eval::{grouping_accuracy, pairwise_f_measure, purity, rand_index, tune, ParserKind};
use logparse_ingest::{
    file_source, run_pipeline, stdin_source, Checkpoint, FileTailSource, IngestConfig,
    ParserChoice, TcpSource,
};
use logparse_jobs::protocol as jobproto;
use logparse_jobs::{run_job, JobConfig};
use logparse_mining::{event_count_matrix, truth_count_matrix, PcaDetector, PcaDetectorConfig};
use logparse_obs::Journal;
use logparse_parsers::{batch_parser, stream_drain, Drain, Lke, LogSig, Slct};
use logparse_store::{StoreConfig, TemplateStore};

use crate::args::Args;

/// Top-level usage text.
pub const USAGE: &str = "\
logmine — log parsing toolkit (DSN'16 reproduction)

USAGE:
  logmine parse    --parser NAME [--preprocess RULES] [--support F]
                   [--clusters K] [--seed N] [--threshold T]
                   [--threads N | -j N]
                   [--events-out FILE] [--structured-out FILE] [FILE]
  logmine generate --dataset NAME --count N [--seed N] [--labels]
  logmine evaluate --dataset NAME --parser NAME [--sample N] [--seed N]
  logmine detect   [--blocks N] [--rate R] [--parser NAME] [--seed N]
                   [--alpha A] [--components K]
  logmine serve    [FILE] [--follow] [--listen ADDR] [--parser drain|spell]
                   [--shards N] [--batch-size N] [--flush-ms MS]
                   [--window N] [--history N] [--warmup N]
                   [--checkpoint DIR [--checkpoint-every N] [--resume]]
                   [--max-lines N] [--events-out FILE [--events-max-mb MB]]
                   [--alpha A] [--components K] [--metrics-addr ADDR]
                   [--alert-rules FILE] [--no-alerts] [--no-drift]
  logmine store    inspect|verify|compact DIR
  logmine jobs     run FILE --job-dir DIR [--parser NAME] [-j N]
                   [--workers N] [--max-retries N] [--backoff-ms MS]
                   [--task-timeout-ms MS] [--events-out FILE]
                   [--structured-out FILE]
  logmine jobs     status --job-dir DIR
  logmine jobs     dlq list|retry --job-dir DIR
  logmine worker   --job-dir DIR --task N --attempt N
  logmine metrics dump [--scrape ADDR] [--traces]
  logmine top      --scrape ADDR [--interval-ms MS] [--iterations N]
  logmine alerts   check [--rules FILE] [--fixture FILE]
  logmine help

PARSERS:   slct iplom lke logsig drain spell ael lenma logmine
DATASETS:  bgl hpc hdfs zookeeper proxifier
RULES:     comma-separated from ip,blk,core,num,hex,path

parse reads FILE, or stdin, skipping blank lines and refusing invalid
UTF-8, and writes the events file (stdout by default) and, with
--structured-out, the structured log; neither is written when the input
is refused. --parser drain at -j 1 (or -j 0) streams the input through
Drain's tree in one pass and builds no corpus, so it holds the templates,
one read window and 4 bytes a line; every other parser, and -j N above
1, loads the whole corpus first.

serve ingests a live stream — stdin by default, FILE (with --follow to
tail it through rotations), or a TCP line protocol via --listen — parses
it online across sharded workers, scores tumbling windows with the PCA
detector, and emits JSONL operational events (stderr or --events-out).
With --metrics-addr it also serves Prometheus text-format metrics for
every pipeline stage over HTTP (port 0 picks a free port; the bound
address is printed to stderr).

With --checkpoint DIR serve persists its template state into a durable
sharded store (snapshots + CRC-framed delta logs) under DIR; --resume
restarts from whatever the store recovered, keeping global template
ids stable across the restart. --events-max-mb caps the JSONL event
log, rotating FILE -> FILE.1 -> FILE.2 when it fills.

store examines a checkpoint store offline: `inspect` prints per-shard
recovery detail, `verify` exits non-zero if any shard would be
quarantined (a torn log tail from a crash is fine), and `compact`
folds the delta logs into fresh snapshots.

serve also tracks parsing-quality drift per window (template births,
churn, singleton fraction, parameter cardinality, merge conflicts) and
evaluates alert rules against it, journaling alert_firing /
alert_resolved edges. --alert-rules replaces the built-in rule set,
--no-alerts keeps the drift gauges but evaluates no rules, and
--no-drift switches the whole quality family off.

jobs run shards FILE into -j chunks and parses them across --workers
worker *processes* (default: one per chunk), with per-task retry,
exponential backoff and a dead-letter queue under DIR/dlq. A worker
reads only its chunk's bytes; with --parser drain it streams them
through Drain's tree, as parse -j 1 does, and builds no corpus. The
merged result is byte-identical to `logmine parse -j N`. The job directory is
durable: re-running the same command after a crash (coordinator or
worker, SIGKILL included) resumes from completed shards without
re-parsing or duplicating them. `jobs status` shows per-task state,
`jobs dlq list` shows poison shards, and `jobs dlq retry` requeues
them with a fresh attempt budget. `worker` is the internal per-shard
entry point jobs run spawns.

metrics dump prints those metrics one-shot: from a running serve's
endpoint with --scrape HOST:PORT, otherwise from this process's own
registry. --traces appends the most recent span trace events.

top is a live terminal view over a running serve's --metrics-addr
endpoint: it redraws every --interval-ms (default 1000) with
throughput, queue depths, top-K templates by arrival count, firing
alerts and per-shard store disk usage. --iterations N stops after N
frames (0 = until interrupted or the endpoint goes away).

alerts check validates an alert rule file (--rules FILE, default: the
built-in set) and, given --fixture FILE, replays a canned history
through the alert engine and reports every fire/resolve edge plus the
final status. A fixture is one series per line: `name v1 v2 ...`,
column i being the sample at window i; `#` comments are ignored.";

type CliResult = Result<(), Box<dyn Error>>;

/// Builds the requested parser: [`batch_parser`]'s configuration — the
/// one `jobs` workers build — unless the method has tuning flags, which
/// are overlaid on its builder (whose own defaults are the same).
fn build_parser(args: &Args) -> Result<Box<dyn LogParser>, Box<dyn Error>> {
    let name = args.option("parser").unwrap_or("iplom");
    Ok(match name.to_ascii_lowercase().as_str() {
        "slct" => {
            let mut builder = Slct::builder();
            if let Some(support) = args.parsed("support")? {
                builder = builder.support_fraction(support);
            }
            Box::new(builder.build())
        }
        "lke" => {
            let mut builder = Lke::builder();
            if let Some(threshold) = args.parsed("threshold")? {
                builder = builder.fixed_threshold(threshold);
            }
            Box::new(builder.build())
        }
        "logsig" => {
            let mut builder = LogSig::builder();
            if let Some(clusters) = args.parsed("clusters")? {
                builder = builder.clusters(clusters);
            }
            if let Some(seed) = args.parsed("seed")? {
                builder = builder.seed(seed);
            }
            Box::new(builder.build())
        }
        _ => batch_parser(name).ok_or_else(|| format!("unknown parser `{name}`"))?,
    })
}

/// Resolves a dataset spec by name.
fn find_dataset(name: &str) -> Result<DatasetSpec, Box<dyn Error>> {
    study_datasets()
        .into_iter()
        .find(|d| d.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown dataset `{name}`").into())
}

/// Parses the `--preprocess` rule list.
fn build_preprocessor(args: &Args) -> Result<Preprocessor, Box<dyn Error>> {
    let Some(rules) = args.option("preprocess") else {
        return Ok(Preprocessor::identity());
    };
    let mut mask_rules = Vec::new();
    for name in rules.split(',').filter(|r| !r.is_empty()) {
        let rule = MaskRule::ALL
            .into_iter()
            .find(|rule| rule.name() == name)
            .ok_or_else(|| format!("unknown preprocess rule `{name}`"))?;
        mask_rules.push(rule);
    }
    Ok(Preprocessor::new(mask_rules))
}

/// `path` buffered, or stdout. The caller flushes: a dropped
/// `BufWriter` swallows its last write's error.
fn open_output(path: Option<&str>) -> Result<Box<dyn Write>, Box<dyn Error>> {
    Ok(match path {
        Some(path) => Box::new(BufWriter::new(File::create(path)?)),
        None => Box::new(std::io::stdout().lock()),
    })
}

/// Loads the input corpus for parsing — `path`, or stdin read to end —
/// masking each token by `preprocessor` before it is interned. The
/// build is chunk-parallel when `threads` > 1, with output bit-identical
/// to the sequential build.
fn load_corpus(
    path: Option<&str>,
    preprocessor: &Preprocessor,
    threads: usize,
) -> Result<Corpus, Box<dyn Error>> {
    Ok(match path {
        Some(path) => Corpus::from_path_masked(path, preprocessor, threads)?,
        None => {
            let mut bytes = Vec::new();
            std::io::Read::read_to_end(&mut std::io::stdin().lock(), &mut bytes)?;
            Corpus::from_bytes(bytes, preprocessor, threads)?
        }
    })
}

/// `logmine parse`. Drain at `-j 1` (or `-j 0`, which is 1) streams its
/// input (see [`stream_drain`]); every other parser, and `-j N`, parses a
/// corpus. Either way the kept lines are numbered from 1, so the parse
/// alone says what the structured log holds.
pub fn parse(args: &Args) -> CliResult {
    let threads: usize = args.parsed_or("threads", 1)?;
    let preprocessor = build_preprocessor(args)?;
    let path = args.positional().first().map(String::as_str);
    // Before the input: a mistyped name should not cost the load.
    let parser = build_parser(args)?;
    let parse = if threads <= 1 && parser.name() == Drain::default().name() {
        let stdin = &mut std::io::stdin().lock();
        let source = match path {
            Some(path) => LineSource::Path(path.as_ref()),
            None => LineSource::Reader(stdin),
        };
        stream_drain(source, &preprocessor)?
    } else {
        let corpus = load_corpus(path, &preprocessor, threads)?;
        if threads > 1 {
            parser.parse_parallel(&corpus, threads)?
        } else {
            parser.parse(&corpus)?
        }
    };
    eprintln!(
        "{}: {} messages -> {} events, {} outliers",
        parser.name(),
        parse.len(),
        parse.event_count(),
        parse.outlier_count()
    );
    let mut events_out = open_output(args.option("events-out"))?;
    write_events_file(&parse, &mut events_out)?;
    events_out.flush()?;
    if let Some(path) = args.option("structured-out") {
        let mut structured = BufWriter::new(File::create(path)?);
        write_structured_lines(1..=parse.len(), &parse, &mut structured)?;
        structured.flush()?;
    }
    Ok(())
}

/// `logmine generate`.
pub fn generate(args: &Args) -> CliResult {
    let dataset = find_dataset(args.option("dataset").unwrap_or("hdfs"))?;
    let count: usize = args.parsed_or("count", 1_000)?;
    let seed: u64 = args.parsed_or("seed", 42)?;
    let data: LabeledCorpus = dataset.generate(count, seed);
    let mut out = std::io::stdout().lock();
    let with_labels = args.has_flag("labels");
    for i in 0..data.len() {
        if with_labels {
            writeln!(out, "{}\t{}", data.labels[i], data.corpus.record(i).content)?;
        } else {
            writeln!(out, "{}", data.corpus.record(i).content)?;
        }
    }
    Ok(())
}

/// `logmine evaluate`.
pub fn evaluate(args: &Args) -> CliResult {
    let dataset = find_dataset(args.option("dataset").unwrap_or("hdfs"))?;
    let sample: usize = args.parsed_or("sample", 2_000)?;
    let seed: u64 = args.parsed_or("seed", 42)?;
    let kind = match args
        .option("parser")
        .unwrap_or("iplom")
        .to_ascii_lowercase()
        .as_str()
    {
        "slct" => ParserKind::Slct,
        "iplom" => ParserKind::Iplom,
        "lke" => ParserKind::Lke,
        "logsig" => ParserKind::LogSig,
        other => {
            return Err(format!("evaluate supports the study's four parsers, not `{other}`").into())
        }
    };
    let data = dataset.generate(sample, seed);
    let tuned = tune(kind, &data);
    let parse = tuned.instantiate(seed).parse(&data.corpus)?;
    let labels = parse.cluster_labels();
    let f = pairwise_f_measure(&data.labels, &labels);
    println!("dataset            {}", dataset.name());
    println!("parser             {}", kind.name());
    println!("messages           {sample}");
    println!("events discovered  {}", parse.event_count());
    println!("events true        {}", data.distinct_events());
    println!("precision          {:.4}", f.precision);
    println!("recall             {:.4}", f.recall);
    println!("f-measure          {:.4}", f.f1);
    println!("purity             {:.4}", purity(&data.labels, &labels));
    println!(
        "rand index         {:.4}",
        rand_index(&data.labels, &labels)
    );
    println!(
        "grouping accuracy  {:.4}",
        grouping_accuracy(&data.labels, &labels)
    );
    Ok(())
}

/// `logmine detect`.
pub fn detect(args: &Args) -> CliResult {
    let blocks: usize = args.parsed_or("blocks", 2_000)?;
    let rate: f64 = args.parsed_or("rate", 0.029)?;
    let seed: u64 = args.parsed_or("seed", 7)?;
    let alpha: f64 = args.parsed_or("alpha", 0.001)?;
    let components: usize = args.parsed_or("components", 2)?;
    let sessions = logparse_datasets::hdfs::generate_sessions(blocks, rate, seed);
    let detector = PcaDetector::new(PcaDetectorConfig {
        alpha,
        components: Some(components),
        ..PcaDetectorConfig::default()
    });

    let (counts, label) = if args.option("parser").is_some() {
        let parser = build_parser(args)?;
        let parse = parser.parse(&sessions.data.corpus)?;
        let accuracy = pairwise_f_measure(&sessions.data.labels, &parse.cluster_labels()).f1;
        eprintln!("{} parsing accuracy: {accuracy:.3}", parser.name());
        (
            event_count_matrix(&parse, &sessions.block_of, sessions.block_count()),
            parser.name().to_owned(),
        )
    } else {
        (
            truth_count_matrix(
                &sessions.data.labels,
                sessions.data.truth_templates.len(),
                &sessions.block_of,
                sessions.block_count(),
            ),
            "ground truth".to_owned(),
        )
    };
    let report = detector.detect(&counts);
    let (detected, false_alarms) = report.confusion(&sessions.anomalous);
    println!("parser            {label}");
    println!("blocks            {blocks}");
    println!("true anomalies    {}", sessions.anomaly_count());
    println!("reported          {}", report.reported());
    println!("detected          {detected}");
    println!("false alarms      {false_alarms}");
    println!("threshold Q_a     {:.3}", report.threshold);
    Ok(())
}

/// Builds the ingest configuration for `logmine serve` from flags.
fn build_ingest_config(args: &Args) -> Result<IngestConfig, Box<dyn Error>> {
    let parser: ParserChoice = args.option("parser").unwrap_or("drain").parse()?;
    let defaults = IngestConfig::default();
    let mut detector = PcaDetectorConfig::default();
    detector.alpha = args.parsed_or("alpha", detector.alpha)?;
    detector.components = args.parsed("components")?.or(detector.components);
    let drift = !args.has_flag("no-drift");
    let alert_rules = if !drift || args.has_flag("no-alerts") {
        Vec::new()
    } else {
        match args.option("alert-rules") {
            Some(path) => logparse_obs::parse_rules(&std::fs::read_to_string(path)?)
                .map_err(|e| format!("--alert-rules {path}: {e}"))?,
            None => logparse_obs::default_rules(),
        }
    };
    Ok(IngestConfig {
        parser,
        drift,
        alert_rules,
        shards: args.parsed_or("shards", defaults.shards)?,
        batch_size: args.parsed_or("batch-size", defaults.batch_size)?,
        flush_interval: std::time::Duration::from_millis(
            args.parsed_or("flush-ms", defaults.flush_interval.as_millis() as u64)?,
        ),
        window_size: args.parsed_or("window", defaults.window_size)?,
        history: args.parsed_or("history", defaults.history)?,
        warmup: args.parsed_or("warmup", defaults.warmup)?,
        store_dir: args.option("checkpoint").map(std::path::PathBuf::from),
        checkpoint_every: args.parsed_or("checkpoint-every", defaults.checkpoint_every)?,
        max_lines: args.parsed("max-lines")?,
        detector,
        ..defaults
    })
}

/// `logmine serve`.
pub fn serve(args: &Args) -> CliResult {
    let config = build_ingest_config(args)?;
    let resume = if args.has_flag("resume") {
        let dir = config
            .store_dir
            .as_ref()
            .ok_or("--resume needs --checkpoint DIR to recover from")?;
        let checkpoint = Checkpoint::recover(dir, config.parser, config.shards)?
            .ok_or_else(|| format!("no checkpoint store at {}", dir.display()))?;
        eprintln!(
            "resuming from {}: {} lines",
            dir.display(),
            checkpoint.lines
        );
        Some(checkpoint)
    } else {
        None
    };
    let events = match args.option("events-out") {
        Some(path) => {
            let max_mb: u64 = args.parsed_or("events-max-mb", 0u64)?;
            if max_mb > 0 {
                Journal::rotating(std::path::Path::new(path), max_mb * 1024 * 1024, 3)?
            } else {
                Journal::create(std::path::Path::new(path))?
            }
        }
        None => Journal::new(Box::new(std::io::stderr())),
    };
    logparse_ingest::signal::install_handlers();

    // The exporter reads the same process-global registry the pipeline
    // stages write through, so a scrape mid-run sees live counters.
    let metrics_server = match args.option("metrics-addr") {
        Some(addr) => {
            let server = logparse_obs::serve_metrics(logparse_obs::global(), addr)?;
            eprintln!("metrics listening on {}", server.local_addr());
            Some(server)
        }
        None => None,
    };

    let summary = match (args.option("listen"), args.positional().first()) {
        (Some(addr), _) => {
            let mut source = TcpSource::bind(addr)?;
            eprintln!("listening on {}", source.local_addr());
            run_pipeline(&mut source, &config, events, resume.as_ref())?
        }
        (None, Some(path)) if args.has_flag("follow") => run_pipeline(
            &mut FileTailSource::new(path),
            &config,
            events,
            resume.as_ref(),
        )?,
        (None, Some(path)) => {
            run_pipeline(&mut file_source(path)?, &config, events, resume.as_ref())?
        }
        (None, None) => run_pipeline(&mut stdin_source(), &config, events, resume.as_ref())?,
    };

    println!("source            {}", summary.source);
    println!("lines             {}", summary.lines);
    println!("batches           {}", summary.batches);
    println!(
        "shard lines       {}",
        summary
            .shard_lines
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!("templates         {}", summary.templates.len());
    println!("windows           {}", summary.windows.len());
    println!(
        "windows scored    {}",
        summary.windows.iter().filter(|w| w.spe.is_some()).count()
    );
    println!("anomalies         {}", summary.anomalies.len());
    for window in &summary.anomalies {
        let score = summary.windows.iter().find(|w| w.window == *window);
        match score.and_then(|w| w.spe.zip(w.threshold)) {
            Some((spe, threshold)) => {
                println!("  window {window}: SPE {spe:.3} > threshold {threshold:.3}");
            }
            None => println!("  window {window}"),
        }
    }
    println!("checkpoints       {}", summary.checkpoints_written);
    if let Some(mut server) = metrics_server {
        server.stop();
    }
    Ok(())
}

/// `logmine store` — offline inspection of a checkpoint template store.
pub fn store(args: &Args) -> CliResult {
    let (action, dir) = match args.positional() {
        [action, dir] => (action.as_str(), std::path::Path::new(dir)),
        _ => return Err("store needs an action and a directory: logmine store inspect DIR".into()),
    };
    if !TemplateStore::is_store(dir) {
        return Err(format!("no template store at {}", dir.display()).into());
    }
    match action {
        "inspect" => {
            let recovery = TemplateStore::recover(dir)?;
            println!("store              {}", dir.display());
            println!("shards             {}", recovery.reports.len());
            println!("id space           {}", recovery.state.id_space());
            println!(
                "canonical          {}",
                recovery.state.canonical_templates().len()
            );
            println!("records replayed   {}", recovery.replayed_records);
            println!("quarantined        {}", recovery.quarantined_shards);
            println!(
                "shard  snapshot  logs  records  torn-bytes  rejected  \
                 snap-bytes  log-bytes  status"
            );
            for report in &recovery.reports {
                let snapshot = report
                    .snapshot_generation
                    .map_or_else(|| "-".to_owned(), |g| g.to_string());
                println!(
                    "{:<5}  {:<8}  {:<4}  {:<7}  {:<10}  {:<8}  {:<10}  {:<9}  {}",
                    report.shard,
                    snapshot,
                    report.log_generations.len(),
                    report.records_replayed,
                    report.torn_tail_bytes,
                    report.snapshots_rejected,
                    report.snapshot_bytes,
                    report.log_bytes,
                    if report.quarantined {
                        "QUARANTINED"
                    } else {
                        "ok"
                    },
                );
            }
            Ok(())
        }
        "verify" => {
            let recovery = TemplateStore::recover(dir)?;
            let torn: u64 = recovery.reports.iter().map(|r| r.torn_tail_bytes).sum();
            if torn > 0 {
                eprintln!("note: {torn} torn tail byte(s) would be truncated on open");
            }
            if recovery.quarantined_shards > 0 {
                let bad: Vec<String> = recovery
                    .reports
                    .iter()
                    .filter(|r| r.quarantined)
                    .map(|r| r.shard.to_string())
                    .collect();
                return Err(format!(
                    "{} of {} shard(s) corrupt (shard {}); opening the store would \
                     quarantine them and drop their templates",
                    recovery.quarantined_shards,
                    recovery.reports.len(),
                    bad.join(", ")
                )
                .into());
            }
            println!(
                "ok: {} shard(s), {} global template id(s), {} record(s) replayed",
                recovery.reports.len(),
                recovery.state.id_space(),
                recovery.replayed_records
            );
            Ok(())
        }
        "compact" => {
            let (mut store, recovery) = TemplateStore::open(dir, &StoreConfig::default())?;
            let before = recovery.replayed_records;
            store.compact(&recovery.state)?;
            let (shards, generation) = (store.shard_count(), store.generation());
            store.finish()?;
            println!(
                "compacted {shards} shard(s) at generation {generation}: \
                 {before} log record(s) folded into snapshots"
            );
            Ok(())
        }
        other => Err(format!("unknown store action `{other}` (try inspect|verify|compact)").into()),
    }
}

/// The `--job-dir` argument every `jobs` action needs.
fn job_dir_arg(args: &Args) -> Result<std::path::PathBuf, Box<dyn Error>> {
    Ok(std::path::PathBuf::from(
        args.option("job-dir").ok_or("jobs needs --job-dir DIR")?,
    ))
}

/// Builds a [`JobConfig`] from flags plus the manifest-determining
/// triple (resolved by the caller: from the command line on `run`,
/// from the stored manifest on `dlq retry`).
fn build_job_config(
    args: &Args,
    corpus: std::path::PathBuf,
    parser: String,
    shards: usize,
) -> Result<JobConfig, Box<dyn Error>> {
    Ok(JobConfig {
        job_dir: job_dir_arg(args)?,
        corpus,
        parser,
        shards,
        workers: args.parsed_or("workers", shards)?,
        max_retries: args.parsed_or("max-retries", 3u32)?,
        backoff_ms: args.parsed_or("backoff-ms", 100u64)?,
        task_timeout_ms: args.parsed("task-timeout-ms")?,
        worker_exe: std::env::current_exe()?,
    })
}

/// Runs the coordinator and writes the standard outputs, failing
/// loudly (with replay instructions) when any shard dead-lettered.
fn run_job_and_report(config: &JobConfig, args: &Args) -> CliResult {
    let outcome = run_job(config)?;
    eprintln!(
        "job {}{}: {}/{} task(s) completed, {} retried attempt(s), {} dead-lettered",
        outcome.job_id,
        if outcome.resumed { " (resumed)" } else { "" },
        outcome.completed.len(),
        outcome.completed.len() + outcome.dead_lettered.len(),
        outcome.retries,
        outcome.dead_lettered.len(),
    );
    let Some(parse) = outcome.parse else {
        let dir = config.job_dir.display();
        return Err(format!(
            "{} task(s) dead-lettered; inspect with `logmine jobs dlq list --job-dir {dir}` \
             and replay with `logmine jobs dlq retry --job-dir {dir}`",
            outcome.dead_lettered.len(),
        )
        .into());
    };
    eprintln!(
        "{}: {} messages -> {} events, {} outliers",
        config.parser,
        parse.len(),
        parse.event_count(),
        parse.outlier_count()
    );
    let mut events_out = open_output(args.option("events-out"))?;
    write_events_file(&parse, &mut events_out)?;
    events_out.flush()?;
    if let Some(path) = args.option("structured-out") {
        // A file-built corpus numbers its kept lines from 1, so the
        // reduced parse alone says what `parse` would write.
        let mut structured = BufWriter::new(File::create(path)?);
        write_structured_lines(1..=parse.len(), &parse, &mut structured)?;
        structured.flush()?;
    }
    Ok(())
}

/// `logmine jobs run`.
fn jobs_run(args: &Args) -> CliResult {
    let corpus = args
        .positional()
        .get(1)
        .ok_or("jobs run needs a corpus FILE")?;
    let parser = args.option("parser").unwrap_or("iplom").to_owned();
    let shards: usize = args.parsed_or("threads", 4usize)?;
    let config = build_job_config(args, std::path::PathBuf::from(corpus), parser, shards)?;
    run_job_and_report(&config, args)
}

/// Loads the manifest a `jobs` inspection action needs.
fn load_job_manifest(job_dir: &std::path::Path) -> Result<jobproto::JobManifest, Box<dyn Error>> {
    Ok(jobproto::JobManifest::load(job_dir)?
        .ok_or_else(|| format!("no job manifest under {}", job_dir.display()))?)
}

/// `logmine jobs status`.
fn jobs_status(args: &Args) -> CliResult {
    let job_dir = job_dir_arg(args)?;
    let manifest = load_job_manifest(&job_dir)?;
    let ranges = manifest.ranges();
    println!("job        {}", manifest.job_id);
    println!("parser     {}", manifest.parser);
    println!(
        "corpus     {} ({} lines)",
        manifest.corpus.display(),
        manifest.lines
    );
    println!(
        "budget     {} attempt(s) per task, {} ms base backoff",
        manifest.max_retries, manifest.backoff_ms
    );
    println!("task   lines            state");
    let (mut done, mut dead, mut open) = (0usize, 0usize, 0usize);
    for (task, range) in ranges.iter().enumerate() {
        let state = match jobproto::ShardResult::load(&job_dir, &manifest, task) {
            jobproto::ResultRead::Ok(_) => {
                done += 1;
                "completed".to_owned()
            }
            jobproto::ResultRead::Corrupt(reason) => {
                open += 1;
                format!("pending (last result rejected: {reason})")
            }
            jobproto::ResultRead::Missing => match jobproto::DlqRecord::load(&job_dir, task)? {
                Some(record) => {
                    dead += 1;
                    format!(
                        "DEAD-LETTERED after {} attempt(s): {}",
                        record.attempts, record.failure
                    )
                }
                None => {
                    open += 1;
                    "pending".to_owned()
                }
            },
        };
        println!("{task:<5}  {:>7}..{:<7}  {state}", range.start, range.end);
    }
    println!("{done} completed, {dead} dead-lettered, {open} pending");
    Ok(())
}

/// The task ids currently in the dead-letter queue, with records.
fn dlq_records(
    job_dir: &std::path::Path,
    tasks: usize,
) -> Result<Vec<jobproto::DlqRecord>, Box<dyn Error>> {
    let mut records = Vec::new();
    for task in 0..tasks {
        if let Some(record) = jobproto::DlqRecord::load(job_dir, task)? {
            records.push(record);
        }
    }
    Ok(records)
}

/// `logmine jobs dlq list`.
fn jobs_dlq_list(args: &Args) -> CliResult {
    let job_dir = job_dir_arg(args)?;
    let manifest = load_job_manifest(&job_dir)?;
    let records = dlq_records(&job_dir, manifest.ranges().len())?;
    if records.is_empty() {
        println!("dead-letter queue is empty");
        return Ok(());
    }
    for record in records {
        println!(
            "task {:<4} job {}  {} attempt(s)  {}",
            record.task, record.job_id, record.attempts, record.failure
        );
    }
    Ok(())
}

/// `logmine jobs dlq retry` — requeues every dead-lettered shard with
/// a fresh attempt budget and re-runs the coordinator.
fn jobs_dlq_retry(args: &Args) -> CliResult {
    let job_dir = job_dir_arg(args)?;
    let manifest = load_job_manifest(&job_dir)?;
    let records = dlq_records(&job_dir, manifest.ranges().len())?;
    if records.is_empty() {
        println!("dead-letter queue is empty; nothing to retry");
        return Ok(());
    }
    jobproto::prepare_state_dir(&job_dir)?;
    for record in &records {
        jobproto::save_attempts(&job_dir, record.task, 0)?;
        std::fs::remove_file(jobproto::dlq_record_path(&job_dir, record.task))?;
    }
    eprintln!(
        "requeued {} dead-lettered task(s): {}",
        records.len(),
        records
            .iter()
            .map(|r| r.task.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    );
    let config = build_job_config(
        args,
        manifest.corpus.clone(),
        manifest.parser.clone(),
        manifest.shards,
    )?;
    run_job_and_report(&config, args)
}

/// `logmine jobs` — the distributed map-reduce job coordinator.
pub fn jobs(args: &Args) -> CliResult {
    match args.positional().first().map(String::as_str) {
        Some("run") => jobs_run(args),
        Some("status") => jobs_status(args),
        Some("dlq") => match args.positional().get(1).map(String::as_str) {
            Some("list") => jobs_dlq_list(args),
            Some("retry") => jobs_dlq_retry(args),
            _ => Err("jobs dlq needs an action: logmine jobs dlq list|retry".into()),
        },
        Some(other) => Err(format!("unknown jobs action `{other}` (try run|status|dlq)").into()),
        None => Err("jobs needs an action: logmine jobs run FILE --job-dir DIR".into()),
    }
}

/// `logmine worker` — the per-shard entry point `jobs run` spawns.
pub fn worker(args: &Args) -> CliResult {
    let job_dir = args.option("job-dir").ok_or("worker needs --job-dir DIR")?;
    let task: usize = args.parsed("task")?.ok_or("worker needs --task N")?;
    let attempt: u32 = args.parsed("attempt")?.ok_or("worker needs --attempt N")?;
    jobproto::run_job_worker(std::path::Path::new(job_dir), task, attempt)?;
    Ok(())
}

/// `logmine metrics` — one-shot exposition of the metric registry.
pub fn metrics(args: &Args) -> CliResult {
    match args.positional().first().map(String::as_str) {
        Some("dump") => {}
        Some(other) => return Err(format!("unknown metrics action `{other}` (try dump)").into()),
        None => return Err("metrics needs an action: logmine metrics dump".into()),
    }
    let text = match args.option("scrape") {
        // Pull from a running serve's --metrics-addr endpoint.
        Some(addr) => scrape_metrics(addr)?,
        // No address: render this process's own registry — useful after
        // in-process experiments, and as a template of family names.
        None => logparse_obs::global().render(),
    };
    print!("{text}");
    if args.has_flag("traces") {
        println!("# recent spans (oldest first)");
        for trace in logparse_obs::global().traces(64) {
            println!(
                "# {} +{:.6}s {:.6}s {:?}",
                trace.name,
                trace.start.as_secs_f64(),
                trace.duration.as_secs_f64(),
                trace.labels,
            );
        }
    }
    Ok(())
}

/// Minimal HTTP GET against a `--metrics-addr` endpoint; returns the body.
fn scrape_metrics(addr: &str) -> Result<String, Box<dyn Error>> {
    use std::io::Read;
    let mut stream = std::net::TcpStream::connect(addr)
        .map_err(|e| format!("cannot reach metrics endpoint {addr}: {e}"))?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(5)))?;
    write!(
        stream,
        "GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or("malformed HTTP response from metrics endpoint")?;
    let status = head.lines().next().unwrap_or_default();
    if !status.contains("200") {
        return Err(format!("metrics endpoint returned `{status}`").into());
    }
    Ok(body.to_owned())
}

/// A parsed Prometheus text exposition: each sample line as its full
/// series name (family plus rendered labels) and value.
struct Exposition {
    samples: Vec<(String, f64)>,
}

impl Exposition {
    fn parse(body: &str) -> Exposition {
        let samples = body
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .filter_map(|l| {
                let (series, value) = l.rsplit_once(' ')?;
                Some((series.to_owned(), value.parse().ok()?))
            })
            .collect();
        Exposition { samples }
    }

    /// The value of an exact unlabeled series.
    fn get(&self, series: &str) -> Option<f64> {
        self.samples
            .iter()
            .find(|(s, _)| s == series)
            .map(|&(_, v)| v)
    }

    /// Every sample of `family`, as `(labels, value)` where `labels` is
    /// the rendered `{…}` blob (empty for unlabeled series).
    fn family<'a>(&'a self, name: &str) -> Vec<(&'a str, f64)> {
        self.samples
            .iter()
            .filter_map(|(series, value)| {
                let rest = series.strip_prefix(name)?;
                if rest.is_empty() || rest.starts_with('{') {
                    Some((rest, *value))
                } else {
                    None
                }
            })
            .collect()
    }
}

/// The value of label `key` inside a rendered `{k="v",…}` blob. Label
/// values in this workspace never contain commas or escapes.
fn label_value<'a>(labels: &'a str, key: &str) -> Option<&'a str> {
    labels
        .trim_start_matches('{')
        .trim_end_matches('}')
        .split(',')
        .find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then(|| v.trim_matches('"'))
        })
}

/// Per-shard values of a labeled family, sorted by shard id.
fn by_shard(exposition: &Exposition, family: &str) -> Vec<(usize, f64)> {
    let mut out: Vec<(usize, f64)> = exposition
        .family(family)
        .into_iter()
        .filter_map(|(labels, value)| Some((label_value(labels, "shard")?.parse().ok()?, value)))
        .collect();
    out.sort_by_key(|&(shard, _)| shard);
    out
}

/// Renders one `logmine top` frame. Rates are derived from the
/// configured refresh interval, not a wall clock, so a slow scrape
/// under-reports rather than lying about elapsed time.
fn render_top(
    out: &mut dyn Write,
    cur: &Exposition,
    prev: Option<&Exposition>,
    interval_secs: f64,
    frame: u64,
) -> std::io::Result<()> {
    let rate = |series: &str| -> String {
        match (prev.and_then(|p| p.get(series)), cur.get(series)) {
            (Some(before), Some(now)) if interval_secs > 0.0 => {
                format!("{:>10.1}/s", (now - before).max(0.0) / interval_secs)
            }
            _ => format!("{:>12}", "-"),
        }
    };
    let count = |series: &str| -> String {
        cur.get(series)
            .map_or_else(|| "-".to_owned(), |v| format!("{v:.0}"))
    };
    writeln!(
        out,
        "logmine top — frame {frame}, every {interval_secs:.1}s"
    )?;
    writeln!(out)?;
    writeln!(
        out,
        "  lines ingested    {:>12}  {}",
        count("ingest_lines_total"),
        rate("ingest_lines_total")
    )?;
    writeln!(
        out,
        "  global templates  {:>12}",
        count("ingest_global_templates")
    )?;
    writeln!(
        out,
        "  windows scored    {:>12}  {}",
        count("ingest_windows_scored_total"),
        rate("ingest_windows_scored_total")
    )?;
    writeln!(
        out,
        "  anomalies         {:>12}",
        count("ingest_anomalies_total")
    )?;
    writeln!(
        out,
        "  alerts firing     {:>12}",
        count("obs_alerts_firing")
    )?;

    let queues = by_shard(cur, "ingest_queue_depth");
    if !queues.is_empty() {
        let parsed = by_shard(cur, "ingest_parsed_lines_total");
        let groups = by_shard(cur, "ingest_shard_groups");
        let at = |list: &[(usize, f64)], shard: usize| -> String {
            list.iter()
                .find(|&&(s, _)| s == shard)
                .map_or_else(|| "-".to_owned(), |&(_, v)| format!("{v:.0}"))
        };
        writeln!(out)?;
        writeln!(out, "  shard  queue  parsed        groups")?;
        for (shard, depth) in &queues {
            writeln!(
                out,
                "  {:<5}  {:<5}  {:<12}  {}",
                shard,
                format!("{depth:.0}"),
                at(&parsed, *shard),
                at(&groups, *shard),
            )?;
        }
    }

    writeln!(out)?;
    writeln!(out, "  top templates by arrival count")?;
    let ranked: Vec<(usize, f64, f64)> = {
        let lines = cur.family("ingest_top_template_lines");
        let gids = cur.family("ingest_top_template_gid");
        let mut rows: Vec<(usize, f64, f64)> = lines
            .iter()
            .filter_map(|(labels, count)| {
                let rank: usize = label_value(labels, "rank")?.parse().ok()?;
                let gid = gids.iter().find_map(|(l, g)| {
                    (label_value(l, "rank") == Some(rank.to_string().as_str())).then_some(*g)
                })?;
                (gid >= 0.0 && *count > 0.0).then_some((rank, gid, *count))
            })
            .collect();
        rows.sort_by_key(|&(rank, _, _)| rank);
        rows
    };
    if ranked.is_empty() {
        writeln!(out, "    (no window ranking yet)")?;
    }
    for (rank, gid, lines) in ranked {
        writeln!(out, "    #{rank}  gid {gid:<6.0}  {lines:.0} lines")?;
    }

    let firing: Vec<&str> = {
        let mut rules: Vec<&str> = cur
            .family("obs_alert_active")
            .into_iter()
            .filter(|&(_, v)| v >= 1.0)
            .filter_map(|(labels, _)| label_value(labels, "rule"))
            .collect();
        rules.sort_unstable();
        rules
    };
    writeln!(out)?;
    writeln!(out, "  firing alerts")?;
    if firing.is_empty() {
        writeln!(out, "    (none)")?;
    }
    for rule in firing {
        writeln!(out, "    ! {rule}")?;
    }

    let disk = cur.family("store_shard_disk_bytes");
    if !disk.is_empty() {
        let mut per_shard: Vec<(usize, f64, f64)> = Vec::new();
        for (labels, value) in disk {
            let Some(shard) = label_value(labels, "shard").and_then(|s| s.parse().ok()) else {
                continue;
            };
            let slot = match per_shard.iter_mut().find(|(s, _, _)| *s == shard) {
                Some(slot) => slot,
                None => {
                    per_shard.push((shard, 0.0, 0.0));
                    per_shard.last_mut().expect("just pushed")
                }
            };
            match label_value(labels, "kind") {
                Some("snapshot") => slot.1 = value,
                Some("log") => slot.2 = value,
                _ => {}
            }
        }
        per_shard.sort_by_key(|&(shard, _, _)| shard);
        writeln!(out)?;
        writeln!(out, "  store disk bytes")?;
        writeln!(out, "  shard  snapshot    log")?;
        for (shard, snapshot, log) in per_shard {
            writeln!(out, "  {shard:<5}  {snapshot:<10.0}  {log:.0}")?;
        }
    }
    Ok(())
}

/// `logmine top` — live terminal view over a serve's scrape endpoint.
pub fn top(args: &Args) -> CliResult {
    let addr = args
        .option("scrape")
        .ok_or("top needs --scrape HOST:PORT (a serve's --metrics-addr endpoint)")?;
    let interval_ms: u64 = args.parsed_or("interval-ms", 1_000u64)?;
    let iterations: u64 = args.parsed_or("iterations", 0u64)?;
    let interval_secs = interval_ms as f64 / 1_000.0;
    let mut prev: Option<Exposition> = None;
    let mut frame = 0u64;
    let stdout = std::io::stdout();
    loop {
        let body = scrape_metrics(addr)?;
        let cur = Exposition::parse(&body);
        frame += 1;
        let mut out = stdout.lock();
        // Plain ANSI: clear the screen and home the cursor, then redraw.
        write!(out, "\x1b[2J\x1b[H")?;
        render_top(&mut out, &cur, prev.as_ref(), interval_secs, frame)?;
        out.flush()?;
        drop(out);
        prev = Some(cur);
        if iterations != 0 && frame >= iterations {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// One fixture series: name plus its per-window samples.
type FixtureSeries = (String, Vec<f64>);

/// Parses an alert fixture: one series per line, `name v1 v2 …`, column
/// i being the series' sample at window i.
fn parse_fixture(text: &str) -> Result<Vec<FixtureSeries>, Box<dyn Error>> {
    let mut out: Vec<FixtureSeries> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let name = tokens.next().unwrap_or_default().to_owned();
        let mut values = Vec::new();
        for token in tokens {
            values.push(
                token
                    .parse::<f64>()
                    .map_err(|_| format!("fixture line {}: `{token}` is not a number", i + 1))?,
            );
        }
        if values.is_empty() {
            return Err(format!("fixture line {}: series `{name}` has no samples", i + 1).into());
        }
        if out.iter().any(|(n, _)| n == &name) {
            return Err(format!("fixture line {}: duplicate series `{name}`", i + 1).into());
        }
        out.push((name, values));
    }
    if out.is_empty() {
        return Err("fixture has no series".into());
    }
    Ok(out)
}

/// `logmine alerts` — offline validation and replay of alert rules.
pub fn alerts(args: &Args) -> CliResult {
    match args.positional().first().map(String::as_str) {
        Some("check") => {}
        Some(other) => return Err(format!("unknown alerts action `{other}` (try check)").into()),
        None => return Err("alerts needs an action: logmine alerts check".into()),
    }
    let (origin, text) = match args.option("rules") {
        Some(path) => (path.to_owned(), std::fs::read_to_string(path)?),
        None => (
            "built-in defaults".to_owned(),
            logparse_obs::default_rules_text().to_owned(),
        ),
    };
    let rules = logparse_obs::parse_rules(&text).map_err(|e| format!("{origin}: {e}"))?;
    println!("{} rule(s) from {origin}:", rules.len());
    for rule in &rules {
        println!("  {rule}");
    }
    let Some(fixture_path) = args.option("fixture") else {
        println!("rules parse cleanly (pass --fixture FILE to replay a history)");
        return Ok(());
    };
    let fixture = parse_fixture(&std::fs::read_to_string(fixture_path)?)?;
    let windows = fixture.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
    let history = logparse_obs::History::new(windows.max(2));
    let mut engine = logparse_obs::AlertEngine::new(logparse_obs::global(), rules);
    println!();
    for window in 0..windows {
        for (series, values) in &fixture {
            if let Some(&value) = values.get(window) {
                history.replay(series, value);
            }
        }
        for edge in engine.step(&history) {
            let kind = if edge.firing { "FIRING" } else { "resolved" };
            println!(
                "window {:>3}  {kind:<8}  {}  ({} = {} vs {})",
                window + 1,
                edge.rule,
                edge.series,
                edge.value,
                edge.threshold,
            );
        }
    }
    let firing = engine.firing();
    println!();
    if firing.is_empty() {
        println!("status: ok — no rule firing after {windows} window(s)");
    } else {
        println!(
            "status: {} rule(s) still firing after {} window(s):",
            firing.len(),
            windows
        );
        for name in firing {
            println!("  FIRING {name}");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::parse(list.iter().copied()).unwrap()
    }

    #[test]
    fn build_parser_knows_all_nine() {
        for name in [
            "slct", "iplom", "lke", "logsig", "drain", "spell", "ael", "lenma", "logmine",
        ] {
            let parser = build_parser(&args(&["--parser", name])).unwrap();
            assert!(!parser.name().is_empty());
        }
        assert!(build_parser(&args(&["--parser", "nope"])).is_err());
    }

    #[test]
    fn find_dataset_is_case_insensitive() {
        assert_eq!(find_dataset("hdfs").unwrap().name(), "HDFS");
        assert_eq!(find_dataset("ZooKeeper").unwrap().name(), "Zookeeper");
        assert!(find_dataset("unknown").is_err());
    }

    #[test]
    fn preprocessor_rules_parse() {
        let pre = build_preprocessor(&args(&["--preprocess", "ip,blk"])).unwrap();
        assert_eq!(pre.rules(), &[MaskRule::IpAddress, MaskRule::BlockId]);
        assert!(build_preprocessor(&args(&["--preprocess", "bogus"])).is_err());
        assert!(build_preprocessor(&args(&[])).unwrap().rules().is_empty());
    }

    #[test]
    fn evaluate_runs_on_a_small_sample() {
        evaluate(&args(&[
            "--dataset",
            "proxifier",
            "--parser",
            "iplom",
            "--sample",
            "200",
        ]))
        .unwrap();
    }

    #[test]
    fn detect_runs_on_a_small_simulation() {
        detect(&args(&["--blocks", "200", "--rate", "0.05"])).unwrap();
        detect(&args(&["--blocks", "200", "--parser", "iplom"])).unwrap();
    }

    #[test]
    fn parse_with_threads_writes_the_same_events_file() {
        let dir = std::env::temp_dir().join(format!("logmine-parse-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("input.log");
        let data = logparse_datasets::hdfs::generate(400, 7);
        let lines: Vec<String> = (0..data.len())
            .map(|i| data.corpus.record(i).content.to_owned())
            .collect();
        std::fs::write(&log, lines.join("\n") + "\n").unwrap();

        let sequential = dir.join("seq.events");
        let parallel = dir.join("par.events");
        for (out, extra) in [(&sequential, None), (&parallel, Some(("-j", "4")))] {
            let mut argv = vec!["--parser", "drain", "--events-out", out.to_str().unwrap()];
            if let Some((flag, value)) = extra {
                argv.push(flag);
                argv.push(value);
            }
            argv.push(log.to_str().unwrap());
            parse(&args(&argv)).unwrap();
        }

        let seq = std::fs::read_to_string(&sequential).unwrap();
        assert!(!seq.is_empty());
        // Drain groups by message shape, so chunk templates coincide and
        // the merged events file matches the sequential one exactly.
        assert_eq!(seq, std::fs::read_to_string(&parallel).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// What `logmine metrics dump` prints after a masked parse: one
    /// `core_preprocess_masked_tokens_total` series per configured rule,
    /// a rule that never fired included (at zero) — so an operator can
    /// tell a silent rule from a missing one. Drain at `-j 1` streams and
    /// IPLoM builds a corpus; each publishes the same counts.
    #[test]
    fn parse_publishes_masked_token_counts_per_rule() {
        let dir = std::env::temp_dir().join(format!("logmine-masked-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("input.log");
        std::fs::write(
            &log,
            "Received blk_1 of size 42 from 10.0.0.1\r\n\nReceived blk_2 of size 7 from 10.0.0.2\n",
        )
        .unwrap();
        let masked = || -> Vec<(String, f64)> {
            let dump = Exposition::parse(&logparse_obs::global().render());
            dump.family("core_preprocess_masked_tokens_total")
                .into_iter()
                .map(|(labels, value)| (labels.to_owned(), value))
                .collect()
        };
        let count = |series: &[(String, f64)], rule: &str| {
            let labels = format!("{{rule=\"{rule}\"}}");
            series.iter().find(|(l, _)| *l == labels).map(|&(_, v)| v)
        };
        for parser in ["iplom", "drain"] {
            let before = masked();
            parse(&args(&[
                "--parser",
                parser,
                "--preprocess",
                "blk,core,num",
                "--events-out",
                dir.join("events").to_str().unwrap(),
                log.to_str().unwrap(),
            ]))
            .unwrap();
            let after = masked();
            let delta = |rule| count(&after, rule).unwrap() - count(&before, rule).unwrap_or(0.0);
            // One pass over two lines.
            assert_eq!(delta("blk"), 2.0, "{parser}");
            assert_eq!(delta("num"), 2.0, "{parser}");
            assert_eq!(
                delta("core"),
                0.0,
                "{parser}: a silent rule still has a series"
            );
            assert_eq!(count(&after, "ip"), None, "unconfigured rules have none");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_ingests_a_file_and_writes_events() {
        let dir = std::env::temp_dir().join(format!("logmine-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("input.log");
        let events = dir.join("events.jsonl");
        let data = logparse_datasets::hdfs::generate(2_000, 42);
        let lines: Vec<String> = (0..data.len())
            .map(|i| data.corpus.record(i).content.to_owned())
            .collect();
        std::fs::write(&log, lines.join("\n") + "\n").unwrap();

        serve(&args(&[
            "--shards",
            "2",
            "--window",
            "500",
            "--warmup",
            "2",
            "--events-out",
            events.to_str().unwrap(),
            log.to_str().unwrap(),
        ]))
        .unwrap();

        let text = std::fs::read_to_string(&events).unwrap();
        assert!(text.lines().next().unwrap().contains("ingest_started"));
        assert!(text.lines().last().unwrap().contains("shutdown_complete"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn render_top_formats_a_canned_exposition() {
        let body = "\
# TYPE ingest_lines_total counter
ingest_lines_total 4000
ingest_global_templates 3
ingest_windows_scored_total 8
ingest_anomalies_total 0
obs_alerts_firing 1
ingest_queue_depth{shard=\"0\"} 2
ingest_queue_depth{shard=\"1\"} 0
ingest_parsed_lines_total{shard=\"0\"} 2000
ingest_parsed_lines_total{shard=\"1\"} 2000
ingest_shard_groups{shard=\"0\"} 3
ingest_shard_groups{shard=\"1\"} 3
ingest_top_template_lines{rank=\"1\"} 1334
ingest_top_template_gid{rank=\"1\"} 2
ingest_top_template_lines{rank=\"2\"} 0
ingest_top_template_gid{rank=\"2\"} -1
obs_alert_active{rule=\"template-churn-high\"} 1
obs_alert_active{rule=\"singleton-explosion\"} 0
store_shard_disk_bytes{shard=\"0\",kind=\"snapshot\"} 1024
store_shard_disk_bytes{kind=\"log\",shard=\"0\"} 512
";
        let prev_body = "ingest_lines_total 2000\ningest_windows_scored_total 4\n";
        let cur = Exposition::parse(body);
        let prev = Exposition::parse(prev_body);
        let mut rendered = Vec::new();
        render_top(&mut rendered, &cur, Some(&prev), 1.0, 2).unwrap();
        let text = String::from_utf8(rendered).unwrap();
        assert!(text.contains("lines ingested"), "{text}");
        assert!(text.contains("2000.0/s"), "rate from interval:\n{text}");
        assert!(text.contains("#1  gid 2"), "{text}");
        assert!(!text.contains("#2"), "unused rank must be hidden:\n{text}");
        assert!(text.contains("! template-churn-high"), "{text}");
        assert!(!text.contains("! singleton-explosion"), "{text}");
        assert!(text.contains("store disk bytes"), "{text}");
        assert!(text.contains("1024"), "{text}");
        assert!(text.contains("512"), "{text}");

        // Without a previous frame the rate column degrades to `-`.
        let mut first = Vec::new();
        render_top(&mut first, &cur, None, 1.0, 1).unwrap();
        let text = String::from_utf8(first).unwrap();
        assert!(text.contains('-'), "{text}");
    }

    #[test]
    fn render_top_survives_an_empty_exposition() {
        let cur = Exposition::parse("");
        let mut rendered = Vec::new();
        render_top(&mut rendered, &cur, None, 0.5, 1).unwrap();
        let text = String::from_utf8(rendered).unwrap();
        assert!(text.contains("(no window ranking yet)"), "{text}");
        assert!(text.contains("(none)"), "{text}");
        assert!(!text.contains("store disk bytes"), "{text}");
    }

    #[test]
    fn fixture_parsing_validates_shape() {
        let parsed = parse_fixture("# comment\nchurn 0.1 0.2\nbirths 5\n").unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0], ("churn".to_owned(), vec![0.1, 0.2]));
        for (text, needle) in [
            ("", "no series"),
            ("churn\n", "no samples"),
            ("churn 0.1 x\n", "not a number"),
            ("a 1\na 2\n", "duplicate series"),
        ] {
            let err = parse_fixture(text).unwrap_err().to_string();
            assert!(err.contains(needle), "{text:?} -> {err}");
        }
    }

    #[test]
    fn top_requires_a_scrape_address() {
        let err = top(&args(&[])).unwrap_err().to_string();
        assert!(err.contains("--scrape"), "{err}");
    }

    #[test]
    fn alerts_check_replays_a_fixture_through_the_engine() {
        let dir = std::env::temp_dir().join(format!("logmine-alerts-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fixture = dir.join("drift.history");
        std::fs::write(&fixture, "template_churn 0.0 0.5 0.6 0.7 0.8 0.0 0.0 0.0\n").unwrap();
        alerts(&args(&["check", "--fixture", fixture.to_str().unwrap()])).unwrap();
        // Bad action and missing fixture file fail cleanly.
        assert!(alerts(&args(&["frobnicate"])).is_err());
        assert!(alerts(&args(&[])).is_err());
        assert!(alerts(&args(&["check", "--fixture", "/nonexistent/f"])).is_err());
        let bad_rules = dir.join("bad.rules");
        std::fs::write(&bad_rules, "not a rule\n").unwrap();
        let err = alerts(&args(&["check", "--rules", bad_rules.to_str().unwrap()]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("line 1"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_config_reads_flags() {
        let config = build_ingest_config(&args(&[
            "--parser",
            "spell",
            "--shards",
            "3",
            "--window",
            "250",
            "--components",
            "4",
        ]))
        .unwrap();
        assert_eq!(config.parser, ParserChoice::Spell);
        assert_eq!(config.shards, 3);
        assert_eq!(config.window_size, 250);
        assert_eq!(config.detector.components, Some(4));
        assert!(config.drift, "drift telemetry defaults on");
        assert!(!config.alert_rules.is_empty(), "default rules load");
        assert!(build_ingest_config(&args(&["--parser", "iplom"])).is_err());
        assert!(serve(&args(&["--resume"])).is_err());
    }

    #[test]
    fn serve_config_drift_and_alert_flags() {
        let quiet = build_ingest_config(&args(&["--no-drift"])).unwrap();
        assert!(!quiet.drift);
        assert!(quiet.alert_rules.is_empty(), "--no-drift implies no rules");
        let no_alerts = build_ingest_config(&args(&["--no-alerts"])).unwrap();
        assert!(no_alerts.drift);
        assert!(no_alerts.alert_rules.is_empty());

        let dir = std::env::temp_dir().join(format!("logmine-rules-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let rules = dir.join("own.rules");
        std::fs::write(&rules, "quiet-stream: template_births < 1 for 4\n").unwrap();
        let custom =
            build_ingest_config(&args(&["--alert-rules", rules.to_str().unwrap()])).unwrap();
        assert_eq!(custom.alert_rules.len(), 1);
        assert_eq!(custom.alert_rules[0].name, "quiet-stream");
        std::fs::write(&rules, "broken !!\n").unwrap();
        assert!(build_ingest_config(&args(&["--alert-rules", rules.to_str().unwrap()])).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
