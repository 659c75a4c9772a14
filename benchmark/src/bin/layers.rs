//! In-process probes: times calls into each crate's public functions on a
//! corpus the benchmark generated, one probe per layer.
//!
//! It may call only the API pinned in README.md ("Pinned API"): what
//! `logmine parse` and `logmine detect` call today, and nothing that
//! ROADMAP.md plans to collapse. Changing a pinned signature needs a
//! benchmark change first.
//!
//! ```text
//! layers --corpus steady|hdfs|churn --lines N --seed S --file PATH
//!        --scratch DIR --parser drain|iplom --probes a,b,… [--reps R]
//! ```
//!
//! Prints `metric <name> <value> <samples>` and `span <name> <start_ns>
//! <end_ns>` lines (span times are since this process started); `e2e`
//! reads both.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use logmine_benchmark::{check, gen, stats};
use logparse_core::{
    count_corpus_lines, write_events_file, write_structured_file, Corpus, LogParser, MaskRule,
    Parse, Preprocessor, TemplateMerge, Tokenizer,
};
use logparse_linalg::jacobi_eigen;
use logparse_mining::{event_count_matrix, PcaDetector, PcaDetectorConfig};
use logparse_parsers::{Drain, Iplom, Lke, LogSig, Slct, Spell};

/// The paper's RQ2: LogSig and LKE do not scale, so their rows run on a
/// prefix; SLCT and Spell are linear but slow enough to cap as well.
const PREFIX_LINES: [(&str, usize); 4] = [
    ("slct", 200_000),
    ("spell", 200_000),
    ("logsig", 20_000),
    ("lke", 2_000),
];

/// Side of the symmetric matrix the eigen probe decomposes: the size of
/// the covariance `serve` scores a window against with 300 live templates.
const EIGEN_SIDE: usize = gen::CHURN_TEMPLATES;

struct Probes {
    origin: Instant,
    reps: usize,
    out: std::io::Stdout,
}

impl Probes {
    fn metric(&mut self, name: &str, value: f64, samples: usize) {
        writeln!(self.out, "metric {name} {value} {samples}").expect("stdout");
    }

    /// Times up to `reps` calls of `body` under a span each, stopping early
    /// once the probe has used its budget (LKE takes seconds on 2 000
    /// lines); returns the median seconds, the last result and the count.
    fn time<R>(&mut self, span: &str, mut body: impl FnMut() -> R) -> (f64, R, usize) {
        const BUDGET_S: f64 = 1.0;
        let mut seconds = Vec::with_capacity(self.reps);
        let mut last = None;
        while seconds.len() < self.reps && seconds.iter().sum::<f64>() < BUDGET_S {
            let start = self.origin.elapsed();
            let result = std::hint::black_box(body());
            let end = self.origin.elapsed();
            writeln!(
                self.out,
                "span {span} {} {}",
                start.as_nanos(),
                end.as_nanos()
            )
            .expect("stdout");
            seconds.push((end - start).as_secs_f64());
            last = Some(result);
        }
        (
            stats::median(&seconds),
            last.expect("reps >= 1"),
            seconds.len(),
        )
    }
}

fn parser_by_name(name: &str) -> Box<dyn LogParser> {
    match name {
        "drain" => Box::new(Drain::default()),
        "iplom" => Box::new(Iplom::default()),
        "slct" => Box::new(Slct::default()),
        "spell" => Box::new(Spell::default()),
        "logsig" => Box::new(LogSig::default()),
        "lke" => Box::new(Lke::default()),
        other => panic!("unknown parser `{other}`"),
    }
}

fn structured_text(corpus: &Corpus, parse: &Parse) -> String {
    let mut out = Vec::new();
    write_structured_file(corpus, parse, &mut out).expect("write to memory");
    String::from_utf8(out).expect("structured output is ASCII")
}

fn event_lines(parse: &Parse) -> Vec<String> {
    let mut out = Vec::new();
    write_events_file(parse, &mut out).expect("write to memory");
    String::from_utf8(out)
        .expect("events output is UTF-8")
        .lines()
        .map(|l| l.split_once('\t').map_or(l, |(_, t)| t).to_owned())
        .collect()
}

struct Args {
    corpus: String,
    lines: usize,
    seed: u64,
    file: PathBuf,
    scratch: PathBuf,
    parser: String,
    probes: Vec<String>,
    reps: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        corpus: String::new(),
        lines: 0,
        seed: 0,
        file: PathBuf::new(),
        scratch: PathBuf::new(),
        parser: "drain".into(),
        probes: Vec::new(),
        reps: 3,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .unwrap_or_else(|| panic!("{flag} needs a value"));
        match flag.as_str() {
            "--corpus" => args.corpus = value,
            "--lines" => args.lines = value.parse().expect("--lines"),
            "--seed" => args.seed = value.parse().expect("--seed"),
            "--file" => args.file = value.into(),
            "--scratch" => args.scratch = value.into(),
            "--parser" => args.parser = value,
            "--probes" => args.probes = value.split(',').map(str::to_owned).collect(),
            "--reps" => args.reps = value.parse().expect("--reps"),
            other => panic!("unknown flag `{other}`"),
        }
    }
    args
}

/// Writes the first `lines` lines of `data` to a scratch file.
fn prefix_file(data: &gen::Corpus, lines: usize, scratch: &Path, tag: &str) -> PathBuf {
    let path = scratch.join(format!("prefix-{tag}.log"));
    std::fs::write(&path, &data.bytes[..data.prefix_len(lines)]).expect("write prefix");
    path
}

fn main() {
    let args = parse_args();
    let data = gen::by_name(&args.corpus, args.lines, args.seed).expect("known corpus");
    let lines = data.lines();
    let tokenizer = Tokenizer::default();
    let masks = Preprocessor::new(vec![
        MaskRule::IpAddress,
        MaskRule::BlockId,
        MaskRule::Number,
    ]);
    let wants = |probe: &str| args.probes.iter().any(|p| p == probe);
    let mut p = Probes {
        origin: Instant::now(),
        reps: args.reps.max(1),
        out: std::io::stdout(),
    };
    let per_s = |n: usize, seconds: f64| n as f64 / seconds.max(1e-9);

    if wants("merge") {
        // Two shards' template lists: what Drain finds in each half.
        let half = lines / 2;
        let first = prefix_file(&data, half, &args.scratch, "half-a");
        let second = args.scratch.join("prefix-half-b.log");
        std::fs::write(&second, &data.bytes[data.prefix_len(half)..]).expect("write half");
        let keys: Vec<Vec<String>> = [first, second]
            .iter()
            .map(|path| {
                let half = Corpus::from_path(path, &tokenizer).expect("build half");
                event_lines(&Drain::default().parse(&half).expect("parse half"))
            })
            .collect();
        let templates = keys[0].len() + keys[1].len();
        const ROUNDS: usize = 200;
        let (s, canonical, n) = p.time("core.merge.merge_shards", || {
            let mut canonical = 0;
            for _ in 0..ROUNDS {
                let mut merge = TemplateMerge::new();
                merge.merge_shard(0, &keys[0]);
                merge.merge_shard(1, &keys[1]);
                canonical = merge.canonical_count();
            }
            canonical
        });
        assert!(canonical > 0 && canonical <= templates);
        p.metric(
            "core.merge.merge_templates_per_s",
            per_s(templates * ROUNDS, s),
            n,
        );
    }

    if wants("eigen") {
        let counts = symmetric_counts(&args.scratch, &tokenizer);
        let (s, eigen, n) = p.time("linalg.eigen.sym300", || jacobi_eigen(&counts));
        assert_eq!(eigen.values.len(), EIGEN_SIDE);
        p.metric("linalg.eigen.sym300_s", s, n);
    }

    // The probes below all work on the corpus built from `--file`.
    if args.probes.iter().all(|p| p == "merge" || p == "eigen") {
        return;
    }

    if wants("scan") {
        let (s, counted, n) = p.time("core.simd.scan", || {
            count_corpus_lines(&args.file).expect("scan")
        });
        assert_eq!(
            counted, lines,
            "scanner and generator disagree on the line count"
        );
        p.metric("core.simd.scan_lines_per_s", per_s(lines, s), n);
    }
    if wants("build_j2") {
        let (s, _, n) = p.time("core.loader.build_j2", || {
            Corpus::from_path_parallel(&args.file, &tokenizer, 2).expect("build")
        });
        p.metric("core.loader.build_j2_lines_per_s", per_s(lines, s), n);
    }
    let (build_s, raw, build_n) = p.time("core.loader.build", || {
        Corpus::from_path(&args.file, &tokenizer).expect("build")
    });
    if wants("build") {
        p.metric(
            "core.loader.build_lines_per_s",
            per_s(lines, build_s),
            build_n,
        );
        p.metric("core.intern.vocabulary", raw.interner().len() as f64, 1);
    }
    // The corpus the parser probes see: masked when the workload masks.
    let masked = wants("preprocess").then(|| {
        let (s, masked, n) = p.time("core.preprocess.apply", || masks.apply(&raw));
        p.metric("core.preprocess.apply_lines_per_s", per_s(lines, s), n);
        p.metric(
            "core.preprocess.vocabulary_after",
            masked.interner().len() as f64,
            1,
        );
        masked
    });
    let corpus = masked.as_ref().unwrap_or(&raw);

    for name in ["drain", "iplom", "slct", "spell", "logsig", "lke"] {
        if !wants(name) {
            continue;
        }
        let cap = PREFIX_LINES
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, cap)| *cap);
        let prefix = cap.filter(|cap| *cap < lines).map(|cap| {
            let built = Corpus::from_path(prefix_file(&data, cap, &args.scratch, name), &tokenizer)
                .expect("build prefix");
            if masked.is_some() {
                masks.apply(&built)
            } else {
                built
            }
        });
        let input = prefix.as_ref().unwrap_or(corpus);
        let parser = parser_by_name(name);
        let (s, parse, n) = p.time(&format!("parsers.{name}.parse"), || {
            parser.parse(input).expect("parse")
        });
        let groups = check::structured_groups(&structured_text(input, &parse));
        p.metric(
            &format!("parsers.{name}.lines_per_s"),
            per_s(input.len(), s),
            n,
        );
        p.metric(
            &format!("parsers.{name}.grouping_accuracy"),
            check::grouping_accuracy(&data.truth[..input.len()], &groups),
            1,
        );
        if name == "drain" {
            p.metric(
                "parsers.drain.templates",
                event_lines(&parse).len() as f64,
                1,
            );
        }
    }

    let parser = parser_by_name(&args.parser);
    if wants("parallel") {
        let (one, _, _) = p.time("core.parallel.parse_j1", || {
            parser.parse(corpus).expect("parse")
        });
        let (two, _, n) = p.time("core.parallel.parse_j2", || {
            parser.parse_parallel(corpus, 2).expect("parse")
        });
        p.metric("core.parallel.parse_j2_speedup", one / two.max(1e-9), n);
    }
    if wants("io") || wants("mining") {
        let parse = parser.parse(corpus).expect("parse");
        if wants("io") {
            let events = args.scratch.join("probe.events");
            let (s, (), n) = p.time("core.io.write_events", || {
                let mut w = BufWriter::new(File::create(&events).expect("create"));
                write_events_file(&parse, &mut w).expect("write");
                w.flush().expect("flush");
            });
            p.metric("core.io.write_events_s", s, n);
            let structured = args.scratch.join("probe.structured");
            let (s, (), n) = p.time("core.io.write_structured", || {
                let mut w = BufWriter::new(File::create(&structured).expect("create"));
                write_structured_file(corpus, &parse, &mut w).expect("write");
                w.flush().expect("flush");
            });
            p.metric("core.io.write_structured_lines_per_s", per_s(lines, s), n);
        }
        if wants("mining") {
            let session_of: Vec<usize> = data.session.iter().map(|&s| s as usize).collect();
            let (s, counts, n) = p.time("mining.matrix.build", || {
                event_count_matrix(&parse, &session_of, data.sessions)
            });
            p.metric("mining.matrix.build_s", s, n);
            let detector = PcaDetector::new(PcaDetectorConfig::default());
            let (s, _, n) = p.time("mining.anomaly.detect", || detector.detect(&counts));
            p.metric("mining.anomaly.detect_s", s, n);
        }
    }
}

/// A symmetric `EIGEN_SIDE`² count matrix, built through the pinned API
/// alone: a corpus of that many three-token templates in that many sessions,
/// where template `e` occurs in session `s` as often as `s` in `e`, parsed
/// by Drain (which numbers events in first-seen order, so event `k` is
/// template `k`) and counted by `event_count_matrix`.
fn symmetric_counts(scratch: &Path, tokenizer: &Tokenizer) -> logparse_linalg::Matrix {
    let word = |k: usize| {
        let (component, verb) = gen::churn_head(k);
        // Drain also caps the prefix paths per message length at 100, so
        // the templates are spread over four lengths.
        format!("{component} {verb} once{}", " more".repeat(k % 4))
    };
    let mut text = String::new();
    let mut session_of = Vec::new();
    let mut emit = |template: usize, session: usize, times: usize| {
        for _ in 0..times {
            text.push_str(&word(template));
            text.push('\n');
            session_of.push(session);
        }
    };
    for k in 0..EIGEN_SIDE {
        emit(k, k, 1);
    }
    for s in 0..EIGEN_SIDE {
        for e in s + 1..EIGEN_SIDE {
            let weight = (s * 31 + e * 17) % 5;
            emit(e, s, weight);
            emit(s, e, weight);
        }
    }
    let path = scratch.join("eigen.log");
    std::fs::write(&path, text).expect("write eigen corpus");
    let corpus = Corpus::from_path(&path, tokenizer).expect("build eigen corpus");
    let parse = Drain::default().parse(&corpus).expect("parse eigen corpus");
    event_count_matrix(&parse, &session_of, EIGEN_SIDE)
}
