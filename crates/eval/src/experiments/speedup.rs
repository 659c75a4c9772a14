//! **Parallel speedup** — a Table-3-style report for the chunked
//! parsing driver: wall-clock time of `parse_parallel` at 1, 2, 4 and 8
//! threads against the plain sequential parse, per parser per dataset,
//! with a grouping-agreement column.
//!
//! The study's efficiency finding (RQ2) is that parsing time grows with
//! corpus size — linearly for SLCT/IPLoM, quadratically for LKE. The
//! chunked driver attacks both: k chunks cut the constant for linear
//! methods on k cores, and cut the *work* for superlinear methods (k
//! chunks of n/k messages cost k·(n/k)² = n²/k even on one core). The
//! agreement column reports the pairwise F-measure of the parallel
//! grouping against the sequential grouping, quantifying the accuracy
//! cost of chunking (1.00 = identical partition; see DESIGN.md for why
//! exact equality is not guaranteed at k > 1).

use std::time::Instant;

use logparse_core::LogParser;
use logparse_datasets::study_datasets;
use logparse_parsers::{Drain, Iplom, Lke, Slct, Spell};

use super::RunOptions;
use crate::{pairwise_f_measure, TextTable};

/// One (dataset, parser, thread-count) measurement.
#[derive(Debug, Clone)]
pub struct SpeedupPoint {
    /// Dataset name.
    pub dataset: &'static str,
    /// Parser name.
    pub parser: &'static str,
    /// Corpus size in messages.
    pub size: usize,
    /// Thread count of this measurement.
    pub threads: usize,
    /// Wall-clock seconds of `parse_parallel(corpus, threads)`.
    pub seconds: f64,
    /// Wall-clock seconds of the plain sequential `parse(corpus)`.
    pub sequential_seconds: f64,
    /// Pairwise F-measure of the parallel grouping against the
    /// sequential grouping (1.0 = identical partition).
    pub agreement_f1: f64,
}

impl SpeedupPoint {
    /// Sequential time over parallel time (> 1 is a win).
    pub fn speedup(&self) -> f64 {
        self.sequential_seconds / self.seconds.max(1e-12)
    }
}

/// Configuration of the speedup sweep.
#[derive(Debug, Clone)]
pub struct SpeedupConfig {
    /// Corpus size per dataset.
    pub size: usize,
    /// Thread counts to measure.
    pub threads: Vec<usize>,
    /// Datasets to run (names as in [`study_datasets`]).
    pub datasets: Vec<&'static str>,
    /// Largest size at which LKE is attempted (O(n²) sequentially; the
    /// chunked runs divide that cost but the sequential baseline does
    /// not, so the cap bounds the baseline's time).
    pub lke_cap: usize,
    /// Generation seed.
    pub seed: u64,
}

impl Default for SpeedupConfig {
    fn default() -> Self {
        SpeedupConfig {
            size: 20_000,
            threads: vec![1, 2, 4, 8],
            datasets: vec!["HDFS", "BGL"],
            lke_cap: 2_000,
            seed: 1,
        }
    }
}

/// The measured parsers: the study's linear methods, the quadratic LKE,
/// and the two online successors.
fn parsers(size: usize, lke_cap: usize) -> Vec<Box<dyn LogParser>> {
    let mut list: Vec<Box<dyn LogParser>> = vec![
        // SLCT with an *absolute* support: its default fractional
        // support resolves against the corpus it is handed, so a chunk
        // of n/k messages gets a k-times-lower threshold and the
        // chunked run degenerates (support 1 = every distinct message
        // its own cluster). Relative parameters do not commute with
        // chunking; an absolute count is chunk-invariant.
        Box::new(Slct::builder().support_count(2).build()),
        Box::new(Iplom::default()),
        Box::new(Drain::default()),
        Box::new(Spell::default()),
    ];
    if size <= lke_cap {
        list.push(Box::new(Lke::default()));
    }
    list
}

/// Runs the sweep.
pub fn run(config: &SpeedupConfig) -> Vec<SpeedupPoint> {
    let mut points = Vec::new();
    for spec in study_datasets() {
        if !config.datasets.contains(&spec.name()) {
            continue;
        }
        let corpus = spec.generate(config.size, config.seed).corpus;
        for parser in parsers(config.size, config.lke_cap) {
            // lint:allow(timing-discipline): speedup baselines compare raw wall clock between sequential and parallel runs; recording them as spans would double-count the driver's own histograms
            let start = Instant::now();
            let Ok(sequential) = parser.parse(&corpus) else {
                continue;
            };
            let sequential_seconds = start.elapsed().as_secs_f64();
            let sequential_labels = sequential.cluster_labels();
            for &threads in &config.threads {
                // lint:allow(timing-discipline): same raw wall-clock comparison as the sequential baseline above
                let start = Instant::now();
                let Ok(parallel) = parser.parse_parallel(&corpus, threads) else {
                    continue;
                };
                let seconds = start.elapsed().as_secs_f64();
                points.push(SpeedupPoint {
                    dataset: spec.name(),
                    parser: parser.name(),
                    size: config.size,
                    threads,
                    seconds,
                    sequential_seconds,
                    agreement_f1: pairwise_f_measure(
                        &sequential_labels,
                        &parallel.cluster_labels(),
                    )
                    .f1,
                });
            }
        }
    }
    points
}

/// Renders one dataset's sweep: a row per parser, a `time (speedup)`
/// column per thread count, and the worst-case agreement across thread
/// counts in the final column.
pub fn render(points: &[SpeedupPoint], dataset: &str) -> TextTable {
    let mut threads: Vec<usize> = points
        .iter()
        .filter(|p| p.dataset == dataset)
        .map(|p| p.threads)
        .collect();
    threads.sort_unstable();
    threads.dedup();
    let mut parsers: Vec<&'static str> = points
        .iter()
        .filter(|p| p.dataset == dataset)
        .map(|p| p.parser)
        .collect();
    parsers.dedup();

    let mut headers = vec!["Parser".to_string(), "seq".to_string()];
    headers.extend(threads.iter().map(|t| format!("{t}T")));
    headers.push("agree".to_string());
    let mut table = TextTable::new(headers);
    for parser in parsers {
        let series: Vec<&SpeedupPoint> = points
            .iter()
            .filter(|p| p.dataset == dataset && p.parser == parser)
            .collect();
        let Some(first) = series.first() else {
            continue;
        };
        let mut row = vec![
            parser.to_string(),
            format!("{:.3}s", first.sequential_seconds),
        ];
        for &t in &threads {
            let cell = series.iter().find(|p| p.threads == t).map_or_else(
                || "-".to_string(),
                |p| format!("{:.3}s ({:.2}x)", p.seconds, p.speedup()),
            );
            row.push(cell);
        }
        let worst_agreement = series
            .iter()
            .map(|p| p.agreement_f1)
            .fold(f64::INFINITY, f64::min);
        row.push(format!("{worst_agreement:.3}"));
        table.add_row(row);
    }
    table
}

const LEGEND: &str = "\
agree = worst-case pairwise F-measure of the parallel grouping against the
sequential grouping across thread counts (1.000 = identical partition).
On a single core only superlinear methods can beat 1.00x: chunking divides
their work (k chunks of n/k cost n^2/k for LKE), while linear methods need
real cores to gain and pay a small merge overhead here.
";

/// Stdout of the `speedup` experiment: the sweep at the default 20 000
/// messages (`--quick`: 2 000, small enough that the O(n²) LKE is
/// included and shows the algorithmic speedup of chunking).
pub fn report(options: &RunOptions) -> String {
    let mut config = SpeedupConfig::default();
    if options.quick {
        config.size = 2_000;
    }
    let points = run(&config);
    let mut out = "Parallel parsing speedup (chunked driver vs sequential baseline)\n".to_string();
    for dataset in &config.datasets {
        out += &format!(
            "\n({dataset}, {} messages)\n{}",
            config.size,
            render(&points, dataset)
        );
    }
    out + "\n" + LEGEND
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> SpeedupConfig {
        SpeedupConfig {
            size: 300,
            threads: vec![1, 2, 4],
            datasets: vec!["HDFS"],
            lke_cap: 0,
            seed: 3,
        }
    }

    #[test]
    fn sweep_covers_every_parser_thread_pair() {
        let points = run(&tiny_config());
        // 1 dataset × 4 parsers (LKE capped out) × 3 thread counts.
        assert_eq!(points.len(), 12);
        for p in &points {
            assert!(p.seconds > 0.0 && p.sequential_seconds > 0.0);
            assert!((0.0..=1.0).contains(&p.agreement_f1));
        }
    }

    #[test]
    fn one_thread_agreement_is_perfect() {
        let points = run(&tiny_config());
        for p in points.iter().filter(|p| p.threads == 1) {
            assert!(
                (p.agreement_f1 - 1.0).abs() < 1e-12,
                "{} at 1 thread must reproduce the sequential grouping",
                p.parser
            );
        }
    }

    #[test]
    fn lke_respects_its_cap() {
        let mut config = tiny_config();
        config.size = 120;
        config.lke_cap = 200;
        let with_lke = run(&config);
        assert!(with_lke.iter().any(|p| p.parser == "LKE"));
        config.lke_cap = 0;
        assert!(!run(&config).iter().any(|p| p.parser == "LKE"));
    }

    #[test]
    fn render_includes_speedup_and_agreement_columns() {
        let points = run(&tiny_config());
        let table = render(&points, "HDFS").to_string();
        assert!(table.contains("4T"));
        assert!(table.contains("agree"));
        assert!(table.contains('x'));
    }
}
