//! **Fig. 2** — running time of the four parsing methods on each dataset
//! as the number of raw log messages grows (RQ2, Finding 3).
//!
//! The paper sweeps each dataset from hundreds of lines up to its full
//! size on a log-log scale, observing that SLCT and IPLoM scale linearly,
//! LogSig linearly but with a large constant (it also grows with the
//! event count), and LKE quadratically — to the point that some scales
//! are not plotted because LKE "could not parse \[them\] in a reasonable
//! time". This runner reproduces the sweep at configurable sizes and
//! applies the same per-method cap so LKE is only run where it can
//! finish.

use logparse_datasets::study_datasets;

use super::{series_table, size_cap, RunOptions, FIGURE_DATASETS};
use crate::{tune, ParserKind, TextTable};

/// One timing measurement.
#[derive(Debug, Clone)]
pub struct TimingPoint {
    /// Dataset name.
    pub dataset: &'static str,
    /// Parsing method.
    pub parser: ParserKind,
    /// Number of messages parsed.
    pub size: usize,
    /// Wall-clock seconds; `None` when the method was skipped at this
    /// size (LKE beyond its cap, mirroring the paper's missing points).
    pub seconds: Option<f64>,
}

/// Configuration of the sweep.
#[derive(Debug, Clone)]
pub struct Fig2Config {
    /// The sweep sizes (paper: 400 up to the full corpus, ×10 steps).
    pub sizes: Vec<usize>,
    /// Largest size at which LKE is attempted (its O(n²) clustering
    /// makes larger inputs take hours, as the paper reports).
    pub lke_cap: usize,
    /// Largest size at which LogSig is attempted (linear, but with a
    /// constant so large the paper measures 2+ hours on 10 M lines).
    pub logsig_cap: usize,
    /// Sample size used to tune parser parameters before timing.
    pub tuning_sample: usize,
    /// Generation seed.
    pub seed: u64,
    /// Thread count for the parse: 1 times the plain sequential parse,
    /// anything higher times `LogParser::parse_parallel` instead.
    pub threads: usize,
}

impl Default for Fig2Config {
    fn default() -> Self {
        Fig2Config {
            sizes: vec![400, 1_000, 4_000, 10_000, 40_000],
            lke_cap: 2_000,
            logsig_cap: 10_000,
            tuning_sample: 1_000,
            seed: 1,
            threads: 1,
        }
    }
}

/// Runs the timing sweep.
pub fn run(config: &Fig2Config) -> Vec<TimingPoint> {
    let max_size = config.sizes.iter().copied().max().unwrap_or(0);
    let mut points = Vec::new();
    for spec in study_datasets() {
        let full = spec.generate(max_size, config.seed);
        let sample = full.sample(config.tuning_sample.min(full.len()), config.seed ^ 0xF16);
        for &kind in &ParserKind::ALL {
            let tuned = tune(kind, &sample);
            for &size in &config.sizes {
                let attempted = size <= size_cap(kind, config.lke_cap, config.logsig_cap);
                // Timing goes through the obs span layer, so the sweep
                // and any live pipeline share one histogram family
                // (`obs_span_duration_seconds{span="parser_parse"}`).
                // Parallel runs time the whole chunk+merge driver (which
                // records its own chunk/merge histograms internally).
                let seconds = attempted
                    .then(|| full.corpus.take(size))
                    .and_then(|corpus| {
                        let parser = tuned.instantiate(0);
                        if config.threads > 1 {
                            // lint:allow(timing-discipline): the parallel driver records its own chunk/merge histograms; this outer clock is the experiment's reported end-to-end number
                            let start = std::time::Instant::now();
                            let parsed = parser.parse_parallel(&corpus, config.threads).ok();
                            parsed.map(|_| start.elapsed().as_secs_f64())
                        } else {
                            let timed = parser.timed_parse(&corpus).ok();
                            timed.map(|(_, d)| d.as_secs_f64())
                        }
                    });
                points.push(TimingPoint {
                    dataset: spec.name(),
                    parser: kind,
                    size,
                    seconds,
                });
            }
        }
    }
    points
}

/// Renders one dataset's timings as a series table (columns = sizes).
pub fn render(points: &[TimingPoint], dataset: &str) -> TextTable {
    let series = || points.iter().filter(|p| p.dataset == dataset);
    series_table(series().map(|p| p.size), |kind, size| {
        let point = series().find(|p| p.parser == kind && p.size == size)?;
        point.seconds.map(|s| format!("{s:.3}s"))
    })
}

/// Fits `log(time) ≈ a·log(n) + b` over a method's measured points and
/// returns the exponent `a` — the empirical scaling order (≈1 for the
/// linear methods, ≈2 for LKE).
pub fn scaling_exponent(points: &[TimingPoint], dataset: &str, parser: ParserKind) -> Option<f64> {
    let series: Vec<(f64, f64)> = points
        .iter()
        .filter(|p| p.dataset == dataset && p.parser == parser)
        .filter_map(|p| {
            p.seconds
                .filter(|&s| s > 0.0)
                .map(|s| ((p.size as f64).ln(), s.ln()))
        })
        .collect();
    if series.len() < 2 {
        return None;
    }
    let n = series.len() as f64;
    let sx: f64 = series.iter().map(|(x, _)| x).sum();
    let sy: f64 = series.iter().map(|(_, y)| y).sum();
    let sxx: f64 = series.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = series.iter().map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    Some((n * sxy - sx * sy) / denom)
}

const PAPER_SHAPE: &str = "\
paper shape: SLCT and IPLoM linear (minutes for 10m lines); LogSig linear with
a large constant (2+ hours for 10m HDFS lines); LKE O(n^2), unable to finish
BGL4m/HDFS10m in reasonable time (points missing).
";

/// [`run`] at the scale `options` selects: the default sweep to 40 000
/// messages (`--quick`: to 4 000, LKE capped at 1 000).
pub fn run_at(options: &RunOptions) -> Vec<TimingPoint> {
    let mut config = Fig2Config {
        threads: options.threads,
        ..Fig2Config::default()
    };
    if options.quick {
        config.sizes = vec![400, 1_000, 4_000];
        config.lke_cap = 1_000;
    }
    run(&config)
}

/// Stdout of the `fig2` experiment: one timing table and the fitted
/// scaling exponents per dataset.
pub fn report(options: &RunOptions) -> String {
    let points = run_at(options);
    let mut out =
        "Fig. 2: Running Time of Log Parsing Methods on Datasets in Different Size\n".to_string();
    for dataset in FIGURE_DATASETS {
        out += &format!("\n({dataset})\n{}", render(&points, dataset));
        for kind in ParserKind::ALL {
            if let Some(a) = scaling_exponent(&points, dataset, kind) {
                out += &format!("  {} empirical scaling exponent: {a:.2}\n", kind.name());
            }
        }
    }
    out + "\n" + PAPER_SHAPE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> Fig2Config {
        Fig2Config {
            sizes: vec![100, 300],
            lke_cap: 150,
            tuning_sample: 100,
            seed: 3,
            ..Fig2Config::default()
        }
    }

    #[test]
    fn sweep_covers_all_combinations() {
        let points = run(&tiny_config());
        // 5 datasets × 4 parsers × 2 sizes.
        assert_eq!(points.len(), 40);
    }

    #[test]
    fn lke_is_skipped_beyond_cap() {
        let points = run(&tiny_config());
        for p in &points {
            if p.parser == ParserKind::Lke && p.size > 150 {
                assert!(p.seconds.is_none(), "LKE at {} must be skipped", p.size);
            } else {
                assert!(p.seconds.is_some(), "{:?} at {} missing", p.parser, p.size);
            }
        }
    }

    #[test]
    fn parallel_sweep_covers_the_same_grid() {
        let config = Fig2Config {
            threads: 2,
            ..tiny_config()
        };
        let points = run(&config);
        assert_eq!(points.len(), 40);
        for p in &points {
            if !(p.parser == ParserKind::Lke && p.size > config.lke_cap) {
                assert!(p.seconds.is_some(), "{:?} at {} missing", p.parser, p.size);
            }
        }
    }

    #[test]
    fn scaling_exponent_recovers_known_slopes() {
        let mk = |size: usize, secs: f64| TimingPoint {
            dataset: "X",
            parser: ParserKind::Slct,
            size,
            seconds: Some(secs),
        };
        // Perfect quadratic series: t = n².
        let points = vec![mk(10, 100.0), mk(100, 10_000.0), mk(1000, 1_000_000.0)];
        let a = scaling_exponent(&points, "X", ParserKind::Slct).unwrap();
        assert!((a - 2.0).abs() < 1e-9);
    }

    #[test]
    fn scaling_exponent_needs_two_points() {
        let points = vec![TimingPoint {
            dataset: "X",
            parser: ParserKind::Lke,
            size: 10,
            seconds: Some(1.0),
        }];
        assert!(scaling_exponent(&points, "X", ParserKind::Lke).is_none());
    }

    #[test]
    fn render_marks_skipped_cells_with_dash() {
        let points = run(&tiny_config());
        let table = render(&points, "HDFS").to_string();
        assert!(table.contains('-'));
        assert!(table.contains("LKE"));
    }
}
