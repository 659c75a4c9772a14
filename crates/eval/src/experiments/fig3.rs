//! **Fig. 3** — parsing accuracy on datasets of increasing size, with
//! parameters tuned once on a 2 000-message sample (RQ2, Finding 4).
//!
//! The paper tunes each method on the small sample, then applies those
//! frozen parameters to larger and larger corpora, observing that IPLoM
//! (and mostly SLCT) stay consistent while LKE is volatile and LogSig
//! degrades on event-rich datasets — which is what makes parameter
//! tuning on samples impractical for the clustering methods.

use logparse_datasets::study_datasets;

use super::{series_table, size_cap, RunOptions, FIGURE_DATASETS};
use crate::{pairwise_f_measure, tune, ParserKind, TextTable};

/// One accuracy measurement of the sweep.
#[derive(Debug, Clone)]
pub struct AccuracyPoint {
    /// Dataset name.
    pub dataset: &'static str,
    /// Parsing method.
    pub parser: ParserKind,
    /// Corpus size parsed.
    pub size: usize,
    /// Pairwise F-measure; `None` when the method was skipped (LKE
    /// beyond its cap) or failed.
    pub f1: Option<f64>,
}

/// Configuration of the sweep.
#[derive(Debug, Clone)]
pub struct Fig3Config {
    /// Sizes to evaluate.
    pub sizes: Vec<usize>,
    /// Tuning sample size (paper: 2 000).
    pub tuning_sample: usize,
    /// Largest size at which LKE is attempted.
    pub lke_cap: usize,
    /// Largest size at which LogSig is attempted.
    pub logsig_cap: usize,
    /// Generation seed.
    pub seed: u64,
}

impl Default for Fig3Config {
    fn default() -> Self {
        Fig3Config {
            sizes: vec![400, 1_000, 4_000, 10_000],
            tuning_sample: 2_000,
            lke_cap: 2_000,
            logsig_cap: 10_000,
            seed: 2,
        }
    }
}

/// Runs the accuracy-stability sweep.
pub fn run(config: &Fig3Config) -> Vec<AccuracyPoint> {
    let max_size = config.sizes.iter().copied().max().unwrap_or(0);
    let mut points = Vec::new();
    for spec in study_datasets() {
        let full = spec.generate(max_size, config.seed);
        let sample = full.sample(config.tuning_sample.min(full.len()), config.seed ^ 0xF3);
        for &kind in &ParserKind::ALL {
            // Parameters frozen from the sample, as in the paper.
            let tuned = tune(kind, &sample);
            for &size in &config.sizes {
                let attempted = size <= size_cap(kind, config.lke_cap, config.logsig_cap);
                let f1 = attempted.then(|| full.take(size)).and_then(|subset| {
                    let parse = tuned.instantiate(0).parse(&subset.corpus).ok()?;
                    Some(pairwise_f_measure(&subset.labels, &parse.cluster_labels()).f1)
                });
                points.push(AccuracyPoint {
                    dataset: spec.name(),
                    parser: kind,
                    size,
                    f1,
                });
            }
        }
    }
    points
}

/// Renders one dataset's accuracy series (columns = sizes).
pub fn render(points: &[AccuracyPoint], dataset: &str) -> TextTable {
    let series = || points.iter().filter(|p| p.dataset == dataset);
    series_table(series().map(|p| p.size), |kind, size| {
        let point = series().find(|p| p.parser == kind && p.size == size)?;
        point.f1.map(|f| format!("{f:.2}"))
    })
}

/// Accuracy spread (max − min F1) of a method across the sweep — the
/// paper's notion of (in)consistency, e.g. "IPLoM performs consistently
/// in most cases" vs. "the accuracy of LKE is volatile".
pub fn consistency_spread(
    points: &[AccuracyPoint],
    dataset: &str,
    parser: ParserKind,
) -> Option<f64> {
    let values: Vec<f64> = points
        .iter()
        .filter(|p| p.dataset == dataset && p.parser == parser)
        .filter_map(|p| p.f1)
        .collect();
    if values.is_empty() {
        return None;
    }
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    Some(max - min)
}

const PAPER_SHAPE: &str = "\
paper shape: IPLoM consistent in most cases; SLCT consistent except HPC; LKE
volatile; LogSig consistent on event-poor datasets, varying on BGL/HPC.
";

/// [`run`] at the scale `options` selects: parameters tuned on 2 000
/// messages, sizes to 40 000 (`--quick`: tuned on 1 000, sizes to 4 000,
/// LKE capped at 1 000).
pub fn run_at(options: &RunOptions) -> Vec<AccuracyPoint> {
    let mut config = Fig3Config::default();
    if options.quick {
        config.sizes = vec![400, 1_000, 4_000];
        config.tuning_sample = 1_000;
        config.lke_cap = 1_000;
    } else {
        config.sizes.push(40_000);
    }
    run(&config)
}

/// Stdout of the `fig3` experiment for the points [`run_at`] returned:
/// one accuracy table and the per-parser spreads per dataset.
pub fn report_of(points: &[AccuracyPoint]) -> String {
    let mut out =
        "Fig. 3: Parsing Accuracy on Datasets in Different Size (params tuned on sample)\n"
            .to_string();
    for dataset in FIGURE_DATASETS {
        out += &format!("\n({dataset})\n{}", render(points, dataset));
        for kind in ParserKind::ALL {
            if let Some(s) = consistency_spread(points, dataset, kind) {
                out += &format!("  {} accuracy spread across sizes: {s:.2}\n", kind.name());
            }
        }
    }
    out + "\n" + PAPER_SHAPE
}

/// Stdout of the `fig3` experiment.
pub fn report(options: &RunOptions) -> String {
    report_of(&run_at(options))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> Fig3Config {
        Fig3Config {
            sizes: vec![150, 400],
            tuning_sample: 150,
            lke_cap: 200,
            seed: 5,
            ..Fig3Config::default()
        }
    }

    #[test]
    fn sweep_covers_all_combinations() {
        let points = run(&tiny_config());
        assert_eq!(points.len(), 40); // 5 datasets × 4 parsers × 2 sizes
    }

    #[test]
    fn lke_skipped_beyond_cap_others_present() {
        let points = run(&tiny_config());
        for p in &points {
            if p.parser == ParserKind::Lke && p.size > 200 {
                assert!(p.f1.is_none());
            } else {
                assert!(p.f1.is_some(), "{:?}/{} missing", p.parser, p.size);
            }
        }
    }

    #[test]
    fn f1_values_are_valid_probabilities() {
        for p in run(&tiny_config()) {
            if let Some(f) = p.f1 {
                assert!((0.0..=1.0).contains(&f), "{f}");
            }
        }
    }

    #[test]
    fn consistency_spread_computes_range() {
        let mk = |size, f1| AccuracyPoint {
            dataset: "X",
            parser: ParserKind::Iplom,
            size,
            f1: Some(f1),
        };
        let points = vec![mk(10, 0.9), mk(100, 0.95), mk(1000, 0.85)];
        let spread = consistency_spread(&points, "X", ParserKind::Iplom).unwrap();
        assert!((spread - 0.1).abs() < 1e-12);
        assert!(consistency_spread(&points, "Y", ParserKind::Iplom).is_none());
    }

    #[test]
    fn render_contains_every_parser() {
        let points = run(&tiny_config());
        let table = render(&points, "Proxifier").to_string();
        for kind in ParserKind::ALL {
            assert!(table.contains(kind.name()));
        }
    }
}
