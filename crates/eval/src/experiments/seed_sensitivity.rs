//! **Seed-sensitivity ablation** — how much does LogSig's randomized
//! initialization matter?
//!
//! The study runs the randomized methods "10 times to avoid bias of
//! clustering algorithms" and reports averages (§IV-A), but never shows
//! the spread those averages hide. This ablation measures it: per
//! dataset, LogSig's accuracy across seeds, reported as mean ± spread.
//! A large spread is itself a usability finding — a parser whose
//! accuracy depends on the seed needs every one of those 10 runs.

use logparse_datasets::study_datasets;

use super::{RunOptions, SEED};
use crate::{pairwise_f_measure, tune, ParserKind, TextTable};

/// Per-dataset seed statistics for LogSig.
#[derive(Debug, Clone)]
pub struct SeedStats {
    /// Dataset name.
    pub dataset: &'static str,
    /// Per-seed F-measures, indexed by seed.
    pub runs: Vec<f64>,
}

impl SeedStats {
    /// Mean F-measure (what the paper's tables show).
    pub fn mean(&self) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        self.runs.iter().sum::<f64>() / self.runs.len() as f64
    }

    /// Max − min spread across seeds (what the averaging hides).
    pub fn spread(&self) -> f64 {
        let max = self.runs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = self.runs.iter().copied().fold(f64::INFINITY, f64::min);
        if self.runs.is_empty() {
            0.0
        } else {
            max - min
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        if self.runs.len() < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let var = self
            .runs
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / (self.runs.len() - 1) as f64;
        var.sqrt()
    }
}

/// Runs LogSig with `seeds` different seeds on a `sample_size`-message
/// sample of every dataset.
pub fn run(sample_size: usize, seeds: usize, seed: u64) -> Vec<SeedStats> {
    study_datasets()
        .into_iter()
        .map(|spec| {
            let sample = spec.generate(sample_size, seed);
            let tuned = tune(ParserKind::LogSig, &sample);
            let runs = (0..seeds as u64)
                .map(|s| {
                    tuned
                        .instantiate(s)
                        .parse(&sample.corpus)
                        .map(|p| pairwise_f_measure(&sample.labels, &p.cluster_labels()).f1)
                        .unwrap_or(0.0)
                })
                .collect();
            SeedStats {
                dataset: spec.name(),
                runs,
            }
        })
        .collect()
}

/// Renders the statistics.
pub fn render(stats: &[SeedStats]) -> TextTable {
    let mut table = TextTable::new(vec!["Dataset", "Mean F1", "Std dev", "Spread", "Runs"]);
    for s in stats {
        table.add_row(vec![
            s.dataset.to_string(),
            format!("{:.3}", s.mean()),
            format!("{:.3}", s.std_dev()),
            format!("{:.3}", s.spread()),
            s.runs.len().to_string(),
        ]);
    }
    table
}

const CONTEXT: &str = "\
the study reports 10-run averages (§IV-A); the spread column shows how
much a single unlucky seed can deviate from that average.
";

/// Stdout of the `seed_sensitivity` experiment: LogSig over 10 seeds on
/// 2 000-message samples (`--quick`: 5 seeds on 500).
pub fn report(options: &RunOptions) -> String {
    let (sample, seeds) = if options.quick { (500, 5) } else { (2_000, 10) };
    format!(
        "LogSig accuracy across {seeds} random initializations\n\n{}\n{CONTEXT}",
        render(&run(sample, seeds, SEED))
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics_are_consistent() {
        let stats = SeedStats {
            dataset: "X",
            runs: vec![0.8, 0.9, 1.0],
        };
        assert!((stats.mean() - 0.9).abs() < 1e-12);
        assert!((stats.spread() - 0.2).abs() < 1e-12);
        assert!((stats.std_dev() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn degenerate_stats_are_zero() {
        let empty = SeedStats {
            dataset: "X",
            runs: vec![],
        };
        assert_eq!(empty.mean(), 0.0);
        let single = SeedStats {
            dataset: "X",
            runs: vec![0.5],
        };
        assert_eq!(single.std_dev(), 0.0);
    }

    #[test]
    fn run_produces_per_dataset_rows() {
        let stats = run(120, 3, 5);
        assert_eq!(stats.len(), 5);
        for s in &stats {
            assert_eq!(s.runs.len(), 3);
            for &f in &s.runs {
                assert!((0.0..=1.0).contains(&f));
            }
        }
    }

    #[test]
    fn render_has_one_row_per_dataset() {
        let stats = run(120, 2, 7);
        assert_eq!(render(&stats).row_count(), 5);
    }
}
