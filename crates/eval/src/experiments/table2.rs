//! **Table II** — parsing accuracy (F-measure) of the four methods on
//! the five datasets, raw and preprocessed (RQ1, Findings 1–2).
//!
//! Protocol, mirroring §IV-B:
//!
//! * sample 2 000 messages per dataset (the study samples because LKE
//!   and LogSig cannot parse full corpora in reasonable time);
//! * tune each parser's main parameter on the sample;
//! * run once for deterministic parsers, 10 seeds averaged for LogSig;
//! * repeat on the domain-knowledge-preprocessed sample (except
//!   Proxifier, which has nothing to preprocess — the paper prints `-`).

use logparse_core::Preprocessor;
use logparse_datasets::{study_datasets, LabeledCorpus};

use super::{RunOptions, SEED};
use crate::{
    dataset_preprocessor, fmt_f2, pairwise_f_measure, tune, ParserKind, TextTable, TunedParser,
};

/// Accuracy of one parser on one dataset, raw and preprocessed.
#[derive(Debug, Clone, Copy)]
pub struct AccuracyCell {
    /// F-measure on raw messages.
    pub raw: f64,
    /// F-measure on preprocessed messages; `None` when the dataset has no
    /// applicable preprocessing rules (Proxifier).
    pub preprocessed: Option<f64>,
}

/// One dataset column of Table II.
#[derive(Debug, Clone)]
pub struct DatasetAccuracy {
    /// Dataset name.
    pub dataset: &'static str,
    /// Per-parser accuracy, in [`ParserKind::ALL`] order.
    pub cells: Vec<(ParserKind, AccuracyCell)>,
}

/// Averages the parser's F-measure over `runs` seeds (1 for
/// deterministic methods).
fn average_f1(tuned: &TunedParser, sample: &LabeledCorpus, runs: usize) -> f64 {
    let runs = if tuned.kind().is_randomized() {
        runs
    } else {
        1
    };
    let mut total = 0.0;
    for seed in 0..runs as u64 {
        let parser = tuned.instantiate(seed);
        match parser.parse(&sample.corpus) {
            Ok(parse) => {
                total += pairwise_f_measure(&sample.labels, &parse.cluster_labels()).f1;
            }
            Err(_) => { /* counts as zero accuracy for this run */ }
        }
    }
    total / runs as f64
}

fn preprocess_sample(sample: &LabeledCorpus, preprocessor: &Preprocessor) -> LabeledCorpus {
    LabeledCorpus {
        corpus: preprocessor.apply(&sample.corpus),
        labels: sample.labels.clone(),
        truth_templates: sample.truth_templates.clone(),
    }
}

/// Runs the Table II experiment.
///
/// `sample_size` is the per-dataset sample (paper: 2 000); `runs` the
/// number of seeds averaged for randomized methods (paper: 10).
pub fn run(sample_size: usize, runs: usize, seed: u64) -> Vec<DatasetAccuracy> {
    study_datasets()
        .into_iter()
        .map(|spec| {
            // Generate a pool and sample from it, as the paper samples
            // from the full corpora.
            let pool = spec.generate(sample_size * 4, seed);
            let sample = pool.sample(sample_size, seed ^ 0x5A17);
            let preprocessor = dataset_preprocessor(spec.name());
            let preprocessed = (!preprocessor.rules().is_empty())
                .then(|| preprocess_sample(&sample, &preprocessor));

            let cells = ParserKind::ALL
                .iter()
                .map(|&kind| {
                    let tuned_raw = tune(kind, &sample);
                    let raw = average_f1(&tuned_raw, &sample, runs);
                    let preprocessed = preprocessed.as_ref().map(|pre| {
                        let tuned_pre = tune(kind, pre);
                        average_f1(&tuned_pre, pre, runs)
                    });
                    (kind, AccuracyCell { raw, preprocessed })
                })
                .collect();
            DatasetAccuracy {
                dataset: spec.name(),
                cells,
            }
        })
        .collect()
}

/// Renders the results paper-style: one row per parser, one column per
/// dataset, cells as `raw/preprocessed`.
pub fn render(columns: &[DatasetAccuracy]) -> TextTable {
    let mut headers = vec!["Parser".to_string()];
    headers.extend(columns.iter().map(|c| c.dataset.to_string()));
    let mut table = TextTable::new(headers);
    for (i, kind) in ParserKind::ALL.iter().enumerate() {
        let mut row = vec![kind.name().to_string()];
        for column in columns {
            let (cell_kind, cell) = column.cells[i];
            debug_assert_eq!(cell_kind, *kind);
            let pre = cell.preprocessed.map_or_else(|| "-".to_string(), fmt_f2);
            row.push(format!("{}/{}", fmt_f2(cell.raw), pre));
        }
        table.add_row(row);
    }
    table
}

const PAPER_REFERENCE: &str = "\
paper reference:
        BGL        HPC        HDFS       Zookeeper  Proxifier
SLCT    0.61/0.94  0.81/0.86  0.86/0.93  0.92/0.92  0.89/-
IPLoM   0.99/0.99  0.64/0.64  0.99/1.00  0.94/0.90  0.90/-
LKE     0.67/0.70  0.17/0.17  0.57/0.96  0.78/0.82  0.81/-
LogSig  0.26/0.98  0.77/0.87  0.91/0.93  0.96/0.99  0.84/-
";

/// [`run`] at the scale `options` selects: 2 000-message samples and 10
/// seeds for the randomized parsers (`--quick`: 500 and 3).
pub fn run_at(options: &RunOptions) -> Vec<DatasetAccuracy> {
    let (sample, runs) = if options.quick { (500, 3) } else { (2_000, 10) };
    run(sample, runs, SEED)
}

/// Stdout of the `table2` experiment for the columns [`run_at`] returned.
pub fn report_of(columns: &[DatasetAccuracy]) -> String {
    format!(
        "Table II: Parsing Accuracy of Log Parsing Methods (Raw/Preprocessed)\n\n{}\n{PAPER_REFERENCE}",
        render(columns)
    )
}

/// Stdout of the `table2` experiment.
pub fn report(options: &RunOptions) -> String {
    report_of(&run_at(options))
}

#[cfg(test)]
mod tests {
    use super::*;
    use logparse_datasets::{hdfs, proxifier};

    #[test]
    fn average_f1_is_deterministic_for_deterministic_parsers() {
        let sample = proxifier::generate(200, 1);
        let tuned = tune(ParserKind::Iplom, &sample);
        let a = average_f1(&tuned, &sample, 10);
        let b = average_f1(&tuned, &sample, 3);
        assert_eq!(a, b, "runs must not matter for IPLoM");
    }

    #[test]
    fn iplom_is_accurate_on_hdfs_sample() {
        // Finding 1 sanity: IPLoM achieves high accuracy on HDFS.
        let sample = hdfs::generate(600, 2);
        let tuned = tune(ParserKind::Iplom, &sample);
        let f1 = average_f1(&tuned, &sample, 1);
        assert!(f1 > 0.8, "IPLoM F1 on HDFS sample was {f1}");
    }

    #[test]
    fn preprocessing_creates_masked_sample() {
        let sample = hdfs::generate(50, 3);
        let pre = preprocess_sample(&sample, &dataset_preprocessor("HDFS"));
        assert_eq!(pre.len(), sample.len());
        let any_masked = (0..pre.len()).any(|i| {
            pre.corpus
                .tokens(i)
                .iter()
                .any(|&t| t == "$BLK" || t == "$IP")
        });
        assert!(any_masked);
    }

    #[test]
    fn render_shows_dash_for_missing_preprocessed() {
        let columns = vec![DatasetAccuracy {
            dataset: "Proxifier",
            cells: ParserKind::ALL
                .iter()
                .map(|&k| {
                    (
                        k,
                        AccuracyCell {
                            raw: 0.9,
                            preprocessed: None,
                        },
                    )
                })
                .collect(),
        }];
        let rendered = render(&columns).to_string();
        assert!(rendered.contains("0.90/-"));
    }
}
