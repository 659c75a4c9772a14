//! **Extension-parser benchmark** — the Table II protocol applied to the
//! five parsers the follow-on LogPAI toolkit added after the study
//! (Drain, Spell, AEL, LenMa, LogMine).
//!
//! The study's conclusion motivated exactly this line of work ("we plan
//! to improve their efficiency in our future work"; Drain was the
//! authors' own next paper), so the extension table answers the natural
//! question: *did the next generation actually beat the four methods
//! evaluated here?*

use logparse_datasets::study_datasets;
use logparse_parsers::extension_parsers;

use super::{RunOptions, SEED};
use crate::{fmt_f2, pairwise_f_measure, TextTable};

/// Accuracy of one extension parser on one dataset.
#[derive(Debug, Clone)]
pub struct ExtensionPoint {
    /// Parser name.
    pub parser: &'static str,
    /// Dataset name.
    pub dataset: &'static str,
    /// Pairwise F-measure (default configurations, raw messages).
    pub f1: f64,
}

/// Runs the extension benchmark on `sample_size`-message samples.
pub fn run(sample_size: usize, seed: u64) -> Vec<ExtensionPoint> {
    let mut points = Vec::new();
    for spec in study_datasets() {
        let sample = spec.generate(sample_size, seed);
        for parser in extension_parsers() {
            let f1 = parser
                .parse(&sample.corpus)
                .map(|parse| pairwise_f_measure(&sample.labels, &parse.cluster_labels()).f1)
                .unwrap_or(0.0);
            points.push(ExtensionPoint {
                parser: parser.name(),
                dataset: spec.name(),
                f1,
            });
        }
    }
    points
}

/// Renders parsers × datasets.
pub fn render(points: &[ExtensionPoint]) -> TextTable {
    let mut datasets: Vec<&'static str> = points.iter().map(|p| p.dataset).collect();
    datasets.dedup();
    let mut parsers: Vec<&'static str> = points.iter().map(|p| p.parser).collect();
    parsers.sort_unstable();
    parsers.dedup();
    // Keep the registry order rather than alphabetical.
    let ordered: Vec<&'static str> = extension_parsers().iter().map(|p| p.name()).collect();

    let mut headers = vec!["Parser".to_string()];
    headers.extend(datasets.iter().map(ToString::to_string));
    let mut table = TextTable::new(headers);
    for parser in ordered {
        let mut row = vec![parser.to_string()];
        for dataset in &datasets {
            let cell = points
                .iter()
                .find(|p| p.parser == parser && p.dataset == *dataset)
                .map_or_else(|| "-".into(), |p| fmt_f2(p.f1));
            row.push(cell);
        }
        table.add_row(row);
    }
    table
}

const CONTEXT: &str = "\
context: these are the parsers the authors' follow-on LogPAI toolkit added
after the study; compare with the tuned Table II rows of the original four.
";

/// Stdout of the `extensions` experiment: the extension parsers on
/// 2 000-message samples (`--quick`: 500).
pub fn report(options: &RunOptions) -> String {
    let sample = if options.quick { 500 } else { 2_000 };
    format!(
        "Extension parsers (default configs, raw messages): F-measure\n\n{}\n{CONTEXT}",
        render(&run(sample, SEED))
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_parser_dataset_pair() {
        let points = run(150, 1);
        assert_eq!(points.len(), 5 * 5);
    }

    #[test]
    fn drain_is_strong_on_hdfs() {
        let points = run(400, 2);
        let drain_hdfs = points
            .iter()
            .find(|p| p.parser == "Drain" && p.dataset == "HDFS")
            .unwrap();
        assert!(drain_hdfs.f1 > 0.9, "{}", drain_hdfs.f1);
    }

    #[test]
    fn render_lists_all_extension_parsers() {
        let table = render(&run(150, 3)).to_string();
        for name in ["Drain", "Spell", "AEL", "LenMa", "LogMine"] {
            assert!(table.contains(name), "{name} missing");
        }
    }
}
