//! **Table I** — summary of the five system log datasets.
//!
//! The paper's table lists, per dataset: a description, the number of
//! log messages, the message length range, and the number of event
//! types. This runner generates each synthetic dataset at a scaled-down
//! size (the paper's sizes divided by `scale_divisor`, so the 16.4 M-line
//! total stays tractable) and summarizes what was actually generated
//! next to the paper's reference numbers.

use logparse_datasets::{study_datasets, LabeledCorpus};

use super::{RunOptions, SEED};
use crate::{fmt_count, TextTable};

/// The paper's reference numbers for one dataset (Table I).
#[derive(Debug, Clone, Copy)]
pub struct PaperRow {
    /// Dataset name.
    pub name: &'static str,
    /// System description.
    pub description: &'static str,
    /// Number of log messages in the real corpus.
    pub logs: usize,
    /// Message length range in tokens.
    pub length: (usize, usize),
    /// Number of event types.
    pub events: usize,
}

/// Table I as printed in the paper.
pub const PAPER_TABLE1: [PaperRow; 5] = [
    PaperRow {
        name: "BGL",
        description: "BlueGene/L Supercomputer",
        logs: 4_747_963,
        length: (10, 102),
        events: 376,
    },
    PaperRow {
        name: "HPC",
        description: "High Performance Cluster (Los Alamos)",
        logs: 433_490,
        length: (6, 104),
        events: 105,
    },
    PaperRow {
        name: "Proxifier",
        description: "Proxy Client",
        logs: 10_108,
        length: (10, 27),
        events: 8,
    },
    PaperRow {
        name: "HDFS",
        description: "Hadoop File System",
        logs: 11_175_629,
        length: (8, 29),
        events: 29,
    },
    PaperRow {
        name: "Zookeeper",
        description: "Distributed System Coordinator",
        logs: 74_380,
        length: (8, 27),
        events: 80,
    },
];

/// Sum of the paper's dataset sizes (the abstract's "over ten million
/// raw log messages"; Table I totals 16 441 570).
pub const PAPER_TOTAL_LOGS: usize = 16_441_570;

/// One generated-dataset summary row.
#[derive(Debug, Clone)]
pub struct DatasetSummary {
    /// The paper's reference numbers.
    pub paper: PaperRow,
    /// Messages generated.
    pub generated_logs: usize,
    /// Observed message length range in the generated corpus.
    pub generated_length: (usize, usize),
    /// Distinct events observed in the generated corpus.
    pub generated_events: usize,
    /// Event types in the generator's template library.
    pub library_events: usize,
}

/// Generates all five datasets at `paper size / scale_divisor` (minimum
/// 1 000 messages each) and summarizes them.
///
/// # Panics
///
/// Panics if `scale_divisor` is zero.
pub fn run(scale_divisor: usize, seed: u64) -> Vec<DatasetSummary> {
    assert!(scale_divisor > 0, "scale divisor must be positive");
    study_datasets()
        .into_iter()
        .zip(PAPER_TABLE1)
        .map(|(spec, paper)| {
            debug_assert_eq!(spec.name(), paper.name);
            let n = (paper.logs / scale_divisor).max(1_000);
            let data: LabeledCorpus = spec.generate(n, seed);
            let mut min_len = usize::MAX;
            let mut max_len = 0;
            for i in 0..data.len() {
                let l = data.corpus.tokens(i).len();
                min_len = min_len.min(l);
                max_len = max_len.max(l);
            }
            DatasetSummary {
                paper,
                generated_logs: data.len(),
                generated_length: (min_len, max_len),
                generated_events: data.distinct_events(),
                library_events: spec.event_count(),
            }
        })
        .collect()
}

/// Renders the summaries as a paper-style table.
pub fn render(rows: &[DatasetSummary]) -> TextTable {
    let mut table = TextTable::new(vec![
        "System",
        "Description",
        "#Logs (paper)",
        "#Logs (gen)",
        "Length (paper)",
        "Length (gen)",
        "#Events (paper)",
        "#Events (gen)",
    ]);
    for row in rows {
        table.add_row(vec![
            row.paper.name.into(),
            row.paper.description.into(),
            fmt_count(row.paper.logs),
            fmt_count(row.generated_logs),
            format!("{}~{}", row.paper.length.0, row.paper.length.1),
            format!("{}~{}", row.generated_length.0, row.generated_length.1),
            row.paper.events.to_string(),
            format!("{}/{}", row.generated_events, row.library_events),
        ]);
    }
    table
}

/// Stdout of the `table1` experiment: Table I at paper sizes / 1 000
/// (`--quick`: / 10 000) and the generated total beside the paper's.
pub fn report(options: &RunOptions) -> String {
    let divisor = if options.quick { 10_000 } else { 1_000 };
    let rows = run(divisor, SEED);
    format!(
        "Table I: Summary of the system log datasets (synthetic, paper sizes / {divisor})\n\n\
         {}\npaper total: {} lines; generated total: {} lines\n",
        render(&rows),
        fmt_count(PAPER_TOTAL_LOGS),
        fmt_count(rows.iter().map(|r| r.generated_logs).sum()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_total_matches_row_sum() {
        let sum: usize = PAPER_TABLE1.iter().map(|r| r.logs).sum();
        assert_eq!(sum, PAPER_TOTAL_LOGS);
    }

    #[test]
    fn run_produces_five_rows_in_paper_order() {
        let rows = run(10_000, 1);
        let names: Vec<&str> = rows.iter().map(|r| r.paper.name).collect();
        assert_eq!(names, vec!["BGL", "HPC", "Proxifier", "HDFS", "Zookeeper"]);
    }

    #[test]
    fn generated_event_libraries_match_paper_counts() {
        for row in run(10_000, 2) {
            assert_eq!(row.library_events, row.paper.events, "{}", row.paper.name);
            assert!(row.generated_events <= row.library_events);
        }
    }

    #[test]
    fn generated_lengths_are_positive_and_bounded() {
        for row in run(10_000, 3) {
            assert!(row.generated_length.0 >= 1);
            assert!(row.generated_length.1 >= row.generated_length.0);
            assert!(row.generated_length.1 <= 120, "{}", row.paper.name);
        }
    }

    #[test]
    fn render_has_one_line_per_dataset() {
        let rows = run(10_000, 4);
        let table = render(&rows);
        assert_eq!(table.row_count(), 5);
    }
}
