//! **Mining-task generality** (extension, §III-A) — the effect of parser
//! choice on the study's other two mining tasks: deployment verification
//! (Shang et al.) and Synoptic-style FSM model construction
//! (Beschastnikh et al.).
//!
//! Both tasks consume per-session *event sequences*, so parsing errors
//! corrupt them differently than they corrupt the event-count matrix:
//! merged events hide real differences (verification misses regressions)
//! and split events fabricate novel sequences (false inspection work,
//! spurious FSM branches). The runner quantifies both against the
//! ground-truth parse.

use logparse_core::{Corpus, LogParser, Tokenizer};
use logparse_datasets::hdfs;
use logparse_mining::{sequences_by_session, verify_deployment, FsmModel};

use super::RunOptions;
use crate::{fmt_count, tune, ParserKind, TextTable};

/// One row: a parser's effect on both sequence-based mining tasks.
#[derive(Debug, Clone)]
pub struct MiningTaskRow {
    /// Parser name, or `"Ground truth"`.
    pub parser: &'static str,
    /// Deployment verification: sessions flagged for inspection.
    pub flagged_sessions: usize,
    /// Deployment verification: reduction effect (fraction of deployment
    /// sessions *not* needing inspection).
    pub reduction: f64,
    /// FSM task: structural distance of the mined model from the
    /// ground-truth model (0 = identical structure).
    pub model_distance: f64,
    /// FSM task: spurious transitions relative to the truth model.
    pub extra_edges: usize,
}

/// Configuration.
#[derive(Debug, Clone)]
pub struct MiningTasksConfig {
    /// Development-environment blocks (anomaly-free).
    pub dev_blocks: usize,
    /// Deployment-environment blocks.
    pub prod_blocks: usize,
    /// Anomaly rate in deployment (new behaviour to be flagged).
    pub prod_anomaly_rate: f64,
    /// Tuning sample size.
    pub tuning_sample: usize,
    /// Generation seed.
    pub seed: u64,
}

impl Default for MiningTasksConfig {
    fn default() -> Self {
        MiningTasksConfig {
            dev_blocks: 1_000,
            prod_blocks: 2_000,
            prod_anomaly_rate: 0.03,
            tuning_sample: 1_500,
            seed: 19,
        }
    }
}

/// Runs both tasks for each parser and the ground truth.
pub fn run(config: &MiningTasksConfig) -> Vec<MiningTaskRow> {
    // Development corpus: healthy flows only. Deployment corpus: some
    // anomalous flows — genuinely new sequences a developer must see.
    let dev = hdfs::generate_sessions(config.dev_blocks, 0.0, config.seed);
    let prod = hdfs::generate_sessions(
        config.prod_blocks,
        config.prod_anomaly_rate,
        config.seed + 1,
    );

    // One combined corpus so a single parse yields consistent event ids
    // across both environments.
    let mut lines: Vec<String> = Vec::with_capacity(dev.data.len() + prod.data.len());
    for i in 0..dev.data.len() {
        lines.push(dev.data.corpus.record(i).content.to_owned());
    }
    for i in 0..prod.data.len() {
        lines.push(prod.data.corpus.record(i).content.to_owned());
    }
    let combined = Corpus::from_lines(&lines, &Tokenizer::default());
    let session_count = dev.block_count() + prod.block_count();
    let session_of: Vec<usize> = dev
        .block_of
        .iter()
        .copied()
        .chain(prod.block_of.iter().map(|&b| b + dev.block_count()))
        .collect();

    // Ground-truth sequences and model.
    let truth_labels: Vec<Option<usize>> = dev
        .data
        .labels
        .iter()
        .chain(prod.data.labels.iter())
        .map(|&l| Some(l))
        .collect();
    let truth_sequences = sequences_by_session(
        session_of.iter().copied().zip(truth_labels.iter().copied()),
        session_count,
    );
    let (truth_dev, truth_prod) = truth_sequences.split_at(dev.block_count());
    let truth_model = FsmModel::from_traces(truth_dev);

    let mut rows = Vec::new();
    let sample = hdfs::generate(config.tuning_sample, config.seed + 2);

    for kind in [ParserKind::Slct, ParserKind::LogSig, ParserKind::Iplom] {
        let tuned = tune(kind, &sample);
        let parser: Box<dyn LogParser> = tuned.instantiate(config.seed);
        let Ok(parse) = parser.parse(&combined) else {
            continue;
        };
        let events: Vec<Option<usize>> = parse
            .assignments()
            .iter()
            .map(|a| a.map(|e| e.index()))
            .collect();
        let sequences = sequences_by_session(
            session_of.iter().copied().zip(events.iter().copied()),
            session_count,
        );
        let (dev_seqs, prod_seqs) = sequences.split_at(dev.block_count());
        let report = verify_deployment(dev_seqs, prod_seqs);
        let model = FsmModel::from_traces(dev_seqs);
        rows.push(MiningTaskRow {
            parser: kind.name(),
            flagged_sessions: report.flagged_sessions,
            reduction: report.reduction(),
            model_distance: model.structural_distance(&truth_model),
            extra_edges: model.extra_edges(&truth_model).len(),
        });
    }

    // Ground-truth row.
    let report = verify_deployment(truth_dev, truth_prod);
    rows.push(MiningTaskRow {
        parser: "Ground truth",
        flagged_sessions: report.flagged_sessions,
        reduction: report.reduction(),
        model_distance: 0.0,
        extra_edges: 0,
    });
    rows
}

/// Renders the rows.
pub fn render(rows: &[MiningTaskRow]) -> TextTable {
    let mut table = TextTable::new(vec![
        "Parser",
        "Flagged sessions",
        "Reduction",
        "Model distance",
        "Extra edges",
    ]);
    for row in rows {
        table.add_row(vec![
            row.parser.to_string(),
            fmt_count(row.flagged_sessions),
            format!("{:.1}%", row.reduction * 100.0),
            format!("{:.3}", row.model_distance),
            fmt_count(row.extra_edges),
        ]);
    }
    table
}

const INTERPRETATION: &str = "\
interpretation: a parser that splits events fabricates novel sequences
(flagged sessions above ground truth = wasted inspection; extra FSM edges =
spurious model branches); one that merges them hides real regressions.
";

/// Stdout of the `mining_tasks` experiment: both tasks on the default
/// 1 000 dev / 2 000 prod blocks (`--quick`: 300 / 600).
pub fn report(options: &RunOptions) -> String {
    let mut config = MiningTasksConfig::default();
    if options.quick {
        config.dev_blocks = 300;
        config.prod_blocks = 600;
    }
    format!(
        "Mining-task generality: deployment verification & FSM model construction\n\n{}\n{INTERPRETATION}",
        render(&run(&config))
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> MiningTasksConfig {
        MiningTasksConfig {
            dev_blocks: 120,
            prod_blocks: 200,
            prod_anomaly_rate: 0.05,
            tuning_sample: 300,
            seed: 2,
        }
    }

    #[test]
    fn rows_include_ground_truth_last() {
        let rows = run(&tiny_config());
        assert_eq!(rows.last().unwrap().parser, "Ground truth");
        assert!(rows.len() >= 2);
    }

    #[test]
    fn ground_truth_has_zero_model_distance() {
        let rows = run(&tiny_config());
        let truth = rows.last().unwrap();
        assert_eq!(truth.model_distance, 0.0);
        assert_eq!(truth.extra_edges, 0);
    }

    #[test]
    fn ground_truth_flags_anomalous_sessions() {
        // Anomalous deployment flows are genuinely new sequences; the
        // ground-truth parse must flag at least those.
        let rows = run(&tiny_config());
        let truth = rows.last().unwrap();
        assert!(truth.flagged_sessions > 0);
        assert!(truth.reduction > 0.3, "{}", truth.reduction);
    }

    #[test]
    fn reductions_are_valid_fractions() {
        for row in run(&tiny_config()) {
            assert!((0.0..=1.0).contains(&row.reduction), "{}", row.parser);
        }
    }

    #[test]
    fn render_has_a_row_per_parser() {
        let rows = run(&tiny_config());
        assert_eq!(render(&rows).row_count(), rows.len());
    }
}
