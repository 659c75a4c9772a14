//! **Detector comparison** (extension) — PCA subspace detection
//! (Xu et al., the study's RQ3 model) versus invariant mining
//! (Lou et al., the study's reference \[25\]) on the same HDFS block
//! sessions and the same parses.
//!
//! Both consume the session × event count matrix, so parser quality
//! corrupts both — but differently: PCA degrades through the geometry of
//! the whole matrix, while invariant mining only needs the columns
//! participating in its mined laws to stay clean.
//!
//! The comparison also exposes a blind spot of each model: invariant
//! mining catches *flow-integrity* violations (truncated writes, replica
//! under-counts — sessions that break a mined law) but cannot see
//! anomalies that only **add** events while keeping the write path
//! intact; PCA sees those additive anomalies as off-subspace deviations
//! but needs the anomaly population to stay small relative to normal
//! variance.

use logparse_datasets::hdfs;
use logparse_mining::{
    event_count_matrix, truth_count_matrix, InvariantMiner, InvariantMinerConfig, PcaDetector,
    PcaDetectorConfig,
};

use super::RunOptions;
use crate::{fmt_count, pairwise_f_measure, tune, ParserKind, TextTable};

/// One comparison row.
#[derive(Debug, Clone)]
pub struct ComparePoint {
    /// Parser name or `"Ground truth"`.
    pub parser: &'static str,
    /// Parsing accuracy of the parse used.
    pub parsing_accuracy: f64,
    /// PCA detector: (detected, false alarms).
    pub pca: (usize, usize),
    /// Invariant detector: (detected, false alarms).
    pub invariants: (usize, usize),
    /// Number of invariants mined from this parse's matrix.
    pub invariant_count: usize,
}

/// Configuration.
#[derive(Debug, Clone)]
pub struct CompareConfig {
    /// Simulated blocks.
    pub blocks: usize,
    /// Anomalous block rate.
    pub anomaly_rate: f64,
    /// Tuning sample for the parsers.
    pub tuning_sample: usize,
    /// Generation seed.
    pub seed: u64,
}

impl Default for CompareConfig {
    fn default() -> Self {
        CompareConfig {
            blocks: 3_000,
            anomaly_rate: 0.029,
            tuning_sample: 2_000,
            seed: 23,
        }
    }
}

/// Runs both detectors over parses of the same session corpus.
pub fn run(config: &CompareConfig) -> (Vec<ComparePoint>, usize) {
    let sessions = hdfs::generate_sessions(config.blocks, config.anomaly_rate, config.seed);
    let truth = &sessions.anomalous;
    let pca = PcaDetector::new(PcaDetectorConfig {
        components: Some(2),
        ..PcaDetectorConfig::default()
    });
    let miner = InvariantMiner::new(InvariantMinerConfig::default());
    let sample = sessions.data.sample(
        config.tuning_sample.min(sessions.data.len()),
        config.seed ^ 0x77,
    );

    let mut rows = Vec::new();
    let mut evaluate = |name: &'static str, accuracy: f64, counts: logparse_linalg::Matrix| {
        let pca_report = pca.detect(&counts);
        let model = miner.mine(&counts);
        let violations = model.violations(&counts);
        let inv_detected = violations.iter().filter(|&&i| truth[i]).count();
        rows.push(ComparePoint {
            parser: name,
            parsing_accuracy: accuracy,
            pca: pca_report.confusion(truth),
            invariants: (inv_detected, violations.len() - inv_detected),
            invariant_count: model.invariants().len(),
        });
    };

    for kind in [ParserKind::LogSig, ParserKind::Iplom] {
        let tuned = tune(kind, &sample);
        if let Ok(parse) = tuned.instantiate(config.seed).parse(&sessions.data.corpus) {
            let accuracy = pairwise_f_measure(&sessions.data.labels, &parse.cluster_labels()).f1;
            let counts = event_count_matrix(&parse, &sessions.block_of, sessions.block_count());
            evaluate(kind.name(), accuracy, counts);
        }
    }
    let counts = truth_count_matrix(
        &sessions.data.labels,
        sessions.data.truth_templates.len(),
        &sessions.block_of,
        sessions.block_count(),
    );
    evaluate("Ground truth", 1.0, counts);
    (rows, sessions.anomaly_count())
}

/// Renders the comparison.
pub fn render(rows: &[ComparePoint], anomalies: usize) -> TextTable {
    let mut table = TextTable::new(vec![
        "Parser",
        "Accuracy",
        "PCA detected",
        "PCA false alarms",
        "Inv detected",
        "Inv false alarms",
        "#Invariants",
    ]);
    for r in rows {
        table.add_row(vec![
            r.parser.to_string(),
            format!("{:.2}", r.parsing_accuracy),
            format!("{} / {}", fmt_count(r.pca.0), fmt_count(anomalies)),
            fmt_count(r.pca.1),
            format!("{} / {}", fmt_count(r.invariants.0), fmt_count(anomalies)),
            fmt_count(r.invariants.1),
            fmt_count(r.invariant_count),
        ]);
    }
    table
}

const INTERPRETATION: &str = "\
invariant mining catches flow-integrity violations (truncated writes,
replica under-counts) with near-zero false alarms but cannot see anomalies
that only add events; PCA sees those but needs anomalies to stay rare.
";

/// Stdout of the `invariant_compare` experiment: both detectors on the
/// default 3 000 blocks (`--quick`: 600).
pub fn report(options: &RunOptions) -> String {
    let mut config = CompareConfig::default();
    if options.quick {
        config.blocks = 600;
    }
    let (rows, anomalies) = run(&config);
    format!(
        "PCA (Xu et al.) vs invariant mining (Lou et al.) — {anomalies} true anomalies\n\n\
         {}\n{INTERPRETATION}",
        render(&rows, anomalies)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> CompareConfig {
        CompareConfig {
            blocks: 400,
            anomaly_rate: 0.04,
            tuning_sample: 400,
            seed: 3,
        }
    }

    #[test]
    fn rows_cover_parsers_and_truth() {
        let (rows, anomalies) = run(&tiny_config());
        assert_eq!(rows.last().unwrap().parser, "Ground truth");
        assert!(anomalies > 0);
        assert!(rows.len() >= 2);
    }

    #[test]
    fn truth_invariants_catch_the_flow_violating_anomalies() {
        let (rows, anomalies) = run(&tiny_config());
        let truth_row = rows.last().unwrap();
        assert!(truth_row.invariant_count > 0, "no invariants mined");
        // The write-path laws (receiving = received = responder,
        // receiving = 3·allocate) are violated by the truncated-write and
        // replication-storm flows — roughly 2 of the 5 injected anomaly
        // kinds. Additive anomalies (redundant adds, serve failures)
        // keep the laws intact and are invisible to this model.
        assert!(
            truth_row.invariants.0 * 5 >= anomalies,
            "invariants detected {} of {anomalies}",
            truth_row.invariants.0
        );
        assert!(
            truth_row.invariants.0 < anomalies,
            "additive anomalies should escape the invariant model"
        );
    }

    #[test]
    fn truth_invariants_have_few_false_alarms() {
        let (rows, _) = run(&tiny_config());
        let truth_row = rows.last().unwrap();
        assert!(
            truth_row.invariants.1 <= 400 / 20,
            "{} false alarms",
            truth_row.invariants.1
        );
    }

    #[test]
    fn render_has_a_row_per_entry() {
        let (rows, anomalies) = run(&tiny_config());
        assert_eq!(render(&rows, anomalies).row_count(), rows.len());
    }
}
