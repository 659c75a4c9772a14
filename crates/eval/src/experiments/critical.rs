//! **Finding 6 ablation** — "log mining is sensitive to some critical
//! events. 4 % errors in parsing could even cause an order of magnitude
//! performance degradation in log mining."
//!
//! The paper derives this from comparing SLCT (accuracy 0.83, 7 515
//! false alarms) with LogSig (0.87, 413): comparable F-measures, wildly
//! different mining outcomes, because what matters is *which* events the
//! errors fall on. This runner makes the mechanism explicit: starting
//! from the exactly-correct structured log it injects controlled *merge*
//! errors — a fraction of one event class's messages are relabeled as a
//! common event, the signature mistake of support-thresholded parsers
//! like SLCT, which cannot form clusters for rare templates at all.
//!
//! * **critical** target: the anomaly-signature events (exceptions,
//!   failed transfers, replication timeouts). They are a vanishing share
//!   of all messages — merging even all of them is ≪ 1 % overall error —
//!   yet doing so reshapes the fitted PCA model and sends false alarms
//!   up an order of magnitude.
//! * **non-critical** control: a rare-but-benign event
//!   (`Transmitted block …` → `Served block …`); the same error rates
//!   leave the detector essentially untouched.

use logparse_datasets::hdfs::{self, event};
use logparse_mining::{truth_count_matrix, PcaDetector, PcaDetectorConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::RunOptions;
use crate::{fmt_count, TextTable};

/// Which event class the corruption targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionTarget {
    /// The anomaly-signature events, misparsed as `Receiving block …`.
    Critical,
    /// `Transmitted block …` misparsed as `Served block …` — rare but
    /// carrying no anomaly signal.
    NonCritical,
}

impl CorruptionTarget {
    /// Event indices whose messages get corrupted.
    fn sources(self) -> &'static [usize] {
        match self {
            CorruptionTarget::Critical => &[
                event::EXCEPTION_RECEIVE,
                event::WRITE_EXCEPTION,
                event::FAILED_TRANSFER,
                event::PENDING_TIMEOUT,
                event::REDUNDANT_ADD,
                event::UNEXPECTED_DELETE,
                event::SERVE_EXCEPTION,
            ],
            CorruptionTarget::NonCritical => &[event::TRANSMITTED],
        }
    }

    /// The common event the corrupted messages are merged into.
    fn merged_into(self) -> usize {
        match self {
            CorruptionTarget::Critical => event::RECEIVING,
            CorruptionTarget::NonCritical => event::SERVED,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CorruptionTarget::Critical => "critical",
            CorruptionTarget::NonCritical => "non-critical",
        }
    }
}

/// One measurement of the ablation.
#[derive(Debug, Clone)]
pub struct CriticalPoint {
    /// Corruption target.
    pub target: CorruptionTarget,
    /// Fraction of the target events' messages that were mislabeled.
    pub error_rate: f64,
    /// Overall fraction of messages with a wrong label — the number to
    /// compare with parsing-accuracy figures; even `error_rate = 1.0`
    /// stays below 1 % overall for the critical class.
    pub overall_error: f64,
    /// Sessions the detector flagged.
    pub reported: usize,
    /// True anomalies among the reported.
    pub detected: usize,
    /// False alarms among the reported.
    pub false_alarms: usize,
}

/// Configuration of the ablation.
#[derive(Debug, Clone)]
pub struct CriticalConfig {
    /// Number of simulated blocks.
    pub blocks: usize,
    /// Anomalous block rate.
    pub anomaly_rate: f64,
    /// Error rates to sweep over the target events' messages.
    pub error_rates: Vec<f64>,
    /// Generation/corruption seed.
    pub seed: u64,
    /// Detector settings (same tuned operating point as Table III).
    pub detector: PcaDetectorConfig,
}

impl Default for CriticalConfig {
    fn default() -> Self {
        CriticalConfig {
            blocks: 5_000,
            anomaly_rate: 0.029,
            error_rates: vec![0.0, 0.01, 0.04, 0.16, 0.5, 1.0],
            seed: 13,
            detector: PcaDetectorConfig {
                components: Some(2),
                ..PcaDetectorConfig::default()
            },
        }
    }
}

/// Runs the ablation: for every `(target, error_rate)` pair, corrupt the
/// ground-truth labels and run the PCA detector.
pub fn run(config: &CriticalConfig) -> Vec<CriticalPoint> {
    let sessions = hdfs::generate_sessions(config.blocks, config.anomaly_rate, config.seed);
    let detector = PcaDetector::new(config.detector.clone());
    let event_count = sessions.data.truth_templates.len();
    let mut points = Vec::new();

    for &target in &[CorruptionTarget::Critical, CorruptionTarget::NonCritical] {
        let sources = target.sources();
        let into = target.merged_into();
        for &rate in &config.error_rates {
            let mut rng = StdRng::seed_from_u64(config.seed ^ (rate.to_bits().rotate_left(17)));
            let mut labels = sessions.data.labels.clone();
            let mut corrupted = 0usize;
            for label in labels.iter_mut() {
                if sources.contains(label) && rng.gen_bool(rate) {
                    *label = into;
                    corrupted += 1;
                }
            }
            let counts = truth_count_matrix(
                &labels,
                event_count,
                &sessions.block_of,
                sessions.block_count(),
            );
            let report = detector.detect(&counts);
            let (detected, false_alarms) = report.confusion(&sessions.anomalous);
            points.push(CriticalPoint {
                target,
                error_rate: rate,
                overall_error: corrupted as f64 / labels.len() as f64,
                reported: report.reported(),
                detected,
                false_alarms,
            });
        }
    }
    points
}

/// Renders the ablation as a table with one row per measurement.
pub fn render(points: &[CriticalPoint]) -> TextTable {
    let mut table = TextTable::new(vec![
        "Target",
        "Event error rate",
        "Overall error",
        "Reported",
        "Detected",
        "False Alarm",
    ]);
    for p in points {
        table.add_row(vec![
            p.target.name().to_string(),
            format!("{:.0}%", p.error_rate * 100.0),
            format!("{:.3}%", p.overall_error * 100.0),
            fmt_count(p.reported),
            fmt_count(p.detected),
            fmt_count(p.false_alarms),
        ]);
    }
    table
}

const PAPER_CLAIM: &str = "\
paper claim: \"4% errors in parsing could even cause an order of magnitude
performance degradation in log mining\" — observe the false-alarm column of
the critical target versus the non-critical control at equal error rates,
and note how small the overall error fraction stays.
";

/// Stdout of the `critical_events` experiment: the ablation at the
/// default 5 000 blocks (`--quick`: 1 000).
pub fn report(options: &RunOptions) -> String {
    let mut config = CriticalConfig::default();
    if options.quick {
        config.blocks = 1_000;
    }
    format!(
        "Finding 6 ablation: merge errors on critical vs. non-critical events\n\n{}\n{PAPER_CLAIM}",
        render(&run(&config))
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(blocks: usize, seed: u64) -> CriticalConfig {
        CriticalConfig {
            blocks,
            anomaly_rate: 0.03,
            error_rates: vec![0.0, 1.0],
            seed,
            ..CriticalConfig::default()
        }
    }

    fn fa(points: &[CriticalPoint], target: CorruptionTarget, rate: f64) -> usize {
        points
            .iter()
            .find(|p| p.target == target && p.error_rate == rate)
            .unwrap()
            .false_alarms
    }

    #[test]
    fn zero_error_rate_matches_ground_truth_baseline() {
        let points = run(&config(400, 3));
        assert_eq!(
            fa(&points, CorruptionTarget::Critical, 0.0),
            fa(&points, CorruptionTarget::NonCritical, 0.0)
        );
        let zero = points.iter().find(|p| p.error_rate == 0.0).unwrap();
        assert_eq!(zero.overall_error, 0.0);
    }

    #[test]
    fn critical_errors_cause_order_of_magnitude_false_alarm_growth() {
        let points = run(&config(3000, 5));
        let baseline = fa(&points, CorruptionTarget::Critical, 0.0).max(1);
        let corrupted = fa(&points, CorruptionTarget::Critical, 1.0);
        let control = fa(&points, CorruptionTarget::NonCritical, 1.0);
        assert!(
            corrupted >= 10 * baseline && corrupted >= 5 * control.max(1),
            "Finding 6 — mining is sensitive to critical events: {corrupted} false alarms with \
             the critical events misparsed, {baseline} at baseline, {control} with the same \
             errors on a non-critical event"
        );
    }

    #[test]
    fn critical_overall_error_stays_small() {
        // The whole point of Finding 6: a tiny overall error fraction on
        // the right events wrecks mining.
        for p in run(&config(400, 7)) {
            if p.target == CorruptionTarget::Critical {
                assert!(p.overall_error < 0.02, "{}", p.overall_error);
            }
        }
    }

    #[test]
    fn render_lists_every_point() {
        let points = run(&config(400, 9));
        assert_eq!(render(&points).row_count(), points.len());
    }
}
