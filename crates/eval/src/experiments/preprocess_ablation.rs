//! **Preprocessing ablation** (extension of Table II / Finding 2) —
//! per-rule contribution of domain-knowledge preprocessing.
//!
//! The paper's most dramatic preprocessing effect is on BGL: masking the
//! core-dump ids turns the `generating core.*` family into identical
//! messages, lifting LogSig from 0.26 to 0.98 (and SLCT from 0.61 to
//! 0.94), while IPLoM — which normalizes internally — is unaffected.
//! This runner decomposes the effect rule by rule on a BGL sample: no
//! rules, core ids only, bare numbers only, both.

use logparse_core::{MaskRule, Preprocessor};
use logparse_datasets::bgl;

use super::{RunOptions, SEED};
use crate::{fmt_f2, pairwise_f_measure, tune, ParserKind, TextTable};

/// One measurement: a parser's accuracy under one rule subset.
#[derive(Debug, Clone)]
pub struct AblationPoint {
    /// Parsing method.
    pub parser: ParserKind,
    /// Human-readable rule subset label.
    pub rules: &'static str,
    /// Pairwise F-measure.
    pub f1: f64,
}

/// The rule subsets evaluated, with display labels.
pub fn rule_subsets() -> Vec<(&'static str, Preprocessor)> {
    vec![
        ("none", Preprocessor::identity()),
        ("core", Preprocessor::new(vec![MaskRule::CoreId])),
        ("num", Preprocessor::new(vec![MaskRule::Number])),
        (
            "core+num",
            Preprocessor::new(vec![MaskRule::CoreId, MaskRule::Number]),
        ),
    ]
}

/// Runs the ablation on a BGL sample of `sample_size` messages.
pub fn run(sample_size: usize, seed: u64) -> Vec<AblationPoint> {
    let raw = bgl::generate(sample_size, seed);
    let mut points = Vec::new();
    for (label, preprocessor) in rule_subsets() {
        let sample = raw.preprocessed(&preprocessor);
        for &kind in &ParserKind::ALL {
            let tuned = tune(kind, &sample);
            let f1 = tuned
                .instantiate(0)
                .parse(&sample.corpus)
                .map(|parse| pairwise_f_measure(&sample.labels, &parse.cluster_labels()).f1)
                .unwrap_or(0.0);
            points.push(AblationPoint {
                parser: kind,
                rules: label,
                f1,
            });
        }
    }
    points
}

/// Renders parsers × rule subsets.
pub fn render(points: &[AblationPoint]) -> TextTable {
    let labels: Vec<&'static str> = rule_subsets().iter().map(|(l, _)| *l).collect();
    let mut headers = vec!["Parser".to_string()];
    headers.extend(labels.iter().map(|l| l.to_string()));
    let mut table = TextTable::new(headers);
    for kind in ParserKind::ALL {
        let mut row = vec![kind.name().to_string()];
        for label in &labels {
            let cell = points
                .iter()
                .find(|p| p.parser == kind && p.rules == *label)
                .map_or_else(|| "-".into(), |p| fmt_f2(p.f1));
            row.push(cell);
        }
        table.add_row(row);
    }
    table
}

const PAPER_REFERENCE: &str = "\
paper: preprocessing improves SLCT and LogSig dramatically on BGL
(0.61->0.94 and 0.26->0.98) but not IPLoM, which normalizes internally
(0.99->0.99).
";

/// Stdout of the `preprocess_ablation` experiment: the ablation on a
/// 2 000-message BGL sample (`--quick`: 500).
pub fn report(options: &RunOptions) -> String {
    let sample = if options.quick { 500 } else { 2_000 };
    format!(
        "Finding 2 ablation: BGL parsing accuracy by preprocessing rule subset\n\n{}\n{PAPER_REFERENCE}",
        render(&run(sample, SEED))
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_all_parser_subset_combinations() {
        let points = run(250, 1);
        assert_eq!(points.len(), 4 * 4);
    }

    #[test]
    fn f1_values_are_valid() {
        for p in run(250, 2) {
            assert!((0.0..=1.0).contains(&p.f1), "{:?} {}", p.parser, p.f1);
        }
    }

    #[test]
    fn core_rule_lifts_logsig_substantially() {
        // Finding 2's bold cell: masking core ids reunites the
        // `generating core.*` family for LogSig.
        let points = run(600, 3);
        let get = |rules| {
            points
                .iter()
                .find(|p| p.parser == ParserKind::LogSig && p.rules == rules)
                .unwrap()
                .f1
        };
        assert!(
            get("core") > get("none") + 0.2,
            "Finding 2 — simple domain-knowledge preprocessing improves accuracy: LogSig on BGL \
             {:.2} with core ids masked, {:.2} raw",
            get("core"),
            get("none")
        );
    }

    #[test]
    fn iplom_is_insensitive_to_preprocessing() {
        let points = run(600, 4);
        let values: Vec<f64> = points
            .iter()
            .filter(|p| p.parser == ParserKind::Iplom)
            .map(|p| p.f1)
            .collect();
        let max = values.iter().copied().fold(f64::MIN, f64::max);
        let min = values.iter().copied().fold(f64::MAX, f64::min);
        assert!(max - min < 0.1, "IPLoM spread {}", max - min);
    }

    #[test]
    fn render_has_one_row_per_parser() {
        let points = run(250, 4);
        assert_eq!(render(&points).row_count(), 4);
    }
}
