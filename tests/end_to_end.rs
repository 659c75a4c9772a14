//! Cross-crate integration tests: the full paper pipeline wired through
//! the `logmine` facade.

use logmine::core::{
    write_events_file, write_structured_file, Corpus, LogParser, MaskRule, Preprocessor,
};
use logmine::datasets::{hdfs, zookeeper};
use logmine::eval::{pairwise_f_measure, tune, ParserKind};
use logmine::mining::{event_count_matrix, truth_count_matrix, PcaDetector, PcaDetectorConfig};
use logmine::parsers::{study_parsers, Iplom};

#[test]
fn file_roundtrip_matches_in_memory_parse() {
    let data = zookeeper::generate(300, 5);
    let raw = data.text().as_bytes().to_vec();
    let corpus = Corpus::from_bytes(raw, &Preprocessor::identity(), 1).unwrap();
    assert_eq!(corpus, data.corpus);

    let parse = Iplom::default().parse(&corpus).unwrap();
    let mut events = Vec::new();
    write_events_file(&parse, &mut events).unwrap();
    let events = String::from_utf8(events).unwrap();
    assert_eq!(events.lines().count(), parse.event_count());

    let mut structured = Vec::new();
    write_structured_file(&corpus, &parse, &mut structured).unwrap();
    let structured = String::from_utf8(structured).unwrap();
    assert_eq!(structured.lines().count(), corpus.len());
}

#[test]
fn all_study_parsers_run_on_every_dataset_sample() {
    for spec in logmine::datasets::study_datasets() {
        let data = spec.generate(120, 3);
        for parser in study_parsers() {
            // LogSig's default k (16) exceeds nothing here; all must run.
            let parse = parser
                .parse(&data.corpus)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", parser.name(), spec.name()));
            assert_eq!(
                parse.len(),
                data.len(),
                "{} on {}",
                parser.name(),
                spec.name()
            );
            // Every assigned template must actually match its messages.
            for i in 0..parse.len() {
                if let Some(template) = parse.template_of(i) {
                    assert!(
                        template.matches(&data.corpus.tokens(i)),
                        "{} on {}: template {template} does not match message {i:?}",
                        parser.name(),
                        spec.name(),
                    );
                }
            }
        }
    }
}

#[test]
fn preprocessing_improves_or_preserves_iplom_on_hdfs() {
    let data = hdfs::generate(800, 11);
    let parse_raw = Iplom::default().parse(&data.corpus).unwrap();
    let raw_f1 = pairwise_f_measure(&data.labels, &parse_raw.cluster_labels()).f1;

    let pre = Preprocessor::new(vec![MaskRule::IpAddress, MaskRule::BlockId]);
    let masked = pre.apply(&data.corpus);
    let parse_pre = Iplom::default().parse(&masked).unwrap();
    let pre_f1 = pairwise_f_measure(&data.labels, &parse_pre.cluster_labels()).f1;

    // Finding 2's caveat: preprocessing may not help IPLoM, but it must
    // not destroy it either.
    assert!(
        pre_f1 > raw_f1 - 0.15,
        "raw {raw_f1} vs preprocessed {pre_f1}"
    );
    assert!(
        raw_f1 > 0.8,
        "IPLoM on HDFS should be accurate, got {raw_f1}"
    );
}

#[test]
fn parser_driven_anomaly_detection_tracks_ground_truth() {
    let sessions = hdfs::generate_sessions(800, 0.03, 17);
    let detector = PcaDetector::new(PcaDetectorConfig {
        components: Some(2),
        ..PcaDetectorConfig::default()
    });

    let truth_counts = truth_count_matrix(
        &sessions.data.labels,
        sessions.data.truth_templates.len(),
        &sessions.block_of,
        sessions.block_count(),
    );
    let truth_report = detector.detect(&truth_counts);
    let (truth_detected, truth_fa) = truth_report.confusion(&sessions.anomalous);

    let parse = Iplom::default().parse(&sessions.data.corpus).unwrap();
    let counts = event_count_matrix(&parse, &sessions.block_of, sessions.block_count());
    let report = detector.detect(&counts);
    let (detected, fa) = report.confusion(&sessions.anomalous);

    // An accurate parser should essentially reproduce the ground-truth
    // mining outcome (the paper's IPLoM row vs. Ground-truth row).
    assert!(truth_detected > 0);
    assert!(
        (detected as i64 - truth_detected as i64).abs() <= truth_detected as i64 / 2,
        "detected {detected} vs truth {truth_detected}"
    );
    assert!(
        fa <= truth_fa + sessions.block_count() / 50,
        "fa {fa} vs {truth_fa}"
    );
}

#[test]
fn tuned_parsers_beat_untuned_defaults_on_average() {
    let data = hdfs::generate(600, 23);
    let mut tuned_total = 0.0;
    for kind in ParserKind::ALL {
        let tuned = tune(kind, &data);
        if let Ok(parse) = tuned.instantiate(0).parse(&data.corpus) {
            tuned_total += pairwise_f_measure(&data.labels, &parse.cluster_labels()).f1;
        }
    }
    // Finding 1: overall accuracy of the four tuned methods is high.
    assert!(
        tuned_total / 4.0 > 0.6,
        "mean tuned F1 {}",
        tuned_total / 4.0
    );
}
