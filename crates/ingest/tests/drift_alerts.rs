//! End-to-end drift observability: a corpus whose template population
//! is stable, then churns hard, then stabilizes again must make the
//! default `template-churn-high` alert fire *and* resolve, with the
//! full evidence trail — `drift_window` stats, `drift_exemplar` raw
//! lines, `window_top` rankings and the alert edges — in the journal.

use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use logparse_ingest::{run_pipeline, IngestConfig, MemorySource};
use logparse_obs::{Journal, Json};

/// A journal sink the test can read back after the run.
#[derive(Clone, Default)]
struct Shared(Arc<Mutex<Vec<u8>>>);

impl Write for Shared {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Three fixed event shapes: every post-warmup window re-uses the same
/// templates, so churn is zero.
fn stable_lines(n: usize, offset: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            let i = i + offset;
            match i % 3 {
                0 => format!("send pkt {i} ok"),
                1 => format!("recv ack {i}"),
                _ => format!("conn from 10.0.0.{} established", i % 250),
            }
        })
        .collect()
}

/// Every line is a shape of its own (unique tokens in every position),
/// so each drifting window is almost entirely newborn templates.
fn drifting_lines(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| format!("svc{i}a fault{i}b in stage{i}c aborted"))
        .collect()
}

#[test]
fn churn_alert_fires_and_resolves_over_a_drifting_corpus() {
    let mut corpus = stable_lines(500, 0);
    corpus.extend(drifting_lines(400));
    corpus.extend(stable_lines(900, 500));
    let mut source = MemorySource::new(corpus);

    let sink = Shared::default();
    let events = Journal::new(Box::new(sink.clone()));
    let config = IngestConfig {
        shards: 2,
        window_size: 100,
        warmup: 2,
        ..IngestConfig::default()
    };
    let summary = run_pipeline(&mut source, &config, events, None).unwrap();
    assert_eq!(summary.lines, 1_800);

    let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    let parsed: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
    let events_of = |kind: &str| -> Vec<&Json> {
        parsed
            .iter()
            .filter(|e| e.get("event").and_then(Json::as_str) == Some(kind))
            .collect()
    };

    // Every closed window published drift stats, and the drifting phase
    // shows up as high churn.
    let drift_windows = events_of("drift_window");
    assert_eq!(drift_windows.len(), 18, "one drift_window per window");
    let max_churn = drift_windows
        .iter()
        .filter_map(|e| e.get("churn").and_then(Json::as_f64))
        .fold(0.0f64, f64::max);
    assert!(max_churn > 0.9, "drift phase churn was {max_churn}");

    // Newborn templates left raw-line evidence.
    let exemplars = events_of("drift_exemplar");
    assert!(!exemplars.is_empty(), "no drift_exemplar events");
    assert!(exemplars.iter().any(|e| e
        .get("line")
        .and_then(Json::as_str)
        .is_some_and(|l| l.contains("fault"))));

    // Top-K rankings accompany every window.
    let tops = events_of("window_top");
    assert_eq!(tops.len(), 18);

    // The churn alert fired during the drift phase and resolved after
    // the stream stabilized, in that order.
    let firing = events_of("alert_firing");
    let fired_at = firing
        .iter()
        .find(|e| e.get("rule").and_then(Json::as_str) == Some("template-churn-high"))
        .and_then(|e| e.get("seq").and_then(Json::as_usize))
        .expect("template-churn-high never fired");
    let resolved = events_of("alert_resolved");
    let resolved_at = resolved
        .iter()
        .find(|e| e.get("rule").and_then(Json::as_str) == Some("template-churn-high"))
        .and_then(|e| e.get("seq").and_then(Json::as_usize))
        .expect("template-churn-high never resolved");
    assert!(
        fired_at < resolved_at,
        "fire (seq {fired_at}) must precede resolve (seq {resolved_at})"
    );

    // The engine's gauges exist in the global registry and read quiet
    // again after the resolve.
    let rendered = logparse_obs::global().render();
    assert!(
        rendered.contains("obs_alert_active{rule=\"template-churn-high\"} 0"),
        "per-rule gauge missing or still firing:\n{rendered}"
    );
    assert!(rendered.contains("# TYPE obs_alerts_firing gauge"));
    assert!(rendered.contains("# TYPE ingest_drift_template_churn gauge"));
}

#[test]
fn no_drift_flag_suppresses_quality_telemetry() {
    let sink = Shared::default();
    let events = Journal::new(Box::new(sink.clone()));
    let mut source = MemorySource::new(stable_lines(600, 0));
    let config = IngestConfig {
        shards: 2,
        window_size: 100,
        warmup: 2,
        drift: false,
        ..IngestConfig::default()
    };
    run_pipeline(&mut source, &config, events, None).unwrap();
    let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    for kind in [
        "drift_window",
        "drift_exemplar",
        "window_top",
        "alert_firing",
    ] {
        assert!(
            !text.contains(&format!("\"event\":\"{kind}\"")),
            "{kind} emitted despite drift: false"
        );
    }
    assert!(text.contains("\"event\":\"window_scored\""), "{text}");
}
