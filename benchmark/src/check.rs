//! Output checker: turns what the program wrote into the numbers behind
//! `failed_ratio` (operations failed ÷ attempted) and `grouping_accuracy`.

use std::collections::HashMap;

use crate::json::Json;

/// Group id of every line of a structured-output file
/// (`line_no<TAB>timestamp<TAB>EventN`). `None` marks an `Outlier` or a
/// line the checker cannot read; either way the line is in no group.
pub fn structured_groups(text: &str) -> Vec<Option<u32>> {
    text.lines()
        .map(|line| {
            line.rsplit('\t')
                .next()
                .and_then(|event| event.strip_prefix("Event"))
                .and_then(|n| n.parse().ok())
        })
        .collect()
}

/// Share of the `truth.len()` input lines whose output group holds exactly
/// the lines of its ground-truth group. A line the output does not cover
/// (truncated file) or puts in no group counts as wrong.
pub fn grouping_accuracy(truth: &[u32], groups: &[Option<u32>]) -> f64 {
    if truth.is_empty() {
        return 0.0;
    }
    let mut truth_size: HashMap<u32, usize> = HashMap::new();
    for &t in truth {
        *truth_size.entry(t).or_default() += 1;
    }
    let mut group_size: HashMap<u32, usize> = HashMap::new();
    let mut pair_size: HashMap<(u32, u32), usize> = HashMap::new();
    for (&t, group) in truth.iter().zip(groups) {
        if let Some(g) = *group {
            *group_size.entry(g).or_default() += 1;
            *pair_size.entry((t, g)).or_default() += 1;
        }
    }
    // Lines past `truth.len()` would enlarge a group the zip never saw;
    // count them so that group cannot pass as exact.
    for g in groups.iter().skip(truth.len()).flatten() {
        *group_size.entry(*g).or_default() += 1;
    }
    let correct: usize = pair_size
        .iter()
        .filter(|(&(t, g), &n)| truth_size[&t] == n && group_size[&g] == n)
        .map(|(_, &n)| n)
        .sum();
    correct as f64 / truth.len() as f64
}

/// What a batch run (`parse`, `jobs run`) left behind, judged.
pub struct BatchVerdict {
    /// Input lines that count as failed operations: all of them when the
    /// run failed outright, otherwise the lines the output is short or long by.
    pub failed: usize,
    pub grouping_accuracy: f64,
}

/// Judges one batch run over `truth.len()` input lines. `exit_ok` is false
/// for a non-zero exit or a timeout; `matches_reference` is `Some(false)`
/// when the workload has a reference output and this run's bytes differ.
pub fn judge_batch(
    truth: &[u32],
    exit_ok: bool,
    structured: Option<&str>,
    matches_reference: Option<bool>,
) -> BatchVerdict {
    let lines = truth.len();
    let Some(text) = structured.filter(|_| exit_ok) else {
        return BatchVerdict {
            failed: lines,
            grouping_accuracy: 0.0,
        };
    };
    let groups = structured_groups(text);
    let failed = if matches_reference == Some(false) {
        lines
    } else {
        groups.len().abs_diff(lines).min(lines)
    };
    BatchVerdict {
        failed,
        grouping_accuracy: grouping_accuracy(truth, &groups),
    }
}

/// The fields of `logmine serve`'s printed summary the checker uses.
#[derive(Debug, Default, PartialEq)]
pub struct ServeSummary {
    pub lines: usize,
    pub templates: usize,
}

pub fn parse_serve_summary(stdout: &str) -> ServeSummary {
    let field = |name: &str| {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(name)?.trim().parse().ok())
            .unwrap_or(0)
    };
    ServeSummary {
        lines: field("lines "),
        templates: field("templates "),
    }
}

/// The program's JSONL events of one kind, parsed. Lines of other kinds
/// are skipped without parsing: `batch_parsed` outnumbers the rest 15 to 1.
pub fn events_of_kind(events: &str, kind: &str) -> Vec<Json> {
    let needle = format!("\"event\":\"{kind}\"");
    events
        .lines()
        .filter(|l| l.contains(&needle))
        .filter_map(|l| Json::parse(l).ok())
        .collect()
}

/// How many of the windows `first..first + count` have no `window_scored`
/// event.
pub fn missing_windows(events: &str, first: u64, count: u64) -> u64 {
    let mut seen = vec![false; count as usize];
    for event in events_of_kind(events, "window_scored") {
        if let Some(w) = event.get("window").and_then(Json::as_f64) {
            let w = w as u64;
            if w >= first && w < first + count {
                seen[(w - first) as usize] = true;
            }
        }
    }
    seen.iter().filter(|s| !**s).count() as u64
}

/// Template text → global id, from the `window_top` events of one run.
pub fn template_gids(events: &str) -> HashMap<String, u64> {
    let mut map = HashMap::new();
    for event in events_of_kind(events, "window_top") {
        for entry in event.get("top").and_then(Json::as_arr).unwrap_or(&[]) {
            if let (Some(template), Some(gid)) = (
                entry.get("template").and_then(Json::as_str),
                entry.get("gid").and_then(Json::as_f64),
            ) {
                map.insert(template.to_owned(), gid as u64);
            }
        }
    }
    map
}

/// Templates both runs reported whose global id differs: what `--resume`
/// must never cause.
pub fn changed_gids(before: &HashMap<String, u64>, after: &HashMap<String, u64>) -> u64 {
    before
        .iter()
        .filter(|(template, gid)| after.get(*template).is_some_and(|g| g != *gid))
        .count() as u64
}

/// What a streaming run left behind, judged.
pub struct ServeVerdict {
    /// Lines missing from the summary plus full windows without a
    /// `window_scored` event.
    pub failed: u64,
    pub summary: ServeSummary,
}

/// Judges one `serve` run that was sent `lines` lines into windows of
/// `window` lines, numbered from `first_window`.
pub fn judge_serve(
    exit_ok: bool,
    stdout: &str,
    events: &str,
    lines: u64,
    window: u64,
    first_window: u64,
) -> ServeVerdict {
    let summary = parse_serve_summary(stdout);
    let full_windows = lines / window;
    if !exit_ok {
        return ServeVerdict {
            failed: lines + full_windows,
            summary,
        };
    }
    let missing_lines = lines.saturating_sub(summary.lines as u64);
    ServeVerdict {
        failed: missing_lines + missing_windows(events, first_window, full_windows),
        summary,
    }
}

/// The streaming stand-in for `grouping_accuracy`: `serve` prints no
/// per-line assignment, only how many templates it ended with, so this is
/// the share of ground-truth templates recovered, 1 when the counts agree.
pub fn template_recovery(found: usize, truth: usize) -> f64 {
    if found == 0 || truth == 0 {
        return 0.0;
    }
    found.min(truth) as f64 / found.max(truth) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn structured(groups: &[&str]) -> String {
        groups
            .iter()
            .enumerate()
            .map(|(i, g)| format!("{}\t-\t{g}\n", i + 1))
            .collect()
    }

    const TRUTH: [u32; 6] = [0, 0, 1, 1, 1, 2];

    #[test]
    fn exact_grouping_scores_one_whatever_the_ids() {
        let text = structured(&["Event7", "Event7", "Event2", "Event2", "Event2", "Event9"]);
        let verdict = judge_batch(&TRUTH, true, Some(&text), None);
        assert_eq!(verdict.failed, 0);
        assert_eq!(verdict.grouping_accuracy, 1.0);
    }

    #[test]
    fn a_regrouped_line_lowers_accuracy_not_failures() {
        // Line 5 moves from truth group 1 into the group of line 6: both
        // groups stop being exact, group 0 stays exact.
        let text = structured(&["Event1", "Event1", "Event2", "Event2", "Event3", "Event3"]);
        let verdict = judge_batch(&TRUTH, true, Some(&text), None);
        assert_eq!(verdict.failed, 0);
        assert!((verdict.grouping_accuracy - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn a_truncated_structured_file_raises_failures() {
        let text = structured(&["Event1", "Event1", "Event2", "Event2"]);
        let verdict = judge_batch(&TRUTH, true, Some(&text), None);
        assert_eq!(verdict.failed, 2);
        // Group 1 lost a line, group 2 is gone: only group 0 is exact.
        assert!((verdict.grouping_accuracy - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn outliers_and_extra_lines_are_wrong() {
        let text = structured(&["Event1", "Event1", "Event2", "Event2", "Event2", "Outlier"]);
        assert!(
            (judge_batch(&TRUTH, true, Some(&text), None).grouping_accuracy - 5.0 / 6.0).abs()
                < 1e-12
        );
        let long = structured(&[
            "Event1", "Event1", "Event2", "Event2", "Event2", "Event3", "Event3",
        ]);
        let verdict = judge_batch(&TRUTH, true, Some(&long), None);
        assert_eq!(verdict.failed, 1);
        assert!((verdict.grouping_accuracy - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn a_failed_run_or_reference_mismatch_fails_every_line() {
        let text = structured(&["Event1", "Event1", "Event2", "Event2", "Event2", "Event3"]);
        assert_eq!(judge_batch(&TRUTH, false, Some(&text), None).failed, 6);
        assert_eq!(judge_batch(&TRUTH, true, None, None).failed, 6);
        assert_eq!(
            judge_batch(&TRUTH, true, Some(&text), Some(false)).failed,
            6
        );
        assert_eq!(judge_batch(&TRUTH, true, Some(&text), Some(true)).failed, 0);
    }

    fn scored(window: u64) -> String {
        format!(
            "{{\"event\":\"window_scored\",\"seq\":1,\"window\":{window},\"lines\":1000,\"spe\":null}}\n"
        )
    }

    #[test]
    fn a_missing_window_scored_raises_failures() {
        let summary = "source  tcp\nlines             3000\ntemplates         32\nwindows           3\nwindows scored    0\ncheckpoints       0\n";
        let all: String = (10..13).map(scored).collect();
        let verdict = judge_serve(true, summary, &all, 3000, 1000, 10);
        assert_eq!(verdict.failed, 0);
        assert_eq!(
            verdict.summary,
            ServeSummary {
                lines: 3000,
                templates: 32
            }
        );
        let gap: String = [10, 12].into_iter().map(scored).collect();
        assert_eq!(judge_serve(true, summary, &gap, 3000, 1000, 10).failed, 1);
    }

    #[test]
    fn lost_lines_and_failed_runs_raise_failures() {
        let short = "lines             2900\ntemplates         32\n";
        let all: String = (0..3).map(scored).collect();
        assert_eq!(judge_serve(true, short, &all, 3000, 1000, 0).failed, 100);
        assert_eq!(judge_serve(false, short, &all, 3000, 1000, 0).failed, 3003);
    }

    fn top(window: u64, entries: &[(u64, &str)]) -> String {
        let list: Vec<String> = entries
            .iter()
            .map(|(gid, t)| format!("{{\"gid\":{gid},\"lines\":5,\"template\":\"{t}\"}}"))
            .collect();
        format!(
            "{{\"event\":\"window_top\",\"window\":{window},\"top\":[{}]}}\n",
            list.join(",")
        )
    }

    #[test]
    fn a_changed_gid_across_resume_is_counted() {
        let before = template_gids(&top(0, &[(0, "a * c"), (1, "x y")]));
        let same = template_gids(&top(5, &[(1, "x y"), (2, "new one")]));
        assert_eq!(changed_gids(&before, &same), 0);
        let moved = template_gids(&top(5, &[(3, "x y"), (0, "a * c")]));
        assert_eq!(changed_gids(&before, &moved), 1);
    }

    #[test]
    fn template_recovery_is_symmetric() {
        assert_eq!(template_recovery(32, 32), 1.0);
        assert_eq!(template_recovery(30, 32), 30.0 / 32.0);
        assert_eq!(template_recovery(40, 32), 0.8);
        assert_eq!(template_recovery(0, 32), 0.0);
    }
}
