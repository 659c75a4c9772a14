//! `logparse-lint` — a zero-dependency static analyzer for this
//! workspace's project invariants.
//!
//! `cargo clippy` checks Rust; this crate checks *this repository*: the
//! contracts the streaming pipeline, the parallel driver and the obs
//! layer rely on but no compiler knows about. It is built — like the
//! workspace's vendored `rand`/`proptest` shims — entirely on `std`: a
//! hand-rolled surface lexer ([`lexer`]) produces a masked code view per
//! file, line-oriented lints walk it, and a flow layer ([`flow`] →
//! [`callgraph`]) lifts it to a workspace call graph for
//! `durability-discipline`.
//!
//! # Lint catalog
//!
//! | lint | severity | invariant |
//! |------|----------|-----------|
//! | `panic-freedom` | error (index sub-check: warn) | no `unwrap`/`expect`/`panic!`/literal index in hot-path crates |
//! | `unsafe-allowlist` | error | `unsafe` only in `ingest/src/signal.rs` and `core/src/ascii_str.rs`; crate roots forbid `unsafe_code` |
//! | `obs-metric-hygiene` | error | metric families: literal names, one owner site, documented in DESIGN.md |
//! | `timing-discipline` | warning | `Instant::now()` only inside the obs substrate |
//! | `hot-path-string-alloc` | warning | no `to_string`/`String::from`/`format!` in loop bodies of `parsers`/the parallel driver/the corpus build/`serve`'s line path |
//! | `durability-discipline` | error | create/write→rename publish paths fsync file *and* directory, or name their flush tier |
//! | `bad-pragma` | error | suppressions must name a known lint and carry a reason |
//!
//! # Suppression
//!
//! A finding is suppressed by a comment pragma on the same line, the
//! line above, or (for `durability-discipline`) the offending
//! function's `fn` line:
//!
//! ```text
//! // lint:allow(timing-discipline): feeds ingest_parse_duration_seconds directly
//! let parse_started = Instant::now();
//! ```
//!
//! `lint:allow-file(<name>): <reason>` covers a whole file. The reason
//! is mandatory; `bad-pragma` polices the pragmas themselves.
//!
//! # Usage
//!
//! ```text
//! cargo run -p logparse-lint -- --workspace --deny warnings
//! ```
//!
//! Exit code 0 when clean, 1 on findings at error level (warnings are
//! promoted under `--deny warnings`), 2 on usage or I/O errors. This is
//! a stage of `scripts/check.sh`; the committed tree stays clean.
//! `--stats` prints phase timings and call-graph coverage.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod callgraph;
pub mod flow;
pub mod lexer;
pub mod lints;
pub mod report;
pub mod source;
pub mod workspace;

use analysis::FileAnalysis;
use lints::{Finding, Severity};
use std::path::Path;

/// Phase timings and workspace counters reported by `--stats`.
#[derive(Debug, Default, Clone)]
pub struct Stats {
    /// Source files analyzed.
    pub files: usize,
    /// Functions in the workspace symbol table.
    pub functions: usize,
    /// Call sites resolved to a workspace function.
    pub resolved_calls: usize,
    /// Call sites in the explicit unresolved bucket.
    pub unresolved_calls: usize,
    /// Milliseconds spent lexing + line-local linting.
    pub analyze_ms: u128,
    /// Milliseconds spent on graph construction + workspace passes.
    pub graph_ms: u128,
    /// End-to-end milliseconds.
    pub total_ms: u128,
}

/// Monotonic clock for `--stats` phase timing.
fn phase_clock() -> std::time::Instant {
    // lint:allow(timing-discipline): times the analyzer's own phases for --stats, not pipeline code
    std::time::Instant::now()
}

/// Lints already-loaded sources. `files` are `(relative_path, text)`
/// pairs; `design` is DESIGN.md's `(relative_path, text)` when present.
/// Returns pragma-filtered findings sorted by path, line, lint.
pub fn run_files(files: &[(String, String)], design: Option<(&str, &str)>) -> Vec<Finding> {
    let analyses: Vec<FileAnalysis> = files
        .iter()
        .map(|(rel, text)| analysis::analyze(rel, text))
        .collect();
    let graph = callgraph::build(&analyses);
    finish(&analyses, &graph, design)
}

/// The workspace passes over per-file analyses: crate-root checks, the
/// metric cross-check, durability over the call graph, pragma
/// suppression and ordering.
pub fn finish(
    analyses: &[FileAnalysis],
    graph: &callgraph::Graph,
    design: Option<(&str, &str)>,
) -> Vec<Finding> {
    let rels: Vec<String> = analyses.iter().map(|a| a.file.rel.clone()).collect();
    let roots = workspace::crate_roots(&rels);

    let mut findings = Vec::new();
    for a in analyses {
        findings.extend(a.findings.iter().cloned());
        if roots.contains(&a.file.rel) {
            findings.extend(a.root_findings.iter().cloned());
        }
    }
    let sites: Vec<(&str, &[lints::metric_hygiene::MetricSite])> = analyses
        .iter()
        .map(|a| (a.file.rel.as_str(), a.metric_sites.as_slice()))
        .collect();
    findings.extend(lints::metric_hygiene::cross_check_all(&sites, design));
    findings.extend(lints::durability::check(analyses, graph));

    // Pragma suppression: a finding survives unless the file that
    // contains it carries a matching allow. `bad-pragma` findings are
    // never suppressible — the mechanism cannot excuse itself.
    findings.retain(|f| {
        if f.lint == "bad-pragma" {
            return true;
        }
        match analyses.iter().find(|a| a.file.rel == f.rel) {
            Some(a) => !a.file.suppressed(f.lint, f.line, &f.also_allow_at),
            None => true,
        }
    });
    findings
        .sort_by(|a, b| (a.rel.as_str(), a.line, a.lint).cmp(&(b.rel.as_str(), b.line, b.lint)));
    findings
}

/// Walks the workspace at `root` and lints every source file.
pub fn run_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    run_workspace_stats(root).map(|(f, _)| f)
}

/// [`run_workspace`], plus phase timings.
pub fn run_workspace_stats(root: &Path) -> std::io::Result<(Vec<Finding>, Stats)> {
    let t_total = phase_clock();
    let files = workspace::collect(root)?;
    let design_text = std::fs::read_to_string(root.join("DESIGN.md")).ok();
    let design = design_text.as_deref().map(|t| ("DESIGN.md", t));

    let t_analyze = phase_clock();
    let mut stats = Stats {
        files: files.len(),
        ..Stats::default()
    };
    let analyses: Vec<FileAnalysis> = files
        .iter()
        .map(|(rel, text)| analysis::analyze(rel, text))
        .collect();
    stats.analyze_ms = t_analyze.elapsed().as_millis();

    let t_graph = phase_clock();
    let graph = callgraph::build(&analyses);
    stats.functions = analyses.iter().map(|a| a.flow.len()).sum();
    stats.resolved_calls = graph.resolved;
    stats.unresolved_calls = graph.unresolved;
    let findings = finish(&analyses, &graph, design);
    stats.graph_ms = t_graph.elapsed().as_millis();
    stats.total_ms = t_total.elapsed().as_millis();
    Ok((findings, stats))
}

/// True when `findings` requires a non-zero exit under the given
/// severity policy.
pub fn is_fatal(findings: &[Finding], deny_warnings: bool) -> bool {
    findings
        .iter()
        .any(|f| f.severity == Severity::Error || deny_warnings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pragma_suppresses_and_bad_pragma_survives() {
        let files = vec![(
            "crates/ingest/src/x.rs".to_string(),
            "// lint:allow(panic-freedom): invariant documented here\n\
             fn f(v: &[u32]) -> u32 { v.first().copied().unwrap() }\n\
             // lint:allow(panic-freedom)\n\
             fn g() {}\n"
                .to_string(),
        )];
        let out = run_files(&files, None);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].lint, "bad-pragma");
    }

    #[test]
    fn fatality_policy() {
        let warn = vec![Finding {
            lint: "timing-discipline",
            severity: Severity::Warn,
            rel: "x".into(),
            line: 1,
            message: String::new(),
            also_allow_at: Vec::new(),
        }];
        assert!(!is_fatal(&warn, false));
        assert!(is_fatal(&warn, true));
        assert!(!is_fatal(&[], true));
    }

    #[test]
    fn graph_lints_run_through_run_files() {
        let files = vec![(
            "crates/store/src/x.rs".to_string(),
            "pub fn publish(p: &Path) -> io::Result<()> {\n    \
             let mut f = File::create(&tmp)?;\n    f.write_all(b\"x\")?;\n    \
             fs::rename(&tmp, p)\n}\n"
                .to_string(),
        )];
        let out = run_files(&files, None);
        assert!(
            out.iter().any(|f| f.lint == "durability-discipline"),
            "{out:?}"
        );
    }
}
