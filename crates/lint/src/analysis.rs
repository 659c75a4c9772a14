//! Per-file analysis results: everything the workspace passes need from
//! one file, detached from its text.
//!
//! [`analyze`] lexes a file once and runs every *line-local* lint plus
//! the flow extraction ([`crate::flow`]). The resulting
//! [`FileAnalysis`] is self-contained — findings, metric sites, pragma
//! coverage, and function summaries, but no source text — and is all
//! the workspace passes read (call graph, lock graph, durability,
//! metric cross-check, suppression).

use crate::flow::{self, FnFlow};
use crate::lints::{self, metric_hygiene::MetricSite, Finding};
use crate::source::{Role, SourceFile};

/// One suppression pragma, reduced to what the finish pass needs.
#[derive(Debug, Clone)]
pub struct PragmaInfo {
    /// Lint name the pragma allows.
    pub lint: String,
    /// Whether this is the `allow-file` form.
    pub file_scoped: bool,
    /// Whether the pragma carries a non-empty reason (only valid
    /// pragmas suppress).
    pub valid: bool,
    /// The lines a line-scoped pragma covers: its own line and the next
    /// code line.
    pub covered: Vec<u32>,
}

/// The analysis of one source file.
#[derive(Debug)]
pub struct FileAnalysis {
    /// Workspace-relative path, forward slashes.
    pub rel: String,
    /// Owning crate name.
    pub crate_name: String,
    /// Target kind.
    pub role: Role,
    /// Raw (pre-suppression) findings of every line-local lint.
    pub findings: Vec<Finding>,
    /// Crate-root findings, applied only when this file turns out to be
    /// a crate root in the analyzed set.
    pub root_findings: Vec<Finding>,
    /// Literal-named metric/series call sites for the workspace
    /// cross-check.
    pub metric_sites: Vec<MetricSite>,
    /// Suppression pragmas with precomputed coverage.
    pub pragmas: Vec<PragmaInfo>,
    /// Flow summaries of every non-test function.
    pub flow: Vec<FnFlow>,
}

impl FileAnalysis {
    /// Whether a finding of `lint` at `line` is suppressed by one of
    /// this file's pragmas (mirrors
    /// [`SourceFile::suppressed`](crate::source::SourceFile::suppressed)).
    pub fn suppressed(&self, lint: &str, line: u32, extras: &[u32]) -> bool {
        self.pragmas.iter().any(|p| {
            p.lint == lint
                && p.valid
                && (p.file_scoped
                    || p.covered.contains(&line)
                    || extras.iter().any(|e| p.covered.contains(e)))
        })
    }
}

/// Analyzes one file: lex, classify, run the line-local lints, extract
/// flow summaries.
pub fn analyze(rel: &str, text: &str) -> FileAnalysis {
    let file = SourceFile::new(rel, text);
    let flow = flow::extract(&file);

    let mut findings = Vec::new();
    findings.extend(lints::panic_freedom::check(&file));
    findings.extend(lints::unsafe_allowlist::check(&file));
    findings.extend(lints::lock_hold::check(&file));
    findings.extend(lints::timing::check(&file));
    findings.extend(lints::hot_alloc::check(&file));
    findings.extend(lints::pragmas::check(&file));
    findings.extend(lints::thread_leak::check(&file, &flow));
    let (metric_sites, metric_findings) = lints::metric_hygiene::extract(&file);
    findings.extend(metric_findings);

    let root_findings = lints::unsafe_allowlist::check_crate_root(&file);

    let pragmas = file
        .pragmas
        .iter()
        .map(|p| {
            let mut covered = vec![p.line];
            if let Some(n) = (p.line + 1..=file.line_count() as u32)
                .find(|&m| !file.masked_line(m).trim().is_empty())
            {
                covered.push(n);
            }
            PragmaInfo {
                lint: p.lint.clone(),
                file_scoped: p.file_scoped,
                valid: !p.reason.trim().is_empty(),
                covered,
            }
        })
        .collect();

    FileAnalysis {
        rel: file.rel,
        crate_name: file.crate_name,
        role: file.role,
        findings,
        root_findings,
        metric_sites,
        pragmas,
        flow,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pragma_coverage_spans_own_and_next_code_line() {
        let a = analyze(
            "crates/ingest/src/x.rs",
            "// lint:allow(panic-freedom): documented invariant\n\n\
             fn f(v: &[u32]) -> u32 { v[0] }\n",
        );
        assert_eq!(a.pragmas.len(), 1);
        assert_eq!(a.pragmas[0].covered, vec![1, 3]);
        assert!(a.pragmas[0].valid);
        assert!(a.suppressed("panic-freedom", 3, &[]));
        assert!(!a.suppressed("panic-freedom", 4, &[]));
        assert!(a.suppressed("panic-freedom", 99, &[3]), "extras route");
    }

    #[test]
    fn line_local_lints_and_flow_both_land() {
        let a = analyze(
            "crates/store/src/x.rs",
            "pub fn f(v: &[u32]) -> u32 {\n    helper();\n    v.first().copied().unwrap()\n}\n",
        );
        assert!(
            a.findings.iter().any(|f| f.lint == "panic-freedom"),
            "{a:?}"
        );
        assert_eq!(a.flow.len(), 1);
        assert!(a.flow[0].calls.iter().any(|c| c.callee == "helper"));
        assert_eq!(a.crate_name, "store");
        assert_eq!(a.role, Role::Lib);
    }
}
