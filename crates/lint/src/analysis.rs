//! Per-file analysis results: everything the workspace passes need from
//! one file.
//!
//! [`analyze`] lexes a file once and runs every *line-local* lint plus
//! the flow extraction ([`crate::flow`]). The resulting
//! [`FileAnalysis`] keeps the [`SourceFile`] (whose pragmas decide
//! suppression) beside the findings, metric sites and function
//! summaries the workspace passes read (call graph, durability, metric
//! cross-check, suppression).

use crate::flow::{self, FnFlow};
use crate::lints::{self, metric_hygiene::MetricSite, Finding};
use crate::source::SourceFile;

/// The analysis of one source file.
#[derive(Debug)]
pub struct FileAnalysis {
    /// The lexed, classified file.
    pub file: SourceFile,
    /// Raw (pre-suppression) findings of every line-local lint.
    pub findings: Vec<Finding>,
    /// Crate-root findings, applied only when this file turns out to be
    /// a crate root in the analyzed set.
    pub root_findings: Vec<Finding>,
    /// Literal-named metric/series call sites for the workspace
    /// cross-check.
    pub metric_sites: Vec<MetricSite>,
    /// Flow summaries of every non-test function.
    pub flow: Vec<FnFlow>,
}

/// Analyzes one file: lex, classify, run the line-local lints, extract
/// flow summaries.
pub fn analyze(rel: &str, text: &str) -> FileAnalysis {
    let file = SourceFile::new(rel, text);
    let flow = flow::extract(&file);

    let mut findings = Vec::new();
    findings.extend(lints::panic_freedom::check(&file));
    findings.extend(lints::unsafe_allowlist::check(&file));
    findings.extend(lints::timing::check(&file));
    findings.extend(lints::hot_alloc::check(&file));
    findings.extend(lints::pragmas::check(&file));
    let (metric_sites, metric_findings) = lints::metric_hygiene::extract(&file);
    findings.extend(metric_findings);

    let root_findings = lints::unsafe_allowlist::check_crate_root(&file);

    FileAnalysis {
        file,
        findings,
        root_findings,
        metric_sites,
        flow,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::Role;

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
        assert_eq!(a.file.crate_name, "store");
        assert_eq!(a.file.role, Role::Lib);
    }
}
