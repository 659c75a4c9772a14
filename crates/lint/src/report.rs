//! Finding output: rustc-style human text.

use crate::lints::{Finding, Severity};
use std::fmt::Write;

/// Renders findings rustc-style, one block per finding, plus a summary
/// line. `deny_warnings` relabels warnings as denied.
pub fn human(findings: &[Finding], deny_warnings: bool) -> String {
    let mut out = String::new();
    for f in findings {
        let label = match (f.severity, deny_warnings) {
            (Severity::Warn, true) => "error[denied warning]",
            (Severity::Warn, false) => "warning",
            (Severity::Error, _) => "error",
        };
        let _ = writeln!(out, "{label}[{}]: {}", f.lint, f.message);
        let _ = writeln!(out, "  --> {}:{}", f.rel, f.line);
    }
    let errors = findings
        .iter()
        .filter(|f| f.severity == Severity::Error || deny_warnings)
        .count();
    let warnings = findings.len() - errors;
    let _ = writeln!(
        out,
        "lint: {} finding(s): {errors} error(s), {warnings} warning(s)",
        findings.len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Finding> {
        vec![Finding {
            lint: "panic-freedom",
            severity: Severity::Warn,
            rel: "crates/x/src/a.rs".into(),
            line: 3,
            message: "a \"quoted\" message".into(),
            also_allow_at: Vec::new(),
        }]
    }

    #[test]
    fn human_labels_denied_warnings() {
        assert!(human(&sample(), false).starts_with("warning[panic-freedom]"));
        assert!(human(&sample(), true).starts_with("error[denied warning][panic-freedom]"));
    }

    #[test]
    fn human_prints_messages_verbatim() {
        let s = human(&sample(), false);
        assert!(
            s.starts_with(
                "warning[panic-freedom]: a \"quoted\" message\n  --> crates/x/src/a.rs:3\n"
            ),
            "{s}"
        );
    }
}
