//! Finding output: rustc-style human text, and SARIF 2.1.0 for
//! code-scanning upload.

use crate::lints::{Finding, Severity, CATALOG};
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

/// Renders findings as a SARIF 2.1.0 log (the shape GitHub code
/// scanning ingests): one run, the lint catalog as the driver's rules,
/// one result per finding. `deny_warnings` promotes warning-level
/// results to error, matching the exit code.
pub fn sarif(findings: &[Finding], deny_warnings: bool) -> String {
    let mut rules = String::new();
    for (i, (name, _, what)) in CATALOG.iter().enumerate() {
        if i > 0 {
            rules.push(',');
        }
        let _ = write!(
            rules,
            "{{\"id\":{},\"shortDescription\":{{\"text\":{}}}}}",
            escape(name),
            escape(what)
        );
    }
    let mut results = String::new();
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            results.push(',');
        }
        let level = match (f.severity, deny_warnings) {
            (Severity::Warn, false) => "warning",
            _ => "error",
        };
        let _ = write!(
            results,
            "{{\"ruleId\":{},\"level\":{},\"message\":{{\"text\":{}}},\
             \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":\
             {{\"uri\":{}}},\"region\":{{\"startLine\":{}}}}}}}]}}",
            escape(f.lint),
            escape(level),
            escape(&f.message),
            escape(&f.rel),
            f.line.max(1)
        );
    }
    format!(
        "{{\"version\":\"2.1.0\",\"$schema\":\
         \"https://json.schemastore.org/sarif-2.1.0.json\",\"runs\":[{{\"tool\":\
         {{\"driver\":{{\"name\":\"logparse-lint\",\"rules\":[{rules}]}}}},\
         \"results\":[{results}]}}]}}\n"
    )
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
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
    fn sarif_escapes_quotes() {
        let s = sarif(&sample(), false);
        assert!(s.contains("\\\"quoted\\\""), "{s}");
    }
}
