//! Fixture-driven demonstrations: every lint in the catalog fires on
//! its seeded violation and stays silent on the compliant twin.
//!
//! Fixture sources live under `tests/fixtures/` — a directory the
//! workspace walker skips, so the seeded violations never reach the
//! real `--workspace` run these same lints keep clean. Each fixture is
//! linted here under a synthetic workspace-relative path, because the
//! path decides scope (hot-path crates, the unsafe allowlist, roles).

use logparse_lint::lints::{Finding, Severity};
use logparse_lint::run_files;
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Lints one fixture as if it lived at `rel` inside the workspace.
fn lint_as(rel: &str, fixture_name: &str) -> Vec<Finding> {
    run_files(&[(rel.to_string(), fixture(fixture_name))], None)
}

/// Lints several fixtures together — the multi-file shape the
/// call-graph lint needs.
fn lint_many(files: &[(&str, &str)]) -> Vec<Finding> {
    let loaded: Vec<(String, String)> = files
        .iter()
        .map(|(rel, name)| (rel.to_string(), fixture(name)))
        .collect();
    run_files(&loaded, None)
}

fn lint_names(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.lint).collect()
}

#[test]
fn panic_freedom_fires_in_hot_path_and_not_elsewhere() {
    let hot = lint_as(
        "crates/parsers/src/fixture.rs",
        "panic_freedom/violation.rs",
    );
    assert_eq!(
        lint_names(&hot),
        vec!["panic-freedom", "panic-freedom"],
        "{hot:?}"
    );
    assert_eq!(hot[0].severity, Severity::Error, "unwrap is an error");
    assert_eq!(
        hot[1].severity,
        Severity::Warn,
        "literal index is a warning"
    );

    let cold = lint_as("crates/eval/src/fixture.rs", "panic_freedom/violation.rs");
    assert!(cold.is_empty(), "eval is not hot-path: {cold:?}");
    let clean = lint_as("crates/parsers/src/fixture.rs", "panic_freedom/clean.rs");
    assert!(clean.is_empty(), "{clean:?}");
}

#[test]
fn panic_freedom_is_exempt_inside_test_regions() {
    let body = fixture("panic_freedom/violation.rs");
    let wrapped = format!("#[cfg(test)]\nmod tests {{\n{body}\n}}\n");
    let out = run_files(
        &[("crates/parsers/src/fixture.rs".to_string(), wrapped)],
        None,
    );
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn unsafe_allowlist_fires_outside_the_sanctioned_file() {
    let out = lint_as(
        "crates/core/src/fixture.rs",
        "unsafe_allowlist/violation.rs",
    );
    assert_eq!(lint_names(&out), vec!["unsafe-allowlist"], "{out:?}");
    assert_eq!(out[0].severity, Severity::Error);

    // In an allowlisted file the bare block is still flagged — for the
    // missing SAFETY comment, not for being unsafe.
    for sanctioned_file in [
        "crates/ingest/src/signal.rs",
        "crates/core/src/ascii_str.rs",
    ] {
        let bare = lint_as(sanctioned_file, "unsafe_allowlist/violation.rs");
        assert_eq!(lint_names(&bare), vec!["unsafe-allowlist"], "{bare:?}");
        assert!(bare[0].message.contains("SAFETY"), "{bare:?}");
        let commented = lint_as(sanctioned_file, "unsafe_allowlist/safety_commented.rs");
        assert!(commented.is_empty(), "{commented:?}");
    }
}

#[test]
fn crate_roots_must_forbid_unsafe_code() {
    let missing = lint_as(
        "crates/demo/src/lib.rs",
        "unsafe_allowlist/root_violation.rs",
    );
    assert_eq!(
        lint_names(&missing),
        vec!["unsafe-allowlist"],
        "{missing:?}"
    );
    assert!(missing[0].message.contains("forbid"), "{missing:?}");

    let ok = lint_as("crates/demo/src/lib.rs", "unsafe_allowlist/root_clean.rs");
    assert!(ok.is_empty(), "{ok:?}");
    // The same file is not a crate root elsewhere, so nothing fires.
    let not_root = lint_as(
        "crates/demo/src/extra.rs",
        "unsafe_allowlist/root_violation.rs",
    );
    assert!(not_root.is_empty(), "{not_root:?}");
}

#[test]
fn metric_hygiene_cross_checks_code_against_design() {
    let design = fixture("metric_hygiene/design.md");
    let files = vec![(
        "crates/obs/src/fixture.rs".to_string(),
        fixture("metric_hygiene/violation.rs"),
    )];
    let out = run_files(&files, Some(("DESIGN.md", &design)));
    let msgs: Vec<&str> = out.iter().map(|f| f.message.as_str()).collect();
    assert_eq!(out.len(), 4, "{msgs:?}");
    assert!(
        out.iter().all(|f| f.lint == "obs-metric-hygiene"),
        "{out:?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("fixture_rogue_total")),
        "{msgs:?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("already registered")),
        "{msgs:?}"
    );
    assert!(msgs.iter().any(|m| m.contains("non-literal")), "{msgs:?}");
    assert!(
        msgs.iter()
            .any(|m| m.contains("fixture_ghost_total") && m.contains("never registered")),
        "{msgs:?}"
    );

    let clean = vec![(
        "crates/obs/src/fixture.rs".to_string(),
        fixture("metric_hygiene/clean.rs"),
    )];
    let out = run_files(&clean, Some(("DESIGN.md", &design)));
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn timing_discipline_fires_in_lib_code_only() {
    let out = lint_as("crates/eval/src/fixture.rs", "timing/violation.rs");
    assert_eq!(lint_names(&out), vec!["timing-discipline"], "{out:?}");
    assert_eq!(out[0].severity, Severity::Warn);

    for exempt_rel in [
        "crates/eval/src/bin/experiments.rs", // binaries may time freely
        "crates/obs/src/fixture.rs",          // the instrumentation substrate itself
    ] {
        let out = lint_as(exempt_rel, "timing/violation.rs");
        assert!(out.is_empty(), "{exempt_rel}: {out:?}");
    }
    let clean = lint_as("crates/eval/src/fixture.rs", "timing/clean.rs");
    assert!(clean.is_empty(), "{clean:?}");
}

#[test]
fn hot_path_string_alloc_fires_in_parser_loops_only() {
    let hot = lint_as("crates/parsers/src/fixture.rs", "hot_alloc/violation.rs");
    assert_eq!(lint_names(&hot), vec!["hot-path-string-alloc"], "{hot:?}");
    assert_eq!(hot[0].severity, Severity::Warn);

    let driver = lint_as("crates/core/src/parallel.rs", "hot_alloc/violation.rs");
    assert_eq!(
        lint_names(&driver),
        vec!["hot-path-string-alloc"],
        "{driver:?}"
    );

    for exempt_rel in [
        "crates/eval/src/fixture.rs", // not a hot-path scope
        "crates/core/src/record.rs",  // core outside the driver
    ] {
        let out = lint_as(exempt_rel, "hot_alloc/violation.rs");
        assert!(out.is_empty(), "{exempt_rel}: {out:?}");
    }

    let clean = lint_as("crates/parsers/src/fixture.rs", "hot_alloc/clean.rs");
    assert!(clean.is_empty(), "post-loop rendering is fine: {clean:?}");
    let blessed = lint_as("crates/parsers/src/fixture.rs", "hot_alloc/blessed.rs");
    assert!(blessed.is_empty(), "pragma suppresses: {blessed:?}");
}

#[test]
fn durability_discipline_fires_on_unsynced_rename() {
    let out = lint_as("crates/store/src/fixture.rs", "durability/violation.rs");
    assert_eq!(lint_names(&out), vec!["durability-discipline"], "{out:?}");
    assert_eq!(out[0].severity, Severity::Error);
    assert!(out[0].message.contains("sync_all"), "{}", out[0].message);
    assert!(out[0].message.contains("sync_dir"), "{}", out[0].message);
    assert!(
        out[0].message.contains("docs/DURABILITY.md"),
        "{}",
        out[0].message
    );

    // Same bytes outside the persistence crates: out of scope.
    let cold = lint_as("crates/parsers/src/fixture.rs", "durability/violation.rs");
    assert!(cold.is_empty(), "{cold:?}");
}

#[test]
fn durability_discipline_proves_the_cross_file_path_to_rename() {
    let out = lint_many(&[
        (
            "crates/jobs/src/fixture.rs",
            "durability/violation_caller.rs",
        ),
        ("crates/store/src/seal.rs", "durability/seal.rs"),
    ]);
    assert_eq!(lint_names(&out), vec!["durability-discipline"], "{out:?}");
    let m = &out[0].message;
    assert_eq!(out[0].rel, "crates/jobs/src/fixture.rs");
    assert!(m.contains("creates directories"), "{m}");
    assert!(
        m.contains("`seal` (crates/jobs/src/fixture.rs:"),
        "witness must show the call hop: {m}"
    );
    assert!(
        m.contains("crates/store/src/seal.rs:"),
        "witness must name the rename site: {m}"
    );
}

#[test]
fn durability_clean_and_blessed_twins_are_silent() {
    let clean = lint_as("crates/store/src/fixture.rs", "durability/clean.rs");
    assert!(clean.is_empty(), "{clean:?}");
    let blessed = lint_as("crates/store/src/fixture.rs", "durability/blessed.rs");
    assert!(blessed.is_empty(), "flush-tier pragma: {blessed:?}");
}

#[test]
fn bad_pragmas_are_reported_and_never_suppressible() {
    let out = lint_as("crates/eval/src/fixture.rs", "pragmas/violation.rs");
    assert_eq!(
        lint_names(&out),
        vec!["bad-pragma", "bad-pragma"],
        "{out:?}"
    );
    assert!(out.iter().all(|f| f.severity == Severity::Error));

    let clean = lint_as("crates/eval/src/fixture.rs", "pragmas/clean.rs");
    assert!(clean.is_empty(), "{clean:?}");
}
