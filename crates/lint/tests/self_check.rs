//! The committed tree is the linter's largest fixture: the whole
//! workspace must stay clean under the strictest policy the check gate
//! applies (`--deny warnings`), so `cargo test` alone catches a
//! regression even when `scripts/check.sh` is skipped. Alongside: the
//! on-disk walk reports a seeded finding where it is, and DESIGN.md's
//! lint catalog names exactly the lints the binary knows.

use logparse_lint::lints::CATALOG;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_is_lint_clean() {
    let findings = logparse_lint::run_workspace(&workspace_root()).expect("walk workspace");
    assert!(
        !logparse_lint::is_fatal(&findings, true),
        "workspace must stay lint-clean \
         (reproduce with `cargo run -p logparse-lint -- --workspace --deny warnings`):\n{}",
        logparse_lint::report::human(&findings, true),
    );
}

#[test]
fn run_workspace_walks_disk_and_reports_the_seeded_finding() {
    let root = std::env::temp_dir().join(format!("lint-walk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let demo = root.join("crates/demo/src");
    let eval = root.join("crates/eval/src");
    std::fs::create_dir_all(&demo).unwrap();
    std::fs::create_dir_all(&eval).unwrap();
    std::fs::write(
        demo.join("lib.rs"),
        "#![forbid(unsafe_code)]\npub fn add(a: u32, b: u32) -> u32 { a + b }\n",
    )
    .unwrap();
    std::fs::write(
        eval.join("lib.rs"),
        "#![forbid(unsafe_code)]\npub fn slow() {\n    let t = std::time::Instant::now();\n    \
         let _ = t.elapsed();\n}\n",
    )
    .unwrap();

    let findings = logparse_lint::run_workspace(&root).unwrap();
    let _ = std::fs::remove_dir_all(&root);
    let at: Vec<(&str, &str, u32)> = findings
        .iter()
        .map(|f| (f.lint, f.rel.as_str(), f.line))
        .collect();
    assert_eq!(
        at,
        vec![("timing-discipline", "crates/eval/src/lib.rs", 3)],
        "{findings:?}"
    );
}

/// `(name, severity)` rows of DESIGN.md's *Lint catalog* table.
fn design_catalog(design: &str) -> Vec<(String, String)> {
    design
        .lines()
        .skip_while(|l| l.trim() != "### Lint catalog")
        .skip(1)
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2) // header and separator
        .map(|l| {
            let mut cells = l.trim_matches('|').split('|').map(str::trim);
            let name = cells.next().unwrap_or("").trim_matches('`').to_string();
            let severity = cells.next().unwrap_or("").to_string();
            (name, severity)
        })
        .collect()
}

fn catalog_rows() -> Vec<(String, String)> {
    CATALOG
        .iter()
        .map(|(name, severity, _)| (name.to_string(), severity.label().to_string()))
        .collect()
}

#[test]
fn design_lint_catalog_matches_the_binary() {
    let design = std::fs::read_to_string(workspace_root().join("DESIGN.md")).unwrap();
    let mut documented = design_catalog(&design);
    let mut known = catalog_rows();
    documented.sort();
    known.sort();
    assert_eq!(
        documented, known,
        "DESIGN.md's Lint catalog table must list exactly `logparse-lint --list`"
    );

    // Bite: one extra row makes the two disagree.
    let extra = design.replacen(
        "| `bad-pragma` |",
        "| `ghost-lint` | warning | never implemented |\n| `bad-pragma` |",
        1,
    );
    let mut drifted = design_catalog(&extra);
    drifted.sort();
    assert_ne!(drifted, known);
}
