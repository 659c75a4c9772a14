//! End-to-end regression for the SARIF emitter: the document written
//! for a mini on-disk workspace has the 2.1.0 shape CI-side viewers
//! expect.

use std::path::{Path, PathBuf};

use logparse_lint::report::sarif;
use logparse_lint::run_workspace;

fn temp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lint-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Builds a tiny two-crate workspace on disk: one clean file, one with
/// a seeded finding.
fn mini_workspace(root: &Path) {
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
}

#[test]
fn sarif_document_has_the_2_1_0_shape() {
    let root = temp("sarif");
    mini_workspace(&root);
    let findings = run_workspace(&root).unwrap();
    assert!(!findings.is_empty());
    let doc = sarif(&findings, true);

    // Shape probes against the fixed serialization — a hand-rolled
    // walker would re-implement the emitter; substring probes on the
    // canonical key order are enough to catch structural regressions.
    assert!(
        doc.starts_with("{\"version\":\"2.1.0\",\"$schema\":"),
        "{doc}"
    );
    assert!(
        doc.contains("sarif-2.1.0.json"),
        "must reference the 2.1.0 schema: {doc}"
    );
    assert!(doc.contains("\"version\":\"2.1.0\""), "{doc}");
    assert!(doc.contains("\"runs\":[{"), "{doc}");
    assert!(
        doc.contains("\"driver\":{\"name\":\"logparse-lint\""),
        "{doc}"
    );
    assert!(doc.contains("\"rules\":["), "{doc}");
    assert!(
        doc.contains("\"id\":\"timing-discipline\""),
        "every catalog lint appears as a rule: {doc}"
    );
    assert!(doc.contains("\"ruleId\":\"timing-discipline\""), "{doc}");
    assert!(
        doc.contains("\"level\":\"error\""),
        "--deny warnings promotes the warning: {doc}"
    );
    assert!(doc.contains("\"physicalLocation\""), "{doc}");
    assert!(doc.contains("\"uri\":\"crates/eval/src/lib.rs\""), "{doc}");
    assert!(doc.contains("\"startLine\":3"), "{doc}");

    // Without deny, the warning keeps its own level.
    let relaxed = sarif(&findings, false);
    assert!(relaxed.contains("\"level\":\"warning\""), "{relaxed}");

    let _ = std::fs::remove_dir_all(&root);
}
