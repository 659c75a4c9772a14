//! `timing-discipline`: all timing flows through instrumentation.
//!
//! The study's efficiency results (Fig. 2 / Table III) are produced by
//! `LogParser::timed_parse` and the obs span layer so every measured
//! duration lands in one histogram family. Ad-hoc `Instant::now()`
//! pairs in library code bypass that — they measure without recording,
//! and the next refactor silently changes what the published numbers
//! mean.
//!
//! `Instant::now()` is therefore flagged in library code everywhere
//! except the instrumentation substrate itself (`obs`). Binaries,
//! examples and tests are exempt. Sites that *feed* an obs histogram
//! directly (the per-batch worker timer) document themselves with a
//! pragma.

use super::{code_lines, find_all, Finding, Severity};
use crate::source::{Role, SourceFile};

const NAME: &str = "timing-discipline";

/// The crate that *is* the instrumentation layer.
const SUBSTRATE: &str = "obs";

/// Runs the lint over one file.
pub fn check(file: &SourceFile) -> Vec<Finding> {
    if file.role != Role::Lib || file.crate_name == SUBSTRATE {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (n, line) in code_lines(file) {
        for _ in find_all(line, "Instant::now()") {
            out.push(Finding::new(
                NAME,
                Severity::Warn,
                file,
                n,
                "ad-hoc `Instant::now()`; time through `timed_parse`/obs spans so the \
                 measurement is recorded, or document why with a pragma"
                    .to_string(),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_lib_code_outside_substrate() {
        let f = check(&SourceFile::new(
            "crates/eval/src/x.rs",
            "fn f() { let t = std::time::Instant::now(); let _ = t.elapsed(); }\n",
        ));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn substrate_tests_and_bins_are_exempt() {
        for rel in [
            "crates/obs/src/span.rs",
            "crates/eval/src/bin/experiments.rs",
            "tests/end_to_end.rs",
        ] {
            let f = check(&SourceFile::new(rel, "fn f() { Instant::now(); }\n"));
            assert!(f.is_empty(), "{rel}");
        }
        let in_test = check(&SourceFile::new(
            "crates/eval/src/x.rs",
            "#[cfg(test)]\nmod tests {\n fn f() { Instant::now(); }\n}\n",
        ));
        assert!(in_test.is_empty());
    }
}
