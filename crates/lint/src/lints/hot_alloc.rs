//! `hot-path-string-alloc`: no per-token string allocation in parser
//! inner loops.
//!
//! The interning refactor moved every parser's hot path onto dense
//! `Symbol` ids precisely so the per-line/per-token loops stop hashing
//! and allocating strings. A `to_string()` / `String::from` /
//! `format!` inside a loop body of the parsers crate or the parallel
//! driver quietly reintroduces that cost — one allocation per
//! iteration, invisible in review, visible in the throughput tables.
//!
//! The lint brace-tracks loop bodies (`for`/`while`/`loop`) over the
//! masked code view and warns on allocation calls found inside one.
//! Output-time rendering (template resolution after the loop) is the
//! sanctioned pattern; a loop that genuinely must allocate documents
//! itself with a pragma.

use super::{code_lines, Finding, Severity};
use crate::source::{Role, SourceFile};

const NAME: &str = "hot-path-string-alloc";

/// Allocation calls that have no place in a per-token loop.
const PATTERNS: &[&str] = &[".to_string()", "String::from(", "format!("];

/// Scope: the parsers crate, the parallel driver, and the zero-copy
/// corpus loader path (scanner, masker, interner, loader) — the loops
/// the throughput benchmark measures.
const CORE_HOT_FILES: &[&str] = &[
    "crates/core/src/parallel.rs",
    "crates/core/src/loader.rs",
    "crates/core/src/simd.rs",
    "crates/core/src/intern.rs",
    "crates/core/src/preprocess.rs",
];

fn in_scope(file: &SourceFile) -> bool {
    file.role == Role::Lib
        && (file.crate_name == "parsers" || CORE_HOT_FILES.contains(&file.rel.as_str()))
}

/// Is the byte at `pos` the start of a standalone keyword `kw`?
fn keyword_at(line: &str, pos: usize, kw: &str) -> bool {
    if !line[pos..].starts_with(kw) {
        return false;
    }
    let before_ok = pos == 0
        || !line[..pos]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
    let after_ok = !line[pos + kw.len()..]
        .chars()
        .next()
        .is_some_and(|c| c.is_alphanumeric() || c == '_');
    before_ok && after_ok
}

/// Runs the lint over one file.
pub fn check(file: &SourceFile) -> Vec<Finding> {
    if !in_scope(file) {
        return Vec::new();
    }
    let mut out = Vec::new();
    // Brace depth, the depths at which loop bodies opened, and whether
    // a loop header is waiting for its `{`. State carries across lines
    // so multi-line headers and bodies track correctly. A `for` only
    // becomes a loop once its `in` appears — `impl Trait for Type` and
    // `for<'a>` bounds never do.
    let mut depth = 0usize;
    let mut loop_depths: Vec<usize> = Vec::new();
    let mut pending_loop = false;
    let mut pending_for = false;
    for (n, line) in code_lines(file) {
        let mut i = 0;
        while i < line.len() {
            if !line.is_char_boundary(i) {
                i += 1;
                continue;
            }
            if keyword_at(line, i, "while") || keyword_at(line, i, "loop") {
                pending_loop = true;
            } else if keyword_at(line, i, "for") {
                pending_for = true;
            } else if pending_for && keyword_at(line, i, "in") {
                pending_for = false;
                pending_loop = true;
            }
            if !loop_depths.is_empty() {
                if let Some(pat) = PATTERNS.iter().find(|p| line[i..].starts_with(**p)) {
                    out.push(Finding::new(
                        NAME,
                        Severity::Warn,
                        file,
                        n,
                        format!(
                            "`{}` inside a loop body allocates per iteration; keep hot \
                             loops on interned `Symbol`s and resolve to strings after \
                             the loop, or document why with a pragma",
                            pat.trim_end_matches('(')
                        ),
                    ));
                    i += pat.len();
                    continue;
                }
            }
            match line.as_bytes()[i] {
                b'{' => {
                    depth += 1;
                    if pending_loop {
                        loop_depths.push(depth);
                        pending_loop = false;
                    }
                    // An `impl … for Type {` reaches its `{` with no
                    // `in`: not a loop.
                    pending_for = false;
                }
                b'}' => {
                    if loop_depths.last() == Some(&depth) {
                        loop_depths.pop();
                    }
                    depth = depth.saturating_sub(1);
                }
                // A `;` between a loop keyword and `{` means the keyword
                // belonged to a statement that ended; clear the flags so
                // an unrelated later block is not misread as a loop body.
                b';' => {
                    pending_loop = false;
                    pending_for = false;
                }
                _ => {}
            }
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rel: &str, body: &str) -> Vec<Finding> {
        check(&SourceFile::new(rel, body))
    }

    #[test]
    fn flags_allocation_inside_loop_in_parsers() {
        let out = run(
            "crates/parsers/src/x.rs",
            "fn f(v: &[u32]) -> Vec<String> {\n\
             let mut o = Vec::new();\n\
             for x in v {\n    o.push(x.to_string());\n}\no\n}\n",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].lint, NAME);
        assert_eq!(out[0].severity, Severity::Warn);
        assert_eq!(out[0].line, 4);
    }

    #[test]
    fn allocation_outside_loops_is_fine() {
        let out = run(
            "crates/parsers/src/x.rs",
            "fn f() -> String {\n    let s = format!(\"{}\", 1);\n    s.to_string()\n}\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn while_and_nested_blocks_are_tracked() {
        let out = run(
            "crates/core/src/parallel.rs",
            "fn f(mut n: u32) {\n\
             while n > 0 {\n    if n % 2 == 0 {\n        let _ = String::from(\"x\");\n    }\n    n -= 1;\n}\n}\n",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 4);
    }

    #[test]
    fn out_of_scope_crates_and_tests_are_exempt() {
        let body = "fn f(v: &[u32]) { for x in v { let _ = x.to_string(); } }\n";
        assert!(run("crates/eval/src/x.rs", body).is_empty());
        assert!(run("crates/core/src/record.rs", body).is_empty());
        let in_test = format!("#[cfg(test)]\nmod tests {{\n{body}}}\n");
        assert!(run("crates/parsers/src/x.rs", &in_test).is_empty());
    }

    #[test]
    fn loader_path_files_are_in_scope() {
        let body = "fn f(v: &[u32]) { for x in v { let _ = x.to_string(); } }\n";
        for rel in [
            "crates/core/src/loader.rs",
            "crates/core/src/simd.rs",
            "crates/core/src/intern.rs",
        ] {
            assert_eq!(run(rel, body).len(), 1, "{rel} should be linted");
        }
    }

    #[test]
    fn impl_for_blocks_are_not_loops() {
        let out = run(
            "crates/parsers/src/x.rs",
            "impl std::fmt::Display for X {\n\
             fn fmt(&self, f: &mut std::fmt::Formatter) -> std::fmt::Result {\n\
             write!(f, \"{}\", self.0.to_string())\n}\n}\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn for_each_and_identifiers_do_not_open_loops() {
        let out = run(
            "crates/parsers/src/x.rs",
            "fn f(v: &[u32]) {\n\
             v.iter().for_each(|x| drop(x));\n\
             let looped = 1;\n\
             let _ = (looped, format!(\"{}\", 2));\n}\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }
}
