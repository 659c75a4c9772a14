//! Per-file analysis model: role classification, test-region tracking,
//! and suppression pragmas.

use crate::lexer::{lex, Lexed};

/// What kind of target a file belongs to. Several lints only apply to
/// library code — test, example and binary targets are expected to
/// index, unwrap and time freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// `src/**` of a library crate.
    Lib,
    /// `src/main.rs`, `src/bin/**` — binary targets.
    Bin,
    /// `tests/**` integration tests.
    Test,
    /// `examples/**`.
    Example,
}

/// A `lint:allow` suppression comment.
///
/// Grammar (comment must start with the keyword after trimming):
///
/// ```text
/// // lint:allow(<lint-name>): <non-empty reason>
/// // lint:allow-file(<lint-name>): <non-empty reason>
/// ```
///
/// A line-scoped pragma suppresses findings of that lint on its own
/// line and on the next code line; the file-scoped form covers the
/// whole file. The reason is mandatory — an allow without a recorded
/// why is itself reported (`bad-pragma`).
#[derive(Debug, Clone)]
pub struct Pragma {
    /// Lint name inside the parentheses.
    pub lint: String,
    /// 1-based line the pragma comment sits on.
    pub line: u32,
    /// Whether this is the `allow-file` form.
    pub file_scoped: bool,
    /// The reason text after the colon (may be empty — then invalid).
    pub reason: String,
}

/// One workspace source file, lexed and classified.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub rel: String,
    /// Owning crate name (`crates/<name>/…`), or the root package name.
    pub crate_name: String,
    /// Target kind, derived from the path.
    pub role: Role,
    /// Lexer output (masked view + string/comment tables).
    pub lexed: Lexed,
    /// Byte range of each 1-based line within the masked view.
    line_spans: Vec<(usize, usize)>,
    /// `true` for every line inside a `#[cfg(test)]` / `#[test]` item.
    test_lines: Vec<bool>,
    /// Parsed suppression pragmas.
    pub pragmas: Vec<Pragma>,
}

impl SourceFile {
    /// Lexes and classifies `text` as the workspace file `rel`.
    pub fn new(rel: &str, text: &str) -> SourceFile {
        let rel = rel.replace('\\', "/");
        let lexed = lex(text);
        let line_spans = line_spans(&lexed.masked);
        let test_lines = test_regions(&lexed.masked, &line_spans);
        let pragmas = parse_pragmas(&lexed);
        SourceFile {
            crate_name: crate_of(&rel),
            role: role_of(&rel),
            rel,
            lexed,
            line_spans,
            test_lines,
            pragmas,
        }
    }

    /// Number of lines in the file.
    pub fn line_count(&self) -> usize {
        self.line_spans.len()
    }

    /// The masked (code-only) text of 1-based line `n`.
    pub fn masked_line(&self, n: u32) -> &str {
        match self.line_spans.get(n as usize - 1) {
            Some(&(a, b)) => &self.lexed.masked[a..b],
            None => "",
        }
    }

    /// 1-based line number containing masked byte `offset`.
    pub fn line_of_offset(&self, offset: usize) -> u32 {
        match self.line_spans.partition_point(|&(a, _)| a <= offset) {
            0 => 1,
            n => n as u32,
        }
    }

    /// Whether 1-based line `n` sits inside a test item.
    pub fn is_test_line(&self, n: u32) -> bool {
        self.test_lines
            .get(n as usize - 1)
            .copied()
            .unwrap_or(false)
    }

    /// Whether a finding of `lint` at line `n` is suppressed by a
    /// pragma. A pragma covers its own line and the next *code* line
    /// (comment-only and blank lines in between are skipped, so a
    /// multi-line reason still reaches its target). `extra_lines` lets
    /// a finding accept a pragma at another anchor
    /// (`durability-discipline` accepts one on the `fn` line).
    pub fn suppressed(&self, lint: &str, n: u32, extra_lines: &[u32]) -> bool {
        self.pragmas.iter().any(|p| {
            p.lint == lint
                && !p.reason.trim().is_empty()
                && (p.file_scoped
                    || self.covers(p.line, n)
                    || extra_lines.iter().any(|&e| self.covers(p.line, e)))
        })
    }

    /// True when a pragma on `pragma_line` covers line `n`.
    fn covers(&self, pragma_line: u32, n: u32) -> bool {
        if pragma_line == n {
            return true;
        }
        let next_code = (pragma_line + 1..=self.line_count() as u32)
            .find(|&m| !self.masked_line(m).trim().is_empty());
        next_code == Some(n)
    }
}

fn line_spans(masked: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = 0usize;
    for (i, b) in masked.bytes().enumerate() {
        if b == b'\n' {
            spans.push((start, i));
            start = i + 1;
        }
    }
    if start < masked.len() {
        spans.push((start, masked.len()));
    }
    spans
}

/// Marks every line belonging to an item annotated `#[cfg(test)]` or
/// `#[test]`: from the attribute, the region runs to the close of the
/// first brace block that follows.
fn test_regions(masked: &str, spans: &[(usize, usize)]) -> Vec<bool> {
    let mut test = vec![false; spans.len()];
    let bytes = masked.as_bytes();
    for (idx, &(a, b)) in spans.iter().enumerate() {
        let line = &masked[a..b];
        if !(line.contains("#[cfg(test)]") || line.contains("#[test]")) {
            continue;
        }
        // Find the first `{` at or after the attribute, then match it.
        let Some(open_rel) = masked[a..].find('{') else {
            continue;
        };
        let mut depth = 0usize;
        let mut end = masked.len();
        for (i, &c) in bytes.iter().enumerate().skip(a + open_rel) {
            match c {
                b'{' => depth += 1,
                b'}' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        end = i;
                        break;
                    }
                }
                _ => {}
            }
        }
        for (j, t) in test.iter_mut().enumerate().skip(idx) {
            if spans[j].0 <= end {
                *t = true;
            }
        }
    }
    test
}

fn parse_pragmas(lexed: &Lexed) -> Vec<Pragma> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        let t = c.text.trim();
        let (file_scoped, rest) = if let Some(r) = t.strip_prefix("lint:allow-file(") {
            (true, r)
        } else if let Some(r) = t.strip_prefix("lint:allow(") {
            (false, r)
        } else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            out.push(Pragma {
                lint: String::new(),
                line: c.line,
                file_scoped,
                reason: String::new(),
            });
            continue;
        };
        let lint = rest[..close].trim().to_string();
        let after = rest[close + 1..].trim_start();
        let reason = after.strip_prefix(':').unwrap_or("").trim().to_string();
        out.push(Pragma {
            lint,
            line: c.line,
            file_scoped,
            reason,
        });
    }
    out
}

fn role_of(rel: &str) -> Role {
    let parts: Vec<&str> = rel.split('/').collect();
    let has = |seg: &str| parts.contains(&seg);
    if has("tests") {
        Role::Test
    } else if has("examples") {
        Role::Example
    } else if has("bin") || parts.last() == Some(&"main.rs") {
        Role::Bin
    } else {
        Role::Lib
    }
}

fn crate_of(rel: &str) -> String {
    let parts: Vec<&str> = rel.split('/').collect();
    match parts.as_slice() {
        ["crates", name, ..] => (*name).to_string(),
        _ => "logmine".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles_and_crates() {
        let f = SourceFile::new("crates/ingest/src/worker.rs", "");
        assert_eq!(f.role, Role::Lib);
        assert_eq!(f.crate_name, "ingest");
        assert_eq!(
            SourceFile::new("crates/cli/src/main.rs", "").role,
            Role::Bin
        );
        assert_eq!(SourceFile::new("tests/end_to_end.rs", "").role, Role::Test);
        assert_eq!(
            SourceFile::new("crates/eval/src/bin/experiments.rs", "").role,
            Role::Bin
        );
        assert_eq!(
            SourceFile::new("examples/quickstart.rs", "").role,
            Role::Example
        );
        assert_eq!(SourceFile::new("src/lib.rs", "").crate_name, "logmine");
    }

    #[test]
    fn test_region_covers_cfg_test_module() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let f = SourceFile::new("crates/core/src/x.rs", src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(2));
        assert!(f.is_test_line(4));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn pragma_parsing() {
        let src = "// lint:allow(panic-freedom): poisoning is sticky\nlet x = 1;\n\
                   // lint:allow-file(timing-discipline): bench shim\n// lint:allow(x)\n";
        let f = SourceFile::new("crates/core/src/x.rs", src);
        assert_eq!(f.pragmas.len(), 3);
        assert!(!f.pragmas[0].file_scoped);
        assert_eq!(f.pragmas[0].lint, "panic-freedom");
        assert!(f.suppressed("panic-freedom", 2, &[]));
        assert!(f.pragmas[1].file_scoped);
        assert!(f.suppressed("timing-discipline", 99, &[]));
        // Reason missing: parsed but never suppresses.
        assert!(f.pragmas[2].reason.is_empty());
        assert!(!f.suppressed("x", 5, &[]));
    }

    #[test]
    fn pragma_coverage_spans_own_and_next_code_line() {
        let f = SourceFile::new(
            "crates/ingest/src/x.rs",
            "// lint:allow(panic-freedom): documented invariant\n\n\
             fn f(v: &[u32]) -> u32 { v[0] }\n",
        );
        assert!(f.suppressed("panic-freedom", 1, &[]));
        assert!(f.suppressed("panic-freedom", 3, &[]), "blank line skipped");
        assert!(!f.suppressed("panic-freedom", 4, &[]));
        assert!(!f.suppressed("timing-discipline", 3, &[]));
        assert!(f.suppressed("panic-freedom", 99, &[3]), "extras route");
    }
}
