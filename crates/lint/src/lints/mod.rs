//! The lint catalog.
//!
//! Each lint is a function from source files to [`Finding`]s; the
//! runner in [`crate::run_files`] applies pragma suppression and
//! ordering. Only [`Role::Lib`](crate::source::Role::Lib) code outside
//! `#[cfg(test)]` regions is checked unless a lint says otherwise —
//! tests, examples and binaries may panic and time freely.

pub mod durability;
pub mod hot_alloc;
pub mod metric_hygiene;
pub mod panic_freedom;
pub mod pragmas;
pub mod timing;
pub mod unsafe_allowlist;

use crate::source::SourceFile;

/// How a finding counts toward the exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Reported; fatal only under `--deny warnings`.
    Warn,
    /// Always fatal.
    Error,
}

impl Severity {
    /// Lowercase label used in both output formats.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warn => "warning",
            Severity::Error => "error",
        }
    }
}

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Lint name (kebab-case, as accepted by `lint:allow`).
    pub lint: &'static str,
    /// Severity before any `--deny` promotion.
    pub severity: Severity,
    /// Workspace-relative path.
    pub rel: String,
    /// 1-based line.
    pub line: u32,
    /// Human explanation.
    pub message: String,
    /// Extra anchor lines whose pragmas also suppress this finding
    /// (`durability-discipline`'s `fn` declaration line).
    pub also_allow_at: Vec<u32>,
}

impl Finding {
    pub(crate) fn new(
        lint: &'static str,
        severity: Severity,
        file: &SourceFile,
        line: u32,
        message: String,
    ) -> Finding {
        Finding {
            lint,
            severity,
            rel: file.rel.clone(),
            line,
            message,
            also_allow_at: Vec::new(),
        }
    }
}

/// Every lint name `lint:allow` accepts, with its default severity and
/// one-line description — the catalog `--list` prints.
pub const CATALOG: &[(&str, Severity, &str)] = &[
    (
        "panic-freedom",
        Severity::Error,
        "no unwrap/expect/panic!/literal slice index in hot-path crates",
    ),
    (
        "unsafe-allowlist",
        Severity::Error,
        "unsafe only in ingest/src/signal.rs and core/src/ascii_str.rs; crate roots must forbid unsafe_code",
    ),
    (
        "obs-metric-hygiene",
        Severity::Error,
        "metric families: literal names, one registration site, documented in DESIGN.md",
    ),
    (
        "timing-discipline",
        Severity::Warn,
        "Instant::now() only inside the obs instrumentation layer",
    ),
    (
        "hot-path-string-alloc",
        Severity::Warn,
        "no to_string/String::from/format! in loop bodies of parsers or the parallel driver",
    ),
    (
        "durability-discipline",
        Severity::Error,
        "create/write->rename publish paths fsync file and directory, or name their flush tier",
    ),
    (
        "bad-pragma",
        Severity::Error,
        "lint:allow pragmas must name a known lint and carry a reason",
    ),
];

/// True when `name` is a lint `lint:allow` may reference.
pub fn known_lint(name: &str) -> bool {
    CATALOG.iter().any(|(n, _, _)| *n == name)
}

/// Yields `(line_no, masked_line)` for every non-test line of `file`.
pub fn code_lines(file: &SourceFile) -> impl Iterator<Item = (u32, &str)> + '_ {
    (1..=file.line_count() as u32)
        .filter(|&n| !file.is_test_line(n))
        .map(|n| (n, file.masked_line(n)))
}

/// Byte positions of every occurrence of `pat` in `hay`.
pub fn find_all(hay: &str, pat: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = hay[from..].find(pat) {
        out.push(from + p);
        from += p + pat.len();
    }
    out
}

/// The entries of a path list that name no file under the workspace
/// root. A stale entry scopes nothing, so no lint test notices it.
#[cfg(test)]
pub(crate) fn missing_files<'a>(list: &[&'a str]) -> Vec<&'a str> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    list.iter()
        .copied()
        .filter(|rel| !root.join(rel).is_file())
        .collect()
}
