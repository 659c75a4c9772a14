//! `obs-metric-hygiene`: the metric namespace is a contract.
//!
//! Every metric family the workspace registers (`registry.counter(…)`,
//! `.gauge(…)`, `.histogram(…)`) must
//!
//! 1. pass its family name as a **string literal** — hygiene cannot
//!    verify a name that only exists at runtime;
//! 2. be registered at **exactly one** library call site — one place
//!    owns the name, the help text and the label schema (shared series
//!    are cloned from the owning handle, or the duplicate site carries
//!    a reasoned pragma);
//! 3. appear in the **Observability table of DESIGN.md** — and every
//!    family the table documents must exist in code. The docs and the
//!    scrape can never drift apart silently.
//!
//! The same three rules cover the history ring's series vocabulary:
//! instrumentation-side sampling calls (`.record_sample(…)`,
//! `.track_counter(…)`, `.track_gauge(…)`, `.track_quantile(…)`) name
//! the series they feed, so those names are literal, single-owner, and
//! cross-checked against the section's table whose header cell is
//! `series` (families live in the table headed `family`).
//! [`History::replay`] is deliberately exempt — it is the *import*
//! surface for runtime names (fixture replay, `logmine alerts check`).
//!
//! Scope: library code outside test regions. Binaries, examples and
//! tests consume metrics, they do not define them.

use super::{Finding, Severity};
use crate::source::{Role, SourceFile};
use std::collections::BTreeMap;

const NAME: &str = "obs-metric-hygiene";

const REGISTRATION: &[&str] = &[".counter(", ".gauge(", ".histogram("];

const SAMPLING: &[&str] = &[
    ".record_sample(",
    ".track_counter(",
    ".track_gauge(",
    ".track_quantile(",
];

/// One registration call site.
#[derive(Debug)]
struct Site {
    rel: String,
    line: u32,
}

/// Which namespace a call site feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Registry family registration (`.counter(` / `.gauge(` / …).
    Family,
    /// History-series sampling (`.record_sample(` / `.track_*(`).
    Series,
}

/// One literal-named call site, extracted per file for the workspace
/// cross-check.
#[derive(Debug, Clone)]
pub struct MetricSite {
    /// Namespace category.
    pub kind: MetricKind,
    /// The literal name passed at the call.
    pub name: String,
    /// 1-based line of the call.
    pub line: u32,
}

/// The vocabulary of one namespace category: how its names enter code
/// and how the lint talks about them.
struct Category {
    patterns: &'static [&'static str],
    /// "metric family" / "history series".
    what: &'static str,
    /// "registered" / "recorded".
    verb: &'static str,
    /// Which DESIGN.md table documents it.
    table: &'static str,
}

const FAMILIES: Category = Category {
    patterns: REGISTRATION,
    what: "metric family",
    verb: "registered",
    table: "Observability table",
};

const SERIES: Category = Category {
    patterns: SAMPLING,
    what: "history series",
    verb: "recorded",
    table: "Observability history-series table",
};

/// Extracts one file's literal-named call sites, plus the findings for
/// non-literal names.
pub fn extract(file: &SourceFile) -> (Vec<MetricSite>, Vec<Finding>) {
    let mut sites = Vec::new();
    let mut out = Vec::new();
    if file.role != Role::Lib {
        return (sites, out);
    }
    for (category, kind) in [
        (&FAMILIES, MetricKind::Family),
        (&SERIES, MetricKind::Series),
    ] {
        for pat in category.patterns {
            for off in super::find_all(&file.lexed.masked, pat) {
                let line = file.line_of_offset(off);
                if file.is_test_line(line) {
                    continue;
                }
                let open = off + pat.len();
                match first_arg_literal(file, open) {
                    Some(name) => sites.push(MetricSite { kind, name, line }),
                    None => out.push(Finding::new(
                        NAME,
                        Severity::Error,
                        file,
                        line,
                        format!(
                            "{} {} through a non-literal name; hygiene cannot \
                             check it — pass the name as a string literal",
                            category.what, category.verb
                        ),
                    )),
                }
            }
        }
    }
    (sites, out)
}

/// The workspace-level single-owner and DESIGN.md cross-checks over
/// every file's extracted sites (in file order — the first site of a
/// name owns it).
pub fn cross_check_all(
    files: &[(&str, &[MetricSite])],
    design: Option<(&str, &str)>,
) -> Vec<Finding> {
    let mut family_sites: BTreeMap<String, Vec<Site>> = BTreeMap::new();
    let mut series_sites: BTreeMap<String, Vec<Site>> = BTreeMap::new();
    for (rel, sites) in files {
        for s in *sites {
            let map = match s.kind {
                MetricKind::Family => &mut family_sites,
                MetricKind::Series => &mut series_sites,
            };
            map.entry(s.name.clone()).or_default().push(Site {
                rel: (*rel).to_string(),
                line: s.line,
            });
        }
    }
    let (documented_families, documented_series) = match design {
        Some((_, text)) => design_tables(text),
        None => (BTreeMap::new(), BTreeMap::new()),
    };
    let mut out = Vec::new();
    cross_check(
        &FAMILIES,
        &family_sites,
        &documented_families,
        design.map(|(rel, _)| rel),
        &mut out,
    );
    cross_check(
        &SERIES,
        &series_sites,
        &documented_series,
        design.map(|(rel, _)| rel),
        &mut out,
    );
    out
}

/// The bidirectional code ↔ DESIGN.md check for one category.
fn cross_check(
    category: &Category,
    sites: &BTreeMap<String, Vec<Site>>,
    documented: &BTreeMap<String, u32>,
    design_rel: Option<&str>,
    out: &mut Vec<Finding>,
) {
    for (name, name_sites) in sites {
        if !documented.contains_key(name) {
            let s = &name_sites[0];
            out.push(Finding {
                lint: NAME,
                severity: Severity::Error,
                rel: s.rel.clone(),
                line: s.line,
                message: format!(
                    "{} `{name}` is not documented in DESIGN.md's {}",
                    category.what, category.table
                ),
                also_allow_at: Vec::new(),
            });
        }
        for dup in &name_sites[1..] {
            out.push(Finding {
                lint: NAME,
                severity: Severity::Error,
                rel: dup.rel.clone(),
                line: dup.line,
                message: format!(
                    "{} `{name}` is already {} at {}:{}; one site owns a name \
                     (clone the handle, or add a reasoned pragma)",
                    category.what, category.verb, name_sites[0].rel, name_sites[0].line
                ),
                also_allow_at: Vec::new(),
            });
        }
    }

    match design_rel {
        Some(design_rel) => {
            for (name, line) in documented {
                if !sites.contains_key(name) {
                    out.push(Finding {
                        lint: NAME,
                        severity: Severity::Error,
                        rel: design_rel.to_string(),
                        line: *line,
                        message: format!(
                            "documented {} `{name}` is never {} in workspace \
                             library code",
                            category.what, category.verb
                        ),
                        also_allow_at: Vec::new(),
                    });
                }
            }
        }
        None => {
            if let Some(s) = sites.values().next().and_then(|v| v.first()) {
                out.push(Finding {
                    lint: NAME,
                    severity: Severity::Error,
                    rel: s.rel.clone(),
                    line: s.line,
                    message: format!(
                        "workspace {}s {}s but has no DESIGN.md Observability \
                         table documenting them",
                        category.verb.trim_end_matches("ed"),
                        category.what
                    ),
                    also_allow_at: Vec::new(),
                });
            }
        }
    }
}

/// If the first argument of the call whose `(` content starts at
/// masked offset `open` is a string literal, returns its content.
fn first_arg_literal(file: &SourceFile, open: usize) -> Option<String> {
    let bytes = file.lexed.masked.as_bytes();
    let mut i = open;
    while i < bytes.len() && (bytes[i] as char).is_whitespace() {
        i += 1;
    }
    if bytes.get(i) != Some(&b'"') {
        return None;
    }
    file.lexed
        .strings
        .iter()
        .find(|s| s.offset == i)
        .map(|s| s.content.clone())
}

/// Which documented namespace a markdown table feeds, decided by its
/// header's first cell.
enum TableKind {
    Families,
    Series,
    Other,
}

/// Names (and their 1-based lines) from the markdown tables under
/// DESIGN.md's heading containing "Observability". Each table's header
/// first cell routes its rows: `family` → metric families, `series` →
/// history series; anything else is ignored. Cell values have
/// backticks stripped and any `{labels}` suffix removed.
fn design_tables(text: &str) -> (BTreeMap<String, u32>, BTreeMap<String, u32>) {
    let mut families = BTreeMap::new();
    let mut series = BTreeMap::new();
    let mut in_section = false;
    let mut table: Option<TableKind> = None;
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with("## ") {
            in_section = line.contains("Observability");
            table = None;
            continue;
        }
        if !in_section {
            continue;
        }
        if !line.starts_with('|') {
            table = None;
            continue;
        }
        let cell = line
            .trim_matches('|')
            .split('|')
            .next()
            .unwrap_or("")
            .trim()
            .trim_matches('`');
        let Some(kind) = &table else {
            table = Some(match cell {
                "family" => TableKind::Families,
                "series" => TableKind::Series,
                _ => TableKind::Other,
            });
            continue;
        };
        let name = cell.split('{').next().unwrap_or("").trim();
        if name.is_empty()
            || name.bytes().all(|b| b == b'-' || b == b':')
            || !name
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        {
            continue;
        }
        match kind {
            TableKind::Families => {
                families.entry(name.to_string()).or_insert(i as u32 + 1);
            }
            TableKind::Series => {
                series.entry(name.to_string()).or_insert(i as u32 + 1);
            }
            TableKind::Other => {}
        }
    }
    (families, series)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DESIGN: &str = "\
# Design

## Observability

| family | type | stage |
|--------|------|-------|
| `app_lines_total` | counter | router |
| `app_span_seconds{span}` | histogram | spans |
| `app_ghost_total` | counter | nowhere |

History series:

| series | source | meaning |
|--------|--------|---------|
| `app_churn` | aggregator | per-window churn |
| `app_ghost_series` | nowhere | documented only |
";

    /// Lints `files` through the production path (`extract` per file,
    /// then `cross_check_all`), keeping this lint's findings.
    fn check(files: &[(&str, &str)], design: Option<(&str, &str)>) -> Vec<Finding> {
        let files: Vec<(String, String)> = files
            .iter()
            .map(|(rel, text)| (rel.to_string(), text.to_string()))
            .collect();
        let mut out = crate::run_files(&files, design);
        out.retain(|f| f.lint == NAME);
        out
    }

    fn files(src: &str) -> Vec<(&'static str, &str)> {
        vec![("crates/obs/src/m.rs", src)]
    }

    #[test]
    fn clean_when_registered_once_and_documented() {
        let fs = files(
            "fn f(r: &Registry) {\n    r.counter(\"app_lines_total\", \"h\", &[]);\n    \
             r.histogram(\n        \"app_span_seconds\",\n        \"h\",\n        &[],\n    );\n    \
             h.record_sample(\"app_churn\", 0.5);\n}\n",
        );
        let out = check(&fs, Some(("DESIGN.md", DESIGN)));
        // Only the ghosts (documented, never in code) fire.
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out[0].message.contains("app_ghost_total"));
        assert!(out[1].message.contains("app_ghost_series"));
        assert!(out.iter().all(|f| f.rel == "DESIGN.md"));
    }

    #[test]
    fn flags_undocumented_duplicate_and_non_literal() {
        let fs = files(
            "fn f(r: &Registry, name: &str) {\n    r.counter(\"app_rogue_total\", \"h\", &[]);\n    \
             r.counter(\"app_lines_total\", \"h\", &[]);\n    \
             r.counter(\"app_lines_total\", \"h\", &[]);\n    r.counter(name, \"h\", &[]);\n}\n",
        );
        let out = check(&fs, Some(("DESIGN.md", DESIGN)));
        let msgs: Vec<&str> = out.iter().map(|f| f.message.as_str()).collect();
        assert!(
            msgs.iter().any(|m| m.contains("app_rogue_total")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("already registered")),
            "{msgs:?}"
        );
        assert!(msgs.iter().any(|m| m.contains("non-literal")), "{msgs:?}");
    }

    #[test]
    fn history_series_are_held_to_the_same_contract() {
        let fs = files(
            "fn f(h: &History, s: &mut Sampler, name: &str) {\n    \
             h.record_sample(\"app_rogue_series\", 1.0);\n    \
             s.track_counter(\"app_churn\", c);\n    \
             s.track_gauge(\"app_churn\", g);\n    \
             h.record_sample(name, 2.0);\n    \
             h.replay(name, 3.0);\n}\n",
        );
        let out = check(&fs, Some(("DESIGN.md", DESIGN)));
        let msgs: Vec<&str> = out.iter().map(|f| f.message.as_str()).collect();
        assert!(
            msgs.iter()
                .any(|m| m.contains("history series `app_rogue_series`")
                    && m.contains("history-series table")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("`app_churn` is already recorded")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("history series recorded through a non-literal")),
            "{msgs:?}"
        );
        // `.replay(` is the runtime import surface: never flagged.
        assert_eq!(
            msgs.iter().filter(|m| m.contains("non-literal")).count(),
            1,
            "{msgs:?}"
        );
    }

    #[test]
    fn series_and_family_tables_do_not_bleed_into_each_other() {
        // A series recorded in code but documented only as a *family*
        // (wrong table) must still be flagged, and vice versa.
        let fs = files(
            "fn f(r: &Registry, h: &History) {\n    \
             h.record_sample(\"app_lines_total\", 1.0);\n    \
             r.counter(\"app_churn\", \"h\", &[]);\n}\n",
        );
        let out = check(&fs, Some(("DESIGN.md", DESIGN)));
        let msgs: Vec<&str> = out.iter().map(|f| f.message.as_str()).collect();
        assert!(
            msgs.iter()
                .any(|m| m.contains("history series `app_lines_total`")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("metric family `app_churn`")),
            "{msgs:?}"
        );
    }

    #[test]
    fn test_regions_and_non_lib_roles_are_ignored() {
        let mut fs = files(
            "#[cfg(test)]\nmod tests {\n fn f(r: &R) { r.counter(\"x_total\", \"\", &[]); \
             h.record_sample(\"y\", 1.0); }\n}\n",
        );
        fs.push((
            "crates/eval/src/bin/experiments.rs",
            "fn main() { global().counter(\"y_total\", \"\", &[]); }\n",
        ));
        let out = check(&fs, Some(("DESIGN.md", "## Observability\n")));
        assert!(out.is_empty(), "{out:?}");
    }
}
