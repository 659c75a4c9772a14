//! Incremental analysis cache.
//!
//! Every [`FileAnalysis`] is a pure function of one file's path and
//! content, so it caches perfectly: entries live under
//! `target/lint-cache` as `<fnv(rel)>-<fnv(content)>.<version>`, one file per
//! source file. **Invalidation rule:** the content hash *is* the key —
//! an edited file simply misses (its stale sibling entries, same `rel`
//! hash with a different content hash, are pruned on write), and the
//! format version suffix retires every entry at once when the
//! serialization or the lint set changes shape.
//!
//! The workspace passes (call graph, lock graph, durability, metric
//! cross-check, suppression) always run — they are cross-file by
//! nature — but they are cheap next to lexing and line-local linting,
//! which is what a warm cache skips.
//!
//! The format is a line-oriented TSV; any parse anomaly (truncated
//! entry, unknown lint name, wrong field count) makes [`load`] return
//! `None` and the file is re-analyzed — a corrupt cache can cost time,
//! never correctness.

use crate::analysis::{FileAnalysis, PragmaInfo};
use crate::flow::{CallSite, FnFlow, LockAcquire};
use crate::lints::metric_hygiene::{MetricKind, MetricSite};
use crate::lints::{static_name, Finding, Severity};
use crate::source::Role;
use std::path::{Path, PathBuf};

/// Bump to retire every existing cache entry.
const VERSION: &str = "v3";

/// FNV-1a 64-bit, the key hash (stable across runs and platforms).
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn entry_path(dir: &Path, rel: &str, text: &str) -> PathBuf {
    dir.join(format!(
        "{:016x}-{:016x}.{VERSION}",
        fnv1a(rel.as_bytes()),
        fnv1a(text.as_bytes())
    ))
}

/// Loads the cached analysis for `(rel, text)`, or `None` on miss or
/// any deserialization anomaly.
pub fn load(dir: &Path, rel: &str, text: &str) -> Option<FileAnalysis> {
    let data = std::fs::read_to_string(entry_path(dir, rel, text)).ok()?;
    deserialize(rel, &data)
}

/// Writes the analysis back and prunes stale entries of the same file
/// (same `rel` hash, different content hash).
pub fn save(dir: &Path, rel: &str, text: &str, a: &FileAnalysis) {
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = entry_path(dir, rel, text);
    let prefix = format!("{:016x}-", fnv1a(rel.as_bytes()));
    if let Ok(rd) = std::fs::read_dir(dir) {
        for e in rd.flatten() {
            let name = e.file_name();
            let name = name.to_string_lossy();
            if name.starts_with(&prefix) && e.path() != path {
                let _ = std::fs::remove_file(e.path());
            }
        }
    }
    let _ = std::fs::write(&path, serialize(a));
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('\t', "\\t")
        .replace('\n', "\\n")
}

fn unesc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

fn csv(v: &[u32]) -> String {
    v.iter().map(u32::to_string).collect::<Vec<_>>().join(",")
}

fn uncsv(s: &str) -> Option<Vec<u32>> {
    if s.is_empty() {
        return Some(Vec::new());
    }
    s.split(',').map(|p| p.parse().ok()).collect()
}

fn role_tag(role: Role) -> &'static str {
    match role {
        Role::Lib => "lib",
        Role::Bin => "bin",
        Role::Test => "test",
        Role::Bench => "bench",
        Role::Example => "example",
    }
}

fn role_of_tag(tag: &str) -> Option<Role> {
    Some(match tag {
        "lib" => Role::Lib,
        "bin" => Role::Bin,
        "test" => Role::Test,
        "bench" => Role::Bench,
        "example" => Role::Example,
        _ => return None,
    })
}

fn finding_record(kind: char, f: &Finding) -> String {
    format!(
        "{kind}\t{}\t{}\t{}\t{}\t{}",
        f.lint,
        match f.severity {
            Severity::Error => "E",
            Severity::Warn => "W",
        },
        f.line,
        csv(&f.also_allow_at),
        esc(&f.message),
    )
}

fn serialize(a: &FileAnalysis) -> String {
    let mut out = String::new();
    out.push_str(&format!("A\t{}\t{}\n", a.crate_name, role_tag(a.role)));
    for f in &a.findings {
        out.push_str(&finding_record('F', f));
        out.push('\n');
    }
    for f in &a.root_findings {
        out.push_str(&finding_record('R', f));
        out.push('\n');
    }
    for m in &a.metric_sites {
        let k = match m.kind {
            MetricKind::Family => "F",
            MetricKind::Series => "S",
        };
        out.push_str(&format!("M\t{k}\t{}\t{}\n", m.line, esc(&m.name)));
    }
    for p in &a.pragmas {
        out.push_str(&format!(
            "P\t{}\t{}\t{}\t{}\n",
            esc(&p.lint),
            p.file_scoped as u8,
            p.valid as u8,
            csv(&p.covered),
        ));
    }
    for f in &a.flow {
        out.push_str(&format!(
            "N\t{}\t{}\t{}\t{}\t{}\t{}\n",
            f.name, f.owner, f.start_line, f.end_line, f.body_span.0, f.body_span.1
        ));
        for l in &f.acquires {
            out.push_str(&format!("L\t{}\t{}\n", esc(&l.id), l.line));
        }
        for c in &f.calls {
            out.push_str(&format!(
                "C\t{}\t{}\t{}\t{}\t{}\n",
                c.callee,
                esc(&c.qual),
                c.self_recv as u8,
                c.line,
                csv(&c.locks_held),
            ));
        }
        let pairs: Vec<String> = f
            .lock_pairs
            .iter()
            .map(|(x, y)| format!("{x}:{y}"))
            .collect();
        out.push_str(&format!("O\t{}\n", pairs.join(",")));
        out.push_str(&format!(
            "U\t{}\t{}\t{}\t{}\t{}\n",
            csv(&f.renames),
            csv(&f.create_dirs),
            csv(&f.file_writes),
            csv(&f.file_syncs),
            csv(&f.dir_syncs),
        ));
    }
    out
}

fn parse_finding(fields: &[&str]) -> Option<Finding> {
    let [lint, sev, line, also, msg] = fields else {
        return None;
    };
    Some(Finding {
        lint: static_name(lint)?,
        severity: match *sev {
            "E" => Severity::Error,
            "W" => Severity::Warn,
            _ => return None,
        },
        rel: String::new(), // filled by the caller
        line: line.parse().ok()?,
        also_allow_at: uncsv(also)?,
        message: unesc(msg),
    })
}

fn deserialize(rel: &str, data: &str) -> Option<FileAnalysis> {
    let mut a = FileAnalysis {
        rel: rel.to_string(),
        crate_name: String::new(),
        role: Role::Lib,
        findings: Vec::new(),
        root_findings: Vec::new(),
        metric_sites: Vec::new(),
        pragmas: Vec::new(),
        flow: Vec::new(),
    };
    let mut saw_header = false;
    for line in data.lines() {
        let (tag, rest) = line.split_once('\t')?;
        let fields: Vec<&str> = rest.split('\t').collect();
        match tag {
            "A" => {
                let [crate_name, role] = fields.as_slice() else {
                    return None;
                };
                a.crate_name = (*crate_name).to_string();
                a.role = role_of_tag(role)?;
                saw_header = true;
            }
            "F" | "R" => {
                let mut f = parse_finding(&fields)?;
                f.rel = rel.to_string();
                if tag == "F" {
                    a.findings.push(f);
                } else {
                    a.root_findings.push(f);
                }
            }
            "M" => {
                let [kind, line_no, name] = fields.as_slice() else {
                    return None;
                };
                a.metric_sites.push(MetricSite {
                    kind: match *kind {
                        "F" => MetricKind::Family,
                        "S" => MetricKind::Series,
                        _ => return None,
                    },
                    line: line_no.parse().ok()?,
                    name: unesc(name),
                });
            }
            "P" => {
                let [lint, fs, valid, covered] = fields.as_slice() else {
                    return None;
                };
                a.pragmas.push(PragmaInfo {
                    lint: unesc(lint),
                    file_scoped: *fs == "1",
                    valid: *valid == "1",
                    covered: uncsv(covered)?,
                });
            }
            "N" => {
                let [name, owner, start, end, s0, s1] = fields.as_slice() else {
                    return None;
                };
                a.flow.push(FnFlow {
                    name: (*name).to_string(),
                    owner: (*owner).to_string(),
                    start_line: start.parse().ok()?,
                    end_line: end.parse().ok()?,
                    body_span: (s0.parse().ok()?, s1.parse().ok()?),
                    ..FnFlow::default()
                });
            }
            "L" => {
                let [id, line_no] = fields.as_slice() else {
                    return None;
                };
                a.flow.last_mut()?.acquires.push(LockAcquire {
                    id: unesc(id),
                    line: line_no.parse().ok()?,
                });
            }
            "C" => {
                let [callee, qual, recv, line_no, locks] = fields.as_slice() else {
                    return None;
                };
                a.flow.last_mut()?.calls.push(CallSite {
                    callee: (*callee).to_string(),
                    qual: unesc(qual),
                    self_recv: *recv == "1",
                    line: line_no.parse().ok()?,
                    locks_held: uncsv(locks)?,
                });
            }
            "O" => {
                let [pairs] = fields.as_slice() else {
                    return None;
                };
                let f = a.flow.last_mut()?;
                if !pairs.is_empty() {
                    for p in pairs.split(',') {
                        let (x, y) = p.split_once(':')?;
                        f.lock_pairs.push((x.parse().ok()?, y.parse().ok()?));
                    }
                }
            }
            "U" => {
                let [ren, cre, wri, fsy, dsy] = fields.as_slice() else {
                    return None;
                };
                let f = a.flow.last_mut()?;
                f.renames = uncsv(ren)?;
                f.create_dirs = uncsv(cre)?;
                f.file_writes = uncsv(wri)?;
                f.file_syncs = uncsv(fsy)?;
                f.dir_syncs = uncsv(dsy)?;
            }
            _ => return None,
        }
    }
    if saw_header {
        Some(a)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;

    const SRC: &str = "// lint:allow(panic-freedom): first element checked by caller\n\
        pub fn f(&self, v: &[u32]) -> u32 {\n    let g = self.state.lock().unwrap();\n    \
        let h = OTHER.lock().unwrap();\n    r.counter(\"x_total\", \"h\", &[]);\n    \
        fs::rename(a, b).unwrap();\n    helper(&g, &h);\n    v[0]\n}\n";

    #[test]
    fn round_trips_through_disk() {
        let a = analyze("crates/store/src/x.rs", SRC);
        let dir = std::env::temp_dir().join(format!(
            "lint-cache-test-{:016x}",
            fnv1a(SRC.as_bytes()) ^ std::process::id() as u64
        ));
        save(&dir, "crates/store/src/x.rs", SRC, &a);
        let b = load(&dir, "crates/store/src/x.rs", SRC).expect("hit");
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        // Different content misses; stale entries were pruned on save.
        assert!(load(&dir, "crates/store/src/x.rs", "fn other() {}\n").is_none());
        let other = analyze("crates/store/src/x.rs", "fn other() {}\n");
        save(&dir, "crates/store/src/x.rs", "fn other() {}\n", &other);
        assert!(
            load(&dir, "crates/store/src/x.rs", SRC).is_none(),
            "old entry pruned by the new save"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_recompute() {
        assert!(deserialize("x.rs", "garbage with no tabs").is_none());
        assert!(deserialize("x.rs", "F\tno-such-lint\tE\t1\t\tmsg").is_none());
        assert!(deserialize("x.rs", "").is_none());
        assert!(deserialize("x.rs", "L\tid\t3").is_none(), "L before any N");
    }

    #[test]
    fn fnv_is_stable() {
        // Reference vectors for FNV-1a 64.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
