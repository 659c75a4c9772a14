//! Per-file flow extraction: the symbol table and function summaries
//! `durability-discipline` consumes.
//!
//! The existing lexer gives a masked code view; this module lifts it
//! one level: every `fn` item (with its `impl` owner, when any) becomes
//! a [`FnFlow`] carrying
//!
//! * **call sites** — callee name plus a qualifier (`Type::`, method
//!   receiver, or bare);
//! * **durability facts** — lines that rename, create directories,
//!   create/write files, `sync_all`/`sync_data`, or `sync_dir`.
//!
//! Everything here is a heuristic over surface syntax; the call-graph
//! layer ([`crate::callgraph`]) keeps an explicit *unresolved* bucket so
//! downstream lints stay sound-by-report: what the analysis cannot see
//! it counts, it never silently guesses.

use crate::source::SourceFile;

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Bare callee name (the identifier before the `(`).
    pub callee: String,
    /// `""` for a bare call, `"."` for a method call, otherwise the
    /// path segment before `::` (`TemplateStore`, `fs`, `Self`, …).
    pub qual: String,
    /// Whether a method call's receiver is literally `self`.
    pub self_recv: bool,
    /// 1-based line of the call.
    pub line: u32,
}

/// The flow summary of one non-test `fn` item.
#[derive(Debug, Clone, Default)]
pub struct FnFlow {
    /// Bare function name.
    pub name: String,
    /// Last path segment of the `impl` type owning this method, or
    /// `""` for a free function.
    pub owner: String,
    /// 1-based line of the `fn` keyword.
    pub start_line: u32,
    /// Byte span of the body (inclusive `{` … `}`) in the masked view.
    pub body_span: (usize, usize),
    /// Every call site, in source order.
    pub calls: Vec<CallSite>,
    /// Lines calling `fs::rename`.
    pub renames: Vec<u32>,
    /// Lines calling `create_dir`/`create_dir_all`.
    pub create_dirs: Vec<u32>,
    /// Lines creating or opening files for writing.
    pub file_writes: Vec<u32>,
    /// Lines calling `.sync_all()`/`.sync_data()`.
    pub file_syncs: Vec<u32>,
    /// Lines calling `sync_dir(` (the workspace's directory-fsync
    /// helper).
    pub dir_syncs: Vec<u32>,
}

/// Keywords that look like calls when followed by `(`.
const NOT_CALLS: &[&str] = &[
    "if", "for", "while", "match", "return", "loop", "fn", "let", "in", "move", "as", "else",
];

/// Extracts every non-test function's flow summary from `file`.
pub fn extract(file: &SourceFile) -> Vec<FnFlow> {
    let masked = &file.lexed.masked;
    let impls = impl_spans(masked);
    let mut fns = fn_spans(file, masked, &impls);
    // Innermost-wins attribution: give each fn the list of child spans
    // to skip while walking its own body.
    let spans: Vec<(usize, usize)> = fns.iter().map(|f| f.body_span).collect();
    for (idx, flow) in fns.iter_mut().enumerate() {
        let children: Vec<(usize, usize)> = spans
            .iter()
            .enumerate()
            .filter(|&(j, s)| j != idx && s.0 > flow.body_span.0 && s.1 <= flow.body_span.1)
            .map(|(_, s)| *s)
            .collect();
        walk_body(file, masked, flow, &children);
    }
    fns
}

/// `impl` block spans with the owning type's last path segment.
fn impl_spans(masked: &str) -> Vec<(usize, usize, String)> {
    let bytes = masked.as_bytes();
    let mut out = Vec::new();
    for off in keyword_sites(masked, "impl") {
        let mut i = off + 4;
        // Skip generic parameters on the impl itself.
        i = skip_ws(bytes, i);
        if bytes.get(i) == Some(&b'<') {
            i = skip_balanced(bytes, i, b'<', b'>');
            i = skip_ws(bytes, i);
        }
        // Read the type (or trait) path up to `{`, `for` or `where`;
        // when a `for` appears, the implemented type follows it.
        let (first, after_first) = read_type(masked, i);
        let mut ty = first;
        let mut j = skip_ws(bytes, after_first);
        if masked[j..].starts_with("for") && !is_ident_at(bytes, j + 3) {
            let (second, after_second) = read_type(masked, skip_ws(bytes, j + 3));
            ty = second;
            j = skip_ws(bytes, after_second);
        }
        if masked[j..].starts_with("where") {
            j = match masked[j..].find('{') {
                Some(p) => j + p,
                None => continue,
            };
        }
        if bytes.get(j) != Some(&b'{') {
            continue;
        }
        let end = match_brace(bytes, j);
        out.push((j, end, last_segment(&ty)));
    }
    out
}

/// Reads a type path starting at `i`: identifiers, `::`, and balanced
/// `<…>` groups. Returns the text (generics stripped later) and the
/// offset just past it.
fn read_type(masked: &str, mut i: usize) -> (String, usize) {
    let bytes = masked.as_bytes();
    let start = i;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_alphanumeric() || b == b'_' || b == b':' || b == b'&' || b == b'\'' {
            i += 1;
        } else if b == b'<' {
            i = skip_balanced(bytes, i, b'<', b'>');
        } else if b == b' ' {
            // A space ends the path unless `::` continues after it.
            let k = skip_ws(bytes, i);
            if bytes.get(k) == Some(&b':') {
                i = k;
            } else {
                break;
            }
        } else {
            break;
        }
    }
    (masked[start..i].to_string(), i)
}

fn last_segment(ty: &str) -> String {
    let base = ty.split('<').next().unwrap_or("");
    base.rsplit("::")
        .next()
        .unwrap_or("")
        .trim()
        .trim_start_matches('&')
        .to_string()
}

/// Locates every non-test `fn` item with its body span and owner.
fn fn_spans(file: &SourceFile, masked: &str, impls: &[(usize, usize, String)]) -> Vec<FnFlow> {
    let bytes = masked.as_bytes();
    let mut out = Vec::new();
    for off in keyword_sites(masked, "fn") {
        let mut i = skip_ws(bytes, off + 2);
        let name_start = i;
        while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
            i += 1;
        }
        if i == name_start {
            continue;
        }
        let name = masked[name_start..i].to_string();
        // Find the body `{`, or `;` for a bodiless trait method. Skip
        // balanced generics so `fn f<T: Fn() -> R>()` cannot confuse it.
        let mut j = i;
        let mut body = None;
        while j < bytes.len() {
            match bytes[j] {
                b'{' => {
                    body = Some(j);
                    break;
                }
                b';' => break,
                b'<' => j = skip_balanced(bytes, j, b'<', b'>'),
                _ => j += 1,
            }
        }
        let Some(open) = body else { continue };
        let start_line = file.line_of_offset(off);
        if file.is_test_line(start_line) {
            continue;
        }
        let end = match_brace(bytes, open);
        let owner = impls
            .iter()
            .filter(|(a, b, _)| off > *a && off < *b)
            .min_by_key(|(a, b, _)| b - a)
            .map(|(_, _, t)| t.clone())
            .unwrap_or_default();
        out.push(FnFlow {
            name,
            owner,
            start_line,
            body_span: (open, end),
            ..FnFlow::default()
        });
    }
    out
}

/// Walks one body (skipping `children` spans of nested fns), recording
/// calls and durability facts into `flow`.
fn walk_body(file: &SourceFile, masked: &str, flow: &mut FnFlow, children: &[(usize, usize)]) {
    let bytes = masked.as_bytes();
    let (start, end) = flow.body_span;
    let mut i = start;
    while i <= end && i < bytes.len() {
        if let Some(&(_, ce)) = children.iter().find(|&&(cs, _)| cs == i) {
            i = ce + 1;
            continue;
        }
        // A call site: an identifier directly before the `(`.
        if bytes[i] == b'(' {
            if let Some((name, qual, self_recv)) = call_head(masked, i) {
                record_call(flow, file.line_of_offset(i), &name, qual, self_recv);
            }
        }
        i += 1;
    }
}

/// Classifies the identifier (and qualifier) ending at the `(` at
/// `open`, or `None` when this `(` is not a call.
fn call_head(masked: &str, open: usize) -> Option<(String, String, bool)> {
    let bytes = masked.as_bytes();
    let mut i = open;
    while i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
        i -= 1;
    }
    if i == open {
        return None;
    }
    let name = &masked[i..open];
    if NOT_CALLS.contains(&name) || name.as_bytes()[0].is_ascii_uppercase() {
        // Keywords and tuple-struct/variant constructors (`Some(`,
        // `Ok(`, `PathBuf::from` is a call but `from` is lowercase).
        return None;
    }
    if name.as_bytes()[0].is_ascii_digit() {
        return None;
    }
    // Qualifier before the name.
    if i >= 2 && &masked[i - 2..i] == "::" {
        let mut j = i - 2;
        while j > 0 && (bytes[j - 1].is_ascii_alphanumeric() || bytes[j - 1] == b'_') {
            j -= 1;
        }
        return Some((name.to_string(), masked[j..i - 2].to_string(), false));
    }
    if i >= 1 && bytes[i - 1] == b'.' {
        let recv_self = i >= 5 && &masked[i - 5..i - 1] == "self" && !is_ident_before(bytes, i - 5);
        return Some((name.to_string(), ".".to_string(), recv_self));
    }
    Some((name.to_string(), String::new(), false))
}

fn record_call(flow: &mut FnFlow, line: u32, name: &str, qual: String, self_recv: bool) {
    // Durability facts.
    match (qual.as_str(), name) {
        ("fs", "rename") => flow.renames.push(line),
        (_, "create_dir_all") | (_, "create_dir") => flow.create_dirs.push(line),
        ("File", _) => {} // `File::create` is uppercase-qualified; handled below.
        _ => {}
    }
    if qual == "File" && (name == "create" || name == "options") {
        flow.file_writes.push(line);
    }
    if (qual == "OpenOptions" && name == "new") || (qual == "." && name == "write_all") {
        flow.file_writes.push(line);
    }
    if qual == "." && (name == "sync_all" || name == "sync_data") {
        flow.file_syncs.push(line);
    }
    if name == "sync_dir" {
        flow.dir_syncs.push(line);
    }

    flow.calls.push(CallSite {
        callee: name.to_string(),
        qual,
        self_recv,
        line,
    });
}

/// Every offset of `kw` in `masked` at identifier boundaries.
fn keyword_sites(masked: &str, kw: &str) -> Vec<usize> {
    let bytes = masked.as_bytes();
    crate::lints::find_all(masked, kw)
        .into_iter()
        .filter(|&o| {
            let before_ok =
                o == 0 || !(bytes[o - 1].is_ascii_alphanumeric() || bytes[o - 1] == b'_');
            let after = o + kw.len();
            let after_ok = after >= bytes.len()
                || !(bytes[after].is_ascii_alphanumeric() || bytes[after] == b'_');
            before_ok && after_ok
        })
        .collect()
}

fn is_ident_at(bytes: &[u8], i: usize) -> bool {
    bytes
        .get(i)
        .is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_')
}

fn is_ident_before(bytes: &[u8], i: usize) -> bool {
    i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_')
}

fn skip_ws(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && (bytes[i] as char).is_whitespace() {
        i += 1;
    }
    i
}

/// Skips past a balanced `open…close` group starting at `i` (which must
/// sit on `open`). Returns the offset just past the matching closer.
fn skip_balanced(bytes: &[u8], i: usize, open: u8, close: u8) -> usize {
    let mut depth = 0usize;
    let mut j = i;
    while j < bytes.len() {
        if bytes[j] == open {
            depth += 1;
        } else if bytes[j] == close {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    bytes.len()
}

/// Offset of the `}` matching the `{` at `open` (or EOF).
fn match_brace(bytes: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < bytes.len() {
        match bytes[j] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    bytes.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flows(src: &str) -> Vec<FnFlow> {
        extract(&SourceFile::new("crates/store/src/x.rs", src))
    }

    #[test]
    fn finds_fns_with_impl_owners() {
        let f = flows(
            "pub fn free() {}\n\
             impl<T: Clone> Writer<T> {\n    fn method(&self) { helper(); }\n}\n\
             impl Drop for Writer<u8> {\n    fn drop(&mut self) {}\n}\n",
        );
        let names: Vec<(&str, &str)> = f
            .iter()
            .map(|x| (x.name.as_str(), x.owner.as_str()))
            .collect();
        assert_eq!(
            names,
            vec![("free", ""), ("method", "Writer"), ("drop", "Writer")],
            "{f:?}"
        );
        assert_eq!(f[1].calls.len(), 1);
        assert_eq!(f[1].calls[0].callee, "helper");
    }

    #[test]
    fn call_qualifiers_and_keywords() {
        let f = flows(
            "fn f(x: &S) {\n    if ready(x) { x.go(); }\n    Store::open(x);\n    \
             fs::rename(a, b);\n    Some(1);\n    self.tick();\n}\n",
        );
        let calls: Vec<(&str, &str, bool)> = f[0]
            .calls
            .iter()
            .map(|c| (c.callee.as_str(), c.qual.as_str(), c.self_recv))
            .collect();
        assert!(calls.contains(&("ready", "", false)), "{calls:?}");
        assert!(calls.contains(&("go", ".", false)), "{calls:?}");
        assert!(calls.contains(&("open", "Store", false)), "{calls:?}");
        assert!(calls.contains(&("tick", ".", true)), "{calls:?}");
        assert!(!calls.iter().any(|c| c.0 == "Some"), "{calls:?}");
        assert!(!calls.iter().any(|c| c.0 == "if"), "{calls:?}");
        assert_eq!(f[0].renames, vec![4]);
    }

    #[test]
    fn durability_facts() {
        let f = flows(
            "fn seal(p: &Path, b: &[u8]) -> io::Result<()> {\n    \
             std::fs::create_dir_all(p.parent().unwrap())?;\n    \
             let mut f = File::create(&tmp)?;\n    f.write_all(b)?;\n    f.sync_all()?;\n    \
             std::fs::rename(&tmp, p)?;\n    sync_dir(p.parent().unwrap())\n}\n",
        );
        let x = &f[0];
        assert_eq!(x.create_dirs, vec![2]);
        assert!(x.file_writes.contains(&3), "{x:?}");
        assert_eq!(x.file_syncs, vec![5]);
        assert_eq!(x.renames, vec![6]);
        assert_eq!(x.dir_syncs, vec![7]);
    }

    #[test]
    fn test_regions_are_skipped_and_nested_fns_attributed() {
        let f = flows(
            "fn outer() {\n    fn inner() { inner_call(); }\n    outer_call();\n}\n\
             #[cfg(test)]\nmod tests {\n    fn t() { test_call(); }\n}\n",
        );
        let names: Vec<&str> = f.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner"]);
        let outer = &f[0];
        assert!(
            outer.calls.iter().all(|c| c.callee != "inner_call"),
            "{outer:?}"
        );
        assert!(outer.calls.iter().any(|c| c.callee == "outer_call"));
    }
}
