//! `unsafe-allowlist`: the workspace has exactly two sanctioned unsafe
//! surfaces — the `signal(2)` FFI in `crates/ingest/src/signal.rs` and
//! the loader's ASCII `&str` reinterpretation in
//! `crates/core/src/ascii_str.rs`.
//!
//! Three checks:
//!
//! 1. the token `unsafe` anywhere outside the allowlist is an error
//!    (tests included: test code is still unsafe code);
//! 2. inside an allowlisted file, every line using `unsafe` must sit
//!    directly under a `// SAFETY:` comment (the comment block
//!    immediately above, blank lines allowed) or carry one on the line
//!    itself — an unsafe block whose soundness argument is not written
//!    down is treated the same as unsafe outside the allowlist;
//! 3. every crate root must carry `#![forbid(unsafe_code)]`. The
//!    `ingest` and `core` roots are the sanctioned exceptions: `forbid`
//!    cannot be overridden locally, so they carry
//!    `#![deny(unsafe_code)]` and the allowlisted module opts back in
//!    with an explicit `allow(unsafe_code)`.

use super::{find_all, Finding, Severity};
use crate::source::SourceFile;

const NAME: &str = "unsafe-allowlist";

/// Files in which the `unsafe` token is sanctioned (SAFETY comments
/// still required, per check 2).
const UNSAFE_OK: &[&str] = &[
    "crates/ingest/src/signal.rs",
    "crates/core/src/ascii_str.rs",
];

/// Crate roots allowed to downgrade `forbid` to `deny` — exactly the
/// crates owning an allowlisted file.
const DENY_OK: &[&str] = &["crates/ingest/src/lib.rs", "crates/core/src/lib.rs"];

/// Runs the token check over one file.
pub fn check(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    let allowlisted = UNSAFE_OK.contains(&file.rel.as_str());
    for n in 1..=file.line_count() as u32 {
        let line = file.masked_line(n);
        for off in find_all(line, "unsafe") {
            let bytes = line.as_bytes();
            let before_ok = off == 0 || !is_ident(bytes[off - 1]);
            let after = off + "unsafe".len();
            let after_ok = after >= bytes.len() || !is_ident(bytes[after]);
            if !(before_ok && after_ok) {
                continue;
            }
            if !allowlisted {
                out.push(Finding::new(
                    NAME,
                    Severity::Error,
                    file,
                    n,
                    format!(
                        "`unsafe` outside the allowlist ({}); move the FFI there or \
                         extend the allowlist deliberately",
                        UNSAFE_OK.join(", ")
                    ),
                ));
            } else if !has_safety_comment(file, n) {
                out.push(Finding::new(
                    NAME,
                    Severity::Error,
                    file,
                    n,
                    "allowlisted `unsafe` without a `SAFETY:` comment directly above; \
                     write down why this is sound"
                        .to_string(),
                ));
            }
            // One finding per line is enough either way.
            break;
        }
    }
    out
}

/// Is there a `SAFETY:` comment on line `n` or in the comment block
/// immediately above it? The walk climbs over comment-only and blank
/// lines (the masked view blanks comments), so multi-line soundness
/// arguments qualify however long they run; the first *code* line ends
/// the search.
fn has_safety_comment(file: &SourceFile, n: u32) -> bool {
    let safety_on = |m: u32| {
        file.lexed
            .comments
            .iter()
            .any(|c| c.line == m && c.text.contains("SAFETY:"))
    };
    if safety_on(n) {
        return true;
    }
    let mut m = n.saturating_sub(1);
    while m >= 1 && file.masked_line(m).trim().is_empty() {
        if safety_on(m) {
            return true;
        }
        m -= 1;
    }
    false
}

/// Runs the crate-root attribute check. `file` must be a crate root
/// (`src/lib.rs` or the sole `src/main.rs` of a binary crate).
pub fn check_crate_root(file: &SourceFile) -> Vec<Finding> {
    let has =
        |needle: &str| (1..=file.line_count() as u32).any(|n| file.masked_line(n).contains(needle));
    let forbid = has("#![forbid(unsafe_code)]");
    let deny = has("#![deny(unsafe_code)]");
    if forbid || (deny && DENY_OK.contains(&file.rel.as_str())) {
        return Vec::new();
    }
    let wanted = if DENY_OK.contains(&file.rel.as_str()) {
        "#![deny(unsafe_code)]"
    } else {
        "#![forbid(unsafe_code)]"
    };
    vec![Finding::new(
        NAME,
        Severity::Error,
        file,
        1,
        format!("crate root is missing `{wanted}`"),
    )]
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lints::missing_files;

    #[test]
    fn every_unsafe_allowlisted_file_exists() {
        assert_eq!(missing_files(UNSAFE_OK), Vec::<&str>::new());
    }

    #[test]
    fn every_deny_allowed_crate_root_exists() {
        assert_eq!(missing_files(DENY_OK), Vec::<&str>::new());
    }

    #[test]
    fn flags_unsafe_outside_allowlist_even_in_tests() {
        let f = check(&SourceFile::new(
            "crates/core/src/x.rs",
            "#[cfg(test)]\nmod tests {\n fn f() { unsafe { std::hint::unreachable_unchecked() } }\n}\n",
        ));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains("outside the allowlist"));
    }

    #[test]
    fn allowlisted_file_and_string_mentions_are_fine() {
        assert!(check(&SourceFile::new(
            "crates/ingest/src/signal.rs",
            "fn f() {\n    // SAFETY: handler is async-signal-safe.\n    unsafe { ffi() }\n}\n",
        ))
        .is_empty());
        assert!(check(&SourceFile::new(
            "crates/core/src/x.rs",
            "const DOC: &str = \"unsafe\"; // unsafe in comments is fine\nfn unsafer() {}\n",
        ))
        .is_empty());
    }

    #[test]
    fn allowlisted_unsafe_needs_an_adjacent_safety_comment() {
        // No SAFETY comment at all: one finding per unsafe line.
        let bare = check(&SourceFile::new(
            "crates/core/src/ascii_str.rs",
            "fn f() {\n    unsafe { ffi() }\n}\n",
        ));
        assert_eq!(bare.len(), 1);
        assert!(bare[0].message.contains("SAFETY"));
        // A SAFETY block ending in a code line before the unsafe does
        // not cover it.
        let detached = check(&SourceFile::new(
            "crates/core/src/ascii_str.rs",
            "// SAFETY: stale argument.\nfn f() {}\nfn g() {\n    unsafe { ffi() }\n}\n",
        ));
        assert_eq!(detached.len(), 1);
        // Multi-line SAFETY comment immediately above: covered, even
        // when only the first line carries the keyword.
        assert!(check(&SourceFile::new(
            "crates/core/src/ascii_str.rs",
            "// SAFETY: every ASCII byte sequence is valid UTF-8, and\n// the scanner proved these bytes ASCII.\nunsafe { from_utf8_unchecked(b) }\n",
        ))
        .is_empty());
        // Same-line SAFETY also qualifies.
        assert!(check(&SourceFile::new(
            "crates/core/src/ascii_str.rs",
            "fn f() { unsafe { ffi() } } // SAFETY: ASCII is valid UTF-8.\n",
        ))
        .is_empty());
    }

    #[test]
    fn crate_roots_need_forbid() {
        let missing = check_crate_root(&SourceFile::new("crates/rand/src/lib.rs", "fn f() {}\n"));
        assert_eq!(missing.len(), 1);
        assert!(missing[0].message.contains("forbid"));
        let ok = check_crate_root(&SourceFile::new(
            "crates/rand/src/lib.rs",
            "#![forbid(unsafe_code)]\n",
        ));
        assert!(ok.is_empty());
        // ingest and core may deny instead of forbid; others may not.
        for root in ["crates/ingest/src/lib.rs", "crates/core/src/lib.rs"] {
            assert!(check_crate_root(&SourceFile::new(root, "#![deny(unsafe_code)]\n")).is_empty());
        }
        assert_eq!(
            check_crate_root(&SourceFile::new(
                "crates/parsers/src/lib.rs",
                "#![deny(unsafe_code)]\n",
            ))
            .len(),
            1
        );
    }
}
