//! `panic-freedom`: hot-path library code must not contain reachable
//! panic sites.
//!
//! Flagged in hot-path crates — `parsers`, `ingest`, `obs`, `store`,
//! `jobs`, plus `crates/core/src/parallel.rs` (the parallel driver): the
//! code the streaming pipeline and the parallel driver execute per
//! line/batch (the store sits on the per-batch durability path; the
//! jobs coordinator supervises long-running work and must never panic
//! mid-job) — outside test regions:
//!
//! * `.unwrap()` / `.expect(` — convert to `Result`/`Option`
//!   propagation, `unwrap_or_else(PoisonError::into_inner)` for lock
//!   guards, or `total_cmp` for float sorts;
//! * `panic!(` / `unreachable!(` / `todo!(` / `unimplemented!(`;
//! * slice indexing with an **integer literal** (`parts[0]`) — the
//!   classic out-of-bounds panic after a split; prefer `.first()`,
//!   slice patterns, or `.get(n)`. Variable indices are not flagged
//!   (they are pervasively bounds-derived), so this sub-check is a
//!   warning while the panic-macro sub-check is an error.

use super::{code_lines, find_all, Finding, Severity};
use crate::source::{Role, SourceFile};

const NAME: &str = "panic-freedom";

fn is_hot_path(file: &SourceFile) -> bool {
    file.role == Role::Lib
        && (matches!(
            file.crate_name.as_str(),
            "parsers" | "ingest" | "obs" | "store" | "jobs"
        ) || file.rel == "crates/core/src/parallel.rs")
}

const CALLS: &[(&str, &str)] = &[
    (".unwrap()", "`unwrap()` can panic"),
    (".expect(", "`expect()` can panic"),
    ("panic!(", "explicit `panic!`"),
    ("unreachable!(", "`unreachable!` can panic"),
    ("todo!(", "`todo!` panics"),
    ("unimplemented!(", "`unimplemented!` panics"),
];

/// Runs the lint over one file.
pub fn check(file: &SourceFile) -> Vec<Finding> {
    if !is_hot_path(file) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (n, line) in code_lines(file) {
        for (pat, what) in CALLS {
            for _ in find_all(line, pat) {
                out.push(Finding::new(
                    NAME,
                    Severity::Error,
                    file,
                    n,
                    format!(
                        "{what} in hot-path crate `{}`; propagate an error or add a \
                         reasoned lint:allow",
                        file.crate_name
                    ),
                ));
            }
        }
        for idx in literal_indices(line) {
            out.push(Finding::new(
                NAME,
                Severity::Warn,
                file,
                n,
                format!(
                    "literal slice index `[{idx}]` can panic; use `.first()`/`.get({idx})` \
                     or a slice pattern"
                ),
            ));
        }
    }
    out
}

/// Integer literals used as index expressions: `x[0]`, `call()[1]`,
/// `a.b[2]` — but not attributes (`#[...]`), array types/literals
/// (`[0; 4]`), or `vec![…]`.
fn literal_indices(line: &str) -> Vec<&str> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' || i == 0 {
            continue;
        }
        let prev = bytes[i - 1];
        let indexes_value =
            prev.is_ascii_alphanumeric() || prev == b'_' || prev == b')' || prev == b']';
        if !indexes_value {
            continue;
        }
        let rest = &line[i + 1..];
        let Some(close) = rest.find(']') else {
            continue;
        };
        let inner = rest[..close].trim();
        if !inner.is_empty() && inner.bytes().all(|c| c.is_ascii_digit() || c == b'_') {
            out.push(&rest[..close]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hot(src: &str) -> Vec<Finding> {
        check(&SourceFile::new("crates/ingest/src/x.rs", src))
    }

    #[test]
    fn flags_unwrap_and_literal_index_in_hot_path() {
        let f = hot("fn f(v: &[u32]) -> u32 { v.first().unwrap() + v[0] }\n");
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().any(|x| x.message.contains("unwrap")));
        assert!(f.iter().any(|x| x.message.contains("slice index")));
    }

    #[test]
    fn silent_outside_hot_path_and_in_tests() {
        let cold = check(&SourceFile::new(
            "crates/eval/src/x.rs",
            "fn f() { None::<u32>.unwrap(); }\n",
        ));
        assert!(cold.is_empty());
        let test_code = hot("#[cfg(test)]\nmod tests {\n fn f() { None::<u32>.unwrap(); }\n}\n");
        assert!(test_code.is_empty());
    }

    #[test]
    fn does_not_flag_unwrap_or_variants_or_variable_indices() {
        let f = hot("fn f(v: &[u32], i: usize) -> u32 { v.get(i).copied().unwrap_or(0) + v[i] }\n");
        assert!(f.is_empty(), "{f:?}");
        // Attribute brackets, array literals and vec! are not indexing.
        let g = hot("#[derive(Clone)]\nstruct S;\nfn g() -> [u8; 2] { [0; 2] }\n");
        assert!(g.is_empty(), "{g:?}");
    }
}
