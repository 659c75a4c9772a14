//! Workspace call-graph construction over [`crate::flow`] summaries.
//!
//! Resolution is by **name plus receiver heuristics**, never by types:
//!
//! * `Type::name(…)` resolves when exactly one workspace function named
//!   `name` is owned by an `impl Type`;
//! * `Self::name(…)` and `self.name(…)` prefer a function with the
//!   caller's own `impl` owner;
//! * `module::name(…)` (lowercase qualifier) and method calls resolve
//!   when the bare name is unique across the workspace;
//! * bare `name(…)` prefers a unique match in the same file, then a
//!   unique match workspace-wide.
//!
//! Anything else — std/vendored callees, ambiguous names — lands in the
//! **unresolved bucket**, which is counted and surfaced via `--stats`
//! so `durability-discipline` stays sound-by-report: the analysis
//! never guesses an edge, and it tells you how much of the call surface
//! it covered.

use crate::analysis::FileAnalysis;
use std::collections::HashMap;

/// Ubiquitous `std` method/function names. A workspace function may
/// share one of these names, but a call through the *unique-name
/// fallback* (`x.push(…)`, bare `drop(…)`) is overwhelmingly a `std`
/// call — resolving it would fabricate edges (e.g. `Vec::push` landing
/// on some unrelated `fn push`). Such calls only resolve through the
/// precise rules: `Type::name` owner match or `self.name` same-owner
/// match.
const STD_NAMES: &[&str] = &[
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "collect",
    "clone",
    "len",
    "is_empty",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "new",
    "default",
    "from",
    "into",
    "parse",
    "write",
    "read",
    "flush",
    "drain",
    "extend",
    "take",
    "replace",
    "min",
    "max",
    "contains",
    "sort",
    "sort_by",
    "clear",
    "append",
    "join",
    "split",
    "find",
    "position",
    "map",
    "filter",
    "fold",
    "count",
    "last",
    "first",
    "entry",
    "or_insert",
    "unwrap_or",
    "to_string",
    "as_str",
    "as_ref",
    "send",
    "recv",
    "spawn",
    "lock",
    "drop",
    "retain",
    "rev",
    "trim",
    "starts_with",
    "ends_with",
];

/// A function's position: `(file index, fn index)` into the analyses.
pub type FnRef = (usize, usize);

/// The resolved workspace call graph.
pub struct Graph {
    /// For each file, for each fn: `(call index, resolved callee)`.
    pub edges: HashMap<FnRef, Vec<(usize, FnRef)>>,
    /// Call sites resolved to a workspace function.
    pub resolved: usize,
    /// Call sites left unresolved (external, macro-generated, or
    /// ambiguous names).
    pub unresolved: usize,
}

impl Graph {
    /// Resolved callees of `f` (with the originating call index).
    pub fn callees(&self, f: FnRef) -> &[(usize, FnRef)] {
        self.edges.get(&f).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Builds the call graph over every analyzed file.
pub fn build(analyses: &[FileAnalysis]) -> Graph {
    // name -> every (FnRef, owner) defining it.
    let mut index: HashMap<&str, Vec<(FnRef, &str)>> = HashMap::new();
    for (fi, a) in analyses.iter().enumerate() {
        for (fj, f) in a.flow.iter().enumerate() {
            index
                .entry(f.name.as_str())
                .or_default()
                .push(((fi, fj), f.owner.as_str()));
        }
    }

    let mut edges: HashMap<FnRef, Vec<(usize, FnRef)>> = HashMap::new();
    let mut resolved = 0usize;
    let mut unresolved = 0usize;
    for (fi, a) in analyses.iter().enumerate() {
        for (fj, f) in a.flow.iter().enumerate() {
            for (ci, call) in f.calls.iter().enumerate() {
                let target = resolve(&index, fi, f.owner.as_str(), call);
                match target {
                    Some(t) => {
                        resolved += 1;
                        edges.entry((fi, fj)).or_default().push((ci, t));
                    }
                    None => unresolved += 1,
                }
            }
        }
    }
    Graph {
        edges,
        resolved,
        unresolved,
    }
}

fn resolve(
    index: &HashMap<&str, Vec<(FnRef, &str)>>,
    file: usize,
    caller_owner: &str,
    call: &crate::flow::CallSite,
) -> Option<FnRef> {
    let candidates = index.get(call.callee.as_str())?;
    let std_name = STD_NAMES.contains(&call.callee.as_str());
    let unique = |cands: Vec<&(FnRef, &str)>| -> Option<FnRef> {
        match cands.as_slice() {
            [one] => Some(one.0),
            _ => None,
        }
    };
    let fallback = |cands: Vec<&(FnRef, &str)>| -> Option<FnRef> {
        if std_name {
            None
        } else {
            unique(cands)
        }
    };
    match call.qual.as_str() {
        // `Type::name` — by owner.
        q if !q.is_empty() && q != "." && q != "Self" && q.starts_with(char::is_uppercase) => {
            unique(candidates.iter().filter(|(_, o)| *o == q).collect())
        }
        // `Self::name` / `self.name` — prefer the caller's own impl.
        "Self" => unique(
            candidates
                .iter()
                .filter(|(r, o)| r.0 == file && *o == caller_owner)
                .collect(),
        ),
        "." if call.self_recv => unique(
            candidates
                .iter()
                .filter(|(r, o)| r.0 == file && *o == caller_owner)
                .collect(),
        )
        .or_else(|| fallback(candidates.iter().collect())),
        // Plain method call or `module::name` — unique name only.
        "." => fallback(candidates.iter().collect()),
        q if !q.is_empty() => fallback(candidates.iter().collect()),
        // Bare call — same file first, then workspace-unique.
        _ => fallback(candidates.iter().filter(|(r, _)| r.0 == file).collect())
            .or_else(|| fallback(candidates.iter().collect())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;

    fn graph(files: &[(&str, &str)]) -> (Vec<FileAnalysis>, Graph) {
        let analyses: Vec<FileAnalysis> =
            files.iter().map(|(rel, text)| analyze(rel, text)).collect();
        let g = build(&analyses);
        (analyses, g)
    }

    #[test]
    fn resolves_bare_method_and_type_qualified_calls() {
        let (a, g) = graph(&[
            (
                "crates/store/src/a.rs",
                "pub fn entry(s: &Store) {\n    helper();\n    s.step();\n    Store::open(s);\n    \
                 external_thing();\n}\nfn helper() {}\n",
            ),
            (
                "crates/store/src/b.rs",
                "impl Store {\n    pub fn open(_: &Store) {}\n    pub fn step(&self) {}\n}\n",
            ),
        ]);
        let entry = (0usize, 0usize);
        let callees: Vec<(usize, usize)> = g.callees(entry).iter().map(|&(_, t)| t).collect();
        // helper (same file), step (unique method), open (Type::).
        assert_eq!(callees.len(), 3, "{callees:?} in {:?}", a[0].flow[0].calls);
        assert!(callees.contains(&(0, 1)), "helper");
        assert!(callees.contains(&(1, 0)), "open");
        assert!(callees.contains(&(1, 1)), "step");
        assert_eq!(g.resolved, 3);
        assert!(g.unresolved >= 1, "external_thing stays unresolved");
    }

    #[test]
    fn ambiguous_names_stay_unresolved() {
        let (_, g) = graph(&[
            (
                "crates/store/src/a.rs",
                "pub fn go(x: &X) { x.write_it(); }\npub fn write_it() {}\n",
            ),
            ("crates/jobs/src/b.rs", "pub fn write_it() {}\n"),
        ]);
        // `x.write_it()` has two candidates — no edge.
        assert_eq!(
            g.callees((0, 0)).len(),
            0,
            "ambiguous method must not resolve"
        );
    }
}
