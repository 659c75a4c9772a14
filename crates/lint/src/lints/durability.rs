//! `durability-discipline`: create/write→rename persistence paths must
//! reach fsync — file **and** parent directory — or carry a reasoned
//! pragma naming the flush tier.
//!
//! The store publishes snapshots, the jobs coordinator publishes shard
//! results and DLQ records, and ingest publishes per-worker outputs —
//! all via the create→write→rename idiom. A rename alone is atomic
//! against *crashes of the process* (SIGKILL-safe), but not against
//! power loss: the file's bytes need `sync_all()` and the directory
//! entry needs `sync_dir()` before the rename is durable. See
//! `docs/DURABILITY.md` for the tier definitions.
//!
//! Two sub-checks, both scoped to `store`/`jobs`/`ingest`/`obs` library
//! code:
//!
//! * **local rename** — a function that itself calls `fs::rename` must
//!   also locally call `sync_dir(` (and `sync_all`/`sync_data` when it
//!   writes file bytes);
//! * **durable-path dir creation** — a function that creates
//!   directories *and* reaches an `fs::rename` through the call graph
//!   must `sync_dir` the created entries; the finding carries the full
//!   call chain down to the rename site as a witness.

use super::{Finding, Severity};
use crate::analysis::FileAnalysis;
use crate::callgraph::{FnRef, Graph};
use crate::source::{Role, SourceFile};
use std::collections::HashMap;

const NAME: &str = "durability-discipline";

/// How a function reaches `fs::rename`: the chain of callee names and
/// the final rename site.
#[derive(Clone)]
struct RenameWitness {
    /// Call steps from the function down to the renamer, rendered as
    /// `name (file:line)` per hop (empty for a local rename).
    chain: Vec<String>,
    rel: String,
    line: u32,
}

fn in_scope(file: &SourceFile) -> bool {
    file.role == Role::Lib
        && matches!(
            file.crate_name.as_str(),
            "store" | "jobs" | "ingest" | "obs"
        )
}

/// Runs the lint over the analyzed workspace.
pub fn check(analyses: &[FileAnalysis], graph: &Graph) -> Vec<Finding> {
    let reach = rename_reachability(analyses, graph);
    let mut out = Vec::new();
    for (fi, a) in analyses.iter().enumerate() {
        if !in_scope(&a.file) {
            continue;
        }
        for (fj, f) in a.flow.iter().enumerate() {
            // Sub-check A: local rename.
            if let Some(&first_rename) = f.renames.first() {
                let missing_dir = f.dir_syncs.is_empty();
                let missing_file = !f.file_writes.is_empty() && f.file_syncs.is_empty();
                if missing_dir || missing_file {
                    let mut what = Vec::new();
                    if missing_file {
                        what.push("the file's bytes are never synced (`sync_all`)");
                    }
                    if missing_dir {
                        what.push("the directory entry is never synced (`sync_dir`)");
                    }
                    let mut fnd = Finding {
                        lint: NAME,
                        severity: Severity::Error,
                        rel: a.file.rel.clone(),
                        line: first_rename,
                        message: format!(
                            "`{}` publishes by rename (line {first_rename}) but {}; a rename is \
                             only power-loss durable once file bytes and directory entry are both \
                             fsynced — sync them, or bless the flush tier with a reasoned \
                             `lint:allow({NAME})` pragma (see docs/DURABILITY.md)",
                            f.name,
                            what.join(" and "),
                        ),
                        also_allow_at: vec![f.start_line],
                    };
                    fnd.also_allow_at.dedup();
                    out.push(fnd);
                }
                continue; // A local rename subsumes sub-check B.
            }
            // Sub-check B: creates directories on a durable path.
            if f.create_dirs.is_empty() || !f.dir_syncs.is_empty() {
                continue;
            }
            if let Some(w) = reach.get(&(fi, fj)) {
                let chain = if w.chain.is_empty() {
                    String::new()
                } else {
                    format!(" via {}", w.chain.join(" -> "))
                };
                out.push(Finding {
                    lint: NAME,
                    severity: Severity::Error,
                    rel: a.file.rel.clone(),
                    line: f.create_dirs[0],
                    message: format!(
                        "`{}` creates directories (line {}) on a durable publish path — it \
                         reaches `fs::rename` at {}:{}{chain} — but never calls `sync_dir` on \
                         the created entries; after a power loss the rename can survive while \
                         the directory itself is gone — sync the created/parent directories, or \
                         bless the flush tier with a reasoned `lint:allow({NAME})` pragma (see \
                         docs/DURABILITY.md)",
                        f.name, f.create_dirs[0], w.rel, w.line,
                    ),
                    also_allow_at: vec![f.start_line],
                });
            }
        }
    }
    out
}

/// Fixpoint: for every function, whether (and how) it reaches an
/// `fs::rename` through resolved call edges. Chains are capped at six
/// hops; iteration order is index order so witnesses are deterministic.
fn rename_reachability(analyses: &[FileAnalysis], graph: &Graph) -> HashMap<FnRef, RenameWitness> {
    let mut reach: HashMap<FnRef, RenameWitness> = HashMap::new();
    for (fi, a) in analyses.iter().enumerate() {
        for (fj, f) in a.flow.iter().enumerate() {
            if let Some(&line) = f.renames.first() {
                reach.insert(
                    (fi, fj),
                    RenameWitness {
                        chain: Vec::new(),
                        rel: a.file.rel.clone(),
                        line,
                    },
                );
            }
        }
    }
    loop {
        let mut changed = false;
        for (fi, a) in analyses.iter().enumerate() {
            for (fj, f) in a.flow.iter().enumerate() {
                if reach.contains_key(&(fi, fj)) {
                    continue;
                }
                let found = graph.callees((fi, fj)).iter().find_map(|&(ci, callee)| {
                    let w = reach.get(&callee)?;
                    if w.chain.len() >= 6 {
                        return None;
                    }
                    let call = &f.calls[ci];
                    let target = &analyses[callee.0].flow[callee.1];
                    let mut chain =
                        vec![format!("`{}` ({}:{})", target.name, a.file.rel, call.line)];
                    chain.extend(w.chain.iter().cloned());
                    Some(RenameWitness {
                        chain,
                        rel: w.rel.clone(),
                        line: w.line,
                    })
                });
                if let Some(w) = found {
                    reach.insert((fi, fj), w);
                    changed = true;
                }
            }
        }
        if !changed {
            return reach;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::callgraph;

    fn lint(files: &[(&str, &str)]) -> Vec<Finding> {
        let analyses: Vec<FileAnalysis> =
            files.iter().map(|(rel, text)| analyze(rel, text)).collect();
        let graph = callgraph::build(&analyses);
        check(&analyses, &graph)
    }

    const CLEAN_SEAL: &str = "pub fn seal(p: &Path, b: &[u8]) -> io::Result<()> {\n    \
        let mut f = File::create(&tmp)?;\n    f.write_all(b)?;\n    f.sync_all()?;\n    \
        fs::rename(&tmp, p)?;\n    sync_dir(p.parent().unwrap())\n}\n";

    #[test]
    fn fully_synced_rename_is_clean() {
        let f = lint(&[("crates/store/src/x.rs", CLEAN_SEAL)]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn rename_without_syncs_is_flagged() {
        let f = lint(&[(
            "crates/store/src/x.rs",
            "pub fn publish(p: &Path) -> io::Result<()> {\n    \
             let mut f = File::create(&tmp)?;\n    f.write_all(b\"x\")?;\n    \
             fs::rename(&tmp, p)\n}\n",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("sync_all"), "{}", f[0].message);
        assert!(f[0].message.contains("sync_dir"), "{}", f[0].message);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn dir_creation_reaching_rename_needs_sync_with_witness() {
        let f = lint(&[
            (
                "crates/jobs/src/a.rs",
                "pub fn run(dir: &Path) -> io::Result<()> {\n    \
                 fs::create_dir_all(dir)?;\n    seal(&dir.join(\"out\"), b\"x\")\n}\n",
            ),
            ("crates/store/src/b.rs", CLEAN_SEAL),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rel, "crates/jobs/src/a.rs");
        assert_eq!(f[0].line, 2);
        assert!(
            f[0].message.contains("crates/store/src/b.rs:5"),
            "witness must name the rename site: {}",
            f[0].message
        );
        assert!(
            f[0].message.contains("`seal` (crates/jobs/src/a.rs:3)"),
            "witness must show the call chain: {}",
            f[0].message
        );
    }

    #[test]
    fn dir_creation_off_the_durable_path_is_clean() {
        let f = lint(&[(
            "crates/jobs/src/a.rs",
            "pub fn scratch(dir: &Path) -> io::Result<()> {\n    fs::create_dir_all(dir)\n}\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn out_of_scope_crates_are_ignored() {
        let f = lint(&[(
            "crates/parsers/src/x.rs",
            "pub fn publish(p: &Path) { fs::rename(&tmp, p).unwrap(); }\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }
}
