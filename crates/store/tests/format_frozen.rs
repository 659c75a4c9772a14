//! The on-disk format, frozen: `fixtures/store_v1` was written by the
//! last commit that replayed into `logparse_store::MapState` (6c103a2,
//! "PR 12"), before the store started replaying straight into
//! `logparse_core::TemplateMerge`:
//!
//! ```text
//! logmine generate --dataset hdfs --count 2000 > leg1.log
//! logmine serve leg1.log --shards 2 --window 500 --checkpoint store_v1
//! logmine store compact store_v1
//! (logmine generate --dataset hdfs --count 1500 --seed 11
//!  for k in $(seq 1 40); do echo "session$k closed by peer"; done) > leg2.log
//! logmine serve leg2.log --shards 2 --window 500 --batch-size 1 \
//!     --checkpoint store_v1 --resume
//! ```
//!
//! so it holds generation-1 snapshots (25 slots, 25 assigns) and
//! generation-1 delta logs (5 inserts, 5 assigns, 11 refines, 1 union).
//! `store_v1.state.txt` is that commit's recovered `MapState`, dumped;
//! `store_v1.inspect.txt` is its `logmine store inspect store_v1`
//! (checked at the CLI boundary by `crates/cli/tests/cli.rs`). One map
//! type must not have become a new format: today's code has to read
//! those bytes into the same map, and leave them alone.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use logparse_store::codec::FORMAT_VERSION;
use logparse_store::{Recovery, StoreConfig, TemplateStore};

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Every file under `dir`, by relative path.
fn tree(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut files = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(current) = stack.pop() {
        for entry in std::fs::read_dir(&current).expect("read dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let bytes = std::fs::read(&path).expect("read file");
                let relative = path.strip_prefix(dir).expect("under dir").to_path_buf();
                files.insert(relative, bytes);
            }
        }
    }
    files
}

fn scratch_copy(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("store-v1-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for (relative, bytes) in tree(&fixtures().join("store_v1")) {
        let target = dir.join(relative);
        std::fs::create_dir_all(target.parent().expect("file has a parent")).expect("mkdir");
        std::fs::write(target, bytes).expect("copy fixture file");
    }
    dir
}

/// The recovered map in the text form the parent commit dumped.
fn dump(recovery: Recovery) -> String {
    let mut state = recovery.state;
    let mut out = format!(
        "id_space {}\nrecords_replayed {}\n",
        state.id_space(),
        recovery.replayed_records
    );
    for (gid, key) in state.canonical_templates() {
        out.push_str(&format!("canonical {gid} {key}\n"));
    }
    let mut bindings: Vec<_> = state.assignments().collect();
    bindings.sort_unstable();
    for ((shard, local), gid) in bindings {
        out.push_str(&format!(
            "bind {shard} {local} {}\n",
            state.resolve_root(gid)
        ));
    }
    out
}

fn parent_dump() -> String {
    std::fs::read_to_string(fixtures().join("store_v1.state.txt")).expect("read state dump")
}

#[test]
fn a_parent_written_store_recovers_to_the_parent_map() {
    assert_eq!(FORMAT_VERSION, 1);
    let recovery = TemplateStore::recover(&fixtures().join("store_v1")).expect("recover");
    // What `logmine store verify` checks.
    assert_eq!(recovery.quarantined_shards, 0);
    assert!(recovery.reports.iter().all(|r| r.torn_tail_bytes == 0));
    assert_eq!(dump(recovery), parent_dump());
}

#[test]
fn opening_a_parent_written_store_leaves_its_bytes_alone() {
    let dir = scratch_copy("open");
    let (store, recovery) = TemplateStore::open(&dir, &StoreConfig::default()).expect("open");
    assert_eq!(recovery.quarantined_shards, 0);
    assert_eq!(dump(recovery), parent_dump());
    store.finish().expect("finish");
    // Every log resumed in place: no re-anchoring snapshot, no rewrite.
    assert_eq!(tree(&dir), tree(&fixtures().join("store_v1")));
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
