//! Corruption-injection property tests: random workloads written to a
//! store, then random damage — truncation at an arbitrary offset, or a
//! bit flip at an arbitrary offset — injected into an arbitrary store
//! file. Recovery must (a) never panic, (b) never serve a template
//! string that was not genuinely written (corrupt records are dropped
//! or quarantined, not decoded into garbage), and (c) keep every
//! surviving binding pointing at the id it was written with.

use std::path::{Path, PathBuf};

use logparse_core::{MergeDelta, TemplateMerge};
use logparse_store::{write_blob, StoreConfig, TemplateStore};
use proptest::prelude::*;

const SHARDS: usize = 3;
const VOCAB: usize = 24;

fn vocab(i: usize) -> String {
    format!("event template {} with argument *", i % VOCAB)
}

fn temp_store(tag: &str, case: u64) -> PathBuf {
    std::env::temp_dir().join(format!("store-fuzz-{tag}-{}-{case}", std::process::id()))
}

/// Turns raw op tuples into a valid, in-range delta sequence.
fn decode_ops(ops: &[(u8, usize, usize)]) -> Vec<MergeDelta> {
    let mut deltas = Vec::with_capacity(ops.len());
    let mut next_gid = 0usize;
    for &(kind, a, b) in ops {
        let delta = match kind % 4 {
            1 if next_gid > 0 => MergeDelta::Refine {
                gid: a % next_gid,
                key: vocab(b),
            },
            2 if next_gid > 1 => MergeDelta::Union {
                winner: a % next_gid,
                loser: b % next_gid,
            },
            3 if next_gid > 0 => MergeDelta::Assign {
                shard: a % SHARDS,
                local: b % 64,
                gid: b % next_gid,
            },
            _ => {
                next_gid += 1;
                MergeDelta::Insert {
                    gid: next_gid - 1,
                    key: vocab(a),
                }
            }
        };
        deltas.push(delta);
    }
    deltas
}

/// Writes the workload (flushing after every small batch, compacting
/// once mid-way so snapshots and logs both exist) and returns the
/// ground-truth state.
fn build_store(dir: &Path, deltas: &[MergeDelta]) -> TemplateMerge {
    let config = StoreConfig { shards: SHARDS };
    let (mut store, _) = TemplateStore::open(dir, &config).expect("open fresh store");
    let mut truth = TemplateMerge::new();
    let half = deltas.len() / 2;
    for (i, delta) in deltas.iter().enumerate() {
        truth.apply(delta);
        store.append(std::slice::from_ref(delta)).expect("append");
        if i % 5 == 4 {
            store.flush().expect("flush");
        }
        if i + 1 == half {
            store.compact(&truth).expect("compact");
        }
    }
    write_blob(dir, "meta", b"{\"version\":1}").expect("blob");
    store.finish().expect("finish");
    truth
}

/// Every store file recovery might read, deterministically ordered.
fn store_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(current) = stack.pop() {
        let mut entries: Vec<_> = std::fs::read_dir(&current)
            .expect("read store dir")
            .map(|e| e.expect("dir entry").path())
            .collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                stack.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// Everything a damaged store may legitimately serve: recovery rolls a
/// shard back to a *prefix* of its history (or quarantines it), so any
/// key or binding ever written is fair, anything else is corruption
/// leaking through the CRC.
struct Written {
    keys: std::collections::HashSet<String>,
    bindings: std::collections::HashSet<((usize, usize), usize)>,
}

impl Written {
    fn of(deltas: &[MergeDelta]) -> Written {
        let mut keys = std::collections::HashSet::new();
        let mut bindings = std::collections::HashSet::new();
        for delta in deltas {
            match delta {
                MergeDelta::Insert { key, .. } | MergeDelta::Refine { key, .. } => {
                    keys.insert(key.clone());
                }
                MergeDelta::Assign { shard, local, gid } => {
                    bindings.insert(((*shard, *local), *gid));
                }
                MergeDelta::Union { .. } => {}
            }
        }
        Written { keys, bindings }
    }
}

/// The safety contract after damage: recovery reported `Ok`, dropped
/// or quarantined whatever it could not verify, and everything it
/// *did* serve was genuinely written at some point.
fn assert_recovery_is_safe(recovered: &TemplateMerge, written: &Written) {
    for template in recovered.raw_templates() {
        assert!(
            template.is_empty() || written.keys.contains(template),
            "recovery served a never-written template {template:?}"
        );
    }
    for (slot, gid) in recovered.assignments() {
        assert!(
            written.bindings.contains(&(slot, gid)),
            "binding {slot:?} -> {gid} was never written"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn truncation_at_any_offset_recovers_a_safe_prefix(
        ops in prop::collection::vec((0u8..8, 0usize..1000, 0usize..1000), 10..80),
        victim_seed in 0usize..1000,
        cut in 0.0f64..1.0,
    ) {
        let case = proptest_case_id(&ops, victim_seed, cut.to_bits() as usize);
        let dir = temp_store("trunc", case);
        let _ = std::fs::remove_dir_all(&dir);
        let deltas = decode_ops(&ops);
        let written = Written::of(&deltas);
        build_store(&dir, &deltas);

        let files = store_files(&dir);
        let victim = &files[victim_seed % files.len()];
        let len = std::fs::metadata(victim).expect("victim metadata").len();
        let keep = (len as f64 * cut) as u64;
        let file = std::fs::OpenOptions::new().write(true).open(victim).expect("open victim");
        file.set_len(keep).expect("truncate");
        drop(file);

        // Skip the manifest: truncating it makes the directory not a
        // store at all, which recovery reports as a (graceful) error.
        if victim.file_name().is_some_and(|n| n == "MANIFEST") {
            prop_assert!(TemplateStore::recover(&dir).is_err() || keep == len);
        } else {
            let recovery = TemplateStore::recover(&dir).expect("recover after truncation");
            assert_recovery_is_safe(&recovery.state, &written);
            // Truncation is the crash shape: at worst one shard of
            // state is rolled back or quarantined, never the store.
            prop_assert!(recovery.quarantined_shards <= 1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flips_at_any_offset_never_serve_corrupt_templates(
        ops in prop::collection::vec((0u8..8, 0usize..1000, 0usize..1000), 10..80),
        victim_seed in 0usize..1000,
        at in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let case = proptest_case_id(&ops, victim_seed, at.to_bits() as usize ^ bit as usize);
        let dir = temp_store("flip", case);
        let _ = std::fs::remove_dir_all(&dir);
        let deltas = decode_ops(&ops);
        let written = Written::of(&deltas);
        build_store(&dir, &deltas);

        let files = store_files(&dir);
        let victim = &files[victim_seed % files.len()];
        let mut bytes = std::fs::read(victim).expect("read victim");
        if !bytes.is_empty() {
            let offset = ((bytes.len() as f64 * at) as usize).min(bytes.len() - 1);
            bytes[offset] ^= 1 << bit;
            std::fs::write(victim, &bytes).expect("write corrupted victim");
        }

        if victim.file_name().is_some_and(|n| n == "MANIFEST") {
            // A damaged manifest is a graceful error, never a panic.
            let _ = TemplateStore::recover(&dir);
        } else {
            let recovery = TemplateStore::recover(&dir).expect("recover after bit flip");
            assert_recovery_is_safe(&recovery.state, &written);

            // Opening (which repairs: truncates torn tails, quarantines
            // bad shards) must also succeed, and the store must keep
            // accepting appends afterwards.
            let config = StoreConfig { shards: SHARDS };
            let (mut store, opened) = TemplateStore::open(&dir, &config).expect("open damaged store");
            assert_recovery_is_safe(&opened.state, &written);
            let next_gid = opened.state.id_space();
            store.append(&[MergeDelta::Insert { gid: next_gid, key: "after damage".into() }])
                .expect("append after repair");
            store.finish().expect("finish after repair");
            let reread = TemplateStore::recover(&dir).expect("recover after repair");
            prop_assert!(reread.state.raw_templates().contains(&"after damage".to_string()));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A stable per-case directory suffix derived from the generated
/// inputs (the proptest shim does not expose the case index).
fn proptest_case_id(ops: &[(u8, usize, usize)], a: usize, b: usize) -> u64 {
    let mut h = logparse_obs::Fnv1a::new();
    for &(k, x, y) in ops {
        h = h.word(k as u64).word(x as u64).word(y as u64);
    }
    h.word(a as u64).word(b as u64).finish()
}
