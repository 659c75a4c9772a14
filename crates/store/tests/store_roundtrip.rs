//! Round-trip integration tests: everything appended to a store comes
//! back from recovery, across clean shutdowns, dirty drops (the
//! in-process SIGKILL analogue), compaction, and blob storage.

use std::path::PathBuf;

use logparse_core::{MergeDelta, TemplateMerge};
use logparse_store::{read_blob, write_blob, BlobRead, StoreConfig, TemplateStore};

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("store-rt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A workload touching every delta kind, plus the state it must
/// recover to.
fn workload() -> (Vec<MergeDelta>, TemplateMerge) {
    let deltas = vec![
        MergeDelta::Insert {
            gid: 0,
            key: "send pkt 7 ok".into(),
        },
        MergeDelta::Insert {
            gid: 1,
            key: "disk full on volume 2".into(),
        },
        MergeDelta::Assign {
            shard: 0,
            local: 0,
            gid: 0,
        },
        MergeDelta::Assign {
            shard: 1,
            local: 0,
            gid: 1,
        },
        MergeDelta::Refine {
            gid: 0,
            key: "send pkt * ok".into(),
        },
        MergeDelta::Insert {
            gid: 2,
            key: "send pkt * ok".into(),
        },
        MergeDelta::Union {
            winner: 0,
            loser: 2,
        },
        MergeDelta::Assign {
            shard: 2,
            local: 0,
            gid: 2,
        },
    ];
    let mut expected = TemplateMerge::new();
    for delta in &deltas {
        expected.apply(delta);
    }
    (deltas, expected)
}

/// Recovered state must agree with `expected` on everything observable:
/// slot keys, bindings and canonical partition (`TemplateMerge`'s `==`),
/// and the canonical template list.
fn assert_equivalent(recovered: &TemplateMerge, expected: &TemplateMerge) {
    assert_eq!(recovered, expected);
    assert_eq!(
        recovered.canonical_templates(),
        expected.canonical_templates()
    );
}

#[test]
fn clean_shutdown_round_trips_every_delta_kind() {
    let dir = temp_store("clean");
    let (deltas, expected) = workload();
    let (mut store, recovery) = TemplateStore::open(&dir, &StoreConfig::default()).unwrap();
    assert_eq!(recovery.state.id_space(), 0);
    store.append(&deltas).unwrap();
    store.finish().unwrap();

    let recovery = TemplateStore::recover(&dir).unwrap();
    assert_eq!(recovery.quarantined_shards, 0);
    assert_equivalent(&recovery.state, &expected);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn dirty_drop_after_flush_loses_nothing() {
    let dir = temp_store("dirty");
    let (deltas, expected) = workload();
    let (mut store, _) = TemplateStore::open(&dir, &StoreConfig::default()).unwrap();
    store.append(&deltas).unwrap();
    store.flush().unwrap();
    drop(store); // no finish(): the process "died" here

    let recovery = TemplateStore::recover(&dir).unwrap();
    assert_eq!(recovery.quarantined_shards, 0);
    assert_equivalent(&recovery.state, &expected);

    // And the store reopens for more appends afterwards.
    let (mut store, recovery) = TemplateStore::open(&dir, &StoreConfig::default()).unwrap();
    assert_equivalent(&recovery.state, &expected);
    store
        .append(&[MergeDelta::Insert {
            gid: 3,
            key: "late arrival".into(),
        }])
        .unwrap();
    store.finish().unwrap();
    let recovery = TemplateStore::recover(&dir).unwrap();
    assert_eq!(recovery.state.id_space(), 4);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compaction_preserves_state_and_advances_the_generation() {
    let dir = temp_store("compact");
    let (mut store, _) = TemplateStore::open(&dir, &StoreConfig::default()).unwrap();
    let mut expected = TemplateMerge::new();
    for gid in 0..200 {
        let delta = MergeDelta::Insert {
            gid,
            key: format!("template number {gid} with payload *"),
        };
        expected.apply(&delta);
        store.append(std::slice::from_ref(&delta)).unwrap();
    }
    store.flush().unwrap();
    let before = store.generation();
    store.compact(&expected).unwrap();
    assert_eq!(store.generation(), before + 1);
    store.finish().unwrap();

    let recovery = TemplateStore::recover(&dir).unwrap();
    assert_eq!(recovery.quarantined_shards, 0);
    assert_equivalent(&recovery.state, &expected);

    // Appends after compaction land in the new generation's logs.
    let (mut store, _) = TemplateStore::open(&dir, &StoreConfig::default()).unwrap();
    let delta = MergeDelta::Insert {
        gid: 200,
        key: "post compaction".into(),
    };
    expected.apply(&delta);
    store.append(&[delta]).unwrap();
    store.finish().unwrap();
    let recovery = TemplateStore::recover(&dir).unwrap();
    assert_equivalent(&recovery.state, &expected);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn blobs_round_trip_and_flag_corruption() {
    let dir = temp_store("blob");
    std::fs::create_dir_all(&dir).unwrap();
    assert_eq!(read_blob(&dir, "meta").unwrap(), BlobRead::Missing);
    write_blob(&dir, "meta", b"{\"version\":1}").unwrap();
    assert_eq!(
        read_blob(&dir, "meta").unwrap(),
        BlobRead::Ok(b"{\"version\":1}".to_vec())
    );

    // Overwrite is atomic: the new payload fully replaces the old.
    write_blob(&dir, "meta", b"{\"version\":1,\"lines\":9}").unwrap();
    assert_eq!(
        read_blob(&dir, "meta").unwrap(),
        BlobRead::Ok(b"{\"version\":1,\"lines\":9}".to_vec())
    );

    // A flipped byte must read back as Corrupt, not as data.
    let path = dir.join("meta.blob");
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    assert_eq!(read_blob(&dir, "meta").unwrap(), BlobRead::Corrupt);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Regression: a blob that exists but frames an empty payload must be
/// Corrupt, not `Ok(vec![])`. Checkpoint recovery used to treat the
/// empty payload as readable, fail to parse it, and silently fall back
/// to a fresh parser exactly as if the blob were Missing — hiding an
/// interrupted or misbehaving writer.
#[test]
fn empty_payload_blob_is_corrupt_not_ok() {
    let dir = temp_store("emptyblob");
    std::fs::create_dir_all(&dir).unwrap();
    write_blob(&dir, "parser-0", b"").unwrap();
    assert_eq!(read_blob(&dir, "parser-0").unwrap(), BlobRead::Corrupt);
    // A zero-length file (writer died before framing anything) is also
    // Corrupt, and always was — pin both shapes.
    std::fs::write(dir.join("parser-1.blob"), b"").unwrap();
    assert_eq!(read_blob(&dir, "parser-1").unwrap(), BlobRead::Corrupt);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shard_count_is_pinned_by_the_manifest() {
    let dir = temp_store("pin");
    let (store, _) = TemplateStore::open(&dir, &StoreConfig { shards: 3 }).unwrap();
    assert_eq!(store.shard_count(), 3);
    store.finish().unwrap();

    // Reopening with a different configured count keeps the manifest's.
    let (store, _) = TemplateStore::open(&dir, &StoreConfig { shards: 8 }).unwrap();
    assert_eq!(store.shard_count(), 3);
    store.finish().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
