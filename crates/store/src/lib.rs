//! Durable sharded template store for the streaming pipeline.
//!
//! The DSN'16 study's mining tasks assume parsed templates persist for
//! the whole corpus lifetime; a long-lived ingestion server therefore
//! needs template state that survives restarts *byte-for-byte* — the
//! global template ids handed to downstream mining are only stable if
//! the store that mints them is. This crate provides that store:
//!
//! * **Sharded layout** — template state is hash-partitioned over a
//!   fixed set of store shards (`shard-<i>/` directories). Corruption
//!   is contained per shard: a bad shard is quarantined, the rest of
//!   the store keeps serving.
//! * **Snapshot + delta log** — each shard owns a checksummed snapshot
//!   file (`snap-<gen>.snap`) plus an append-only delta log
//!   (`delta-<gen>.log`) of template mutations ([`MergeDelta`]:
//!   insert / assign / refinement / union). Restart = load the newest
//!   valid snapshot, replay the logs.
//! * **Compaction** — once a shard's log passes [`COMPACT_LOG_BYTES`],
//!   the next checkpoint folds the logs into fresh snapshots inline,
//!   bounding both log length and restart time.
//! * **Blobs** — [`write_blob`] / [`read_blob`] keep small CRC-framed
//!   documents beside the logs: a checkpoint's parser states and
//!   metadata, and a job's manifest and attempt counters.
//! * **Corruption detection** — every record is CRC-framed
//!   ([`frame`]); a torn tail (the normal SIGKILL outcome) is
//!   truncated away, anything worse quarantines the shard instead of
//!   failing the store.
//!
//! The store holds no map type of its own: recovery replays straight
//! into a [`logparse_core::TemplateMerge`], the same value the
//! ingestion aggregator keeps merging on and hands back at compaction.
//! The aggregator writes through this store, so its checkpoint path
//! inherits the durability contract. The fsync
//! helpers ([`write_atomic`], [`sync_dir`], [`sweep_temps`]) are
//! exported for the same reason — any file the pipeline renames into
//! place must also sync the parent directory, or the rename itself can
//! be lost on power failure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod crc;
pub mod frame;
mod metrics;
mod shard;
mod store;

pub use store::{
    read_blob, write_blob, BlobRead, Recovery, ShardReport, StoreConfig, TemplateStore,
    COMPACT_LOG_BYTES, DEFAULT_SHARDS,
};

use std::fmt;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

/// Errors surfaced by the store.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O operation failed.
    Io(io::Error),
    /// On-disk state is corrupt beyond what recovery tolerates.
    Corrupt(String),
    /// The store was opened with an inconsistent configuration.
    Config(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(err) => write!(f, "store i/o error: {err}"),
            StoreError::Corrupt(msg) => write!(f, "store corrupt: {msg}"),
            StoreError::Config(msg) => write!(f, "store config error: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(err: io::Error) -> Self {
        StoreError::Io(err)
    }
}

/// Fsyncs a directory so a rename or file creation inside it survives
/// power loss. On platforms where directories cannot be opened for
/// sync (non-unix), this is a no-op — rename atomicity still holds,
/// only the power-failure window widens.
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()?;
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
    }
    Ok(())
}

/// Writes `bytes` to `path` durably: write to a sibling temp file,
/// fsync it, rename it into place, then fsync the parent directory.
/// The rename is atomic, so readers observe either the old file or
/// the complete new one — never a torn write — and the directory
/// fsync pins the rename itself to disk (rename alone does not
/// survive power loss on ext4). The temp file is hidden and carries
/// the writer's pid (`.<name>.<pid>.tmp`), so two processes publishing
/// the same path — an orphaned job worker racing its retry — never
/// share a temp file; the last rename wins. One a killed writer leaves
/// behind is removed by the directory's next single writer through
/// [`sweep_temps`]: [`TemplateStore::open`] for a store, the job
/// coordinator for its `state/`.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let parent = path.parent().unwrap_or_else(|| Path::new("."));
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(file_name);
    tmp_name.push(format!(".{}.tmp", std::process::id()));
    let tmp = parent.join(tmp_name);
    {
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    sync_dir(parent)
}

/// Removes the temp files a [`write_atomic`] killed between create and
/// rename left in `dir`: named per pid, no later write would reuse or
/// replace them. For a directory's single writer, before it writes — a
/// live peer's temp file looks the same.
pub fn sweep_temps(dir: &Path) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().map(|name| name.to_string_lossy());
        if name.is_some_and(|name| name.starts_with('.') && name.ends_with(".tmp")) {
            std::fs::remove_file(&path)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_atomic_round_trips_and_replaces() {
        let dir = std::env::temp_dir().join(format!("store-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("file.bin");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second, longer payload").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer payload");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        assert_eq!(names, ["file.bin"], "temp file must not linger");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_atomic_rejects_bare_root() {
        assert!(write_atomic(Path::new("/"), b"x").is_err());
    }
}
