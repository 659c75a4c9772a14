//! The store proper: open/recover, delta appends, compaction and
//! quarantine.
//!
//! On-disk layout under the store directory:
//!
//! ```text
//! MANIFEST             one framed record: magic, version, shard count
//! <name>.blob          framed auxiliary blobs ([`write_blob`]: the
//!                      checkpoint's parser states and metadata)
//! shard-<i>/
//!   snap-<g>.snap      full snapshot of shard i at generation g
//!   delta-<g>.log      appends since snapshot g
//! quarantine/
//!   shard-<i>-<n>      shard directories recovery gave up on
//! ```
//!
//! Recovery runs per shard: the newest fully-valid snapshot becomes
//! the base, and every log generation from the base upward replays on
//! top — the final (highest) generation tolerates a torn tail, which
//! is truncated away before appends resume. A shard whose chain
//! cannot be reconstructed (a generation gap, a corrupt record in a
//! non-final log, no valid snapshot under a pruned log chain) is
//! *quarantined*: its directory is moved aside and a fresh shard
//! takes its place, so one bad disk region degrades the template map
//! instead of killing the store.
//!
//! Replay order matters across shards: all snapshot records apply
//! first (their slot sets are disjoint by routing), then all log
//! records in generation-major order — a union recorded in shard A's
//! log may predate the snapshot shard B was rebuilt from, and
//! generation order is the only order that serializes them correctly.

use crate::codec::{Payload, FORMAT_VERSION};
use crate::frame::{append_record, Frame, FrameReader};
use crate::metrics::StoreMetrics;
use crate::shard::{
    encode_snapshot, log_name, read_log, read_snapshot, route_assign, route_slot, scan_dir,
    snap_name, ShardWriter, SnapshotData,
};
use crate::{sweep_temps, sync_dir, write_atomic, StoreError};
use logparse_core::{MergeDelta, TemplateMerge};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Default number of store shards fixed at creation.
pub const DEFAULT_SHARDS: usize = 8;

/// Per-shard delta-log size at which [`TemplateStore::should_compact`]
/// answers true (1 MiB).
pub const COMPACT_LOG_BYTES: u64 = 1 << 20;

/// Store creation settings.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Store shards to create (ignored when opening an existing
    /// store — the manifest's count wins).
    pub shards: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            shards: DEFAULT_SHARDS,
        }
    }
}

/// What recovery found in one shard.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Generation of the snapshot the shard was rebuilt from.
    pub snapshot_generation: Option<u64>,
    /// Log generations replayed on top of the snapshot, ascending.
    pub log_generations: Vec<u64>,
    /// Records contributed to the rebuilt state (snapshot slots,
    /// assigns and log deltas).
    pub records_replayed: u64,
    /// Bytes discarded from the final log's torn tail.
    pub torn_tail_bytes: u64,
    /// Snapshots newer than the chosen base that failed validation.
    pub snapshots_rejected: usize,
    /// Whether the shard was (or, for a read-only scan, would be)
    /// quarantined.
    pub quarantined: bool,
    /// On-disk bytes of the shard's snapshot files at scan time.
    pub snapshot_bytes: u64,
    /// On-disk bytes of the shard's delta logs at scan time.
    pub log_bytes: u64,
}

/// The outcome of opening or scanning a store.
#[derive(Debug, Clone, Default)]
pub struct Recovery {
    /// The rebuilt template map (quarantined shards excluded), ready to
    /// keep merging from.
    pub state: TemplateMerge,
    /// Per-shard detail, indexed by shard.
    pub reports: Vec<ShardReport>,
    /// Total records replayed across all shards.
    pub replayed_records: u64,
    /// Shards quarantined (or needing quarantine, read-only).
    pub quarantined_shards: usize,
}

/// The outcome of reading an auxiliary blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlobRead {
    /// No blob with that name exists.
    Missing,
    /// A file exists but its framing or checksum is invalid.
    Corrupt,
    /// The blob's payload, verified.
    Ok(Vec<u8>),
}

/// Everything recovery learned about one shard before any repair.
struct ShardPlan {
    report: ShardReport,
    snapshot: Option<SnapshotData>,
    /// Replayable log batches, ascending generation.
    logs: Vec<(u64, Vec<MergeDelta>)>,
    /// `(generation, valid_prefix)` of the final log, if the shard's
    /// current log can be resumed in place.
    resume: Option<(u64, u64)>,
    /// Highest generation present in the shard (0 when fresh).
    max_generation: u64,
    /// No files at all — a brand-new shard.
    fresh: bool,
}

fn shard_dir(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}"))
}

/// A file's on-disk size; 0 when it vanished between scan and stat.
fn file_size(path: &Path) -> u64 {
    fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Sums one shard directory's snapshot and log bytes from disk.
fn disk_usage(sdir: &Path) -> (u64, u64) {
    let Ok(files) = scan_dir(sdir) else {
        return (0, 0);
    };
    let snaps = files
        .snaps
        .iter()
        .map(|&g| file_size(&sdir.join(snap_name(g))))
        .sum();
    let logs = files
        .logs
        .iter()
        .map(|&g| file_size(&sdir.join(log_name(g))))
        .sum();
    (snaps, logs)
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("MANIFEST")
}

/// Decodes the single framed record a manifest or blob file holds.
fn read_single_record(bytes: &[u8]) -> Option<Vec<u8>> {
    let mut reader = FrameReader::new(bytes);
    let payload = match reader.next() {
        Frame::Record(payload) => payload.to_vec(),
        _ => return None,
    };
    match reader.next() {
        Frame::Eof => Some(payload),
        _ => None,
    }
}

/// Stores `bytes` as the blob `<dir>/<name>.blob` (a checkpoint's parser
/// state and metadata, a job's manifest and attempt counters) atomically
/// and durably, CRC-framed like every other record.
pub fn write_blob(dir: &Path, name: &str, bytes: &[u8]) -> io::Result<()> {
    let mut framed = Vec::with_capacity(bytes.len() + 16);
    append_record(&mut framed, bytes);
    write_atomic(&dir.join(format!("{name}.blob")), &framed)
}

/// Reads the blob `<dir>/<name>.blob`, verifying its checksum. A blob
/// that exists but carries an empty payload is reported as
/// [`BlobRead::Corrupt`], not `Ok` — every writer in this codebase
/// frames a non-empty serialized document, so an empty payload means
/// the producer was interrupted or misbehaved, and treating it as
/// readable used to let recovery silently degrade to a fresh state
/// (indistinguishable from `Missing` to the caller).
pub fn read_blob(dir: &Path, name: &str) -> io::Result<BlobRead> {
    let bytes = match fs::read(dir.join(format!("{name}.blob"))) {
        Ok(bytes) => bytes,
        Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(BlobRead::Missing),
        Err(err) => return Err(err),
    };
    Ok(match read_single_record(&bytes) {
        Some(payload) if !payload.is_empty() => BlobRead::Ok(payload),
        _ => BlobRead::Corrupt,
    })
}

fn read_manifest(dir: &Path) -> Result<usize, StoreError> {
    let bytes = fs::read(manifest_path(dir))?;
    let record = read_single_record(&bytes)
        .ok_or_else(|| StoreError::Corrupt("manifest framing invalid".into()))?;
    match Payload::decode(&record) {
        Ok(Payload::Manifest {
            version,
            shard_count,
        }) => {
            if version != FORMAT_VERSION {
                return Err(StoreError::Corrupt(format!(
                    "manifest version {version} unsupported (expected {FORMAT_VERSION})"
                )));
            }
            if shard_count == 0 {
                return Err(StoreError::Corrupt("manifest declares zero shards".into()));
            }
            Ok(shard_count)
        }
        Ok(_) => Err(StoreError::Corrupt(
            "manifest holds a non-manifest record".into(),
        )),
        Err(err) => Err(StoreError::Corrupt(format!("manifest undecodable: {err}"))),
    }
}

fn write_manifest(dir: &Path, shard_count: usize) -> Result<(), StoreError> {
    let mut bytes = Vec::with_capacity(64);
    append_record(
        &mut bytes,
        &Payload::Manifest {
            version: FORMAT_VERSION,
            shard_count,
        }
        .encode(),
    );
    write_atomic(&manifest_path(dir), &bytes)?;
    Ok(())
}

/// Scans one shard directory and decides how (whether) to rebuild it.
/// Pure analysis: nothing on disk is modified.
fn plan_shard(dir: &Path, shard: usize, shard_count: usize) -> Result<ShardPlan, StoreError> {
    let sdir = shard_dir(dir, shard);
    let mut plan = ShardPlan {
        report: ShardReport {
            shard,
            ..ShardReport::default()
        },
        snapshot: None,
        logs: Vec::new(),
        resume: None,
        max_generation: 0,
        fresh: true,
    };
    if !sdir.is_dir() {
        return Ok(plan);
    }
    let files = scan_dir(&sdir)?;
    if files.snaps.is_empty() && files.logs.is_empty() {
        return Ok(plan);
    }
    plan.fresh = false;
    for &generation in &files.snaps {
        plan.report.snapshot_bytes += file_size(&sdir.join(snap_name(generation)));
    }
    for &generation in &files.logs {
        plan.report.log_bytes += file_size(&sdir.join(log_name(generation)));
    }

    // Newest fully-valid snapshot wins; invalid ones are counted and
    // skipped (an older valid snapshot plus its logs is still exact).
    for &generation in files.snaps.iter().rev() {
        let bytes = fs::read(sdir.join(snap_name(generation)))?;
        match read_snapshot(&bytes, shard, shard_count, generation) {
            Ok(data) => {
                plan.report.snapshot_generation = Some(generation);
                plan.snapshot = Some(data);
                break;
            }
            Err(_) => plan.report.snapshots_rejected += 1,
        }
    }
    let base = plan.report.snapshot_generation.unwrap_or(0);
    let had_snapshots = !files.snaps.is_empty();
    if plan.snapshot.is_none() && had_snapshots && !files.logs.contains(&0) {
        // Every snapshot rejected and the log chain cannot restart
        // from zero: history is gone.
        plan.report.quarantined = true;
    }
    let max_log = files.logs.last().copied().unwrap_or(0);
    plan.max_generation = base.max(max_log);
    if plan.report.quarantined || max_log < base {
        // Either already condemned, or a snapshot-only shard (its log
        // was lost with everything after the snapshot — the snapshot
        // itself is still an exact prefix, so it stands).
        return Ok(plan);
    }
    for generation in base..=max_log {
        if !files.logs.contains(&generation) {
            plan.report.quarantined = true;
            break;
        }
        let bytes = fs::read(sdir.join(log_name(generation)))?;
        let scan = read_log(&bytes, shard, shard_count, generation);
        let is_final = generation == max_log;
        if is_final {
            plan.report.torn_tail_bytes = scan.torn_bytes;
            plan.resume = Some((generation, scan.valid_prefix));
            plan.report.log_generations.push(generation);
            plan.logs.push((generation, scan.deltas));
        } else if scan.is_clean() {
            plan.report.log_generations.push(generation);
            plan.logs.push((generation, scan.deltas));
        } else {
            // Corruption strictly inside history — replaying past it
            // would serve wrong templates. Give the shard up.
            plan.report.quarantined = true;
            break;
        }
    }
    if plan.report.quarantined {
        plan.report.log_generations.clear();
        plan.logs.clear();
        plan.resume = None;
    }
    Ok(plan)
}

/// Builds the global state from per-shard plans: snapshots first
/// (disjoint slot sets), then logs in generation-major order. A
/// snapshot slot is an insert plus a union with its parent and a
/// snapshot assign is an assign, so snapshots and logs replay through
/// the one [`TemplateMerge::apply`].
fn replay(plans: &mut [ShardPlan]) -> TemplateMerge {
    let mut state = TemplateMerge::new();
    for plan in plans.iter_mut() {
        if plan.report.quarantined {
            continue;
        }
        if let Some(snapshot) = &plan.snapshot {
            for (gid, parent, key) in &snapshot.slots {
                state.apply(&MergeDelta::Insert {
                    gid: *gid,
                    key: key.clone(),
                });
                state.apply(&MergeDelta::Union {
                    winner: *parent,
                    loser: *gid,
                });
            }
            for &(shard, local, gid) in &snapshot.assigns {
                state.apply(&MergeDelta::Assign { shard, local, gid });
            }
            plan.report.records_replayed += (snapshot.slots.len() + snapshot.assigns.len()) as u64;
        }
    }
    let mut batches: Vec<(u64, usize)> = Vec::new();
    for (idx, plan) in plans.iter().enumerate() {
        if plan.report.quarantined {
            continue;
        }
        for (generation, _) in &plan.logs {
            batches.push((*generation, idx));
        }
    }
    batches.sort_unstable();
    for (generation, idx) in batches {
        let Some(plan) = plans.get_mut(idx) else {
            continue;
        };
        let mut replayed = 0u64;
        for (log_generation, deltas) in &plan.logs {
            if *log_generation != generation {
                continue;
            }
            for delta in deltas {
                state.apply(delta);
            }
            replayed += deltas.len() as u64;
        }
        plan.report.records_replayed += replayed;
    }
    state
}

fn summarize(plans: &[ShardPlan], state: TemplateMerge) -> Recovery {
    let reports: Vec<ShardReport> = plans.iter().map(|p| p.report.clone()).collect();
    let replayed_records = reports.iter().map(|r| r.records_replayed).sum();
    let quarantined_shards = reports.iter().filter(|r| r.quarantined).count();
    Recovery {
        state,
        reports,
        replayed_records,
        quarantined_shards,
    }
}

/// The shard's routed portion of a global state — what its snapshot
/// holds.
fn shard_portion(state: &TemplateMerge, shard: usize, shard_count: usize) -> SnapshotData {
    let mut data = SnapshotData::default();
    let slots = state.raw_templates().iter().zip(state.raw_parents());
    for (gid, (key, &parent)) in slots.enumerate() {
        if route_slot(gid, shard_count) == shard {
            data.slots.push((gid, parent, key.clone()));
        }
    }
    for ((worker_shard, local), gid) in state.assignments() {
        if route_assign(worker_shard, local, shard_count) == shard {
            data.assigns.push((worker_shard, local, gid));
        }
    }
    // The live binding table is unordered; snapshots are not.
    data.assigns.sort_unstable();
    data
}

/// Removes snapshot and log generations older than `keep_from`.
fn cleanup_shard(dir: &Path, shard: usize, keep_from: u64) -> io::Result<()> {
    let sdir = shard_dir(dir, shard);
    let files = scan_dir(&sdir)?;
    let mut removed = false;
    for generation in files.snaps.iter().filter(|&&g| g < keep_from) {
        fs::remove_file(sdir.join(snap_name(*generation)))?;
        removed = true;
    }
    for generation in files.logs.iter().filter(|&&g| g < keep_from) {
        fs::remove_file(sdir.join(log_name(*generation)))?;
        removed = true;
    }
    if removed {
        sync_dir(&sdir)?;
    }
    Ok(())
}

/// Moves a condemned shard directory into `quarantine/shard-<i>-<n>`,
/// picking the first free numeric suffix.
fn quarantine_shard(dir: &Path, shard: usize) -> Result<(), StoreError> {
    let qdir = dir.join("quarantine");
    fs::create_dir_all(&qdir)?;
    let sdir = shard_dir(dir, shard);
    for n in 0..10_000u32 {
        let target = qdir.join(format!("shard-{shard}-{n}"));
        if target.exists() {
            continue;
        }
        fs::rename(&sdir, &target)?;
        sync_dir(&qdir)?;
        sync_dir(dir)?;
        return Ok(());
    }
    Err(StoreError::Corrupt(format!(
        "shard {shard} has 10000 quarantined generations"
    )))
}

/// A durable sharded template store.
pub struct TemplateStore {
    dir: PathBuf,
    shards: usize,
    generation: u64,
    writers: Vec<ShardWriter>,
    metrics: StoreMetrics,
}

impl std::fmt::Debug for TemplateStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TemplateStore")
            .field("dir", &self.dir)
            .field("shards", &self.shards)
            .field("generation", &self.generation)
            .finish_non_exhaustive()
    }
}

impl TemplateStore {
    /// Whether `dir` holds a store (a manifest file exists).
    pub fn is_store(dir: &Path) -> bool {
        manifest_path(dir).is_file()
    }

    /// Opens (creating if necessary) the store at `dir`, recovering
    /// whatever state its snapshots and logs hold. Quarantines
    /// unrecoverable shards, truncates torn log tails, removes temp
    /// files a killed writer left, and leaves every shard ready for
    /// appends. Its metrics go to the process-global registry.
    pub fn open(dir: &Path, config: &StoreConfig) -> Result<(TemplateStore, Recovery), StoreError> {
        TemplateStore::open_in(dir, config, logparse_obs::global())
    }

    /// [`open`](TemplateStore::open), with the store's metrics resolved
    /// in `registry`: a test that reads them back opens its store on a
    /// private one, as every store in the process sets the global
    /// registry's per-shard gauges.
    pub(crate) fn open_in(
        dir: &Path,
        config: &StoreConfig,
        registry: &logparse_obs::Registry,
    ) -> Result<(TemplateStore, Recovery), StoreError> {
        if config.shards == 0 {
            return Err(StoreError::Config("store needs at least one shard".into()));
        }
        fs::create_dir_all(dir)?;
        // Pin the store directory's own entry: without a parent fsync,
        // a power loss after the first manifest/snapshot publish can
        // drop the whole directory even though the renames inside it
        // were synced.
        if let Some(parent) = dir.parent().filter(|p| !p.as_os_str().is_empty()) {
            sync_dir(parent)?;
        }
        sweep_temps(dir)?;
        let shards = if TemplateStore::is_store(dir) {
            read_manifest(dir)?
        } else {
            write_manifest(dir, config.shards)?;
            config.shards
        };
        let mut plans = Vec::with_capacity(shards);
        for shard in 0..shards {
            plans.push(plan_shard(dir, shard, shards)?);
        }
        let generation = plans.iter().map(|p| p.max_generation).max().unwrap_or(0);
        let state = replay(&mut plans);
        let metrics = StoreMetrics::new(registry, shards);

        let mut writers = Vec::with_capacity(shards);
        for plan in &plans {
            let shard = plan.report.shard;
            let sdir = shard_dir(dir, shard);
            if plan.report.quarantined {
                quarantine_shard(dir, shard)?;
                metrics.quarantined_shards.inc();
            }
            fs::create_dir_all(&sdir)?;
            sweep_temps(&sdir)?;
            match plan.resume {
                Some((log_generation, valid_prefix)) if log_generation == generation => {
                    writers.push(ShardWriter::resume(
                        &sdir,
                        shard,
                        shards,
                        generation,
                        valid_prefix,
                    )?);
                }
                _ => {
                    // No log to resume at the current generation:
                    // anchor the shard with a snapshot of its portion
                    // of the recovered state so the chain revalidates
                    // on the next open, then start a fresh log.
                    let data = shard_portion(&state, shard, shards);
                    let bytes = encode_snapshot(shard, shards, generation, &data);
                    write_atomic(&sdir.join(snap_name(generation)), &bytes)?;
                    writers.push(ShardWriter::create(&sdir, shard, shards, generation)?);
                }
            }
        }
        // The shard directories were just created (or re-verified);
        // sync their entries so recovery after power loss sees every
        // shard the snapshots below will live in.
        sync_dir(dir)?;
        let recovery = summarize(&plans, state);
        metrics.replay_records.inc_by(recovery.replayed_records);
        // Seed the disk gauges from what open just left on disk (post
        // quarantine/anchoring, so a scan is the honest source).
        for (shard, writer) in writers.iter().enumerate() {
            let (snap_bytes, _) = disk_usage(&shard_dir(dir, shard));
            metrics.disk_snapshot[shard].set(snap_bytes as f64);
            metrics.disk_log[shard].set(writer.bytes as f64);
        }
        Ok((
            TemplateStore {
                dir: dir.to_path_buf(),
                shards,
                generation,
                writers,
                metrics,
            },
            recovery,
        ))
    }

    /// Read-only recovery scan: rebuilds the state and reports every
    /// shard's condition without modifying anything on disk. Shards
    /// that [`TemplateStore::open`] would quarantine are flagged, not
    /// moved.
    pub fn recover(dir: &Path) -> Result<Recovery, StoreError> {
        if !TemplateStore::is_store(dir) {
            return Err(StoreError::Config(format!(
                "{} is not a template store (no MANIFEST)",
                dir.display()
            )));
        }
        let shards = read_manifest(dir)?;
        let mut plans = Vec::with_capacity(shards);
        for shard in 0..shards {
            plans.push(plan_shard(dir, shard, shards)?);
        }
        let state = replay(&mut plans);
        Ok(summarize(&plans, state))
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of store shards (fixed at creation).
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Current log generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Appends a batch of deltas, each routed to its owning shard
    /// (slot mutations by gid, assigns by binding). Buffered; call
    /// [`TemplateStore::flush`] to make the batch SIGKILL-durable.
    pub fn append(&mut self, deltas: &[MergeDelta]) -> Result<(), StoreError> {
        for delta in deltas {
            let target = match delta {
                MergeDelta::Insert { gid, .. } | MergeDelta::Refine { gid, .. } => {
                    route_slot(*gid, self.shards)
                }
                MergeDelta::Union { winner, .. } => route_slot(*winner, self.shards),
                MergeDelta::Assign { shard, local, .. } => {
                    route_assign(*shard, *local, self.shards)
                }
            };
            if let Some(writer) = self.writers.get_mut(target) {
                writer.append(delta)?;
            }
        }
        Ok(())
    }

    /// Pushes buffered appends to the kernel: after this returns the
    /// records survive SIGKILL (fsync durability needs
    /// [`TemplateStore::sync`]).
    pub fn flush(&mut self) -> Result<(), StoreError> {
        for (shard, writer) in self.writers.iter_mut().enumerate() {
            writer.flush()?;
            if let Some(gauge) = self.metrics.disk_log.get(shard) {
                gauge.set(writer.bytes as f64);
            }
        }
        Ok(())
    }

    /// Flushes and fsyncs every shard log.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        for writer in &mut self.writers {
            writer.sync()?;
        }
        Ok(())
    }

    /// Whether any shard's log has outgrown [`COMPACT_LOG_BYTES`].
    pub fn should_compact(&self) -> bool {
        self.writers.iter().any(|w| w.bytes >= COMPACT_LOG_BYTES)
    }

    /// Folds `state` into generation `G+1` and deletes older
    /// generations. `state` must be the full map the appended deltas
    /// built (the caller's live merge). Every shard's log rotates to
    /// `G+1` before its snapshot is written, so snapshot `G+1` pairs
    /// with a log that holds everything after it, and generation `G`
    /// stays valid until the new chain is complete.
    pub fn compact(&mut self, state: &TemplateMerge) -> Result<(), StoreError> {
        let next = self.generation + 1;
        for (shard, writer) in self.writers.iter_mut().enumerate() {
            writer.sync()?;
            *writer = ShardWriter::create(&shard_dir(&self.dir, shard), shard, self.shards, next)?;
            self.metrics.disk_log[shard].set(writer.bytes as f64);
        }
        self.generation = next;
        let span = logparse_obs::global().span_into(
            self.metrics.snapshot_seconds.clone(),
            "store_snapshot",
            &[],
        );
        for shard in 0..self.shards {
            let data = shard_portion(state, shard, self.shards);
            let bytes = encode_snapshot(shard, self.shards, next, &data);
            write_atomic(&shard_dir(&self.dir, shard).join(snap_name(next)), &bytes)?;
            // Cleanup below leaves this snapshot as the shard's only one.
            self.metrics.disk_snapshot[shard].set(bytes.len() as f64);
        }
        span.finish();
        for shard in 0..self.shards {
            cleanup_shard(&self.dir, shard, next)?;
        }
        self.metrics.compaction_runs.inc();
        Ok(())
    }

    /// Fsyncs every log and closes the store: the consuming close.
    pub fn finish(mut self) -> Result<(), StoreError> {
        self.sync()
    }
}

impl Drop for TemplateStore {
    fn drop(&mut self) {
        // Best-effort: push buffered appends to the kernel. finish()
        // is the checked path; drop must not panic.
        for writer in &mut self.writers {
            let _ = writer.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tstore-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn config(shards: usize) -> StoreConfig {
        StoreConfig { shards }
    }

    fn sample_deltas() -> Vec<MergeDelta> {
        vec![
            MergeDelta::Insert {
                gid: 0,
                key: "connection from <*>".into(),
            },
            MergeDelta::Assign {
                shard: 0,
                local: 0,
                gid: 0,
            },
            MergeDelta::Insert {
                gid: 1,
                key: "disconnect <*> after <*> ms".into(),
            },
            MergeDelta::Assign {
                shard: 1,
                local: 0,
                gid: 1,
            },
            MergeDelta::Refine {
                gid: 1,
                key: "disconnect <*> after <*>".into(),
            },
        ]
    }

    fn expected_state() -> TemplateMerge {
        let mut state = TemplateMerge::new();
        for delta in sample_deltas() {
            state.apply(&delta);
        }
        state
    }

    #[test]
    fn fresh_open_append_reopen_round_trips() {
        let dir = temp_store_dir("roundtrip");
        let (mut store, recovery) = TemplateStore::open(&dir, &config(4)).unwrap();
        assert_eq!(recovery.state.id_space(), 0);
        assert_eq!(recovery.quarantined_shards, 0);
        store.append(&sample_deltas()).unwrap();
        store.flush().unwrap();
        store.finish().unwrap();
        // What a writer SIGKILLed before its rename leaves behind.
        let orphans = [".meta.blob.7.tmp", "shard-3/.snap-1.snap.7.tmp"].map(|name| dir.join(name));
        for orphan in &orphans {
            fs::write(orphan, b"half a write").unwrap();
        }

        let (_store, recovery) = TemplateStore::open(&dir, &config(4)).unwrap();
        assert_eq!(recovery.state, expected_state());
        assert_eq!(recovery.replayed_records, sample_deltas().len() as u64);
        assert_eq!(recovery.quarantined_shards, 0);
        assert!(!orphans.iter().any(|orphan| orphan.exists()));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_usage_reaches_reports_and_gauges() {
        let dir = temp_store_dir("diskusage");
        // A private registry: every parallel test's store sets the
        // global one's `store_shard_disk_bytes` gauges too.
        let registry = logparse_obs::Registry::new();
        let (mut store, _) = TemplateStore::open_in(&dir, &config(2), &registry).unwrap();
        store.append(&sample_deltas()).unwrap();
        store.flush().unwrap();
        // The flush refreshed the live-log gauges from writer state.
        let logged: f64 = store.metrics.disk_log.iter().map(|g| g.get()).sum();
        let on_disk: u64 = (0..2).map(|s| disk_usage(&shard_dir(&dir, s)).1).sum();
        assert_eq!(logged as u64, on_disk, "log gauges track on-disk bytes");
        assert!(on_disk > 0);
        // Compaction folds the logs into snapshots and the snapshot
        // gauges pick up the new generation's sizes.
        store.compact(&expected_state()).unwrap();
        let snap_gauged: f64 = store.metrics.disk_snapshot.iter().map(|g| g.get()).sum();
        let snap_disk: u64 = (0..2).map(|s| disk_usage(&shard_dir(&dir, s)).0).sum();
        assert_eq!(snap_gauged as u64, snap_disk);
        assert!(snap_disk > 0);
        store.finish().unwrap();

        // A recovery scan reports the same sizes per shard.
        let recovery = TemplateStore::recover(&dir).unwrap();
        for report in &recovery.reports {
            let (snap_bytes, log_bytes) = disk_usage(&shard_dir(&dir, report.shard));
            assert_eq!(report.snapshot_bytes, snap_bytes, "shard {}", report.shard);
            assert_eq!(report.log_bytes, log_bytes, "shard {}", report.shard);
            assert!(report.snapshot_bytes > 0);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_shard_count_beats_config() {
        let dir = temp_store_dir("manifest");
        let (store, _) = TemplateStore::open(&dir, &config(2)).unwrap();
        assert_eq!(store.shard_count(), 2);
        drop(store);
        let (store, _) = TemplateStore::open(&dir, &config(16)).unwrap();
        assert_eq!(store.shard_count(), 2, "manifest wins over config");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_preserves_state_and_prunes_generations() {
        let dir = temp_store_dir("compact");
        let (mut store, _) = TemplateStore::open(&dir, &config(2)).unwrap();
        store.append(&sample_deltas()).unwrap();
        store.compact(&expected_state()).unwrap();
        assert_eq!(store.generation(), 1);
        // Post-compaction appends land in the new generation.
        let extra = MergeDelta::Insert {
            gid: 2,
            key: "post compaction <*>".into(),
        };
        store.append(std::slice::from_ref(&extra)).unwrap();
        store.finish().unwrap();

        let files = scan_dir(&dir.join("shard-0")).unwrap();
        assert_eq!(files.snaps, vec![1], "generation 0 pruned");
        assert_eq!(files.logs, vec![1]);

        let (_store, recovery) = TemplateStore::open(&dir, &config(2)).unwrap();
        let mut expected = expected_state();
        expected.apply(&extra);
        assert_eq!(recovery.state, expected);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_log_tail_is_truncated_and_appendable() {
        let dir = temp_store_dir("torn");
        let (mut store, _) = TemplateStore::open(&dir, &config(1)).unwrap();
        store.append(&sample_deltas()).unwrap();
        store.finish().unwrap();
        // Tear the single shard's log mid-record.
        let log = dir.join("shard-0").join(log_name(0));
        let bytes = fs::read(&log).unwrap();
        fs::write(&log, &bytes[..bytes.len() - 2]).unwrap();

        let (mut store, recovery) = TemplateStore::open(&dir, &config(1)).unwrap();
        let report = recovery.reports.first().unwrap();
        assert!(report.torn_tail_bytes > 0);
        assert!(!report.quarantined);
        // The last delta (a refine) was torn away; the insert stands.
        assert_eq!(
            recovery.state.raw_templates().get(1).unwrap(),
            "disconnect <*> after <*> ms"
        );
        store
            .append(&[MergeDelta::Refine {
                gid: 1,
                key: "re-refined <*>".into(),
            }])
            .unwrap();
        store.finish().unwrap();
        let (_store, recovery) = TemplateStore::open(&dir, &config(1)).unwrap();
        assert_eq!(
            recovery.state.raw_templates().get(1).unwrap(),
            "re-refined <*>"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gen_gap_quarantines_only_the_bad_shard() {
        let dir = temp_store_dir("gap");
        let (mut store, _) = TemplateStore::open(&dir, &config(2)).unwrap();
        store.append(&sample_deltas()).unwrap();
        store.compact(&expected_state()).unwrap();
        store.finish().unwrap();
        // Shard 0 loses its snapshot: its log chain starts at 1, not
        // 0, so recovery cannot rebuild it.
        fs::remove_file(dir.join("shard-0").join(snap_name(1))).unwrap();

        let scan = TemplateStore::recover(&dir).unwrap();
        assert!(scan.reports.first().unwrap().quarantined);
        assert!(!scan.reports.get(1).unwrap().quarantined);

        let (_store, recovery) = TemplateStore::open(&dir, &config(2)).unwrap();
        assert_eq!(recovery.quarantined_shards, 1);
        assert!(dir.join("quarantine").join("shard-0-0").is_dir());
        // Shard 1's slots survive (gids 1 in a 2-shard store).
        assert_eq!(
            recovery.state.raw_templates().get(1).unwrap(),
            "disconnect <*> after <*>"
        );
        // Shard 0's slots are tombstoned, not served.
        assert!(recovery
            .state
            .canonical_templates()
            .iter()
            .all(|(_, key)| key != "connection from <*>" && !key.is_empty()));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantined_shard_is_replaced_and_store_stays_usable() {
        let dir = temp_store_dir("requarantine");
        let (mut store, _) = TemplateStore::open(&dir, &config(2)).unwrap();
        store.append(&sample_deltas()).unwrap();
        store.compact(&expected_state()).unwrap();
        store.finish().unwrap();
        fs::remove_file(dir.join("shard-0").join(snap_name(1))).unwrap();
        let (mut store, _) = TemplateStore::open(&dir, &config(2)).unwrap();
        // The replacement shard accepts appends and revalidates.
        store
            .append(&[MergeDelta::Insert {
                gid: 2,
                key: "fresh after quarantine".into(),
            }])
            .unwrap();
        store.finish().unwrap();
        let (_store, recovery) = TemplateStore::open(&dir, &config(2)).unwrap();
        assert_eq!(
            recovery.quarantined_shards, 0,
            "replacement shard is healthy"
        );
        assert_eq!(
            recovery.state.raw_templates().get(2).unwrap(),
            "fresh after quarantine"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn blobs_round_trip_and_detect_corruption() {
        let dir = temp_store_dir("blob");
        fs::create_dir_all(&dir).unwrap();
        assert_eq!(read_blob(&dir, "meta").unwrap(), BlobRead::Missing);
        write_blob(&dir, "meta", b"{\"lines\":42}").unwrap();
        assert_eq!(
            read_blob(&dir, "meta").unwrap(),
            BlobRead::Ok(b"{\"lines\":42}".to_vec())
        );
        let mut bytes = fs::read(dir.join("meta.blob")).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(dir.join("meta.blob"), &bytes).unwrap();
        assert_eq!(read_blob(&dir, "meta").unwrap(), BlobRead::Corrupt);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_errors_on_a_non_store_directory() {
        let dir = temp_store_dir("nonstore");
        fs::create_dir_all(&dir).unwrap();
        assert!(TemplateStore::recover(&dir).is_err());
        assert!(!TemplateStore::is_store(&dir));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn should_compact_tracks_log_growth() {
        let dir = temp_store_dir("threshold");
        let (mut store, _) = TemplateStore::open(&dir, &config(1)).unwrap();
        assert!(!store.should_compact());
        let mut state = TemplateMerge::new();
        let padding = "x".repeat(4096);
        let mut gid = 0;
        while !store.should_compact() {
            let delta = MergeDelta::Insert {
                gid,
                key: format!("template number <{gid}> {padding}"),
            };
            state.apply(&delta);
            store.append(std::slice::from_ref(&delta)).unwrap();
            gid += 1;
        }
        assert!(
            gid as u64 <= COMPACT_LOG_BYTES / 4096,
            "trips at the threshold"
        );
        store.compact(&state).unwrap();
        assert!(!store.should_compact(), "fresh log is small again");
        store.finish().unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }
}
