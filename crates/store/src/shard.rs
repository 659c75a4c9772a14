//! Per-shard file management: snapshot encode/validate, delta-log
//! scanning, and the append-side log writer.
//!
//! Each store shard owns one directory holding `snap-<gen>.snap`
//! snapshot files and `delta-<gen>.log` append-only logs. Generation
//! numbers pair them: snapshot `G` captures all state up to the
//! moment log `G` was opened, so restart loads snapshot `G` and
//! replays logs `G..` — older generations are garbage that
//! [`TemplateStore::compact`](crate::TemplateStore::compact) deletes.
//!
//! Validation contracts enforced here:
//!
//! * a snapshot is accepted only if its header opens the file with
//!   the expected shard/generation, its footer closes the file with
//!   counts matching the records seen, and every byte belongs to a
//!   CRC-valid record — anything less rejects the whole snapshot
//!   (snapshots are written atomically, so a partial one is
//!   corruption, not a crash artifact);
//! * a delta log tolerates a *torn tail* — the valid record prefix is
//!   kept and the tail length reported, because a crash mid-append is
//!   the expected failure mode. Whether a torn log is acceptable
//!   (final generation) or quarantinable (earlier generation) is the
//!   store's policy decision, not this layer's.

use crate::codec::{FileHeader, Payload, FORMAT_VERSION};
use crate::frame::{append_record, Frame, FrameReader};
use logparse_core::MergeDelta;
use logparse_obs::Fnv1a;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::Path;

/// File name of a snapshot generation.
pub(crate) fn snap_name(generation: u64) -> String {
    format!("snap-{generation}.snap")
}

/// File name of a delta-log generation.
pub(crate) fn log_name(generation: u64) -> String {
    format!("delta-{generation}.log")
}

/// Store shard a slot-targeted record routes to (inserts, refinements
/// and unions, keyed by the written gid).
pub(crate) fn route_slot(gid: usize, shards: usize) -> usize {
    gid % shards.max(1)
}

/// Store shard an assign record routes to. Keyed by the *binding*
/// (worker shard, local id) — not the gid — so that re-assignments of
/// the same binding after a restart land in the same log and replay
/// in write order.
pub(crate) fn route_assign(shard: usize, local: usize, shards: usize) -> usize {
    let hash = Fnv1a::new()
        .bytes(&(shard as u64).to_le_bytes())
        .bytes(&(local as u64).to_le_bytes())
        .finish();
    (hash % shards.max(1) as u64) as usize
}

/// Generations present in one shard directory, each list ascending.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub(crate) struct ShardFiles {
    pub snaps: Vec<u64>,
    pub logs: Vec<u64>,
}

fn parse_generation(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

/// Lists the snapshot and log generations in `dir`. Unrecognized
/// files are ignored (editor droppings, quarantine notes).
pub(crate) fn scan_dir(dir: &Path) -> io::Result<ShardFiles> {
    let mut files = ShardFiles::default();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(generation) = parse_generation(name, "snap-", ".snap") {
            files.snaps.push(generation);
        } else if let Some(generation) = parse_generation(name, "delta-", ".log") {
            files.logs.push(generation);
        }
    }
    files.snaps.sort_unstable();
    files.logs.sort_unstable();
    Ok(files)
}

/// The decoded contents of one shard's snapshot.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub(crate) struct SnapshotData {
    /// `(gid, parent, key)` slots owned by this shard.
    pub slots: Vec<(usize, usize, String)>,
    /// `(worker shard, local, gid)` bindings routed to this shard.
    pub assigns: Vec<(usize, usize, usize)>,
}

/// Encodes a complete snapshot file for one shard.
pub(crate) fn encode_snapshot(
    shard: usize,
    shard_count: usize,
    generation: u64,
    data: &SnapshotData,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + data.slots.len() * 48 + data.assigns.len() * 33);
    let header = FileHeader {
        version: FORMAT_VERSION,
        shard,
        shard_count,
        generation,
    };
    append_record(&mut out, &Payload::SnapHeader(header).encode());
    for (gid, parent, key) in &data.slots {
        append_record(
            &mut out,
            &Payload::SnapSlot {
                gid: *gid,
                parent: *parent,
                key: key.clone(),
            }
            .encode(),
        );
    }
    for (shard, local, gid) in &data.assigns {
        append_record(
            &mut out,
            &Payload::SnapAssign {
                shard: *shard,
                local: *local,
                gid: *gid,
            }
            .encode(),
        );
    }
    append_record(
        &mut out,
        &Payload::SnapFooter {
            slots: data.slots.len() as u64,
            assigns: data.assigns.len() as u64,
        }
        .encode(),
    );
    out
}

/// Validates and decodes a snapshot file. `Err` carries the rejection
/// reason; a rejected snapshot is treated as corrupt in its entirety.
pub(crate) fn read_snapshot(
    bytes: &[u8],
    shard: usize,
    shard_count: usize,
    generation: u64,
) -> Result<SnapshotData, String> {
    let mut reader = FrameReader::new(bytes);
    let first = match reader.next() {
        Frame::Record(payload) => payload,
        Frame::Corrupt => return Err("corrupt record where header expected".into()),
        Frame::Eof => return Err("empty snapshot".into()),
    };
    match Payload::decode(first) {
        Ok(Payload::SnapHeader(header)) => {
            if header.version != FORMAT_VERSION {
                return Err(format!("unsupported snapshot version {}", header.version));
            }
            if header.shard != shard
                || header.shard_count != shard_count
                || header.generation != generation
            {
                return Err(format!(
                    "header identifies shard {}/{} gen {}, expected {shard}/{shard_count} gen {generation}",
                    header.shard, header.shard_count, header.generation
                ));
            }
        }
        Ok(other) => return Err(format!("first record is not a header: {other:?}")),
        Err(err) => return Err(err.to_string()),
    }
    let mut data = SnapshotData::default();
    let mut footer: Option<(u64, u64)> = None;
    loop {
        let payload = match reader.next() {
            Frame::Record(payload) => payload,
            Frame::Corrupt => return Err("corrupt record inside snapshot".into()),
            Frame::Eof => break,
        };
        if footer.is_some() {
            return Err("records after snapshot footer".into());
        }
        match Payload::decode(payload) {
            Ok(Payload::SnapSlot { gid, parent, key }) => data.slots.push((gid, parent, key)),
            Ok(Payload::SnapAssign { shard, local, gid }) => data.assigns.push((shard, local, gid)),
            Ok(Payload::SnapFooter { slots, assigns }) => footer = Some((slots, assigns)),
            Ok(other) => return Err(format!("unexpected record in snapshot: {other:?}")),
            Err(err) => return Err(err.to_string()),
        }
    }
    match footer {
        Some((slots, assigns))
            if slots == data.slots.len() as u64 && assigns == data.assigns.len() as u64 =>
        {
            Ok(data)
        }
        Some((slots, assigns)) => Err(format!(
            "footer counts {slots}/{assigns} do not match records {}/{}",
            data.slots.len(),
            data.assigns.len()
        )),
        None => Err("snapshot has no footer".into()),
    }
}

/// The result of scanning one delta log.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub(crate) struct LogScan {
    /// Deltas recovered from the valid prefix, in write order.
    pub deltas: Vec<MergeDelta>,
    /// Byte length of the valid record prefix.
    pub valid_prefix: u64,
    /// Bytes beyond the valid prefix (zero for a clean log).
    pub torn_bytes: u64,
    /// Whether a matching log header opened the file.
    pub header_ok: bool,
}

impl LogScan {
    /// A log whose every byte belongs to a valid record.
    pub fn is_clean(&self) -> bool {
        self.header_ok && self.torn_bytes == 0
    }
}

/// Scans a delta log, keeping the longest valid prefix. Never fails:
/// corruption shortens the prefix, and `header_ok` reports whether
/// anything trustworthy was found at all (a log with a bad or
/// mismatched header contributes nothing).
pub(crate) fn read_log(bytes: &[u8], shard: usize, shard_count: usize, generation: u64) -> LogScan {
    let mut scan = LogScan {
        torn_bytes: bytes.len() as u64,
        ..LogScan::default()
    };
    let mut reader = FrameReader::new(bytes);
    let first = match reader.next() {
        Frame::Record(payload) => payload,
        Frame::Corrupt | Frame::Eof => return scan,
    };
    match Payload::decode(first) {
        Ok(Payload::LogHeader(header))
            if header.version == FORMAT_VERSION
                && header.shard == shard
                && header.shard_count == shard_count
                && header.generation == generation =>
        {
            scan.header_ok = true;
        }
        _ => return scan,
    }
    scan.valid_prefix = reader.valid_prefix() as u64;
    while let Frame::Record(payload) = reader.next() {
        match Payload::decode(payload) {
            Ok(Payload::Delta(delta)) => {
                scan.deltas.push(delta);
                scan.valid_prefix = reader.valid_prefix() as u64;
            }
            // A non-delta record mid-log is corruption the CRC cannot
            // see; stop at the last good delta.
            _ => break,
        }
    }
    scan.torn_bytes = bytes.len() as u64 - scan.valid_prefix;
    scan
}

/// The append side of one shard's current delta log.
#[derive(Debug)]
pub(crate) struct ShardWriter {
    out: io::BufWriter<File>,
    /// Bytes in the log (valid prefix at open plus appends since) —
    /// the compaction trigger input.
    pub bytes: u64,
}

impl ShardWriter {
    /// Creates `delta-<generation>.log` in `dir` with a fresh header,
    /// fsyncing the file and the directory so the rotation itself is
    /// durable before any delta lands in it.
    pub fn create(
        dir: &Path,
        shard: usize,
        shard_count: usize,
        generation: u64,
    ) -> io::Result<ShardWriter> {
        let path = dir.join(log_name(generation));
        let mut header = Vec::with_capacity(64);
        append_record(
            &mut header,
            &Payload::LogHeader(FileHeader {
                version: FORMAT_VERSION,
                shard,
                shard_count,
                generation,
            })
            .encode(),
        );
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        file.write_all(&header)?;
        file.sync_all()?;
        crate::sync_dir(dir)?;
        Ok(ShardWriter {
            out: io::BufWriter::new(file),
            bytes: header.len() as u64,
        })
    }

    /// Reopens an existing log for append, truncating away a torn
    /// tail first. If nothing valid survived (`valid_prefix == 0`) a
    /// fresh header is written in place.
    pub fn resume(
        dir: &Path,
        shard: usize,
        shard_count: usize,
        generation: u64,
        valid_prefix: u64,
    ) -> io::Result<ShardWriter> {
        if valid_prefix == 0 {
            return ShardWriter::create(dir, shard, shard_count, generation);
        }
        let path = dir.join(log_name(generation));
        let mut file = OpenOptions::new().write(true).open(&path)?;
        file.set_len(valid_prefix)?;
        file.sync_all()?;
        file.seek(SeekFrom::End(0))?;
        Ok(ShardWriter {
            out: io::BufWriter::new(file),
            bytes: valid_prefix,
        })
    }

    /// Appends one delta record (buffered).
    pub fn append(&mut self, delta: &MergeDelta) -> io::Result<()> {
        let mut framed = Vec::with_capacity(64);
        append_record(&mut framed, &Payload::Delta(delta.clone()).encode());
        self.out.write_all(&framed)?;
        self.bytes += framed.len() as u64;
        Ok(())
    }

    /// Pushes buffered records to the kernel (SIGKILL-safe once this
    /// returns; power-loss safety needs [`ShardWriter::sync`]).
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }

    /// Flushes and fsyncs the log file.
    pub fn sync(&mut self) -> io::Result<()> {
        self.out.flush()?;
        self.out.get_ref().sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips() {
        let data = SnapshotData {
            slots: vec![
                (0, 0, "a <*>".into()),
                (4, 0, String::new()),
                (8, 8, "b <*> c".into()),
            ],
            assigns: vec![(0, 0, 0), (3, 7, 8)],
        };
        let bytes = encode_snapshot(1, 4, 9, &data);
        assert_eq!(read_snapshot(&bytes, 1, 4, 9), Ok(data));
    }

    #[test]
    fn snapshot_rejects_wrong_identity_truncation_and_bit_flips() {
        let data = SnapshotData {
            slots: vec![(2, 2, "x <*>".into())],
            assigns: vec![(0, 1, 2)],
        };
        let bytes = encode_snapshot(2, 4, 3, &data);
        assert!(read_snapshot(&bytes, 3, 4, 3).is_err(), "wrong shard");
        assert!(read_snapshot(&bytes, 2, 8, 3).is_err(), "wrong shard count");
        assert!(read_snapshot(&bytes, 2, 4, 4).is_err(), "wrong generation");
        assert!(read_snapshot(&bytes[..bytes.len() - 1], 2, 4, 3).is_err());
        assert!(read_snapshot(&[], 2, 4, 3).is_err());
        for at in (0..bytes.len()).step_by(7) {
            let mut flipped = bytes.to_vec();
            flipped[at] ^= 0x10;
            assert!(read_snapshot(&flipped, 2, 4, 3).is_err(), "flip at {at}");
        }
    }

    fn sample_deltas() -> Vec<MergeDelta> {
        vec![
            MergeDelta::Insert {
                gid: 0,
                key: "started <*>".into(),
            },
            MergeDelta::Assign {
                shard: 0,
                local: 0,
                gid: 0,
            },
            MergeDelta::Refine {
                gid: 0,
                key: "started <*> <*>".into(),
            },
            MergeDelta::Union {
                winner: 0,
                loser: 3,
            },
        ]
    }

    #[test]
    fn log_write_scan_round_trips_through_a_real_file() {
        let dir = std::env::temp_dir().join(format!("store-shard-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut writer = ShardWriter::create(&dir, 0, 2, 5).unwrap();
        for delta in sample_deltas() {
            writer.append(&delta).unwrap();
        }
        writer.sync().unwrap();
        let bytes = std::fs::read(dir.join(log_name(5))).unwrap();
        let scan = read_log(&bytes, 0, 2, 5);
        assert!(scan.is_clean());
        assert_eq!(scan.deltas, sample_deltas());
        assert_eq!(scan.valid_prefix, bytes.len() as u64);
        assert_eq!(writer.bytes, bytes.len() as u64);

        // Tear the tail and resume: the torn record vanishes, appends
        // continue from the valid prefix.
        drop(writer);
        let torn_len = bytes.len() - 3;
        let file = OpenOptions::new()
            .write(true)
            .open(dir.join(log_name(5)))
            .unwrap();
        file.set_len(torn_len as u64).unwrap();
        drop(file);
        let torn_bytes = std::fs::read(dir.join(log_name(5))).unwrap();
        let torn_scan = read_log(&torn_bytes, 0, 2, 5);
        assert!(!torn_scan.is_clean());
        assert_eq!(torn_scan.deltas.len(), sample_deltas().len() - 1);
        let mut resumed = ShardWriter::resume(&dir, 0, 2, 5, torn_scan.valid_prefix).unwrap();
        resumed
            .append(&MergeDelta::Insert {
                gid: 9,
                key: "after resume".into(),
            })
            .unwrap();
        resumed.sync().unwrap();
        let final_bytes = std::fs::read(dir.join(log_name(5))).unwrap();
        let final_scan = read_log(&final_bytes, 0, 2, 5);
        assert!(final_scan.is_clean());
        let mut expected: Vec<MergeDelta> = sample_deltas();
        expected.pop();
        expected.push(MergeDelta::Insert {
            gid: 9,
            key: "after resume".into(),
        });
        assert_eq!(final_scan.deltas, expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn log_with_bad_header_contributes_nothing() {
        let mut bytes = Vec::new();
        append_record(
            &mut bytes,
            &Payload::Delta(MergeDelta::Insert {
                gid: 0,
                key: "headerless".into(),
            })
            .encode(),
        );
        let scan = read_log(&bytes, 0, 2, 1);
        assert!(!scan.header_ok);
        assert!(scan.deltas.is_empty());
        assert_eq!(scan.valid_prefix, 0);
    }

    #[test]
    fn assign_routing_is_stable_and_in_range() {
        for shards in 1..9 {
            for shard in 0..4 {
                for local in 0..64 {
                    let a = route_assign(shard, local, shards);
                    let b = route_assign(shard, local, shards);
                    assert_eq!(a, b);
                    assert!(a < shards);
                }
            }
        }
        assert_eq!(route_slot(13, 4), 1);
        // Placement is persisted: a store replays under the hash that
        // wrote it. Values from the hand-rolled loop `Fnv1a` replaced.
        assert_eq!((route_assign(3, 17, 8), route_assign(0, 0, 8)), (7, 5));
    }

    #[test]
    fn dir_scan_orders_generations_and_skips_strangers() {
        let dir = std::env::temp_dir().join(format!("store-scan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for name in [
            "snap-3.snap",
            "snap-0.snap",
            "delta-3.log",
            "delta-10.log",
            "delta-2.log",
            "notes.txt",
            "snap-x.snap",
        ] {
            std::fs::write(dir.join(name), b"").unwrap();
        }
        let files = scan_dir(&dir).unwrap();
        assert_eq!(files.snaps, vec![0, 3]);
        assert_eq!(files.logs, vec![2, 3, 10]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
