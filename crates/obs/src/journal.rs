//! A buffered JSONL event journal.
//!
//! Each emitted event becomes one JSON object per line, stamped with a
//! header the consumer can always rely on:
//!
//! * `seq` — monotonically increasing event number within this journal;
//! * `run_id` — a 16-hex-digit id minted when the journal is created, so
//!   events from different runs interleaved in one file (or shipped to
//!   one collector) stay attributable;
//! * `ts_mono_ns` — nanoseconds since journal creation on the monotonic
//!   clock, immune to wall-clock steps. The clock is read under the same
//!   lock that assigns `seq`, so `ts_mono_ns` is non-decreasing in `seq`
//!   order — including across a [`RotatingFile`] rollover;
//! * `elapsed_ms` — the same offset in milliseconds, for humans;
//! * `rot` — the sink's rotation sequence at emit time (0 for
//!   non-rotating sinks), so a consumer stitching `events.jsonl.2`,
//!   `.1`, and the live file back together can order the pieces without
//!   trusting file mtimes.
//!
//! Writes are buffered and flushed every `FLUSH_EVERY` (32) events or
//! `FLUSH_INTERVAL` (200 ms), whichever comes first — high-rate
//! emitters do not pay a syscall per event. The final buffered tail is
//! guaranteed to reach the sink by [`Journal::flush`] and by `Drop`, so
//! a drained shutdown (including the SIGTERM path) never truncates the
//! log.

use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

use crate::json::{write_string, Json};
use crate::metrics::Counter;
use crate::Fnv1a;

/// Events between forced flushes.
const FLUSH_EVERY: u64 = 32;
/// Maximum time a buffered event may wait before being flushed.
const FLUSH_INTERVAL: Duration = Duration::from_millis(200);

/// A size-capped file sink: once the current file would exceed
/// `max_bytes`, it is rotated to `<path>.1` (existing rotations
/// shifting to `.2`, `.3`, …, the oldest beyond `keep` deleted) and a
/// fresh file opened at `path`. Bounds a months-long run's event
/// stream to roughly `(keep + 1) * max_bytes` on disk.
///
/// Rotation happens between `write` calls, so a buffered line that
/// straddles the cap stays whole unless the buffer itself split it —
/// the same torn-tail tolerance consumers already need for crashes.
#[derive(Debug)]
pub struct RotatingFile {
    path: PathBuf,
    file: File,
    written: u64,
    max_bytes: u64,
    keep: usize,
    rotations: Counter,
    seq: Arc<AtomicU64>,
}

fn numbered(path: &Path, n: usize) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(format!(".{n}"));
    PathBuf::from(name)
}

impl RotatingFile {
    /// Creates (truncating) `path` as the current file. `max_bytes`
    /// is clamped to at least 1; `keep` is the number of rotated
    /// files retained beside the current one.
    pub fn create(path: &Path, max_bytes: u64, keep: usize) -> io::Result<RotatingFile> {
        let file = File::create(path)?;
        Ok(RotatingFile {
            path: path.to_path_buf(),
            file,
            written: 0,
            max_bytes: max_bytes.max(1),
            keep,
            rotations: crate::global().counter(
                "obs_journal_rotations_total",
                "Journal files rotated out because they reached the size cap",
                &[],
            ),
            seq: Arc::new(AtomicU64::new(0)),
        })
    }

    /// A shared handle to this file's rotation sequence: 0 until the
    /// first rollover, incremented on each. [`Journal::rotating`] stamps
    /// it into every event's `rot` header field.
    pub fn rotation_seq(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.seq)
    }

    // lint:allow(durability-discipline): journal rotation is flush-tier by contract — the shift chain is crash-atomic per rename, and losing tail events to power loss is the documented trade (docs/DURABILITY.md)
    fn rotate(&mut self) -> io::Result<()> {
        if self.keep == 0 {
            let _ = std::fs::remove_file(&self.path);
        } else {
            let _ = std::fs::remove_file(numbered(&self.path, self.keep));
            for n in (1..self.keep).rev() {
                let _ = std::fs::rename(numbered(&self.path, n), numbered(&self.path, n + 1));
            }
            let _ = std::fs::rename(&self.path, numbered(&self.path, 1));
        }
        // Renaming an open file leaves its descriptor valid; creating
        // the replacement drops the old handle.
        self.file = File::create(&self.path)?;
        self.written = 0;
        self.rotations.inc();
        self.seq.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

impl Write for RotatingFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.written > 0 && self.written + buf.len() as u64 > self.max_bytes {
            self.rotate()?;
        }
        let n = self.file.write(buf)?;
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

struct Sink {
    /// The journal owns the buffering: callers hand in a raw sink and
    /// the buffered tail is pushed out on the flush cadence, by
    /// [`Journal::flush`] and on drop.
    out: io::BufWriter<Box<dyn Write + Send>>,
    pending: u64,
    last_flush: Instant,
    seq: u64,
    /// The first write or flush error. Once the sink has failed nothing
    /// more is written, so the log on disk is a clean prefix of the run.
    error: Option<io::Error>,
}

impl Sink {
    /// Runs one write or flush unless the sink has already failed, and
    /// keeps its error if it fails now.
    fn attempt(
        &mut self,
        op: impl FnOnce(&mut io::BufWriter<Box<dyn Write + Send>>) -> io::Result<()>,
    ) {
        if self.error.is_none() {
            if let Err(e) = op(&mut self.out) {
                self.error = Some(e);
            }
        }
    }
}

/// A thread-safe JSONL event journal.
pub struct Journal {
    sink: Mutex<Sink>,
    start: Instant,
    run_id: String,
    /// Rotation sequence of the underlying sink, mirrored into each
    /// event's `rot` field. Stays 0 for non-rotating sinks.
    rotation: Arc<AtomicU64>,
    /// The file the journal writes, when it opened one.
    path: Option<PathBuf>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("run_id", &self.run_id)
            .finish_non_exhaustive()
    }
}

/// Mints a 16-hex-digit run id from the wall clock and pid — unique
/// enough to tell runs apart in an aggregated event stream without
/// reaching for an entropy source the offline build may not have.
pub fn mint_run_id() -> String {
    let nanos = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    let pid = std::process::id() as u64;
    // Hashed so close-together pids/timestamps still produce visually
    // distinct ids.
    let hash = Fnv1a::new()
        .bytes(&nanos.to_le_bytes())
        .bytes(&pid.to_le_bytes())
        .finish();
    format!("{hash:016x}")
}

impl Journal {
    /// A journal writing to `sink` with a freshly minted run id.
    pub fn new(sink: Box<dyn Write + Send>) -> Self {
        Journal::with_run_id(sink, mint_run_id())
    }

    /// A journal with an explicit run id (tests, resumed runs).
    pub fn with_run_id(sink: Box<dyn Write + Send>, run_id: String) -> Self {
        Journal {
            sink: Mutex::new(Sink {
                out: io::BufWriter::new(sink),
                pending: 0,
                last_flush: Instant::now(),
                seq: 0,
                error: None,
            }),
            start: Instant::now(),
            run_id,
            rotation: Arc::new(AtomicU64::new(0)),
            path: None,
        }
    }

    /// A journal that drops every event.
    pub fn disabled() -> Self {
        Journal::new(Box::new(io::sink()))
    }

    /// A journal appending to `path` (created if absent, never
    /// truncated). Successive coordinator incarnations of a resumable
    /// job share one event log this way: each incarnation mints its own
    /// `run_id` and restarts `seq`/`ts_mono_ns`, so a consumer orders
    /// within an incarnation by `seq` and across incarnations by file
    /// position.
    pub fn appending(path: &Path) -> io::Result<Journal> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Journal::new(Box::new(file)).at(path))
    }

    /// A journal writing to `path`, created or truncated.
    pub fn create(path: &Path) -> io::Result<Journal> {
        Ok(Journal::new(Box::new(File::create(path)?)).at(path))
    }

    /// A journal writing to a size-rotated file: see [`RotatingFile`].
    /// Events carry the file's rotation sequence in their `rot` field.
    pub fn rotating(path: &Path, max_bytes: u64, keep: usize) -> io::Result<Journal> {
        let file = RotatingFile::create(path, max_bytes, keep)?;
        let rotation = file.rotation_seq();
        let mut journal = Journal::new(Box::new(file)).at(path);
        journal.rotation = rotation;
        Ok(journal)
    }

    fn at(mut self, path: &Path) -> Journal {
        self.path = Some(path.to_path_buf());
        self
    }

    /// This journal's run id.
    pub fn run_id(&self) -> &str {
        &self.run_id
    }

    /// The file this journal writes, when it was opened on one
    /// ([`create`](Journal::create), [`appending`](Journal::appending),
    /// [`rotating`](Journal::rotating)).
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Appends one event; `fields` follow the header fields. A sink
    /// error does not stop the caller — the monitored program must not
    /// die mid-run because monitoring went away — but it is kept, the
    /// journal writes nothing after it, and [`flush`](Journal::flush)
    /// returns it.
    pub fn emit(&self, event: &str, fields: &[(&str, Json)]) {
        let mut line = String::with_capacity(128);
        line.push_str("{\"event\":");
        write_string(event, &mut line);
        line.push_str(",\"seq\":");
        // Poison recovery: a panic mid-write elsewhere leaves at worst a
        // torn line; monitoring must keep running regardless.
        let mut sink = self
            .sink
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // The clock is read while the lock (and thus the seq) is held:
        // ts_mono_ns is non-decreasing in seq order even when many
        // threads emit concurrently or the sink rotates between events.
        let ts = self.start.elapsed();
        line.push_str(&sink.seq.to_string());
        sink.seq += 1;
        line.push_str(",\"run_id\":\"");
        line.push_str(&self.run_id);
        line.push_str("\",\"ts_mono_ns\":");
        line.push_str(&ts.as_nanos().to_string());
        line.push_str(",\"elapsed_ms\":");
        line.push_str(&ts.as_millis().to_string());
        line.push_str(",\"rot\":");
        line.push_str(&self.rotation.load(Ordering::Relaxed).to_string());
        for (key, value) in fields {
            line.push(',');
            write_string(key, &mut line);
            line.push(':');
            value.write(&mut line);
        }
        line.push_str("}\n");
        sink.attempt(|out| out.write_all(line.as_bytes()));
        sink.pending += 1;
        if sink.pending >= FLUSH_EVERY || sink.last_flush.elapsed() >= FLUSH_INTERVAL {
            sink.attempt(Write::flush);
            sink.pending = 0;
            sink.last_flush = Instant::now();
        }
    }

    /// Flushes any buffered events to the sink.
    ///
    /// # Errors
    ///
    /// The first error any write or flush of this journal met, now or
    /// earlier; every call after it returns it again.
    pub fn flush(&self) -> io::Result<()> {
        let mut sink = self
            .sink
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        sink.attempt(Write::flush);
        sink.pending = 0;
        sink.last_flush = Instant::now();
        match &sink.error {
            Some(e) => Err(io::Error::new(e.kind(), e.to_string())),
            None => Ok(()),
        }
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        // Whoever wanted the error asked `flush` for it before the drop.
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn events_carry_header_fields_in_order() {
        let sink = Shared::default();
        let journal = Journal::with_run_id(Box::new(sink.clone()), "00deadbeef00cafe".into());
        journal.emit("started", &[("shards", Json::usize(4))]);
        journal.emit(
            "scored",
            &[
                ("spe", Json::Num(1.5)),
                ("anomalous", Json::Bool(false)),
                ("note", Json::str("a \"quoted\" word")),
                ("missing", Json::Null),
            ],
        );
        journal.flush().unwrap();
        let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with(
            "{\"event\":\"started\",\"seq\":0,\"run_id\":\"00deadbeef00cafe\",\"ts_mono_ns\":"
        ));
        assert!(lines[0].contains("\"shards\":4"));
        assert!(lines[1].contains("\"seq\":1"));
        assert!(lines[1].contains("\"spe\":1.5"));
        assert!(lines[1].contains("\"anomalous\":false"));
        assert!(lines[1].contains("\"note\":\"a \\\"quoted\\\" word\""));
        assert!(lines[1].contains("\"missing\":null"));
        // One JSON object per line, whatever the field types.
        for (seq, line) in lines.iter().enumerate() {
            let parsed = Json::parse(line).unwrap();
            assert_eq!(header_num(&parsed, "seq"), seq);
            assert!(parsed.get("elapsed_ms").unwrap().as_usize().is_some());
        }
    }

    /// The same `f64` prints the same bytes as a top-level event field
    /// and nested inside an array — on the three inputs the journal's
    /// and the value tree's separate formatters used to disagree on.
    #[test]
    fn numbers_print_alike_at_every_depth() {
        let sink = Shared::default();
        let journal = Journal::new(Box::new(sink.clone()));
        for (n, printed) in [
            (3.2e-9, "0.0000000032"),
            (-0.0, "-0"),
            (9.1e15, "9100000000000000"),
        ] {
            let nested = Json::Arr(vec![Json::Num(n)]);
            journal.emit("n", &[("top", Json::Num(n)), ("in", nested)]);
            journal.flush().unwrap();
            let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
            let tail = format!("\"top\":{printed},\"in\":[{printed}]}}\n");
            assert!(text.ends_with(&tail), "{text}");
        }
    }

    #[test]
    fn run_ids_are_hex_and_distinct() {
        let a = mint_run_id();
        let b = mint_run_id();
        assert_eq!(a.len(), 16);
        assert!(a.chars().all(|c| c.is_ascii_hexdigit()));
        assert_ne!(a, b, "two mints in a row collided");
    }

    #[test]
    fn ts_mono_is_nondecreasing() {
        let sink = Shared::default();
        let journal = Journal::new(Box::new(sink.clone()));
        assert_eq!(journal.run_id().len(), 16);
        for _ in 0..5 {
            journal.emit("tick", &[]);
        }
        journal.flush().unwrap();
        let events = parsed_lines(&sink);
        for event in &events {
            let run_id = event.get("run_id").unwrap().as_str();
            assert_eq!(run_id, Some(journal.run_id()));
        }
        for pair in events.windows(2) {
            assert!(header_num(&pair[0], "ts_mono_ns") <= header_num(&pair[1], "ts_mono_ns"));
        }
    }

    /// A sink that counts flushes, to pin the buffering contract.
    #[derive(Clone, Default)]
    struct CountingSink(Arc<Mutex<(usize, usize)>>); // (writes, flushes)

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().0 += 1;
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            self.0.lock().unwrap().1 += 1;
            Ok(())
        }
    }

    #[test]
    fn rotating_file_caps_size_and_shifts_history() {
        let dir = std::env::temp_dir().join(format!("obs-rotate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let mut sink = RotatingFile::create(&path, 64, 2).unwrap();
        let before = crate::global()
            .render()
            .lines()
            .find(|l| l.starts_with("obs_journal_rotations_total"))
            .and_then(|l| l.split(' ').next_back())
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0);
        // Each write is 40 bytes; every second write exceeds the
        // 64-byte cap and rotates first.
        for i in 0..6 {
            let line = format!("{{\"event\":\"tick\",\"n\":{i},\"pad\":\"xxxxxx\"}}\n");
            sink.write_all(line.as_bytes()).unwrap();
        }
        sink.flush().unwrap();
        assert!(path.exists());
        assert!(numbered(&path, 1).exists());
        assert!(numbered(&path, 2).exists());
        assert!(!numbered(&path, 3).exists(), "keep=2 bounds history");
        assert!(std::fs::metadata(&path).unwrap().len() <= 64);
        let after = crate::global()
            .render()
            .lines()
            .find(|l| l.starts_with("obs_journal_rotations_total"))
            .and_then(|l| l.split(' ').next_back())
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0);
        assert!(after > before, "rotations are counted");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotating_journal_keeps_emitting_across_the_cap() {
        let dir = std::env::temp_dir().join(format!("obs-rotjournal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        let journal = Journal::rotating(&path, 512, 1).unwrap();
        for _ in 0..64 {
            journal.emit("tick", &[("pad", Json::str("some event payload text"))]);
        }
        journal.flush().unwrap();
        drop(journal);
        assert!(
            numbered(&path, 1).exists(),
            "cap was passed, history rotated"
        );
        assert!(!numbered(&path, 2).exists(), "keep=1 bounds history");
        let tail = std::fs::read_to_string(&path).unwrap();
        let head = std::fs::read_to_string(numbered(&path, 1)).unwrap();
        assert!(!tail.is_empty() || !head.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A header field's numeric value.
    fn header_num(event: &Json, key: &str) -> usize {
        let value = event.get(key).and_then(Json::as_usize);
        value.unwrap_or_else(|| panic!("no integer {key} in {event}"))
    }

    /// Every line the sink received, parsed.
    fn parsed_lines(sink: &Shared) -> Vec<Json> {
        let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        text.lines().map(|l| Json::parse(l).unwrap()).collect()
    }

    #[test]
    fn ts_mono_stays_monotonic_across_rotation_and_rot_is_stamped() {
        let dir = std::env::temp_dir().join(format!("obs-rotmono-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        // Tiny cap + flush after every event forces many rollovers.
        let journal = Journal::rotating(&path, 256, 4).unwrap();
        for i in 0..48 {
            journal.emit("tick", &[("n", Json::usize(i))]);
            journal.flush().unwrap();
        }
        drop(journal);
        // Stitch every surviving file back together.
        let mut text = String::new();
        for n in (1..=4).rev() {
            if let Ok(piece) = std::fs::read_to_string(numbered(&path, n)) {
                text.push_str(&piece);
            }
        }
        text.push_str(&std::fs::read_to_string(&path).unwrap());
        let mut events: Vec<(usize, usize, usize)> = text
            .lines()
            .map(|l| {
                let l = Json::parse(l).unwrap();
                (
                    header_num(&l, "seq"),
                    header_num(&l, "ts_mono_ns"),
                    header_num(&l, "rot"),
                )
            })
            .collect();
        assert!(
            events.len() > 8,
            "rotation kept only {} events",
            events.len()
        );
        events.sort_by_key(|e| e.0);
        for pair in events.windows(2) {
            assert!(pair[0].0 < pair[1].0, "seq strictly increases");
            assert!(
                pair[0].1 <= pair[1].1,
                "ts_mono_ns must be monotonic in seq order across rollovers: {pair:?}"
            );
            assert!(pair[0].2 <= pair[1].2, "rot never goes backwards");
        }
        let max_rot = events.iter().map(|e| e.2).max().unwrap();
        assert!(max_rot >= 2, "cap of 256 bytes must rotate repeatedly");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_emitters_keep_ts_monotonic_in_seq_order() {
        let sink = Shared::default();
        let journal = Arc::new(Journal::new(Box::new(sink.clone())));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let journal = Arc::clone(&journal);
                std::thread::spawn(move || {
                    for i in 0..200 {
                        journal.emit("tick", &[("t", Json::usize(t * 1000 + i))]);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        journal.flush().unwrap();
        let mut events: Vec<(usize, usize)> = parsed_lines(&sink)
            .iter()
            .map(|l| (header_num(l, "seq"), header_num(l, "ts_mono_ns")))
            .collect();
        assert_eq!(events.len(), 800);
        events.sort_by_key(|e| e.0);
        for pair in events.windows(2) {
            assert!(
                pair[0].1 <= pair[1].1,
                "clock is read under the seq lock, so this cannot interleave: {pair:?}"
            );
        }
    }

    #[test]
    fn appending_journal_preserves_prior_incarnations() {
        let dir = std::env::temp_dir().join(format!("obs-append-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let first = Journal::appending(&path).unwrap();
        first.emit("job_started", &[]);
        drop(first);
        let second = Journal::appending(&path).unwrap();
        second.emit("job_finished", &[]);
        drop(second);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "append mode must not truncate: {text}");
        assert!(lines[0].contains("\"event\":\"job_started\""));
        assert!(lines[1].contains("\"event\":\"job_finished\""));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_rotating_sinks_stamp_rot_zero() {
        let sink = Shared::default();
        let journal = Journal::new(Box::new(sink.clone()));
        journal.emit("tick", &[]);
        journal.flush().unwrap();
        assert_eq!(header_num(&parsed_lines(&sink)[0], "rot"), 0);
    }

    #[test]
    fn flushes_are_batched_but_guaranteed_on_drop() {
        let sink = CountingSink::default();
        let journal = Journal::new(Box::new(sink.clone()));
        for _ in 0..5 {
            journal.emit("e", &[]);
        }
        let flushes_before_drop = sink.0.lock().unwrap().1;
        assert!(
            flushes_before_drop <= 1,
            "5 quick events should not flush per event (saw {flushes_before_drop})"
        );
        drop(journal);
        let (writes, flushes) = *sink.0.lock().unwrap();
        assert!(flushes > flushes_before_drop, "drop must flush");
        assert!(writes > 0, "the buffered events reach the sink");
    }
}
