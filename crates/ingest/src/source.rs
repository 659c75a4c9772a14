//! Pluggable log-line sources.
//!
//! A [`LogSource`] produces raw lines plus two control outcomes: `Idle`
//! (nothing available right now — the pipeline flushes timers, checks
//! the stop flag and comes back) and `Eof` (the stream is finished —
//! drain and shut down). Long blocking waits live *outside* the trait
//! contract so graceful shutdown stays responsive.
//!
//! What a line is — DESIGN.md's *Line contract* table — is decided in
//! one place, [`LineFramer`]: every source fed bytes reads one chunk
//! into its framer when that holds no complete line, and pops otherwise.

use std::fs::File;
use std::io::{self, ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;

use logparse_core::{LineDamage, LineFramer};

/// One pull from a source.
#[derive(Debug, PartialEq, Eq)]
pub enum SourceItem {
    /// A complete log line (without its newline).
    Line(String),
    /// Nothing available right now; poll again shortly.
    Idle,
    /// The stream is complete.
    Eof,
}

/// A stream of log lines.
pub trait LogSource: Send {
    /// Pulls the next item. `Idle` must return promptly (no unbounded
    /// blocking) so the pipeline can honor shutdown requests.
    fn next_item(&mut self) -> io::Result<SourceItem>;

    /// A short human-readable description for the event log.
    fn describe(&self) -> String;

    /// Lines delivered repaired since the last call; the router
    /// publishes them as `ingest_source_damaged_lines_total{reason}`.
    fn take_damage(&mut self) -> LineDamage {
        LineDamage::default()
    }
}

/// An in-memory source — tests and benchmarks.
#[derive(Debug)]
pub struct MemorySource {
    lines: std::vec::IntoIter<String>,
}

impl MemorySource {
    /// Streams the given lines, then `Eof`.
    pub fn new(lines: Vec<String>) -> Self {
        MemorySource {
            lines: lines.into_iter(),
        }
    }
}

impl LogSource for MemorySource {
    fn next_item(&mut self) -> io::Result<SourceItem> {
        Ok(match self.lines.next() {
            Some(line) => SourceItem::Line(line),
            None => SourceItem::Eof,
        })
    }

    fn describe(&self) -> String {
        "memory".into()
    }
}

/// Wraps any reader (stdin, a finished file, a FIFO): lines until EOF.
pub struct ReaderSource<R> {
    reader: R,
    label: String,
    framer: LineFramer,
    damage: LineDamage,
}

impl<R: Read + Send> ReaderSource<R> {
    /// Streams lines from `reader`; `label` names it in the event log.
    pub fn new(reader: R, label: impl Into<String>) -> Self {
        ReaderSource {
            reader,
            label: label.into(),
            framer: LineFramer::default(),
            damage: LineDamage::default(),
        }
    }
}

/// The process's stdin as a source.
pub fn stdin_source() -> ReaderSource<io::Stdin> {
    ReaderSource::new(io::stdin(), "stdin")
}

/// A whole file as a finite source (no tailing).
pub fn file_source(path: impl Into<PathBuf>) -> io::Result<ReaderSource<File>> {
    let path = path.into();
    Ok(ReaderSource::new(
        File::open(&path)?,
        format!("file:{}", path.display()),
    ))
}

impl<R: Read + Send> LogSource for ReaderSource<R> {
    fn next_item(&mut self) -> io::Result<SourceItem> {
        loop {
            if let Some(line) = self.framer.pop(&mut self.damage) {
                return Ok(SourceItem::Line(line));
            }
            if self.framer.fill_from(&mut self.reader)? == 0 {
                let tail = self.framer.finish(&mut self.damage);
                return Ok(tail.map_or(SourceItem::Eof, SourceItem::Line));
            }
        }
    }

    fn describe(&self) -> String {
        self.label.clone()
    }

    fn take_damage(&mut self) -> LineDamage {
        std::mem::take(&mut self.damage)
    }
}

/// Follows a growing log file, detecting rotation and truncation.
///
/// Rotation is recognized two ways, matching what `tail -F` does:
/// the path now resolves to a different inode (classic rename + recreate
/// rotation), or the file shrank below the read offset (copy-truncate
/// rotation). Either way the source reopens the path and continues from
/// the start of the new file. While no data is available it reports
/// [`SourceItem::Idle`].
pub struct FileTailSource {
    path: PathBuf,
    file: Option<File>,
    offset: u64,
    identity: Option<FileIdentity>,
    framer: LineFramer,
    damage: LineDamage,
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
struct FileIdentity {
    #[cfg(unix)]
    inode: u64,
    len_hint: u64,
}

fn identity_of(file: &File) -> io::Result<FileIdentity> {
    let meta = file.metadata()?;
    Ok(FileIdentity {
        #[cfg(unix)]
        inode: {
            use std::os::unix::fs::MetadataExt;
            meta.ino()
        },
        len_hint: meta.len(),
    })
}

impl FileTailSource {
    /// Tails `path`. The file may not exist yet; the source idles until
    /// it appears. Reading starts at the beginning of the file.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        FileTailSource {
            path: path.into(),
            file: None,
            offset: 0,
            identity: None,
            framer: LineFramer::default(),
            damage: LineDamage::default(),
        }
    }

    fn open(&mut self) -> io::Result<bool> {
        match File::open(&self.path) {
            Ok(file) => {
                self.identity = Some(identity_of(&file)?);
                self.file = Some(file);
                self.offset = 0;
                Ok(true)
            }
            Err(e) if e.kind() == ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// True if the path has been rotated or truncated under us.
    fn rotated(&self) -> io::Result<bool> {
        let current = match File::open(&self.path) {
            Ok(f) => identity_of(&f)?,
            // Mid-rotation gap: treat as rotated, reopen when it returns.
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(true),
            Err(e) => return Err(e),
        };
        let Some(opened) = self.identity else {
            // No recorded identity means we never fully opened the
            // file; treat it as rotated so the caller reopens.
            return Ok(true);
        };
        #[cfg(unix)]
        if current.inode != opened.inode {
            return Ok(true);
        }
        // Copy-truncate: the file we are reading shrank below our offset.
        Ok(current.len_hint < self.offset)
    }
}

impl LogSource for FileTailSource {
    fn next_item(&mut self) -> io::Result<SourceItem> {
        if self.file.is_none() && !self.open()? {
            return Ok(SourceItem::Idle);
        }
        let Some(file) = self.file.as_mut() else {
            return Ok(SourceItem::Idle);
        };
        loop {
            if let Some(line) = self.framer.pop(&mut self.damage) {
                return Ok(SourceItem::Line(line));
            }
            let read = self.framer.fill_from(file)?;
            self.offset += read as u64;
            if read == 0 {
                break;
            }
        }
        // At EOF of the current file, perhaps inside a line the writer
        // is still appending: has it been rotated away?
        if self.rotated()? {
            self.file = None; // reopen (or idle) on the next pull
            if let Some(line) = self.framer.finish(&mut self.damage) {
                return Ok(SourceItem::Line(line));
            }
        }
        Ok(SourceItem::Idle)
    }

    fn describe(&self) -> String {
        format!("tail:{}", self.path.display())
    }

    fn take_damage(&mut self) -> LineDamage {
        std::mem::take(&mut self.damage)
    }
}

/// A line-protocol TCP source: clients connect and write newline-framed
/// log lines; the source interleaves lines from all live connections,
/// each connection's in the order it sent them.
///
/// The listener and all connections run non-blocking; when nothing is
/// readable the source reports [`SourceItem::Idle`]. Closed connections
/// are dropped silently (their final unterminated line, if any, is
/// delivered). The source itself never reports `Eof` — a TCP ingest runs
/// until the pipeline is asked to stop.
///
/// Nothing is read while a connection still holds a complete line: what
/// the pipeline has not taken stays in the kernel's socket buffer, and
/// that filling up is what slows the peer down.
pub struct TcpSource {
    listener: TcpListener,
    addr: SocketAddr,
    conns: Vec<Conn>,
    next_conn: usize,
    damage: LineDamage,
}

struct Conn {
    stream: TcpStream,
    framer: LineFramer,
}

impl TcpSource {
    /// Binds `addr` (e.g. `127.0.0.1:7070`).
    pub fn bind(addr: &str) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        Ok(TcpSource {
            listener,
            addr,
            conns: Vec::new(),
            next_conn: 0,
            damage: LineDamage::default(),
        })
    }

    /// The bound address (useful when binding port 0 in tests).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    fn accept_new(&mut self) -> io::Result<()> {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    stream.set_nonblocking(true)?;
                    self.conns.push(Conn {
                        stream,
                        framer: LineFramer::default(),
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// A complete line some connection already holds. Round-robin, a
    /// chunk's worth at a time: the cursor moves on when its connection
    /// runs dry, so one chatty client cannot starve the rest.
    fn pop_held(&mut self) -> Option<String> {
        for _ in 0..self.conns.len() {
            self.next_conn %= self.conns.len();
            if let Some(line) = self.conns[self.next_conn].framer.pop(&mut self.damage) {
                return Some(line);
            }
            self.next_conn += 1;
        }
        None
    }
}

impl LogSource for TcpSource {
    fn next_item(&mut self) -> io::Result<SourceItem> {
        if let Some(line) = self.pop_held() {
            return Ok(SourceItem::Line(line));
        }
        self.accept_new()?;
        let mut i = 0;
        while i < self.conns.len() {
            let conn = &mut self.conns[i];
            match conn.framer.fill_from(&mut conn.stream) {
                Ok(0) => {
                    let tail = conn.framer.finish(&mut self.damage);
                    self.conns.swap_remove(i);
                    if let Some(line) = tail {
                        return Ok(SourceItem::Line(line));
                    }
                }
                Ok(_) => i += 1,
                Err(e) if e.kind() == ErrorKind::WouldBlock => i += 1,
                Err(_) => drop(self.conns.swap_remove(i)), // reset by peer etc.
            }
        }
        Ok(self.pop_held().map_or(SourceItem::Idle, SourceItem::Line))
    }

    fn describe(&self) -> String {
        format!("tcp:{}", self.addr)
    }

    fn take_damage(&mut self) -> LineDamage {
        std::mem::take(&mut self.damage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logparse_core::MAX_LINE_BYTES;
    use std::io::Write;

    #[test]
    fn memory_source_streams_then_eof() {
        let mut s = MemorySource::new(vec!["a".into(), "b".into()]);
        assert_eq!(s.next_item().unwrap(), SourceItem::Line("a".into()));
        assert_eq!(s.next_item().unwrap(), SourceItem::Line("b".into()));
        assert_eq!(s.next_item().unwrap(), SourceItem::Eof);
    }

    #[test]
    fn reader_source_strips_line_endings() {
        let data = io::Cursor::new(b"one\r\ntwo\nthree".to_vec());
        let mut s = ReaderSource::new(data, "cursor");
        assert_eq!(s.next_item().unwrap(), SourceItem::Line("one".into()));
        assert_eq!(s.next_item().unwrap(), SourceItem::Line("two".into()));
        assert_eq!(s.next_item().unwrap(), SourceItem::Line("three".into()));
        assert_eq!(s.next_item().unwrap(), SourceItem::Eof);
    }

    #[test]
    fn reader_source_replaces_and_counts_invalid_utf8() {
        let data = io::Cursor::new(b"ok 1\n\xff\xfe bad\nfine 2\n".to_vec());
        let mut s = ReaderSource::new(data, "cursor");
        for expected in ["ok 1", "\u{fffd}\u{fffd} bad", "fine 2"] {
            assert_eq!(s.next_item().unwrap(), SourceItem::Line(expected.into()));
        }
        let damage = s.take_damage();
        assert_eq!((damage.invalid_utf8, damage.too_long), (1, 0));
        assert_eq!(s.next_item().unwrap(), SourceItem::Eof);
        assert_eq!(s.take_damage(), LineDamage::default());
    }

    #[test]
    fn file_source_matches_reader_semantics() {
        let dir = std::env::temp_dir().join(format!("ingest-file-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("src.log");
        std::fs::write(&path, b"one\r\ntwo\n\nthree").unwrap();
        let mut s = file_source(&path).unwrap();
        assert_eq!(s.describe(), format!("file:{}", path.display()));
        for expected in ["one", "two", "", "three"] {
            assert_eq!(s.next_item().unwrap(), SourceItem::Line(expected.into()));
        }
        assert_eq!(s.next_item().unwrap(), SourceItem::Eof);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_tail_follows_appends_and_rotation() {
        let dir = std::env::temp_dir().join(format!("ingest-tail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("app.log");
        let _ = std::fs::remove_file(&path);

        let mut tail = FileTailSource::new(&path);
        assert_eq!(tail.next_item().unwrap(), SourceItem::Idle); // not created yet

        std::fs::write(&path, "first\nsecond\n").unwrap();
        assert_eq!(tail.next_item().unwrap(), SourceItem::Line("first".into()));
        assert_eq!(tail.next_item().unwrap(), SourceItem::Line("second".into()));
        assert_eq!(tail.next_item().unwrap(), SourceItem::Idle);

        // Append while tailing.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        writeln!(f, "third").unwrap();
        assert_eq!(tail.next_item().unwrap(), SourceItem::Line("third".into()));

        // A flush that lands inside a character: the half-written line
        // waits, undecoded, for its other half.
        f.write_all(b"caf\xc3").unwrap();
        assert_eq!(tail.next_item().unwrap(), SourceItem::Idle);
        f.write_all(b"\xa9 ok\n").unwrap();
        drop(f);
        assert_eq!(
            tail.next_item().unwrap(),
            SourceItem::Line("caf\u{e9} ok".into())
        );
        assert_eq!(tail.take_damage(), LineDamage::default());

        // Rename rotation: old file moved away, new file at the path.
        std::fs::rename(&path, dir.join("app.log.1")).unwrap();
        std::fs::write(&path, "fresh\n").unwrap();
        let mut saw_fresh = false;
        for _ in 0..5 {
            if tail.next_item().unwrap() == SourceItem::Line("fresh".into()) {
                saw_fresh = true;
                break;
            }
        }
        assert!(saw_fresh, "tail did not pick up the rotated file");

        // Copy-truncate rotation: same inode, shrunk below offset.
        std::fs::write(&path, "tiny\n").unwrap();
        let mut saw_tiny = false;
        for _ in 0..5 {
            if tail.next_item().unwrap() == SourceItem::Line("tiny".into()) {
                saw_tiny = true;
                break;
            }
        }
        assert!(saw_tiny, "tail did not detect truncation");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Pulls until `want` lines arrived, sleeping through `Idle` (for
    /// ten seconds at most).
    fn pull_lines(src: &mut TcpSource, want: usize) -> Vec<String> {
        let mut lines = Vec::new();
        let mut idle = 0;
        while lines.len() < want && idle < 5_000 {
            match src.next_item().unwrap() {
                SourceItem::Line(l) => lines.push(l),
                SourceItem::Idle => {
                    idle += 1;
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                SourceItem::Eof => unreachable!("tcp sources never EOF"),
            }
        }
        lines
    }

    #[test]
    fn tcp_source_interleaves_clients() {
        let mut src = TcpSource::bind("127.0.0.1:0").unwrap();
        let addr = src.local_addr();
        let mut a = TcpStream::connect(addr).unwrap();
        let mut b = TcpStream::connect(addr).unwrap();
        a.write_all(b"alpha one\nalpha two\n").unwrap();
        b.write_all(b"beta one\n").unwrap();
        a.flush().unwrap();
        b.flush().unwrap();
        drop(a);
        drop(b);

        let mut lines = pull_lines(&mut src, 3);
        lines.sort();
        assert_eq!(lines, vec!["alpha one", "alpha two", "beta one"]);

        // Interleaved, never reordered: each client's lines arrive in
        // the order it sent them.
        let senders: Vec<_> = ["left", "right"]
            .into_iter()
            .map(|name| {
                std::thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    for i in 0..2_000 {
                        writeln!(stream, "{name} {i}").unwrap();
                    }
                })
            })
            .collect();
        let lines = pull_lines(&mut src, 4_000);
        for sender in senders {
            sender.join().unwrap();
        }
        for name in ["left", "right"] {
            let seen: Vec<&str> = lines
                .iter()
                .filter_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
                .collect();
            let sent: Vec<String> = (0..2_000).map(|i| i.to_string()).collect();
            assert_eq!(seen, sent, "{name}");
        }
    }

    #[test]
    fn tcp_source_caps_a_line_that_never_ends() {
        let mut src = TcpSource::bind("127.0.0.1:0").unwrap();
        let addr = src.local_addr();
        let sender = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(&vec![b'A'; 3 * MAX_LINE_BYTES]).unwrap();
            stream.write_all(b"\nnext\n").unwrap();
        });
        let lines = pull_lines(&mut src, 2);
        sender.join().unwrap();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].len() == MAX_LINE_BYTES && lines[0].bytes().all(|b| b == b'A'));
        assert_eq!(lines[1], "next");
        for _ in 0..20 {
            assert_eq!(src.next_item().unwrap(), SourceItem::Idle);
        }
        let damage = src.take_damage();
        assert_eq!((damage.invalid_utf8, damage.too_long), (0, 1));
    }
}
