//! Pluggable log-line sources.
//!
//! A [`LogSource`] hands over raw lines a block at a time, plus two
//! control outcomes: `Idle` (nothing available right now — the pipeline
//! flushes timers, checks the stop flag and comes back) and `Eof` (the
//! stream is finished — drain and shut down). Long blocking waits live
//! *outside* the trait contract so graceful shutdown stays responsive.
//!
//! What a line is — DESIGN.md's *Line contract* table — is decided in
//! one place, [`LineFramer`]: every source fed bytes reads one chunk
//! into its framer when that holds no complete line, and otherwise pops
//! every complete line it holds, borrowed from the framer's buffer.

use std::fs::File;
use std::io::{self, Cursor, ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;

use logparse_core::{FramedLine, LineDamage, LineFramer};

/// What one pull from a source did.
#[derive(Debug, PartialEq, Eq)]
pub enum SourceItem {
    /// This many complete lines (at least one) went to the consumer.
    Lines(usize),
    /// Nothing available right now; poll again shortly.
    Idle,
    /// The stream is complete.
    Eof,
}

/// A stream of log lines.
pub trait LogSource: Send {
    /// Hands the lines available now to `each`, in order, and says what
    /// happened. `Idle` must return promptly (no unbounded blocking) so
    /// the pipeline can honor shutdown requests.
    fn pull(&mut self, each: &mut dyn FnMut(FramedLine<'_>)) -> io::Result<SourceItem>;

    /// A short human-readable description for the event log.
    fn describe(&self) -> String;

    /// Lines delivered repaired since the last call; the router
    /// publishes them as `ingest_source_damaged_lines_total{reason}`.
    fn take_damage(&mut self) -> LineDamage {
        LineDamage::default()
    }
}

/// An in-memory source — tests and benchmarks. The lines are joined
/// with `\n` and cut by a [`LineFramer`] like any other source's bytes,
/// so a line holding `\n` arrives as two and one ending in `\r` loses it.
pub struct MemorySource(ReaderSource<Cursor<Vec<u8>>>);

impl MemorySource {
    /// Streams the given lines, then `Eof`.
    pub fn new(lines: Vec<String>) -> Self {
        let mut bytes = Vec::with_capacity(lines.iter().map(|line| line.len() + 1).sum());
        for line in lines {
            bytes.extend_from_slice(line.as_bytes());
            bytes.push(b'\n');
        }
        MemorySource(ReaderSource::new(Cursor::new(bytes), "memory"))
    }
}

impl LogSource for MemorySource {
    fn pull(&mut self, each: &mut dyn FnMut(FramedLine<'_>)) -> io::Result<SourceItem> {
        self.0.pull(each)
    }

    fn describe(&self) -> String {
        self.0.describe()
    }

    fn take_damage(&mut self) -> LineDamage {
        self.0.take_damage()
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
    fn pull(&mut self, each: &mut dyn FnMut(FramedLine<'_>)) -> io::Result<SourceItem> {
        loop {
            let popped = self.framer.pop_lines(&mut self.damage, &mut *each);
            if popped > 0 {
                return Ok(SourceItem::Lines(popped));
            }
            if self.framer.fill_from(&mut self.reader)? == 0 {
                return Ok(match self.framer.finish(&mut self.damage, each) {
                    0 => SourceItem::Eof,
                    tail => SourceItem::Lines(tail),
                });
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
    fn pull(&mut self, each: &mut dyn FnMut(FramedLine<'_>)) -> io::Result<SourceItem> {
        if self.file.is_none() && !self.open()? {
            return Ok(SourceItem::Idle);
        }
        let Some(file) = self.file.as_mut() else {
            return Ok(SourceItem::Idle);
        };
        loop {
            let popped = self.framer.pop_lines(&mut self.damage, &mut *each);
            if popped > 0 {
                return Ok(SourceItem::Lines(popped));
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
            let tail = self.framer.finish(&mut self.damage, each);
            if tail > 0 {
                return Ok(SourceItem::Lines(tail));
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
/// that filling up is what slows the peer down. A pull hands over every
/// complete line one connection holds.
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

    /// Accepts every pending connection. Out of file descriptors, it
    /// stops for this pull: the open connections keep streaming, and the
    /// kernel holds the backlog until a pull after one of them closes.
    fn accept_new(&mut self) -> io::Result<()> {
        // EMFILE (per process) and ENFILE (system-wide): the same numbers
        // on Linux, macOS and the BSDs.
        const OUT_OF_DESCRIPTORS: [i32; 2] = [24, 23];
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
                Err(e) if OUT_OF_DESCRIPTORS.contains(&e.raw_os_error().unwrap_or(0)) => {
                    return Ok(())
                }
                // A peer that gave up before its turn costs nothing.
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::Interrupted | ErrorKind::ConnectionAborted
                    ) =>
                {
                    continue
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Hands over the complete lines some connection already holds, and
    /// returns how many. Round-robin, a chunk's worth at a time: the
    /// cursor moves on when its connection runs dry, so one chatty client
    /// cannot starve the rest.
    fn pop_held(&mut self, each: &mut dyn FnMut(FramedLine<'_>)) -> usize {
        for _ in 0..self.conns.len() {
            self.next_conn %= self.conns.len();
            let framer = &mut self.conns[self.next_conn].framer;
            let popped = framer.pop_lines(&mut self.damage, &mut *each);
            if popped > 0 {
                return popped;
            }
            self.next_conn += 1;
        }
        0
    }
}

impl LogSource for TcpSource {
    fn pull(&mut self, each: &mut dyn FnMut(FramedLine<'_>)) -> io::Result<SourceItem> {
        let held = self.pop_held(each);
        if held > 0 {
            return Ok(SourceItem::Lines(held));
        }
        self.accept_new()?;
        let mut i = 0;
        while i < self.conns.len() {
            let conn = &mut self.conns[i];
            match conn.framer.fill_from(&mut conn.stream) {
                Ok(0) => {
                    let tail = conn.framer.finish(&mut self.damage, &mut *each);
                    self.conns.swap_remove(i);
                    if tail > 0 {
                        return Ok(SourceItem::Lines(tail));
                    }
                }
                Ok(_) => i += 1,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                    i += 1
                }
                Err(_) => drop(self.conns.swap_remove(i)), // reset by peer etc.
            }
        }
        Ok(match self.pop_held(each) {
            0 => SourceItem::Idle,
            held => SourceItem::Lines(held),
        })
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

    /// One pull, with the text of the lines it handed over.
    fn pull(src: &mut dyn LogSource) -> (SourceItem, Vec<String>) {
        let mut lines = Vec::new();
        let item = src
            .pull(&mut |line| lines.push(line.text.to_owned()))
            .unwrap();
        if let SourceItem::Lines(n) = item {
            assert_eq!(n, lines.len());
        }
        (item, lines)
    }

    /// Every line until `Eof`.
    fn drain(src: &mut dyn LogSource) -> Vec<String> {
        let mut all = Vec::new();
        loop {
            match pull(src) {
                (SourceItem::Eof, _) => return all,
                (_, lines) => all.extend(lines),
            }
        }
    }

    #[test]
    fn memory_source_streams_then_eof() {
        let mut s = MemorySource::new(vec!["a".into(), "".into(), "b c".into()]);
        assert_eq!(
            pull(&mut s),
            (
                SourceItem::Lines(3),
                vec!["a".into(), "".into(), "b c".into()]
            )
        );
        assert_eq!(pull(&mut s), (SourceItem::Eof, vec![]));
        assert_eq!(s.describe(), "memory");
    }

    #[test]
    fn reader_source_strips_line_endings() {
        let data = io::Cursor::new(b"one\r\ntwo\nthree".to_vec());
        let mut s = ReaderSource::new(data, "cursor");
        assert_eq!(
            pull(&mut s),
            (SourceItem::Lines(2), vec!["one".into(), "two".into()])
        );
        assert_eq!(pull(&mut s), (SourceItem::Lines(1), vec!["three".into()]));
        assert_eq!(pull(&mut s), (SourceItem::Eof, vec![]));
    }

    #[test]
    fn reader_source_replaces_and_counts_invalid_utf8() {
        let data = io::Cursor::new(b"ok 1\n\xff\xfe bad\nfine 2\n".to_vec());
        let mut s = ReaderSource::new(data, "cursor");
        assert_eq!(drain(&mut s), ["ok 1", "\u{fffd}\u{fffd} bad", "fine 2"]);
        let damage = s.take_damage();
        assert_eq!((damage.invalid_utf8, damage.too_long), (1, 0));
        assert_eq!(pull(&mut s), (SourceItem::Eof, vec![]));
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
        assert_eq!(drain(&mut s), ["one", "two", "", "three"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_tail_follows_appends_and_rotation() {
        let dir = std::env::temp_dir().join(format!("ingest-tail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("app.log");
        let _ = std::fs::remove_file(&path);
        let idle = (SourceItem::Idle, vec![]);

        let mut tail = FileTailSource::new(&path);
        assert_eq!(pull(&mut tail), idle); // not created yet

        std::fs::write(&path, "first\nsecond\n").unwrap();
        let both = vec!["first".to_string(), "second".into()];
        assert_eq!(pull(&mut tail), (SourceItem::Lines(2), both));
        assert_eq!(pull(&mut tail), idle);

        // Append while tailing.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        writeln!(f, "third").unwrap();
        assert_eq!(
            pull(&mut tail),
            (SourceItem::Lines(1), vec!["third".into()])
        );

        // A flush that lands inside a character: the half-written line
        // waits, undecoded, for its other half.
        f.write_all(b"caf\xc3").unwrap();
        assert_eq!(pull(&mut tail), idle);
        f.write_all(b"\xa9 ok\n").unwrap();
        drop(f);
        assert_eq!(
            pull(&mut tail),
            (SourceItem::Lines(1), vec!["caf\u{e9} ok".into()])
        );
        assert_eq!(tail.take_damage(), LineDamage::default());

        // Rename rotation: old file moved away, new file at the path.
        std::fs::rename(&path, dir.join("app.log.1")).unwrap();
        std::fs::write(&path, "fresh\n").unwrap();
        let saw_fresh = (0..5).any(|_| pull(&mut tail).1 == ["fresh"]);
        assert!(saw_fresh, "tail did not pick up the rotated file");

        // Copy-truncate rotation: same inode, shrunk below offset.
        std::fs::write(&path, "tiny\n").unwrap();
        let saw_tiny = (0..5).any(|_| pull(&mut tail).1 == ["tiny"]);
        assert!(saw_tiny, "tail did not detect truncation");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Pulls until `want` lines arrived, sleeping through `Idle` (for
    /// ten seconds at most).
    fn pull_lines(src: &mut TcpSource, want: usize) -> Vec<String> {
        let mut lines = Vec::new();
        let mut idle = 0;
        while lines.len() < want && idle < 5_000 {
            match pull(src) {
                (SourceItem::Lines(_), pulled) => lines.extend(pulled),
                (SourceItem::Idle, _) => {
                    idle += 1;
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                (SourceItem::Eof, _) => unreachable!("tcp sources never EOF"),
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
            assert_eq!(pull(&mut src), (SourceItem::Idle, vec![]));
        }
        let damage = src.take_damage();
        assert_eq!((damage.invalid_utf8, damage.too_long), (0, 1));
    }
}
