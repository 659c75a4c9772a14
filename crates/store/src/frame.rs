//! Record framing: `[u32 len LE][u32 crc32 LE][payload]`.
//!
//! Every snapshot and delta-log record is wrapped in this frame. The
//! CRC covers the payload only; the length field is implicitly
//! validated by the CRC check (a corrupted length either walks the
//! reader onto bytes whose CRC cannot match, or past the end of the
//! file, both of which stop the scan). Readers distinguish:
//!
//! * a clean end of input — every byte consumed by valid records;
//! * a *torn tail* — trailing bytes that do not form a complete valid
//!   record, the expected state after a crash mid-append. The valid
//!   prefix is kept, the tail discarded;
//!
//! Framing cannot tell a torn tail from mid-file corruption by
//! itself — it always stops at the first bad record. The layer above
//! (the `shard` module) decides whether what follows the valid prefix
//! is tolerable (final log, tail truncation) or quarantinable
//! (snapshot or non-final log).

use crate::crc::crc32;

/// Maximum accepted payload length (64 MiB). A corrupted length field
/// would otherwise make the reader attempt a giant allocation.
pub const MAX_RECORD_LEN: u32 = 1 << 26;

/// Bytes of framing overhead per record (length + CRC).
pub const HEADER_LEN: usize = 8;

/// Appends one framed record to `out`.
pub fn append_record(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// A framed record stream over an in-memory buffer.
///
/// Store files are template-sized (megabytes at the extreme), so
/// recovery reads them whole and scans in memory; this keeps the
/// framing layer free of I/O errors and trivially fuzzable.
pub struct FrameReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// One step of the frame scan.
#[derive(Debug, PartialEq, Eq)]
pub enum Frame<'a> {
    /// A complete record with a valid checksum.
    Record(&'a [u8]),
    /// The bytes from the current position onward do not form a valid
    /// record (bad CRC, oversized length, or truncated mid-record).
    /// Scanning stops here; `valid_prefix` reports how much was good.
    Corrupt,
    /// Clean end of input.
    Eof,
}

impl<'a> FrameReader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        FrameReader { bytes, pos: 0 }
    }

    /// Byte offset of the end of the last successfully read record —
    /// the length recovery should truncate a torn file to.
    pub fn valid_prefix(&self) -> usize {
        self.pos
    }

    /// Reads the next record. After [`Frame::Corrupt`] or
    /// [`Frame::Eof`] the reader stays put and repeats that answer.
    #[allow(clippy::should_implement_trait)] // not an Iterator: Corrupt/Eof are terminal, repeated answers, not None
    pub fn next(&mut self) -> Frame<'a> {
        let remaining = &self.bytes[self.pos..];
        if remaining.is_empty() {
            return Frame::Eof;
        }
        if remaining.len() < HEADER_LEN {
            return Frame::Corrupt;
        }
        let mut len_bytes = [0u8; 4];
        len_bytes.copy_from_slice(&remaining[0..4]);
        let len = u32::from_le_bytes(len_bytes);
        let mut crc_bytes = [0u8; 4];
        crc_bytes.copy_from_slice(&remaining[4..8]);
        let expected = u32::from_le_bytes(crc_bytes);
        if len > MAX_RECORD_LEN {
            return Frame::Corrupt;
        }
        let end = HEADER_LEN + len as usize;
        if remaining.len() < end {
            return Frame::Corrupt;
        }
        let payload = &remaining[HEADER_LEN..end];
        if crc32(payload) != expected {
            return Frame::Corrupt;
        }
        self.pos += end;
        Frame::Record(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_multiple_records() {
        let mut buf = Vec::new();
        append_record(&mut buf, b"alpha");
        append_record(&mut buf, b"");
        append_record(&mut buf, b"gamma rays");
        let mut reader = FrameReader::new(&buf);
        assert_eq!(reader.next(), Frame::Record(b"alpha".as_slice()));
        assert_eq!(reader.next(), Frame::Record(b"".as_slice()));
        assert_eq!(reader.next(), Frame::Record(b"gamma rays".as_slice()));
        assert_eq!(reader.next(), Frame::Eof);
        assert_eq!(reader.valid_prefix(), buf.len());
    }

    #[test]
    fn torn_tail_keeps_the_valid_prefix() {
        let mut buf = Vec::new();
        append_record(&mut buf, b"kept");
        let prefix = buf.len();
        append_record(&mut buf, b"lost in the crash");
        buf.truncate(buf.len() - 3);
        let mut reader = FrameReader::new(&buf);
        assert_eq!(reader.next(), Frame::Record(b"kept".as_slice()));
        assert_eq!(reader.next(), Frame::Corrupt);
        assert_eq!(reader.valid_prefix(), prefix);
        // The answer is stable across repeated calls.
        assert_eq!(reader.next(), Frame::Corrupt);
        assert_eq!(reader.valid_prefix(), prefix);
    }

    #[test]
    fn bit_flip_in_payload_is_detected() {
        let mut buf = Vec::new();
        append_record(&mut buf, b"first");
        append_record(&mut buf, b"second");
        let flip_at = HEADER_LEN + 2; // inside the first payload
        buf[flip_at] ^= 0x40;
        let mut reader = FrameReader::new(&buf);
        assert_eq!(reader.next(), Frame::Corrupt);
        assert_eq!(reader.valid_prefix(), 0);
    }

    #[test]
    fn oversized_length_is_rejected_not_allocated() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let mut reader = FrameReader::new(&buf);
        assert_eq!(reader.next(), Frame::Corrupt);
    }
}
