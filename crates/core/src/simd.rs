//! SWAR (SIMD-within-a-register) byte scanning for the zero-copy
//! corpus loader.
//!
//! The loader's hot loop must find, in one pass over the input buffer,
//! every newline, every token boundary, whether each line is blank,
//! and whether it contains any non-ASCII byte (which routes the line to
//! the checked slow path). [`scan`] does all four one 64-byte block at
//! a time: the block's eight `u64` words are classified with
//! branch-free lane arithmetic, each class compressed to an 8-bit
//! movemask, and the eight movemasks of a class packed into one `u64`
//! (whitespace, newline, high byte: bit `i` describes byte `i`). Token
//! boundaries then fall out of mask arithmetic with one carry bit
//! between blocks, and only the set bits of token ends and newlines are
//! walked, lowest first (`trailing_zeros`, clear-lowest-bit) to emit
//! token and line events to a [`ScanSink`]. A token is a maximal run of
//! non-whitespace bytes — the one token rule ([`crate::Corpus`])
//! restricted to ASCII, where the two coincide; lines with high bytes
//! are re-tokenized by the caller at char level. The loader's
//! `BuildSink`, the line framer's sink and `Shape`, and
//! [`line_spans`](crate::line_spans) split through this one kernel, so
//! the ASCII whitespace rule is written here and nowhere else: the
//! framer's token spans travel with each line to `serve`'s workers, and
//! a streaming parser handed one line scans it here.
//!
//! **Skip-blank contract** (the canonical statement; the corpus loader
//! and [`kept_line_starts`] drop exactly the lines flagged here): a
//! line is blank iff every byte of it is ASCII whitespace (space, `\t`,
//! `\n`, `\v`, `\f`, `\r`). Lines whose only content is non-ASCII
//! whitespace (e.g. U+00A0) are *kept*, with the empty token row the
//! char-level rule gives them. The probe is a byte test, not a `char`
//! walk — a line with any non-whitespace byte is kept without decoding
//! it. This is the batch rule; `serve` keeps blank lines, and DESIGN.md's
//! *Line contract* table sets the two side by side.
//!
//! Two exactness notes, because the classic tricks are *approximate*:
//!
//! * the textbook `haszero` test (`(v - LO) & !v & HI`) has cross-lane
//!   borrow false positives, so [`zero_lanes`] uses the exact
//!   per-lane form `!(((v & !HI) + !HI) | v) & HI`;
//! * a plain multiply by `LO` computes a byte *sum*, not a movemask;
//!   [`movemask`] first shifts the `0x80` lane bits down to lane bit 0
//!   and then multiplies by `0x0102_0408_1020_4080`, whose partial
//!   products land on pairwise-distinct bits (no carries), so the top
//!   byte is the exact 8-bit mask.
//!
//! The tests keep an independent byte-at-a-time `scan_scalar` as the
//! oracle the property tests and the block-edge test hold [`scan`] to.
//!
//! What the ledger times: the benchmark's `core.simd.scan_lines_per_s`
//! row times [`count_corpus_lines`](crate::count_corpus_lines), which is
//! the newline-to-newline walk of [`kept_line_starts`], not [`scan`].
//! The token scan's cost shows inside `core.loader.build_lines_per_s`.

use crate::error::ParseError;

/// High (sign) bit of every lane.
const HI: u64 = 0x8080_8080_8080_8080;
/// Low seven bits of every lane (`!HI`).
const LO7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
/// Movemask multiplier: bit `8i` of the operand lands on bit `56 + i`.
const MOVEMASK_MUL: u64 = 0x0102_0408_1020_4080;

/// `b` in every lane.
#[inline]
fn splat(b: u8) -> u64 {
    u64::from(b) * 0x0101_0101_0101_0101
}

/// `0x80` in every lane whose byte is zero (exact, no cross-lane
/// borrow artifacts).
#[inline]
fn zero_lanes(v: u64) -> u64 {
    !(((v & LO7) + LO7) | v) & HI
}

/// `0x80` in every lane equal to the splatted byte `s`.
#[inline]
fn eq_lanes(v: u64, s: u64) -> u64 {
    zero_lanes(v ^ s)
}

/// `0x80` in every lane whose byte is `>= n` (unsigned), for
/// `1 <= n <= 0x80`. Lanes `>= 0x80` always qualify via the `| v` term;
/// the per-lane add cannot carry because both addends are `< 0x80`.
#[inline]
fn ge_lanes(v: u64, n: u8) -> u64 {
    (((v & LO7) + splat(0x80 - n)) | v) & HI
}

/// Compresses a `0x80`-per-lane mask to an 8-bit mask (bit `i` = lane
/// `i`, little-endian byte order).
#[inline]
fn movemask(m: u64) -> u32 {
    (((m >> 7).wrapping_mul(MOVEMASK_MUL)) >> 56) as u32
}

/// `0x80` in every ASCII-whitespace lane: `0x09..=0x0D` (tab, LF,
/// vertical tab, form feed, CR) plus `0x20` (space). This is exactly
/// the byte set of the skip-blank contract in the module docs.
#[inline]
fn ws_lanes(v: u64) -> u64 {
    (ge_lanes(v, 0x09) & !ge_lanes(v, 0x0e)) | eq_lanes(v, splat(b' '))
}

/// The eight bytes at `buf[at..at + 8]` as one little-endian word (the
/// caller checks `at + 8 <= buf.len()`).
#[inline]
fn word_at(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().unwrap_or_default())
}

/// Index of the first `\n` at or after `from`, SWAR-accelerated: two
/// unaligned words per round from `from` itself (a log line is a few
/// dozen to a few hundred bytes, so a per-call byte loop up to alignment
/// would cost as much as the search), then one word, then the last
/// bytes of the buffer.
pub(crate) fn find_newline(buf: &[u8], from: usize) -> Option<usize> {
    let nl = splat(b'\n');
    let mut base = from.min(buf.len());
    while base + 16 <= buf.len() {
        let low = eq_lanes(word_at(buf, base), nl);
        let high = eq_lanes(word_at(buf, base + 8), nl);
        if low | high != 0 {
            let (at, hits) = if low != 0 {
                (base, low)
            } else {
                (base + 8, high)
            };
            return Some(at + (hits.trailing_zeros() / 8) as usize);
        }
        base += 16;
    }
    if base + 8 <= buf.len() {
        let hits = eq_lanes(word_at(buf, base), nl);
        if hits != 0 {
            return Some(base + (hits.trailing_zeros() / 8) as usize);
        }
        base += 8;
    }
    buf[base..]
        .iter()
        .position(|&b| b == b'\n')
        .map(|i| base + i)
}

/// Receives the event stream of a [`scan`] pass.
///
/// Events arrive in buffer order: zero or more `token` calls for a
/// line's whitespace-delimited runs, then one `line` call closing
/// it. Token runs are never empty and never cross lines. Offsets are
/// relative to the scanned slice.
pub(crate) trait ScanSink {
    /// A maximal run of non-whitespace bytes, `buf[start..end)`.
    fn token(&mut self, start: usize, end: usize);

    /// End of a line whose content is `buf[start..content_end)` (the
    /// terminating `\n` and a `\r` immediately before it are excluded;
    /// a final line at EOF keeps any trailing `\r`, matching
    /// `BufRead::lines`). `blank` ⇔ the line had no token, that is,
    /// every content byte is ASCII whitespace; `has_high` ⇔ some
    /// content byte is `>= 0x80`.
    fn line(
        &mut self,
        start: usize,
        content_end: usize,
        blank: bool,
        has_high: bool,
    ) -> Result<(), ParseError>;
}

/// The class masks of one block of up to [`BLOCK`] bytes: bit `i` of
/// each describes byte `i`.
#[derive(Default)]
struct Block {
    /// ASCII whitespace (the skip-blank set); bytes past the end of a
    /// short tail count as whitespace, so they open no token and close
    /// the one running into them.
    ws: u64,
    /// `\n`.
    nl: u64,
    /// Bytes `>= 0x80`.
    high: u64,
}

/// Bytes classified per step of [`scan`]: one bit each in a `u64`.
const BLOCK: usize = 64;

impl Block {
    /// Classifies one whole block, eight bytes at a time.
    #[inline]
    fn full(bytes: &[u8; BLOCK]) -> Block {
        let mut block = Block::default();
        for i in 0..BLOCK / 8 {
            block.add_word(word_at(bytes, 8 * i), 8 * i as u32);
        }
        block
    }

    /// Classifies a tail of fewer than [`BLOCK`] bytes. The bytes past
    /// its end classify as whitespace: a partial last word is the last
    /// eight bytes of the tail shifted down (zeros above, which are
    /// neither newline nor high), and `ws` is set past the end.
    #[inline]
    fn tail(bytes: &[u8]) -> Block {
        let len = bytes.len();
        let mut block = Block {
            ws: u64::MAX << len,
            ..Block::default()
        };
        let whole = len / 8 * 8;
        for at in (0..whole).step_by(8) {
            block.add_word(word_at(bytes, at), at as u32);
        }
        let rest = len - whole;
        if rest > 0 {
            let v = if len >= 8 {
                word_at(bytes, len - 8) >> (8 * (8 - rest))
            } else {
                let mut word = [0u8; 8];
                word[..rest].copy_from_slice(bytes);
                u64::from_le_bytes(word)
            };
            block.add_word(v, whole as u32);
        }
        block
    }

    /// Ors the classes of the word `v`, whose first byte is byte
    /// `shift` of the block.
    #[inline]
    fn add_word(&mut self, v: u64, shift: u32) {
        self.ws |= u64::from(movemask(ws_lanes(v))) << shift;
        self.nl |= u64::from(movemask(eq_lanes(v, splat(b'\n')))) << shift;
        self.high |= u64::from(movemask(v & HI)) << shift;
    }
}

/// Scans `buf` one 64-byte block at a time, emitting token and line
/// events into `sink`. Per block, with `tok = !ws` and `prev` the token
/// mask shifted up one with the carry bit of the block before, token
/// starts are `tok & !prev` and token ends `ws & prev`; the walk visits
/// the bits of `ends | nl`, and a token's start is the highest start bit
/// below its end, or the carried start when it began in an earlier
/// block. State — the current line start, the open token, the line's
/// token and high-byte flags — carries across blocks, so tokens and
/// lines may span any number of them. A buffer shorter than a block is
/// one padded block.
pub(crate) fn scan<S: ScanSink>(buf: &[u8], sink: &mut S) -> Result<(), ParseError> {
    let mut walk = Walk::default();
    let mut blocks = buf.chunks_exact(BLOCK);
    let mut base = 0usize;
    for block in &mut blocks {
        // Always a whole block; the array type lets the compiler drop
        // the eight word loads' bounds checks.
        let block = block
            .try_into()
            .map_or_else(|_| Block::tail(block), Block::full);
        walk.block(buf, base, block, sink)?;
        base += BLOCK;
    }
    let tail = blocks.remainder();
    if !tail.is_empty() {
        walk.block(buf, base, Block::tail(tail), sink)?;
    }
    if walk.carry != 0 {
        // A token running to the end of a whole number of blocks (a
        // tail's padding closes its own).
        sink.token(walk.token_start, buf.len());
        walk.has_token = true;
    }
    if walk.line_start < buf.len() {
        // Final line without a trailing newline: content runs to
        // EOF, keeping any trailing `\r` (BufRead::lines parity).
        sink.line(walk.line_start, buf.len(), !walk.has_token, walk.high)?;
    }
    Ok(())
}

/// The state [`scan`] carries from one block to the next.
#[derive(Default)]
struct Walk {
    line_start: usize,
    /// Start of the last token begun: of the open one while `carry` is
    /// set.
    token_start: usize,
    /// The current line has a token (so is not blank).
    has_token: bool,
    /// The current line has a byte `>= 0x80` in the blocks before.
    high: bool,
    /// 1 when the last byte of the block before was a token byte.
    carry: u64,
}

impl Walk {
    /// Walks the event bits of the block at `base`.
    #[inline]
    fn block<S: ScanSink>(
        &mut self,
        buf: &[u8],
        base: usize,
        block: Block,
        sink: &mut S,
    ) -> Result<(), ParseError> {
        let tok = !block.ws;
        let prev = (tok << 1) | self.carry;
        self.carry = tok >> 63;
        let starts = tok & !prev;
        let ends = block.ws & prev;
        // High bits of the current line not yet folded into `self.high`.
        let mut high = block.high;
        let mut events = ends | block.nl;
        while events != 0 {
            let bit = events & events.wrapping_neg();
            let at = base + bit.trailing_zeros() as usize;
            if ends & bit != 0 {
                // The token began at the highest start bit below its end,
                // or in an earlier block.
                let below = starts & (bit - 1);
                if below != 0 {
                    self.token_start = base + 63 - below.leading_zeros() as usize;
                }
                sink.token(self.token_start, at);
                self.has_token = true;
            }
            if block.nl & bit != 0 {
                self.high |= high & (bit - 1) != 0;
                high &= !(bit - 1);
                let mut content_end = at;
                if content_end > self.line_start && buf[content_end - 1] == b'\r' {
                    content_end -= 1;
                }
                sink.line(self.line_start, content_end, !self.has_token, self.high)?;
                self.line_start = at + 1;
                self.has_token = false;
                self.high = false;
            }
            events &= events - 1;
        }
        // A token still open at the block's end began at its last start.
        if starts != 0 {
            self.token_start = base + 63 - starts.leading_zeros() as usize;
        }
        self.high |= high != 0;
        Ok(())
    }
}

/// The offsets at which the lines of `buf[from..]` a corpus build would
/// keep begin, in buffer order: segments between newlines (plus a
/// non-empty EOF tail) containing at least one byte that is not ASCII
/// whitespace. `from` must be a line start. The walk jumps from newline
/// to newline with [`find_newline`]; whether a line is kept is settled
/// by its first non-whitespace byte, almost always its first byte.
pub(crate) fn kept_line_starts(buf: &[u8], from: usize) -> impl Iterator<Item = usize> + '_ {
    let mut next = from;
    std::iter::from_fn(move || {
        while next < buf.len() {
            let start = next;
            let end = find_newline(buf, start).unwrap_or(buf.len());
            next = end + 1;
            if buf[start..end]
                .iter()
                .any(|&b| !matches!(b, 0x09..=0x0d | b' '))
            {
                return Some(start);
            }
        }
        None
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Collects the full event stream for comparison.
    #[derive(Debug, Default, PartialEq, Eq)]
    struct Events {
        tokens: Vec<(usize, usize)>,
        lines: Vec<(usize, usize, bool, bool)>,
    }

    impl ScanSink for Events {
        fn token(&mut self, start: usize, end: usize) {
            self.tokens.push((start, end));
        }

        fn line(
            &mut self,
            start: usize,
            content_end: usize,
            blank: bool,
            has_high: bool,
        ) -> Result<(), ParseError> {
            self.lines.push((start, content_end, blank, has_high));
            Ok(())
        }
    }

    /// Is `b` ASCII whitespace (`char::is_whitespace` restricted to
    /// ASCII — note this includes vertical tab, which
    /// `u8::is_ascii_whitespace` omits)?
    fn is_ascii_ws(b: u8) -> bool {
        matches!(b, 0x09..=0x0d | b' ')
    }

    /// The byte-at-a-time reference scan, written from the contract and
    /// sharing nothing with [`scan`].
    fn scan_scalar<S: ScanSink>(buf: &[u8], sink: &mut S) -> Result<(), ParseError> {
        const NONE: usize = usize::MAX;
        let mut line_start = 0usize;
        let mut token_start = NONE;
        let mut nonws = false;
        let mut high = false;
        for (i, &b) in buf.iter().enumerate() {
            if is_ascii_ws(b) {
                if token_start != NONE {
                    sink.token(token_start, i);
                    token_start = NONE;
                }
                if b == b'\n' {
                    let mut content_end = i;
                    if content_end > line_start && buf[content_end - 1] == b'\r' {
                        content_end -= 1;
                    }
                    sink.line(line_start, content_end, !nonws, high)?;
                    line_start = i + 1;
                    nonws = false;
                    high = false;
                }
            } else {
                high |= b >= 0x80;
                nonws = true;
                if token_start == NONE {
                    token_start = i;
                }
            }
        }
        if token_start != NONE {
            sink.token(token_start, buf.len());
        }
        if line_start < buf.len() {
            sink.line(line_start, buf.len(), !nonws, high)?;
        }
        Ok(())
    }

    /// The previous kept-line walk, one SWAR pass of whitespace and
    /// newline movemasks over every word: the oracle
    /// [`kept_line_starts`] is held to.
    fn kept_line_starts_word_walk(buf: &[u8], mut kept: impl FnMut(usize)) {
        let len = buf.len();
        let mut line_start = 0usize;
        let mut nonws = false;
        let nl_splat = splat(b'\n');
        let mut base = 0usize;
        while base < len {
            let n = (len - base).min(8) as u32;
            let v = if n == 8 {
                u64::from_le_bytes(buf[base..base + 8].try_into().unwrap_or_default())
            } else {
                let mut word = [0u8; 8];
                word[..n as usize].copy_from_slice(&buf[base..]);
                u64::from_le_bytes(word)
            };
            let valid: u32 = if n == 8 { 0xff } else { (1u32 << n) - 1 };
            let nonws8 = !movemask(ws_lanes(v)) & valid;
            let mut nls = movemask(eq_lanes(v, nl_splat)) & valid;
            if nls == 0 {
                nonws |= nonws8 != 0;
                base += 8;
                continue;
            }
            let mut e: u32 = 0;
            while nls != 0 {
                let j = nls.trailing_zeros();
                if nonws || nonws8 & ((1u32 << j) - (1u32 << e)) != 0 {
                    kept(line_start);
                }
                nonws = false;
                e = j + 1;
                line_start = base + e as usize;
                nls &= nls - 1;
            }
            if nonws8 >> e != 0 {
                nonws = true;
            }
            base += 8;
        }
        if nonws {
            kept(line_start);
        }
    }

    fn block_events(buf: &[u8]) -> Events {
        let mut e = Events::default();
        scan(buf, &mut e).unwrap();
        e
    }

    fn scalar_events(buf: &[u8]) -> Events {
        let mut e = Events::default();
        scan_scalar(buf, &mut e).unwrap();
        e
    }

    #[test]
    fn lane_primitives_are_exact() {
        for (word, b, expect) in [
            (0x0000_0100_0000_0000u64, 0u8, 0x8080_0080_8080_8080u64),
            (
                u64::from_le_bytes(*b"a b\tc  \n"),
                b' ',
                0x0080_8000_0000_8000,
            ),
        ] {
            assert_eq!(eq_lanes(word, splat(b)), expect, "word {word:#x}");
        }
        // The classic haszero borrow bug: a zero byte above a 0x01 byte
        // must not flag the 0x01 lane (lanes 1..=7 are zero, lane 0 is not).
        assert_eq!(zero_lanes(0x0001), 0x8080_8080_8080_8000);
        for b in 0u8..=255 {
            let v = splat(b) & !0xffu64 | u64::from(b'\n');
            let ge = ge_lanes(v, 0x09);
            assert_eq!(ge & 0x80 != 0, b'\n' >= 0x09);
            assert_eq!(ge & 0x8000 != 0, b >= 0x09, "byte {b:#x}");
        }
    }

    #[test]
    fn movemask_is_positional() {
        assert_eq!(movemask(0), 0);
        assert_eq!(movemask(HI), 0xff);
        assert_eq!(movemask(0x80), 1);
        assert_eq!(movemask(0x8000_0000_0000_0000), 0x80);
        assert_eq!(movemask(0x0080_8000_0000_8000), 0b0110_0010);
    }

    #[test]
    fn ws_lanes_match_the_ascii_whitespace_set() {
        for b in 0u8..=255 {
            let lane = ws_lanes(splat(b)) & 0x80 != 0;
            assert_eq!(lane, is_ascii_ws(b), "byte {b:#x}");
            assert_eq!(
                b < 0x80 && char::from(b).is_whitespace(),
                b < 0x80 && is_ascii_ws(b),
                "ASCII whitespace must equal char::is_whitespace below 0x80 ({b:#x})"
            );
        }
    }

    #[test]
    fn find_newline_matches_position() {
        let buf = b"abcdefgh\nxy\nlongerline-without-breaks-here\n\n tail";
        let mut expect = Vec::new();
        let mut from = 0;
        while let Some(p) = find_newline(buf, from) {
            expect.push(p);
            from = p + 1;
        }
        let naive: Vec<usize> = buf
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| (b == b'\n').then_some(i))
            .collect();
        assert_eq!(expect, naive);
        assert_eq!(find_newline(b"no breaks", 0), None);
        assert_eq!(find_newline(b"x\n", 2), None);
        assert_eq!(find_newline(b"", 5), None);
    }

    #[test]
    fn block_and_scalar_agree_on_handwritten_corpora() {
        let cases: &[&[u8]] = &[
            b"",
            b"\n",
            b"a\n",
            b"a",
            b"one two three\nfour\n",
            b"  leading and trailing  \n\t\n",
            b"crlf line\r\nnext\r\n",
            b"ends with cr at eof\r",
            b"\r\n\r\n",
            b"exactly8\nexactly8\n",
            b"a-token-spanning-many-words-without-any-break\nshort\n",
            "unicode \u{3b1}\u{3b2} tokens\nascii only\n".as_bytes(),
            b"\x00nul bytes\x00are tokens\n",
            b"   \x0b \x0c  \n",
            b"no trailing newline",
        ];
        for case in cases {
            assert_eq!(
                block_events(case),
                scalar_events(case),
                "case {:?}",
                String::from_utf8_lossy(case)
            );
        }
    }

    /// `len` bytes of one kind: a single token, or mixed tokens,
    /// whitespace and line ends.
    fn filler(len: usize, token: bool) -> Vec<u8> {
        let unit: &[u8] = if token {
            b"x"
        } else {
            b"ab cd\tef\ngh \r\n\x0bi"
        };
        unit.iter().copied().cycle().take(len).collect()
    }

    /// Each case the block walk could get wrong at a block edge, put at
    /// every offset from 8 bytes before to 8 bytes after the first and
    /// the second edge, after a filler of either kind.
    #[test]
    fn block_edges_match_the_scalar_reference() {
        let check = |buf: Vec<u8>, what: &str| {
            assert_eq!(
                block_events(&buf),
                scalar_events(&buf),
                "{what}, {} bytes: {:?}",
                buf.len(),
                String::from_utf8_lossy(&buf)
            );
        };
        let at_offset = |at: usize, token: bool, case: &[u8]| {
            let mut buf = filler(at, token);
            buf.extend_from_slice(case);
            buf
        };
        let spanning = [b"y".repeat(2 * BLOCK + 1), b"\n".to_vec()].concat();
        for at in (56..=72).chain(120..=136) {
            for token in [true, false] {
                // A token boundary at `at`: an end, then a start.
                check(at_offset(at, token, b" next\n"), "token end");
                check(at_offset(at, token, b"\tstart\n"), "token start");
                check(at_offset(at, false, b"start end\n"), "token start");
                // `\r` just before the block edge, its `\n` on it.
                check(at_offset(at - 1, token, b"\r\nnext\r\n"), "CRLF");
                // A high byte on `at`, a bare `\n` on `at`.
                check(at_offset(at, token, b"\xc3\xa9 x\nplain\n"), "high byte");
                check(at_offset(at - 1, token, b"\xe9\nplain\n"), "high before");
                check(at_offset(at, token, b"\n\nx\xa9\n"), "bare newline");
                // A token over three blocks, starting on `at`.
                check(at_offset(at, token, &spanning), "three blocks");
                check(
                    at_offset(at, false, &[b" ", &spanning[..]].concat()),
                    "three blocks",
                );
            }
        }
        // An unterminated last line ending exactly on the first and the
        // second block edge, begun at every offset before it.
        for end in [BLOCK, 2 * BLOCK] {
            for start in 0..end {
                for last in [b'x', b' ', b'\r', b'\x0b', 0xa9] {
                    let mut buf = filler(start, false);
                    if let Some(newline) = buf.last_mut() {
                        *newline = b'\n';
                    }
                    buf.extend(filler(end - start, true));
                    buf[end - 1] = last;
                    check(buf, "unterminated last line");
                }
            }
        }
    }

    #[test]
    fn blank_and_high_flags_are_per_line() {
        let buf = "ascii\n \t\n\u{3b1}\nmore\n".as_bytes();
        let events = block_events(buf);
        let flags: Vec<(bool, bool)> = events.lines.iter().map(|l| (l.2, l.3)).collect();
        assert_eq!(
            flags,
            vec![(false, false), (true, false), (false, true), (false, false)]
        );
        assert_eq!(events, scalar_events(buf));
    }

    #[test]
    fn count_non_blank_lines_matches_the_scan() {
        let cases: &[(&[u8], usize)] = &[
            (b"", 0),
            (b"\n\n\n", 0),
            (b"a\nb\nc", 3),
            (b"a\n \n\tb\n", 2),
            (b"tail without newline", 1),
            (b"  \r\n x \r\n", 1),
        ];
        for &(buf, expect) in cases {
            assert_eq!(kept_line_starts(buf, 0).count(), expect, "{buf:?}");
        }
    }

    /// Strategy: mostly structure-rich bytes (all six whitespace bytes,
    /// token bytes, high bytes) so boundaries are dense.
    fn corpus_bytes() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(
            prop_oneof![
                Just(b'\n'),
                Just(b' '),
                Just(b'\t'),
                Just(b'\r'),
                Just(0x0bu8),
                Just(0x0cu8),
                Just(0xc3u8),
                Just(0xa9u8),
                0u8..=255,
            ],
            0..200,
        )
    }

    proptest! {
        #[test]
        fn block_scan_matches_scalar_reference(buf in corpus_bytes()) {
            prop_assert_eq!(block_events(&buf), scalar_events(&buf));
        }

        /// Up to ~1.2 KB, so lines and tokens run over many blocks.
        #[test]
        fn block_scan_matches_scalar_reference_over_many_blocks(
            parts in proptest::collection::vec(corpus_bytes(), 1..7),
            runs in proptest::collection::vec((0usize..1200, 1usize..150, 0u8..3), 0..4),
        ) {
            let mut buf = parts.concat();
            // Long runs of one class, so a block can be all token, all
            // whitespace or all high bytes.
            for (at, len, class) in runs {
                let fill = [b'q', b' ', 0xa9][usize::from(class)];
                let at = at.min(buf.len());
                buf.splice(at..at, std::iter::repeat_n(fill, len));
            }
            prop_assert_eq!(block_events(&buf), scalar_events(&buf));
        }

        #[test]
        fn count_agrees_with_line_events(buf in corpus_bytes()) {
            let events = block_events(&buf);
            let kept: Vec<usize> = events.lines.iter().filter(|l| !l.2).map(|l| l.0).collect();
            prop_assert_eq!(kept_line_starts(&buf, 0).count(), kept.len());
            let starts: Vec<usize> = kept_line_starts(&buf, 0).collect();
            prop_assert_eq!(&starts, &kept);
            let mut walked = Vec::new();
            kept_line_starts_word_walk(&buf, |start| walked.push(start));
            prop_assert_eq!(&starts, &walked);
            // From any line start, the walk is the tail of the whole one.
            for from in events.lines.iter().map(|l| l.0) {
                let tail: Vec<usize> = kept.iter().copied().filter(|&s| s >= from).collect();
                prop_assert_eq!(kept_line_starts(&buf, from).collect::<Vec<_>>(), tail);
            }
        }

        #[test]
        fn find_newline_agrees_with_naive(buf in corpus_bytes(), from in 0usize..220) {
            let naive = buf.iter().skip(from.min(buf.len())).position(|&b| b == b'\n')
                .map(|i| i + from.min(buf.len()));
            prop_assert_eq!(find_newline(&buf, from), naive);
        }
    }
}
