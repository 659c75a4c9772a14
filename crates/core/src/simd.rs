//! SWAR (SIMD-within-a-register) byte scanning for the zero-copy
//! corpus loader.
//!
//! The loader's hot loop must find, in one pass over the input buffer,
//! every newline, every token boundary, whether each line is blank,
//! and whether it contains any non-ASCII byte (which routes the line to
//! the checked slow path). [`scan`] does all four eight bytes at a
//! time: each `u64` word is classified into per-byte masks (whitespace /
//! newline / high) with branch-free lane arithmetic, the masks are
//! compressed to 8-bit movemasks, and a small event walk over the set
//! bits emits token and line events to a [`ScanSink`]. A token is a
//! maximal run of non-whitespace bytes — the one token rule
//! ([`crate::Tokenizer`]) restricted to ASCII, where the two coincide;
//! lines with high bytes are re-tokenized by the caller at char level.
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
//! oracle the property tests hold [`scan`] to.

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

/// Index of the first `\n` at or after `from`, SWAR-accelerated.
pub(crate) fn find_newline(buf: &[u8], from: usize) -> Option<usize> {
    let mut base = from.min(buf.len());
    // Unaligned head up to the first word boundary of the slice walk.
    while base < buf.len() && !base.is_multiple_of(8) {
        if buf[base] == b'\n' {
            return Some(base);
        }
        base += 1;
    }
    let nl = splat(b'\n');
    while base + 8 <= buf.len() {
        let Ok(chunk) = buf[base..base + 8].try_into() else {
            break;
        };
        let hits = eq_lanes(u64::from_le_bytes(chunk), nl);
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

/// Scans `buf` a word at a time, emitting token and line events into
/// `sink`: classify eight bytes into movemasks, then walk only the
/// *boundary* bits (typical log text has ~1–2 per word). State — the
/// current line start, the open token, the line's blank/high flags —
/// carries across words, so tokens and lines may span any number of
/// words.
pub(crate) fn scan<S: ScanSink>(buf: &[u8], sink: &mut S) -> Result<(), ParseError> {
    const NONE: usize = usize::MAX;
    let len = buf.len();
    let mut line_start = 0usize;
    let mut token_start = NONE;
    let mut has_token = false;
    let mut high = false;
    let nl_splat = splat(b'\n');

    let mut base = 0usize;
    while base < len {
        let n = (len - base).min(8) as u32;
        let v = if n == 8 {
            u64::from_le_bytes(buf[base..base + 8].try_into().unwrap_or_default())
        } else {
            // Tail word: zero padding, masked out of every class
            // below (`valid`), so pad bytes emit no events.
            let mut word = [0u8; 8];
            word[..n as usize].copy_from_slice(&buf[base..]);
            u64::from_le_bytes(word)
        };
        let valid: u32 = if n == 8 { 0xff } else { (1u32 << n) - 1 };
        let ws8 = movemask(ws_lanes(v)) & valid;
        let nl8 = movemask(eq_lanes(v, nl_splat)) & valid;
        let high8 = movemask(v & HI) & valid;
        let tok8 = !ws8 & valid;

        // Whole word inside a token: one branch, no event walk.
        if ws8 == 0 {
            if token_start == NONE {
                token_start = base;
                has_token = true;
            }
            high |= high8 != 0;
            base += 8;
            continue;
        }

        let mut e: u32 = 0;
        while e < n {
            if token_start == NONE {
                // Bytes from `e` to the next token bit are whitespace;
                // a newline among them ends the line first.
                let rest = (tok8 | nl8) >> e;
                if rest == 0 {
                    break;
                }
                let j = e + rest.trailing_zeros();
                if nl8 >> j & 1 == 1 {
                    let abs = base + j as usize;
                    let mut content_end = abs;
                    if content_end > line_start && buf[content_end - 1] == b'\r' {
                        content_end -= 1;
                    }
                    sink.line(line_start, content_end, !has_token, high)?;
                    line_start = abs + 1;
                    has_token = false;
                    high = false;
                    e = j + 1;
                } else {
                    token_start = base + j as usize;
                    has_token = true;
                    e = j;
                }
            } else {
                // Token open: the next whitespace bit closes it.
                let seps = ws8 >> e;
                if seps == 0 {
                    if high8 >> e != 0 {
                        high = true;
                    }
                    break;
                }
                let j = e + seps.trailing_zeros();
                if high8 & ((1u32 << j) - (1u32 << e)) != 0 {
                    high = true;
                }
                sink.token(token_start, base + j as usize);
                token_start = NONE;
                e = j;
            }
        }
        base += 8;
    }
    if token_start != NONE {
        sink.token(token_start, len);
    }
    if line_start < len {
        // Final line without a trailing newline: content runs to
        // EOF, keeping any trailing `\r` (BufRead::lines parity).
        sink.line(line_start, len, !has_token, high)?;
    }
    Ok(())
}

/// Calls `kept` with the offset at which each line of `buf` a corpus
/// build would keep begins, in buffer order: segments between newlines
/// (plus a non-empty EOF tail) containing at least one byte that is not
/// ASCII whitespace. One SWAR pass, no events.
pub(crate) fn kept_line_starts(buf: &[u8], mut kept: impl FnMut(usize)) {
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

/// Counts the lines of `buf` a corpus build would keep (see
/// [`kept_line_starts`]).
pub(crate) fn count_non_blank_lines(buf: &[u8]) -> usize {
    let mut count = 0usize;
    kept_line_starts(buf, |_| count += 1);
    count
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

    fn swar_events(buf: &[u8]) -> Events {
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
    fn swar_and_scalar_agree_on_handwritten_corpora() {
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
                swar_events(case),
                scalar_events(case),
                "case {:?}",
                String::from_utf8_lossy(case)
            );
        }
    }

    #[test]
    fn blank_and_high_flags_are_per_line() {
        let buf = "ascii\n \t\n\u{3b1}\nmore\n".as_bytes();
        let events = swar_events(buf);
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
            assert_eq!(count_non_blank_lines(buf), expect, "{buf:?}");
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
        fn swar_scan_matches_scalar_reference(buf in corpus_bytes()) {
            prop_assert_eq!(swar_events(&buf), scalar_events(&buf));
        }

        #[test]
        fn count_agrees_with_line_events(buf in corpus_bytes()) {
            let events = swar_events(&buf);
            let kept: Vec<usize> = events.lines.iter().filter(|l| !l.2).map(|l| l.0).collect();
            prop_assert_eq!(count_non_blank_lines(&buf), kept.len());
            let mut starts = Vec::new();
            kept_line_starts(&buf, |start| starts.push(start));
            prop_assert_eq!(starts, kept);
        }

        #[test]
        fn find_newline_agrees_with_naive(buf in corpus_bytes(), from in 0usize..220) {
            let naive = buf.iter().skip(from.min(buf.len())).position(|&b| b == b'\n')
                .map(|i| i + from.min(buf.len()));
            prop_assert_eq!(find_newline(&buf, from), naive);
        }
    }
}
