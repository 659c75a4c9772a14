//! The loader's one unchecked conversion: a byte slice the SWAR scanner
//! has classified as pure ASCII, as `&str` without a UTF-8 walk.
//!
//! This module is the **only** place in `logparse-core` where `unsafe`
//! is permitted: the crate root carries `deny(unsafe_code)`, and the
//! workspace lint's unsafe-allowlist admits exactly this file, requiring
//! a `SAFETY` comment on every unsafe block.
#![allow(unsafe_code)]

/// Reinterprets a byte slice the SWAR scanner has classified as pure
/// ASCII (every byte < 0x80) as `&str` without a UTF-8 walk.
///
/// The loader calls this once per token on its hot path; a checked
/// `from_utf8` would re-scan bytes the scanner already proved ASCII.
/// Debug builds keep the assertion as a belt-and-braces check.
#[inline]
pub(crate) fn ascii_str(bytes: &[u8]) -> &str {
    debug_assert!(bytes.is_ascii(), "scanner promised ASCII-only bytes");
    // SAFETY: every ASCII byte sequence is valid UTF-8. Callers only
    // pass slices whose bytes the SWAR scanner's high-bit mask proved
    // are all < 0x80 (the scanner routes any line containing a high
    // byte to the checked slow path instead).
    unsafe { std::str::from_utf8_unchecked(bytes) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_str_round_trips() {
        assert_eq!(ascii_str(b"blk_42 src:"), "blk_42 src:");
        assert_eq!(ascii_str(b""), "");
    }
}
