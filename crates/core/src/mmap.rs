//! Read-only memory mapping of input files, plus the one other unsafe
//! primitive the zero-copy loader needs (`ascii_str`).
//!
//! This module is the **only** place in `logparse-core` where
//! `unsafe` is permitted (the crate root carries `deny(unsafe_code)`
//! and the unsafe-allowlist lint admits exactly this file, requiring a
//! `SAFETY` comment on every unsafe block). The FFI surface is
//! hand-declared — the workspace builds offline with no `libc` crate —
//! and deliberately tiny: `mmap`, `munmap` and `madvise` (plus
//! `getpagesize` to align the last).
//!
//! A mapping is always `PROT_READ` + `MAP_PRIVATE`: the kernel hands
//! out copy-on-write pages we never write, so the mapped bytes are
//! immutable for the mapping's lifetime and safe to share across
//! threads. [`Mapping::release`] hands pages a walk has passed back to
//! the kernel (`MADV_DONTNEED`); as none was ever written, a later read
//! of one faults the same file bytes in again, so a release changes
//! what is resident, never what is read. Callers that can't map (stdin, zero-length files,
//! non-unix targets, or a failing `mmap` call) fall back to reading
//! the whole file into a `Vec<u8>`; [`crate::loader`] owns that
//! policy.
#![allow(unsafe_code)]

use std::fs::File;

#[cfg(unix)]
mod ffi {
    use std::ffi::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;
    pub const MADV_DONTNEED: c_int = 4;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        pub fn getpagesize() -> c_int;
    }
}

/// A read-only, private memory mapping of an open file.
///
/// Unmapped on drop. Dereferences to the mapped byte slice.
#[derive(Debug)]
pub struct Mapping {
    #[cfg(unix)]
    addr: *mut std::ffi::c_void,
    len: usize,
}

// SAFETY: the mapping is PROT_READ + MAP_PRIVATE — no thread can write
// through it (writes would fault) and the kernel keeps the pages alive
// until munmap, which only `Drop` calls, once, with exclusive access.
// Immutable shared memory is safe to send and share across threads.
unsafe impl Send for Mapping {}
// SAFETY: as above — `&Mapping` only exposes `&[u8]` reads of
// immutable pages.
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Maps `file` read-only, or `None` when mapping is unavailable
    /// (empty file, non-unix target, or the syscall failing — e.g. the
    /// descriptor is a pipe). Callers fall back to buffered reads.
    #[cfg(unix)]
    pub fn of_file(file: &File) -> Option<Mapping> {
        use std::os::unix::io::AsRawFd;
        let len = file.metadata().ok()?.len();
        // mmap rejects zero-length mappings, and usize::try_from guards
        // the (32-bit) case of a file larger than the address space.
        let len = usize::try_from(len).ok().filter(|&l| l > 0)?;
        // SAFETY: addr=null lets the kernel pick placement; len is the
        // current file length (>0); the fd is valid for the duration of
        // the call because `file` is borrowed across it. A shrinking
        // concurrent truncate could leave pages past EOF that fault on
        // access — same hazard every mmap-based reader (ripgrep et al.)
        // accepts for regular files; we never map stdin/pipes (the call
        // fails there and we fall back to reads).
        let addr = unsafe {
            ffi::mmap(
                std::ptr::null_mut(),
                len,
                ffi::PROT_READ,
                ffi::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if addr == ffi::MAP_FAILED {
            return None;
        }
        Some(Mapping { addr, len })
    }

    /// Mapping is unsupported off unix; the loader reads instead.
    #[cfg(not(unix))]
    pub fn of_file(_file: &File) -> Option<Mapping> {
        None
    }

    /// The mapped bytes.
    #[cfg(unix)]
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: addr..addr+len was returned by a successful mmap and
        // stays mapped until Drop; the pages are read-only, so handing
        // out a shared slice for the mapping's lifetime is sound.
        unsafe { std::slice::from_raw_parts(self.addr as *const u8, self.len) }
    }

    /// The mapped bytes (unreachable off unix: `of_file` returns None).
    #[cfg(not(unix))]
    pub fn bytes(&self) -> &[u8] {
        &[]
    }

    /// Drops the pages wholly inside bytes `range` from this process's
    /// resident set (`MADV_DONTNEED`): the range's start is rounded up
    /// to a page and its end down, except that the end of the mapping
    /// takes its last, partial page along. A later read of a released
    /// byte faults the file's page in again. The result is ignored: it
    /// is advice, and nothing read depends on it.
    #[cfg(unix)]
    pub fn release(&self, range: std::ops::Range<usize>) {
        // SAFETY: getpagesize has no preconditions.
        let page = usize::try_from(unsafe { ffi::getpagesize() })
            .ok()
            .filter(|p| p.is_power_of_two())
            .unwrap_or(4096);
        let end = range.end.min(self.len);
        let end = if end == self.len {
            end.next_multiple_of(page)
        } else {
            end / page * page
        };
        let Some(start) = range.start.checked_next_multiple_of(page) else {
            return;
        };
        if start >= end {
            return;
        }
        // SAFETY: mmap returns a page-aligned `addr`, so `addr + start`
        // is page-aligned, and `start..end` lies inside the pages of the
        // mapping (`end` rounds up only at the mapping's end, to the
        // page the kernel mapped there). MADV_DONTNEED on a PROT_READ,
        // MAP_PRIVATE file mapping never written discards no data: no
        // page holds a private copy, so the next access maps the same
        // file bytes again. The pages stay mapped, so every `&[u8]`
        // borrowed from `bytes` stays valid and reads what it read
        // before (a concurrent writer to the file is the hazard
        // `of_file` already names, no new one).
        unsafe {
            ffi::madvise(
                self.addr.cast::<u8>().add(start).cast(),
                end - start,
                ffi::MADV_DONTNEED,
            );
        }
    }

    /// Nothing to release off unix (unreachable: `of_file` returns
    /// None).
    #[cfg(not(unix))]
    pub fn release(&self, _range: std::ops::Range<usize>) {}
}

impl Drop for Mapping {
    fn drop(&mut self) {
        #[cfg(unix)]
        // SAFETY: addr/len are exactly what mmap returned; Drop runs at
        // most once, after which no slice borrowed from `bytes` can be
        // live (they borrow `self`).
        unsafe {
            ffi::munmap(self.addr, self.len);
        }
    }
}

impl std::ops::Deref for Mapping {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.bytes()
    }
}

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
    use std::io::Write;

    #[test]
    fn maps_file_contents_and_unmaps_on_drop() {
        let dir = std::env::temp_dir().join(format!("logparse-mmap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("probe.log");
        let payload = b"alpha beta\ngamma\n";
        std::fs::File::create(&path)
            .unwrap()
            .write_all(payload)
            .unwrap();
        let file = File::open(&path).unwrap();
        if let Some(map) = Mapping::of_file(&file) {
            assert_eq!(&*map, payload.as_slice());
        } else if cfg!(unix) {
            panic!("mapping a regular file must work on unix");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn released_pages_read_back_the_file() {
        let dir =
            std::env::temp_dir().join(format!("logparse-mmap-release-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.log");
        let payload: Vec<u8> = (0..3 * 4096 + 100).map(|i| b'a' + (i % 26) as u8).collect();
        std::fs::write(&path, &payload).unwrap();
        let file = File::open(&path).unwrap();
        if let Some(map) = Mapping::of_file(&file) {
            let before = map.bytes();
            // Unaligned ends, an empty range, one past the end, the whole.
            for range in [
                5..4097,
                4096..4096,
                8000..payload.len() + 9,
                0..payload.len(),
            ] {
                map.release(range);
                assert_eq!(before, payload.as_slice());
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_file_declines_to_map() {
        let dir = std::env::temp_dir().join(format!("logparse-mmap-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.log");
        std::fs::File::create(&path).unwrap();
        assert!(Mapping::of_file(&File::open(&path).unwrap()).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ascii_str_round_trips() {
        assert_eq!(ascii_str(b"blk_42 src:"), "blk_42 src:");
        assert_eq!(ascii_str(b""), "");
    }
}
