//! Raw virtual memory, declared once for the executor's stack slab and
//! the file store: the libc calls (from the libc `std` already links)
//! and their Linux/macOS flags, and the one mapping both hold; plus
//! [`stream_copy`], the bulk copy into memory the copying rank does not
//! read next (the file, a peer's exposed buffer).

use std::ffi::{c_int, c_void};

#[cfg(not(any(target_os = "linux", target_os = "macos")))]
compile_error!("mccio-sim's vmem module uses the Linux and macOS `mmap` flags only");

const PROT_READ: c_int = 0x1;
const PROT_WRITE: c_int = 0x2;
const MAP_PRIVATE: c_int = 0x02;
#[cfg(target_os = "linux")]
const MAP_ANONYMOUS: c_int = 0x20;
#[cfg(target_os = "linux")]
const MAP_NORESERVE: c_int = 0x4000;
#[cfg(target_os = "macos")]
const MAP_ANONYMOUS: c_int = 0x1000;
#[cfg(target_os = "macos")]
const MAP_NORESERVE: c_int = 0x40;
#[cfg(target_os = "linux")]
const MADV_HUGEPAGE: c_int = 14;
#[cfg(target_os = "linux")]
const MADV_NOHUGEPAGE: c_int = 15;
/// The `madvise` advice that faults a range in writable in one call:
/// `MADV_POPULATE_WRITE` on Linux 5.14 and later (older kernels refuse
/// it with `EINVAL`); macOS has none.
#[cfg(target_os = "linux")]
pub const POPULATE_WRITE: Option<c_int> = Some(23);
#[cfg(not(target_os = "linux"))]
pub const POPULATE_WRITE: Option<c_int> = None;

#[allow(missing_docs)]
extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        off: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
    pub fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    pub fn mincore(addr: *mut c_void, len: usize, vec: *mut u8) -> c_int;
    pub fn getpagesize() -> c_int;
}

/// One private anonymous read-write mapping, page-aligned and reading
/// zero, unmapped on drop. `MAP_NORESERVE` keeps it out of overcommit
/// accounting: it commits only the pages that are touched.
#[derive(Debug)]
pub struct Reservation {
    base: *mut u8,
    size: usize,
}

// SAFETY: a reservation is an address range. It reads and writes
// nothing itself; each access through `base` is its owner's `unsafe`.
unsafe impl Send for Reservation {}
unsafe impl Sync for Reservation {}

impl Reservation {
    /// Maps `size` bytes (at least one). On Linux, `huge_pages` asks for
    /// transparent huge pages, which suit memory written whole (a file);
    /// otherwise the mapping keeps base pages whatever the host default,
    /// so a sparse user (the stack slab) commits 4 KiB, not 2 MiB, where
    /// it touches 4 KiB. A refused advice leaves the mapping correct.
    ///
    /// # Errors
    /// The OS error when the kernel refuses the mapping.
    pub fn new(size: usize, huge_pages: bool) -> std::io::Result<Reservation> {
        let (prot, flags) = (
            PROT_READ | PROT_WRITE,
            MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
        );
        // SAFETY: an anonymous mapping at an address of the kernel's
        // choosing aliases nothing.
        let base = unsafe { mmap(std::ptr::null_mut(), size.max(1), prot, flags, -1, 0) };
        if base as isize == -1 {
            return Err(std::io::Error::last_os_error());
        }
        #[cfg(target_os = "linux")]
        let advice = if huge_pages {
            MADV_HUGEPAGE
        } else {
            MADV_NOHUGEPAGE
        };
        #[cfg(target_os = "linux")]
        // SAFETY: advice on the mapping just made; it moves no data.
        unsafe {
            madvise(base, size.max(1), advice)
        };
        #[cfg(not(target_os = "linux"))]
        let _ = huge_pages;
        let base = base.cast();
        Ok(Reservation { base, size })
    }

    /// The first byte.
    #[must_use]
    pub fn base(&self) -> *mut u8 {
        self.base
    }

    /// Bytes reserved.
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        // SAFETY: exactly the mapping `new` made; its owner is gone.
        unsafe { munmap(self.base.cast(), self.size.max(1)) };
    }
}

/// Runs shorter than this many bytes go through the cache even where
/// [`stream_copy`] could stream them: below it the cached head and tail
/// and the closing fence cost more than the line reads streaming saves
/// (DESIGN, "The data plane's memory traffic").
pub const STREAM_MIN: usize = 4096;

/// Copies `src` into `dst`, which no one reads before the line would
/// have left the cache anyway (the file, a peer's exposed buffer). On
/// an AVX-512 host a run of at least [`STREAM_MIN`] bytes is written
/// with 64-byte non-temporal stores, which skip reading each
/// destination line before overwriting it: a cached head up to a
/// 64-byte-aligned destination, the streamed body, a cached tail, then
/// one `sfence`, so the bytes are ordered before any later store (a
/// lock release, an exposure handoff) and callers need no fence of
/// their own. Every other host and every shorter run copies through
/// the cache. The bytes written are the same either way.
///
/// # Panics
/// If the lengths differ, as [`slice::copy_from_slice`].
#[inline]
pub fn stream_copy(dst: &mut [u8], src: &[u8]) {
    assert_eq!(
        dst.len(),
        src.len(),
        "stream_copy: destination and source lengths differ"
    );
    // SAFETY: `dst` is a writable borrow of `src.len()` bytes, distinct
    // from the shared borrow `src`.
    unsafe { stream_copy_to(dst.as_mut_ptr(), src) }
}

/// [`stream_copy`] into memory no `&mut [u8]` may name yet, such as a
/// buffer exposed uninitialised for peers to fill.
///
/// # Safety
/// `dst` is valid for writes of `src.len()` bytes, and no other access
/// to them happens until this returns; they do not overlap `src`.
#[inline]
pub unsafe fn stream_copy_to(dst: *mut u8, src: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if src.len() >= STREAM_MIN && nt::has_avx512() {
        // SAFETY: the host supports AVX-512F, the feature the build
        // enables; the caller's contract covers the ranges.
        unsafe { nt::copy_avx512(dst, src) };
        return;
    }
    // SAFETY: the caller's contract.
    unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), dst, src.len()) };
}

/// The streaming build of [`stream_copy`]. Calling it is sound only
/// once [`nt::has_avx512`] returned true.
#[cfg(target_arch = "x86_64")]
mod nt {
    use std::arch::x86_64::{_mm512_loadu_si512, _mm512_stream_si512, _mm_sfence};

    /// True when the host runs the streaming build.
    pub(super) fn has_avx512() -> bool {
        is_x86_feature_detected!("avx512f")
    }

    /// [`super::stream_copy_to`] with 64-byte streaming stores, any
    /// length.
    ///
    /// # Safety
    /// As [`super::stream_copy_to`].
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn copy_avx512(dst: *mut u8, src: &[u8]) {
        let (len, s) = (src.len(), src.as_ptr());
        let head = dst.align_offset(64).min(len);
        let body = head + (len - head) / 64 * 64;
        // SAFETY: every range below lies in the first `len` bytes of
        // `dst` and `src`, which the caller guarantees writable and
        // disjoint; the streaming stores land on 64-byte-aligned
        // addresses.
        unsafe {
            std::ptr::copy_nonoverlapping(s, dst, head);
            let mut at = head;
            while at < body {
                let line = _mm512_loadu_si512(s.add(at).cast());
                _mm512_stream_si512(dst.add(at).cast(), line);
                at += 64;
            }
            std::ptr::copy_nonoverlapping(s.add(body), dst.add(body), len - body);
        }
        _mm_sfence();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type CopyFn = fn(&mut [u8], &[u8]);

    /// Every build of the copy this host can run, the cached fallback
    /// first and the one [`stream_copy`] dispatches to last.
    fn builds() -> Vec<(&'static str, CopyFn)> {
        let mut out: Vec<(&'static str, CopyFn)> = vec![("fallback", |d, s| d.copy_from_slice(s))];
        #[cfg(target_arch = "x86_64")]
        if nt::has_avx512() {
            // SAFETY: built only after the host reported AVX-512F; the
            // slices are distinct borrows of equal length.
            out.push(("avx512", |d, s| {
                assert_eq!(d.len(), s.len());
                unsafe { nt::copy_avx512(d.as_mut_ptr(), s) }
            }));
        }
        out.push(("stream_copy", stream_copy));
        out
    }

    /// Every destination misalignment within a line, over lengths at
    /// and around each edge of the streamed body: each build copies
    /// what `copy_from_slice` does and leaves every byte around the
    /// destination as it was.
    #[test]
    fn every_build_copies_exactly_the_destination() {
        const GUARD: usize = 192;
        let t = STREAM_MIN;
        let lens = [0, 1, 63, 64, 65, t - 1, t, t + 1, t + 63, 3 * t + 17];
        let names: Vec<_> = builds().iter().map(|(name, _)| *name).collect();
        println!("stream_copy builds on this host: {names:?}");
        for (name, copy) in builds() {
            for len in lens {
                // Non-zero and different at every offset, so a shifted
                // or dropped byte shows.
                let src: Vec<u8> = (0..len).map(|i| (i * 7 + 13) as u8 | 1).collect();
                for mis in 0..64 {
                    // A line-aligned start, then `mis` bytes in.
                    let mut arena = vec![0u8; len + 2 * GUARD + 64];
                    let lead = arena.as_ptr().align_offset(64) + GUARD + mis;
                    let mut want = arena.clone();
                    want[lead..lead + len].copy_from_slice(&src);
                    copy(&mut arena[lead..lead + len], &src);
                    assert!(
                        arena == want,
                        "{name}: length {len}, misalignment {mis}: first differing byte {:?}",
                        arena.iter().zip(&want).position(|(a, b)| a != b)
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "lengths differ")]
    fn unequal_lengths_panic() {
        stream_copy(&mut [0; 8], &[0; 9]);
    }
}
