//! Raw virtual memory, declared once for the executor's stack slab and
//! the file store: the libc calls (from the libc `std` already links)
//! and their Linux/macOS flags, and the one mapping both hold; plus
//! [`StreamWriter`], the one bulk store path into memory the copying
//! rank does not read next (the file, a peer's exposed buffer), and
//! [`stream_copy`], its single-run case.

use std::ffi::{c_int, c_void};
use std::marker::PhantomData;

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

/// Destinations shorter than this many bytes go through the cache even
/// where a [`StreamWriter`] could stream them: below it the cached
/// first and last lines and the closing fence cost more than the line
/// reads streaming saves (DESIGN, "The data plane's memory traffic").
pub const STREAM_MIN: usize = 4096;

/// Copies `src` into `dst`, which no one reads before the line would
/// have left the cache anyway (the file, a peer's exposed buffer): a
/// [`StreamWriter`] over `dst` given the one run `src`. The bytes
/// written are the same on every host and at every length.
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
    let mut w = StreamWriter::new(dst);
    w.push(src);
    w.finish();
}

/// One 64-byte destination line, held while runs fill it.
#[repr(C, align(64))]
struct Line([u8; 64]);

/// Writes one destination front to back from runs given in destination
/// order, into memory no one reads before the line would have left the
/// cache anyway (the file, a peer's exposed buffer).
///
/// On an AVX-512BW host a destination of at least [`STREAM_MIN`] bytes
/// streams, whatever the length of each run: runs merge into one
/// 64-byte line with masked loads, each full destination line is
/// written with one non-temporal store, which skips reading the line
/// before overwriting it, and the first and last partial lines with
/// cached masked stores. [`StreamWriter::finish`] then issues one
/// `sfence`, so the bytes are ordered before any later store (a lock
/// release, an exposure handoff) and callers need no fence of their
/// own. Every other host and every shorter destination copies each run
/// through the cache. The bytes written are the same either way.
#[must_use = "the last partial line and the fence land only in `finish`"]
pub struct StreamWriter<'a> {
    dst: *mut u8,
    len: usize,
    /// Bytes written so far, the next run's place in `dst`.
    at: usize,
    stream: bool,
    /// The destination line `at` lies in, on the streaming path.
    line: Line,
    _dst: PhantomData<&'a mut [u8]>,
}

impl<'a> StreamWriter<'a> {
    /// A writer that fills all of `dst`.
    pub fn new(dst: &'a mut [u8]) -> Self {
        // SAFETY: a writable borrow of `dst.len()` bytes for `'a`.
        unsafe { Self::to_raw(dst.as_mut_ptr(), dst.len()) }
    }

    /// A writer that fills `len` bytes at `dst`, memory no `&mut [u8]`
    /// may name yet, such as a buffer exposed uninitialised for peers to
    /// fill.
    ///
    /// # Safety
    /// `dst` is valid for writes of `len` bytes for `'a`, and no other
    /// access to them happens while the writer lives; no run pushed
    /// overlaps them.
    pub unsafe fn to_raw(dst: *mut u8, len: usize) -> Self {
        #[cfg(target_arch = "x86_64")]
        let stream = len >= STREAM_MIN && nt::available();
        #[cfg(not(target_arch = "x86_64"))]
        let stream = false;
        Self::with_mode(dst, len, stream)
    }

    /// A writer that streams exactly when `stream` is set, which only a
    /// host [`nt::available`] accepted may ask for.
    fn with_mode(dst: *mut u8, len: usize, stream: bool) -> Self {
        StreamWriter {
            dst,
            len,
            at: 0,
            stream,
            line: Line([0; 64]),
            _dst: PhantomData,
        }
    }

    /// Writes `src` next in the destination.
    ///
    /// # Panics
    /// If `src` runs past the end of the destination.
    #[inline]
    pub fn push(&mut self, src: &[u8]) {
        assert!(
            src.len() <= self.len - self.at,
            "StreamWriter: a {} B run at {} overruns the {} B destination",
            src.len(),
            self.at,
            self.len
        );
        #[cfg(target_arch = "x86_64")]
        if self.stream {
            // SAFETY: streaming is chosen only on a host that runs the
            // build; the run fits the rest of the destination (checked).
            unsafe { nt::push(self, src) };
            return;
        }
        // SAFETY: `[at, at + src.len())` lies in the destination
        // (checked), which `to_raw`'s contract keeps writable and
        // disjoint from `src`.
        unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), self.dst.add(self.at), src.len()) };
        self.at += src.len();
    }

    /// Writes the last partial line and fences the streamed stores.
    ///
    /// # Panics
    /// Unless the runs pushed filled the destination.
    pub fn finish(self) {
        assert!(
            self.at == self.len,
            "StreamWriter: runs filled {} of the {} B destination",
            self.at,
            self.len
        );
        #[cfg(target_arch = "x86_64")]
        if self.stream {
            // SAFETY: as in `push`.
            unsafe { nt::finish(&self) };
        }
    }
}

/// The streaming build of [`StreamWriter`]. Calling it is sound only
/// once [`nt::available`] returned true.
#[cfg(target_arch = "x86_64")]
mod nt {
    use std::arch::x86_64::{
        __m512i, _mm512_load_si512, _mm512_loadu_si512, _mm512_mask_loadu_epi8,
        _mm512_mask_storeu_epi8, _mm512_store_si512, _mm512_stream_si512, _mm_sfence,
    };

    use super::StreamWriter;

    /// True when the host runs the streaming build.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw")
    }

    /// Writes lanes `[lo, hi)` of `line`, the destination line whose
    /// lane `hi` is `w.at` (`hi` in `1..=64`), where `lo` is the first
    /// lane inside the destination: one streamed store for a whole line,
    /// a cached masked store for a partial one.
    ///
    /// # Safety
    /// As [`push`]; lanes `[lo, hi)` are written.
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn store(w: &StreamWriter<'_>, line: __m512i, hi: usize) {
        let base = w.dst.wrapping_add(w.at).wrapping_sub(hi);
        let lo = (w.dst as usize).saturating_sub(base as usize);
        // SAFETY: `base` is 64-byte aligned (lane 0 of a line), and the
        // lanes stored are the destination bytes `[at - hi + lo, at)`.
        unsafe {
            if lo == 0 && hi == 64 {
                _mm512_stream_si512(base.cast(), line);
            } else {
                let mask = (u64::MAX >> (64 - hi)) & (u64::MAX << lo);
                _mm512_mask_storeu_epi8(base.cast(), mask, line);
            }
        }
    }

    /// [`StreamWriter::push`] on the streaming path.
    ///
    /// # Safety
    /// The host runs this build, and `src` fits the rest of `w`'s
    /// destination.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub(super) unsafe fn push(w: &mut StreamWriter<'_>, src: &[u8]) {
        let (mut s, mut n) = (src.as_ptr(), src.len());
        let mut lane = (w.dst as usize).wrapping_add(w.at) % 64;
        // SAFETY: every load reads `src` bytes `[s, s + n)` or the
        // writer's own aligned line; every store lands in the rest of
        // the destination, as `store` says. A masked load reads only its
        // set lanes, so addressing it `lane` bytes before `s` touches no
        // byte outside `src`.
        unsafe {
            let mut line = _mm512_load_si512(w.line.0.as_ptr().cast());
            while n > 0 {
                if lane == 0 {
                    while n >= 64 {
                        let full = _mm512_loadu_si512(s.cast());
                        _mm512_stream_si512(w.dst.add(w.at).cast(), full);
                        (s, w.at, n) = (s.add(64), w.at + 64, n - 64);
                    }
                    if n == 0 {
                        break;
                    }
                }
                // `k` < 64: a whole line at lane 0 went above.
                let k = (64 - lane).min(n);
                let mask = ((1u64 << k) - 1) << lane;
                line = _mm512_mask_loadu_epi8(line, mask, s.wrapping_sub(lane).cast());
                (s, w.at, n, lane) = (s.add(k), w.at + k, n - k, lane + k);
                if lane == 64 {
                    store(w, line, 64);
                    lane = 0;
                }
            }
            _mm512_store_si512(w.line.0.as_mut_ptr().cast(), line);
        }
    }

    /// [`StreamWriter::finish`] on the streaming path: the last partial
    /// line, then the fence.
    ///
    /// # Safety
    /// As [`push`].
    #[target_feature(enable = "avx512f,avx512bw")]
    pub(super) unsafe fn finish(w: &StreamWriter<'_>) {
        let lane = (w.dst as usize).wrapping_add(w.at) % 64;
        if lane != 0 {
            // SAFETY: the writer's own aligned line; `store`'s lanes.
            unsafe { store(w, _mm512_load_si512(w.line.0.as_ptr().cast()), lane) };
        }
        _mm_sfence();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every build of the writer this host can run, the cached fallback
    /// first: whether each streams.
    fn builds() -> Vec<(&'static str, bool)> {
        let mut out = vec![("fallback", false)];
        #[cfg(target_arch = "x86_64")]
        if nt::available() {
            out.push(("avx512bw", true));
        }
        out
    }

    /// Run lengths on each side of a line edge and of `STREAM_MIN`.
    const RUNS: [usize; 6] = [1, 63, 64, 65, 160, STREAM_MIN + 1];

    /// `len` bytes split into runs that alternate `a` and `b` bytes, the
    /// last one cut short; `a` = `b` = `len` is the one whole run.
    fn split(len: usize, a: usize, b: usize) -> Vec<std::ops::Range<usize>> {
        let (mut out, mut at) = (Vec::new(), 0);
        for n in [a, b].into_iter().cycle() {
            if at == len {
                return out;
            }
            let end = (at + n).min(len);
            out.push(at..end);
            at = end;
        }
        unreachable!()
    }

    /// Every destination misalignment within a line, destinations short
    /// of and past `STREAM_MIN`, split into runs in every pairing of
    /// `RUNS` and as one run: each build writes the concatenation of the
    /// runs and leaves every byte around the destination as it was.
    /// Both builds run at every length, so the streaming one also covers
    /// a destination inside one line and a first line that is its last.
    #[test]
    fn every_build_writes_exactly_the_runs() {
        const GUARD: usize = 192;
        let names: Vec<_> = builds().iter().map(|(name, _)| *name).collect();
        println!("StreamWriter builds on this host: {names:?}");
        for (name, stream) in builds() {
            for len in [1, 64, 200, STREAM_MIN - 1, 2 * STREAM_MIN + 100] {
                // Non-zero and different at every offset, so a shifted
                // or dropped byte shows.
                let src: Vec<u8> = (0..len).map(|i| (i * 7 + 13) as u8 | 1).collect();
                let pairs = RUNS.iter().flat_map(|&a| RUNS.map(|b| (a, b)));
                for (a, b) in pairs.chain([(len, len)]) {
                    let runs = split(len, a, b);
                    for mis in 0..64 {
                        // A line-aligned start, then `mis` bytes in,
                        // among guard bytes no run or line holds.
                        let mut arena = vec![0xA4u8; len + 2 * GUARD + 64];
                        let lead = arena.as_ptr().align_offset(64) + GUARD + mis;
                        let mut want = arena.clone();
                        want[lead..lead + len].copy_from_slice(&src);
                        let dst = &mut arena[lead..lead + len];
                        let mut w = StreamWriter::with_mode(dst.as_mut_ptr(), len, stream);
                        for run in &runs {
                            w.push(&src[run.clone()]);
                        }
                        w.finish();
                        assert!(
                            arena == want,
                            "{name}: {len} B in runs of {a} and {b}, misalignment {mis}: \
                             first differing byte {:?}",
                            arena.iter().zip(&want).position(|(x, y)| x != y)
                        );
                    }
                }
            }
        }
    }

    /// `stream_copy` dispatches to the build this host streams with, and
    /// copies through the cache below `STREAM_MIN`.
    #[test]
    fn stream_copy_is_the_one_run_case() {
        for len in [0, 63, STREAM_MIN - 1, STREAM_MIN, 3 * STREAM_MIN + 17] {
            let src: Vec<u8> = (0..len).map(|i| (i * 5 + 3) as u8).collect();
            let mut dst = vec![0; len + 1];
            stream_copy(&mut dst[1..], &src);
            assert_eq!((dst[0], &dst[1..]), (0, &src[..]), "length {len}");
        }
    }

    #[test]
    #[should_panic(expected = "lengths differ")]
    fn unequal_lengths_panic() {
        stream_copy(&mut [0; 8], &[0; 9]);
    }

    #[test]
    #[should_panic(expected = "a 2 B run at 7 overruns the 8 B destination")]
    fn a_run_past_the_destination_panics() {
        let mut dst = [0; 8];
        let mut w = StreamWriter::new(&mut dst);
        w.push(&[1; 7]);
        w.push(&[1; 2]);
    }

    #[test]
    #[should_panic(expected = "runs filled 7 of the 8 B destination")]
    fn a_destination_left_short_panics() {
        let mut dst = [0; 8];
        let mut w = StreamWriter::new(&mut dst);
        w.push(&[1; 7]);
        w.finish();
    }
}
