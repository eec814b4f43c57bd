//! Raw virtual memory, declared once for the executor's stack slab and
//! the file store: the libc calls (from the libc `std` already links)
//! and their Linux/macOS flags, and the one mapping both hold.

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
