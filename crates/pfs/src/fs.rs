//! The simulated parallel file system: named striped files with real
//! byte contents.
//!
//! Data is stored for real — a write followed by a read returns the
//! exact bytes, which is what lets the test suite verify collective I/O
//! end-to-end. Only *time* is simulated: every access returns the
//! [`ServiceReport`] describing the per-server request shape it induced
//! under the file's striping, and drivers price those reports through
//! [`PfsParams`].
//!
//! There is deliberately no client-side cache: the paper's evaluation
//! flushes caches between write and read phases, so cold reads are the
//! behaviour to reproduce.
//!
//! Each file's bytes live in one [`FILE_CAP`]-byte reservation on
//! transparent huge pages ([`mccio_sim::vmem::Reservation`]), unmapped
//! when its last handle drops. A write past EOF grows the file by a
//! length update, after one `MADV_POPULATE_WRITE` faults in the new
//! whole pages (where the kernel refuses it, they fault in on first
//! touch). Nothing is copied or zero-filled: the mapping starts zeroed
//! and the file never shrinks, so every byte at or past its length
//! reads zero.

use std::collections::HashMap;
use std::ffi::c_int;
use std::sync::Arc;

use mccio_sim::error::{SimError, SimResult};
use mccio_sim::sync::{Mutex, MutexGuard, RwLock};
use mccio_sim::vmem;

use crate::retry::IoFaults;
use crate::service::{PfsParams, ServiceReport};
use crate::striping::Striping;

/// Bytes one file can hold: the size of its reservation. It commits
/// nothing until written, is ~40× the largest file a shipped run
/// writes (1.5 GiB at 100,800 ranks), and 2,048 of them fit in the
/// 128 TiB user address space of x86_64 and 48-bit aarch64.
pub const FILE_CAP: u64 = 64 << 30;

/// One file: the first `len` bytes of its reservation.
#[derive(Debug)]
struct FileObject {
    name: String,
    map: vmem::Reservation,
    /// The file's length; the lock also guards the bytes.
    len: RwLock<usize>,
    /// Serializes read-modify-write cycles (data sieving writes).
    rmw: Mutex<()>,
}

impl FileObject {
    fn new(name: &str) -> FileObject {
        let map = vmem::Reservation::new(FILE_CAP as usize, true)
            .unwrap_or_else(|e| panic!("file {name:?}: cannot reserve {FILE_CAP} bytes: {e}"));
        FileObject {
            name: name.to_string(),
            map,
            len: RwLock::new(0),
            rmw: Mutex::new(()),
        }
    }

    fn len(&self) -> u64 {
        *self.len.read() as u64
    }

    /// Runs `consume` on the file's bytes.
    fn read<R>(&self, consume: impl FnOnce(&[u8]) -> R) -> R {
        let len = self.len.read();
        // SAFETY: `[0, len)` lies in the reservation, and writers hold
        // the write lock.
        consume(unsafe { std::slice::from_raw_parts(self.map.base(), *len) })
    }

    /// Runs `fill` on bytes `[offset, end)`, growing the file to `end`
    /// first if it is shorter.
    fn write(&self, offset: usize, end: usize, fill: impl FnOnce(&mut [u8])) {
        let mut len = self.len.write();
        if *len < end {
            self.grow(&mut len, end, vmem::POPULATE_WRITE);
        }
        // SAFETY: `offset <= end <= len`, inside the reservation, and
        // the write lock excludes every other access.
        fill(unsafe { std::slice::from_raw_parts_mut(self.map.base().add(offset), end - offset) });
    }

    /// Sets the length to `end`, first asking the kernel with `advice`
    /// to fault in the new whole pages. Returns whether it did; if not,
    /// they fault in on first touch.
    fn grow(&self, len: &mut usize, end: usize, advice: Option<c_int>) -> bool {
        assert!(
            end as u64 <= FILE_CAP,
            "file {:?} is capped at {FILE_CAP} bytes; a write would end at byte {end}",
            self.name
        );
        // SAFETY: no arguments; returns the system page size.
        let page = unsafe { vmem::getpagesize() } as usize;
        let (from, to) = (len.next_multiple_of(page), end.next_multiple_of(page));
        *len = end;
        // SAFETY: whole pages inside the reservation, past every byte
        // ever written; the advice moves no data.
        advice.is_some_and(|advice| {
            to > from
                && unsafe { vmem::madvise(self.map.base().add(from).cast(), to - from, advice) }
                    == 0
        })
    }
}

/// The file system: a namespace of striped files plus the cost
/// parameters. Cheap to clone (`Arc` inside); share one per simulation.
#[derive(Debug, Clone)]
pub struct FileSystem {
    inner: Arc<FsInner>,
}

#[derive(Debug)]
struct FsInner {
    striping: Striping,
    params: PfsParams,
    files: Mutex<HashMap<String, Arc<FileObject>>>,
}

impl FileSystem {
    /// Creates a file system striping over `n_servers` OSTs with the
    /// given stripe `unit` and cost parameters.
    #[must_use]
    pub fn new(n_servers: usize, unit: u64, params: PfsParams) -> Self {
        FileSystem {
            inner: Arc::new(FsInner {
                striping: Striping::new(n_servers, unit),
                params,
                files: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// Storage cost parameters.
    #[must_use]
    pub fn params(&self) -> PfsParams {
        self.inner.params
    }

    /// Number of servers.
    #[must_use]
    pub fn n_servers(&self) -> usize {
        self.inner.striping.n_servers
    }

    /// Creates an empty file. Fails if the name exists.
    pub fn create(&self, name: &str) -> SimResult<FileHandle> {
        let mut files = self.inner.files.lock();
        if files.contains_key(name) {
            return Err(SimError::FileExists(name.to_string()));
        }
        let obj = Arc::new(FileObject::new(name));
        files.insert(name.to_string(), Arc::clone(&obj));
        Ok(self.handle(obj))
    }

    /// Opens an existing file.
    pub fn open(&self, name: &str) -> SimResult<FileHandle> {
        let files = self.inner.files.lock();
        files
            .get(name)
            .map(|obj| self.handle(Arc::clone(obj)))
            .ok_or_else(|| SimError::NoSuchFile(name.to_string()))
    }

    /// Opens, creating if missing — the common collective-open path.
    pub fn open_or_create(&self, name: &str) -> FileHandle {
        if let Ok(h) = self.open(name) {
            return h;
        }
        match self.create(name) {
            Ok(h) => h,
            // A concurrent creator won the race; open must now succeed.
            Err(_) => self.open(name).expect("file exists after create race"),
        }
    }

    /// Removes a file from the namespace. Open handles keep working on
    /// the orphaned object (POSIX unlink semantics).
    pub fn delete(&self, name: &str) -> SimResult<()> {
        self.inner
            .files
            .lock()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| SimError::NoSuchFile(name.to_string()))
    }

    /// True if `name` exists.
    #[must_use]
    pub fn exists(&self, name: &str) -> bool {
        self.inner.files.lock().contains_key(name)
    }

    /// File names currently in the namespace, sorted.
    #[must_use]
    pub fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.files.lock().keys().cloned().collect();
        names.sort();
        names
    }

    /// Current length of `name`, if it exists (a `stat` of the one
    /// attribute the store tracks).
    #[must_use]
    pub fn stat(&self, name: &str) -> Option<u64> {
        self.inner.files.lock().get(name).map(|f| f.len())
    }

    fn handle(&self, file: Arc<FileObject>) -> FileHandle {
        FileHandle {
            file,
            fs: Arc::clone(&self.inner),
        }
    }
}

/// An open file: byte-addressed reads and writes with striping-aware
/// service accounting.
#[derive(Debug, Clone)]
pub struct FileHandle {
    file: Arc<FileObject>,
    fs: Arc<FsInner>,
}

impl FileHandle {
    /// Number of servers the file is striped over.
    #[must_use]
    pub fn n_servers(&self) -> usize {
        self.fs.striping.n_servers
    }

    /// Current file length in bytes.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.file.len()
    }

    /// True when the file holds no bytes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes `data` at `offset`, growing the file as needed (a hole
    /// before `offset` reads as zero). Returns the per-server request
    /// shape of the access. [`FileHandle::try_write_at`] under the
    /// healthy [`IoFaults::none`].
    pub fn write_at(&self, offset: u64, data: &[u8]) -> ServiceReport {
        self.try_write_at(offset, data, &mut IoFaults::none())
            .expect("a healthy access cannot fail")
    }

    /// Reads `buf.len()` bytes at `offset` into `buf`. Bytes beyond EOF
    /// read as zero (sparse-file semantics — collective readers may
    /// legitimately cover holes). Returns the request shape.
    /// [`FileHandle::try_read_into`] under the healthy [`IoFaults::none`].
    pub fn read_into(&self, offset: u64, buf: &mut [u8]) -> ServiceReport {
        self.try_read_into(offset, buf, &mut IoFaults::none())
            .expect("a healthy access cannot fail")
    }

    /// Convenience allocation-returning read.
    pub fn read_at(&self, offset: u64, len: u64) -> (Vec<u8>, ServiceReport) {
        let mut buf = vec![0u8; len as usize];
        let report = self.read_into(offset, &mut buf);
        (buf, report)
    }

    /// One contiguous write of `len` bytes at `offset`, priced and
    /// accounted exactly like [`FileHandle::try_write_at`], with the
    /// bytes produced in place: `fill` receives the destination file
    /// slice and must write every byte of it. Built for gather-style
    /// callers (the collective round engine) that would otherwise
    /// assemble the span in a staging buffer only to copy it here.
    /// `fill` runs only on the successful attempt.
    ///
    /// # Errors
    /// [`SimError::TransientIo`] or [`SimError::Timeout`] as
    /// [`FileHandle::try_write_at`]. The file is untouched on error.
    ///
    /// # Panics
    /// If the write would end past [`FILE_CAP`].
    pub fn write_at_with(
        &self,
        offset: u64,
        len: u64,
        faults: &mut IoFaults,
        fill: impl FnOnce(&mut [u8]),
    ) -> SimResult<ServiceReport> {
        self.fallible(offset, len, faults, || {
            if len > 0 {
                self.file
                    .write(offset as usize, (offset + len) as usize, fill);
            }
            ((), self.requests(offset, len, true))
        })
        .map(|((), report)| report)
    }

    /// One contiguous read of `len` bytes at `offset`, priced and
    /// accounted exactly like [`FileHandle::try_read_into`], handed to
    /// the caller as a zero-copy view instead of filling a buffer:
    /// `consume` receives the in-file portion of the range — shorter
    /// than `len` when the range crosses EOF, where the missing tail
    /// reads as zero by the sparse-file semantics. Built for
    /// scatter-style callers that pick pieces out of the span without
    /// ever materialising it. `consume` runs only on the successful
    /// attempt.
    ///
    /// # Errors
    /// [`SimError::TransientIo`] or [`SimError::Timeout`] as
    /// [`FileHandle::try_write_at`].
    pub fn read_at_with<R>(
        &self,
        offset: u64,
        len: u64,
        faults: &mut IoFaults,
        consume: impl FnOnce(&[u8]) -> R,
    ) -> SimResult<(R, ServiceReport)> {
        self.fallible(offset, len, faults, || {
            let r = self.file.read(|bytes| {
                let start = offset.min(bytes.len() as u64) as usize;
                let n = (bytes.len() - start).min(len as usize);
                consume(&bytes[start..start + n])
            });
            (r, self.requests(offset, len, true))
        })
    }

    /// Writes `data` at `offset` through a fallible request path: each
    /// attempt may transiently fail per `faults`' stream, failed attempts
    /// still charge zero-byte requests at every touched server (the RPCs
    /// went out), and recovery is bounded by the retry policy. The
    /// returned report covers the successful attempt *plus* the waste;
    /// backoff accumulates in `faults.log` for the engine to price.
    /// The bytes land by [`vmem::stream_copy`], past the cache when the
    /// run is long: the writer does not read the file next.
    ///
    /// # Errors
    /// [`SimError::TransientIo`] when the retry budget is exhausted,
    /// [`SimError::Timeout`] when the backoff deadline passes first. The
    /// file is untouched on error.
    pub fn try_write_at(
        &self,
        offset: u64,
        data: &[u8],
        faults: &mut IoFaults,
    ) -> SimResult<ServiceReport> {
        self.write_at_with(offset, data.len() as u64, faults, |dst| {
            vmem::stream_copy(dst, data);
        })
    }

    /// Reads `buf.len()` bytes at `offset` into `buf` through a fallible
    /// request path; see [`FileHandle::try_write_at`] for the failure
    /// semantics.
    ///
    /// # Errors
    /// [`SimError::TransientIo`] or [`SimError::Timeout`] as above; `buf`
    /// contents are unspecified on error.
    pub fn try_read_into(
        &self,
        offset: u64,
        buf: &mut [u8],
        faults: &mut IoFaults,
    ) -> SimResult<ServiceReport> {
        self.read_at_with(offset, buf.len() as u64, faults, copy_into(buf))
            .map(|((), report)| report)
    }

    /// The request shape of an access: one request per touched object
    /// extent, carrying its bytes when `moved` (a failed attempt's
    /// requests move none).
    fn requests(&self, offset: u64, len: u64, moved: bool) -> ServiceReport {
        let mut report = ServiceReport::empty(self.n_servers());
        if len > 0 {
            for ext in self.fs.striping.extents(offset, len) {
                report.add_request(ext.server, if moved { ext.len } else { 0 });
            }
        }
        report
    }

    /// Runs `access` of `len` bytes at `offset` under `faults`' retry
    /// policy: every failed attempt charges the access's requests with
    /// no payload, merged into the successful attempt's report.
    fn fallible<R>(
        &self,
        offset: u64,
        len: u64,
        faults: &mut IoFaults,
        access: impl FnOnce() -> (R, ServiceReport),
    ) -> SimResult<(R, ServiceReport)> {
        if len == 0 || !faults.can_fail() {
            return Ok(access());
        }
        let mut wasted = ServiceReport::empty(self.n_servers());
        let (r, mut report) =
            faults.run(|| wasted.merge(&self.requests(offset, len, false)), access)?;
        report.merge(&wasted);
        Ok((r, report))
    }

    /// Takes the file's read-modify-write lock. Data-sieving writes hold
    /// this across their read + write-back so concurrent sieved writes
    /// to overlapping regions cannot lose updates.
    pub fn rmw_lock(&self) -> MutexGuard<'_, ()> {
        self.file.rmw.lock()
    }
}

/// A read consumer that copies the in-file bytes into `buf` and zeroes
/// the rest of it, past EOF.
fn copy_into(buf: &mut [u8]) -> impl FnOnce(&[u8]) + '_ {
    |src| {
        buf[..src.len()].copy_from_slice(src);
        buf[src.len()..].fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccio_sim::units::MIB;

    fn fs() -> FileSystem {
        FileSystem::new(4, 1024, PfsParams::default())
    }

    #[test]
    fn create_open_delete_lifecycle() {
        let fs = fs();
        assert!(!fs.exists("a"));
        let h = fs.create("a").unwrap();
        assert!(fs.exists("a"));
        assert!(h.is_empty());
        assert!(matches!(fs.create("a"), Err(SimError::FileExists(_))));
        assert!(fs.open("a").is_ok());
        fs.delete("a").unwrap();
        assert!(matches!(fs.open("a"), Err(SimError::NoSuchFile(_))));
        assert!(matches!(fs.delete("a"), Err(SimError::NoSuchFile(_))));
    }

    #[test]
    fn write_then_read_roundtrips() {
        let fs = fs();
        let h = fs.create("f").unwrap();
        let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        h.write_at(500, &data);
        assert_eq!(h.len(), 10_500);
        let (back, _) = h.read_at(500, 10_000);
        assert_eq!(back, data);
    }

    #[test]
    fn holes_and_eof_read_as_zero() {
        let fs = fs();
        let h = fs.create("f").unwrap();
        h.write_at(100, b"xyz");
        let (head, _) = h.read_at(0, 100);
        assert!(head.iter().all(|&b| b == 0));
        let (past, _) = h.read_at(103, 50);
        assert!(past.iter().all(|&b| b == 0));
        let (exact, _) = h.read_at(99, 5);
        assert_eq!(exact, [0, b'x', b'y', b'z', 0]);
        // Far past EOF: the hole reads zero, and so does the reservation
        // itself past the new EOF, to the next page.
        let far = 10 * MIB + 100;
        h.write_at(far, b"abc");
        assert_eq!(h.len(), far + 3);
        let (hole, _) = h.read_at(103, far - 103);
        assert!(hole.iter().all(|&b| b == 0));
        let tail = h.file.read(|bytes| {
            // SAFETY: the page after EOF lies in the reservation.
            unsafe { std::slice::from_raw_parts(bytes.as_ptr(), bytes.len() + 4096) }.to_vec()
        });
        assert_eq!(&tail[far as usize..far as usize + 3], b"abc");
        assert!(tail[far as usize + 3..].iter().all(|&b| b == 0));
    }

    #[test]
    fn a_write_past_the_cap_panics_naming_the_file_and_the_cap() {
        let fs = fs();
        let h = fs.create("big").unwrap();
        let err = std::panic::catch_unwind(|| h.write_at(FILE_CAP - 2, b"end")).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(
            msg.contains("\"big\"") && msg.contains(&FILE_CAP.to_string()),
            "{msg}"
        );
        assert!(h.is_empty());
    }

    #[test]
    fn dropped_files_unmap_their_reservations() {
        // 5,000 leaked 64 GiB reservations would need 320 TiB, past the
        // 128 TiB user address space.
        let fs = fs();
        for i in 0..5_000 {
            let h = fs.create("cycle").unwrap();
            h.write_at(i % 4096, b"x");
            fs.delete("cycle").unwrap();
        }
    }

    #[test]
    fn a_refused_populate_falls_back_to_first_touch() {
        let f = FileObject::new("f");
        let data: Vec<u8> = (0..3 * 4096 + 5).map(|i| (i % 253) as u8).collect();
        // No kernel knows advice -1: it is refused with `EINVAL`, as
        // `MADV_POPULATE_WRITE` is before Linux 5.14.
        assert!(!f.grow(&mut f.len.write(), data.len(), Some(-1)));
        assert_eq!(std::io::Error::last_os_error().raw_os_error(), Some(22));
        f.write(0, data.len(), |dst| dst.copy_from_slice(&data));
        assert_eq!(f.read(<[u8]>::to_vec), data);
    }

    #[test]
    fn reports_reflect_striping() {
        let fs = FileSystem::new(4, 1024, PfsParams::default());
        let h = fs.create("f").unwrap();
        // One full stripe: 4 KiB = one request per server.
        let r = h.write_at(0, &vec![1u8; 4096]);
        assert_eq!(r.total_requests(), 4);
        assert_eq!(r.total_bytes(), 4096);
        for load in r.loads() {
            assert_eq!(load.requests, 1);
            assert_eq!(load.bytes, 1024);
        }
        // A sub-unit read touches exactly one server.
        let (_, r) = h.read_at(100, 10);
        assert_eq!(r.total_requests(), 1);
    }

    #[test]
    fn independent_handles_see_the_same_file() {
        let fs = fs();
        let a = fs.create("shared").unwrap();
        let b = fs.open("shared").unwrap();
        a.write_at(0, b"hello");
        let (got, _) = b.read_at(0, 5);
        assert_eq!(got, b"hello");
    }

    #[test]
    fn delete_keeps_open_handles_alive() {
        let fs = fs();
        let h = fs.create("tmp").unwrap();
        h.write_at(0, b"data");
        fs.delete("tmp").unwrap();
        let (got, _) = h.read_at(0, 4);
        assert_eq!(got, b"data");
    }

    #[test]
    fn concurrent_disjoint_writes_compose() {
        let fs = fs();
        let h = fs.create("par").unwrap();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let h = h.clone();
                s.spawn(move || {
                    let block = vec![t as u8 + 1; MIB as usize / 8];
                    h.write_at(t * MIB / 8, &block);
                });
            }
        });
        assert_eq!(h.len(), MIB);
        let (all, _) = h.read_at(0, MIB);
        for t in 0..8u64 {
            let start = (t * MIB / 8) as usize;
            assert!(all[start..start + (MIB / 8) as usize]
                .iter()
                .all(|&b| b == t as u8 + 1));
        }
    }

    #[test]
    fn namespace_listing_and_stat() {
        let fs = fs();
        let a = fs.create("b-file").unwrap();
        let _ = fs.create("a-file").unwrap();
        a.write_at(0, &[1, 2, 3]);
        assert_eq!(fs.list(), vec!["a-file".to_string(), "b-file".to_string()]);
        assert_eq!(fs.stat("b-file"), Some(3));
        assert_eq!(fs.stat("a-file"), Some(0));
        assert_eq!(fs.stat("missing"), None);
    }

    #[test]
    fn fallible_paths_with_healthy_context_match_infallible() {
        let fs = fs();
        let h = fs.create("f").unwrap();
        let mut iof = IoFaults::none();
        let w = h.try_write_at(0, b"hello world", &mut iof).unwrap();
        assert_eq!(w, h.write_at(0, b"hello world"));
        let mut buf = vec![0u8; 11];
        let r = h.try_read_into(0, &mut buf, &mut iof).unwrap();
        assert_eq!(buf, b"hello world");
        assert_eq!(r.total_bytes(), 11);
        assert_eq!(iof.log, crate::retry::RetryLog::default());
    }

    #[test]
    fn failed_attempts_charge_wasted_requests_and_data_survives() {
        use mccio_sim::fault::{FaultPlan, RetryPolicy};
        let fs = fs();
        let h = fs.create("flaky").unwrap();
        let plan = FaultPlan::new(21).transient_io_rate(0.4);
        let mut iof = IoFaults::new(plan.io_stream(0), RetryPolicy::default());
        let data: Vec<u8> = (0..50_000u64).map(|i| (i % 249) as u8).collect();
        let mut completed = Vec::new();
        let mut charged = ServiceReport::empty(fs.n_servers());
        let chunk = 5000;
        for (i, c) in data.chunks(chunk).enumerate() {
            let off = (i * chunk) as u64;
            if let Ok(report) = h.try_write_at(off, c, &mut iof) {
                charged.merge(&report);
                completed.push((off, c));
            }
        }
        assert!(iof.log.transient_faults > 0, "rate 0.4 must bite");
        assert!(!completed.is_empty());
        // Every completed chunk reads back exactly; failed chunks left
        // no partial garbage (holes read as zero, not junk).
        for (off, c) in &completed {
            let (back, _) = h.read_at(*off, c.len() as u64);
            assert_eq!(&back, c, "chunk at {off}");
        }
        // Wasted round-trips are visible in the returned reports: more
        // requests than the same writes make fault-free, but no extra
        // bytes.
        let clean = fs.create("clean").unwrap();
        let clean_reqs: u64 = completed
            .iter()
            .map(|(off, c)| clean.write_at(*off, c).total_requests())
            .sum();
        let payload: u64 = completed.iter().map(|(_, c)| c.len() as u64).sum();
        assert_eq!(charged.total_bytes(), payload, "completed writes only");
        assert!(charged.total_requests() > clean_reqs, "{charged:?}");
    }

    #[test]
    fn open_or_create_is_idempotent() {
        let fs = fs();
        let a = fs.open_or_create("x");
        a.write_at(0, b"1");
        let b = fs.open_or_create("x");
        assert_eq!(b.len(), 1);
    }
}
