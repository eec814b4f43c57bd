//! Data sieving (Thakur, Gropp & Lusk): servicing a noncontiguous
//! request with a few large covering accesses plus local copies.
//!
//! A sieved *read* fetches the whole span covering a batch of extents in
//! one request and copies the wanted pieces out. A sieved *write* must
//! read-modify-write: fetch the covering span, overlay the new pieces,
//! write the span back — holding the file's RMW lock so concurrent
//! sieved writers cannot lose updates. Both process the request in
//! windows of at most `buffer_size` covered span, mirroring ROMIO's
//! bounded sieve buffer.

use mccio_pfs::{FileHandle, IoFaults, ServiceReport};
use mccio_sim::error::SimResult;

use crate::extent::{Extent, ExtentList};

/// Sieving configuration.
#[derive(Debug, Clone, Copy)]
pub struct SieveConfig {
    /// Maximum covering-span bytes fetched per access (ROMIO default
    /// ~512 KiB; we default to 4 MiB to match the simulated era).
    pub buffer_size: u64,
}

impl Default for SieveConfig {
    fn default() -> Self {
        SieveConfig {
            buffer_size: 4 * 1024 * 1024,
        }
    }
}

/// Outcome of a sieved operation: the storage request shape plus the
/// local memory traffic the copies induced (priced by the caller).
#[derive(Debug, Clone)]
pub struct SieveOutcome {
    /// Per-server request tallies of the covering accesses.
    pub report: ServiceReport,
    /// Bytes memcpy'd between the sieve buffer and user buffers.
    pub copied_bytes: u64,
    /// Bytes fetched/stored including the sieved-over holes.
    pub covered_bytes: u64,
}

/// Splits `extents` into windows whose covering span (first byte to last
/// byte, holes included) stays within `buffer_size`. A single extent
/// larger than the buffer becomes its own window (serviced in one large
/// access, as ROMIO does).
fn windows(extents: &ExtentList, buffer_size: u64) -> Vec<(Extent, Vec<Extent>)> {
    assert!(buffer_size > 0, "sieve buffer must be positive");
    let mut out: Vec<(Extent, Vec<Extent>)> = Vec::new();
    let mut current: Vec<Extent> = Vec::new();
    let mut start = 0u64;
    for &e in extents.as_slice() {
        if current.is_empty() {
            start = e.offset;
            current.push(e);
            continue;
        }
        if e.end() - start <= buffer_size {
            current.push(e);
        } else {
            let span = Extent::new(start, current.last().unwrap().end() - start);
            out.push((span, std::mem::take(&mut current)));
            start = e.offset;
            current.push(e);
        }
    }
    if !current.is_empty() {
        let span = Extent::new(start, current.last().unwrap().end() - start);
        out.push((span, current));
    }
    out
}

/// Sieved read: returns the packed data (extents in offset order) and
/// the outcome. Each covering access may transiently fail and retry per
/// `faults` ([`IoFaults::none`] never fails). A window without holes
/// is read straight into the returned buffer — no staging buffer, no
/// second copy; the staging path only runs for windows that sieve over
/// gaps. The accounting (`SieveOutcome`) is identical either way:
/// `copied_bytes` counts the bytes delivered to the caller, not the
/// staging traffic, so the fast path changes wall cost only.
///
/// # Errors
/// Propagates [`mccio_sim::SimError::TransientIo`]/`Timeout` from the
/// storage layer once the retry budget is exhausted; the whole sieved
/// operation is safe to re-drive (reads are idempotent).
pub fn sieved_read(
    handle: &FileHandle,
    extents: &ExtentList,
    cfg: SieveConfig,
    faults: &mut IoFaults,
) -> SimResult<(Vec<u8>, SieveOutcome)> {
    let mut packed = Vec::with_capacity(extents.total_bytes() as usize);
    let mut report = ServiceReport::empty(handle_servers(handle));
    let mut copied = 0u64;
    let mut covered = 0u64;
    for (span, parts) in windows(extents, cfg.buffer_size) {
        let fully_covered = parts.iter().map(|e| e.len).sum::<u64>() == span.len;
        if fully_covered {
            let start = packed.len();
            packed.resize(start + span.len as usize, 0);
            let r = handle.try_read_into(span.offset, &mut packed[start..], faults)?;
            report.merge(&r);
        } else {
            let mut buf = vec![0u8; span.len as usize];
            let r = handle.try_read_into(span.offset, &mut buf, faults)?;
            report.merge(&r);
            for e in &parts {
                let s = (e.offset - span.offset) as usize;
                packed.extend_from_slice(&buf[s..s + e.len as usize]);
            }
        }
        covered += span.len;
        copied += parts.iter().map(|e| e.len).sum::<u64>();
    }
    let outcome = SieveOutcome {
        report,
        copied_bytes: copied,
        covered_bytes: covered,
    };
    Ok((packed, outcome))
}

/// Sieved write: `data` holds the extents' bytes packed in offset
/// order. Each access may transiently fail and retry per `faults`.
///
/// # Errors
/// Propagates storage-retry exhaustion. A failure can leave earlier
/// windows already written; re-driving the whole operation is safe
/// because it rewrites the same bytes (the RMW lock is released on
/// error and retaken by the retry).
///
/// # Panics
/// Panics if `data` is shorter than the extents require.
pub fn sieved_write(
    handle: &FileHandle,
    extents: &ExtentList,
    data: &[u8],
    cfg: SieveConfig,
    faults: &mut IoFaults,
) -> SimResult<SieveOutcome> {
    assert!(
        data.len() as u64 >= extents.total_bytes(),
        "packed buffer ({} B) shorter than extents ({} B)",
        data.len(),
        extents.total_bytes()
    );
    let mut report = ServiceReport::empty(handle_servers(handle));
    let mut copied = 0u64;
    let mut covered = 0u64;
    // One RMW critical section for the whole operation: coarse but safe
    // against interleaved sieved writers on overlapping spans.
    let _rmw = handle.rmw_lock();
    let mut cursor = 0usize;
    for (span, parts) in windows(extents, cfg.buffer_size) {
        let fully_covered = parts.iter().map(|e| e.len).sum::<u64>() == span.len;
        if fully_covered {
            // No holes: the window's packed bytes are contiguous in
            // `data` — blind-write them directly, no read-modify-write
            // and no staging copy. `copied_bytes` still counts the
            // bytes moved into the window (the priced local traffic),
            // so the outcome is identical to the staged path.
            let r = handle.try_write_at(
                span.offset,
                &data[cursor..cursor + span.len as usize],
                faults,
            )?;
            report.merge(&r);
            cursor += span.len as usize;
            copied += span.len;
            covered += span.len;
            continue;
        }
        let mut buf = vec![0u8; span.len as usize];
        let r = handle.try_read_into(span.offset, &mut buf, faults)?;
        report.merge(&r);
        covered += span.len;
        for e in &parts {
            let s = (e.offset - span.offset) as usize;
            buf[s..s + e.len as usize].copy_from_slice(&data[cursor..cursor + e.len as usize]);
            cursor += e.len as usize;
            copied += e.len;
        }
        let r = handle.try_write_at(span.offset, &buf, faults)?;
        report.merge(&r);
        covered += span.len;
    }
    Ok(SieveOutcome {
        report,
        copied_bytes: copied,
        covered_bytes: covered,
    })
}

fn handle_servers(handle: &FileHandle) -> usize {
    handle.n_servers()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccio_pfs::{FileSystem, PfsParams};

    fn fs() -> FileSystem {
        FileSystem::new(2, 64, PfsParams::default())
    }

    fn write(h: &FileHandle, extents: &ExtentList, data: &[u8], cfg: SieveConfig) -> SieveOutcome {
        sieved_write(h, extents, data, cfg, &mut IoFaults::none()).unwrap()
    }

    fn read(h: &FileHandle, extents: &ExtentList) -> (Vec<u8>, SieveOutcome) {
        sieved_read(h, extents, SieveConfig::default(), &mut IoFaults::none()).unwrap()
    }

    fn pattern(data_len: u64, gap: u64, count: u64) -> ExtentList {
        ExtentList::normalize(
            (0..count)
                .map(|i| Extent::new(i * (data_len + gap), data_len))
                .collect(),
        )
    }

    #[test]
    fn sieved_write_then_read_roundtrips() {
        let f = fs();
        let h = f.create("x").unwrap();
        let extents = pattern(10, 7, 5);
        let data: Vec<u8> = (0..50u8).collect();
        let w = write(&h, &extents, &data, SieveConfig::default());
        assert_eq!(w.copied_bytes, 50);
        let (back, r) = read(&h, &extents);
        assert_eq!(back, data);
        assert_eq!(r.copied_bytes, 50);
    }

    #[test]
    fn sieving_reduces_request_count() {
        let f = fs();
        let h = f.create("x").unwrap();
        // Pre-fill so reads have substance.
        h.write_at(0, &vec![9u8; 1000]);
        let extents = pattern(4, 4, 50); // 50 tiny extents over 400 B
        let (_, sieved) = read(&h, &extents);
        // Direct would need ≥50 requests; the sieve needs the covering
        // span only (≤ a handful of striped requests).
        assert!(
            sieved.report.total_requests() < 15,
            "sieve issued {} requests",
            sieved.report.total_requests()
        );
        assert!(sieved.covered_bytes >= 396);
    }

    #[test]
    fn write_holes_preserve_existing_bytes() {
        let f = fs();
        let h = f.create("x").unwrap();
        h.write_at(0, &[0xAAu8; 30]);
        let extents = ExtentList::normalize(vec![Extent::new(5, 5), Extent::new(20, 5)]);
        let _ = write(
            &h,
            &extents,
            &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
            SieveConfig::default(),
        );
        let (all, _) = h.read_at(0, 30);
        assert_eq!(&all[0..5], &[0xAA; 5]);
        assert_eq!(&all[5..10], &[1, 2, 3, 4, 5]);
        assert_eq!(&all[10..20], &[0xAA; 10]);
        assert_eq!(&all[20..25], &[6, 7, 8, 9, 10]);
        assert_eq!(&all[25..30], &[0xAA; 5]);
    }

    #[test]
    fn fully_covered_window_skips_the_read() {
        let f = fs();
        let h = f.create("x").unwrap();
        let extents = ExtentList::normalize(vec![Extent::new(0, 128)]);
        let out = write(&h, &extents, &[7u8; 128], SieveConfig::default());
        // 128 B over 2 servers with 64 B stripes = 2 write requests, no
        // read-back.
        assert_eq!(out.report.total_requests(), 2);
        assert_eq!(out.covered_bytes, 128);
    }

    #[test]
    fn window_splitting_respects_buffer_size() {
        let extents = pattern(10, 90, 10); // spans 0..910
        let w = windows(&extents, 250);
        assert!(w.len() >= 4, "got {} windows", w.len());
        for (span, parts) in &w {
            assert!(span.len <= 250 || parts.len() == 1);
            let total: u64 = parts.iter().map(|e| e.len).sum();
            assert!(total > 0);
        }
        // Every extent appears exactly once across windows.
        let n: usize = w.iter().map(|(_, p)| p.len()).sum();
        assert_eq!(n, 10);
    }

    #[test]
    fn oversized_single_extent_gets_own_window() {
        let extents = ExtentList::normalize(vec![Extent::new(0, 1000), Extent::new(2000, 10)]);
        let w = windows(&extents, 100);
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].0, Extent::new(0, 1000));
    }

    #[test]
    fn concurrent_sieved_writers_do_not_lose_updates() {
        let f = fs();
        let h = f.create("x").unwrap();
        h.write_at(0, &vec![0u8; 400]);
        // Interleaved extent sets within the same spans.
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = h.clone();
                s.spawn(move || {
                    let extents = ExtentList::normalize(
                        (0..10).map(|i| Extent::new(i * 40 + t * 10, 10)).collect(),
                    );
                    let data = vec![t as u8 + 1; 100];
                    let _ = write(&h, &extents, &data, SieveConfig { buffer_size: 80 });
                });
            }
        });
        let (all, _) = h.read_at(0, 400);
        for (i, &b) in all.iter().enumerate() {
            let expected = (i % 40) / 10 + 1;
            assert_eq!(b as usize, expected, "byte {i}");
        }
    }
}
