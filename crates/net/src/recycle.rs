//! World-level size-classed byte-buffer recycler.
//!
//! The collective engine (`core::engine::pool`) takes every header
//! message and assembly buffer from here and retires it back; before
//! this module existed those buffers went back to the allocator, and
//! the next operation re-faulted a fresh generation of pages (at 10k+
//! ranks that is gigabytes of `mmap` / `munmap` churn per collective).
//! The recycler lives on the `World`, so those buffers survive
//! operation boundaries: a steady-state operation allocates nothing on
//! its hot path, it just circulates committed slabs.
//!
//! ## Exact-capacity classes
//!
//! Buffers are binned by their *exact* capacity, and [`BytePool::take`]
//! recycles only a bin whose capacity equals the request — a miss
//! allocates `Vec::with_capacity(cap)`, which is also exactly `cap`
//! bytes. The strictness is deliberate: a recycled buffer is
//! indistinguishable (capacity included) from a fresh allocation, so
//! which buffers sit in this shared pool, which depends on how ranks
//! interleave, never shows in what a take returns. Collective schedules
//! repeat the same message and assembly sizes across rounds and
//! operations, so exact matching still recycles the bulk of the data
//! plane.
//!
//! The pool is shared by every rank of a world, so its hit/miss and
//! retained-bytes counters depend on the rank schedule. Callers read
//! them after `World::run` returns, and they are deliberately kept out
//! of every bit-identity artifact: virtual times, file bytes, traffic
//! snapshots, and the per-rank engine counters are all computed without
//! consulting this pool's state.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use mccio_sim::hostprof::{self, HostPhase};

/// Total bytes of retired capacity the pool will pin before letting
/// further retirees drop. Generous on purpose: the point is to keep a
/// whole operation's working set committed between operations.
const DEFAULT_RETAIN_BYTES: u64 = 1 << 30;

/// Per-rank retirement headroom used by [`BytePool::for_ranks`]: a
/// collective op's message + assembly working set lands around tens of
/// KiB per rank, and a ceiling below the working set makes the *next*
/// operation re-allocate everything the ceiling refused to park.
const RETAIN_BYTES_PER_RANK: u64 = 32 * 1024;

/// Pins glibc's dynamic malloc thresholds at their maxima, once per
/// process: the 32 MiB mmap threshold and twice that for trimming, the
/// values glibc's own adaptive rule ends at.
///
/// Some buffers leave the engine and are freed by their owner instead of
/// parked here: a read's output, a workload's payload. Under glibc's
/// default, adaptive thresholds, buffers of a few hundred KiB freed that
/// way can go back to the kernel, and the next operation faults every
/// page in again: 14,849 minor faults a pass on perfbench `ior-120-2ph`
/// with two workers (2-vCPU host, glibc 2.36), whose one-sided shuffle
/// has no parked payloads left to hold the heap in place. Fixed thresholds keep such buffers inside
/// malloc's heap, committed for the next operation, as the recycler
/// keeps its own.
pub(crate) fn keep_freed_buffers_mapped() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        static ONCE: std::sync::Once = std::sync::Once::new();
        // SAFETY: plain setters of allocator tunables; glibc serialises
        // them against concurrent allocation.
        ONCE.call_once(|| unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
            mallopt(M_TRIM_THRESHOLD, 64 << 20);
        });
    }
}

#[derive(Debug)]
struct Bins {
    /// Retired buffers keyed by exact capacity.
    by_capacity: HashMap<usize, Vec<Vec<u8>>>,
    /// Sum of retained capacities across all bins.
    retained_bytes: u64,
    /// Retention ceiling (see [`DEFAULT_RETAIN_BYTES`]).
    cap_bytes: u64,
}

/// Cumulative counters; see [`BytePool::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecycleStats {
    /// Takes served from a retired buffer.
    pub hits: u64,
    /// Takes that had to allocate.
    pub misses: u64,
    /// Bytes of retired capacity currently parked in the free lists.
    pub retained_bytes: u64,
}

/// An exact-capacity-classed free list of byte buffers shared by every
/// rank of a world (see module docs).
#[derive(Debug)]
pub struct BytePool {
    bins: Mutex<Bins>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for BytePool {
    fn default() -> Self {
        BytePool::with_retain_limit(DEFAULT_RETAIN_BYTES)
    }
}

impl BytePool {
    /// A pool sized for a world of `n_ranks`: the retention ceiling
    /// scales with the rank count so one operation's full working set
    /// survives to seed the next, with `DEFAULT_RETAIN_BYTES` as the
    /// floor.
    #[must_use]
    pub fn for_ranks(n_ranks: usize) -> Self {
        BytePool::with_retain_limit(
            DEFAULT_RETAIN_BYTES.max(n_ranks as u64 * RETAIN_BYTES_PER_RANK),
        )
    }

    /// A pool that parks at most `cap_bytes` of retired capacity.
    #[must_use]
    pub fn with_retain_limit(cap_bytes: u64) -> Self {
        BytePool {
            bins: Mutex::new(Bins {
                by_capacity: HashMap::new(),
                retained_bytes: 0,
                cap_bytes,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// An empty buffer of capacity exactly `cap`: recycled from the
    /// matching bin when one is parked there, freshly allocated
    /// otherwise. Contents never leak between uses.
    pub fn take(&self, cap: usize) -> Vec<u8> {
        let _t = hostprof::timer(HostPhase::RecycleTake);
        let recycled = {
            let mut bins = self.bins.lock().expect("byte pool poisoned");
            let found = bins.by_capacity.get_mut(&cap).and_then(Vec::pop);
            if found.is_some() {
                bins.retained_bytes -= cap as u64;
            }
            found
        };
        match recycled {
            Some(mut buf) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                buf.clear();
                debug_assert_eq!(buf.capacity(), cap);
                buf
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(cap)
            }
        }
    }

    /// Retires a buffer for reuse (dropped when it holds no allocation
    /// or the retention ceiling is reached). Small buffers are binned
    /// too: a one-sided shuffle's header messages are often a few dozen
    /// bytes, and reusing them keeps a steady-state operation from
    /// allocating per message.
    pub fn put(&self, buf: Vec<u8>) {
        let _t = hostprof::timer(HostPhase::RecycleReturn);
        let cap = buf.capacity();
        if cap == 0 {
            return;
        }
        let mut bins = self.bins.lock().expect("byte pool poisoned");
        if bins.retained_bytes + cap as u64 > bins.cap_bytes {
            return;
        }
        bins.retained_bytes += cap as u64;
        bins.by_capacity.entry(cap).or_default().push(buf);
    }

    /// Cumulative counters; exact, because every rank of a world runs
    /// on one thread.
    #[must_use]
    pub fn stats(&self) -> RecycleStats {
        let bins = self.bins.lock().expect("byte pool poisoned");
        RecycleStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            retained_bytes: bins.retained_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_exact_capacity() {
        let pool = BytePool::default();
        let mut a = pool.take(1000);
        a.extend_from_slice(&[7u8; 100]);
        let ptr = a.as_ptr();
        pool.put(a);
        let b = pool.take(1000);
        assert_eq!(b.as_ptr(), ptr, "buffer not recycled");
        assert!(b.is_empty(), "recycled buffer not cleared");
        assert_eq!(b.capacity(), 1000);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn near_miss_capacities_do_not_serve() {
        let pool = BytePool::default();
        pool.put(Vec::with_capacity(4096));
        let b = pool.take(4095);
        assert_eq!(b.capacity(), 4095, "take must look like a fresh alloc");
        assert_eq!(pool.stats().hits, 0);
        assert_eq!(pool.stats().misses, 1);
    }

    #[test]
    fn retention_ceiling_bounds_parked_bytes() {
        let pool = BytePool::with_retain_limit(1024);
        pool.put(Vec::with_capacity(512));
        pool.put(Vec::with_capacity(512));
        pool.put(Vec::with_capacity(512)); // over the ceiling -> dropped
        assert_eq!(pool.stats().retained_bytes, 1024);
    }

    #[test]
    fn small_buffers_are_pooled() {
        let pool = BytePool::default();
        pool.put(Vec::with_capacity(8));
        assert_eq!(pool.stats().retained_bytes, 8);
        let b = pool.take(8);
        assert_eq!(b.capacity(), 8);
        assert_eq!(pool.stats().hits, 1);
    }
}
