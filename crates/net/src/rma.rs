//! One-sided access to buffers other ranks expose, in the style of MPI
//! RMA windows over user memory (`MPI_Win_create`, `MPI_Get`,
//! `MPI_Put`).
//!
//! A rank exposes one buffer at a time ([`Ctx::expose`] for bytes peers
//! may copy out, [`Ctx::expose_uninit`] for a buffer peers fill); any
//! rank of the world may then copy bytes out of it ([`Ctx::exposed`])
//! or into it ([`Ctx::put_run`]) until the returned [`Exposure`]
//! drops. The exposure borrows the buffer, so its owner cannot touch it
//! meanwhile. Every access is checked against the exposed length, and
//! an access to a rank that exposes nothing panics naming the rank.
//!
//! The table is one slot per rank, written only by its owner. Accesses
//! cannot race: every rank of a world runs on one thread, and none of
//! these calls yields. Which bytes an access touches, and that an
//! exposure outlives every borrow of it, is the caller's protocol —
//! hence the `unsafe` on [`Ctx::exposed`]; the collective engine's
//! communication schedule fixes both (`DESIGN.md` §13).

use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::sync::Arc;

use mccio_sim::vmem;

use crate::engine::{Ctx, World};

/// One rank's exposed buffer: null when it exposes nothing.
#[derive(Debug, Default)]
struct Slot {
    ptr: AtomicPtr<u8>,
    len: AtomicUsize,
    writable: AtomicBool,
}

/// Every rank's exposure slot (see the module docs).
#[derive(Debug)]
pub(crate) struct ExposureTable {
    slots: Box<[Slot]>,
}

impl ExposureTable {
    pub(crate) fn new(n_ranks: usize) -> Self {
        ExposureTable {
            slots: (0..n_ranks).map(|_| Slot::default()).collect(),
        }
    }

    /// The address of `[start, start + len)` in `rank`'s exposed buffer.
    fn range(&self, rank: usize, start: usize, len: usize, write: bool) -> *mut u8 {
        let slot = &self.slots[rank];
        let ptr = slot.ptr.load(Ordering::Relaxed);
        assert!(!ptr.is_null(), "rank {rank} exposes no buffer");
        let exposed = slot.len.load(Ordering::Relaxed);
        assert!(
            start.checked_add(len).is_some_and(|end| end <= exposed),
            "[{start}, {start} + {len}) is outside the {exposed} bytes rank {rank} exposes"
        );
        assert!(
            !write || slot.writable.load(Ordering::Relaxed),
            "rank {rank} exposes its buffer read-only"
        );
        // SAFETY: in bounds of one live allocation, checked above.
        unsafe { ptr.add(start) }
    }
}

/// A live exposure: the owner's slot empties when it drops.
#[derive(Debug)]
#[must_use = "the buffer is withdrawn as soon as the exposure drops"]
pub struct Exposure<'a> {
    world: Arc<World>,
    rank: usize,
    buf: PhantomData<&'a mut [u8]>,
}

impl Drop for Exposure<'_> {
    fn drop(&mut self) {
        let slot = &self.world.exposures().slots[self.rank];
        slot.ptr.store(std::ptr::null_mut(), Ordering::Relaxed);
        slot.len.store(0, Ordering::Relaxed);
    }
}

impl Ctx {
    fn publish(&self, ptr: *mut u8, len: usize, writable: bool) -> Exposure<'static> {
        let slot = &self.world().exposures().slots[self.rank()];
        assert!(
            slot.ptr.load(Ordering::Relaxed).is_null(),
            "rank {} already exposes a buffer",
            self.rank()
        );
        slot.ptr.store(ptr, Ordering::Relaxed);
        slot.len.store(len, Ordering::Relaxed);
        slot.writable.store(writable, Ordering::Relaxed);
        Exposure {
            world: Arc::clone(self.world()),
            rank: self.rank(),
            buf: PhantomData,
        }
    }

    /// Exposes `buf` read-only: peers may read it with [`Ctx::exposed`]
    /// until the exposure drops.
    ///
    /// # Panics
    /// Panics if this rank already exposes a buffer.
    pub fn expose<'a>(&self, buf: &'a [u8]) -> Exposure<'a> {
        // Read-only: `put_run` refuses the slot, so the cast never
        // leads to a write through the shared borrow.
        self.publish(buf.as_ptr().cast_mut(), buf.len(), false)
    }

    /// Exposes `buf` for peers to fill with [`Ctx::put_run`] until
    /// the exposure drops.
    ///
    /// # Safety
    /// No rank may read a byte of `buf` through [`Ctx::exposed`] before
    /// some rank has put it.
    ///
    /// # Panics
    /// Panics if this rank already exposes a buffer.
    pub unsafe fn expose_uninit<'a>(&self, buf: &'a mut [MaybeUninit<u8>]) -> Exposure<'a> {
        self.publish(buf.as_mut_ptr().cast(), buf.len(), true)
    }

    /// `len` bytes of `rank`'s exposed buffer from `start`.
    ///
    /// # Safety
    /// The caller drops the slice before `rank` withdraws its buffer,
    /// and no rank puts into the range while the slice lives.
    ///
    /// # Panics
    /// Panics, naming `rank`, if it exposes nothing or the range runs
    /// past what it exposes.
    #[must_use]
    pub unsafe fn exposed(&self, rank: usize, start: usize, len: usize) -> &[u8] {
        let ptr = self.world().exposures().range(rank, start, len, false);
        // SAFETY: live and in bounds (checked) and initialised (`expose`
        // takes initialised bytes, `expose_uninit`'s contract covers the
        // rest); this function's contract keeps it live and unwritten.
        unsafe { std::slice::from_raw_parts(ptr, len) }
    }

    /// A writer over `[start, start + len)` of `rank`'s exposed buffer,
    /// checked once here: the caller pushes that run's bytes in order and
    /// finishes it. It streams past the cache when the run is long
    /// ([`vmem::StreamWriter`]): the owner reads it only once the
    /// exchange is over.
    ///
    /// # Panics
    /// Panics, naming `rank`, if it exposes nothing, exposes it
    /// read-only, or the range runs past what it exposes.
    pub fn put_run(&self, rank: usize, start: usize, len: usize) -> vmem::StreamWriter<'_> {
        let dst = self.world().exposures().range(rank, start, len, true);
        // SAFETY: live, writable and in bounds (checked). The writer
        // borrows this rank's context, so it is gone before this rank
        // next yields and the owner can withdraw. A run pushed cannot be
        // the range itself: reading it takes `Ctx::exposed`, whose
        // contract forbids a put into the range while that slice lives.
        unsafe { vmem::StreamWriter::to_raw(dst, len) }
    }
}

/// Out-of-bounds and after-withdrawal accesses are covered where the
/// engine makes them, in `mccio_core`'s round-loop tests.
#[cfg(test)]
mod tests {
    use mccio_sim::cost::CostModel;
    use mccio_sim::topology::{test_cluster, FillOrder, Placement};

    use super::*;

    fn world() -> Arc<World> {
        let cluster = test_cluster(1, 2);
        World::new(
            CostModel::new(cluster.clone()),
            Placement::new(&cluster, 2, FillOrder::Block).unwrap(),
        )
    }

    #[test]
    fn peers_read_and_fill_exposed_buffers() {
        let got = world().run(|ctx| {
            let (mine, peer) = ([ctx.rank() as u8 + 1; 4], 1 - ctx.rank());
            let mut out = Vec::with_capacity(2);
            let exposure = ctx.expose(&mine);
            ctx.barrier();
            // SAFETY: the peer withdraws after the next barrier.
            let byte = unsafe { ctx.exposed(peer, 1, 1)[0] };
            ctx.barrier();
            drop(exposure);
            // SAFETY: nobody reads the output through the table.
            let exposure = unsafe { ctx.expose_uninit(out.spare_capacity_mut()) };
            ctx.barrier();
            let mut run = ctx.put_run(peer, 0, 2);
            run.push(&[byte]);
            run.push(&[byte]);
            run.finish();
            ctx.barrier();
            drop(exposure);
            // SAFETY: the peer put both bytes before the last barrier.
            unsafe { out.set_len(2) };
            out
        });
        assert_eq!(got, [vec![1, 1], vec![2, 2]]);
    }

    #[test]
    #[should_panic(expected = "rank 1 exposes its buffer read-only")]
    fn a_put_into_a_read_only_buffer_names_the_rank() {
        world().run(|ctx| {
            let _e = ctx.expose(&[0; 4]);
            ctx.barrier();
            ctx.put_run(1, 0, 1).finish();
        });
    }
}
