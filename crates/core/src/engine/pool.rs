//! The op's counted handle on the world recycler
//! ([`mccio_net::BytePool`]).
//!
//! Every buffer the round loop needs — the header messages it sends,
//! the assembly and fetched-window buffers it loans — is taken from the
//! recycler and retired back into it, sized from the scheduled byte
//! counts, so a steady-state operation allocates nothing. Shuffled bytes
//! never pass through it: they are copied one-sided between their
//! owner's buffer and the file window. Buffer *contents* never leak
//! between uses: [`BufferPool::take`] returns an empty buffer and
//! [`BufferPool::loan_filled`] a zero-filled one, exactly what fresh
//! allocation produces — pooling is invisible to the wire format, the
//! file bytes, and virtual time.
//!
//! ## Leak safety
//!
//! Loop-local buffers are handed out as [`PoolLoan`] RAII guards that
//! return themselves on drop, so an early `?`-return from a faulted
//! storage access cannot strand a buffer outside the pool. Header
//! messages leave the rank, so they use the untracked
//! [`BufferPool::take`] / [`BufferPool::put`] pair.
//! [`BufferPool::loans_outstanding`] counts live loans; the epilogue
//! asserts it is zero so any future leak fails loudly instead of
//! silently bloating allocation.

use std::cell::Cell;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use mccio_net::BytePool;

/// Lifetime counters of one op's pool. Both are deterministic per-rank
/// facts: they count this rank's own calls, never what the shared
/// recycler had parked.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct PoolStats {
    /// Buffers taken from the world recycler.
    pub(super) takes: u64,
    /// Buffers retired into the world recycler.
    pub(super) returns: u64,
}

/// The op's handle on the world recycler (see module docs). Interior
/// mutability (the pool lives in the per-rank `OpState` and is only ever
/// touched by its own rank) lets loans borrow the pool while the round
/// loop keeps using it.
#[derive(Debug, Default)]
pub(super) struct BufferPool {
    shared: Arc<BytePool>,
    takes: Cell<u64>,
    returns: Cell<u64>,
    /// Live [`PoolLoan`]s not yet returned.
    outstanding: Cell<u64>,
}

impl BufferPool {
    /// A pool drawing from and retiring into `shared`.
    pub(super) fn backed(shared: Arc<BytePool>) -> Self {
        BufferPool {
            shared,
            ..BufferPool::default()
        }
    }

    /// An empty buffer of capacity `cap`. Untracked: for buffers whose
    /// ownership leaves this rank (header messages). Pair with
    /// [`BufferPool::put`] where the buffer comes back.
    pub(super) fn take(&self, cap: usize) -> Vec<u8> {
        self.takes.set(self.takes.get() + 1);
        self.shared.take(cap)
    }

    /// Retires a buffer into the world recycler.
    pub(super) fn put(&self, buf: Vec<u8>) {
        self.returns.set(self.returns.get() + 1);
        self.shared.put(buf);
    }

    /// A tracked, auto-returning empty buffer of capacity `cap` — the
    /// default for loop-local assembly/staging buffers.
    pub(super) fn loan(&self, cap: usize) -> PoolLoan<'_> {
        self.outstanding.set(self.outstanding.get() + 1);
        PoolLoan {
            pool: self,
            buf: Some(self.take(cap)),
        }
    }

    /// A tracked, auto-returning zero-filled buffer of exactly `len`
    /// bytes.
    pub(super) fn loan_filled(&self, len: usize) -> PoolLoan<'_> {
        let mut loan = self.loan(len);
        loan.resize(len, 0);
        loan
    }

    /// Live loans not yet dropped; the epilogue asserts this is zero.
    pub(super) fn loans_outstanding(&self) -> u64 {
        self.outstanding.get()
    }

    /// The final counters.
    pub(super) fn finish(self) -> PoolStats {
        PoolStats {
            takes: self.takes.get(),
            returns: self.returns.get(),
        }
    }
}

/// RAII loan of a pooled buffer: derefs to `Vec<u8>` and returns itself
/// to the pool on drop — including drops driven by `?`-propagation out
/// of a faulted round.
#[derive(Debug)]
pub(super) struct PoolLoan<'p> {
    pool: &'p BufferPool,
    buf: Option<Vec<u8>>,
}

impl Deref for PoolLoan<'_> {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        self.buf.as_ref().expect("loan present until drop")
    }
}

impl DerefMut for PoolLoan<'_> {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        self.buf.as_mut().expect("loan present until drop")
    }
}

impl Drop for PoolLoan<'_> {
    fn drop(&mut self) {
        let buf = self.buf.take().expect("loan returned exactly once");
        let pool = self.pool;
        pool.outstanding.set(pool.outstanding.get() - 1);
        pool.put(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_recycle_cleared_through_the_shared_pool() {
        let shared = Arc::new(BytePool::default());
        let pool = BufferPool::backed(Arc::clone(&shared));
        let mut a = pool.take(64);
        a.extend_from_slice(&[7u8; 64]);
        let ptr = a.as_ptr();
        pool.put(a);
        let next = BufferPool::backed(Arc::clone(&shared));
        let b = next.loan_filled(64);
        assert_eq!((b.as_ptr(), b.as_slice()), (ptr, &[0u8; 64][..]));
        assert_eq!(shared.stats().hits, 1);
        let s = pool.finish();
        assert_eq!((s.takes, s.returns), (1, 1));
    }

    #[test]
    fn loans_return_on_drop_even_mid_error_path() {
        let pool = BufferPool::default();
        let attempt = |pool: &BufferPool| -> Result<(), ()> {
            let mut a = pool.loan(128);
            a.extend_from_slice(&[1, 2, 3]);
            let _b = pool.loan_filled(16);
            assert_eq!(pool.loans_outstanding(), 2);
            Err(())?; // early exit: the loans must still come home
            Ok(())
        };
        assert!(attempt(&pool).is_err());
        assert_eq!(pool.loans_outstanding(), 0, "loans returned on unwind");
        let s = pool.finish();
        assert_eq!((s.takes, s.returns), (2, 2));
    }
}
