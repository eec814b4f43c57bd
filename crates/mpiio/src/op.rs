//! [`Op`]: one access's direction together with the caller's buffer.
//!
//! Every driver above the storage layer — this crate's per-rank kernels,
//! and the collective engine, the degradation ladder and the strategies
//! one crate up — serves both directions through one function that takes
//! an `Op`, the way MPI-IO describes an access once and serves it either
//! way.

/// The direction of one access and this rank's buffer for it, its
/// extents' bytes packed in offset order.
#[derive(Debug)]
pub enum Op<'a> {
    /// Stores these bytes.
    Write(&'a [u8]),
    /// Loads into this vector, which must arrive empty and is left
    /// empty by an attempt that fails.
    Read(&'a mut Vec<u8>),
}

impl Op<'_> {
    /// True for [`Op::Write`].
    #[must_use]
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Write(_))
    }

    /// The same op over a shorter borrow, so one op can be handed to
    /// several attempts in turn.
    pub fn reborrow(&mut self) -> Op<'_> {
        match self {
            Op::Write(data) => Op::Write(data),
            Op::Read(out) => Op::Read(out),
        }
    }

    /// Checks the read-output contract at an operation's entry.
    ///
    /// # Panics
    /// Panics if this is a read whose vector is not empty: its bytes
    /// would be mistaken for the ones read.
    pub fn assert_fresh(&self) {
        if let Op::Read(out) = self {
            assert!(
                out.is_empty(),
                "a read fills an empty vector, got one holding {} bytes",
                out.len()
            );
        }
    }
}
