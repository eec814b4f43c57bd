//! # mccio-pfs — simulated Lustre-class parallel file system
//!
//! The paper evaluates on a 600 TB Lustre file system over DDN storage
//! with 1 MiB round-robin striping. This crate substitutes a
//! deterministic simulation that keeps the two properties collective I/O
//! actually interacts with:
//!
//! 1. **Real contents** — [`fs::FileHandle::write_at`] stores bytes,
//!    [`fs::FileHandle::read_into`] returns them, so every strategy is
//!    verified end-to-end byte-for-byte;
//! 2. **Request-shape-sensitive cost** — [`striping::Striping`] maps each
//!    byte range to per-server object extents exactly as Lustre's layout
//!    does, and [`service::PfsParams`] prices the resulting
//!    [`service::ServiceReport`]s: per-request fixed overhead (many small
//!    noncontiguous requests lose) vs. parallel streaming across servers
//!    (few large stripe-aligned requests win).
//!
//! Timing is a pure function of summed reports, never of thread
//! interleaving, so experiments are deterministic. There is no client
//! cache — the paper flushes caches between phases, making cold accesses
//! the behaviour of record.

#![warn(missing_docs)]

pub mod fs;
pub mod retry;
pub mod service;
pub mod striping;

pub use fs::{FileHandle, FileSystem};
pub use retry::{IoFaults, RetryLog};
pub use service::{PfsParams, ServerLoad, ServiceReport};
pub use striping::{ObjectExtent, Striping};
