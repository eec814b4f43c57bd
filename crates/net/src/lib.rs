//! # mccio-net — SPMD rank engine with virtual-time message passing
//!
//! MPI bindings for Rust are immature and the reproduction needs no real
//! cluster: collective I/O is a data-movement algorithm whose correctness
//! and traffic pattern are fully exercised in-process. This crate runs
//! one closure per rank ([`World::run`]) as a cooperative task on a
//! discrete-event scheduler that scales to 100k ranks on a single
//! thread — on its canonical schedule, or on seeded explorations of
//! other legal schedules ([`ExecutorKind`]) that differential tests
//! hold to the canonical results bit for bit — gives each rank a
//! [`Ctx`] with point-to-point messaging and MPI-style collectives over
//! arbitrary [`RankSet`]s, and keeps a *virtual* clock per rank:
//!
//! * there is one message kind: every send ([`Ctx::send_ctl`]) and every
//!   collective moves driver metadata or section headers and enforces
//!   causality (a receiver can never observe a message "before" it was
//!   sent) but charges no transfer time, because collective-I/O drivers
//!   price whole shuffle rounds analytically with
//!   [`mccio_sim::CostModel::shuffle_phase`] — that keeps virtual time
//!   deterministic regardless of rank scheduling;
//! * the [`engine::Traffic`] counters count every message, and the
//!   bytes each [`Ctx::exchange`] message stands for, so experiments
//!   can report shuffle volumes and per-node NIC pressure.
//!
//! Message matching follows MPI semantics: receives match on
//! `(source, tag)` with non-overtaking order per pair. Like an MPI
//! library's posted-receive and unexpected-message queues, a send to a
//! rank parked on exactly its pair is handed over directly, and any
//! other send waits in the receiver's per-run [`mailbox`]; the control
//! plane allocates nothing per message either way.

#![warn(missing_docs)]

pub mod collective;
pub mod engine;
mod executor;
pub mod group;
pub mod mailbox;
pub mod rma;
pub mod wire;

pub use collective::INTERNAL_TAG_BASE;
pub use engine::{BytePool, Ctx, ExecutorKind, RecycleStats, Traffic, TrafficSnapshot, World};
pub use executor::{slab_stats, thread_slab, SlabStats};
pub use group::RankSet;
pub use rma::Exposure;
