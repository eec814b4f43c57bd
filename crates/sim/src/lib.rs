//! # mccio-sim — simulation foundation for MC-CIO
//!
//! This crate holds everything the rest of the workspace agrees on:
//!
//! * [`time`] — virtual (logical) time used by every simulated component;
//! * [`units`] — byte/bandwidth unit constants and pretty-printing;
//! * [`topology`] — cluster descriptions (nodes, cores, memory, NICs) and
//!   rank placement;
//! * [`cost`] — the analytic cost model that converts data-movement volumes
//!   into virtual time (network shuffle phases, PFS service, memory
//!   penalties);
//! * [`projection`] — the exascale design-point table the paper motivates
//!   with (its Table 1) plus the memory-per-core trend formula;
//! * [`stats`] — small statistics helpers (Welford mean/variance,
//!   min/max, coefficient of variation) used by the memory ledger and
//!   the experiment harness;
//! * [`rng`] — deterministic seeded random generation (an in-tree
//!   SplitMix64 + xoshiro256++ generator), including the Normal sampler
//!   used for per-node memory variance (the paper draws aggregation
//!   buffer sizes from a Normal distribution with σ = 50);
//! * [`fault`] — deterministic fault injection: scheduled memory
//!   revocation, seeded transient PFS failures, server slowdowns,
//!   stragglers, and the retry policy that governs recovery;
//! * [`sync`] — poison-absorbing wrappers over `std::sync` used by the
//!   concurrent layers above;
//! * [`causal`] — message causality: the sender's snapshot each message
//!   carries, the blame-chain frontier each rank owns, and the hook
//!   through which the network engine reports deliveries to an observer
//!   (implemented by `obs::causal`) without a dependency cycle;
//! * [`hash`] — FNV-1a, the one in-tree hash (payload checksums, cache
//!   keys, RNG stream labels, file and blame-chain fingerprints);
//! * [`hostprof`] — the host-wall profiler: process-global scoped
//!   timers around the simulator's own hot phases (executor
//!   scheduling, plan/schedule build, extent codec, storage hop),
//!   free when disabled;
//! * [`vmem`] — the raw `mmap`/`madvise` calls behind the executor's
//!   stack slab and the file store's reservations;
//! * [`error`] — the shared error type.
//!
//! Nothing in this crate performs I/O or spawns threads (the [`sync`]
//! test suite aside); apart from [`vmem`]'s mappings it is pure data
//! and arithmetic, which keeps the higher layers deterministic and easy
//! to property-test.

#![warn(missing_docs)]

pub mod causal;
pub mod cost;
pub mod error;
pub mod fault;
pub mod hash;
pub mod hostprof;
pub mod projection;
pub mod rng;
pub mod stats;
pub mod sync;
pub mod time;
pub mod topology;
pub mod units;
pub mod vmem;

pub use cost::CostModel;
pub use error::{SimError, SimResult};
pub use fault::{FaultPlan, RetryPolicy};
pub use time::VTime;
pub use topology::{ClusterSpec, NodeSpec, Placement};
