//! # mccio-mpiio — the MPI-IO middleware layer
//!
//! ROMIO sits between the application's MPI-IO calls and the file system;
//! this crate is its counterpart over the simulated substrates:
//!
//! * [`extent`] — canonical `(offset, len)` lists, the lingua franca of
//!   every layer above;
//! * [`datatype`] — MPI derived datatypes (contiguous / vector / indexed
//!   / subarray) flattening to extents;
//! * [`fileview`] — `(displacement, filetype)` views mapping a rank's
//!   linear data stream to noncontiguous file extents;
//! * [`sieve`] — data sieving (large covering accesses + local copies),
//!   ROMIO's other classic optimization and a building block of the
//!   two-phase aggregator;
//! * [`independent`] — per-rank direct and sieved I/O drivers, the
//!   baselines collective I/O is measured against;
//! * [`op`] — [`Op`], an access's direction with its buffer, which
//!   every driver here and above takes instead of a write/read pair;
//! * [`analysis`] — the allgathered [`analysis::GroupPattern`] every
//!   collective driver plans from;
//! * [`report`] — bytes/elapsed accounting shared by all drivers.
//!
//! Collective I/O itself (two-phase and the paper's memory-conscious
//! strategy) lives one crate up, in `mccio-core`.

#![warn(missing_docs)]

pub mod analysis;
pub mod datatype;
pub mod extent;
pub mod fileview;
pub mod independent;
pub mod op;
pub mod report;
pub mod sieve;

pub use analysis::GroupPattern;
pub use datatype::{darray_block, Datatype};
pub use extent::{Extent, ExtentList, ExtentTable, ExtentsView, TouchIndex};
pub use fileview::FileView;
pub use op::Op;
pub use report::{IoReport, IoReportBuilder, OpMetrics, Resilience};
pub use sieve::SieveConfig;
