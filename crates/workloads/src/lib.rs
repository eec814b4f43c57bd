//! # mccio-workloads — the paper's benchmarks as access-pattern
//! generators
//!
//! The evaluation workloads, reimplemented as pure functions from
//! `(rank, nprocs)` to file extents:
//!
//! * [`coll_perf`] — ROMIO's `coll_perf`: a 3-D block-distributed array
//!   written/read as a row-major global file (Figure 6);
//! * [`ior`] — LLNL's IOR in interleaved, segmented, and random modes
//!   (Figures 7 and 8);
//! * [`synthetic`] — randomized noncontiguous patterns for stress and
//!   property tests;
//! * [`data`] — offset-deterministic fill/verify so every strategy's
//!   output is checkable byte-for-byte without coordination.
//!
//! The [`Workload`] trait unifies them for the experiment harness.

#![warn(missing_docs)]

pub mod coll_perf;
pub mod data;
pub mod fs_test;
pub mod ior;
pub mod synthetic;
pub mod tile_io;

use mccio_mpiio::ExtentList;

pub use coll_perf::CollPerf;
pub use fs_test::FsTest;
pub use ior::{Ior, IorMode};
pub use synthetic::Synthetic;
pub use tile_io::TileIo;

/// A workload: a deterministic map from rank to file extents.
///
/// `Send + Sync` because the harness evaluates extents from every rank
/// of a shared world.
pub trait Workload: Send + Sync {
    /// The extents rank `rank` of `nprocs` accesses.
    fn extents(&self, rank: usize, nprocs: usize) -> ExtentList;

    /// A short name for tables.
    fn name(&self) -> String;

    /// Total bytes across all ranks.
    fn total_bytes(&self, nprocs: usize) -> u64 {
        (0..nprocs)
            .map(|r| self.extents(r, nprocs).total_bytes())
            .sum()
    }
}

impl Workload for CollPerf {
    fn extents(&self, rank: usize, nprocs: usize) -> ExtentList {
        assert_eq!(
            nprocs,
            self.nprocs(),
            "coll_perf grid expects {} ranks",
            self.nprocs()
        );
        CollPerf::extents(self, rank)
    }

    fn name(&self) -> String {
        format!(
            "coll_perf {}x{}x{} grid {}x{}x{}",
            self.dims[0], self.dims[1], self.dims[2], self.grid[0], self.grid[1], self.grid[2]
        )
    }
}

impl Workload for Ior {
    fn extents(&self, rank: usize, nprocs: usize) -> ExtentList {
        Ior::extents(self, rank, nprocs)
    }

    fn name(&self) -> String {
        let mode = match self.mode {
            IorMode::Interleaved => "interleaved",
            IorMode::Segmented => "segmented",
            IorMode::Random(_) => "random",
        };
        format!(
            "IOR {mode} block={} segments={}",
            self.block_size, self.segment_count
        )
    }
}

impl Workload for Synthetic {
    fn extents(&self, rank: usize, _nprocs: usize) -> ExtentList {
        Synthetic::extents(self, rank)
    }

    fn name(&self) -> String {
        format!(
            "synthetic {}x[{}, {}] per rank",
            self.extents_per_rank, self.min_len, self.max_len
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_objects_unify_the_workloads() {
        let workloads: Vec<Box<dyn Workload>> = vec![
            Box::new(CollPerf::cube(8, 8, 4)),
            Box::new(Ior::new(64, 4, IorMode::Interleaved)),
            Box::new(Synthetic::new(10_000, 4, 8, 32, 1)),
        ];
        for w in &workloads {
            assert!(!w.name().is_empty());
            assert!(w.total_bytes(8) > 0);
            assert!(!w.extents(0, 8).is_empty());
        }
    }

    #[test]
    fn total_bytes_matches_per_rank_sums() {
        let ior = Ior::new(128, 4, IorMode::Interleaved);
        assert_eq!(Workload::total_bytes(&ior, 6), 6 * 4 * 128);
        let cp = CollPerf::cube(8, 8, 4);
        assert_eq!(Workload::total_bytes(&cp, 8), cp.file_bytes());
    }

    #[test]
    #[should_panic(expected = "expects 8 ranks")]
    fn coll_perf_rank_count_enforced() {
        let cp = CollPerf::cube(8, 8, 4);
        let _ = Workload::extents(&cp, 0, 9);
    }
}
