//! Synthetic noncontiguous access generators for stress and property
//! tests: the "large number of small and noncontiguous requests" the
//! paper names as the common pattern of scientific applications.

use mccio_mpiio::{Extent, ExtentList};
use mccio_sim::rng::{stream_rng, Rng};

/// A randomized noncontiguous workload over a rank-partitioned file.
///
/// The file is cut into `nprocs` equal slices; rank `r` makes
/// `extents_per_rank` requests of random sizes in `[min_len, max_len]`
/// at random (non-overlapping) positions inside its own slice. Writes
/// therefore never collide across ranks, while still exercising
/// irregular shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Synthetic {
    /// Bytes of file slice owned by each rank.
    pub slice_bytes: u64,
    /// Number of extents per rank.
    pub extents_per_rank: usize,
    /// Smallest extent length.
    pub min_len: u64,
    /// Largest extent length.
    pub max_len: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Synthetic {
    /// Creates a generator.
    ///
    /// # Panics
    /// Panics if the requested extents cannot fit in the slice or the
    /// length bounds are inverted/zero.
    #[must_use]
    pub fn new(
        slice_bytes: u64,
        extents_per_rank: usize,
        min_len: u64,
        max_len: u64,
        seed: u64,
    ) -> Self {
        assert!(min_len > 0 && min_len <= max_len, "bad length bounds");
        assert!(
            extents_per_rank as u64 * max_len <= slice_bytes,
            "{extents_per_rank} extents of up to {max_len} B cannot fit in {slice_bytes} B"
        );
        Synthetic {
            slice_bytes,
            extents_per_rank,
            min_len,
            max_len,
            seed,
        }
    }

    /// The extents of `rank`.
    #[must_use]
    pub fn extents(&self, rank: usize) -> ExtentList {
        let base = rank as u64 * self.slice_bytes;
        let mut rng = stream_rng(self.seed ^ rank as u64, "synthetic-extents");
        // Place extents by carving the slice into `extents_per_rank`
        // cells and jittering a random extent inside each cell; this
        // guarantees disjointness without rejection sampling.
        let cell = self.slice_bytes / self.extents_per_rank as u64;
        let mut out = Vec::with_capacity(self.extents_per_rank);
        for i in 0..self.extents_per_rank as u64 {
            let len = rng.gen_range(self.min_len..=self.max_len.min(cell));
            let slack = cell - len;
            let jitter = if slack == 0 {
                0
            } else {
                rng.gen_range(0..=slack)
            };
            out.push(Extent::new(base + i * cell + jitter, len));
        }
        ExtentList::normalize(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extents_stay_inside_the_rank_slice() {
        let s = Synthetic::new(10_000, 10, 10, 100, 42);
        for rank in 0..8 {
            let e = s.extents(rank);
            assert_eq!(e.len(), 10, "rank {rank}: {e:?}");
            let base = rank as u64 * 10_000;
            assert!(e.begin().unwrap() >= base);
            assert!(e.end().unwrap() <= base + 10_000);
        }
    }

    #[test]
    fn ranks_never_collide() {
        let s = Synthetic::new(5_000, 8, 16, 64, 7);
        let a = s.extents(0);
        let b = s.extents(1);
        assert!(a.end().unwrap() <= 5_000);
        assert!(b.begin().unwrap() >= 5_000);
    }

    #[test]
    fn deterministic_per_seed() {
        let s = Synthetic::new(10_000, 10, 10, 100, 1);
        assert_eq!(s.extents(3), s.extents(3));
        let s2 = Synthetic::new(10_000, 10, 10, 100, 2);
        assert_ne!(s.extents(3), s2.extents(3));
    }

    #[test]
    fn lengths_respect_bounds() {
        let s = Synthetic::new(100_000, 50, 5, 40, 99);
        for e in s.extents(0).as_slice() {
            assert!(e.len >= 5 && e.len <= 40, "{e:?}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn oversubscribed_slice_rejected() {
        let _ = Synthetic::new(100, 10, 20, 20, 0);
    }
}
