//! Property tests for the compact extent codec and its consumers, plus
//! the steady-state reuse of the executor's coroutine stacks.
//!
//! * the delta varint wire form round-trips arbitrary canonical extent
//!   lists and stays a fraction of the fixed-width form's size;
//! * [`ExtentTable`] assembled from compact parts is indistinguishable
//!   from one assembled from owned lists;
//! * [`TouchIndex`] window queries agree with a naive every-member scan;
//! * `CollectivePlan::domains_overlapping` agrees with a naive
//!   every-domain scan;
//! * a repeated collective operation re-enters the cached coroutine
//!   stack slab (zero fresh stacks). Its allocations are bounded in
//!   `tests/data_plane_allocs.rs`, which counts them.
//!
//! Cases come from the workspace's seeded PRNG; failures reproduce by
//! case index.

use mccio_suite::core::plan::{CollectivePlan, DomainPlan};
use mccio_suite::core::prelude::*;
use mccio_suite::mpiio::{ExtentTable, TouchIndex};
use mccio_suite::net::ExecutorKind;
use mccio_suite::sim::cost::CostModel;
use mccio_suite::sim::rng::{stream_rng, Rng};
use mccio_suite::sim::topology::{test_cluster, FillOrder, Placement};
use mccio_suite::sim::units::KIB;
use mccio_suite::workloads::data;

/// A random canonical list: ascending, coalesced, up to `n_max` extents
/// spread over offsets as large as 2^48.
fn random_list(rng: &mut impl Rng, n_max: usize) -> ExtentList {
    let n = rng.gen_range(0usize..=n_max);
    ExtentList::normalize(
        (0..n)
            .map(|_| {
                let offset = rng.gen_range(0u64..=1 << 48);
                let len = rng.gen_range(0u64..=64 * KIB);
                Extent::new(offset, len)
            })
            .collect(),
    )
}

#[test]
fn compact_codec_roundtrips_random_lists() {
    let mut rng = stream_rng(0xC0DEC, "extent-codec-roundtrip");
    for case in 0..500 {
        let list = random_list(&mut rng, 24);
        let bytes = list.encode_compact();
        let back = ExtentList::decode_compact(&bytes);
        assert_eq!(back, list, "case {case}");
    }
}

#[test]
fn compact_codec_handles_the_edges() {
    for list in [
        ExtentList::default(),
        ExtentList::normalize(vec![Extent::new(0, 1)]),
        ExtentList::normalize(vec![Extent::new(u64::MAX - 8, 8)]),
        ExtentList::normalize(vec![Extent::new(0, 1), Extent::new(u64::MAX - 1, 1)]),
    ] {
        let back = ExtentList::decode_compact(&list.encode_compact());
        assert_eq!(back, list);
    }
}

/// Strided patterns (the collective-I/O common case) must beat the
/// fixed-width 16-bytes-per-extent wire form by a wide margin.
#[test]
fn compact_codec_is_compact_on_strided_patterns() {
    let list = ExtentList::normalize(
        (0..1000u64)
            .map(|i| Extent::new(i * 4096, 1024))
            .collect::<Vec<_>>(),
    );
    let compact = list.encode_compact().len();
    let fixed = list.as_slice().len() * 16;
    assert!(
        compact * 3 <= fixed,
        "compact {compact}B vs fixed {fixed}B: delta varints lost their advantage"
    );
}

#[test]
fn extent_table_from_compact_parts_matches_from_lists() {
    let mut rng = stream_rng(0x7AB1E, "extent-table-parts");
    for case in 0..100 {
        let lists: Vec<ExtentList> = (0..rng.gen_range(1usize..=12))
            .map(|_| random_list(&mut rng, 12))
            .collect();
        let from_lists = ExtentTable::from_lists(lists.clone());
        let mut from_parts = ExtentTable::new();
        for l in &lists {
            from_parts.push_compact(&l.encode_compact());
        }
        assert_eq!(from_parts, from_lists, "case {case}");
        assert_eq!(from_lists.len(), lists.len(), "case {case}");
        for (i, l) in lists.iter().enumerate() {
            assert_eq!(
                from_lists.view(i).as_slice(),
                l.as_slice(),
                "case {case} member {i}"
            );
        }
    }
}

#[test]
fn touch_index_agrees_with_naive_member_scan() {
    let mut rng = stream_rng(0x70C4, "touch-index-vs-scan");
    for case in 0..60 {
        let lists: Vec<ExtentList> = (0..rng.gen_range(1usize..=20))
            .map(|_| random_list(&mut rng, 8))
            .collect();
        let table = ExtentTable::from_lists(lists.clone());
        let index = TouchIndex::build(&table);
        let mut out: Vec<u32> = Vec::new();
        for probe in 0..40 {
            let window = Extent::new(
                rng.gen_range(0u64..=1 << 48),
                rng.gen_range(0u64..=256 * KIB),
            );
            out.clear();
            index.members_touching(window, &mut out);
            out.sort_unstable();
            out.dedup();
            let naive: Vec<u32> = lists
                .iter()
                .enumerate()
                .filter(|(_, l)| l.overlaps(window))
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(out, naive, "case {case} probe {probe} window {window:?}");
        }
    }
}

#[test]
fn domains_overlapping_agrees_with_naive_domain_scan() {
    let mut rng = stream_rng(0xD0AA, "domains-overlapping-vs-scan");
    for case in 0..60 {
        // Ascending, non-overlapping domains with random gaps.
        let mut cursor = 0u64;
        let domains: Vec<DomainPlan> = (0..rng.gen_range(1usize..=30))
            .map(|_| {
                cursor += rng.gen_range(0u64..=8 * KIB);
                let len = rng.gen_range(1u64..=16 * KIB);
                let d = DomainPlan {
                    domain: Extent::new(cursor, len),
                    aggregator: 0,
                    buffer: 4 * KIB,
                    group: 0,
                };
                cursor += len;
                d
            })
            .collect();
        let plan = CollectivePlan { domains };
        let extents = ExtentList::normalize(
            (0..rng.gen_range(0usize..=10))
                .map(|_| {
                    Extent::new(
                        rng.gen_range(0u64..=cursor + 4 * KIB),
                        rng.gen_range(0u64..=8 * KIB),
                    )
                })
                .collect::<Vec<_>>(),
        );
        let fast = plan.domains_overlapping(extents.as_slice());
        let naive: Vec<usize> = plan
            .domains
            .iter()
            .enumerate()
            .filter(|(_, d)| extents.overlaps(d.domain))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(fast, naive, "case {case}");
    }
}

/// A repeat of an operation re-enters the event executor's committed
/// stack slab instead of committing a fresh one.
#[test]
fn steady_state_op_is_allocation_free() {
    const RANKS: usize = 8;
    let cluster = test_cluster(2, RANKS / 2);
    let placement = Placement::new(&cluster, RANKS, FillOrder::Block).unwrap();
    let world = World::with_executor(
        CostModel::new(cluster.clone()),
        placement,
        ExecutorKind::Event,
    );
    let env = IoEnv::new(
        FileSystem::new(2, 8 * KIB, PfsParams::default()),
        MemoryModel::with_available_variance(&cluster, 16 << 20, 8 << 20, 64 * KIB),
    );
    let tuning = Tuning {
        n_ah: 2,
        msg_ind: 64 * KIB,
        mem_min: 128 * KIB,
        msg_group: 256 * KIB,
    };
    let strategy = MemoryConscious(MccioConfig::new(tuning, 32 * KIB, 8 * KIB));
    let one_op = |world: &std::sync::Arc<World>| {
        world.run(|ctx| {
            let env = env.clone();
            let handle = env.fs.open_or_create("steady");
            let extents =
                ExtentList::normalize(vec![Extent::new(ctx.rank() as u64 * 16 * KIB, 16 * KIB)]);
            let payload = data::fill(&extents);
            let _ = write_all(ctx, &env, &handle, &extents, &payload, &strategy);
        });
    };

    one_op(&world); // first generation: commits the slab
    let slab_warm = mccio_suite::net::slab_stats();

    one_op(&world); // steady state
    let slab_steady = mccio_suite::net::slab_stats();

    assert_eq!(
        slab_steady.fresh, slab_warm.fresh,
        "steady-state op committed a fresh stack slab"
    );
    assert_eq!(
        slab_steady.reused,
        slab_warm.reused + RANKS as u64,
        "steady-state op did not re-enter the cached stack slab"
    );
}
