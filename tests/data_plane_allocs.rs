//! Allocation gate for the data plane: a steady-state collective write
//! plus read of a many-piece pattern allocates a fixed, small number of
//! times.
//!
//! The pattern is coll_perf's: a 48³ array of 4-byte elements in 3×3×3
//! blocks on 27 ranks, so each rank's request is 256 rows of 64 bytes
//! and every shuffle payload carries many pieces. Receivers walk
//! each payload against their communication schedule instead of
//! decoding it, so neither absorbing a payload nor matching a piece to
//! its place allocates; what is left per op is per rank or per round
//! (output buffer, send lists, round facts, one cursor list per
//! aggregator round). A counting global allocator measures one warm
//! write+read pass, after a first pass has built the plan, the
//! schedules, the recycler's buffers and the stack slab.
//!
//! The bound: 1,000 allocations. The pass allocates 822 times on the
//! canonical schedule; the code that decoded every received payload
//! into per-section piece vectors allocated 1,428.
//!
//! This binary holds one test, so no other test thread allocates while
//! it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mccio_suite::core::prelude::*;
use mccio_suite::net::ExecutorKind;
use mccio_suite::sim::cost::CostModel;
use mccio_suite::sim::topology::{test_cluster, FillOrder, Placement};
use mccio_suite::sim::units::KIB;
use mccio_suite::workloads::{data, CollPerf};

/// Counts every allocation and reallocation; frees are not counted.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const RANKS: usize = 27;

/// Allocations one warm write+read pass may make (see module docs).
const WARM_PASS_BOUND: u64 = 1_000;

#[test]
fn a_warm_many_piece_pass_allocates_a_fixed_small_count() {
    let cluster = test_cluster(3, RANKS / 3);
    let placement = Placement::new(&cluster, RANKS, FillOrder::Block).unwrap();
    let world = World::with_executor(
        CostModel::new(cluster.clone()),
        placement,
        ExecutorKind::Event,
    );
    let env = IoEnv::new(
        FileSystem::new(4, 16 * KIB, PfsParams::default()),
        MemoryModel::pristine(&cluster),
    );
    let tuning = Tuning {
        n_ah: 2,
        msg_ind: 64 * KIB,
        mem_min: 128 * KIB,
        msg_group: 256 * KIB,
    };
    let strategy = MemoryConscious(MccioConfig::new(tuning, 32 * KIB, 16 * KIB));
    let workload = CollPerf::cube(48, RANKS, 4);
    let extents: Vec<ExtentList> = (0..RANKS).map(|r| workload.extents(r)).collect();
    let payloads: Vec<Vec<u8>> = extents.iter().map(data::fill).collect();
    let pass = || {
        let before = ALLOCS.load(Ordering::Relaxed);
        let correct = world.run(|ctx| {
            let env = env.clone();
            let handle = env.fs.open_or_create("coll_perf");
            let (mine, payload) = (&extents[ctx.rank()], &payloads[ctx.rank()]);
            let _ = write_all(ctx, &env, &handle, mine, payload, &strategy);
            let (back, _) = read_all(ctx, &env, &handle, mine, &strategy);
            back == *payload
        });
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        assert!(correct.iter().all(|&ok| ok), "a rank read back wrong bytes");
        allocs
    };
    pass(); // cold: plans, schedules, recycler buffers, stack slab
    let warm = pass();
    assert!(
        warm <= WARM_PASS_BOUND,
        "a warm write+read pass over {RANKS} ranks allocated {warm} times \
         (bound {WARM_PASS_BOUND}); the receive path must not allocate per \
         payload, section or piece"
    );
}
