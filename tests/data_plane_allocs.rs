//! Allocation gate for the data plane: a steady-state collective write
//! plus read of a many-piece pattern allocates a fixed, small number of
//! times and bytes, and keeps no shuffled byte in a pooled buffer.
//!
//! The pattern is coll_perf's: a 48³ array of 4-byte elements in 3×3×3
//! blocks on 27 ranks, so each rank's request is 256 rows of 64 bytes
//! and every shuffle message announces many pieces. The shuffle is
//! one-sided: aggregators copy each section between its owner's exposed
//! buffer and the file window, and what travels is only section headers,
//! which receivers walk against their communication schedule instead of
//! decoding. So neither a message nor a piece allocates; what is left
//! per op is per rank or per round (output buffer, send lists, round
//! facts, one cursor list per aggregator round). A counting global
//! allocator measures one warm write+read pass, after a first pass has
//! built the plan, the schedules, the recycler's buffers and the stack
//! slab.
//!
//! The bounds:
//!
//! * 1,000 allocations. The pass allocates 831 times on the canonical
//!   schedule; the code that decoded every received payload into
//!   per-section piece vectors allocated 1,428.
//! * 1 MiB allocated. The pass allocates 765,245 bytes, 442,368 of them
//!   the read outputs; a payload materialised per message would add the
//!   shuffled bytes again for each direction.
//! * 64 KiB parked in the world recycler after the pass: 58,640 bytes of
//!   header-message and assembly buffers. The pooled two-sided payloads
//!   kept 544,816.
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
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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

/// Bytes one warm write+read pass may allocate (see module docs).
const WARM_PASS_BYTES: u64 = 1 << 20;

/// Bytes the world recycler may hold after the warm pass (see module
/// docs).
const RETAINED_BYTES: u64 = 64 << 10;

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
        let before = (
            ALLOCS.load(Ordering::Relaxed),
            BYTES.load(Ordering::Relaxed),
        );
        let correct = world.run(|ctx| {
            let env = env.clone();
            let handle = env.fs.open_or_create("coll_perf");
            let (mine, payload) = (&extents[ctx.rank()], &payloads[ctx.rank()]);
            let _ = write_all(ctx, &env, &handle, mine, payload, &strategy);
            let (back, _) = read_all(ctx, &env, &handle, mine, &strategy);
            back == *payload
        });
        let allocs = ALLOCS.load(Ordering::Relaxed) - before.0;
        let bytes = BYTES.load(Ordering::Relaxed) - before.1;
        assert!(correct.iter().all(|&ok| ok), "a rank read back wrong bytes");
        (allocs, bytes)
    };
    pass(); // cold: plans, schedules, recycler buffers, stack slab
    let (warm, bytes) = pass();
    assert!(
        warm <= WARM_PASS_BOUND,
        "a warm write+read pass over {RANKS} ranks allocated {warm} times \
         (bound {WARM_PASS_BOUND}); the receive path must not allocate per \
         message, section or piece"
    );
    assert!(
        bytes <= WARM_PASS_BYTES,
        "a warm write+read pass over {RANKS} ranks allocated {bytes} bytes \
         (bound {WARM_PASS_BYTES}); shuffled bytes must not be materialised"
    );
    let retained = world.recycler().stats().retained_bytes;
    assert!(
        retained <= RETAINED_BYTES,
        "the recycler holds {retained} bytes after a warm pass (bound \
         {RETAINED_BYTES}); shuffled bytes must not sit in pooled payloads"
    );
}
