//! Allocation gate for the data plane: a steady-state collective write
//! plus read of a many-piece pattern allocates a fixed, small number of
//! times and bytes, and leaves nothing live.
//!
//! The pattern is coll_perf's: a 48³ array of 4-byte elements in 3×3×3
//! blocks on 27 ranks, so each rank's request is 256 rows of 64 bytes
//! and every shuffle message announces many pieces. The shuffle is
//! one-sided: aggregators copy each section between its owner's exposed
//! buffer and the file window, and what travels is only section headers,
//! encoded once per communication schedule and sent as slices of that
//! encoding, which receivers compare with their own. So neither a
//! message nor a piece allocates; what is left per op is per rank or per
//! round (output buffer, send and receive lists, round facts). A
//! counting global allocator measures warm passes, after a first pass
//! has built the plans, the schedules and the stack slab.
//!
//! The bounds:
//!
//! * 1,000 allocations for a write+read pass. It allocates 768 times on
//!   the canonical schedule (831 when each header message was a buffer
//!   taken from a world recycler); the code that decoded every received
//!   payload into per-section piece vectors allocated 1,428.
//! * 1 MiB allocated by a write+read pass. It allocates 764,285 bytes,
//!   442,368 of them the read outputs; a payload materialised per
//!   message would add the shuffled bytes again for each direction.
//! * Nothing left live by a write+read pass: it measures 0 bytes, so a
//!   repeated op keeps nothing of what it allocates.
//! * 430 allocations and 192 KiB for a write-only pass. It allocates
//!   391 times and 168,084 bytes; a buffer per header message would add
//!   about 90 allocations, and materialising the write payloads another
//!   221,184 bytes.
//!
//! This binary holds one test, so no other test thread allocates while
//! it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use mccio_suite::core::prelude::*;
use mccio_suite::net::ExecutorKind;
use mccio_suite::sim::cost::CostModel;
use mccio_suite::sim::topology::{test_cluster, FillOrder, Placement};
use mccio_suite::sim::units::KIB;
use mccio_suite::workloads::{data, CollPerf};

/// Counts every allocation and reallocation, and the bytes live.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
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

/// Bytes one warm write+read pass may leave live (see module docs).
const WARM_PASS_LIVE: i64 = 0;

/// Allocations one warm write-only pass may make (see module docs).
const WRITE_PASS_BOUND: u64 = 430;

/// Bytes one warm write-only pass may allocate (see module docs).
const WRITE_PASS_BYTES: u64 = 192 << 10;

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
    // One pass: the write, then the read and its check unless
    // `write_only`. Returns (allocations, bytes allocated, bytes left live).
    let pass = |write_only: bool| {
        let before = (
            ALLOCS.load(Ordering::Relaxed),
            BYTES.load(Ordering::Relaxed),
            LIVE.load(Ordering::Relaxed),
        );
        let correct = world
            .run(|ctx| {
                let env = env.clone();
                let handle = env.fs.open_or_create("coll_perf");
                let (mine, payload) = (&extents[ctx.rank()], &payloads[ctx.rank()]);
                let _ = write_all(ctx, &env, &handle, mine, payload, &strategy);
                write_only || read_all(ctx, &env, &handle, mine, &strategy).0 == *payload
            })
            .iter()
            .all(|&ok| ok);
        assert!(correct, "a rank read back wrong bytes");
        (
            ALLOCS.load(Ordering::Relaxed) - before.0,
            BYTES.load(Ordering::Relaxed) - before.1,
            LIVE.load(Ordering::Relaxed) - before.2,
        )
    };
    pass(false); // cold: plans, schedules, stack slab
    let (warm, bytes, live) = pass(false);
    let (write_warm, write_bytes, _) = pass(true);
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
    assert!(
        live <= WARM_PASS_LIVE,
        "a warm write+read pass over {RANKS} ranks left {live} bytes live \
         (bound {WARM_PASS_LIVE}); a repeated op must not keep what it allocates"
    );
    assert!(
        write_warm <= WRITE_PASS_BOUND,
        "a warm write-only pass over {RANKS} ranks allocated {write_warm} times \
         (bound {WRITE_PASS_BOUND}); a header message must not allocate"
    );
    assert!(
        write_bytes <= WRITE_PASS_BYTES,
        "a warm write-only pass over {RANKS} ranks allocated {write_bytes} bytes \
         (bound {WRITE_PASS_BYTES})"
    );
}
