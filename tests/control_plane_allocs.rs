//! Allocation gate for the control plane: a world barrier or an
//! all-gather allocates a constant number of buffers, however many
//! ranks take part.
//!
//! Flat collectives send `n - 1` messages in and `n - 1` out. Matching
//! them must not allocate per message — a receiver parked on the
//! message's `(src, tag)` takes it by handoff, and an unexpected message
//! is stored inline in its pair's queue — so the only allocations left
//! are the all-gather root's packed buffer and its shared copy. A
//! counting global allocator measures a run of 9 barriers plus 9
//! all-gathers against a run of 1 of each on a 1,008-rank world: what
//! the run itself costs (task setup, results) cancels, and the
//! difference is 8 collectives' worth — 16 allocations on the canonical
//! schedule, up to about 26 on explored ones, where a few mailbox tables
//! grow once more.
//!
//! This binary holds one test, so no other test thread allocates while
//! it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mccio_suite::net::{ExecutorKind, World};
use mccio_suite::sim::cost::CostModel;
use mccio_suite::sim::topology::{test_cluster, FillOrder, Placement};

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

const RANKS: usize = 1008;

/// Allocations per extra barrier + all-gather pair the gate allows: the
/// root's packed buffer and its shared copy, with slack.
const PER_COLLECTIVE_PAIR: u64 = 8;

/// Allocations of one run doing `rounds` world barriers and `rounds`
/// all-gathers of empty payloads.
fn allocs_of(world: &Arc<World>, rounds: usize) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    let lens = world.run(|ctx| {
        let all = ctx.world_ranks();
        let mut len = 0;
        for _ in 0..rounds {
            ctx.barrier();
            len = ctx.group_allgather_shared(&all, Vec::new()).len();
        }
        len
    });
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    // A count, then one zero length per member.
    assert!(lens.iter().all(|&len| len == 8 * (RANKS + 1)));
    allocs
}

#[test]
fn control_plane_allocations_do_not_grow_with_rank_count() {
    let cluster = test_cluster(RANKS / 24, 24);
    let placement = Placement::new(&cluster, RANKS, FillOrder::Block).unwrap();
    // The canonical schedule hands almost every message to a parked
    // receiver; explored schedules preempt at every send, so many
    // arrive unexpected and take the queued path.
    for kind in std::iter::once(ExecutorKind::Event).chain(ExecutorKind::EXPLORED) {
        let world = World::with_executor(CostModel::new(cluster.clone()), placement.clone(), kind);
        // Warm-up: commits the stack slab and builds the world rank set.
        allocs_of(&world, 1);
        let one = allocs_of(&world, 1);
        let nine = allocs_of(&world, 9);
        let extra = nine.saturating_sub(one);
        assert!(
            extra <= 8 * PER_COLLECTIVE_PAIR,
            "{kind:?}: 8 extra barrier + all-gather pairs over {RANKS} ranks allocated \
             {extra} times ({one} for a run with 1 pair, {nine} with 9); the control \
             plane must not allocate per message"
        );
    }
}
