//! Pins the executor's schedule by its resume count: a fixed 1,008-rank
//! program of barriers, allgathers and broadcasts must resume its tasks
//! exactly as often as it always has, on the canonical schedule and on
//! an explored one. A run queue that pops in any other order makes a
//! root find its messages queued, or park where it did not, and moves
//! the count.
//!
//! `slab_stats().resumes` counts over the whole process, so this file
//! holds one test: no other test's runs land between the two readings.

use mccio_net::{slab_stats, ExecutorKind, World};
use mccio_sim::cost::CostModel;
use mccio_sim::topology::{test_cluster, FillOrder, Placement};

const RANKS: usize = 1008;

/// Resumes of one run of the program on `executor`.
fn resumes(executor: ExecutorKind) -> u64 {
    let cluster = test_cluster(RANKS / 12, 12);
    let placement = Placement::new(&cluster, RANKS, FillOrder::Block).unwrap();
    let world = World::with_executor(CostModel::new(cluster), placement, executor);
    let before = slab_stats().resumes;
    world.run(|ctx| {
        let all = ctx.world_ranks();
        for round in 0..3u8 {
            ctx.barrier();
            let parts = ctx.group_allgather_shared(&all, vec![round; ctx.rank() % 5]);
            let root = if ctx.rank() == 0 {
                parts.to_vec()
            } else {
                Vec::new()
            };
            let got = ctx.group_bcast_shared(&all, root);
            assert_eq!(got.len(), parts.len());
        }
    });
    slab_stats().resumes - before
}

#[test]
fn a_fixed_program_resumes_its_tasks_a_pinned_number_of_times() {
    assert_eq!(resumes(ExecutorKind::Event), 13_092, "canonical schedule");
    assert_eq!(
        resumes(ExecutorKind::EXPLORED[0]),
        25_178,
        "explored schedule (seed 1)"
    );
}
