//! Persistent collective operations: a repeated access reuses one
//! gathered pattern, one plan and each rank's schedule.
//!
//! The caches behind this are pure functions of their keys, so the
//! tests check both halves of that claim: a repeat *hits* (pointer
//! identity of the shared `Arc`s), and what it hits is exactly what a
//! fresh computation would produce (a retained schedule, built from the
//! cached plan's index, equals a fresh `CommSchedule::build_indexed`
//! from the rank's own one-pass index). Bit-identity of the virtual
//! results themselves is pinned by `tests/golden_determinism.rs`.

use std::sync::Arc;

use mccio_suite::core::plan::{CollectivePlan, PlanIndex};
use mccio_suite::core::prelude::*;
use mccio_suite::core::CommSchedule;
use mccio_suite::mpiio::GroupPattern;
use mccio_suite::net::ExecutorKind;
use mccio_suite::sim::cost::CostModel;
use mccio_suite::sim::fault::FaultPlan;
use mccio_suite::sim::time::VTime;
use mccio_suite::sim::topology::{test_cluster, FillOrder, Placement};
use mccio_suite::sim::units::{KIB, MIB};
use mccio_suite::workloads::data;

const RANKS: usize = 6;

/// The golden-determinism configuration: 6 ranks on 3 two-core nodes,
/// 16 interleaved 8 KiB blocks per rank.
fn extents_of(rank: usize) -> ExtentList {
    ExtentList::normalize(
        (0..16u64)
            .map(|i| Extent::new((i * RANKS as u64 + rank as u64) * 8 * KIB, 8 * KIB))
            .collect(),
    )
}

fn world(executor: ExecutorKind) -> Arc<World> {
    let cluster = test_cluster(3, 2);
    let placement = Placement::new(&cluster, RANKS, FillOrder::Block).unwrap();
    World::with_executor(CostModel::new(cluster), placement, executor)
}

fn golden_env() -> IoEnv {
    let cluster = test_cluster(3, 2);
    IoEnv::new(
        FileSystem::new(4, 64 * KIB, PfsParams::default()),
        MemoryModel::with_available_variance(&cluster, 32 * MIB, 16 * MIB, 11),
    )
}

fn mc_cio() -> MemoryConscious {
    let tuning = Tuning {
        n_ah: 2,
        msg_ind: MIB,
        mem_min: 2 * MIB,
        msg_group: 4 * MIB,
    };
    MemoryConscious(MccioConfig::new(tuning, 256 * KIB, 64 * KIB))
}

/// Gathers this rank's pattern over the world and plans it: the same
/// two steps the degradation ladder runs before every collective op.
fn gather_and_plan(
    ctx: &mut Ctx,
    env: &IoEnv,
    strategy: &dyn Strategy,
    extents: &ExtentList,
) -> (Arc<GroupPattern>, Arc<CollectivePlan>) {
    let group = ctx.world_ranks();
    let pattern = GroupPattern::gather(ctx, &group, extents);
    let plan = strategy
        .plan(ctx, env, &pattern)
        .expect("collective strategy");
    (pattern, plan)
}

/// The schedule the engine retained for `rank` equals a fresh build.
fn assert_retained_is_fresh(
    env: &IoEnv,
    plan: &CollectivePlan,
    pattern: &GroupPattern,
    rank: usize,
    integrity: bool,
) {
    let retained = env
        .retained_schedule(plan, pattern, rank, integrity)
        .unwrap_or_else(|| panic!("rank {rank}: the op retained no schedule"));
    let fresh = CommSchedule::build_indexed(
        plan,
        &PlanIndex::of_rank(plan, rank),
        pattern,
        rank,
        &extents_of(rank),
        integrity,
    );
    assert_eq!(*retained, fresh, "rank {rank}: retained schedule is stale");
}

#[test]
fn repeated_passes_reuse_one_plan_and_one_schedule_per_rank() {
    for executor in std::iter::once(ExecutorKind::Event).chain(ExecutorKind::EXPLORED) {
        let w = world(executor);
        let env = golden_env();
        let strategy = mc_cio();
        let per_rank = w.run(|ctx| {
            let env = env.clone();
            let handle = env.fs.open_or_create("persistent");
            let extents = extents_of(ctx.rank());
            let payload = data::fill(&extents);
            let mut seen = Vec::new();
            for _ in 0..3 {
                seen.push(gather_and_plan(ctx, &env, &strategy, &extents));
                let _ = write_all(ctx, &env, &handle, &extents, &payload, &strategy);
                ctx.barrier();
                seen.push(gather_and_plan(ctx, &env, &strategy, &extents));
                let (back, _) = read_all(ctx, &env, &handle, &extents, &strategy);
                assert_eq!(data::verify(&extents, &back), None);
            }
            seen
        });
        let (pattern, plan) = per_rank[0][0].clone();
        for (rank, seen) in per_rank.iter().enumerate() {
            for (i, (p, q)) in seen.iter().enumerate() {
                assert!(
                    Arc::ptr_eq(p, &pattern),
                    "{executor:?} rank {rank} op {i}: gather decoded a new pattern"
                );
                assert!(
                    Arc::ptr_eq(q, &plan),
                    "{executor:?} rank {rank} op {i}: the plan was recomputed"
                );
            }
            assert_retained_is_fresh(&env, &plan, &pattern, rank, false);
        }
    }
}

#[test]
fn a_revocation_misses_the_plan_and_its_restore_hits_again() {
    let w = world(ExecutorKind::Event);
    let env = golden_env();
    let strategy = mc_cio();
    let plan_now = |env: &IoEnv| {
        w.run(|ctx| gather_and_plan(ctx, env, &strategy, &extents_of(ctx.rank())).1)
            .swap_remove(0)
    };
    let before = plan_now(&env);
    let revoked = env.mem.revoke(1, 8 * MIB);
    assert!(revoked > 0);
    let during = plan_now(&env);
    assert!(
        !Arc::ptr_eq(&during, &before),
        "a revocation changes availability: the plan must be recomputed"
    );
    env.mem.restore(1, revoked);
    let after = plan_now(&env);
    assert!(
        Arc::ptr_eq(&after, &before),
        "the restore brings back the planned-for availability"
    );
    // A reservation that is released again moves the version but not
    // the availability: still a hit.
    drop(env.mem.reserve(0, 4 * MIB));
    assert!(Arc::ptr_eq(&plan_now(&env), &before));
}

#[test]
fn crash_recovery_leaves_the_retained_schedules_untouched() {
    // Rank 0 aggregates and crashes mid-write (the clean write takes
    // ~0.0027 s of virtual time in three rounds), then comes back before
    // the read: the write recovers on a patched copy of its schedule,
    // and the read — a healthy op on the same env — reuses the retained
    // crash-gated schedules, which must still be the fresh builds.
    let faults = FaultPlan::new(0xC0)
        .crash_rank_at(VTime::from_secs(0.001), 0)
        .recover_rank_at(VTime::from_secs(0.0022), 0);
    let w = world(ExecutorKind::Event);
    let env = IoEnv::with_faults(
        FileSystem::new(4, 16 * KIB, PfsParams::default()),
        MemoryModel::pristine(&test_cluster(3, 2)),
        faults,
    );
    let strategy = mc_cio();
    let out = w.run(|ctx| {
        let env = env.clone();
        let handle = env.fs.open_or_create("crashy");
        let extents = extents_of(ctx.rank());
        let payload = data::fill(&extents);
        let wr = write_all(ctx, &env, &handle, &extents, &payload, &strategy);
        ctx.barrier();
        let after_write = gather_and_plan(ctx, &env, &strategy, &extents);
        let (back, rr) = read_all(ctx, &env, &handle, &extents, &strategy);
        assert_eq!(data::verify(&extents, &back), None);
        (wr, rr, after_write)
    });
    let crashes: u64 = out.iter().map(|o| o.0.resilience.crashes_detected).sum();
    let reelections: u64 = out.iter().map(|o| o.0.resilience.reelections).sum();
    assert!(
        crashes > 0 && reelections > 0,
        "the write must recover from the crash"
    );
    for (wr, rr, _) in &out {
        assert_eq!(wr.resilience.fallbacks, 0, "recovery, not the ladder");
        assert_eq!(rr.resilience.crashes_detected, 0, "the read is healthy");
    }
    let (pattern, plan) = out[0].2.clone();
    for (rank, o) in out.iter().enumerate() {
        assert!(Arc::ptr_eq(&o.2 .1, &plan));
        assert_retained_is_fresh(&env, &plan, &pattern, rank, true);
    }
}
