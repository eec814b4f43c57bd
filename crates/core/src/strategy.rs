//! The [`Strategy`] trait: a uniform, pluggable facade over every I/O
//! strategy, so workloads, tests, benches, the hint resolver, and the
//! degradation ladder dispatch through one interface.
//!
//! A strategy answers three questions: what it is called
//! ([`Strategy::name`]), how it would aggregate a pattern
//! ([`Strategy::plan`], `None` for non-collective strategies), and how
//! it serves one operation ([`Strategy::run`]), in either direction: an
//! [`Op`] carries the direction with its buffer. Strategies additionally
//! serve as degradation-ladder rungs through [`Strategy::rung`], whose
//! default plans fresh (so a re-plan rung sees post-revocation memory)
//! and runs the shared round engine.
//!
//! Adding a strategy means implementing this trait — the engine, the
//! ladder, the hint resolver, and every harness pick it up unchanged.

use std::any::Any;
use std::sync::Arc;

use mccio_mpiio::independent::direct;
use mccio_mpiio::{ExtentList, GroupPattern, IoReport, Op, Resilience, SieveConfig};
use mccio_net::Ctx;
use mccio_pfs::FileHandle;
use mccio_sim::error::SimResult;

use crate::engine::{execute, IoEnv, PlanKey};
use crate::mccio::{plan_mccio, MccioConfig};
use crate::plan::CollectivePlan;
use crate::resilience::{independent, ladder};
use crate::two_phase::{plan_two_phase, TwoPhaseConfig};

/// One I/O strategy under study.
///
/// SPMD: collective strategies require every rank of the world to call
/// [`Strategy::run`] together.
pub trait Strategy: Send + Sync + std::fmt::Debug {
    /// A short label for tables, bench ids, and file names.
    fn name(&self) -> &'static str;

    /// Plans how this strategy would aggregate `pattern` against the
    /// current environment, or `None` for strategies that do not
    /// aggregate (independent I/O). Planning is pure — no communication,
    /// no clock movement — so callers may plan and re-plan freely.
    ///
    /// The pattern arrives as the shared `Arc` that
    /// [`GroupPattern::gather`] hands every member, and the plan comes
    /// back shared too: collective strategies memoize through
    /// [`IoEnv::plan_cached`], so the world plans each distinct access
    /// once instead of once per rank and operation (at 10k+ ranks, the
    /// difference between O(ranks) and O(ranks²) planning work per
    /// collective, and nothing at all for a repeated access).
    fn plan(
        &self,
        ctx: &Ctx,
        env: &IoEnv,
        pattern: &Arc<GroupPattern>,
    ) -> Option<Arc<CollectivePlan>>;

    /// Serves one whole operation on this rank's extents: stores an
    /// [`Op::Write`]'s bytes, or fills an [`Op::Read`]'s vector with the
    /// extents' bytes packed in offset order.
    ///
    /// # Panics
    /// Panics if `op` is a read whose vector is not empty
    /// ([`Op::assert_fresh`]).
    fn run(
        &self,
        ctx: &mut Ctx,
        env: &IoEnv,
        handle: &FileHandle,
        my_extents: &ExtentList,
        op: Op<'_>,
    ) -> IoReport;

    /// One degradation-ladder rung attempt: plan against the current
    /// memory state and run the fallible engine, accumulating endured
    /// faults into `res`. A failed attempt leaves a read's vector empty
    /// for the next rung. The default serves collective strategies; a
    /// non-collective rung (the sieved bottom) overrides it.
    ///
    /// # Errors
    /// Returns [`mccio_sim::error::SimError::TransientIo`] when the
    /// strategy's aggregation memory cannot be reserved — collectively,
    /// on every rank — so the ladder can descend without divergence.
    #[allow(clippy::too_many_arguments)]
    fn rung(
        &self,
        ctx: &mut Ctx,
        env: &IoEnv,
        handle: &FileHandle,
        pattern: &Arc<GroupPattern>,
        my_extents: &ExtentList,
        op: Op<'_>,
        res: &mut Resilience,
    ) -> SimResult<IoReport> {
        let plan = self
            .plan(ctx, env, pattern)
            .expect("collective strategy must produce a plan");
        execute(ctx, env, handle, &plan, pattern, my_extents, op, res)
    }

    /// Downcast support, so hint-resolution callers can inspect the
    /// concrete strategy a trait object wraps.
    fn as_any(&self) -> &dyn Any;
}

/// Per-rank direct I/O, one request per extent. No aggregation, no
/// collective calls. Fault-oblivious: it takes no fault stream, so a
/// fault plan injects nothing into it; nothing runs it under one.
#[derive(Debug, Clone, Copy, Default)]
pub struct Independent;

impl Strategy for Independent {
    fn name(&self) -> &'static str {
        "independent"
    }

    fn plan(
        &self,
        _ctx: &Ctx,
        _env: &IoEnv,
        _pattern: &Arc<GroupPattern>,
    ) -> Option<Arc<CollectivePlan>> {
        None
    }

    fn run(
        &self,
        ctx: &mut Ctx,
        env: &IoEnv,
        handle: &FileHandle,
        my_extents: &ExtentList,
        op: Op<'_>,
    ) -> IoReport {
        direct(ctx, handle, my_extents, op, &env.fs.params())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Per-rank data sieving through the fallible sieved path with bounded
/// escalation, under the environment's fault plan whether it runs
/// standalone or as a ladder rung. It needs no aggregation memory, so
/// it always completes, which makes it the ladder's bottom.
#[derive(Debug, Clone, Copy, Default)]
pub struct IndependentSieved(pub SieveConfig);

impl Strategy for IndependentSieved {
    fn name(&self) -> &'static str {
        "sieved"
    }

    fn plan(
        &self,
        _ctx: &Ctx,
        _env: &IoEnv,
        _pattern: &Arc<GroupPattern>,
    ) -> Option<Arc<CollectivePlan>> {
        None
    }

    fn run(
        &self,
        ctx: &mut Ctx,
        env: &IoEnv,
        handle: &FileHandle,
        my_extents: &ExtentList,
        op: Op<'_>,
    ) -> IoReport {
        let res = &mut Resilience::default();
        independent(ctx, env, handle, my_extents, op, self.0, res)
    }

    fn rung(
        &self,
        ctx: &mut Ctx,
        env: &IoEnv,
        handle: &FileHandle,
        _pattern: &Arc<GroupPattern>,
        my_extents: &ExtentList,
        op: Op<'_>,
        res: &mut Resilience,
    ) -> SimResult<IoReport> {
        Ok(independent(ctx, env, handle, my_extents, op, self.0, res))
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// ROMIO-style two-phase collective I/O (the paper's baseline).
///
/// Under an active fault plan the baseline degrades too, but with a
/// shorter ladder than MC-CIO's: if the fixed collective buffers cannot
/// be reserved within the retry budget, all ranks fall back together to
/// independent sieved I/O (`fallbacks = 1` in the report). There is no
/// re-planning rung — the baseline by definition ignores memory state
/// when planning, so a second identical plan would fail identically.
#[derive(Debug, Clone, Copy, Default)]
pub struct TwoPhase(pub TwoPhaseConfig);

impl Strategy for TwoPhase {
    fn name(&self) -> &'static str {
        "two-phase"
    }

    fn plan(
        &self,
        ctx: &Ctx,
        env: &IoEnv,
        pattern: &Arc<GroupPattern>,
    ) -> Option<Arc<CollectivePlan>> {
        Some(env.plan_cached(pattern, PlanKey::TwoPhase(self.0), || {
            plan_two_phase(pattern, ctx.placement(), self.0)
        }))
    }

    fn run(
        &self,
        ctx: &mut Ctx,
        env: &IoEnv,
        handle: &FileHandle,
        my_extents: &ExtentList,
        op: Op<'_>,
    ) -> IoReport {
        let bottom = IndependentSieved::default();
        ladder(ctx, env, handle, my_extents, op, &[self, &bottom])
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The paper's memory-conscious collective I/O.
///
/// Under an active fault plan this strategy is a four-rung degradation
/// ladder rather than a single attempt: if aggregation memory cannot be
/// reserved within the retry budget, the operation re-plans against the
/// current (post-revocation) memory state; failing that, falls back to
/// classic two-phase with the experiment's buffer; failing that, to
/// per-rank independent sieved I/O, which needs no aggregation memory
/// and therefore always completes. Every rank descends the ladder
/// together (reservation verdicts are collective), and the rung finally
/// used is reported in `IoReport::resilience::fallbacks`.
#[derive(Debug, Clone)]
pub struct MemoryConscious(pub MccioConfig);

impl MemoryConscious {
    /// The ladder's middle rung: the classic baseline at this
    /// experiment's buffer size.
    fn baseline(&self) -> TwoPhase {
        TwoPhase(TwoPhaseConfig::with_buffer(self.0.buffer_mean))
    }
}

impl Strategy for MemoryConscious {
    fn name(&self) -> &'static str {
        "memory-conscious"
    }

    fn plan(
        &self,
        ctx: &Ctx,
        env: &IoEnv,
        pattern: &Arc<GroupPattern>,
    ) -> Option<Arc<CollectivePlan>> {
        Some(
            env.plan_cached(pattern, PlanKey::MemoryConscious(self.0), || {
                plan_mccio(pattern, ctx.placement(), &env.mem, &self.0)
            }),
        )
    }

    fn run(
        &self,
        ctx: &mut Ctx,
        env: &IoEnv,
        handle: &FileHandle,
        my_extents: &ExtentList,
        op: Op<'_>,
    ) -> IoReport {
        let baseline = self.baseline();
        let bottom = IndependentSieved::default();
        // The second `self` is the re-plan rung: `rung` plans fresh, so
        // it sees the post-revocation memory landscape.
        let rungs: [&dyn Strategy; 4] = [self, self, &baseline, &bottom];
        ladder(ctx, env, handle, my_extents, op, &rungs)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Writes `data` (packed in extent order) with the chosen strategy.
/// SPMD: collective strategies require all ranks to call in.
pub fn write_all(
    ctx: &mut Ctx,
    env: &IoEnv,
    handle: &FileHandle,
    extents: &ExtentList,
    data: &[u8],
    strategy: &dyn Strategy,
) -> IoReport {
    strategy.run(ctx, env, handle, extents, Op::Write(data))
}

/// Reads the extents with the chosen strategy, returning packed data.
pub fn read_all(
    ctx: &mut Ctx,
    env: &IoEnv,
    handle: &FileHandle,
    extents: &ExtentList,
    strategy: &dyn Strategy,
) -> (Vec<u8>, IoReport) {
    let mut out = Vec::new();
    let report = strategy.run(ctx, env, handle, extents, Op::Read(&mut out));
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccio_mem::MemoryModel;
    use mccio_mpiio::Extent;
    use mccio_net::World;
    use mccio_pfs::{FileSystem, PfsParams};
    use mccio_sim::cost::CostModel;
    use mccio_sim::topology::{test_cluster, FillOrder, Placement};
    use mccio_sim::units::{KIB, MIB};

    use crate::tuner::Tuning;

    fn strategies() -> Vec<Box<dyn Strategy>> {
        vec![
            Box::new(Independent),
            Box::new(IndependentSieved(SieveConfig::default())),
            Box::new(TwoPhase(TwoPhaseConfig::with_buffer(256 * KIB))),
            Box::new(MemoryConscious(MccioConfig::new(
                Tuning {
                    n_ah: 2,
                    msg_ind: MIB,
                    mem_min: 2 * MIB,
                    msg_group: 8 * MIB,
                },
                256 * KIB,
                64 * KIB,
            ))),
        ]
    }

    #[test]
    fn every_strategy_roundtrips_the_same_pattern() {
        for strategy in strategies() {
            let cluster = test_cluster(2, 2);
            let placement = Placement::new(&cluster, 4, FillOrder::Block).unwrap();
            let world = World::new(CostModel::new(cluster.clone()), placement);
            let env = IoEnv::new(
                FileSystem::new(4, 64 * KIB, PfsParams::default()),
                MemoryModel::pristine(&cluster),
            );
            let strat: &dyn Strategy = &*strategy;
            let reports = world.run(|ctx| {
                let env = env.clone();
                let handle = env.fs.open_or_create("f");
                let r = ctx.rank() as u64;
                let extents = ExtentList::normalize(
                    (0..16)
                        .map(|i| Extent::new((i * 4 + r) * 4 * KIB, 4 * KIB))
                        .collect(),
                );
                let data: Vec<u8> = (0..extents.total_bytes())
                    .map(|i| (i as u8) ^ (r as u8).wrapping_mul(37))
                    .collect();
                let w = write_all(ctx, &env, &handle, &extents, &data, strat);
                ctx.barrier();
                let (back, rd) = read_all(ctx, &env, &handle, &extents, strat);
                assert_eq!(back, data, "{} rank {r}", strat.name());
                (w, rd)
            });
            for (w, r) in reports {
                assert!(w.bandwidth() > 0.0, "{}", strategy.name());
                assert!(r.bandwidth() > 0.0, "{}", strategy.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "a read fills an empty vector, got one holding 3 bytes")]
    fn a_collective_read_into_a_non_empty_vector_panics() {
        // Unchecked, the engine would put the bytes read after the stale
        // ones and cut the vector at the read's length: wrong bytes, no
        // panic.
        let cluster = test_cluster(2, 2);
        let placement = Placement::new(&cluster, 4, FillOrder::Block).unwrap();
        let world = World::new(CostModel::new(cluster.clone()), placement);
        let env = IoEnv::new(
            FileSystem::new(4, 64 * KIB, PfsParams::default()),
            MemoryModel::pristine(&cluster),
        );
        let strat = TwoPhase(TwoPhaseConfig::with_buffer(256 * KIB));
        world.run(|ctx| {
            let handle = env.fs.open_or_create("stale");
            let extents = ExtentList::normalize(vec![Extent::new(ctx.rank() as u64 * KIB, KIB)]);
            let mut stale = vec![1, 2, 3];
            strat.run(ctx, &env, &handle, &extents, Op::Read(&mut stale))
        });
    }

    #[test]
    fn names_are_distinct() {
        let names: Vec<_> = strategies().iter().map(|s| s.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
    }

    #[test]
    fn only_collective_strategies_plan() {
        let cluster = test_cluster(2, 2);
        let placement = Placement::new(&cluster, 4, FillOrder::Block).unwrap();
        let world = World::new(CostModel::new(cluster.clone()), placement);
        let env = IoEnv::new(
            FileSystem::new(4, 64 * KIB, PfsParams::default()),
            MemoryModel::pristine(&cluster),
        );
        let plans: Vec<(String, bool)> = world
            .run(|ctx| {
                let env = env.clone();
                let extents =
                    ExtentList::normalize(vec![Extent::new(ctx.rank() as u64 * KIB, KIB)]);
                let pattern =
                    GroupPattern::gather(ctx, &mccio_net::RankSet::world(ctx.size()), &extents);
                strategies()
                    .iter()
                    .map(|s| (s.name().to_string(), s.plan(ctx, &env, &pattern).is_some()))
                    .collect::<Vec<_>>()
            })
            .pop()
            .unwrap();
        let by_name: std::collections::HashMap<_, _> = plans.into_iter().collect();
        assert!(!by_name["independent"]);
        assert!(!by_name["sieved"]);
        assert!(by_name["two-phase"]);
        assert!(by_name["memory-conscious"]);
    }

    #[test]
    fn as_any_downcasts_to_the_concrete_strategy() {
        let boxed: Box<dyn Strategy> = Box::new(TwoPhase(TwoPhaseConfig::with_buffer(123)));
        let tp = boxed
            .as_any()
            .downcast_ref::<TwoPhase>()
            .expect("two-phase downcast");
        assert_eq!(tp.0.cb_buffer_size, 123);
        assert!(boxed.as_any().downcast_ref::<Independent>().is_none());
    }
}
