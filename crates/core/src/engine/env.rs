//! The shared simulation environment a collective operation runs
//! against: file system, memory model, fault state.

use std::fmt;
use std::sync::{Arc, OnceLock};

use mccio_mem::MemoryModel;
use mccio_mpiio::{ExtentList, GroupPattern};
use mccio_net::Ctx;
use mccio_obs::ObsSink;
use mccio_pfs::FileSystem;
use mccio_sim::causal::CausalSink;
use mccio_sim::fault::FaultPlan;
use mccio_sim::sync::Mutex;

use crate::mccio::MccioConfig;
use crate::plan::{CollectivePlan, PlanIndex};
use crate::resilience::FaultState;
use crate::schedule::CommSchedule;
use crate::two_phase::TwoPhaseConfig;

/// Entries the plan cache retains. Collective operations are planned in
/// lock-step, so at any instant the live set is one plan per in-flight
/// (strategy, pattern, memory landscape) — a handful even with re-plan
/// ladder rungs, and one in the steady state of a repeated access.
const PLAN_CACHE_CAP: usize = 16;

/// The strategy half of a plan-cache key: which planner, with which
/// configuration. Compared with `==`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKey {
    /// [`crate::strategy::TwoPhase`]'s planner.
    TwoPhase(TwoPhaseConfig),
    /// [`crate::strategy::MemoryConscious`]'s planner.
    MemoryConscious(MccioConfig),
}

/// What a cached plan keeps for the schedule builds of its ranks: the
/// plan-wide index every build reads, and the retained per-rank
/// schedules — one slot per group member (in group order) and per
/// integrity flag (`[healthy, crash-gated]`).
struct Retained {
    index: PlanIndex,
    schedules: Box<[[OnceLock<Arc<CommSchedule>>; 2]]>,
}

/// One memoized collective plan and the schedules built from it.
///
/// The key is what planning reads and nothing else:
///
/// * *which* gathered pattern, by shared-`Arc` identity. Every rank of
///   a group holds the same decoded pattern, and a repeated gather of
///   an unchanged access returns that same `Arc` again (see
///   [`GroupPattern::gather`]);
/// * *which* strategy configuration ([`PlanKey`]);
/// * *which* memory landscape: the per-node free bytes
///   ([`MemoryModel::availability`]) the plan was computed against, on
///   the memory model `mem`. Equality is exact, so a re-plan after a
///   revocation never sees a stale plan, while a write that reserved
///   and released its buffers leaves the read a hit.
///
/// Comparing the snapshot costs O(nodes), so each entry remembers the
/// memory-model version it last compared at and the verdict; a lookup
/// at that version is O(1). All ranks plan before anyone reserves, so
/// one op costs one compare per candidate entry.
///
/// Holding strong `Arc`s to the pattern and the model keeps both
/// pointers from being recycled while the entry lives.
struct PlanEntry {
    pattern: Arc<GroupPattern>,
    key: PlanKey,
    mem: MemoryModel,
    avail: Vec<u64>,
    /// `(version, verdict)` of the last snapshot comparison.
    seen: (u64, bool),
    plan: Arc<CollectivePlan>,
    retained: Arc<Retained>,
}

impl PlanEntry {
    /// Whether planning against `mem` now would read exactly the
    /// availability this plan was computed against.
    fn sees(&mut self, mem: &MemoryModel) -> bool {
        let (model, version) = mem.state_fingerprint();
        if model != self.mem.state_fingerprint().0 {
            return false;
        }
        if self.seen.0 != version {
            self.seen = (version, self.avail == mem.availability());
        }
        self.seen.1
    }
}

/// A small per-environment memo of collective plans and their
/// per-rank schedules — persistent collective operations.
///
/// Planning is a pure function of (pattern, placement, memory
/// availability, config), and under SPMD every rank computes the
/// identical plan — so the environment computes it once and hands every
/// rank the same `Arc`. A rank's [`CommSchedule`] is in turn a pure
/// function of (plan, pattern, rank, integrity), so it is built once
/// per rank and retained with the plan: the read after a write, and
/// every later repetition of the same access, reuses it. Clones of an
/// [`IoEnv`] share the cache, which is exactly what per-rank
/// `env.clone()` closures want.
#[derive(Clone, Default)]
struct PlanCache {
    entries: Arc<Mutex<Vec<PlanEntry>>>,
}

impl fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlanCache")
            .field("entries", &self.entries.lock().len())
            .finish()
    }
}

/// Shared simulation environment a collective operation runs against.
///
/// Construct with [`IoEnv::new`] (healthy) or [`IoEnv::with_faults`]
/// (hostile). Without a fault plan every code path is bit-identical to
/// the engine before fault injection existed.
#[derive(Debug, Clone)]
pub struct IoEnv {
    /// The parallel file system.
    pub fs: FileSystem,
    /// The per-node memory model.
    pub mem: MemoryModel,
    faults: FaultState,
    obs: ObsSink,
    plans: PlanCache,
}

impl IoEnv {
    /// A healthy environment: no fault injection.
    #[must_use]
    pub fn new(fs: FileSystem, mem: MemoryModel) -> Self {
        IoEnv {
            fs,
            mem,
            faults: FaultState::none(),
            obs: ObsSink::disabled(),
            plans: PlanCache::default(),
        }
    }

    /// An environment executing `plan`'s faults: scheduled memory
    /// revocations, transient storage failures, degraded servers,
    /// straggler nodes, control-plane delay.
    #[must_use]
    pub fn with_faults(fs: FileSystem, mem: MemoryModel, plan: FaultPlan) -> Self {
        IoEnv {
            fs,
            mem,
            faults: FaultState::new(plan),
            obs: ObsSink::disabled(),
            plans: PlanCache::default(),
        }
    }

    /// The same environment, recording spans and metrics into `obs`.
    ///
    /// Tracing is a pure side-channel: every priced virtual time is
    /// bit-identical with tracing on or off. Each environment carries
    /// its own sink, so concurrent simulation worlds never interleave
    /// records (the cross-world caveat of the process-global recorder
    /// this crate used to carry).
    #[must_use]
    pub fn with_obs(mut self, obs: ObsSink) -> Self {
        self.obs = obs;
        self
    }

    /// The fault state this environment executes under.
    #[must_use]
    pub fn faults(&self) -> &FaultState {
        &self.faults
    }

    /// The observability sink this environment records into (the
    /// disabled, inert sink unless [`IoEnv::with_obs`] was used).
    #[must_use]
    pub fn obs(&self) -> &ObsSink {
        &self.obs
    }

    /// Points the calling rank's own message settings at this
    /// environment for the operation it is entering: the fault plan's
    /// control-plane delay (zero without one) and the sink's causal hook
    /// (none unless armed). Every rank calls this before its first send
    /// of the operation, so each message is priced and stamped by its
    /// own sender's program order alone.
    pub(crate) fn enter_op(&self, ctx: &mut Ctx) {
        ctx.set_control_delay(self.faults.plan().ctl_delay);
        ctx.set_causal_hook(self.obs.causal().map(|agg| agg as Arc<dyn CausalSink>));
    }

    /// Returns the memoized collective plan for (`pattern`, `key`,
    /// current memory availability), computing it with `compute` on the
    /// first call. A computed plan's invariants are asserted here, once:
    /// every operation that executes it afterwards skips the check.
    ///
    /// SPMD redundancy elimination: every rank of a group plans the
    /// identical operation against identical inputs, so the first rank
    /// to arrive computes and the rest share the `Arc`. The lock is held
    /// across `compute` deliberately — concurrent ranks wait for one
    /// plan instead of racing to duplicate it. `compute` must therefore
    /// be pure (no communication, no clock movement — already the
    /// [`crate::strategy::Strategy::plan`] contract), must read the
    /// memory model only through [`MemoryModel::available`], and must
    /// not re-enter this cache.
    ///
    /// Persistent operations: the key is what planning reads, not when
    /// it ran. A repeated access — the read after a write, or the next
    /// timestep's write — finds the same pattern `Arc` and, once its
    /// buffers are released, the same availability, so it gets the same
    /// plan back. A revocation changes availability, so the re-plan
    /// ladder rung recomputes against the post-revocation landscape;
    /// the matching restore makes the old plan hit again.
    pub fn plan_cached(
        &self,
        pattern: &Arc<GroupPattern>,
        key: PlanKey,
        compute: impl FnOnce() -> CollectivePlan,
    ) -> Arc<CollectivePlan> {
        let mut entries = self.plans.entries.lock();
        for e in entries.iter_mut() {
            if e.key == key && Arc::ptr_eq(&e.pattern, pattern) && e.sees(&self.mem) {
                return Arc::clone(&e.plan);
            }
        }
        let avail = self.mem.availability();
        let version = self.mem.state_fingerprint().1;
        let (plan, index) = {
            let _t = mccio_sim::hostprof::timer(mccio_sim::hostprof::HostPhase::PlanBuild);
            let plan = compute();
            plan.assert_invariants();
            let index = PlanIndex::new(&plan);
            (Arc::new(plan), index)
        };
        if entries.len() == PLAN_CACHE_CAP {
            entries.remove(0);
        }
        entries.push(PlanEntry {
            pattern: Arc::clone(pattern),
            key,
            mem: self.mem.clone(),
            avail,
            seen: (version, true),
            plan: Arc::clone(&plan),
            retained: Arc::new(Retained {
                index,
                schedules: (0..pattern.group().len())
                    .map(|_| Default::default())
                    .collect(),
            }),
        });
        plan
    }

    /// Rank `me`'s communication schedule for executing `plan` against
    /// `pattern` — built on the first call, retained with the plan and
    /// shared by every later operation that runs the same plan.
    ///
    /// The retained copy is used only when it is provably the schedule
    /// a fresh build would return: `plan` and `pattern` are the very
    /// objects a [`IoEnv::plan_cached`] entry holds (pointer identity),
    /// `me` is a member, and `my_extents` equals the member's extents in
    /// the gathered pattern. Anything else is built uncached by the same
    /// [`CommSchedule::build_indexed`]; a plan no entry holds (a
    /// hand-built one) has its invariants asserted first, as
    /// [`IoEnv::plan_cached`] asserts a cached plan's once. Callers that
    /// patch a schedule (crash recovery) replace their `Arc`, never the
    /// shared value.
    #[must_use]
    pub(crate) fn schedule_cached(
        &self,
        plan: &CollectivePlan,
        pattern: &GroupPattern,
        me: usize,
        my_extents: &ExtentList,
        integrity: bool,
    ) -> Arc<CommSchedule> {
        let build = |index: &PlanIndex| {
            let _t = mccio_sim::hostprof::timer(mccio_sim::hostprof::HostPhase::ScheduleBuild);
            Arc::new(CommSchedule::build_indexed(
                plan, index, pattern, me, my_extents, integrity,
            ))
        };
        let Some(retained) = self.retained(plan, pattern) else {
            plan.assert_invariants();
            return build(&PlanIndex::of_rank(plan, me));
        };
        match pattern.group().index_of(me) {
            Some(idx) if pattern.extents_of_index(idx).as_slice() == my_extents.as_slice() => {
                let slot = &retained.schedules[idx][usize::from(integrity)];
                if let Some(schedule) = slot.get() {
                    return Arc::clone(schedule);
                }
                // Built outside the cell's once-guard, whose frames would
                // otherwise sit under the build's: only this rank fills
                // its slot.
                let built = build(&retained.index);
                Arc::clone(slot.get_or_init(|| built))
            }
            _ => build(&retained.index),
        }
    }

    /// The retained schedule of rank `me` for (`plan`, `pattern`,
    /// `integrity`), if an operation built one — what the round
    /// executor will hand that rank next time.
    #[must_use]
    pub fn retained_schedule(
        &self,
        plan: &CollectivePlan,
        pattern: &GroupPattern,
        me: usize,
        integrity: bool,
    ) -> Option<Arc<CommSchedule>> {
        let retained = self.retained(plan, pattern)?;
        let idx = pattern.group().index_of(me)?;
        retained.schedules[idx][usize::from(integrity)]
            .get()
            .cloned()
    }

    /// What the cache entry holding exactly `plan` and `pattern` keeps
    /// for its schedule builds. Cloned out so schedules build outside
    /// the lock.
    fn retained(&self, plan: &CollectivePlan, pattern: &GroupPattern) -> Option<Arc<Retained>> {
        self.plans
            .entries
            .lock()
            .iter()
            .find(|e| std::ptr::eq(&*e.plan, plan) && std::ptr::eq(&*e.pattern, pattern))
            .map(|e| Arc::clone(&e.retained))
    }
}
