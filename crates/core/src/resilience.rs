//! Fault application and the degradation ladder's per-rank machinery.
//!
//! The simulation layer describes a hostile environment as data
//! ([`FaultPlan`]); this module is where the collective engine consumes
//! it:
//!
//! * [`FaultState`] carries the plan inside an [`crate::engine::IoEnv`]
//!   and applies scheduled memory events exactly once, when the virtual
//!   clock crosses their timestamps. Ranks only call
//!   [`FaultState::apply_due`] at collective synchronization points
//!   where every rank agrees on the clock, so *which* events have fired
//!   is schedule-independent even though *who* applies them is not.
//! * Per-rank transient-failure streams are parked here between
//!   operations ([`FaultState::take_io_faults`] /
//!   [`FaultState::return_io_faults`]), so a write followed by a read
//!   continues the same decision sequence instead of replaying it.
//! * [`ladder`] is the generic degradation ladder: an ordered slice of
//!   [`Strategy`] rungs descended collectively until one completes.
//!   MC-CIO composes a four-rung ladder (planned → re-planned →
//!   two-phase → independent sieved), the baseline a two-rung one — but
//!   the descent logic exists once, here, for any rung composition and
//!   either direction.
//! * [`independent`] is the ladder's bottom rung and the whole of a
//!   standalone sieved operation: per-rank sieved I/O that needs no
//!   aggregation memory at all, driven through the fallible request
//!   path with bounded escalation.

use mccio_mpiio::independent::sieved;
use mccio_mpiio::{ExtentList, GroupPattern, IoReport, Op, Resilience, SieveConfig};
use mccio_net::{Ctx, RankSet};
use mccio_obs::{AttrValue, ENGINE_TRACK};
use mccio_pfs::{FileHandle, IoFaults};
use mccio_sim::fault::{FaultPlan, FaultStream, TimedEvent};
use mccio_sim::sync::Mutex;
use mccio_sim::time::VTime;

use mccio_mem::MemoryModel;
use std::collections::HashMap;
use std::sync::Arc;

use crate::engine::{execute, IoEnv};
use crate::strategy::Strategy;

/// How many times the engine re-drives a storage access whose whole
/// retry budget was exhausted before declaring the run unrecoverable.
/// With any failure rate `p < 1` and `a` attempts per drive, a single
/// escalation already succeeds with probability `1 - p^a`; the cap only
/// exists to turn a misconfigured plan into a loud failure instead of an
/// unbounded loop.
pub const MAX_ESCALATIONS: u32 = 64;

/// Shared, clock-driven fault state carried by an [`IoEnv`].
///
/// Clones share the applied-event cursor and the parked per-rank
/// streams, mirroring how `IoEnv` itself is cloned into every rank's
/// closure.
#[derive(Debug, Clone)]
pub struct FaultState {
    plan: Arc<FaultPlan>,
    /// Cursor into `plan.events()`: how many leading events have fired.
    applied: Arc<Mutex<usize>>,
    /// Streams parked between operations, keyed by rank. Only the owning
    /// rank touches its entry.
    streams: Arc<Mutex<HashMap<usize, FaultStream>>>,
}

impl FaultState {
    /// A state that injects nothing; [`FaultState::is_active`] is false.
    #[must_use]
    pub fn none() -> Self {
        FaultState::new(FaultPlan::new(0))
    }

    /// Wraps a fault plan for execution.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        FaultState {
            plan: Arc::new(plan),
            applied: Arc::new(Mutex::new(0)),
            streams: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// The plan being executed.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// True when the plan injects anything at all. The engine keeps the
    /// legacy fault-free code path (bit-identical timing) when false.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.plan.is_active()
    }

    /// Fires every scheduled event with `at ≤ now` that has not fired
    /// yet, against `mem`. Callers must only invoke this at points where
    /// all ranks agree on `now` and no concurrent reservation activity
    /// is in flight; each event fires exactly once no matter how many
    /// ranks call in.
    ///
    /// Returns the events *this call* fired (empty for the ranks that
    /// lost the race), so instrumented call sites can mark them on a
    /// trace without double-counting.
    pub fn apply_due(&self, now: VTime, mem: &MemoryModel) -> Vec<TimedEvent> {
        if self.plan.events().is_empty() {
            return Vec::new();
        }
        let due = self.plan.due_by(now);
        let mut fired = Vec::new();
        let mut cursor = self.applied.lock();
        while *cursor < due {
            let timed = self.plan.events()[*cursor];
            match timed.event {
                mccio_sim::fault::FaultEvent::RevokeMemory { node, bytes } => {
                    let _ = mem.revoke(node, bytes);
                }
                mccio_sim::fault::FaultEvent::RestoreMemory { node, bytes } => {
                    mem.restore(node, bytes);
                }
                // Crash/recover events change no memory state when they
                // fire: liveness is a pure function of (plan, agreed
                // clock) that the engine's crash tracker re-evaluates at
                // every round boundary.
                mccio_sim::fault::FaultEvent::RankCrash { .. }
                | mccio_sim::fault::FaultEvent::RankRecover { .. } => {}
            }
            fired.push(timed);
            *cursor += 1;
        }
        fired
    }

    /// Builds `rank`'s fault context, resuming its parked stream if one
    /// operation already ran. The caller must hand the context back via
    /// [`FaultState::return_io_faults`] when the operation completes.
    #[must_use]
    pub fn take_io_faults(&self, rank: usize) -> IoFaults {
        let parked = self.streams.lock().remove(&rank);
        let stream = parked.or_else(|| self.plan.io_stream(rank));
        IoFaults::new(stream, self.plan.retry)
    }

    /// Parks `rank`'s stream again and folds the operation's retry log
    /// into `res`.
    pub fn return_io_faults(&self, rank: usize, faults: IoFaults, res: &mut Resilience) {
        res.transient_faults += faults.log.transient_faults;
        res.retries += faults.log.retries;
        res.backoff += faults.log.backoff;
        res.exhausted += faults.log.exhausted;
        if let Some(stream) = faults.into_stream() {
            self.streams.lock().insert(rank, stream);
        }
    }
}

/// Re-drives `op` until it succeeds, charging a policy-wide pause to the
/// rank's clock per escalation. Panics past [`MAX_ESCALATIONS`].
fn escalate<T>(
    ctx: &mut Ctx,
    policy: mccio_sim::fault::RetryPolicy,
    mut op: impl FnMut(&mut Ctx) -> mccio_sim::error::SimResult<T>,
) -> T {
    for _ in 0..MAX_ESCALATIONS {
        match op(ctx) {
            Ok(out) => return out,
            Err(_) => {
                // The whole retry budget drained; pause for the longest
                // configured backoff and re-drive from scratch.
                ctx.advance(policy.backoff(policy.max_attempts.saturating_sub(1)));
            }
        }
    }
    panic!(
        "storage access failed {MAX_ESCALATIONS} consecutive escalations; \
         the fault plan's failure rate defeats its retry policy"
    );
}

/// Per-rank sieved I/O through the fallible request path, taking the
/// rank's fault stream from `env`: the ladder's bottom rung, and the
/// whole of a standalone sieved operation. Needs no aggregation memory,
/// so it cannot be defeated by revocation; storage faults are retried
/// and, past the budget, escalated.
///
/// # Panics
/// Panics if `op` is a read whose vector is not empty
/// ([`Op::assert_fresh`]).
pub fn independent(
    ctx: &mut Ctx,
    env: &IoEnv,
    handle: &FileHandle,
    extents: &ExtentList,
    mut op: Op<'_>,
    cfg: SieveConfig,
    res: &mut Resilience,
) -> IoReport {
    op.assert_fresh();
    let params = env.fs.params();
    let mut faults = env.faults().take_io_faults(ctx.rank());
    let mut report = escalate(ctx, faults.policy(), |ctx| {
        sieved(
            ctx,
            handle,
            extents,
            op.reborrow(),
            &params,
            cfg,
            &mut faults,
        )
    });
    env.faults().return_io_faults(ctx.rank(), faults, res);
    report.resilience = *res;
    report.metrics = mem_metrics(env);
    report
}

/// One collective operation down a degradation ladder of `rungs`,
/// ordered most to least preferred. SPMD over all ranks.
///
/// On a healthy environment this is exactly the top rung: plan once,
/// run the engine, no ladder machinery at all (bit-identical to the
/// engine before fault injection existed). Under an active fault plan
/// the rungs are attempted in order through [`Strategy::rung`];
/// reservation verdicts are collective, so every rank descends
/// together, and the rung that completes is recorded in the report's
/// `resilience.fallbacks`.
///
/// # Panics
/// Panics if `op` is a read whose vector is not empty
/// ([`Op::assert_fresh`]), if the top rung is not a collective
/// strategy, or if every rung fails — the bottom rung of any ladder
/// must be infallible (independent I/O needs no aggregation memory and
/// always completes).
pub fn ladder(
    ctx: &mut Ctx,
    env: &IoEnv,
    handle: &FileHandle,
    my_extents: &ExtentList,
    op: Op<'_>,
    rungs: &[&dyn Strategy],
) -> IoReport {
    op.assert_fresh();
    env.enter_op(ctx);
    let world = ctx.world_ranks();
    let pattern = GroupPattern::gather(ctx, &world, my_extents);
    if !env.faults().is_active() {
        let plan = rungs[0]
            .plan(ctx, env, &pattern)
            .expect("ladder top must be a collective strategy");
        let mut res = Resilience::default();
        return execute(ctx, env, handle, &plan, &pattern, my_extents, op, &mut res)
            .expect("a healthy collective cannot be refused");
    }
    descend(ctx, env, handle, &world, &pattern, my_extents, op, rungs)
}

/// [`ladder`]'s descent under an active fault plan. Outlined so its
/// frame is not under every healthy op's parks.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn descend(
    ctx: &mut Ctx,
    env: &IoEnv,
    handle: &FileHandle,
    world: &RankSet,
    pattern: &Arc<GroupPattern>,
    my_extents: &ExtentList,
    mut op: Op<'_>,
    rungs: &[&dyn Strategy],
) -> IoReport {
    let t0 = ctx.group_sync_clocks(world);
    let mut res = Resilience::default();
    for (rung, strategy) in rungs.iter().enumerate() {
        let attempt = op.reborrow();
        match strategy.rung(ctx, env, handle, pattern, my_extents, attempt, &mut res) {
            Ok(report) => {
                mark_rung(ctx, env, rung, strategy.name(), true);
                return finish(ctx, t0, report, res, rung as u32);
            }
            Err(_) => mark_rung(ctx, env, rung, strategy.name(), false),
        }
    }
    panic!("degradation ladder exhausted: the bottom rung must be infallible");
}

/// Marks a ladder-rung outcome on the trace (engine track, world rank 0
/// only so one descent leaves one mark per rung attempted).
fn mark_rung(ctx: &Ctx, env: &IoEnv, rung: usize, strategy: &'static str, completed: bool) {
    if ctx.rank() != 0 {
        return;
    }
    let obs = env.obs();
    if !obs.is_enabled() {
        return;
    }
    obs.instant(
        ENGINE_TRACK,
        if completed {
            "ladder.completed"
        } else {
            "ladder.descend"
        },
        "ladder",
        ctx.clock(),
        &[
            ("rung", AttrValue::Id(rung as u64)),
            ("strategy", AttrValue::Str(strategy)),
        ],
    );
}

/// Stamps the ladder outcome onto the final report: elapsed spans the
/// whole descent (failed rungs spent real virtual time retrying), and
/// `fallbacks` records the rung that completed the operation.
fn finish(ctx: &Ctx, t0: VTime, report: IoReport, res: Resilience, rung: u32) -> IoReport {
    IoReport::builder(report.bytes)
        .elapsed(ctx.clock() - t0)
        .resilience(res)
        .fallbacks(rung)
        .metrics(report.metrics)
        .build()
}

/// The memory high-water fields of [`mccio_mpiio::OpMetrics`], read
/// from the environment's ledger (engine-counter fields zeroed).
pub(crate) fn mem_metrics(env: &IoEnv) -> mccio_mpiio::OpMetrics {
    let w = env.mem.peak_statistics();
    mccio_mpiio::OpMetrics {
        mem_peak_mean: w.mean(),
        mem_peak_max: if w.count() == 0 { 0.0 } else { w.max() },
        mem_peak_cov: w.cv(),
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccio_sim::time::VDuration;
    use mccio_sim::topology::test_cluster;

    #[test]
    fn inactive_state_is_inert() {
        let s = FaultState::none();
        assert!(!s.is_active());
        let cluster = test_cluster(2, 1);
        let mem = MemoryModel::pristine(&cluster);
        let before = mem.available(0);
        s.apply_due(VTime::from_secs(100.0), &mem);
        assert_eq!(mem.available(0), before);
        assert!(!s.take_io_faults(0).can_fail());
    }

    #[test]
    fn events_fire_once_across_many_appliers() {
        let cluster = test_cluster(2, 1);
        let mem = MemoryModel::pristine(&cluster);
        let before = mem.available(0);
        let s =
            FaultState::new(FaultPlan::new(1).revoke_memory_at(VTime::from_secs(1.0), 0, 1 << 20));
        // Many ranks (clones) all report the clock crossing the event.
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let s = s.clone();
                let mem = &mem;
                scope.spawn(move || s.apply_due(VTime::from_secs(2.0), mem));
            }
        });
        assert_eq!(mem.available(0), before - (1 << 20), "applied exactly once");
        // Later calls past the same point change nothing.
        s.apply_due(VTime::from_secs(3.0), &mem);
        assert_eq!(mem.available(0), before - (1 << 20));
    }

    #[test]
    fn events_respect_the_clock() {
        let cluster = test_cluster(2, 1);
        let mem = MemoryModel::pristine(&cluster);
        let before = mem.available(1);
        let s = FaultState::new(
            FaultPlan::new(1)
                .revoke_memory_at(VTime::from_secs(1.0), 1, 1 << 20)
                .restore_memory_at(VTime::from_secs(2.0), 1, 1 << 20),
        );
        s.apply_due(VTime::from_secs(0.5), &mem);
        assert_eq!(mem.available(1), before, "nothing due yet");
        s.apply_due(VTime::from_secs(1.5), &mem);
        assert_eq!(mem.available(1), before - (1 << 20));
        s.apply_due(VTime::from_secs(2.5), &mem);
        assert_eq!(mem.available(1), before, "restore undoes the revoke");
    }

    #[test]
    fn parked_streams_resume_instead_of_replaying() {
        let s = FaultState::new(FaultPlan::new(42).transient_io_rate(0.5));
        let draws_via_state = {
            let mut out = Vec::new();
            for _ in 0..2 {
                let mut f = s.take_io_faults(3);
                for _ in 0..10 {
                    out.push(f.run(|| {}, || ()).is_ok());
                }
                let mut res = Resilience::default();
                s.return_io_faults(3, f, &mut res);
            }
            out
        };
        // One continuous context over the same plan sees the same 20
        // outcomes — proof the second take resumed, not restarted.
        let continuous = {
            let plan = FaultPlan::new(42).transient_io_rate(0.5);
            let mut f = IoFaults::new(plan.io_stream(3), plan.retry);
            (0..20)
                .map(|_| f.run(|| {}, || ()).is_ok())
                .collect::<Vec<_>>()
        };
        assert_eq!(draws_via_state, continuous);
    }

    #[test]
    fn return_io_faults_folds_the_log() {
        let s = FaultState::new(FaultPlan::new(7).transient_io_rate(0.4).retry_policy(
            mccio_sim::fault::RetryPolicy {
                base_backoff: VDuration::from_micros(10.0),
                ..Default::default()
            },
        ));
        let mut f = s.take_io_faults(0);
        for _ in 0..200 {
            let _ = f.run(|| {}, || ());
        }
        let log = f.log;
        assert!(log.transient_faults > 0);
        let mut res = Resilience::default();
        s.return_io_faults(0, f, &mut res);
        assert_eq!(res.transient_faults, log.transient_faults);
        assert_eq!(res.retries, log.retries);
        assert_eq!(res.backoff, log.backoff);
        assert_eq!(res.exhausted, log.exhausted);
    }
}
