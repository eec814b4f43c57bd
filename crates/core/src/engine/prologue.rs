//! The shared entry and exit of every collective operation: clock sync,
//! fault application, collective buffer reservation — and the matching
//! epilogue that releases buffers and assembles the final report.
//!
//! Write and read run exactly this code; the direction only shows up in
//! the round loop (`super::rounds`).

use std::sync::Arc;

use mccio_mem::Reservation;
use mccio_mpiio::{IoReport, OpMetrics, Resilience};
use mccio_net::{Ctx, RankSet};
use mccio_obs::{AttrValue, ObsSink, ENGINE_TRACK};
use mccio_pfs::IoFaults;
use mccio_sim::error::{SimError, SimResult};
use mccio_sim::fault::{FaultEvent, TimedEvent};
use mccio_sim::time::VTime;

use crate::resilience::MAX_ESCALATIONS;

use super::env::IoEnv;

/// Everything the prologue established, carried through the round loop
/// and consumed by [`close`].
pub(super) struct OpState {
    /// All ranks of the communicator (shared, built once per world).
    pub(super) world: Arc<RankSet>,
    /// Synchronized start-of-operation clock.
    pub(super) t0: VTime,
    /// Whether a fault plan is active (legacy fault-free path when not).
    pub(super) active: bool,
    /// This rank's per-operation transient-failure context.
    pub(super) faults: IoFaults,
    /// Per-rank engine counters accumulated across the round loop
    /// (local facts only — filling them never moves virtual time).
    pub(super) scratch: OpMetrics,
    /// Aggregation buffers held for the whole operation.
    reservations: Vec<Reservation>,
}

impl OpState {
    /// The state before [`open`]: the world, whether a fault plan is
    /// active, and nothing reserved.
    pub(super) fn new(ctx: &Ctx, env: &IoEnv) -> OpState {
        OpState {
            world: ctx.world_ranks(),
            t0: VTime::ZERO,
            active: env.faults().is_active(),
            faults: IoFaults::none(),
            scratch: OpMetrics::default(),
            reservations: Vec::new(),
        }
    }

    /// Releases every aggregation buffer this rank holds, with the
    /// paired `mem.release` trace marks. Used when this rank's
    /// aggregator role dies mid-operation (the replacement re-reserves)
    /// and on the collective error path out of recovery, so occupancy
    /// timelines stay balanced even when [`close`] never runs.
    pub(super) fn release_reservations(&mut self, ctx: &Ctx, env: &IoEnv) {
        let obs = env.obs();
        if obs.is_enabled() {
            for r in &self.reservations {
                mark_mem_event(obs, ctx.rank() as u32, "mem.release", ctx.clock(), env, r);
            }
        }
        self.reservations.clear();
    }

    /// Adopts a mid-operation reservation (a re-elected aggregator's
    /// buffer for a domain inherited from a dead rank), with the same
    /// `mem.reserve` trace mark the prologue emits.
    pub(super) fn adopt_reservation(&mut self, ctx: &Ctx, env: &IoEnv, r: Reservation) {
        let obs = env.obs();
        if obs.is_enabled() {
            mark_mem_event(obs, ctx.rank() as u32, "mem.reserve", ctx.clock(), env, &r);
        }
        self.reservations.push(r);
    }
}

/// Marks one aggregation-buffer accounting event (`mem.reserve` /
/// `mem.release`) on the recording rank's track. Each event carries the
/// node, the delta, and the node's current ceiling (capacity minus
/// application usage), so an occupancy timeline can be reconstructed
/// exactly from the trace — every reserve is paired with a release, and
/// the ceiling steps when fault revocations move it.
fn mark_mem_event(
    obs: &ObsSink,
    rank: u32,
    name: &'static str,
    at: VTime,
    env: &IoEnv,
    r: &Reservation,
) {
    obs.instant(
        rank,
        name,
        "mem",
        at,
        &[
            ("node", AttrValue::Id(r.node() as u64)),
            ("bytes", AttrValue::U64(r.bytes())),
            ("ceiling", AttrValue::Id(env.mem.ceiling(r.node()))),
        ],
    );
}

/// Marks fault events applied by this rank on the trace's engine track.
pub(super) fn mark_fault_events(obs: &ObsSink, fired: &[TimedEvent]) {
    if !obs.is_enabled() {
        return;
    }
    for timed in fired {
        match timed.event {
            FaultEvent::RevokeMemory { node, bytes }
            | FaultEvent::RestoreMemory { node, bytes } => {
                let name = if matches!(timed.event, FaultEvent::RevokeMemory { .. }) {
                    "fault.mem.revoke"
                } else {
                    "fault.mem.restore"
                };
                obs.instant(
                    ENGINE_TRACK,
                    name,
                    "fault",
                    timed.at,
                    &[
                        ("node", AttrValue::Id(node as u64)),
                        ("bytes", AttrValue::U64(bytes)),
                    ],
                );
            }
            FaultEvent::RankCrash { rank } | FaultEvent::RankRecover { rank } => {
                let name = if matches!(timed.event, FaultEvent::RankCrash { .. }) {
                    "fault.rank.crash"
                } else {
                    "fault.rank.recover"
                };
                obs.instant(
                    ENGINE_TRACK,
                    name,
                    "fault",
                    timed.at,
                    &[("rank", AttrValue::Id(rank as u64))],
                );
            }
        }
    }
}

/// The shared prologue: clock sync, due fault events, and the
/// (collective, under faults) reservation of `demands`, this rank's
/// aggregation buffers (its schedule's [`buffers`]), all kept in
/// `state` (fresh from [`OpState::new`]), which the round loop and
/// [`close`] carry on. The state lives in the caller's frame, so no
/// copy of it is under the parks here.
///
/// [`buffers`]: crate::schedule::CommSchedule::buffers
///
/// # Errors
/// Returns [`SimError::TransientIo`] when aggregation memory cannot be
/// reserved within the retry budget; the verdict is collective, so every
/// rank returns `Err` together.
#[inline(never)]
pub(super) fn open(
    ctx: &mut Ctx,
    env: &IoEnv,
    state: &mut OpState,
    demands: &[u64],
    res: &mut Resilience,
) -> SimResult<()> {
    state.t0 = ctx.group_sync_clocks(&state.world);
    // Aggregators reserve their buffers for the whole operation. The
    // healthy path pages infallibly (pressure, not failure); under a
    // fault plan reservation is collective and can be refused.
    if state.active {
        open_faulty(ctx, env, state, demands, res)?;
    } else {
        let node = ctx.node();
        state
            .reservations
            .extend(demands.iter().map(|&bytes| env.mem.reserve(node, bytes)));
        ctx.group_barrier(&state.world);
    }
    if env.obs().is_enabled() {
        trace_open(ctx, env, state.t0, &state.reservations);
    }
    Ok(())
}

/// [`open`] under an active fault plan: applies the events now due,
/// reserves `demands` collectively and takes this rank's fault stream.
/// Outlined, like the traces below, so its frame is not under every
/// healthy op's parks.
#[inline(never)]
fn open_faulty(
    ctx: &mut Ctx,
    env: &IoEnv,
    state: &mut OpState,
    demands: &[u64],
    res: &mut Resilience,
) -> SimResult<()> {
    let fired = env.faults().apply_due(ctx.clock(), &env.mem);
    mark_fault_events(env.obs(), &fired);
    ctx.group_barrier(&state.world);
    state.reservations = reserve_collectively(ctx, env, &state.world, demands, res)?;
    ctx.group_barrier(&state.world);
    state.faults = env.faults().take_io_faults(ctx.rank());
    Ok(())
}

/// Marks this rank's reservations and its prologue span.
#[inline(never)]
fn trace_open(ctx: &Ctx, env: &IoEnv, t0: VTime, reservations: &[Reservation]) {
    let obs = env.obs();
    let me = ctx.rank() as u32;
    for r in reservations {
        mark_mem_event(obs, me, "mem.reserve", ctx.clock(), env, r);
    }
    obs.span(
        me,
        "prologue",
        "engine",
        t0,
        ctx.clock() - t0,
        &[("reservations", AttrValue::U64(reservations.len() as u64))],
    );
}

/// The shared epilogue: releases the aggregation buffers, waits for
/// every rank, and parks the fault stream, folding revocations into
/// `res`. The caller then builds the op's report with [`report`], in its
/// own frame rather than under this one's park.
#[inline(never)]
pub(super) fn close(ctx: &mut Ctx, env: &IoEnv, state: &mut OpState, res: &mut Resilience) {
    if env.obs().is_enabled() {
        trace_close(ctx, env, &state.reservations);
    }
    state.reservations.clear();
    ctx.group_barrier(&state.world);
    if state.active {
        close_faulty(ctx, env, state, res);
    }
    if env.obs().is_enabled() && ctx.rank() == 0 {
        trace_node_peaks(ctx, env);
    }
}

/// The op's report once [`close`] has run: `bytes` moved in
/// `ctx.clock() - t0`, the round counters and the memory high-water
/// marks. `Ok` always, so that it can be an op's tail call and build the
/// report in its caller's return slot.
pub(super) fn report(
    ctx: &Ctx,
    env: &IoEnv,
    state: &OpState,
    bytes: u64,
    res: &Resilience,
) -> SimResult<IoReport> {
    let mut metrics = crate::resilience::mem_metrics(env);
    metrics.rounds = state.scratch.rounds;
    metrics.shuffle_bytes = state.scratch.shuffle_bytes;
    metrics.storage_requests = state.scratch.storage_requests;
    metrics.storage_bytes = state.scratch.storage_bytes;
    metrics.payload_peak_bytes = bytes;
    Ok(IoReport::builder(bytes)
        .elapsed(ctx.clock() - state.t0)
        .resilience(*res)
        .metrics(metrics)
        .build())
}

/// The paired half of the prologue's `mem.reserve` marks: every buffer
/// held for the operation releases here, at the virtual time the
/// epilogue runs, so occupancy timelines balance to zero.
#[inline(never)]
fn trace_close(ctx: &Ctx, env: &IoEnv, reservations: &[Reservation]) {
    for r in reservations {
        mark_mem_event(
            env.obs(),
            ctx.rank() as u32,
            "mem.release",
            ctx.clock(),
            env,
            r,
        );
    }
}

/// One rank samples the per-node memory high-water marks, so the
/// `mem.peak_reserved` samples hold each node once per operation, not
/// once per rank.
#[inline(never)]
fn trace_node_peaks(ctx: &Ctx, env: &IoEnv) {
    let obs = env.obs();
    for node in 0..env.mem.n_nodes() {
        let peak = env.mem.peak_reserved(node);
        if peak > 0 {
            obs.counter_sample(
                ENGINE_TRACK,
                "mem.peak_reserved",
                "mem",
                ctx.clock(),
                peak as f64,
                &[("node", AttrValue::Id(node as u64))],
            );
        }
    }
}

/// [`close`] under an active fault plan: parks this rank's fault stream
/// and folds the op's revocations into `res`.
#[inline(never)]
fn close_faulty(ctx: &Ctx, env: &IoEnv, state: &mut OpState, res: &mut Resilience) {
    let faults = std::mem::replace(&mut state.faults, IoFaults::none());
    env.faults().return_io_faults(ctx.rank(), faults, res);
    res.revocations += env
        .faults()
        .plan()
        .revocations_between(state.t0, ctx.clock());
}

/// Collectively reserves this rank's aggregation buffers under the
/// fault plan's retry policy.
///
/// Success is all-or-nothing across the world: if any rank cannot fit
/// its buffers, everyone releases, advances a uniform backoff in virtual
/// time (during which a scheduled memory restoration may land), and
/// retries. The verdict is an allreduce, so every rank returns the same
/// way — `Err` here is a *collective* decision the degradation ladder
/// can act on without divergence.
///
/// Success itself is schedule-independent: per node, all `try_reserve`
/// calls succeed iff the node's total demand fits its free memory, no
/// matter the order ranks interleave in. Which calls of a failed
/// attempt succeeded is not, so peaks are recorded only on success.
fn reserve_collectively(
    ctx: &mut Ctx,
    env: &IoEnv,
    world: &RankSet,
    demands: &[u64],
    res: &mut Resilience,
) -> SimResult<Vec<Reservation>> {
    let policy = env.faults().plan().retry;
    for attempt in 0..policy.max_attempts {
        let mut held = Vec::with_capacity(demands.len());
        let mut ok = true;
        for &bytes in demands {
            match env.mem.try_reserve(ctx.node(), bytes) {
                Some(r) => held.push(r),
                None => {
                    ok = false;
                    break;
                }
            }
        }
        let anyone_failed = ctx.group_allreduce_max_f64(world, if ok { 0.0 } else { 1.0 }) > 0.0;
        if !anyone_failed {
            // Every rank's reservations are in place: this node's peak
            // is now the same on every schedule.
            if !held.is_empty() {
                env.mem.note_peak(ctx.node());
            }
            return Ok(held);
        }
        drop(held);
        // All partial reservations must be back before anyone retries.
        ctx.group_barrier(world);
        if attempt + 1 < policy.max_attempts {
            let pause = policy.backoff(attempt);
            ctx.advance(pause);
            res.retries += 1;
            res.backoff += pause;
            env.obs().instant(
                ctx.rank() as u32,
                "reserve.retry",
                "mem",
                ctx.clock(),
                &[("attempt", AttrValue::Id(u64::from(attempt)))],
            );
            // A restoration event may fire during the pause and rescue
            // the next attempt.
            let fired = env.faults().apply_due(ctx.clock(), &env.mem);
            mark_fault_events(env.obs(), &fired);
            ctx.group_barrier(world);
        }
    }
    res.exhausted += 1;
    env.obs().instant(
        ctx.rank() as u32,
        "reserve.exhausted",
        "mem",
        ctx.clock(),
        &[],
    );
    Err(SimError::TransientIo {
        attempts: policy.max_attempts,
    })
}

/// Drives one aggregator storage access to completion: retries inside
/// `op` are governed by `faults`; a drained retry budget escalates — a
/// policy-wide pause charged as backoff, then a full re-drive — up to
/// [`MAX_ESCALATIONS`]. Collective correctness depends on this never
/// returning failure: a per-rank error here would desynchronize the
/// lock-step rounds, so a plan hostile enough to defeat escalation is a
/// configuration error and panics.
pub(super) fn drive_storage<T>(
    faults: &mut IoFaults,
    mut op: impl FnMut(&mut IoFaults) -> SimResult<T>,
) -> T {
    let _t = mccio_sim::hostprof::timer(mccio_sim::hostprof::HostPhase::StorageHop);
    let policy = faults.policy();
    for _ in 0..MAX_ESCALATIONS {
        match op(faults) {
            Ok(out) => return out,
            Err(_) => {
                faults.log.backoff += policy.backoff(policy.max_attempts.saturating_sub(1));
            }
        }
    }
    panic!(
        "aggregator storage access failed {MAX_ESCALATIONS} consecutive escalations; \
         the fault plan's failure rate defeats its retry policy"
    );
}
