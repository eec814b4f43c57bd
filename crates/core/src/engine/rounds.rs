//! The direction-agnostic round loop, driven by the plan-time
//! communication schedule.
//!
//! One executor ([`execute`]) runs both directions of two-phase
//! collective I/O; the data plane — which bytes this rank contributes
//! before the shuffle and which bytes it absorbs after — is the only
//! thing [`Op`] varies.
//!
//! The shuffle is one-sided. For the length of the operation each rank
//! exposes its packed buffer — the write payload, or the read output —
//! in the world's exposure table ([`mccio_net::rma`]), and aggregators
//! copy every section directly between its owner's buffer and the file
//! window. Each shuffled byte is copied once:
//!
//! * [`Op::Write`]: aggregators store each window with one priced
//!   storage access, copying the contributors' pieces straight into the
//!   file, in file order, when they tile the union's one span, and into
//!   an assembly buffer for the sieve when the union has holes or the
//!   writers overlap;
//! * [`Op::Read`]: aggregators fetch their windows with one priced
//!   access (a zero-copy file view when hole-free, a sieved read
//!   otherwise) and copy each requester's pieces into its output.
//!
//! Messages still flow exactly as a two-sided shuffle's would, one per
//! (sender, receiver) pair and round, but carry only the section
//! headers, encoded once per schedule and sent as slices of that
//! encoding (`super::wire`); each receiver compares every message with
//! its own encoding for that peer. The output of a read is allocated once and never
//! zero-filled: the schedule build proves that every rank's client
//! windows tile its buffer, and every window is filled before its
//! header arrives.
//!
//! Nothing is discovered here: send destinations, receive lists, piece
//! routings, packed positions, union layouts, and buffer sizes all come
//! from the [`crate::schedule::CommSchedule`] built once per plan and
//! rank (and reused by every operation that repeats the plan), header
//! messages included.
//! Everything else — prologue, reservation, exchange, pricing, epilogue
//! — is shared code in the sibling modules, which keeps the comparison
//! between strategies honest and every future engine capability paid
//! for exactly once.

use std::sync::Arc;

use mccio_mpiio::sieve::{sieved_read, sieved_write};
use mccio_mpiio::{Extent, ExtentList, GroupPattern, IoReport, Op, Resilience};
use mccio_net::mailbox::Payload;
use mccio_net::{Ctx, RankSet};
use mccio_obs::{AttrValue, ObsSink, ENGINE_TRACK};
use mccio_pfs::{FileHandle, IoFaults, ServiceReport};
use mccio_sim::error::SimResult;
use mccio_sim::time::VTime;
use mccio_sim::vmem;

use crate::plan::CollectivePlan;
use crate::schedule::{ClientWindow, CommSchedule, RankPieces};

use super::env::IoEnv;
use super::prologue::{self, drive_storage, OpState};
use super::recover::CrashTracker;
use super::settle::settle_round;
use super::wire::{check_messages, messages, retry_delta, sealers};

/// Mutable per-round facts both directions fill in and settle with.
#[derive(Default)]
pub(super) struct RoundFacts {
    /// `(dst, bytes)` flows this rank sends this round (recovery
    /// prepends the interrupted round's lost flows so the replay is
    /// priced).
    pub(super) flows: Vec<(usize, u64)>,
    /// Bytes this rank assembled in aggregation buffers.
    pub(super) assembled: u64,
    /// Message seals this rank verified (crash-gated, else zero).
    pub(super) integrity: u64,
}

/// Executes one collective operation of either direction. SPMD: every
/// rank of the world calls in with the same `plan` and `pattern`, and
/// `my_extents` equal to its extents in `pattern`. An [`Op::Read`]
/// leaves this rank's packed data in its vector, which must be empty
/// and stays empty when the operation fails.
///
/// Accumulates everything endured into `res` (which the returned
/// report's `resilience` mirrors on success), so a caller falling down
/// the degradation ladder keeps the counts from failed rungs. A healthy
/// environment never fails.
///
/// # Errors
/// Returns [`mccio_sim::error::SimError::TransientIo`] when aggregation
/// memory cannot be reserved within the retry budget, collectively on
/// every rank.
#[allow(clippy::too_many_arguments)]
pub fn execute(
    ctx: &mut Ctx,
    env: &IoEnv,
    handle: &FileHandle,
    plan: &CollectivePlan,
    pattern: &GroupPattern,
    my_extents: &ExtentList,
    op: Op<'_>,
    res: &mut Resilience,
) -> SimResult<IoReport> {
    env.enter_op(ctx);
    // Everything crash recovery needs — message seals, the agreed
    // clock, the mutable live plan — is gated on the plan actually
    // scheduling crashes, so crash-free runs execute the exact healthy
    // path (bit-identical goldens).
    let integrity = env.faults().plan().has_crashes();
    // Persistent: the schedule is built on this rank's first op under
    // this plan and reused by every later one (the read after the write,
    // the next repetition of the access). It also carries the buffers
    // the prologue reserves. Fetched here, above `run_op`'s frame, so a
    // first op's build does not run under it.
    let schedule = env.schedule_cached(plan, pattern, ctx.rank(), my_extents, integrity);
    run_op(
        ctx, env, handle, plan, pattern, my_extents, op, res, schedule, integrity,
    )
}

/// [`execute`] once the schedule is in hand.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn run_op(
    ctx: &mut Ctx,
    env: &IoEnv,
    handle: &FileHandle,
    plan: &CollectivePlan,
    pattern: &GroupPattern,
    my_extents: &ExtentList,
    mut op: Op<'_>,
    res: &mut Resilience,
    mut schedule: Arc<CommSchedule>,
    integrity: bool,
) -> SimResult<IoReport> {
    let bytes = my_extents.total_bytes();
    let total = bytes as usize;
    let me = ctx.rank();
    // What this rank contributes to each round's shuffle; `None` on a
    // read, whose output the exposure below borrows.
    let data = match op {
        Op::Write(data) => Some(data),
        Op::Read(_) => None,
    };
    // Exposed before the prologue's clock sync, withdrawn after the
    // epilogue's barrier: no peer touches the buffer outside that span.
    let exposure = match &mut op {
        Op::Write(data) => ctx.expose(data),
        Op::Read(out) => {
            out.reserve_exact(total);
            // SAFETY: a rank reads its output only to check a seal, over
            // a window whose header arrived, and the window's aggregator
            // put its bytes before sending that header.
            unsafe { ctx.expose_uninit(&mut out.spare_capacity_mut()[..total]) }
        }
    };
    let mut state = OpState::new(ctx, env);
    prologue::open(ctx, env, &mut state, &schedule.buffers, res)?;
    let mut tracker = CrashTracker::begin(ctx, env, &state.world);
    let mut live_plan = tracker.as_ref().map(|_| plan.clone());
    let obs = env.obs().clone();
    if obs.is_enabled() {
        trace_schedule(ctx, &obs, &schedule);
    }
    let is_write = data.is_some();
    let n_rounds = schedule.rounds.len();
    for round in 0..n_rounds {
        let log_before = state.faults.log;
        let mut facts = RoundFacts::default();

        // --- recover: detect crashes, re-elect, re-plan (crash-gated) ---
        if let Some(t) = tracker.as_mut() {
            let live = live_plan.as_mut().expect("tracker implies a live plan");
            if let Err(e) = t.begin_round(
                ctx,
                env,
                &mut state,
                live,
                pattern,
                my_extents,
                &mut schedule,
                round as u64,
                is_write,
                &mut facts,
                res,
            ) {
                // Collective failure: every rank returns together.
                // Release with trace marks so occupancy balances even
                // though the epilogue never runs on this path.
                state.release_reservations(ctx, env);
                return Err(e);
            }
        }

        let report = shuffle(
            ctx,
            env,
            &state.world,
            handle,
            &schedule,
            round,
            data,
            &mut state.faults,
            &mut facts,
            integrity,
        );

        let delta = retry_delta(state.faults.log, log_before);
        let sent: u64 = facts.flows.iter().map(|&(_, b)| b).sum();
        state.scratch.rounds += 1;
        state.scratch.shuffle_bytes += sent;
        state.scratch.storage_requests += report.total_requests();
        state.scratch.storage_bytes += report.total_bytes();
        if obs.is_enabled() {
            trace_rank_round(ctx, &obs, sent, facts.assembled, &report, delta.retries);
        }

        res.integrity_verified += facts.integrity;
        let settled = settle_round(
            ctx,
            env,
            &state.world,
            &facts.flows,
            &report,
            facts.assembled,
            delta,
            is_write,
            facts.integrity,
        );
        if let Some(t) = tracker.as_mut() {
            t.advance(settled);
        }
    }

    prologue::close(ctx, env, &mut state, res);
    drop(exposure);
    if let Op::Read(out) = &mut op {
        // SAFETY: the schedule's client windows tile `[0, total)` (its
        // build asserts it), and each window's aggregator put its bytes
        // before the header `check_read` compared.
        unsafe { out.set_len(total) };
    }
    if obs.is_enabled() && me == 0 {
        let dir = if op.is_write() { "write" } else { "read" };
        trace_op(ctx, &obs, state.t0, dir, bytes, state.scratch.rounds);
    }
    prologue::report(ctx, env, &state, bytes, res)
}

/// One round's data plane: what this rank contributes, the exchange,
/// and what it does with what arrived; `data` is this rank's write
/// payload, `None` on a read. Returns the round's storage report. Its
/// own frame, so none of it is live under the settlement.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn shuffle(
    ctx: &mut Ctx,
    env: &IoEnv,
    world: &RankSet,
    handle: &FileHandle,
    schedule: &CommSchedule,
    round: usize,
    data: Option<&[u8]>,
    faults: &mut IoFaults,
    facts: &mut RoundFacts,
    integrity: bool,
) -> ServiceReport {
    let mut report = ServiceReport::empty(env.fs.n_servers());
    let rs = &schedule.rounds[round];

    // --- contribute: what this rank puts on the wire ---
    let (sends, recv_from) = match data {
        Some(data) => (
            client_sends(schedule, round, data, facts, integrity),
            rs.agg_sources.as_slice(),
        ),
        None => (
            fetch_and_put(
                ctx,
                handle,
                schedule,
                round,
                faults,
                &mut report,
                facts,
                integrity,
            ),
            rs.client_sources.as_slice(),
        ),
    };

    // --- shuffle: the one exchange both directions share ---
    let received = ctx.exchange(world, sends, recv_from);
    if integrity {
        facts.integrity += received.len() as u64;
    }

    // --- absorb: what this rank does with what arrived ---
    match data {
        Some(_) => aggregate_and_store(
            ctx,
            handle,
            schedule,
            round,
            &received,
            faults,
            &mut report,
            facts,
            integrity,
        ),
        None => check_read(ctx, schedule, round, &received, integrity),
    }
    report
}

// The traces below are outlined (as are the round's data-plane halves)
// so their frames are never live under `run_op`'s parks: every
// rank's stack holds this frame through every round's settlement.

/// Marks this rank's schedule on its trace track.
#[inline(never)]
fn trace_schedule(ctx: &Ctx, obs: &ObsSink, schedule: &CommSchedule) {
    obs.instant(
        ctx.rank() as u32,
        "schedule",
        "plan",
        ctx.clock(),
        &[
            ("rounds", AttrValue::U64(schedule.rounds.len() as u64)),
            ("client_bytes", AttrValue::U64(schedule.client_bytes())),
            (
                "assembled_bytes",
                AttrValue::U64(schedule.assembled_bytes()),
            ),
        ],
    );
}

/// Marks this rank's facts for one round. Rank clocks stand still
/// between settlements, so they are zero-duration marks at the round's
/// start.
#[inline(never)]
fn trace_rank_round(
    ctx: &Ctx,
    obs: &ObsSink,
    sent: u64,
    assembled: u64,
    report: &ServiceReport,
    retries: u64,
) {
    obs.instant(
        ctx.rank() as u32,
        "rank.round",
        "engine",
        ctx.clock(),
        &[
            ("sent_bytes", AttrValue::U64(sent)),
            ("assembled_bytes", AttrValue::U64(assembled)),
            ("storage_requests", AttrValue::U64(report.total_requests())),
            ("storage_bytes", AttrValue::U64(report.total_bytes())),
            ("retries", AttrValue::U64(retries)),
        ],
    );
}

/// The world root's op span, and the causal blame chain that tiles it.
#[inline(never)]
fn trace_op(ctx: &Ctx, obs: &ObsSink, t0: VTime, dir: &'static str, bytes: u64, rounds: u64) {
    obs.span(
        ENGINE_TRACK,
        "op",
        "engine",
        t0,
        ctx.clock() - t0,
        &[
            ("dir", AttrValue::Str(dir)),
            ("bytes", AttrValue::U64(bytes)),
            ("rounds", AttrValue::U64(rounds)),
        ],
    );
    // Walk the causal frontier back from this op's end: the blame
    // chain's [t0, clock] window is exactly the op span above, so its
    // total is bit-equal to the span duration by construction.
    obs.causal_op_end(ctx.rank(), ctx.causal_head(), t0, ctx.clock(), dir);
}

/// Write contribute-half: one header message per destination
/// aggregator, announcing the scheduled sections of this rank's request
/// (their bytes stay in `data` for the aggregator to copy), each
/// accounted at its wire length; under a crash plan each is sealed over
/// the sections' bytes.
#[inline(never)]
fn client_sends(
    schedule: &CommSchedule,
    round: usize,
    data: &[u8],
    facts: &mut RoundFacts,
    integrity: bool,
) -> Vec<(usize, u64, Payload)> {
    let rs = &schedule.rounds[round];
    for cw in &rs.client_windows {
        facts.flows.push((rs.client_dsts[cw.dst].rank, cw.bytes));
    }
    let run = |cw: &ClientWindow| &data[cw.packed as usize..(cw.packed + cw.bytes) as usize];
    let runs = rs.client_windows.iter().map(|cw| (cw.dst, run(cw)));
    let seals = sealers(schedule, &rs.client_dsts, integrity, runs);
    messages(schedule, &rs.client_dsts, seals)
}

/// Write absorb-half: check every contributor's header message against
/// this rank's own encoding of it (and its seal, under a crash plan,
/// against the bytes about to land), then store each scheduled window,
/// copying each contributor's bytes from the run of its exposed buffer
/// the schedule names. A window whose pieces tile its one-span union
/// (one with a [`crate::schedule::WindowSchedule::walk`]) is laid
/// straight into the file, front to back through one
/// [`vmem::StreamWriter`], as the one span write the sieve would issue —
/// no assembly buffer at all. A window with holes or overlapping writers
/// assembles into a buffer of its own, contributors in rank order, and
/// goes through the sieve.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn aggregate_and_store(
    ctx: &Ctx,
    handle: &FileHandle,
    schedule: &CommSchedule,
    round: usize,
    received: &[(usize, Payload)],
    faults: &mut IoFaults,
    report: &mut ServiceReport,
    facts: &mut RoundFacts,
    integrity: bool,
) {
    let rs = &schedule.rounds[round];
    // SAFETY (every `exposed` below): write data is exposed read-only,
    // and its owner withdraws it only after `close`'s barrier, which
    // this rank has not reached.
    let run =
        |rp: &RankPieces| unsafe { ctx.exposed(rp.rank, rp.packed as usize, rp.bytes as usize) };
    let runs = rs.agg_windows.iter().flat_map(|ws| &ws.per_rank);
    let runs = runs.map(|rp| (rp.dst, run(rp)));
    let seals = sealers(schedule, &rs.agg_dsts, integrity, runs);
    check_messages(schedule, &rs.agg_dsts, received, seals, ctx.rank(), round);
    // Each contributor's pieces not yet laid, and their bytes.
    let mut cursors = Vec::new();
    for ws in &rs.agg_windows {
        facts.assembled += ws.assembly_bytes;
        if let Some(walk) = ws.walk() {
            // The pieces tile the union's one span, so the sieve would
            // blind-write exactly this range; lay them straight into it,
            // front to back in walk order, as one streamed destination.
            // The fill runs once, on the attempt that succeeds.
            let span = ws.union.as_slice()[0];
            cursors.clear();
            cursors.extend(
                ws.per_rank
                    .iter()
                    .map(|rp| (rp.pieces.as_slice().iter(), run(rp))),
            );
            let r = drive_storage(faults, |f| {
                handle.write_at_with(span.offset, span.len, f, |dst| {
                    let mut w = vmem::StreamWriter::new(dst);
                    for &i in walk {
                        let (pieces, bytes) = &mut cursors[usize::from(i)];
                        let e = pieces.next().expect("the walk visits each piece once");
                        let (piece, rest) = bytes.split_at(e.len as usize);
                        w.push(piece);
                        *bytes = rest;
                    }
                    w.finish();
                })
            });
            report.merge(&r);
            continue;
        }
        // Holes or overlapping writers: assemble the union's bytes, the
        // contributors in rank order, so where two overlap the higher
        // rank's bytes win, and sieve them into the file.
        let mut buf = vec![0; ws.assembly_bytes as usize];
        for rp in &ws.per_rank {
            let mut bytes = run(rp);
            for &e in rp.pieces.as_slice() {
                let (piece, rest) = bytes.split_at(e.len as usize);
                let at = ws.position(e.offset);
                buf[at..at + piece.len()].copy_from_slice(piece);
                bytes = rest;
            }
        }
        let out = drive_storage(faults, |f| {
            sieved_write(handle, &ws.union, &buf, ws.sieve(), f)
        });
        report.merge(&out.report);
    }
}

/// Read contribute-half: fetch each scheduled window with one priced
/// storage access and copy each requester's pieces into its exposed
/// output, as the one run the schedule names; then send each requester
/// its header message, sealed under a crash plan over the bytes put. A
/// hole-free window inside EOF is copied straight out of a zero-copy
/// file view; otherwise the union is sieved into a buffer first (which
/// also supplies the zero bytes of any beyond-EOF tail).
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn fetch_and_put(
    ctx: &Ctx,
    handle: &FileHandle,
    schedule: &CommSchedule,
    round: usize,
    faults: &mut IoFaults,
    report: &mut ServiceReport,
    facts: &mut RoundFacts,
    integrity: bool,
) -> Vec<(usize, u64, Payload)> {
    let rs = &schedule.rounds[round];
    let mut seals = sealers(schedule, &rs.agg_dsts, integrity, []);
    // Puts requester `rp`'s pieces, each read from `src` at `pos(piece)`.
    let mut put = |rp: &RankPieces, src: &[u8], pos: &dyn Fn(Extent) -> usize| {
        let mut seal = seals.get_mut(rp.dst);
        if let Some(s) = seal.as_mut() {
            s.section();
        }
        let mut w = ctx.put_run(rp.rank, rp.packed as usize, rp.bytes as usize);
        for &e in rp.pieces.as_slice() {
            let from = pos(e);
            let piece = &src[from..from + e.len as usize];
            if let Some(s) = seal.as_mut() {
                s.bytes(piece);
            }
            w.push(piece);
        }
        w.finish();
    };
    for ws in &rs.agg_windows {
        facts.assembled += ws.assembly_bytes;
        for rp in &ws.per_rank {
            facts.flows.push((rp.rank, rp.bytes));
        }
        if let [span] = ws.union.as_slice() {
            if span.end() <= handle.len() {
                let ((), r) = drive_storage(faults, |f| {
                    handle.read_at_with(span.offset, span.len, f, |view| {
                        for rp in &ws.per_rank {
                            put(rp, view, &|e| (e.offset - span.offset) as usize);
                        }
                    })
                });
                report.merge(&r);
                continue;
            }
        }
        let (packed, sv) = drive_storage(faults, |f| sieved_read(handle, &ws.union, ws.sieve(), f));
        report.merge(&sv.report);
        for rp in &ws.per_rank {
            put(rp, &packed, &|e| ws.position(e.offset));
        }
    }
    messages(schedule, &rs.agg_dsts, seals)
}

/// Read absorb-half: check each aggregator's header message against
/// this rank's own encoding of its message to that aggregator. The
/// aggregator has already put the announced bytes into this rank's
/// output; under a crash plan the seal is checked over them where they
/// now sit.
#[inline(never)]
fn check_read(
    ctx: &Ctx,
    schedule: &CommSchedule,
    round: usize,
    received: &[(usize, Payload)],
    integrity: bool,
) {
    let rs = &schedule.rounds[round];
    // SAFETY: the aggregator put these bytes before sending the header
    // now in `received`, nobody puts them again, and this rank withdraws
    // its output only after `close`.
    let run = |cw: &ClientWindow| unsafe {
        ctx.exposed(ctx.rank(), cw.packed as usize, cw.bytes as usize)
    };
    let runs = rs.client_windows.iter().map(|cw| (cw.dst, run(cw)));
    let seals = sealers(schedule, &rs.client_dsts, integrity, runs);
    check_messages(
        schedule,
        &rs.client_dsts,
        received,
        seals,
        ctx.rank(),
        round,
    );
}

#[cfg(test)]
mod tests {
    use mccio_net::{RankSet, World};
    use mccio_pfs::{FileSystem, PfsParams};
    use mccio_sim::cost::CostModel;
    use mccio_sim::topology::{test_cluster, FillOrder, Placement};

    use mccio_net::wire::put_u64;

    use super::*;
    use crate::plan::DomainPlan;

    /// Rank 0 owns `[0, 10)` and `[20, 30)`, rank 1 the gaps between;
    /// rank 1 aggregates both 20-byte domains in one round. Returns each
    /// rank's schedule.
    fn schedules() -> [CommSchedule; 2] {
        let lists = [[(0, 10), (20, 10)], [(10, 10), (30, 10)]]
            .map(|l| ExtentList::normalize(l.map(|(o, n)| Extent::new(o, n)).to_vec()));
        let pattern = GroupPattern::from_parts(RankSet::world(2), lists.to_vec());
        let domain = |offset| DomainPlan {
            domain: Extent::new(offset, 20),
            aggregator: 1,
            buffer: 20,
            group: 0,
        };
        let plan = CollectivePlan {
            domains: vec![domain(0), domain(20)],
        };
        [0, 1].map(|me| CommSchedule::build(&plan, &pattern, me, &lists[me]))
    }

    /// Runs `f` on rank `me` of a two-rank world in which rank `r`
    /// exposes `exposed[r]` bytes of value `r + 1` (nothing for `None`).
    fn on_rank(me: usize, exposed: [Option<usize>; 2], f: impl Fn(&Ctx) + Send + Sync) {
        let cluster = test_cluster(1, 2);
        let placement = Placement::new(&cluster, 2, FillOrder::Block).unwrap();
        World::new(CostModel::new(cluster), placement).run(|ctx| {
            let data = [ctx.rank() as u8 + 1; 20];
            let _e = exposed[ctx.rank()].map(|n| ctx.expose(&data[..n]));
            ctx.barrier();
            if ctx.rank() == me {
                f(ctx);
            }
            ctx.barrier();
        });
    }

    /// Rank 1 stores the round from both ranks' header messages, each
    /// passed through `tamper` with its sender first. With `sealed`
    /// holding each sender's byte value, every sender seals its message
    /// as if its 20 bytes all had that value (the exposed ones are its
    /// rank plus one).
    fn store_with(
        exposed: [Option<usize>; 2],
        sealed: Option<[u8; 2]>,
        tamper: impl Fn(usize, &mut Vec<u8>) + Send + Sync,
    ) {
        on_rank(1, exposed, |ctx| {
            let schedules = schedules();
            let mut facts = RoundFacts::default();
            let integrity = sealed.is_some();
            let received: Vec<_> = (0..2)
                .map(|src| {
                    let data = [sealed.map_or(0, |b| b[src]); 20];
                    let sends = client_sends(&schedules[src], 0, &data, &mut facts, integrity);
                    let mut msg = sends[0].2.as_slice().to_vec();
                    tamper(src, &mut msg);
                    (src, Payload::from(msg))
                })
                .collect();
            let fs = FileSystem::new(4, 64, PfsParams::default());
            aggregate_and_store(
                ctx,
                &fs.open_or_create("f"),
                &schedules[1],
                0,
                &received,
                &mut IoFaults::none(),
                &mut ServiceReport::empty(4),
                &mut facts,
                integrity,
            );
            let want = [1, 2, 1, 2].map(|b| [b; 10]).concat();
            assert_eq!(fs.open("f").unwrap().read_at(0, 40).0, want);
        });
    }

    fn store(tamper: impl Fn(usize, &mut Vec<u8>) + Send + Sync) {
        store_with([Some(20); 2], None, tamper);
    }

    /// Rank 0 checks one header message from aggregator 1 announcing
    /// `sections`, each `(domain, [(offset, len)])`, in the wire format.
    fn scatter(sections: &[(u64, &[(u64, u64)])]) {
        let mut msg = Vec::new();
        put_u64(&mut msg, sections.len() as u64);
        for &(domain, pieces) in sections {
            put_u64(&mut msg, domain);
            put_u64(&mut msg, pieces.len() as u64);
            for &(offset, len) in pieces {
                put_u64(&mut msg, offset);
                put_u64(&mut msg, len);
            }
        }
        on_rank(0, [None; 2], |ctx| {
            let received = [(1, Payload::from(msg.clone()))];
            check_read(ctx, &schedules()[0], 0, &received, false);
        });
    }

    const SCHEDULED: [(u64, &[(u64, u64)]); 2] = [(0, &[(0, 10)]), (1, &[(20, 10)])];

    #[test]
    fn messages_that_match_the_schedule_land() {
        store(|_, _| {});
        store_with([Some(20); 2], Some([1, 2]), |_, _| {});
        scatter(&SCHEDULED);
    }

    #[test]
    #[should_panic(
        expected = "rank 1's round 0 header from rank 0 differs from its schedule at word 3: \
                    got 0x1, expected 0x0"
    )]
    fn a_wrong_piece_header_panics() {
        // Count, domain and piece count precede the first offset word.
        store(|src, p| {
            if src == 0 {
                p[24..32].copy_from_slice(&1u64.to_le_bytes());
            }
        });
    }

    #[test]
    #[should_panic(expected = "rank 0 differs from its schedule at word 0: got 0x3, expected 0x2")]
    fn an_extra_section_panics() {
        store(|src, p| {
            if src == 0 {
                p[..8].copy_from_slice(&3u64.to_le_bytes());
                p.extend_from_slice(&[[2, 0, 0, 0, 0, 0, 0, 0], [0; 8]].concat());
            }
        });
    }

    #[test]
    #[should_panic(expected = "rank 1 differs from its schedule at word 8: got 0x5, expected 0xa")]
    fn a_short_section_panics() {
        scatter(&[SCHEDULED[0], (1, &[(20, 5)])]);
    }

    #[test]
    #[should_panic(expected = "rank 1 differs from its schedule at word 0: got 0x1, expected 0x2")]
    fn a_missing_section_panics() {
        scatter(&SCHEDULED[..1]);
    }

    #[test]
    #[should_panic(expected = "rank 1 differs from its schedule at word 1: got 0x1, expected 0x0")]
    fn a_reordered_section_panics() {
        scatter(&[SCHEDULED[1], SCHEDULED[0]]);
    }

    #[test]
    #[should_panic(expected = "rank 0 differs from its schedule at word 3: got 0xa, expected 0x0")]
    fn a_header_from_the_wrong_peer_panics() {
        // Rank 0's message is the one rank 1 sends.
        let s = &schedules()[1];
        let theirs = s.header(&s.rounds[0].client_dsts[0]).to_vec();
        store(move |src, p| {
            if src == 0 {
                p.clone_from(&theirs);
            }
        });
    }

    #[test]
    #[should_panic(expected = "rank 1's round 0 header from rank 0: end-to-end checksum mismatch")]
    fn stale_section_bytes_under_a_seal_panic() {
        // Rank 0 sealed bytes other than the ones rank 1 copies.
        store_with([Some(20); 2], Some([9, 2]), |_, _| {});
    }

    #[test]
    #[should_panic(expected = "outside the 15 bytes rank 0 exposes")]
    fn a_section_past_its_owners_exposed_bytes_names_the_rank() {
        // Rank 0's second section is packed bytes [10, 20).
        store_with([Some(15), Some(20)], None, |_, _| {});
    }

    #[test]
    #[should_panic(expected = "rank 0 exposes no buffer")]
    fn a_section_of_a_withdrawn_buffer_names_the_rank() {
        store_with([None, Some(20)], None, |_, _| {});
    }
}
