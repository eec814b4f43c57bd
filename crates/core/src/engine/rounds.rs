//! The direction-agnostic round loop, driven by the plan-time
//! communication schedule.
//!
//! One executor ([`execute_op`]) runs both directions of two-phase
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
//!   storage access, copying the contributors' runs straight into the
//!   file when the union is hole-free, into an assembly buffer for the
//!   sieve's read-modify-write when it is not;
//! * [`Op::Read`]: aggregators fetch their windows with one priced
//!   access (a zero-copy file view when hole-free, a sieved read
//!   otherwise) and copy each requester's pieces into its output.
//!
//! Messages still flow exactly as a two-sided shuffle's would, one per
//! (sender, receiver) pair and round, but carry only the section
//! headers (`super::wire`), which receivers check against their own
//! schedule. The output of a read is allocated once and never
//! zero-filled: the schedule build proves that every rank's client
//! windows tile its buffer, and every window is filled before its
//! header arrives.
//!
//! Nothing is discovered here: send destinations, receive lists, piece
//! routings, packed positions, union layouts, and buffer sizes all come
//! from the [`crate::schedule::CommSchedule`] built once per plan and
//! rank (and reused by every operation that repeats the plan).
//! Everything else — prologue, reservation, exchange, pricing, epilogue
//! — is shared code in the sibling modules, which keeps the comparison
//! between strategies honest and every future engine capability paid
//! for exactly once.

use mccio_mpiio::sieve::{sieved_read_into, sieved_write_r};
use mccio_mpiio::{Extent, ExtentList, GroupPattern, IoReport, Resilience};
use mccio_net::Ctx;
use mccio_obs::{AttrValue, ENGINE_TRACK};
use mccio_pfs::{FileHandle, IoFaults, ServiceReport};
use mccio_sim::error::SimResult;

use crate::plan::CollectivePlan;
use crate::schedule::{RankPieces, RoundSchedule};

use super::env::IoEnv;
use super::pool::BufferPool;
use super::prologue::{self, drive_storage};
use super::recover::CrashTracker;
use super::settle::settle_round;
use super::wire::{retry_delta, Headers, Sections};

/// The data plane of a collective operation: what varies between the
/// write and read directions of the round loop.
#[derive(Clone, Copy)]
pub(super) enum Op<'d> {
    /// Aggregators copy `data` (this rank's extents packed in offset
    /// order) into the file.
    Write {
        /// This rank's payload, packed in extent offset order.
        data: &'d [u8],
    },
    /// Aggregators fetch their windows and copy the pieces into each
    /// requester's output.
    Read,
}

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
/// rank of the world calls in with the same `plan` and `pattern`.
/// Returns this rank's packed data for [`Op::Read`], `None` for
/// [`Op::Write`].
///
/// # Errors
/// Returns [`mccio_sim::error::SimError::TransientIo`] when aggregation
/// memory cannot be reserved within the retry budget, collectively on
/// every rank.
#[allow(clippy::too_many_arguments)]
pub(super) fn execute_op(
    ctx: &mut Ctx,
    env: &IoEnv,
    handle: &FileHandle,
    plan: &CollectivePlan,
    pattern: &GroupPattern,
    my_extents: &ExtentList,
    op: Op<'_>,
    res: &mut Resilience,
) -> SimResult<(Option<Vec<u8>>, IoReport)> {
    let total = my_extents.total_bytes() as usize;
    env.enter_op(ctx);
    let me = ctx.rank();
    // Everything crash recovery needs — message seals, the agreed
    // clock, the mutable live plan — is gated on the plan actually
    // scheduling crashes, so crash-free runs execute the exact healthy
    // path (bit-identical goldens).
    let integrity = env.faults().plan().has_crashes();
    // Persistent: the schedule is built on this rank's first op under
    // this plan and reused by every later one (the read after the write,
    // the next repetition of the access). It also carries the buffers
    // the prologue reserves.
    let mut schedule = env.schedule_cached(plan, pattern, me, my_extents, integrity);
    // Exposed before the prologue's clock sync, withdrawn after the
    // epilogue's barrier: no peer touches the buffer outside that span.
    let mut out = Vec::new();
    let exposure = match op {
        Op::Write { data } => ctx.expose(data),
        Op::Read => {
            out.reserve_exact(total);
            // SAFETY: a rank reads its output only to check a seal, over
            // a window whose header arrived, and the window's aggregator
            // put its bytes before sending that header.
            unsafe { ctx.expose_uninit(&mut out.spare_capacity_mut()[..total]) }
        }
    };
    let mut state = prologue::open(ctx, env, &schedule.buffers, res)?;
    let mut tracker = CrashTracker::begin(ctx, env, &state.world);
    let mut live_plan = tracker.as_ref().map(|_| plan.clone());
    let obs = env.obs().clone();
    if obs.is_enabled() {
        obs.instant(
            me as u32,
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
    let n_rounds = schedule.rounds.len();
    for round in 0..n_rounds {
        let log_before = state.faults.log;
        let mut report = ServiceReport::empty(env.fs.n_servers());
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
                matches!(op, Op::Write { .. }),
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
        let rs = &schedule.rounds[round];

        // --- contribute: what this rank puts on the wire ---
        let (sends, recv_from) = match op {
            Op::Write { data } => (
                client_sends(rs, data, &mut facts, &state.pool, integrity),
                rs.agg_sources.as_slice(),
            ),
            Op::Read => (
                fetch_and_put(
                    ctx,
                    handle,
                    rs,
                    &mut state.faults,
                    &mut report,
                    &mut facts,
                    &state.pool,
                    integrity,
                ),
                rs.client_sources.as_slice(),
            ),
        };

        // --- shuffle: the one exchange both directions share ---
        let received = ctx.exchange(&state.world, sends, recv_from);

        // --- absorb: what this rank does with what arrived ---
        match op {
            Op::Write { .. } => aggregate_and_store(
                ctx,
                handle,
                rs,
                received,
                &mut state.faults,
                &mut report,
                &mut facts,
                &state.pool,
                integrity,
            ),
            Op::Read => check_headers(ctx, rs, received, &mut facts, &state.pool, integrity),
        }

        let delta = retry_delta(state.faults.log, log_before);
        let sent: u64 = facts.flows.iter().map(|&(_, b)| b).sum();
        state.scratch.rounds += 1;
        state.scratch.shuffle_bytes += sent;
        state.scratch.storage_requests += report.total_requests();
        state.scratch.storage_bytes += report.total_bytes();
        if obs.is_enabled() {
            // Rank clocks stand still between settlements, so per-rank
            // round facts are zero-duration marks at the round's start.
            obs.instant(
                me as u32,
                "rank.round",
                "engine",
                ctx.clock(),
                &[
                    ("sent_bytes", AttrValue::U64(sent)),
                    ("assembled_bytes", AttrValue::U64(facts.assembled)),
                    ("storage_requests", AttrValue::U64(report.total_requests())),
                    ("storage_bytes", AttrValue::U64(report.total_bytes())),
                    ("retries", AttrValue::U64(delta.retries)),
                ],
            );
            obs.counter_add("shuffle.bytes", sent);
            obs.counter_add("storage.requests", report.total_requests());
            obs.counter_add("storage.bytes", report.total_bytes());
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
            matches!(op, Op::Write { .. }),
            facts.integrity,
        );
        if let Some(t) = tracker.as_mut() {
            t.advance(settled);
        }
    }

    let t0 = state.t0;
    let bytes = my_extents.total_bytes();
    let rounds = state.scratch.rounds;
    let report = prologue::close(ctx, env, state, bytes, res);
    drop(exposure);
    let out = matches!(op, Op::Read).then(|| {
        // SAFETY: the schedule's client windows tile `[0, total)` (its
        // build asserts it), and each window's aggregator put its bytes
        // before the header `check_headers` matched to it.
        unsafe { out.set_len(total) };
        out
    });
    if obs.is_enabled() && me == 0 {
        let dir = match op {
            Op::Write { .. } => "write",
            Op::Read => "read",
        };
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
        obs.counter_add("op.count", 1);
        // Walk the causal frontier back from this op's end: the blame
        // chain's [t0, clock] window is exactly the op span above, so
        // its total is bit-equal to the span duration by construction.
        obs.causal_op_end(t0, ctx.clock(), dir);
    }
    Ok((out, report))
}

/// Write contribute-half: one header message per destination
/// aggregator, announcing the scheduled sections of this rank's request
/// (their bytes stay in `data` for the aggregator to copy), each
/// accounted at its wire length.
fn client_sends(
    rs: &RoundSchedule,
    data: &[u8],
    facts: &mut RoundFacts,
    pool: &BufferPool,
    integrity: bool,
) -> Vec<(usize, u64, Vec<u8>)> {
    let mut headers = Headers::new(&rs.client_dsts, pool, integrity);
    for cw in &rs.client_windows {
        facts.flows.push((rs.client_dsts[cw.dst].rank, cw.bytes));
        headers.section(cw.dst, cw.domain, cw.pieces.iter().map(|&(e, _)| e));
        let start = cw.pieces[0].1 as usize;
        headers.fold(cw.dst, &data[start..start + cw.bytes as usize]);
    }
    headers.finish()
}

/// Write absorb-half: store each scheduled window, its contributors in
/// rank order each announcing their next section in their header
/// message (checked against the schedule, never decoded) and the bytes
/// copied from the run of their exposed buffer the schedule names. A
/// hole-free window (single-extent union) copies the pieces straight
/// into the file as the one span write the sieve would issue — no
/// assembly buffer at all; a window with holes assembles into a pooled
/// buffer and goes through the sieve's read-modify-write. Header
/// buffers retire into the pool for the next round.
#[allow(clippy::too_many_arguments)]
fn aggregate_and_store(
    ctx: &Ctx,
    handle: &FileHandle,
    rs: &RoundSchedule,
    received: Vec<(usize, Vec<u8>)>,
    faults: &mut IoFaults,
    report: &mut ServiceReport,
    facts: &mut RoundFacts,
    pool: &BufferPool,
    integrity: bool,
) {
    // `received` follows `rs.agg_sources`, so a contributor's message is
    // found by binary search there.
    let mut msgs: Vec<Sections<'_>> = received
        .iter()
        .map(|(_, msg)| Sections::new(msg, integrity))
        .collect();
    if integrity {
        facts.integrity += received.len() as u64;
    }
    // Lays contributor `rp`'s next section into `dst`, each piece at
    // `pos(piece)`.
    let mut land = |rp: &RankPieces, domain, dst: &mut [u8], pos: &dyn Fn(Extent) -> usize| {
        let i = rs
            .agg_sources
            .binary_search(&rp.rank)
            .expect("every contributor is a scheduled source");
        let pieces = rp.pieces.as_slice();
        msgs[i].take(domain, pieces.iter().copied());
        // SAFETY: write data is exposed read-only, and `rp.rank` withdraws
        // it only after `close`'s barrier, which this rank has not reached.
        let mut bytes = unsafe { ctx.exposed(rp.rank, rp.packed as usize, rp.bytes as usize) };
        msgs[i].fold(bytes);
        for &e in pieces {
            let (piece, rest) = bytes.split_at(e.len as usize);
            let at = pos(e);
            dst[at..at + piece.len()].copy_from_slice(piece);
            bytes = rest;
        }
    };
    for ws in &rs.agg_windows {
        facts.assembled += ws.assembly_bytes;
        if let [span] = ws.union.as_slice() {
            // The union tiles the span, so the sieve would blind-write
            // exactly this range; copy the pieces into it directly.
            // Contributors apply in rank order, as on the assembly path,
            // so overlapping writers resolve identically. The fill runs
            // once, on the attempt that succeeds.
            let r = drive_storage(faults, |f| {
                handle.try_write_at_with(span.offset, span.len, f, |dst| {
                    for rp in &ws.per_rank {
                        land(rp, ws.domain, dst, &|e| (e.offset - span.offset) as usize);
                    }
                })
            });
            report.merge(&r);
            continue;
        }
        let mut buf = pool.loan_filled(ws.assembly_bytes as usize);
        for rp in &ws.per_rank {
            land(rp, ws.domain, &mut buf, &|e| ws.position(e.offset));
        }
        let out = drive_storage(faults, |f| {
            sieved_write_r(handle, &ws.union, &buf, ws.sieve(), f)
        });
        report.merge(&out.report);
    }
    msgs.into_iter().for_each(Sections::finish);
    for (_, msg) in received {
        pool.put(msg);
    }
}

/// Read contribute-half: fetch each scheduled window with one priced
/// storage access and copy each requester's pieces into its exposed
/// output, as the one run the schedule names, announcing the section in
/// that requester's header message. A hole-free window inside EOF is
/// copied straight out of a zero-copy file view; otherwise the union is
/// sieved into a pooled buffer first (which also supplies the zero
/// bytes of any beyond-EOF tail).
#[allow(clippy::too_many_arguments)]
fn fetch_and_put(
    ctx: &Ctx,
    handle: &FileHandle,
    rs: &RoundSchedule,
    faults: &mut IoFaults,
    report: &mut ServiceReport,
    facts: &mut RoundFacts,
    pool: &BufferPool,
    integrity: bool,
) -> Vec<(usize, u64, Vec<u8>)> {
    let mut headers = Headers::new(&rs.agg_dsts, pool, integrity);
    // Puts requester `rp`'s pieces, each read from `src` at `pos(piece)`.
    let mut put = |rp: &RankPieces, domain, src: &[u8], pos: &dyn Fn(Extent) -> usize| {
        headers.section(rp.dst, domain, rp.pieces.as_slice().iter().copied());
        let mut at = rp.packed as usize;
        for &e in rp.pieces.as_slice() {
            let from = pos(e);
            let piece = &src[from..from + e.len as usize];
            headers.fold(rp.dst, piece);
            ctx.put_exposed(rp.rank, at, piece);
            at += piece.len();
        }
    };
    for ws in &rs.agg_windows {
        facts.assembled += ws.assembly_bytes;
        for rp in &ws.per_rank {
            facts.flows.push((rp.rank, rp.bytes));
        }
        if let [span] = ws.union.as_slice() {
            if span.end() <= handle.len() {
                let ((), r) = drive_storage(faults, |f| {
                    handle.try_read_at_with(span.offset, span.len, f, |view| {
                        for rp in &ws.per_rank {
                            put(rp, ws.domain, view, &|e| (e.offset - span.offset) as usize);
                        }
                    })
                });
                report.merge(&r);
                continue;
            }
        }
        let mut packed = pool.loan(ws.assembly_bytes as usize);
        let sv = drive_storage(faults, |f| {
            sieved_read_into(handle, &ws.union, ws.sieve(), f, &mut packed)
        });
        report.merge(&sv.report);
        for rp in &ws.per_rank {
            put(rp, ws.domain, &packed, &|e| ws.position(e.offset));
        }
    }
    headers.finish()
}

/// Read absorb-half: walk each aggregator's header message and match
/// every section to the scheduled client window of its domain. The
/// aggregator has already put the window's bytes into this rank's
/// output; under a crash plan the seal is checked over them where they
/// now sit. Every window must be announced exactly once, by its own
/// aggregator; the header buffers retire into the pool.
fn check_headers(
    ctx: &Ctx,
    rs: &RoundSchedule,
    received: Vec<(usize, Vec<u8>)>,
    facts: &mut RoundFacts,
    pool: &BufferPool,
    integrity: bool,
) {
    if integrity {
        facts.integrity += received.len() as u64;
    }
    let mut filled = 0;
    for (src, msg) in &received {
        let mut sections = Sections::new(msg, integrity);
        while let Some(domain) = sections.peek_domain() {
            let cw = rs
                .client_windows
                .binary_search_by_key(&domain, |cw| cw.domain)
                .map(|i| &rs.client_windows[i])
                .unwrap_or_else(|_| panic!("rank {src} sent unscheduled domain {domain}"));
            assert_eq!(
                rs.client_dsts[cw.dst].rank, *src,
                "domain {domain} arrived from the wrong aggregator"
            );
            sections.take(domain, cw.pieces.iter().map(|&(e, _)| e));
            if integrity {
                let start = cw.pieces[0].1 as usize;
                // SAFETY: the aggregator put these bytes before sending the
                // header just taken, nobody puts them again, and this rank
                // withdraws its output only after `close`.
                sections.fold(unsafe { ctx.exposed(ctx.rank(), start, cw.bytes as usize) });
            }
            filled += 1;
        }
        sections.finish();
    }
    assert_eq!(
        filled,
        rs.client_windows.len(),
        "a scheduled window received no section"
    );
    for (_, msg) in received {
        pool.put(msg);
    }
}

#[cfg(test)]
mod tests {
    use mccio_net::{RankSet, World};
    use mccio_pfs::{FileSystem, PfsParams};
    use mccio_sim::cost::CostModel;
    use mccio_sim::topology::{test_cluster, FillOrder, Placement};

    use super::*;
    use crate::plan::DomainPlan;
    use crate::schedule::CommSchedule;

    /// Rank 0 owns `[0, 10)` and `[20, 30)`, rank 1 the gaps between;
    /// rank 1 aggregates both 20-byte domains in one round. Returns each
    /// rank's schedule of that round.
    fn schedules() -> [RoundSchedule; 2] {
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
        [0, 1].map(|me| {
            let mut s = CommSchedule::build(&plan, &pattern, me, &lists[me]);
            s.rounds.remove(0)
        })
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

    /// Rank 1 stores the round from both ranks' header messages, the one
    /// from rank 0 passed through `tamper` first.
    fn store_exposing(exposed: [Option<usize>; 2], tamper: impl Fn(&mut Vec<u8>) + Send + Sync) {
        on_rank(1, exposed, |ctx| {
            let rs = schedules();
            let pool = BufferPool::default();
            let mut facts = RoundFacts::default();
            let mut sends = rs
                .each_ref()
                .map(|r| client_sends(r, &[9; 20], &mut facts, &pool, false));
            tamper(&mut sends[0][0].2);
            let received = sends.map(|mut s| s.remove(0).2).into_iter().enumerate();
            let fs = FileSystem::new(4, 64, PfsParams::default());
            aggregate_and_store(
                ctx,
                &fs.open_or_create("f"),
                &rs[1],
                received.collect(),
                &mut IoFaults::none(),
                &mut ServiceReport::empty(4),
                &mut facts,
                &pool,
                false,
            );
            let want = [1, 2, 1, 2].map(|b| [b; 10]).concat();
            assert_eq!(fs.open("f").unwrap().read_at(0, 40).0, want);
        });
    }

    fn store(tamper: impl Fn(&mut Vec<u8>) + Send + Sync) {
        store_exposing([Some(20); 2], tamper);
    }

    /// Rank 0 checks one header message from aggregator 1 announcing
    /// `sections`, each `(domain, [(offset, len)])`.
    fn scatter(sections: &[(usize, &[(u64, u64)])]) {
        let mut dst = schedules()[1].agg_dsts[0].clone();
        dst.sections = sections.len() as u64;
        let mut h = Headers::new(&[dst], &BufferPool::default(), false);
        for &(domain, pieces) in sections {
            h.section(0, domain, pieces.iter().map(|&(o, n)| Extent::new(o, n)));
        }
        let msg = h.finish().remove(0).2;
        on_rank(0, [None; 2], |ctx| {
            let (pool, mut facts) = (BufferPool::default(), RoundFacts::default());
            let received = vec![(1, msg.clone())];
            check_headers(ctx, &schedules()[0], received, &mut facts, &pool, false);
        });
    }

    const SCHEDULED: [(usize, &[(u64, u64)]); 2] = [(0, &[(0, 10)]), (1, &[(20, 10)])];

    #[test]
    fn messages_that_match_the_schedule_land() {
        store(|_| {});
        scatter(&SCHEDULED);
    }

    #[test]
    #[should_panic(expected = "piece header (1, 10) disagrees")]
    fn a_write_piece_header_off_the_schedule_panics() {
        // Count, domain and piece count precede the first offset word.
        store(|p| p[24..32].copy_from_slice(&1u64.to_le_bytes()));
    }

    #[test]
    #[should_panic(expected = "message carries 1 unscheduled sections")]
    fn an_extra_write_section_panics() {
        store(|p| {
            p[..8].copy_from_slice(&3u64.to_le_bytes());
            p.extend_from_slice(&[9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        });
    }

    #[test]
    #[should_panic(expected = "outside the 15 bytes rank 0 exposes")]
    fn a_section_past_its_owners_exposed_bytes_names_the_rank() {
        // Rank 0's second section is packed bytes [10, 20).
        store_exposing([Some(15), Some(20)], |_| {});
    }

    #[test]
    #[should_panic(expected = "rank 0 exposes no buffer")]
    fn a_section_of_a_withdrawn_buffer_names_the_rank() {
        store_exposing([None, Some(20)], |_| {});
    }

    #[test]
    #[should_panic(expected = "piece header (20, 5) disagrees")]
    fn a_short_read_section_panics() {
        scatter(&[SCHEDULED[0], (1, &[(20, 5)])]);
    }

    #[test]
    #[should_panic(expected = "a scheduled window received no section")]
    fn a_missing_read_section_panics() {
        scatter(&SCHEDULED[..1]);
    }

    #[test]
    #[should_panic(expected = "in domain order")]
    fn an_extra_read_section_panics() {
        scatter(&[SCHEDULED[0], SCHEDULED[1], SCHEDULED[1]]);
    }
}
