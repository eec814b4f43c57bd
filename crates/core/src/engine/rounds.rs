//! The direction-agnostic round loop, driven by the plan-time
//! communication schedule.
//!
//! One executor ([`execute_op`]) runs both directions of two-phase
//! collective I/O; the data plane — which bytes this rank contributes
//! before the shuffle and which bytes it absorbs after — is the only
//! thing [`Op`] varies:
//!
//! * [`Op::Write`]: clients ship the scheduled pieces of their request
//!   to each window's aggregator (shuffle); aggregators store each
//!   window with one priced storage access — gathered straight from
//!   the payloads when the union is hole-free, assembled and sieved
//!   when it is not;
//! * [`Op::Read`]: aggregators fetch their windows with one priced
//!   access (a zero-copy file view when hole-free, a sieved read
//!   otherwise) and scatter the scheduled pieces back to the
//!   requesting ranks.
//!
//! Nothing is discovered here: send destinations, receive lists, piece
//! routings, union layouts, and buffer sizes all come from the
//! [`crate::schedule::CommSchedule`] built once per plan and rank (and
//! reused by every operation that repeats the plan), so the loop is pure
//! data movement — payloads are allocated at exact final size, and assembly
//! buffers are recycled through the [`BufferPool`] instead of
//! reallocated per window per round. Everything else — prologue,
//! reservation, exchange, pricing, epilogue — is shared code in the
//! sibling modules, which keeps the comparison between strategies
//! honest and every future engine capability paid for exactly once.

use mccio_mpiio::sieve::{sieved_read_into, sieved_write_r};
use mccio_mpiio::{Extent, ExtentList, GroupPattern, IoReport, Resilience};
use mccio_net::wire::put_u64;
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
use super::wire::{append_section, retry_delta, seal_payload, Sections};

/// The data plane of a collective operation: what varies between the
/// write and read directions of the round loop.
#[derive(Clone, Copy)]
pub(super) enum Op<'d> {
    /// Clients push `data` (this rank's extents packed in offset order)
    /// to aggregators, which assemble and store it.
    Write {
        /// This rank's payload, packed in extent offset order.
        data: &'d [u8],
    },
    /// Aggregators fetch their windows and scatter the pieces back.
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
    /// Payload checksums this rank verified (crash-gated, else zero).
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
    if let Op::Write { data } = op {
        debug_assert!(data.len() as u64 >= my_extents.total_bytes());
    }
    env.enter_op(ctx);
    let me = ctx.rank();
    // Everything crash recovery needs — payload checksums, the agreed
    // clock, the mutable live plan — is gated on the plan actually
    // scheduling crashes, so crash-free runs execute the exact healthy
    // path (bit-identical goldens).
    let integrity = env.faults().plan().has_crashes();
    // Persistent: the schedule is built on this rank's first op under
    // this plan and reused by every later one (the read after the write,
    // the next repetition of the access). It also carries the buffers
    // the prologue reserves.
    let mut schedule = env.schedule_cached(plan, pattern, me, my_extents, integrity);
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
    let mut out = match op {
        Op::Write { .. } => None,
        Op::Read => Some(vec![0u8; my_extents.total_bytes() as usize]),
    };

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
                fetch_and_scatter_sends(
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
                handle,
                rs,
                received,
                &mut state.faults,
                &mut report,
                &mut facts,
                &state.pool,
                integrity,
            ),
            Op::Read => scatter_into(
                rs,
                received,
                out.as_mut().expect("read allocates its output buffer"),
                &mut facts,
                &state.pool,
                integrity,
            ),
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

/// Write contribute-half: encode the scheduled pieces of this rank's
/// request, one exact-size payload per destination aggregator. The
/// section count is known up front, so each payload is written straight
/// through with no patching and no reallocation.
fn client_sends(
    rs: &RoundSchedule,
    data: &[u8],
    facts: &mut RoundFacts,
    pool: &BufferPool,
    integrity: bool,
) -> Vec<(usize, Vec<u8>)> {
    let mut per_dst: Vec<(usize, Vec<u8>)> = rs
        .client_dsts
        .iter()
        .map(|d| {
            let mut buf = pool.take(d.payload_bytes);
            put_u64(&mut buf, d.sections);
            (d.rank, buf)
        })
        .collect();
    for cw in &rs.client_windows {
        facts.flows.push((rs.client_dsts[cw.dst].rank, cw.bytes));
        let buf = &mut per_dst[cw.dst].1;
        put_u64(buf, cw.domain as u64);
        put_u64(buf, cw.pieces.len() as u64);
        for (e, _) in &cw.pieces {
            put_u64(buf, e.offset);
            put_u64(buf, e.len);
        }
        for &(e, start) in &cw.pieces {
            let start = start as usize;
            buf.extend_from_slice(&data[start..start + e.len as usize]);
        }
    }
    if integrity {
        for (_, buf) in &mut per_dst {
            seal_payload(buf);
        }
    }
    per_dst
}

/// Write absorb-half: store each scheduled window, its contributors in
/// rank order each handing over their payload's next section (checked
/// against the schedule, never decoded). A hole-free window
/// (single-extent union) gathers the pieces straight into the file as
/// the one span write the sieve would issue — no assembly buffer at
/// all; a window with holes assembles into a pooled buffer and goes
/// through the sieve's read-modify-write. Payloads and assembly buffers
/// retire into the pool for the next round.
#[allow(clippy::too_many_arguments)]
fn aggregate_and_store(
    handle: &FileHandle,
    rs: &RoundSchedule,
    received: Vec<(usize, Vec<u8>)>,
    faults: &mut IoFaults,
    report: &mut ServiceReport,
    facts: &mut RoundFacts,
    pool: &BufferPool,
    integrity: bool,
) {
    // `received` follows `rs.agg_sources`, so a contributor's payload is
    // found by binary search there.
    let mut payloads: Vec<Sections<'_>> = received
        .iter()
        .map(|(_, payload)| Sections::new(payload, integrity))
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
        let bytes = payloads[i].take(domain, pieces.iter().copied());
        place(bytes, dst, pieces.iter().map(|&e| (pos(e), e.len)));
    };
    for ws in &rs.agg_windows {
        facts.assembled += ws.assembly_bytes;
        if let [span] = ws.union.as_slice() {
            // The union tiles the span, so the sieve would blind-write
            // exactly this range; scatter the pieces into it directly.
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
    payloads.into_iter().for_each(Sections::finish);
    for (_, payload) in received {
        pool.put(payload);
    }
}

/// Lays a section's packed bytes into `dst`: consecutive runs of
/// `bytes`, one per `(position, len)` piece.
fn place(mut bytes: &[u8], dst: &mut [u8], pieces: impl Iterator<Item = (usize, u64)>) {
    for (pos, len) in pieces {
        let (piece, rest) = bytes.split_at(len as usize);
        dst[pos..pos + piece.len()].copy_from_slice(piece);
        bytes = rest;
    }
    debug_assert!(bytes.is_empty(), "a section's bytes are its pieces'");
}

/// Read contribute-half: fetch each scheduled window with one priced
/// storage access and append the per-rank scatter sections to
/// exact-size payloads. A hole-free window inside EOF scatters the
/// pieces straight out of a zero-copy file view; otherwise the union is
/// sieved into a pooled buffer first (which also supplies the zero
/// bytes of any beyond-EOF tail).
#[allow(clippy::too_many_arguments)]
fn fetch_and_scatter_sends(
    handle: &FileHandle,
    rs: &RoundSchedule,
    faults: &mut IoFaults,
    report: &mut ServiceReport,
    facts: &mut RoundFacts,
    pool: &BufferPool,
    integrity: bool,
) -> Vec<(usize, Vec<u8>)> {
    let mut per_dst: Vec<(usize, Vec<u8>)> = rs
        .agg_dsts
        .iter()
        .map(|d| {
            let mut buf = pool.take(d.payload_bytes);
            put_u64(&mut buf, d.sections);
            (d.rank, buf)
        })
        .collect();
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
                            append_section(
                                &mut per_dst[rp.dst].1,
                                ws.domain as u64,
                                &rp.pieces,
                                |e| {
                                    let pos = (e.offset - span.offset) as usize;
                                    &view[pos..pos + e.len as usize]
                                },
                            );
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
            append_section(&mut per_dst[rp.dst].1, ws.domain as u64, &rp.pieces, |e| {
                let pos = ws.position(e.offset);
                &packed[pos..pos + e.len as usize]
            });
        }
    }
    if integrity {
        for (_, buf) in &mut per_dst {
            seal_payload(buf);
        }
    }
    per_dst
}

/// Read absorb-half: walk each aggregator's payload, match every
/// section to the scheduled client window of its domain, and copy each
/// piece to the packed position the schedule resolved for it. Every
/// window is filled exactly once, from its own aggregator; the payloads
/// retire into the pool.
fn scatter_into(
    rs: &RoundSchedule,
    received: Vec<(usize, Vec<u8>)>,
    out: &mut [u8],
    facts: &mut RoundFacts,
    pool: &BufferPool,
    integrity: bool,
) {
    if integrity {
        facts.integrity += received.len() as u64;
    }
    let mut filled = 0;
    for (src, payload) in &received {
        let mut sections = Sections::new(payload, integrity);
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
            let bytes = sections.take(domain, cw.pieces.iter().map(|&(e, _)| e));
            place(
                bytes,
                out,
                cw.pieces.iter().map(|&(e, at)| (at as usize, e.len)),
            );
            filled += 1;
        }
        sections.finish();
    }
    assert_eq!(
        filled,
        rs.client_windows.len(),
        "a scheduled window received no section"
    );
    for (_, payload) in received {
        pool.put(payload);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use mccio_net::{BytePool, RankSet};
    use mccio_pfs::{FileSystem, PfsParams};

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

    fn pool() -> BufferPool {
        BufferPool::backed(Arc::new(BytePool::default()))
    }

    /// Rank 1 stores the round from both ranks' client payloads, the one
    /// from rank 0 passed through `tamper` first.
    fn store(tamper: impl FnOnce(&mut Vec<u8>)) {
        let rs = schedules();
        let pool = pool();
        let mut facts = RoundFacts::default();
        let mut sends = rs
            .each_ref()
            .map(|r| client_sends(r, &[9; 20], &mut facts, &pool, false));
        tamper(&mut sends[0][0].1);
        let received = sends.map(|mut s| s.remove(0)).to_vec();
        let fs = FileSystem::new(4, 64, PfsParams::default());
        aggregate_and_store(
            &fs.open_or_create("f"),
            &rs[1],
            received,
            &mut IoFaults::none(),
            &mut ServiceReport::empty(4),
            &mut facts,
            &pool,
            false,
        );
        assert_eq!(fs.open("f").unwrap().read_at(0, 40).0, vec![9; 40]);
    }

    /// Rank 0 scatters one payload from aggregator 1 carrying
    /// `sections`, each `(domain, [(offset, len)])`.
    fn scatter(sections: &[(u64, &[(u64, u64)])]) {
        let mut payload = Vec::new();
        put_u64(&mut payload, sections.len() as u64);
        for &(domain, pieces) in sections {
            let pieces = pieces.iter().map(|&(o, n)| Extent::new(o, n)).collect();
            append_section(&mut payload, domain, &ExtentList::normalize(pieces), |e| {
                &[5; 64][..e.len as usize]
            });
        }
        let mut out = vec![0; 20];
        scatter_into(
            &schedules()[0],
            vec![(1, payload)],
            &mut out,
            &mut RoundFacts::default(),
            &pool(),
            false,
        );
        assert_eq!(out, vec![5; 20]);
    }

    const SCHEDULED: [(u64, &[(u64, u64)]); 2] = [(0, &[(0, 10)]), (1, &[(20, 10)])];

    #[test]
    fn payloads_that_match_the_schedule_land() {
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
    #[should_panic(expected = "payload carries 1 unscheduled sections")]
    fn an_extra_write_section_panics() {
        store(|p| {
            p[..8].copy_from_slice(&3u64.to_le_bytes());
            put_u64(p, 9);
            put_u64(p, 0);
        });
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
