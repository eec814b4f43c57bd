//! The lock-step round engine: executes any
//! [`CollectivePlan`](crate::plan::CollectivePlan).
//!
//! Both strategies reduce to the same execution shape, the two phases of
//! two-phase collective I/O run `rounds` times:
//!
//! * **write round**: every rank announces the pieces of its request
//!   that fall in each active domain window to the window's aggregator
//!   (shuffle); aggregators copy the pieces out of their owners' buffers
//!   and issue one sieved storage access per window (I/O);
//! * **read round**: aggregators fetch their windows with one sieved
//!   access and copy the pieces into the requesting ranks' outputs.
//!
//! Bytes move for real (the tests check round trips bit-for-bit), and
//! one-sided: for the length of an op each rank exposes its packed
//! buffer ([`mccio_net::rma`]), and each shuffled byte is copied once,
//! between that buffer and the file window. Messages still flow as a
//! two-sided shuffle's would, but carry only section headers, encoded
//! once per schedule and compared by each receiver with its own
//! encoding for that peer; each is accounted at its
//! *wire length*, the two-sided payload's (`wire`). Time is charged once
//! per round, computed at the world root from the gathered round facts —
//! the exchange flow list, every aggregator's storage
//! [`mccio_pfs::ServiceReport`], assembled-buffer volumes, and the memory
//! model's current pressure factors — and broadcast, so virtual time is a
//! pure function of the plan and never of thread scheduling.
//!
//! Before the first byte moves, the executor fetches this rank's
//! [`crate::schedule::CommSchedule`] for the plan — per round: send
//! destinations with exact message and wire lengths, receive lists,
//! each section's run in its owner's packed buffer, and each aggregated
//! window's union layout and assembly size. It is built on the rank's
//! first operation under that plan and retained with the cached plan
//! (`IoEnv::schedule_cached`), so the read after a write and every
//! repetition of the same access reuse it, header messages included.
//! The round loop is then pure data movement: a healthy message is a
//! slice of the schedule's encoding, and only a window with holes
//! allocates, its assembly buffer. The schedule reproduces the legacy per-round discovery exactly, so
//! virtual time, file bytes, and traffic are bit-identical
//! (`tests/golden_determinism.rs`) while host wall clock drops (the
//! `perfbench/` package at the repository root measures it).
//!
//! The module tree separates the phases every operation shares from the
//! one thing that differs between directions:
//!
//! * [`env`](self) — [`IoEnv`], the environment operations run against;
//! * `wire` — header-message checks and seals, and the fact codec of
//!   the pricing messages;
//! * `prologue` — clock sync, fault application, collective reservation,
//!   and the matching epilogue;
//! * `rounds` — [`execute`], the single direction-agnostic round
//!   executor, driven by an [`mccio_mpiio::Op`] over the schedule;
//! * `recover` — crash detection, aggregator re-election, and mid-op
//!   re-planning when the fault plan schedules rank crashes;
//! * `settle` — round pricing at the world root.

mod env;
mod prologue;
mod recover;
mod rounds;
mod settle;
mod wire;

pub use env::{IoEnv, PlanKey};
pub use rounds::execute;
pub(crate) use wire::CHECKSUM_TRAILER;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{CollectivePlan, DomainPlan};
    use mccio_mem::MemoryModel;
    use mccio_mpiio::{Extent, ExtentList, GroupPattern, IoReport, Op, Resilience};
    use mccio_net::Ctx;
    use mccio_net::{ExecutorKind, RankSet, World};
    use mccio_obs::ObsSink;
    use mccio_pfs::FileHandle;
    use mccio_pfs::{FileSystem, PfsParams};
    use mccio_sim::cost::CostModel;
    use mccio_sim::fault::FaultPlan;
    use mccio_sim::time::{VDuration, VTime};
    use mccio_sim::topology::{test_cluster, FillOrder, Placement};

    /// A healthy collective write through [`execute`].
    fn write(
        ctx: &mut Ctx,
        env: &IoEnv,
        handle: &FileHandle,
        plan: &CollectivePlan,
        pattern: &GroupPattern,
        extents: &ExtentList,
        data: &[u8],
    ) -> IoReport {
        let mut res = Resilience::default();
        execute(
            ctx,
            env,
            handle,
            plan,
            pattern,
            extents,
            Op::Write(data),
            &mut res,
        )
        .unwrap()
    }

    /// A healthy collective read through [`execute`].
    fn read(
        ctx: &mut Ctx,
        env: &IoEnv,
        handle: &FileHandle,
        plan: &CollectivePlan,
        pattern: &GroupPattern,
        extents: &ExtentList,
    ) -> (Vec<u8>, IoReport) {
        let mut out = Vec::new();
        let mut res = Resilience::default();
        let op = Op::Read(&mut out);
        let report = execute(ctx, env, handle, plan, pattern, extents, op, &mut res).unwrap();
        (out, report)
    }

    fn env() -> IoEnv {
        let cluster = test_cluster(2, 2);
        IoEnv::new(
            FileSystem::new(4, 64, PfsParams::default()),
            MemoryModel::pristine(&cluster),
        )
    }

    fn world() -> std::sync::Arc<World> {
        world_on(ExecutorKind::Event)
    }

    fn world_on(kind: ExecutorKind) -> std::sync::Arc<World> {
        let cluster = test_cluster(2, 2);
        let placement = Placement::new(&cluster, 4, FillOrder::Block).unwrap();
        World::with_executor(CostModel::new(cluster), placement, kind)
    }

    /// A fault plan that only delays every control-plane message by
    /// 10 ms.
    fn delay_plan() -> FaultPlan {
        FaultPlan::new(7).delay_control(VDuration::from_micros(10_000.0))
    }

    /// The fault-free env, or one under [`delay_plan`].
    fn env_with(delayed: bool) -> IoEnv {
        let cluster = test_cluster(2, 2);
        let fs = FileSystem::new(4, 64, PfsParams::default());
        let mem = MemoryModel::pristine(&cluster);
        if delayed {
            IoEnv::with_faults(fs, mem, delay_plan())
        } else {
            IoEnv::new(fs, mem)
        }
    }

    /// One run of a direct write + read through [`execute`] (aggregators
    /// 0 and 2, several rounds): each rank's reports and final clock bits.
    fn direct_pair(w: &std::sync::Arc<World>, e: &IoEnv) -> Vec<(IoReport, IoReport, u64)> {
        w.run(|ctx| {
            let env = e.clone();
            let handle = env.fs.open_or_create("direct");
            let extents = rank_extents(ctx.rank());
            let data = rank_data(ctx.rank());
            let pattern = GroupPattern::gather(ctx, &RankSet::world(4), &extents);
            let plan = simple_plan(pattern.global_range().unwrap(), 100, &[0, 2]);
            let wr = write(ctx, &env, &handle, &plan, &pattern, &extents, &data);
            let (back, rr) = read(ctx, &env, &handle, &plan, &pattern, &extents);
            assert_eq!(back, data, "rank {} roundtrip", ctx.rank());
            (wr, rr, ctx.clock().as_secs().to_bits())
        })
    }

    /// When [`sieved_windows_and_a_crash_replay_agree_on_every_schedule`]
    /// crashes aggregator 2: inside the write.
    const CRASH_AT: f64 = 0.003;

    fn simple_plan(range: Extent, buffer: u64, aggs: &[usize]) -> CollectivePlan {
        let n = aggs.len() as u64;
        let chunk = range.len.div_ceil(n);
        CollectivePlan {
            domains: aggs
                .iter()
                .enumerate()
                .map(|(i, &a)| {
                    let off = range.offset + i as u64 * chunk;
                    let len = chunk.min(range.end().saturating_sub(off));
                    DomainPlan {
                        domain: Extent::new(off, len),
                        aggregator: a,
                        buffer,
                        group: 0,
                    }
                })
                .collect(),
        }
    }

    fn rank_extents(rank: usize) -> ExtentList {
        // Interleaved 32-byte blocks, 8 per rank over 4 ranks.
        ExtentList::normalize(
            (0..8u64)
                .map(|i| Extent::new((i * 4 + rank as u64) * 32, 32))
                .collect(),
        )
    }

    fn rank_data(rank: usize) -> Vec<u8> {
        (0..256u32)
            .map(|i| (i as u8).wrapping_mul(7).wrapping_add(rank as u8 * 31))
            .collect()
    }

    #[test]
    fn write_read_roundtrip_multiround() {
        let w = world();
        let e = env();
        let reports = w.run(|ctx| {
            let env = e.clone();
            let handle = env.fs.open_or_create("f");
            let extents = rank_extents(ctx.rank());
            let data = rank_data(ctx.rank());
            let pattern = GroupPattern::gather(ctx, &RankSet::world(4), &extents);
            // Two aggregators, small buffers → several rounds.
            let plan = simple_plan(pattern.global_range().unwrap(), 100, &[0, 2]);
            assert!(plan.rounds() > 1);
            let wr = write(ctx, &env, &handle, &plan, &pattern, &extents, &data);
            let (back, rr) = read(ctx, &env, &handle, &plan, &pattern, &extents);
            assert_eq!(back, data, "rank {} roundtrip", ctx.rank());
            (wr, rr)
        });
        for (wr, rr) in reports {
            assert_eq!(wr.bytes, 256);
            assert!(wr.elapsed.as_secs() > 0.0);
            assert!(rr.elapsed.as_secs() > 0.0);
        }
    }

    #[test]
    fn file_contents_match_global_layout() {
        let w = world();
        let e = env();
        let _ = w.run(|ctx| {
            let env = e.clone();
            let handle = env.fs.open_or_create("g");
            let extents = rank_extents(ctx.rank());
            let data = rank_data(ctx.rank());
            let pattern = GroupPattern::gather(ctx, &RankSet::world(4), &extents);
            let plan = simple_plan(pattern.global_range().unwrap(), 1 << 20, &[1]);
            let _ = write(ctx, &env, &handle, &plan, &pattern, &extents, &data);
        });
        // Check the file directly against the generators.
        let handle = e.fs.open("g").unwrap();
        assert_eq!(handle.len(), 4 * 256);
        let (all, _) = handle.read_at(0, 1024);
        for rank in 0..4usize {
            let data = rank_data(rank);
            for (ext, range) in rank_extents(rank).with_buffer_ranges() {
                assert_eq!(
                    &all[ext.offset as usize..ext.end() as usize],
                    &data[range],
                    "rank {rank} extent {ext:?}"
                );
            }
        }
    }

    #[test]
    fn sparse_pattern_with_idle_ranks() {
        let w = world();
        let e = env();
        let _ = w.run(|ctx| {
            let env = e.clone();
            let handle = env.fs.open_or_create("sparse");
            let extents = if ctx.rank() == 2 {
                ExtentList::normalize(vec![Extent::new(1000, 64), Extent::new(5000, 64)])
            } else {
                ExtentList::default()
            };
            let data = vec![0xCDu8; extents.total_bytes() as usize];
            let pattern = GroupPattern::gather(ctx, &RankSet::world(4), &extents);
            let plan = simple_plan(pattern.global_range().unwrap(), 512, &[0, 3]);
            let _ = write(ctx, &env, &handle, &plan, &pattern, &extents, &data);
            let (back, _) = read(ctx, &env, &handle, &plan, &pattern, &extents);
            assert_eq!(back, data);
        });
        let handle = e.fs.open("sparse").unwrap();
        let (b, _) = handle.read_at(1000, 64);
        assert!(b.iter().all(|&x| x == 0xCD));
        let (hole, _) = handle.read_at(1064, 100);
        assert!(hole.iter().all(|&x| x == 0));
    }

    #[test]
    fn overlapping_reads_fan_out() {
        let w = world();
        let e = env();
        let _ = w.run(|ctx| {
            let env = e.clone();
            let handle = env.fs.open_or_create("shared");
            if ctx.rank() == 0 {
                handle.write_at(0, &(0..=255u8).collect::<Vec<_>>());
            }
            ctx.barrier();
            // Every rank reads the same 256 bytes.
            let extents = ExtentList::normalize(vec![Extent::new(0, 256)]);
            let pattern = GroupPattern::gather(ctx, &RankSet::world(4), &extents);
            let plan = simple_plan(pattern.global_range().unwrap(), 64, &[1]);
            let (back, _) = read(ctx, &env, &handle, &plan, &pattern, &extents);
            assert_eq!(back, (0..=255u8).collect::<Vec<_>>());
        });
    }

    #[test]
    #[should_panic(expected = "overlaps its predecessor")]
    fn a_hand_built_plan_with_overlapping_domains_is_refused() {
        let e = env();
        world().run(|ctx| {
            let (extents, data) = (rank_extents(ctx.rank()), rank_data(ctx.rank()));
            let pattern = GroupPattern::gather(ctx, &RankSet::world(4), &extents);
            let mut plan = simple_plan(pattern.global_range().unwrap(), 100, &[0, 2]);
            plan.domains[1].domain.offset -= 1;
            let handle = e.fs.open_or_create("overlap");
            write(ctx, &e, &handle, &plan, &pattern, &extents, &data)
        });
    }

    #[test]
    fn empty_plan_is_a_noop() {
        let w = world();
        let e = env();
        let reports = w.run(|ctx| {
            let env = e.clone();
            let handle = env.fs.open_or_create("empty");
            let extents = ExtentList::default();
            let pattern = GroupPattern::gather(ctx, &RankSet::world(4), &extents);
            let plan = CollectivePlan::default();
            write(ctx, &env, &handle, &plan, &pattern, &extents, &[])
        });
        for r in reports {
            assert_eq!(r.bytes, 0);
        }
    }

    #[test]
    fn virtual_time_is_deterministic_across_runs() {
        let run = || {
            let w = world();
            let e = env();
            let reports = w.run(|ctx| {
                let env = e.clone();
                let handle = env.fs.open_or_create("det");
                let extents = rank_extents(ctx.rank());
                let data = rank_data(ctx.rank());
                let pattern = GroupPattern::gather(ctx, &RankSet::world(4), &extents);
                let plan = simple_plan(pattern.global_range().unwrap(), 128, &[0, 2]);
                write(ctx, &env, &handle, &plan, &pattern, &extents, &data)
            });
            reports
                .into_iter()
                .map(|r| r.elapsed.as_secs())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn memory_pressure_slows_the_same_plan() {
        // Big enough volumes that DRAM time is visible next to the
        // storage terms: each rank writes 2 MiB contiguously.
        let elapsed_with = |mem: MemoryModel| {
            let w = world();
            let e = IoEnv::new(FileSystem::new(4, 1 << 16, PfsParams::default()), mem);
            let reports = w.run(|ctx| {
                let env = e.clone();
                let handle = env.fs.open_or_create("p");
                let r = ctx.rank() as u64;
                let extents = ExtentList::normalize(vec![Extent::new(r * (2 << 20), 2 << 20)]);
                let data = vec![r as u8 + 1; 2 << 20];
                let pattern = GroupPattern::gather(ctx, &RankSet::world(4), &extents);
                // Aggregator rank 0 sits on node 0 with a huge buffer.
                let plan = simple_plan(pattern.global_range().unwrap(), 16 << 20, &[0]);
                write(ctx, &env, &handle, &plan, &pattern, &extents, &data)
            });
            reports[0].elapsed.as_secs()
        };
        let cluster = test_cluster(2, 2);
        let healthy = elapsed_with(MemoryModel::pristine(&cluster));
        // Node 0 completely full: the 1 MiB reservation pages entirely.
        let starved = elapsed_with(MemoryModel::build(
            &cluster,
            |n, cap| if n == 0 { cap } else { 0 },
            mccio_mem::MemParams::default(),
        ));
        assert!(
            starved > healthy * 2.0,
            "pressure must slow the op: healthy {healthy}, starved {starved}"
        );
    }

    #[test]
    fn direct_ops_under_a_control_delay_agree_on_every_schedule() {
        // Every rank sets the control delay and the causal hook for
        // itself on op entry, so a rank that runs ahead cannot re-price
        // or re-stamp the messages of a rank that has not got there yet.
        let run = |kind| {
            let sink = ObsSink::enabled().with_causal();
            let reports = direct_pair(&world_on(kind), &env_with(true).with_obs(sink.clone()));
            (reports, sink.causal_chains(), sink.causal_edges())
        };
        let canonical = run(ExecutorKind::Event);
        assert!(
            canonical.1.iter().any(|c| c.hops() > 0),
            "the delayed run produced no cross-rank hop: the comparison is vacuous"
        );
        for kind in ExecutorKind::EXPLORED {
            assert!(
                run(kind) == canonical,
                "{kind:?} diverged from the canonical schedule"
            );
        }
    }

    #[test]
    fn sieved_windows_and_a_crash_replay_agree_on_every_schedule() {
        // Rank 3 requests nothing, so every window has holes and goes
        // through the sieve; aggregator 2 crashes mid-write, so its
        // windows are replayed by a re-elected one under sealed messages.
        let run = |kind| {
            let cluster = test_cluster(2, 2);
            let plan = FaultPlan::new(7).crash_rank_at(VTime::from_secs(CRASH_AT), 2);
            let fs = FileSystem::new(4, 64, PfsParams::default());
            let e = IoEnv::with_faults(fs, MemoryModel::pristine(&cluster), plan);
            let ranks = world_on(kind).run(|ctx| {
                let me = ctx.rank();
                let extents = if me == 3 {
                    ExtentList::default()
                } else {
                    rank_extents(me)
                };
                let data = &rank_data(me)[..extents.total_bytes() as usize];
                let pattern = GroupPattern::gather(ctx, &RankSet::world(4), &extents);
                let plan = simple_plan(pattern.global_range().unwrap(), 100, &[0, 2]);
                let handle = e.fs.open_or_create("holes");
                let mut res = Resilience::default();
                let op = Op::Write(data);
                let w = execute(ctx, &e, &handle, &plan, &pattern, &extents, op, &mut res);
                let (back, r) = read(ctx, &e, &handle, &plan, &pattern, &extents);
                assert_eq!(back, data, "rank {me} roundtrip");
                (w.expect("recovered"), r, back, res.crashes_detected)
            });
            let handle = e.fs.open("holes").unwrap();
            (
                ranks,
                mccio_sim::hash::fnv1a(&handle.read_at(0, handle.len()).0),
            )
        };
        let canonical = run(ExecutorKind::Event);
        assert!(
            canonical.0.iter().all(|r| r.3 > 0),
            "the crash never landed"
        );
        for kind in ExecutorKind::EXPLORED {
            assert!(
                run(kind) == canonical,
                "{kind:?} diverged from the canonical schedule"
            );
        }
    }

    /// Where writers overlap, the higher rank's bytes land: in a window
    /// whose union is one span (so it has no walk and is assembled) and
    /// in one with holes, on the canonical schedule and every explored
    /// one.
    #[test]
    fn overlapping_writers_leave_the_higher_ranks_bytes_on_every_schedule() {
        // Aggregator 0's window [0, 96) is one span that ranks 0-2
        // overlap in; aggregator 2's [96, 192) has holes at [96, 112)
        // and [160, 176), and ranks 2 and 3 overlap at [140, 150).
        const SPANS: [&[(u64, u64)]; 4] = [
            &[(0, 48)],
            &[(16, 80)],
            &[(40, 96), (112, 150)],
            &[(140, 160), (176, 192)],
        ];
        let extents = |rank: usize| {
            let spans = SPANS[rank].iter();
            ExtentList::normalize(spans.map(|&(a, b)| Extent::new(a, b - a)).collect())
        };
        // Byte `o` as rank `r` writes it.
        let tag = |r: usize, o: u64| ((r as u8 + 1) << 5) | (o % 32) as u8;
        let want: Vec<u8> = (0..192)
            .map(|o| {
                let covers = |r: &usize| SPANS[*r].iter().any(|&(a, b)| (a..b).contains(&o));
                (0..4).rev().find(covers).map_or(0, |r| tag(r, o))
            })
            .collect();
        let lists: Vec<ExtentList> = (0..4).map(extents).collect();
        let pattern = GroupPattern::from_parts(RankSet::world(4), lists.clone());
        let plan = simple_plan(pattern.global_range().unwrap(), 96, &[0, 2]);
        let window = |agg: usize| {
            let s = crate::schedule::CommSchedule::build(&plan, &pattern, agg, &lists[agg]);
            s.rounds[0].agg_windows[0].clone()
        };
        let (one_span, holed) = (window(0), window(2));
        assert!(one_span.union.len() == 1 && one_span.walk().is_none());
        assert!(holed.union.len() > 1 && holed.walk().is_none());

        let run = |kind| {
            let e = env();
            world_on(kind).run(|ctx| {
                let me = ctx.rank();
                let data: Vec<u8> = (extents(me).as_slice().iter())
                    .flat_map(|x| (x.offset..x.end()).map(move |o| tag(me, o)))
                    .collect();
                let handle = e.fs.open_or_create("overlap");
                let _ = write(ctx, &e, &handle, &plan, &pattern, &extents(me), &data);
            });
            let handle = e.fs.open("overlap").unwrap();
            handle.read_at(0, handle.len()).0
        };
        for kind in std::iter::once(ExecutorKind::Event).chain(ExecutorKind::EXPLORED) {
            assert!(run(kind) == want, "{kind:?}: a lower rank's byte won");
        }
    }

    #[test]
    fn a_healthy_op_after_a_faulty_one_matches_a_fresh_world() {
        let w = world();
        let _ = direct_pair(&w, &env_with(true));
        assert_eq!(
            direct_pair(&w, &env_with(false)),
            direct_pair(&world(), &env_with(false)),
            "the faulty run's control delay outlived it"
        );
    }

    #[test]
    fn each_causal_sink_receives_exactly_its_own_runs_edges() {
        let traced = |w: &std::sync::Arc<World>| {
            let sink = ObsSink::enabled().with_causal();
            let _ = direct_pair(w, &env_with(true).with_obs(sink.clone()));
            (sink.causal_edges(), sink.causal_chains())
        };
        let fresh = traced(&world());
        assert!(!fresh.0.is_empty(), "the traced run recorded no edge");
        let w = world();
        let first = traced(&w);
        let second = traced(&w);
        assert!(first == fresh, "the first sink saw another run's messages");
        assert!(
            second == fresh,
            "the second sink missed its own run's messages"
        );
    }

    #[test]
    fn a_failed_collective_reservation_leaves_one_peak_on_every_schedule() {
        // Aggregators 0 and 1 share node 0, whose 100 free bytes cannot
        // hold their 70 + 40: every attempt fails, and which of the two
        // fits first depends on the schedule. The node's peak must not.
        let run = |kind| {
            let cluster = test_cluster(2, 2);
            let mem = MemoryModel::build(
                &cluster,
                |node, cap| if node == 0 { cap - 100 } else { 0 },
                mccio_mem::MemParams::default(),
            );
            let fs = FileSystem::new(4, 64, PfsParams::default());
            let e = IoEnv::with_faults(fs, mem, delay_plan());
            let failed = world_on(kind).run(|ctx| {
                let env = e.clone();
                let handle = env.fs.open_or_create("starved");
                let extents = rank_extents(ctx.rank());
                let data = rank_data(ctx.rank());
                let pattern = GroupPattern::gather(ctx, &RankSet::world(4), &extents);
                let mut plan = simple_plan(pattern.global_range().unwrap(), 70, &[0, 1]);
                plan.domains[1].buffer = 40;
                let mut res = Resilience::default();
                let op = Op::Write(&data);
                execute(ctx, &env, &handle, &plan, &pattern, &extents, op, &mut res).is_err()
            });
            assert!(failed.iter().all(|&f| f), "{kind:?}: the op must fail");
            e.mem.peak_reserved(0)
        };
        let canonical = run(ExecutorKind::Event);
        for kind in ExecutorKind::EXPLORED {
            assert_eq!(run(kind), canonical, "{kind:?}: peak diverged");
        }
    }
}
