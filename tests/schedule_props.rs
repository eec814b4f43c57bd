//! Property tests for the plan-time communication schedule
//! (`mccio_core::schedule::CommSchedule`).
//!
//! The schedule replaced the engine's per-round discovery (member/window
//! rescans, union re-normalization, payload patching). These seeded-loop
//! properties pin the equivalence: for randomized patterns, plans, and
//! round counts, the schedule-derived send/receive lists, byte counts,
//! header encodings and assembly shapes must match a straight
//! reimplementation of the legacy per-round discovery; every header a
//! client sends an aggregator must be byte for byte the aggregator's
//! header back; and a full engine write/read round trip must stay
//! bit-exact.

use mccio_suite::core::mccio::MccioConfig;
use mccio_suite::core::plan::{CollectivePlan, DomainPlan};
use mccio_suite::core::prelude::*;
use mccio_suite::core::schedule::{CommSchedule, RoundSchedule, SendDst, WindowSchedule};
use mccio_suite::core::two_phase::TwoPhaseConfig;
use mccio_suite::mem::MemoryModel;
use mccio_suite::mpiio::GroupPattern;
use mccio_suite::sim::cost::CostModel;
use mccio_suite::sim::rng::{stream_rng, Prng, Rng};
use mccio_suite::sim::topology::{test_cluster, FillOrder, Placement};
use mccio_suite::sim::units::{KIB, MIB};

/// Up to `max_extents` random extents inside `[base, base + span)`,
/// normalized (so possibly fewer after merging, possibly empty when
/// `min_extents` is 0).
fn random_extents(
    rng: &mut Prng,
    base: u64,
    span: u64,
    min_extents: u64,
    max_extents: u64,
) -> ExtentList {
    let n = rng.gen_range(min_extents..=max_extents);
    ExtentList::normalize(
        (0..n)
            .map(|_| {
                let off = rng.gen_range(0..=span - 1);
                let len = rng.gen_range(1..=span / 8 + 1).min(span - off);
                Extent::new(base + off, len)
            })
            .collect(),
    )
}

/// A random valid plan over `range`: 1–3 contiguous domains, random
/// aggregators, buffers sized for 1–4 rounds per domain.
fn random_plan(rng: &mut Prng, range: Extent, n_ranks: usize) -> CollectivePlan {
    let n_domains = rng.gen_range(1u64..=3).min(range.len) as usize;
    let chunk = range.len.div_ceil(n_domains as u64).max(1);
    let domains = (0..n_domains as u64)
        .filter_map(|i| {
            let off = range.offset + i * chunk;
            if off >= range.end() {
                return None;
            }
            let len = chunk.min(range.end() - off);
            Some(DomainPlan {
                domain: Extent::new(off, len),
                aggregator: rng.gen_range(0..=n_ranks - 1),
                buffer: rng.gen_range(len.div_ceil(4).max(1)..=len),
                group: 0,
            })
        })
        .collect();
    CollectivePlan { domains }
}

// ---- the legacy per-round discovery, reimplemented as it was before
// ---- the schedule existed ----

fn legacy_windows(plan: &CollectivePlan, round: u64) -> Vec<(usize, Extent)> {
    plan.domains
        .iter()
        .enumerate()
        .filter_map(|(i, d)| d.window(round).map(|w| (i, w)))
        .collect()
}

type PerDst = Vec<(usize, Vec<(usize, ExtentList)>)>;

/// Legacy `client_sends` planning half: the flow list and the
/// per-destination section lists in first-touch order, from clipping my
/// extents against every active window (linear `find` per window).
fn legacy_client(
    plan: &CollectivePlan,
    windows: &[(usize, Extent)],
    my_extents: &ExtentList,
) -> (Vec<(usize, u64)>, PerDst) {
    let mut flows = Vec::new();
    let mut per_dst: PerDst = Vec::new();
    for &(di, w) in windows {
        let pieces = my_extents.clip(w);
        if pieces.is_empty() {
            continue;
        }
        let dst = plan.domains[di].aggregator;
        flows.push((dst, pieces.total_bytes()));
        match per_dst.iter_mut().find(|(d, _)| *d == dst) {
            Some((_, sections)) => sections.push((di, pieces)),
            None => per_dst.push((dst, vec![(di, pieces)])),
        }
    }
    (flows, per_dst)
}

/// Legacy `aggregator_sources`: the `O(members × windows)` rescan every
/// rank ran every round.
fn legacy_agg_sources(
    me: usize,
    plan: &CollectivePlan,
    windows: &[(usize, Extent)],
    pattern: &GroupPattern,
) -> Vec<usize> {
    let mut recv_from = Vec::new();
    for &src in pattern.group().members() {
        let sends_to_me = windows.iter().any(|&(di, w)| {
            plan.domains[di].aggregator == me && pattern.extents_of_rank(src).overlaps(w)
        });
        if sends_to_me {
            recv_from.push(src);
        }
    }
    recv_from
}

type WindowUnions = Vec<(usize, ExtentList, Vec<(usize, ExtentList)>)>;

/// Legacy read-path discovery per aggregated window: per-rank clips in
/// member order, flows, and the re-normalized union.
fn legacy_fetch(
    me: usize,
    plan: &CollectivePlan,
    windows: &[(usize, Extent)],
    pattern: &GroupPattern,
) -> (Vec<(usize, u64)>, WindowUnions) {
    let mut flows = Vec::new();
    let mut unions: WindowUnions = Vec::new();
    for &(di, w) in windows {
        if plan.domains[di].aggregator != me {
            continue;
        }
        let mut shapes: Vec<Extent> = Vec::new();
        let mut per_rank: Vec<(usize, ExtentList)> = Vec::new();
        for &rank in pattern.group().members() {
            let clipped = pattern.extents_of_rank(rank).clip(w);
            if !clipped.is_empty() {
                shapes.extend_from_slice(clipped.as_slice());
                per_rank.push((rank, clipped));
            }
        }
        if per_rank.is_empty() {
            continue;
        }
        for (rank, clipped) in &per_rank {
            flows.push((*rank, clipped.total_bytes()));
        }
        unions.push((di, ExtentList::normalize(shapes), per_rank));
    }
    (flows, unions)
}

/// Legacy `client_sources`: `O(n)` contains-check plus a per-round sort.
fn legacy_client_sources(
    plan: &CollectivePlan,
    windows: &[(usize, Extent)],
    my_extents: &ExtentList,
) -> Vec<usize> {
    let mut recv_from: Vec<usize> = Vec::new();
    for &(di, w) in windows {
        let agg = plan.domains[di].aggregator;
        if my_extents.overlaps(w) && !recv_from.contains(&agg) {
            recv_from.push(agg);
        }
    }
    recv_from.sort_unstable();
    recv_from
}

/// The legacy encoding of a header message,
/// `[count]{domain, n_pieces, {off, len}*}`, all words 8 bytes.
fn legacy_header(sections: &[(usize, ExtentList)]) -> Vec<u8> {
    let mut words = vec![sections.len() as u64];
    for (domain, pieces) in sections {
        words.extend([*domain as u64, pieces.len() as u64]);
        words.extend(pieces.as_slice().iter().flat_map(|e| [e.offset, e.len]));
    }
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// Exact wire size of a legacy-encoded payload:
/// `[count]{domain, n_pieces, {off, len}*, bytes}`, all words 8 bytes.
fn encoded_len(sections: &[(usize, ExtentList)]) -> usize {
    8 + sections
        .iter()
        .map(|(_, p)| 16 + 16 * p.len() + p.total_bytes() as usize)
        .sum::<usize>()
}

#[test]
fn schedule_matches_legacy_discovery() {
    let mut rng = stream_rng(0x5EED_5CED, "schedule-props");
    for case in 0..60 {
        let n_ranks = rng.gen_range(2usize..=8);
        let span = rng.gen_range(64u64..=4096);
        let per_rank: Vec<ExtentList> = (0..n_ranks)
            .map(|_| random_extents(&mut rng, 0, span, 0, 5))
            .collect();
        let pattern = GroupPattern::from_parts(RankSet::world(n_ranks), per_rank);
        let Some(range) = pattern.global_range() else {
            continue; // every rank drew an empty request
        };
        let plan = random_plan(&mut rng, range, n_ranks);
        plan.assert_invariants();
        let rounds = plan.rounds();
        assert!(rounds > 0, "case {case}: non-empty range plans rounds");

        let schedules: Vec<CommSchedule> = (0..n_ranks)
            .map(|me| {
                CommSchedule::build(&plan, &pattern, me, &pattern.extents_of_rank(me).to_list())
            })
            .collect();
        for (me, schedule) in schedules.iter().enumerate() {
            let mine = pattern.extents_of_rank(me).to_list();
            assert_eq!(
                schedule.rounds.len(),
                rounds as usize,
                "case {case}: round count"
            );
            for (r, rs) in schedule.rounds.iter().enumerate() {
                let windows = legacy_windows(&plan, r as u64);
                let ctx = format!("case {case} rank {me} round {r}");

                // Write direction: flows, destination order and exact
                // payload sizes.
                let (flows, per_dst) = legacy_client(&plan, &windows, &mine);
                let got_flows: Vec<(usize, u64)> = rs
                    .client_windows
                    .iter()
                    .map(|c| (rs.client_dsts[c.dst].rank, c.bytes))
                    .collect();
                assert_eq!(got_flows, flows, "{ctx}: client flows");
                assert_eq!(
                    rs.client_dsts.iter().map(|d| d.rank).collect::<Vec<_>>(),
                    per_dst.iter().map(|(d, _)| *d).collect::<Vec<_>>(),
                    "{ctx}: client destination order"
                );
                for (slot, (_, sections)) in per_dst.iter().enumerate() {
                    assert_eq!(
                        rs.client_dsts[slot].payload_bytes,
                        encoded_len(sections),
                        "{ctx}: payload size"
                    );
                }
                // Symmetry: each header to an aggregator is the legacy
                // encoding of the clipped sections, and byte for byte
                // the aggregator's header back; and each header to a
                // client has its match in that client's schedule.
                let peer_header = |peer: &CommSchedule, dsts: fn(&RoundSchedule) -> &[SendDst]| {
                    let d = dsts(&peer.rounds[r]).iter().find(|d| d.rank == me);
                    d.map(|d| peer.header(d).to_vec())
                };
                for (d, (_, sections)) in rs.client_dsts.iter().zip(&per_dst) {
                    let legacy = legacy_header(sections);
                    assert_eq!(schedule.header(d), legacy, "{ctx}: header to {}", d.rank);
                    let back = peer_header(&schedules[d.rank], |rs| &rs.agg_dsts);
                    assert_eq!(back, Some(legacy), "{ctx}: header back from {}", d.rank);
                }
                for d in &rs.agg_dsts {
                    let back = peer_header(&schedules[d.rank], |rs| &rs.client_dsts);
                    let sent = schedule.header(d).to_vec();
                    assert_eq!(back, Some(sent), "{ctx}: header from client {}", d.rank);
                }

                // Both receive lists.
                assert_eq!(
                    rs.agg_sources,
                    legacy_agg_sources(me, &plan, &windows, &pattern),
                    "{ctx}: aggregator sources"
                );
                assert_eq!(
                    rs.client_sources,
                    legacy_client_sources(&plan, &windows, &mine),
                    "{ctx}: client sources"
                );

                // Read direction: per-window unions, assembly sizes,
                // per-rank pieces, and flows.
                let (rflows, unions) = legacy_fetch(me, &plan, &windows, &pattern);
                let got_rflows: Vec<(usize, u64)> = rs
                    .agg_windows
                    .iter()
                    .flat_map(|ws| ws.per_rank.iter().map(|p| (p.rank, p.bytes)))
                    .collect();
                assert_eq!(got_rflows, rflows, "{ctx}: read flows");
                assert_eq!(rs.agg_windows.len(), unions.len(), "{ctx}: window count");
                for (ws, (di, union, per_rank)) in rs.agg_windows.iter().zip(&unions) {
                    assert_eq!(ws.domain, *di, "{ctx}: window domain");
                    assert_eq!(&ws.union, union, "{ctx}: window union");
                    assert_eq!(
                        ws.assembly_bytes,
                        union.total_bytes(),
                        "{ctx}: assembly size"
                    );
                    let got: Vec<(usize, &ExtentList)> =
                        ws.per_rank.iter().map(|p| (p.rank, &p.pieces)).collect();
                    let want: Vec<(usize, &ExtentList)> =
                        per_rank.iter().map(|(rk, p)| (*rk, p)).collect();
                    assert_eq!(got, want, "{ctx}: per-rank pieces");
                }
            }
        }
    }
}

/// Checks `ws`'s file-order walk: a window has one exactly when its
/// union is one span its contributors' pieces tile without overlap,
/// and then the walk visits every contributor's pieces once, each list
/// in its order, at offsets that rise contiguously across the span.
/// Returns whether the window has a walk.
fn check_walk(ws: &WindowSchedule, ctx: &str) -> bool {
    let bytes: u64 = ws.per_rank.iter().map(|p| p.bytes).sum();
    let tiles = matches!(ws.union.as_slice(), [span] if span.len == bytes);
    let Some(walk) = ws.walk() else {
        assert!(!tiles, "{ctx}: a tiled window has no walk");
        return false;
    };
    assert!(tiles, "{ctx}: a window with holes or overlaps has a walk");
    let span = ws.union.as_slice()[0];
    let mut next = vec![0; ws.per_rank.len()];
    let mut end = span.offset;
    for &i in walk {
        let rp = &ws.per_rank[usize::from(i)];
        let piece = rp.pieces.as_slice()[next[usize::from(i)]];
        next[usize::from(i)] += 1;
        assert_eq!(piece.offset, end, "{ctx}: the walk skips or repeats bytes");
        end = piece.end();
    }
    assert_eq!(end, span.end(), "{ctx}: the walk stops short of the span");
    let counts: Vec<usize> = ws.per_rank.iter().map(|p| p.pieces.len()).collect();
    assert_eq!(next, counts, "{ctx}: the walk misses a piece");
    true
}

/// `span` bytes from `base` cut into 1–24 pieces, each given to a random
/// rank of `n_ranks`: every byte is written exactly once.
fn random_tiling(rng: &mut Prng, base: u64, span: u64, n_ranks: usize) -> Vec<ExtentList> {
    let mut cuts: Vec<u64> = (0..rng.gen_range(0u64..=23))
        .map(|_| rng.gen_range(1..=span - 1))
        .collect();
    cuts.extend([0, span]);
    cuts.sort_unstable();
    cuts.dedup();
    let mut per_rank = vec![Vec::new(); n_ranks];
    for w in cuts.windows(2) {
        per_rank[rng.gen_range(0..=n_ranks - 1)].push(Extent::new(base + w[0], w[1] - w[0]));
    }
    per_rank.into_iter().map(ExtentList::normalize).collect()
}

/// The walk over random patterns, where windows overlap and have holes,
/// and over random tilings, where they mostly have neither.
#[test]
fn walks_tile_exactly_the_tiled_windows() {
    let mut rng = stream_rng(0x5EED_5CED, "schedule-walks");
    let (mut walked, mut shared) = (0, 0);
    for case in 0..120 {
        let n_ranks = rng.gen_range(2usize..=8);
        let span = rng.gen_range(64u64..=4096);
        let per_rank: Vec<ExtentList> = if case % 2 == 0 {
            (0..n_ranks)
                .map(|_| random_extents(&mut rng, 0, span, 0, 5))
                .collect()
        } else {
            random_tiling(&mut rng, 0, span, n_ranks)
        };
        let pattern = GroupPattern::from_parts(RankSet::world(n_ranks), per_rank);
        let Some(range) = pattern.global_range() else {
            continue;
        };
        let plan = random_plan(&mut rng, range, n_ranks);
        for me in 0..n_ranks {
            let mine = pattern.extents_of_rank(me).to_list();
            let schedule = CommSchedule::build(&plan, &pattern, me, &mine);
            for (r, rs) in schedule.rounds.iter().enumerate() {
                for ws in &rs.agg_windows {
                    let ctx = format!("case {case} rank {me} round {r} domain {}", ws.domain);
                    if check_walk(ws, &ctx) {
                        walked += 1;
                        shared += usize::from(ws.per_rank.len() > 1);
                    }
                }
            }
        }
    }
    // The properties bite: many walks interleave several contributors.
    assert!(
        shared > 50,
        "{walked} walks, {shared} of several contributors"
    );
}

/// Write→read round trips through the schedule-driven engine:
/// random non-overlapping patterns through both collective strategies
/// must read back bit-exactly what each rank wrote.
#[test]
fn pooled_engine_roundtrips_random_patterns() {
    const RANKS: usize = 4;
    const LANE: u64 = 64 * KIB;
    let tuning = Tuning {
        n_ah: 2,
        msg_ind: MIB,
        mem_min: 2 * MIB,
        msg_group: 4 * MIB,
    };
    let mut rng = stream_rng(0xB0F5_D00D, "schedule-roundtrip");
    for case in 0..4 {
        let buffer = rng.gen_range(8 * KIB..=64 * KIB);
        let seeds: Vec<u64> = (0..RANKS).map(|_| rng.next_u64()).collect();
        let strategies: Vec<(&str, Box<dyn Strategy>)> = vec![
            (
                "two-phase",
                Box::new(TwoPhase(TwoPhaseConfig::with_buffer(buffer))),
            ),
            (
                "memory-conscious",
                Box::new(MemoryConscious(MccioConfig::new(tuning, buffer, 16 * KIB))),
            ),
        ];
        for (name, strategy) in &strategies {
            let cluster = test_cluster(2, 2);
            let placement = Placement::new(&cluster, RANKS, FillOrder::Block).unwrap();
            let world = World::new(CostModel::new(cluster.clone()), placement);
            let env = IoEnv::new(
                FileSystem::new(4, 16 * KIB, PfsParams::default()),
                MemoryModel::pristine(&cluster),
            );
            let file = format!("props-{case}-{name}");
            world.run(|ctx| {
                let env = env.clone();
                let handle = env.fs.open_or_create(&file);
                // Each rank owns a disjoint file lane, so readback
                // equals exactly what this rank wrote.
                let mut lane_rng = stream_rng(seeds[ctx.rank()], "rank-extents");
                let extents = random_extents(&mut lane_rng, ctx.rank() as u64 * LANE, LANE, 1, 4);
                let data: Vec<u8> = (0..extents.total_bytes())
                    .map(|i| (i as u8).wrapping_mul(13).wrapping_add(ctx.rank() as u8))
                    .collect();
                write_all(ctx, &env, &handle, &extents, &data, strategy.as_ref());
                ctx.barrier();
                let (back, _) = read_all(ctx, &env, &handle, &extents, strategy.as_ref());
                assert_eq!(
                    back,
                    data,
                    "case {case} {name} rank {} roundtrip",
                    ctx.rank()
                );
            });
        }
    }
}
