//! End-to-end checks of the trace analyzer on a fixed-seed small
//! config: the critical path must tile each op span exactly and agree
//! with the round spans decoded independently, occupancy timelines
//! must respect the node ceilings and balance to zero, a run diffed
//! against itself must be all zeros, and the Chrome trace artifact must
//! replay into the recorded events and a bit-identical analysis.

use mccio_suite::core::prelude::*;
use mccio_suite::mpiio::IoReport;
use mccio_suite::obs::analyze::{TraceAnalysis, TILING_EPS};
use mccio_suite::obs::{export, ObsSink, Phase, Round};
use mccio_suite::sim::cost::CostModel;
use mccio_suite::sim::time::VTime;
use mccio_suite::sim::topology::{test_cluster, FillOrder, Placement};
use mccio_suite::sim::units::KIB;
use mccio_suite::workloads::data;

/// Runs the fixed fig7-small config — 4 ranks on 2 nodes, 256 KiB per
/// rank, 96 KiB aggregation buffers, fully deterministic — and returns
/// the sink plus the per-rank `(write, read)` reports.
fn run_small() -> (ObsSink, Vec<(IoReport, IoReport)>) {
    let obs = ObsSink::enabled();
    let cluster = test_cluster(2, 2);
    let placement = Placement::new(&cluster, 4, FillOrder::Block).unwrap();
    let world = World::new(CostModel::new(cluster.clone()), placement);
    let env = IoEnv::new(
        FileSystem::new(4, 16 * KIB, PfsParams::default()),
        MemoryModel::pristine(&cluster),
    )
    .with_obs(obs.clone());
    let reports = world.run(|ctx| {
        let env = env.clone();
        let handle = env.fs.open_or_create("analyzed");
        let extents =
            ExtentList::normalize(vec![Extent::new(ctx.rank() as u64 * 256 * KIB, 256 * KIB)]);
        let payload = data::fill(&extents);
        let strategy = TwoPhase(TwoPhaseConfig::with_buffer(96 * KIB));
        let w = write_all(ctx, &env, &handle, &extents, &payload, &strategy);
        let (_, r) = read_all(ctx, &env, &handle, &extents, &strategy);
        (w, r)
    });
    (obs, reports)
}

fn analyze_small() -> (ObsSink, Vec<(IoReport, IoReport)>, TraceAnalysis) {
    let (obs, reports) = run_small();
    let analysis = TraceAnalysis::of_sink(&obs).expect("trace analyzes");
    (obs, reports, analysis)
}

#[test]
fn critical_path_totals_are_the_op_spans_to_the_bit() {
    let (_, reports, analysis) = analyze_small();
    assert_eq!(analysis.ops.len(), 2, "one write op, one read op");
    assert_eq!(analysis.ops[0].dir, "write");
    assert_eq!(analysis.ops[1].dir, "read");
    // The op span is emitted by rank 0 with the collective elapsed
    // time; the analyzer must carry it verbatim.
    let (w, r) = &reports[0];
    assert_eq!(
        analysis.ops[0].total.as_secs().to_bits(),
        w.elapsed.as_secs().to_bits()
    );
    assert_eq!(
        analysis.ops[1].total.as_secs().to_bits(),
        r.elapsed.as_secs().to_bits()
    );
    for op in &analysis.ops {
        assert!(
            op.tiling_error().abs() <= TILING_EPS * op.rounds.len() as f64,
            "tiling drifts {} over {} rounds",
            op.tiling_error(),
            op.rounds.len()
        );
        // Segments are contiguous to the bit: each starts where the
        // previous ended, from the op start to the op end.
        let bits = |t: VTime| t.as_secs().to_bits();
        let mut cursor = op.start;
        for seg in &op.segments {
            assert_eq!(bits(seg.from), bits(cursor), "joint not bit-equal");
            cursor = seg.to;
        }
        assert_eq!(
            bits(cursor),
            bits(op.start + op.total),
            "tail not bit-equal"
        );
        op.verify_tiling().expect("segments tile the op");
    }
}

#[test]
fn attribution_matches_independently_derived_round_records() {
    let (obs, _, analysis) = analyze_small();
    // Decode every round span straight from the sink, in emission
    // order, without the analyzer's op containment.
    let decoded: Vec<Round> = obs.with_events(|events| {
        events
            .iter()
            .filter(|e| e.name == "round")
            .map(Round::from_span)
            .collect()
    });
    for (op, dir) in analysis.ops.iter().zip(["write", "read"]) {
        let rounds: Vec<Round> = decoded.iter().copied().filter(|r| r.dir == dir).collect();
        assert_eq!(
            op.rounds, rounds,
            "the op's rounds are its direction's round spans"
        );
        for &p in &Phase::ALL[..5] {
            let derived: f64 = rounds.iter().map(|r| r.secs(p)).sum();
            let mine = op.attribution.get(p);
            assert!(
                (mine - derived).abs() <= TILING_EPS,
                "{} attribution {mine} vs derived {derived}",
                p.name()
            );
        }
        // Golden facts of the fixed config: storage dominates, every
        // round runs, nothing waits on retries, stragglers are real
        // ranks.
        assert_eq!(op.attribution.dominant(), Phase::Storage);
        assert_eq!(
            op.attribution.get(Phase::Backoff),
            0.0,
            "healthy run never backs off"
        );
        assert!(
            op.rounds.len() >= 2,
            "256 KiB through 96 KiB buffers re-rounds"
        );
        for seg in &op.segments {
            if let Some(rank) = seg.straggler {
                assert!(rank < 4, "straggler {rank} is not a rank of this world");
            }
        }
        assert!(op.top_straggler().is_some(), "storage names a straggler");
    }
}

#[test]
fn occupancy_never_exceeds_ceiling_and_balances_to_zero() {
    let (_, _, analysis) = analyze_small();
    assert!(
        !analysis.memory.is_empty(),
        "aggregators reserved buffers on at least one node"
    );
    for tl in &analysis.memory {
        assert!(
            tl.within_ceiling(),
            "node {} overflowed its ceiling: {:?}",
            tl.node,
            tl.overflow
        );
        assert_eq!(
            tl.reserved, tl.released,
            "node {} reserve/release must pair",
            tl.node
        );
        assert_eq!(tl.final_occupancy, 0, "node {} leaks buffers", tl.node);
        assert!(tl.peak > 0, "node {} never held anything", tl.node);
        for p in &tl.points {
            assert!(p.occupancy <= p.ceiling, "point over ceiling: {p:?}");
        }
    }
    // The counters derived from the `mem.reserve`/`mem.release` marks
    // double-check the pairing, and the timelines must account for every
    // reserved byte the counters saw.
    let reserved = analysis.counters.get("mem.reserve.bytes").copied();
    let released = analysis.counters.get("mem.release.bytes").copied();
    assert!(reserved.is_some(), "runs must reserve buffers");
    assert_eq!(reserved, released, "reserve/release byte counters match");
    let timeline_total: u64 = analysis.memory.iter().map(|tl| tl.reserved).sum();
    assert_eq!(Some(timeline_total), reserved);
}

#[test]
fn self_diff_is_all_zeros() {
    let (_, _, analysis) = analyze_small();
    let diff = analysis.diff(&analysis.clone());
    assert!(diff.is_zero(0.0), "self diff must be exactly zero");
    for p in &diff.phases {
        assert_eq!(p.delta(), 0.0);
    }
    for c in &diff.counters {
        assert_eq!(c.delta(), 0);
    }
    // And two independent runs of the same config are equally zero:
    // the simulation is deterministic end to end.
    let (_, _, again) = analyze_small();
    assert!(analysis.diff(&again).is_zero(0.0));
}

#[test]
fn trace_replay_reproduces_the_analysis_bit_for_bit() {
    let (obs, _, live) = analyze_small();
    let recorded = obs.events();
    let doc = export::chrome_trace_flows(&recorded, &[]);
    let events = export::replay(&doc).expect("the trace replays");
    assert_eq!(events, export::export_order(&recorded), "exact replay");
    let replayed = TraceAnalysis::from_events(&events, &[]).expect("replayed trace analyzes");
    assert_eq!(replayed.ops, live.ops, "critical paths replay identically");
    for (r, l) in replayed.ops.iter().zip(&live.ops) {
        assert_eq!(r.dir, l.dir);
        assert_eq!(r.rounds, l.rounds);
        assert_eq!(
            r.total.as_secs().to_bits(),
            l.total.as_secs().to_bits(),
            "op total must survive the trace round trip bit-exactly"
        );
        for &p in &Phase::ALL {
            assert_eq!(
                r.attribution.get(p).to_bits(),
                l.attribution.get(p).to_bits(),
                "phase {} attribution must round-trip bit-exactly",
                p.name()
            );
        }
        assert_eq!(r.segments.len(), l.segments.len());
    }
    assert_eq!(replayed.memory, live.memory, "occupancy timelines agree");
    assert!(!live.counters.is_empty(), "the live run derives counters");
    assert_eq!(
        replayed.counters, live.counters,
        "a replay derives the live run's counters"
    );
}
