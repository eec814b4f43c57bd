//! Causal-tracing guarantees, end to end: the online happens-before
//! fold must produce blame chains that tile each op's elapsed virtual
//! time **to the bit**, must be a pure side-channel (virtual time
//! bit-identical with causal tracing on or off), must be bit-identical
//! across the canonical rank schedule and every explored one — including
//! under the nastiest crash-recovery plan in the suite — and the
//! no-op what-if re-weighting must reproduce the baseline bit-exactly.

use mccio_suite::core::prelude::*;
use mccio_suite::mpiio::IoReport;
use mccio_suite::net::ExecutorKind;
use mccio_suite::obs::{BlameChain, ObsSink, SegClass, StreamConfig, TraceAnalysis};
use mccio_suite::sim::cost::CostModel;
use mccio_suite::sim::time::{VDuration, VTime};
use mccio_suite::sim::topology::{test_cluster, FillOrder, Placement};
use mccio_suite::sim::units::{KIB, MIB};
use mccio_suite::workloads::data;

fn both_collectives() -> Vec<Box<dyn Strategy>> {
    let tuning = Tuning {
        n_ah: 2,
        msg_ind: 256 * KIB,
        mem_min: 128 * KIB,
        msg_group: MIB,
    };
    vec![
        Box::new(TwoPhase(TwoPhaseConfig::with_buffer(128 * KIB))),
        Box::new(MemoryConscious(MccioConfig::new(
            tuning,
            128 * KIB,
            16 * KIB,
        ))),
    ]
}

/// Eight extents per rank in the rank's own slice (the
/// failure-injection shape, so crash schedules land mid-operation).
fn slice_extents(rank: usize) -> ExtentList {
    let base = rank as u64 * 512 * KIB;
    ExtentList::normalize(
        (0..8)
            .map(|i| Extent::new(base + i * 64 * KIB, 48 * KIB))
            .collect(),
    )
}

/// The canonical rank schedule followed by every explored one.
fn schedules() -> impl Iterator<Item = ExecutorKind> {
    std::iter::once(ExecutorKind::Event).chain(ExecutorKind::EXPLORED)
}

/// Write-then-read of `slice_extents` on the 3×2/6-rank world run on
/// `kind`'s schedule, recording into `sink`, optionally under a fault plan.
fn run_traced(
    strategy: &dyn Strategy,
    kind: ExecutorKind,
    sink: &ObsSink,
    plan: Option<FaultPlan>,
) -> Vec<(IoReport, IoReport)> {
    let cluster = test_cluster(3, 2);
    let placement = Placement::new(&cluster, 6, FillOrder::Block).unwrap();
    let world = World::with_executor(CostModel::new(cluster.clone()), placement, kind);
    let fs = FileSystem::new(4, 16 * KIB, PfsParams::default());
    let mem = MemoryModel::pristine(&cluster);
    let env = match plan {
        Some(plan) => IoEnv::with_faults(fs, mem, plan),
        None => IoEnv::new(fs, mem),
    }
    .with_obs(sink.clone());
    world.run(|ctx| {
        let env = env.clone();
        let handle = env.fs.open_or_create("causal");
        let extents = slice_extents(ctx.rank());
        let payload = data::fill(&extents);
        let w = write_all(ctx, &env, &handle, &extents, &payload, strategy);
        ctx.barrier();
        let (back, r) = read_all(ctx, &env, &handle, &extents, strategy);
        assert_eq!(data::verify(&extents, &back), None, "rank {}", ctx.rank());
        (w, r)
    })
}

/// A deterministic clock skew: 5 µs of latency on every control-plane
/// message. The engine's phases are root-priced and broadcast, so with
/// zero message latency every rank's clock moves in perfect lock-step
/// and no delivery ever *binds* a receiver — the blame chain is the
/// degenerate all-work-on-root chain (see
/// `lockstep_runs_record_single_work_segment_chains`). With real
/// latency each barrier/gather delivery arrives after the receiver's
/// clock and genuinely advances it, producing cross-rank hops.
fn skew_plan() -> FaultPlan {
    FaultPlan::new(0x5EED).delay_control(VDuration::from_micros(5.0))
}

/// The suite's nastiest schedule: 5 % transient storage faults plus two
/// mid-operation aggregator crashes.
fn crash_plan() -> FaultPlan {
    FaultPlan::new(0x0DD)
        .transient_io_rate(0.05)
        .crash_rank_at(VTime::from_secs(0.004), 0)
        .crash_rank_at(VTime::from_secs(0.012), 2)
}

/// Structural checks every chain must pass: bit-equal tiling of
/// `[start, end]`, time-monotone (acyclic) walk, and every segment
/// inside the op window.
fn assert_well_formed(chain: &BlameChain, who: &str) {
    chain
        .verify_tiling()
        .unwrap_or_else(|e| panic!("{who}: {e}"));
    let mut cursor = chain.start;
    for (i, s) in chain.segments.iter().enumerate() {
        assert!(
            s.from.as_secs() >= cursor.as_secs(),
            "{who}: segment {i} steps backwards — the chain would be cyclic"
        );
        assert!(
            s.from.as_secs() >= chain.start.as_secs() && s.to.as_secs() <= chain.end.as_secs(),
            "{who}: segment {i} escapes the op window"
        );
        cursor = s.to;
    }
}

#[test]
fn blame_chain_tiles_op_elapsed_to_the_bit() {
    for strategy in both_collectives() {
        for kind in schedules() {
            let sink = ObsSink::enabled().with_causal();
            let reports = run_traced(&*strategy, kind, &sink, Some(skew_plan()));
            let analysis = TraceAnalysis::of_sink(&sink).expect("analyzable trace");
            assert_eq!(analysis.ops.len(), 2, "one op per direction (write, read)");
            let (w0, r0) = &reports[0];
            for (i, (op, rank0_elapsed)) in analysis
                .ops
                .iter()
                .zip([w0.elapsed, r0.elapsed])
                .enumerate()
            {
                let who = format!("{} {kind:?} op {i}", strategy.name());
                let chain = op.chain.as_ref().expect("one chain per op");
                assert_well_formed(chain, &who);
                // The op's critical path is that chain cut at its phase
                // windows, so it tiles the same span to the bit.
                op.verify_tiling()
                    .unwrap_or_else(|e| panic!("{who}: critical path: {e}"));
                // The chain total is the op span's priced duration and
                // rank 0's reported elapsed time, to the bit.
                assert_eq!(
                    chain.total().as_secs().to_bits(),
                    op.total.as_secs().to_bits(),
                    "{who}: chain total != critical-path total"
                );
                // Under an active fault plan `IoReport.elapsed` spans
                // the whole degradation-ladder descent, which brackets
                // the engine op span the chain tiles — the exact bit
                // equality is pinned on the healthy path by
                // `lockstep_runs_record_single_work_segment_chains`.
                assert!(
                    rank0_elapsed.as_secs() >= chain.total().as_secs(),
                    "{who}: ladder elapsed must bracket the chain total"
                );
                // A real collective crosses ranks: the chain must hop.
                assert!(chain.hops() > 0, "{who}: no cross-rank hop on the path");
                assert!(
                    chain.segments.iter().any(|s| s.class == SegClass::Work),
                    "{who}: no local work on the path"
                );
                // The wait/work split partitions the total (f64 sums,
                // so up to rounding).
                assert!(
                    (chain.wait_secs() + chain.work_secs() - chain.total().as_secs()).abs() < 1e-9,
                    "{who}: wait+work does not partition the total"
                );
            }
        }
    }
}

#[test]
fn causal_tracing_is_a_pure_side_channel() {
    // Arming causal tracing must not move virtual time by a bit.
    for strategy in both_collectives() {
        for kind in schedules() {
            let plain = run_traced(&*strategy, kind, &ObsSink::disabled(), None);
            let traced = run_traced(&*strategy, kind, &ObsSink::enabled().with_causal(), None);
            assert_eq!(plain.len(), traced.len());
            for (rank, ((pw, pr), (tw, tr))) in plain.iter().zip(&traced).enumerate() {
                assert_eq!(
                    pw.elapsed.as_secs().to_bits(),
                    tw.elapsed.as_secs().to_bits(),
                    "{} {kind:?} rank {rank}: write time moved under causal tracing",
                    strategy.name()
                );
                assert_eq!(
                    pr.elapsed.as_secs().to_bits(),
                    tr.elapsed.as_secs().to_bits(),
                    "{} {kind:?} rank {rank}: read time moved under causal tracing",
                    strategy.name()
                );
            }
        }
    }
}

#[test]
fn chains_are_bit_identical_across_executors() {
    for strategy in both_collectives() {
        let chains_on = |kind| {
            let sink = ObsSink::enabled().with_causal();
            run_traced(&*strategy, kind, &sink, Some(skew_plan()));
            sink.causal_chains()
        };
        let canonical = chains_on(ExecutorKind::Event);
        assert!(
            canonical.iter().any(|c| c.hops() > 0),
            "{}: skewed run produced no cross-rank hops — the comparison is vacuous",
            strategy.name()
        );
        for kind in ExecutorKind::EXPLORED {
            assert_eq!(
                canonical,
                chains_on(kind),
                "{}: blame chains diverge under {kind:?}",
                strategy.name()
            );
        }
    }
}

#[test]
fn crash_recovery_chains_are_bit_identical_across_executors() {
    // The crash schedule drives detection, re-election, and round
    // replay; the replayed messages must fold into the same frontier on
    // every schedule.
    for strategy in both_collectives() {
        let mut per_executor: Vec<Vec<BlameChain>> = Vec::new();
        for kind in schedules() {
            let sink = ObsSink::enabled().with_causal();
            run_traced(&*strategy, kind, &sink, Some(crash_plan()));
            let chains = sink.causal_chains();
            for (i, chain) in chains.iter().enumerate() {
                assert_well_formed(chain, &format!("{} {kind:?} crash op {i}", strategy.name()));
            }
            per_executor.push(chains);
        }
        for (kind, chains) in ExecutorKind::EXPLORED.iter().zip(&per_executor[1..]) {
            assert_eq!(
                &per_executor[0],
                chains,
                "{}: crash-plan blame chains diverge under {kind:?}",
                strategy.name()
            );
        }
    }
}

#[test]
fn identity_what_if_reproduces_baseline_bit_exactly() {
    let strategies = both_collectives();
    let sink = ObsSink::enabled().with_causal();
    run_traced(
        &*strategies[1],
        ExecutorKind::Event,
        &sink,
        Some(skew_plan()),
    );
    let analysis = TraceAnalysis::of_sink(&sink).unwrap();
    for (i, op) in analysis.ops.iter().enumerate() {
        let chain = op.chain.as_ref().expect("one chain per op");
        // Cut at the real phase windows, the identity re-weighting must
        // reproduce the total bit-exactly.
        let projected = op.project(|_, _| 1.0);
        assert_eq!(
            projected.to_bits(),
            chain.total().as_secs().to_bits(),
            "op {i}: no-op re-weight must be bit-identical to the baseline"
        );
        // Real scenarios can only help, and zero-network must help on
        // any chain with a message hop.
        let what_ifs = op.what_ifs();
        for w in &what_ifs {
            assert!(
                w.projected_secs <= chain.total().as_secs() + 1e-12,
                "op {i} {}: projection exceeds the baseline",
                w.name
            );
            assert!(w.speedup >= 1.0, "op {i} {}: speedup below 1", w.name);
        }
        let zero_net = what_ifs.iter().find(|w| w.name == "zero-network").unwrap();
        assert!(
            zero_net.projected_secs < chain.total().as_secs(),
            "op {i}: zero-network must remove the chain's wait time"
        );
    }
    // Without its chains the same trace analyzes to rank 0's work alone:
    // nothing waits, so zero-network, like the identity, is the total to
    // the bit.
    let unchained = sink
        .with_events(|events| TraceAnalysis::from_events(events, &[]))
        .unwrap();
    assert_eq!(unchained.ops.len(), analysis.ops.len());
    for (i, op) in unchained.ops.iter().enumerate() {
        assert!(op.chain.is_none());
        let total = op.total.as_secs().to_bits();
        assert_eq!(op.project(|_, _| 1.0).to_bits(), total, "op {i}: identity");
        let zero_net = op.what_ifs().into_iter().find(|w| w.name == "zero-network");
        assert_eq!(
            zero_net.map(|w| w.projected_secs.to_bits()),
            Some(total),
            "op {i}: zero-network without a chain"
        );
    }
}

#[test]
fn streaming_sink_records_the_same_chains_without_edge_retention() {
    let strategies = both_collectives();
    let strategy: &dyn Strategy = &*strategies[1];
    let buffered = ObsSink::enabled().with_causal();
    run_traced(strategy, ExecutorKind::Event, &buffered, Some(skew_plan()));
    let streaming = ObsSink::streaming(StreamConfig {
        top_k: 4,
        exemplar_stride: 4,
        exemplar_max: 2,
    })
    .with_causal();
    run_traced(strategy, ExecutorKind::Event, &streaming, Some(skew_plan()));

    // Chains are a pure function of virtual clocks, so the streaming
    // sink records exactly the buffered ones.
    assert_eq!(buffered.causal_chains(), streaming.causal_chains());
    assert!(!streaming.causal_chains().is_empty());

    // Buffered sinks retain per-edge records for flow export; streaming
    // sinks must not (memory stays rank-bounded).
    assert!(!buffered.causal_edges().is_empty());
    assert!(streaming.causal_edges().is_empty());
    assert!(streaming.causal().unwrap().bound_deliveries() > 0);
}

#[test]
fn lockstep_runs_record_single_work_segment_chains() {
    // With a healthy homogeneous workload the engine's root-priced
    // phases keep every rank's clock identical, so every delivery is
    // slack (`after == before`), nothing binds, and the honest blame
    // chain is a single all-work segment on the root: no rank is more
    // to blame than any other. The tiling invariant must still hold to
    // the bit.
    let strategies = both_collectives();
    let sink = ObsSink::enabled().with_causal();
    let reports = run_traced(&*strategies[0], ExecutorKind::Event, &sink, None);
    let agg = sink.causal().expect("armed");
    assert_eq!(
        agg.bound_deliveries(),
        0,
        "lock-step clocks must never bind"
    );
    assert!(
        agg.slack_deliveries() > 0,
        "deliveries still reach the fold"
    );
    let chains = sink.causal_chains();
    assert_eq!(chains.len(), 2);
    let (w0, r0) = &reports[0];
    for (i, (chain, rank0_elapsed)) in chains.iter().zip([w0.elapsed, r0.elapsed]).enumerate() {
        assert_well_formed(chain, &format!("lock-step op {i}"));
        assert_eq!(chain.hops(), 0);
        assert_eq!(chain.segments.len(), 1, "op {i}: one all-work segment");
        assert_eq!(chain.segments[0].class, SegClass::Work);
        assert_eq!(chain.segments[0].rank, 0);
        // On the healthy path there is no ladder descent, so the op
        // span the chain tiles IS the reported elapsed time, to the bit.
        assert_eq!(
            chain.total().as_secs().to_bits(),
            rank0_elapsed.as_secs().to_bits(),
            "op {i}: chain total != rank 0 IoReport.elapsed"
        );
    }
}
