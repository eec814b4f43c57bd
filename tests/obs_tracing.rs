//! End-to-end checks of the observability layer: span nesting and
//! ordering on the engine track, bit-identical virtual time with
//! tracing on or off, and a Chrome-trace export that replays into the
//! recorded events.

use mccio_suite::core::prelude::*;
use mccio_suite::mpiio::IoReport;
use mccio_suite::net::ExecutorKind;
use mccio_suite::obs::{analyze, export, EventKind, ObsSink, ENGINE_TRACK};
use mccio_suite::sim::cost::CostModel;
use mccio_suite::sim::time::VTime;
use mccio_suite::sim::topology::{test_cluster, FillOrder, Placement};
use mccio_suite::sim::units::{GIB, KIB, MIB};
use mccio_suite::workloads::data;

/// Containment tolerance: phase spans tile their round from f64 sums of
/// the same priced durations, so ends agree to rounding only.
const EPS: f64 = 1e-9;

/// Runs a fixed two-phase write+read on 4 ranks with `obs` attached and
/// returns the per-rank `(write, read)` reports.
fn run_op(obs: &ObsSink) -> Vec<(IoReport, IoReport)> {
    run_op_on(obs, ExecutorKind::Event)
}

/// [`run_op`] on `kind`'s rank schedule.
fn run_op_on(obs: &ObsSink, kind: ExecutorKind) -> Vec<(IoReport, IoReport)> {
    let cluster = test_cluster(2, 2);
    let placement = Placement::new(&cluster, 4, FillOrder::Block).unwrap();
    let world = World::with_executor(CostModel::new(cluster.clone()), placement, kind);
    let env = IoEnv::new(
        FileSystem::new(4, 16 * KIB, PfsParams::default()),
        MemoryModel::pristine(&cluster),
    )
    .with_obs(obs.clone());
    world.run(|ctx| {
        let env = env.clone();
        let handle = env.fs.open_or_create("traced");
        let extents =
            ExtentList::normalize(vec![Extent::new(ctx.rank() as u64 * 256 * KIB, 256 * KIB)]);
        let payload = data::fill(&extents);
        let strategy = TwoPhase(TwoPhaseConfig::with_buffer(96 * KIB));
        let w = write_all(ctx, &env, &handle, &extents, &payload, &strategy);
        let (_, r) = read_all(ctx, &env, &handle, &extents, &strategy);
        (w, r)
    })
}

#[test]
fn disabled_sink_records_nothing() {
    let obs = ObsSink::disabled();
    let reports = run_op(&obs);
    assert!(obs.is_empty(), "disabled sink must stay empty");
    let analysis = analyze::TraceAnalysis::of_sink(&obs).expect("an empty trace analyzes");
    assert!(
        analysis.counters.is_empty(),
        "disabled sink derives no counters"
    );
    // The reports themselves still carry metrics: those are per-rank
    // facts on the report, not sink state.
    assert!(reports.iter().all(|(w, _)| w.metrics.any()));
}

#[test]
fn virtual_time_is_bit_identical_with_tracing_on_and_off() {
    let plain = run_op(&ObsSink::disabled());
    let traced = run_op(&ObsSink::enabled());
    assert_eq!(plain.len(), traced.len());
    for (rank, ((pw, pr), (tw, tr))) in plain.iter().zip(&traced).enumerate() {
        assert_eq!(
            pw.elapsed.as_secs().to_bits(),
            tw.elapsed.as_secs().to_bits(),
            "rank {rank} write time moved under tracing"
        );
        assert_eq!(
            pr.elapsed.as_secs().to_bits(),
            tr.elapsed.as_secs().to_bits(),
            "rank {rank} read time moved under tracing"
        );
    }
}

#[test]
fn round_spans_nest_their_phase_children() {
    let obs = ObsSink::enabled();
    run_op(&obs);
    let events = obs.events();
    let engine_spans: Vec<_> = events
        .iter()
        .filter(|e| e.track == ENGINE_TRACK && matches!(e.kind, EventKind::Span { .. }))
        .collect();
    let rounds: Vec<_> = engine_spans.iter().filter(|e| e.name == "round").collect();
    assert!(rounds.len() >= 2, "write and read each settle rounds");

    const PHASES: [&str; 5] = ["sync", "shuffle", "storage", "assembly", "backoff"];
    for round in &rounds {
        let (start, end) = (round.kind.at().as_secs(), round.end().as_secs());
        assert!(end > start, "round spans have priced duration");
        // Every phase child is contained in its round and they tile it:
        // child durations sum back to the round duration.
        let children: Vec<_> = engine_spans
            .iter()
            .filter(|e| {
                PHASES.contains(&e.name)
                    && e.kind.at().as_secs() >= start - EPS
                    && e.end().as_secs() <= end + EPS
            })
            .collect();
        assert!(!children.is_empty(), "round has phase children");
        let tiled: f64 = children
            .iter()
            .map(|e| e.end().as_secs() - e.kind.at().as_secs())
            .sum();
        assert!(
            (tiled - (end - start)).abs() < EPS,
            "phase spans tile the round: {tiled} vs {}",
            end - start
        );
        for child in &children {
            assert!(
                child.seq > round.seq,
                "parent round is emitted before its children"
            );
        }
    }

    // The two op spans (write then read) cover every round of their
    // direction.
    let ops: Vec<_> = engine_spans.iter().filter(|e| e.name == "op").collect();
    assert_eq!(ops.len(), 2, "one op span per direction");
    for round in &rounds {
        let dir = round.attr_str("dir").expect("round spans carry dir");
        let op = ops
            .iter()
            .find(|o| o.attr_str("dir") == Some(dir))
            .expect("matching op span");
        assert!(round.kind.at().as_secs() >= op.kind.at().as_secs() - EPS);
        assert!(round.end().as_secs() <= op.end().as_secs() + EPS);
    }

    // Round starts are monotone along the engine track.
    let starts: Vec<f64> = rounds.iter().map(|e| e.kind.at().as_secs()).collect();
    assert!(
        starts.windows(2).all(|w| w[0] <= w[1]),
        "rounds settle in virtual-time order"
    );
}

#[test]
fn derived_counters_are_identical_across_executors() {
    // Every event is a function of the ranks' own program order, so the
    // counters derived from them are too; world-global state whose value
    // follows the rank interleaving (the stack slab's reuse) is read by
    // callers after the run, never recorded mid-run.
    let counters = |kind| {
        let obs = ObsSink::enabled();
        run_op_on(&obs, kind);
        analyze::TraceAnalysis::of_sink(&obs)
            .expect("traced op analyzes")
            .counters
    };
    let canonical = counters(ExecutorKind::Event);
    assert!(
        canonical
            .get("rank.round.sent_bytes")
            .is_some_and(|&v| v > 0),
        "the op recorded no shuffled bytes"
    );
    for kind in ExecutorKind::EXPLORED {
        assert_eq!(
            counters(kind),
            canonical,
            "counters diverged under {kind:?}"
        );
    }
}

#[test]
fn span_streams_are_bit_identical_across_executors() {
    // Schedule matrix for the observability layer: every explored rank
    // schedule must emit the same spans at the same virtual times as
    // the canonical one. Spans are compared as canonical
    // (track, start, end, name) sets because sink arrival order is the
    // one thing schedules legitimately do differently.
    let canon = |kind: ExecutorKind| {
        let obs = ObsSink::enabled();
        let reports = run_op_on(&obs, kind);
        let events = obs.events();
        let mut spans: Vec<(u32, u64, u64, &'static str)> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Span { .. }))
            .map(|e| {
                (
                    e.track,
                    e.kind.at().as_secs().to_bits(),
                    e.end().as_secs().to_bits(),
                    e.name,
                )
            })
            .collect();
        spans.sort_unstable();
        (reports, spans, events.len())
    };
    let (reports_c, spans_c, n_c) = canon(ExecutorKind::Event);
    assert!(!spans_c.is_empty(), "traced op must record spans");
    for kind in ExecutorKind::EXPLORED {
        let (reports_x, spans_x, n_x) = canon(kind);
        assert_eq!(reports_c, reports_x, "reports diverged under {kind:?}");
        assert_eq!(n_c, n_x, "event counts diverged under {kind:?}");
        assert_eq!(spans_c, spans_x, "span streams diverged under {kind:?}");
    }
}

#[test]
fn exported_traces_are_byte_identical_across_executors_under_faults() {
    // Fault events land on the engine track from whichever rank applies
    // them first, while the root writes the rest of that track. Every
    // such mark sits between two collectives all ranks take part in, so
    // the export order — `(track, at, seq)` — cannot depend on the
    // schedule. The revocations fire mid-write and starve the read's
    // reservation, whose retry pauses apply the restores.
    let plan = || {
        (0..2).fold(FaultPlan::new(0xACE), |plan, node| {
            plan.revoke_memory_at(VTime::from_secs(1e-9), node, GIB)
                .restore_memory_at(VTime::from_secs(0.013), node, GIB)
        })
    };
    let strategies: [Box<dyn Strategy>; 2] = [
        Box::new(TwoPhase(TwoPhaseConfig::with_buffer(96 * KIB))),
        Box::new(MemoryConscious(MccioConfig::new(
            Tuning {
                n_ah: 2,
                msg_ind: 256 * KIB,
                mem_min: 128 * KIB,
                msg_group: MIB,
            },
            96 * KIB,
            16 * KIB,
        ))),
    ];
    for strategy in &strategies {
        let export = |kind| {
            let cluster = test_cluster(2, 2);
            let placement = Placement::new(&cluster, 4, FillOrder::Block).unwrap();
            let world = World::with_executor(CostModel::new(cluster.clone()), placement, kind);
            let obs = ObsSink::enabled();
            let env = IoEnv::with_faults(
                FileSystem::new(4, 16 * KIB, PfsParams::default()),
                MemoryModel::pristine(&cluster),
                plan(),
            )
            .with_obs(obs.clone());
            world.run(|ctx| {
                let env = env.clone();
                let handle = env.fs.open_or_create("faulty");
                let extents = ExtentList::normalize(vec![Extent::new(
                    ctx.rank() as u64 * 256 * KIB,
                    256 * KIB,
                )]);
                let payload = data::fill(&extents);
                write_all(ctx, &env, &handle, &extents, &payload, &**strategy);
                read_all(ctx, &env, &handle, &extents, &**strategy);
            });
            let events = obs.events();
            for name in ["reserve.retry", "fault.mem.restore"] {
                assert!(
                    events.iter().any(|e| e.name == name),
                    "{}: no {name} event",
                    strategy.name()
                );
            }
            export::chrome_trace_flows(&events, &[])
        };
        let canonical = export(ExecutorKind::Event);
        for kind in ExecutorKind::EXPLORED {
            assert!(
                export(kind) == canonical,
                "{}: exported trace diverged under {kind:?}",
                strategy.name()
            );
        }
    }
}

#[test]
fn chrome_export_validates_with_full_coverage() {
    let obs = ObsSink::enabled();
    run_op(&obs);
    let live = obs.events();
    let chrome = export::chrome_trace_flows(&live, &[]);
    let replayed = export::replay(&chrome).unwrap_or_else(|e| panic!("chrome trace invalid: {e}"));
    assert_eq!(replayed, export::export_order(&live), "exact replay");
    // 4 rank tracks plus the engine track.
    let mut tracks: Vec<u32> = replayed.iter().map(|e| e.track).collect();
    tracks.dedup();
    assert!(tracks.len() >= 5, "got {} tracks", tracks.len());
    for required in ["op", "schedule", "prologue", "round", "storage", "settle"] {
        assert!(
            replayed.iter().any(|e| e.name == required),
            "missing {required:?} in trace"
        );
    }
}
