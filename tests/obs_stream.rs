//! Streaming-aggregation equivalence: the bounded-memory streaming
//! sink must be a lossless re-encoding of the buffered sink for
//! everything it folds. On small configs where we can afford to buffer
//! everything, the online per-cell statistics (counts, sums, min/max,
//! top-k stragglers) derived offline from the full
//! event list must *exactly* equal the ones the streaming sink folded
//! live — on both executor kinds, the canonical rank schedule and every
//! explored one — and streaming must not move virtual time by a bit.

use mccio_suite::core::prelude::*;
use mccio_suite::mpiio::IoReport;
use mccio_suite::net::ExecutorKind;
use mccio_suite::obs::{EventKind, ObsSink, StreamAgg, StreamConfig, TraceAnalysis, ENGINE_TRACK};
use mccio_suite::sim::cost::CostModel;
use mccio_suite::sim::topology::{test_cluster, FillOrder, Placement};
use mccio_suite::sim::units::KIB;
use mccio_suite::workloads::data;

/// A config where the stride matters on 8 ranks: exemplar lanes are
/// tracks 0 and 4, everything else folds.
fn cfg() -> StreamConfig {
    StreamConfig {
        top_k: 4,
        exemplar_stride: 4,
        exemplar_max: 2,
    }
}

/// The canonical rank schedule followed by every explored one.
fn schedules() -> impl Iterator<Item = ExecutorKind> {
    std::iter::once(ExecutorKind::Event).chain(ExecutorKind::EXPLORED)
}

/// A fixed two-phase write+read on 8 ranks, run on `kind`'s schedule, with
/// `obs` attached; returns the per-rank `(write, read)` reports.
fn run_op_on(obs: &ObsSink, kind: ExecutorKind) -> Vec<(IoReport, IoReport)> {
    let cluster = test_cluster(4, 2);
    let placement = Placement::new(&cluster, 8, FillOrder::Block).unwrap();
    let world = World::with_executor(CostModel::new(cluster.clone()), placement, kind);
    let env = IoEnv::new(
        FileSystem::new(4, 16 * KIB, PfsParams::default()),
        MemoryModel::pristine(&cluster),
    )
    .with_obs(obs.clone());
    world.run(|ctx| {
        let env = env.clone();
        let handle = env.fs.open_or_create("streamed");
        let extents =
            ExtentList::normalize(vec![Extent::new(ctx.rank() as u64 * 192 * KIB, 192 * KIB)]);
        let payload = data::fill(&extents);
        let strategy = TwoPhase(TwoPhaseConfig::with_buffer(64 * KIB));
        let w = write_all(ctx, &env, &handle, &extents, &payload, &strategy);
        let (_, r) = read_all(ctx, &env, &handle, &extents, &strategy);
        (w, r)
    })
}

#[test]
fn streaming_aggregate_matches_buffered_derivation_on_both_executors() {
    let mut per_executor: Vec<StreamAgg> = Vec::new();
    for kind in schedules() {
        // Buffered run: keep every event, derive the aggregate offline.
        let buffered = ObsSink::enabled();
        let buffered_reports = run_op_on(&buffered, kind);
        let derived = buffered.with_events(|live| StreamAgg::from_events(live.iter(), cfg()));

        // Streaming run: fold live, bounded memory.
        let streaming = ObsSink::streaming(cfg());
        let streaming_reports = run_op_on(&streaming, kind);
        let live = streaming
            .stream_stats()
            .expect("streaming sink exposes its aggregate");

        // The streaming path must be a bit-exact re-encoding: same
        // cells, same counts, sums, min/max, top-k stragglers, same
        // folded/retained split.
        assert_eq!(
            derived, live,
            "{kind:?}: streaming aggregate diverges from buffered derivation"
        );
        assert!(live.folded_events > 0, "{kind:?}: nothing folded");
        assert!(live.retained_events > 0, "{kind:?}: no exemplar lanes kept");
        assert!(live.cell_count() > 0, "{kind:?}: no cells");

        // The counters count the folded cells with the retained events,
        // so a streamed run reports what a buffered one does.
        let counters = |sink: &ObsSink| TraceAnalysis::of_sink(sink).expect("analyzes").counters;
        assert_eq!(
            counters(&streaming),
            counters(&buffered),
            "{kind:?}: streamed counters diverge from buffered ones"
        );

        // Aggregation is observability only: per-rank reports are
        // identical whether events were buffered or folded.
        assert_eq!(
            buffered_reports, streaming_reports,
            "{kind:?}: streaming moved the simulation"
        );
        per_executor.push(live);
    }

    // The folded quantities are integer-domain and order-independent,
    // so every schedule — each delivers events in a different order —
    // must agree exactly, stragglers and tie-breaks included.
    for (kind, agg) in ExecutorKind::EXPLORED.iter().zip(&per_executor[1..]) {
        assert_eq!(
            &per_executor[0], agg,
            "streaming aggregate diverges under {kind:?}"
        );
    }
}

#[test]
fn streaming_sink_retains_only_engine_and_exemplar_lanes() {
    let streaming = ObsSink::streaming(cfg());
    run_op_on(&streaming, ExecutorKind::Event);
    let stats = streaming.stream_stats().unwrap();
    streaming.with_events(|live| {
        assert_eq!(live.len() as u64, stats.retained_events);
        let mut rank_tracks: Vec<u32> = Vec::new();
        for e in live {
            assert!(
                !matches!(e.kind, EventKind::Counter { .. }),
                "counter samples must always fold, found one on track {}",
                e.track
            );
            assert!(
                stats.retains(e.track, &e.kind),
                "retained event on non-exemplar track {}",
                e.track
            );
            if e.track != ENGINE_TRACK && !rank_tracks.contains(&e.track) {
                rank_tracks.push(e.track);
            }
        }
        rank_tracks.sort_unstable();
        assert_eq!(
            rank_tracks,
            vec![0, 4],
            "exemplar lanes are the strided ranks"
        );
    });
}

#[test]
fn virtual_time_is_bit_identical_with_streaming_on_and_off() {
    for kind in schedules() {
        let plain = run_op_on(&ObsSink::disabled(), kind);
        let streamed = run_op_on(&ObsSink::streaming(cfg()), kind);
        assert_eq!(plain.len(), streamed.len());
        for (rank, ((pw, pr), (sw, sr))) in plain.iter().zip(&streamed).enumerate() {
            assert_eq!(
                pw.elapsed.as_secs().to_bits(),
                sw.elapsed.as_secs().to_bits(),
                "{kind:?} rank {rank}: write time moved under streaming obs"
            );
            assert_eq!(
                pr.elapsed.as_secs().to_bits(),
                sr.elapsed.as_secs().to_bits(),
                "{kind:?} rank {rank}: read time moved under streaming obs"
            );
        }
    }
}

#[test]
fn causal_fold_is_never_entered_unless_armed() {
    // The causal fold rides the delivery-settle hot path, so its
    // hostprof scope must be completely absent when causal tracing is
    // off: zero `causal.fold` timer entries across a full traced run.
    // (Other tests in this binary never arm causal tracing, so the
    // global counter cannot move concurrently.)
    use mccio_suite::sim::hostprof;
    let fold_calls = || {
        hostprof::snapshot()
            .phases
            .iter()
            .find(|s| s.name == "causal.fold")
            .map_or(0, |s| s.calls)
    };
    hostprof::set_enabled(true);
    let before = fold_calls();
    run_op_on(&ObsSink::streaming(cfg()), ExecutorKind::Event);
    let off = fold_calls();
    assert_eq!(off, before, "causal off must never enter the fold");
    run_op_on(
        &ObsSink::streaming(cfg()).with_causal(),
        ExecutorKind::Event,
    );
    let on = fold_calls();
    hostprof::set_enabled(false);
    assert!(on > off, "armed causal tracing must time every fold");
}
