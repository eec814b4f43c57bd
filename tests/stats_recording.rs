//! End-to-end checks of operation statistics: the rounds decoded from
//! the per-environment observability sink must match what the plan
//! implies, and the per-rank metrics carried on [`IoReport`] must agree
//! with them.

use mccio_suite::core::prelude::*;
use mccio_suite::mpiio::IoReport;
use mccio_suite::obs::{ObsSink, Phase, Round, TraceAnalysis};
use mccio_suite::sim::cost::CostModel;
use mccio_suite::sim::topology::{test_cluster, FillOrder, Placement};
use mccio_suite::sim::units::KIB;
use mccio_suite::workloads::data;

struct OpRun {
    rounds: Vec<Round>,
    reports: Vec<(IoReport, IoReport)>,
    total: u64,
}

impl OpRun {
    fn dir(&self, dir: &str) -> Vec<Round> {
        self.rounds
            .iter()
            .copied()
            .filter(|r| r.dir == dir)
            .collect()
    }
}

fn run_op(buffer: u64) -> OpRun {
    let obs = ObsSink::enabled();
    let cluster = test_cluster(2, 2);
    let placement = Placement::new(&cluster, 4, FillOrder::Block).unwrap();
    let world = World::new(CostModel::new(cluster.clone()), placement);
    let env = IoEnv::new(
        FileSystem::new(4, 16 * KIB, PfsParams::default()),
        MemoryModel::pristine(&cluster),
    )
    .with_obs(obs.clone());
    let total = 4u64 * 256 * KIB;
    let reports = world.run(|ctx| {
        let env = env.clone();
        let handle = env.fs.open_or_create("stats");
        let extents =
            ExtentList::normalize(vec![Extent::new(ctx.rank() as u64 * 256 * KIB, 256 * KIB)]);
        let payload = data::fill(&extents);
        let strategy = TwoPhase(TwoPhaseConfig::with_buffer(buffer));
        let w = write_all(ctx, &env, &handle, &extents, &payload, &strategy);
        let (_, r) = read_all(ctx, &env, &handle, &extents, &strategy);
        (w, r)
    });
    let ops = TraceAnalysis::of_sink(&obs).expect("trace analyzes").ops;
    OpRun {
        rounds: ops.into_iter().flat_map(|op| op.rounds).collect(),
        reports,
        total,
    }
}

#[test]
fn records_cover_both_directions_with_full_volume() {
    let run = run_op(128 * KIB);
    let volume = |rounds: &[Round]| rounds.iter().map(|r| r.volume).sum::<u64>();
    let (writes, reads) = (run.dir("write"), run.dir("read"));
    assert!(!writes.is_empty() && !reads.is_empty());
    assert_eq!(writes.len() + reads.len(), run.rounds.len());
    assert_eq!(volume(&writes), run.total);
    assert_eq!(volume(&reads), run.total);
    for r in &run.rounds {
        assert!(r.dur.as_secs() > 0.0);
        assert!(r.clients >= 1);
        assert!(r.requests >= 1);
    }
}

#[test]
fn smaller_buffers_record_more_rounds() {
    let big = run_op(512 * KIB);
    let small = run_op(64 * KIB);
    let (small, big) = (small.dir("write").len(), big.dir("write").len());
    assert!(small > big, "{small} vs {big}");
}

#[test]
fn phase_times_sum_to_something_plausible() {
    let run = run_op(128 * KIB);
    let storage: f64 = run.rounds.iter().map(|r| r.secs(Phase::Storage)).sum();
    assert!(storage > 0.0, "storage must dominate somewhere");
    for r in &run.rounds {
        let phases: f64 = r.phase_secs.iter().sum();
        assert!(
            (phases - r.dur.as_secs()).abs() < 1e-9,
            "phases tile the round"
        );
    }
}

#[test]
fn report_metrics_agree_with_derived_records() {
    let run = run_op(128 * KIB);
    let writes = run.dir("write");
    let write_rounds = writes.len() as u64;

    // Fold every rank's write-side metrics the way `IoReport::absorb`
    // does for a collective operation.
    let mut folded = mccio_suite::mpiio::OpMetrics::default();
    for (w, r) in &run.reports {
        assert!(w.metrics.any(), "write report carries metrics");
        assert!(r.metrics.any(), "read report carries metrics");
        // Per-rank round counts match the engine's global round count:
        // every rank participates in every settled round.
        assert_eq!(w.metrics.rounds, write_rounds, "rank saw all write rounds");
        assert!(w.metrics.mem_peak_max > 0.0, "aggregators reserved memory");
        folded.absorb(w.metrics);
    }
    // Summed storage traffic equals the operation volume: the two-phase
    // write pushes every byte through the aggregation buffers exactly
    // once.
    assert_eq!(folded.storage_bytes, run.total);
    assert_eq!(
        folded.storage_requests,
        writes.iter().map(|r| r.requests).sum::<u64>()
    );
}
