//! Ablation benches for the design choices DESIGN.md calls out. Each
//! ablation runs the full simulation and reports the *virtual-time*
//! bandwidth (the decision-relevant number) alongside the wall-clock of
//! the run.
//!
//! Self-contained harness (`harness = false`); see `strategies.rs`.
//!
//! Ablations:
//! * group division on/off (`Msg_group` = tuned vs effectively infinite);
//! * memory-aware aggregator placement vs data-oblivious round-robin
//!   placement of the same domains;
//! * remerging on/off under memory-starved nodes (`Mem_min` = tuned vs 0);
//! * `N_ah` sweep (aggregators per node);
//! * `Msg_ind` sweep (partition-tree leaf size).

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use mccio_bench::{run, run_with, Platform, RunResult};
use mccio_core::engine::{execute, IoEnv};
use mccio_core::mccio::plan_mccio;
use mccio_core::prelude::*;
use mccio_mem::MemoryModel;
use mccio_mpiio::Resilience;
use mccio_sim::cost::CostModel;
use mccio_sim::topology::{FillOrder, Placement};
use mccio_sim::units::{KIB, MIB};
use mccio_workloads::{data, Ior, IorMode, Workload};

const ITERS: u32 = 10;

fn platform() -> Platform {
    Platform::testbed(4, 48, 8).with_memory(128 * MIB, 48 * MIB)
}

fn workload() -> Ior {
    Ior::new(64 * KIB, 8, IorMode::Interleaved)
}

fn mc(platform: &Platform, tuning: Tuning) -> MemoryConscious {
    MemoryConscious(MccioConfig::new(tuning, MIB, platform.stripe))
}

fn report(tag: &str, r: &RunResult) {
    println!(
        "[ablation] {tag:>40}: write {:8.1} MB/s  read {:8.1} MB/s",
        r.write_mbps(),
        r.read_mbps()
    );
}

/// Times `iters` runs of `f`, printing mean wall-clock per iteration.
fn bench(group: &str, name: &str, mut f: impl FnMut()) {
    f();
    let t0 = Instant::now();
    for _ in 0..ITERS {
        f();
    }
    let per = t0.elapsed().as_secs_f64() / f64::from(ITERS);
    println!("{group}/{name}: {:.3} ms/iter ({ITERS} iters)", per * 1e3);
}

fn bench_group_division() {
    // Group confinement matters when data is serially distributed (each
    // group has distinct members) and some nodes are starved: with
    // groups, a domain evicted from its starved local host lands on a
    // *nearby* group host; without, it can land anywhere.
    let mut platform = platform();
    platform.mem_available = Some((48 * MIB, 32 * MIB));
    let serial = Ior::new(512 * KIB, 2, IorMode::Segmented);
    let tuned = platform.tuning();
    let global = tuned.with_msg_group(1 << 40); // one group = no confinement
    for (name, tuning) in [("tuned-groups", tuned), ("single-group", global)] {
        let strategy = mc(&platform, tuning);
        report(
            &format!("group-division/{name}"),
            &run(&serial, &strategy, &platform),
        );
        bench("ablation-group-division", name, || {
            black_box(run(&serial, &strategy, &platform));
        });
    }
}

fn bench_placement_awareness() {
    // Memory-aware placement vs round-robin placement of the *same*
    // domain layout, on a cluster with a badly starved node.
    let platform = platform();
    let ior = workload();
    let tuning = platform.tuning();
    let cfg = MccioConfig::new(tuning, MIB, platform.stripe);
    let placement = Placement::new(&platform.cluster, platform.n_ranks, FillOrder::Block).unwrap();
    let cluster = platform.cluster.clone();
    let starved = MemoryModel::build(
        &cluster,
        |node, cap| if node == 1 { cap - MIB } else { cap / 2 },
        mccio_mem::MemParams::default(),
    );

    let run_custom = |oblivious: bool| -> f64 {
        let world = World::new(CostModel::new(cluster.clone()), placement.clone());
        let env = IoEnv::new(
            FileSystem::new(platform.n_servers, platform.stripe, platform.pfs),
            starved.clone(),
        );
        let n = world.n_ranks();
        let reports = world.run(|ctx| {
            let env = env.clone();
            let handle = env.fs.open_or_create("ablation-placement");
            let extents = ior.extents(ctx.rank(), n);
            let payload = data::fill(&extents);
            let pattern = mccio_mpiio::GroupPattern::gather(ctx, &RankSet::world(n), &extents);
            let mut plan = plan_mccio(&pattern, ctx.placement(), &env.mem, &cfg);
            if oblivious {
                // Round-robin the same domains over first-rank-per-node,
                // ignoring memory entirely (includes the starved node).
                let nodes = ctx.placement().n_nodes();
                for (i, d) in plan.domains.iter_mut().enumerate() {
                    d.aggregator = ctx.placement().ranks_on(i % nodes)[0];
                }
            }
            let mut collective = |op| {
                let mut res = Resilience::default();
                execute(ctx, &env, &handle, &plan, &pattern, &extents, op, &mut res)
                    .expect("a healthy collective cannot be refused")
            };
            let w = collective(Op::Write(&payload));
            let r = collective(Op::Read(&mut Vec::new()));
            (w, r)
        });
        let total = Workload::total_bytes(&ior, n) as f64;
        let secs = reports
            .iter()
            .map(|(w, _)| w.elapsed.as_secs())
            .fold(0.0, f64::max);
        total / secs / MIB as f64
    };

    let aware = run_custom(false);
    let oblivious = run_custom(true);
    println!(
        "[ablation] placement/memory-aware: write {aware:8.1} MB/s  vs round-robin {oblivious:8.1} MB/s"
    );
    bench("ablation-placement", "memory-aware", || {
        black_box(run_custom(false));
    });
    bench("ablation-placement", "round-robin", || {
        black_box(run_custom(true));
    });
}

fn bench_remerge() {
    // Remerging on/off with one node far below Mem_min.
    let mut platform = platform();
    platform.mem_available = Some((32 * MIB, 24 * MIB)); // plenty of starved nodes
    let ior = workload();
    // Raise Mem_min to a level the starved nodes actually fail, so the
    // remerge/relocation path runs; Mem_min = 0 accepts every host.
    let tuned = platform.tuning().with_msg_ind(8 * MIB);
    let no_remerge = Tuning {
        mem_min: 0,
        ..tuned
    };
    for (name, tuning) in [("mem-min-tuned", tuned), ("mem-min-zero", no_remerge)] {
        let strategy = mc(&platform, tuning);
        report(&format!("remerge/{name}"), &run(&ior, &strategy, &platform));
        bench("ablation-remerge", name, || {
            black_box(run(&ior, &strategy, &platform));
        });
    }
}

fn bench_n_ah_sweep() {
    let platform = platform();
    let ior = workload();
    let tuned = platform.tuning();
    for n_ah in [1usize, 2, 4, 8] {
        let tuning = tuned.with_n_ah(n_ah);
        let strategy = mc(&platform, tuning);
        report(&format!("n_ah/{n_ah}"), &run(&ior, &strategy, &platform));
        bench("ablation-n-ah", &format!("n_ah-{n_ah}"), || {
            black_box(run(&ior, &strategy, &platform));
        });
    }
}

fn bench_msg_ind_sweep() {
    let platform = platform();
    let ior = workload();
    let tuned = platform.tuning();
    for mib in [1u64, 4, 16] {
        let tuning = tuned.with_msg_ind(mib * MIB);
        let strategy = mc(&platform, tuning);
        report(
            &format!("msg_ind/{mib}MiB"),
            &run(&ior, &strategy, &platform),
        );
        bench("ablation-msg-ind", &format!("msg_ind-{mib}MiB"), || {
            black_box(run(&ior, &strategy, &platform));
        });
    }
}

fn bench_layout_alignment() {
    // Plain two-phase vs the layout-aware variant (domain boundaries
    // snapped to the stripe unit): alignment removes the split-stripe
    // requests at every domain boundary.
    let platform = platform();
    let ior = workload();
    for (name, cfg) in [
        ("unaligned", TwoPhaseConfig::with_buffer(MIB)),
        (
            "stripe-aligned",
            TwoPhaseConfig::layout_aware(MIB, platform.stripe),
        ),
    ] {
        let strategy = TwoPhase(cfg);
        report(
            &format!("alignment/{name}"),
            &run(&ior, &strategy, &platform),
        );
        bench("ablation-layout-alignment", name, || {
            black_box(run(&ior, &strategy, &platform));
        });
    }
}

fn bench_shared_world_reuse() {
    // run_with: amortizing world construction across runs.
    let platform = platform();
    let ior = workload();
    let placement = Placement::new(&platform.cluster, platform.n_ranks, FillOrder::Block).unwrap();
    let world: Arc<World> = World::new(CostModel::new(platform.cluster.clone()), placement);
    let strategy = TwoPhase(TwoPhaseConfig::with_buffer(MIB));
    bench("harness", "run_with-shared-world", || {
        let env = IoEnv::new(
            FileSystem::new(platform.n_servers, platform.stripe, platform.pfs),
            platform.memory(),
        );
        black_box(run_with(&world, &env, &ior, &strategy));
    });
}

fn main() {
    bench_group_division();
    bench_placement_awareness();
    bench_remerge();
    bench_n_ah_sweep();
    bench_msg_ind_sweep();
    bench_layout_alignment();
    bench_shared_world_reuse();
}
