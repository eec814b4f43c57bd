//! End-to-end round trips: every workload × every strategy moves real
//! bytes through the full stack (workload → mpiio → core → net → pfs)
//! and must read back exactly what it wrote.

use mccio_suite::core::prelude::*;
use mccio_suite::mpiio::{Resilience, SieveConfig};
use mccio_suite::net::ExecutorKind;
use mccio_suite::sim::cost::CostModel;
use mccio_suite::sim::time::VTime;
use mccio_suite::sim::topology::{test_cluster, FillOrder, Placement};
use mccio_suite::sim::units::{KIB, MIB};
use mccio_suite::sim::vmem::STREAM_MIN;
use mccio_suite::workloads::{data, CollPerf, Ior, IorMode, Synthetic, Workload};

fn strategies() -> Vec<Box<dyn Strategy>> {
    let tuning = Tuning {
        n_ah: 2,
        msg_ind: MIB,
        mem_min: 2 * MIB,
        msg_group: 4 * MIB,
    };
    vec![
        Box::new(Independent),
        Box::new(IndependentSieved(SieveConfig::default())),
        Box::new(TwoPhase(TwoPhaseConfig::with_buffer(256 * KIB))),
        Box::new(MemoryConscious(MccioConfig::new(
            tuning,
            256 * KIB,
            64 * KIB,
        ))),
    ]
}

fn roundtrip(workload: &dyn Workload, n_nodes: usize, cores: usize, ranks: usize) {
    for strategy in strategies() {
        let cluster = test_cluster(n_nodes, cores);
        let placement = Placement::new(&cluster, ranks, FillOrder::Block).unwrap();
        let world = World::new(CostModel::new(cluster.clone()), placement);
        let env = IoEnv::new(
            FileSystem::new(4, 64 * KIB, PfsParams::default()),
            MemoryModel::with_available_variance(&cluster, 64 * MIB, 16 * MIB, 5),
        );
        let strategy: &dyn Strategy = &*strategy;
        let reports = world.run(|ctx| {
            let env = env.clone();
            let handle = env.fs.open_or_create("rt");
            let extents = workload.extents(ctx.rank(), ctx.size());
            let payload = data::fill(&extents);
            let w = write_all(ctx, &env, &handle, &extents, &payload, strategy);
            ctx.barrier();
            let (back, r) = read_all(ctx, &env, &handle, &extents, strategy);
            assert_eq!(
                data::verify(&extents, &back),
                None,
                "rank {} corrupted under {}",
                ctx.rank(),
                strategy.name()
            );
            (w, r)
        });
        let expect = workload.total_bytes(ranks);
        let moved: u64 = reports.iter().map(|(w, _)| w.bytes).sum();
        assert_eq!(moved, expect, "{}", strategy.name());
    }
}

#[test]
fn ior_interleaved_roundtrips_under_all_strategies() {
    roundtrip(&Ior::new(32 * KIB, 4, IorMode::Interleaved), 2, 4, 8);
}

#[test]
fn ior_segmented_roundtrips_under_all_strategies() {
    roundtrip(&Ior::new(64 * KIB, 2, IorMode::Segmented), 2, 4, 8);
}

#[test]
fn ior_random_roundtrips_under_all_strategies() {
    roundtrip(&Ior::new(16 * KIB, 8, IorMode::Random(99)), 2, 4, 8);
}

#[test]
fn coll_perf_roundtrips_under_all_strategies() {
    roundtrip(&CollPerf::cube(16, 8, 4), 2, 4, 8);
}

#[test]
fn synthetic_roundtrips_under_all_strategies() {
    roundtrip(&Synthetic::new(512 * KIB, 12, 512, 8 * KIB, 31), 2, 4, 8);
}

#[test]
fn twelve_ranks_three_nodes_coll_perf() {
    roundtrip(&CollPerf::new([12, 24, 24], [2, 2, 3], 8), 3, 4, 12);
}

#[test]
fn single_rank_degenerates_gracefully() {
    roundtrip(&Ior::new(64 * KIB, 4, IorMode::Interleaved), 1, 1, 1);
}

#[test]
fn fs_test_partial_touch_roundtrips() {
    use mccio_suite::workloads::FsTest;
    // Records with holes: write-back must not clobber untouched bytes.
    roundtrip(&FsTest::new(4 * KIB, 8, 3 * KIB), 2, 4, 8);
}

#[test]
fn tile_io_ghost_reads_fan_out_correctly() {
    use mccio_suite::workloads::TileIo;
    let tiles = TileIo::new([2, 4], [16, 64], 2, 4);
    for strategy in strategies() {
        let cluster = test_cluster(2, 4);
        let placement = Placement::new(&cluster, 8, FillOrder::Block).unwrap();
        let world = World::new(CostModel::new(cluster.clone()), placement);
        let env = IoEnv::new(
            FileSystem::new(4, 16 * KIB, PfsParams::default()),
            MemoryModel::pristine(&cluster),
        );
        let strategy: &dyn Strategy = &*strategy;
        let t = &tiles;
        world.run(|ctx| {
            let env = env.clone();
            let handle = env.fs.open_or_create("tiles");
            // Write disjoint interiors, read back with overlapping halos.
            let w_extents = t.write_extents(ctx.rank());
            let payload = data::fill(&w_extents);
            let _ = write_all(ctx, &env, &handle, &w_extents, &payload, strategy);
            ctx.barrier();
            let r_extents = t.read_extents(ctx.rank());
            let (back, _) = read_all(ctx, &env, &handle, &r_extents, strategy);
            assert_eq!(
                data::verify(&r_extents, &back),
                None,
                "halo read corrupt under {}",
                strategy.name()
            );
        });
    }
}

#[test]
fn collective_write_then_independent_read_interoperates() {
    // Data written collectively must be readable through any other path.
    let cluster = test_cluster(2, 2);
    let placement = Placement::new(&cluster, 4, FillOrder::Block).unwrap();
    let world = World::new(CostModel::new(cluster.clone()), placement);
    let env = IoEnv::new(
        FileSystem::new(4, 64 * KIB, PfsParams::default()),
        MemoryModel::pristine(&cluster),
    );
    let ior = Ior::new(32 * KIB, 4, IorMode::Interleaved);
    let collective = TwoPhase(TwoPhaseConfig::with_buffer(128 * KIB));
    let independent = Independent;
    world.run(|ctx| {
        let env = env.clone();
        let handle = env.fs.open_or_create("interop");
        let extents = ior.extents(ctx.rank(), ctx.size());
        let payload = data::fill(&extents);
        let _ = write_all(ctx, &env, &handle, &extents, &payload, &collective);
        ctx.barrier();
        let (back, _) = read_all(ctx, &env, &handle, &extents, &independent);
        assert_eq!(data::verify(&extents, &back), None);
    });
}

/// Extents of `rank` on `ranks` ranks: IOR-interleaved segments whose
/// blocks are `STREAM_MIN - 1`, `STREAM_MIN`, `STREAM_MIN + 1` and 1
/// bytes long, the length rotating with rank and segment. The blocks
/// tile the file, so every collective window is hole-free and lands
/// its pieces straight in the file, at every alignment the odd lengths
/// leave.
fn stream_edge_extents(rank: usize, ranks: usize) -> ExtentList {
    let t = STREAM_MIN as u64;
    let lens = [t - 1, t, t + 1, 1];
    let (mut offset, mut out) = (0, Vec::new());
    for segment in 0..8 {
        for r in 0..ranks {
            let len = lens[(r + segment) % lens.len()];
            if r == rank {
                out.push(Extent::new(offset, len));
            }
            offset += len;
        }
    }
    ExtentList::from_sorted(out)
}

/// The streamed copies at their length edges: under both collectives,
/// on the canonical schedule and every explored one, and again with an
/// aggregator crash (whose recovery seals every put and checks each
/// seal over the bytes it landed), a write and read of
/// [`stream_edge_extents`] read back clean and leave a file whose every
/// byte is `byte_at` of its offset.
#[test]
fn stream_length_edges_roundtrip_on_every_schedule() {
    let crashed = || FaultPlan::new(0x5EA1).crash_rank_at(VTime::from_secs(1e-9), 0);
    let strategies: Vec<Box<dyn Strategy>> = vec![
        Box::new(TwoPhase(TwoPhaseConfig::with_buffer(16 * KIB))),
        Box::new(MemoryConscious(MccioConfig::new(
            Tuning {
                n_ah: 2,
                msg_ind: 16 * KIB,
                mem_min: 16 * KIB,
                msg_group: 64 * KIB,
            },
            16 * KIB,
            4 * KIB,
        ))),
    ];
    for strategy in &strategies {
        for plan in [FaultPlan::new(0x5EA1), crashed()] {
            let fault_free = plan.events().is_empty();
            for kind in std::iter::once(ExecutorKind::Event).chain(ExecutorKind::EXPLORED) {
                let cluster = test_cluster(3, 2);
                let placement = Placement::new(&cluster, 6, FillOrder::Block).unwrap();
                let world = World::with_executor(CostModel::new(cluster.clone()), placement, kind);
                let env = IoEnv::with_faults(
                    FileSystem::new(4, 16 * KIB, PfsParams::default()),
                    MemoryModel::pristine(&cluster),
                    plan.clone(),
                );
                let strategy: &dyn Strategy = &**strategy;
                let reports = world.run(|ctx| {
                    let env = env.clone();
                    let handle = env.fs.open_or_create("edges");
                    let extents = stream_edge_extents(ctx.rank(), ctx.size());
                    let payload = data::fill(&extents);
                    let w = write_all(ctx, &env, &handle, &extents, &payload, strategy);
                    ctx.barrier();
                    let (back, r) = read_all(ctx, &env, &handle, &extents, strategy);
                    assert_eq!(data::verify(&extents, &back), None, "rank {}", ctx.rank());
                    (w, r)
                });
                let name = format!("{} on {kind:?}, fault-free {fault_free}", strategy.name());
                let handle = env.fs.open("edges").unwrap();
                let (file, _) = handle.read_at(0, handle.len());
                assert_eq!(file.len(), 6 * 8 * (3 * STREAM_MIN + 1) / 4, "{name}");
                let bad = (0..file.len()).find(|&i| file[i] != data::byte_at(i as u64));
                assert_eq!(bad, None, "{name}: first wrong file byte");
                let mut res = Resilience::default();
                for (w, r) in &reports {
                    res.absorb(w.resilience);
                    res.absorb(r.resilience);
                }
                if fault_free {
                    assert_eq!(res, Resilience::default(), "{name}");
                } else {
                    assert!(res.crashes_detected > 0, "{name}: {res:?}");
                    assert!(res.integrity_verified > 0, "{name}: {res:?}");
                }
            }
        }
    }
}
