//! Golden determinism: pins the exact virtual-time reports, file bytes,
//! and traffic counters each strategy produces for one fixed seed, for
//! both directions. The constants below were captured on `main` before
//! the engine was decomposed into `core::engine::{env, wire, prologue,
//! rounds, settle}` — any engine or strategy change that shifts a single
//! byte, message, or priced nanosecond fails here.
//!
//! Re-capture (only when a *deliberate* behavior change lands):
//! `MCCIO_GOLDEN_CAPTURE=1 cargo test --test golden_determinism -- --nocapture`

use mccio_suite::core::mccio::MccioConfig;
use mccio_suite::core::prelude::*;
use mccio_suite::core::two_phase::TwoPhaseConfig;
use mccio_suite::mem::MemoryModel;
use mccio_suite::mpiio::{Resilience, SieveConfig};
use mccio_suite::net::{ExecutorKind, TrafficSnapshot, World};
use mccio_suite::pfs::{FileSystem, PfsParams};
use mccio_suite::sim::cost::CostModel;
use mccio_suite::sim::time::VTime;
use mccio_suite::sim::topology::{test_cluster, FillOrder, Placement};
use mccio_suite::sim::units::{KIB, MIB};

const RANKS: usize = 6;

/// What one (strategy, write+read) run produced.
#[derive(Debug, PartialEq)]
struct Golden {
    write_secs: Vec<f64>,
    read_secs: Vec<f64>,
    file_hash: u64,
    file_len: u64,
    traffic: TrafficSnapshot,
}

/// FNV-1a written out here, as a reference independent of
/// `mccio_sim::hash`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn extents_of(rank: usize) -> ExtentList {
    ExtentList::normalize(
        (0..16u64)
            .map(|i| Extent::new((i * RANKS as u64 + rank as u64) * 8 * KIB, 8 * KIB))
            .collect(),
    )
}

fn data_of(rank: usize) -> Vec<u8> {
    let total = extents_of(rank).total_bytes();
    (0..total)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(rank as u8 * 17))
        .collect()
}

fn run_strategy(strategy: &dyn Strategy, executor: ExecutorKind) -> Golden {
    let cluster = test_cluster(3, 2);
    let placement = Placement::new(&cluster, RANKS, FillOrder::Block).unwrap();
    let world = World::with_executor(CostModel::new(cluster.clone()), placement, executor);
    let env = IoEnv::new(
        FileSystem::new(4, 64 * KIB, PfsParams::default()),
        MemoryModel::with_available_variance(&cluster, 32 * MIB, 16 * MIB, 11),
    );
    let reports = world.run(|ctx| {
        let env = env.clone();
        let handle = env.fs.open_or_create("golden");
        let extents = extents_of(ctx.rank());
        let data = data_of(ctx.rank());
        let w = write_all(ctx, &env, &handle, &extents, &data, strategy);
        ctx.barrier();
        let (back, r) = read_all(ctx, &env, &handle, &extents, strategy);
        assert_eq!(back, data, "rank {} roundtrip", ctx.rank());
        (w, r)
    });
    let handle = env.fs.open("golden").unwrap();
    let (contents, _) = handle.read_at(0, handle.len());
    Golden {
        write_secs: reports.iter().map(|(w, _)| w.elapsed.as_secs()).collect(),
        read_secs: reports.iter().map(|(_, r)| r.elapsed.as_secs()).collect(),
        file_hash: fnv1a(&contents),
        file_len: handle.len(),
        traffic: world.traffic().snapshot(),
    }
}

fn strategies() -> Vec<(&'static str, Box<dyn Strategy>)> {
    let tuning = Tuning {
        n_ah: 2,
        msg_ind: MIB,
        mem_min: 2 * MIB,
        msg_group: 4 * MIB,
    };
    vec![
        (
            "sieved",
            Box::new(IndependentSieved(SieveConfig::default())),
        ),
        (
            "two-phase",
            Box::new(TwoPhase(TwoPhaseConfig::with_buffer(256 * KIB))),
        ),
        (
            "memory-conscious",
            Box::new(MemoryConscious(MccioConfig::new(
                tuning,
                256 * KIB,
                64 * KIB,
            ))),
        ),
    ]
}

/// The values every strategy produced on `main` before the engine
/// refactor (f64 literals are `{:?}` round-trips, so the comparison is
/// bit-exact).
fn expected(name: &str) -> Golden {
    let flat = |v: f64| vec![v; RANKS];
    match name {
        "sieved" => Golden {
            write_secs: flat(0.0036168945312500004),
            read_secs: flat(0.0018395507812500001),
            file_hash: 0x8d83a4b4ca2325,
            file_len: 786432,
            traffic: TrafficSnapshot {
                intra_bytes: 0,
                inter_bytes: 0,
                data_msgs: 0,
                ctl_msgs: 10,
                node_ingress: vec![0, 0, 0],
                node_egress: vec![0, 0, 0],
            },
        },
        "two-phase" => Golden {
            write_secs: flat(0.0017075390624999999),
            read_secs: flat(0.0013906640625),
            file_hash: 0x8d83a4b4ca2325,
            file_len: 786432,
            traffic: TrafficSnapshot {
                intra_bytes: 295632,
                inter_bytes: 985536,
                data_msgs: 30,
                ctl_msgs: 140,
                node_ingress: vec![328512, 328512, 328512],
                node_egress: vec![328512, 328512, 328512],
            },
        },
        "memory-conscious" => Golden {
            write_secs: flat(0.002653935546875),
            read_secs: flat(0.002653935546875),
            file_hash: 0x8d83a4b4ca2325,
            file_len: 786432,
            traffic: TrafficSnapshot {
                intra_bytes: 262800,
                inter_bytes: 1051200,
                data_msgs: 30,
                ctl_msgs: 180,
                node_ingress: vec![262800, 262800, 525600],
                node_egress: vec![262800, 262800, 525600],
            },
        },
        other => panic!("no golden record for {other}"),
    }
}

/// What each crash schedule of [`crash_schedule_runs_are_bit_identical`]
/// produced, keyed by [`CrashCase::key`]: the pinned times carry every
/// rank's detection timeout, and the file bytes are the crash-free
/// golden's. Also returns the summed `(crashes_detected, reelections,
/// rounds_replayed)` counters. The `two-phase` and `memory-conscious`
/// records were captured before crash detection became a plain clock
/// charge.
fn expected_crashed(name: &str) -> (Golden, [u64; 3]) {
    let flat = |v: f64| vec![v; RANKS];
    match name {
        "two-phase" => (
            Golden {
                write_secs: flat(0.0017075390624999999),
                read_secs: flat(0.0018006640624999997),
                file_hash: 0x8d83a4b4ca2325,
                file_len: 786432,
                traffic: TrafficSnapshot {
                    intra_bytes: 287472,
                    inter_bytes: 1002144,
                    data_msgs: 30,
                    ctl_msgs: 240,
                    node_ingress: vec![246432, 328576, 427136],
                    node_egress: vec![509280, 328576, 164288],
                },
            },
            [6, 6, 6],
        ),
        "memory-conscious" => (
            Golden {
                write_secs: flat(0.0029439355468750005),
                read_secs: flat(0.0029439355468749997),
                file_hash: 0x8d83a4b4ca2325,
                file_len: 786432,
                traffic: TrafficSnapshot {
                    intra_bytes: 254640,
                    inter_bytes: 1067808,
                    data_msgs: 30,
                    ctl_msgs: 310,
                    node_ingress: vec![361408, 262848, 443552],
                    node_egress: vec![624256, 262848, 180704],
                },
            },
            [12, 12, 12],
        ),
        "two-phase, crash at 0" => (
            Golden {
                write_secs: flat(0.0021175390625),
                read_secs: flat(0.0018006640625000004),
                file_hash: 0x8d83a4b4ca2325,
                file_len: 786432,
                traffic: TrafficSnapshot {
                    intra_bytes: 279264,
                    inter_bytes: 1018560,
                    data_msgs: 30,
                    ctl_msgs: 270,
                    node_ingress: vec![427136, 328576, 262848],
                    node_egress: vec![427136, 328576, 262848],
                },
            },
            [12, 12, 12],
        ),
        other => panic!("no crashed golden record for {other}"),
    }
}

/// Like [`run_strategy`], but with a crash schedule injected; also
/// returns the resilience counters summed over every rank, of the
/// write alone and of the write+read pair, so the caller can check
/// where the schedule fired.
fn run_strategy_crashed(
    strategy: &dyn Strategy,
    plan: FaultPlan,
    executor: ExecutorKind,
) -> (Golden, [Resilience; 2]) {
    let cluster = test_cluster(3, 2);
    let placement = Placement::new(&cluster, RANKS, FillOrder::Block).unwrap();
    let world = World::with_executor(CostModel::new(cluster.clone()), placement, executor);
    let env = IoEnv::with_faults(
        FileSystem::new(4, 64 * KIB, PfsParams::default()),
        MemoryModel::with_available_variance(&cluster, 32 * MIB, 16 * MIB, 11),
        plan,
    );
    let reports = world.run(|ctx| {
        let env = env.clone();
        let handle = env.fs.open_or_create("golden");
        let extents = extents_of(ctx.rank());
        let data = data_of(ctx.rank());
        let w = write_all(ctx, &env, &handle, &extents, &data, strategy);
        ctx.barrier();
        let (back, r) = read_all(ctx, &env, &handle, &extents, strategy);
        assert_eq!(back, data, "rank {} roundtrip", ctx.rank());
        (w, r)
    });
    let handle = env.fs.open("golden").unwrap();
    let (contents, _) = handle.read_at(0, handle.len());
    let (mut write, mut res) = (Resilience::default(), Resilience::default());
    for (w, r) in &reports {
        write.absorb(w.resilience);
        res.absorb(w.resilience);
        res.absorb(r.resilience);
    }
    let golden = Golden {
        write_secs: reports.iter().map(|(w, _)| w.elapsed.as_secs()).collect(),
        read_secs: reports.iter().map(|(_, r)| r.elapsed.as_secs()).collect(),
        file_hash: fnv1a(&contents),
        file_len: handle.len(),
        traffic: world.traffic().snapshot(),
    };
    (golden, [write, res])
}

/// Schedule matrix: the canonical rank schedule and every explored one
/// must reproduce the pinned constants — which also proves them
/// bit-identical to each other — for every strategy.
#[test]
fn golden_values_hold() {
    let capture = std::env::var_os("MCCIO_GOLDEN_CAPTURE").is_some();
    for (name, strategy) in &strategies() {
        for executor in std::iter::once(ExecutorKind::Event).chain(ExecutorKind::EXPLORED) {
            let g = run_strategy(&**strategy, executor);
            if capture {
                if executor == ExecutorKind::Event {
                    println!("// --- {name} ---");
                    println!("write_secs: {:?}", g.write_secs);
                    println!("read_secs: {:?}", g.read_secs);
                    println!("file_hash: {:#x}", g.file_hash);
                    println!("file_len: {}", g.file_len);
                    println!("traffic: {:?}", g.traffic);
                }
            } else {
                assert_eq!(
                    g,
                    expected(name),
                    "golden mismatch for {name} ({executor:?})"
                );
            }
        }
    }
}

/// One crash schedule of [`crash_schedule_runs_are_bit_identical`]:
/// the collective, the rank that crashes and when, and whether the
/// write itself detects the crash.
struct CrashCase {
    key: &'static str,
    strategy: Box<dyn Strategy>,
    crash_at: f64,
    detected_in_write: bool,
}

impl CrashCase {
    fn plan(&self) -> FaultPlan {
        FaultPlan::new(0x60_1D).crash_rank_at(VTime::from_secs(self.crash_at), 4)
    }
}

/// Crash-schedule determinism: a run that detects an aggregator crash,
/// re-elects, and replays is just as reproducible as a healthy one —
/// run twice from scratch it yields bit-identical reports, traffic,
/// recovery counters, and file bytes, and those equal the pinned
/// [`expected_crashed`] values. The recovered bytes must also equal the
/// crash-free golden hash, because recovery changes who aggregates,
/// never what lands in the file.
///
/// Rank 4 aggregates under both collectives on this cluster. Crashed at
/// 0.5 ms it dies mid-write under memory-conscious, whose write detects
/// it at a later round; two-phase's write is one round, which starts
/// before 0.5 ms, so there only the read detects it. The third schedule
/// crashes rank 4 at time zero, so two-phase's write detects it at its
/// one round: the clients' flows toward the dead aggregator are priced
/// as wasted, and the write seconds move off the crash-free golden.
#[test]
fn crash_schedule_runs_are_bit_identical() {
    let two_phase = || Box::new(TwoPhase(TwoPhaseConfig::with_buffer(256 * KIB)));
    let cases = [
        CrashCase {
            key: "two-phase",
            strategy: two_phase(),
            crash_at: 0.0005,
            detected_in_write: false,
        },
        CrashCase {
            key: "memory-conscious",
            strategy: Box::new(MemoryConscious(MccioConfig::new(
                Tuning {
                    n_ah: 2,
                    msg_ind: MIB,
                    mem_min: 2 * MIB,
                    msg_group: 4 * MIB,
                },
                256 * KIB,
                64 * KIB,
            ))),
            crash_at: 0.0005,
            detected_in_write: true,
        },
        CrashCase {
            key: "two-phase, crash at 0",
            strategy: two_phase(),
            crash_at: 0.0,
            detected_in_write: true,
        },
    ];
    let capture = std::env::var_os("MCCIO_GOLDEN_CAPTURE").is_some();
    for case in &cases {
        let (name, strategy) = (case.key, &*case.strategy);
        let (a, res_a) = run_strategy_crashed(strategy, case.plan(), ExecutorKind::Event);
        let [write, total] = res_a;
        if capture {
            println!("// --- {name} (crashed) ---");
            println!("write_secs: {:?}", a.write_secs);
            println!("read_secs: {:?}", a.read_secs);
            println!("file_hash: {:#x}", a.file_hash);
            println!("file_len: {}", a.file_len);
            println!("traffic: {:?}", a.traffic);
            println!("resilience: {total:?}");
        } else {
            let (golden, [crashes, reelections, replayed]) = expected_crashed(name);
            assert_eq!(a, golden, "crashed golden mismatch for {name}");
            assert_eq!(
                [
                    total.crashes_detected,
                    total.reelections,
                    total.rounds_replayed
                ],
                [crashes, reelections, replayed],
                "{name}: crash recovery counters moved"
            );
        }
        let crash_free = expected(strategy.name());
        assert!(
            total.crashes_detected > 0,
            "{name}: the scheduled crash must land inside the operation"
        );
        assert_eq!(
            write.crashes_detected > 0,
            case.detected_in_write,
            "{name}: the write's crash detections {write:?}"
        );
        assert_eq!(
            a.write_secs != crash_free.write_secs,
            case.detected_in_write,
            "{name}: only a crash the write detects moves its seconds"
        );
        let (b, res_b) = run_strategy_crashed(strategy, case.plan(), ExecutorKind::Event);
        assert_eq!(a, b, "{name}: crashed runs must be bit-identical");
        assert_eq!(res_a, res_b, "{name}: recovery counters must reproduce");
        assert_eq!(
            a.file_hash, crash_free.file_hash,
            "{name}: recovered bytes must equal the crash-free golden"
        );
        // Schedule matrix: every explored schedule replays the same
        // crash, detection, re-election, and round replay bit-for-bit.
        for kind in ExecutorKind::EXPLORED {
            let (e, res_e) = run_strategy_crashed(strategy, case.plan(), kind);
            assert_eq!(a, e, "{name}: {kind:?} diverged on a crash schedule");
            assert_eq!(res_a, res_e, "{name}: {kind:?} recovery counters diverged");
        }
    }
}
