//! Failure injection: the deterministic fault subsystem driven end to
//! end through both collective strategies, plus the degenerate
//! configurations a production collective-I/O layer has to survive.
//!
//! The fault tests exercise the real machinery — scheduled memory
//! revocation, transient per-request OST failures under the retry
//! policy, stragglers, and the degradation ladder — and assert both
//! data correctness and that the endured faults surface in the
//! operation reports. The determinism test is the subsystem's headline
//! guarantee: same seed + same plan ⇒ identical bytes, identical
//! virtual-time reports, identical traffic, on any rank schedule.

use mccio_suite::core::prelude::*;
use mccio_suite::mem::MemParams;
use mccio_suite::mpiio::{Resilience, SieveConfig};
use mccio_suite::net::{ExecutorKind, TrafficSnapshot};
use mccio_suite::sim::cost::CostModel;
use mccio_suite::sim::time::VTime;
use mccio_suite::sim::topology::{test_cluster, FillOrder, Placement};
use mccio_suite::sim::units::{GIB, KIB, MIB};
use mccio_suite::workloads::data;

fn world_of(nodes: usize, cores: usize, ranks: usize) -> std::sync::Arc<World> {
    let cluster = test_cluster(nodes, cores);
    let placement = Placement::new(&cluster, ranks, FillOrder::Block).unwrap();
    World::new(CostModel::new(cluster), placement)
}

/// The standard 3×2/6-rank fault world on the schedule `kind` picks.
fn world_pinned(kind: ExecutorKind) -> std::sync::Arc<World> {
    let cluster = test_cluster(3, 2);
    let placement = Placement::new(&cluster, 6, FillOrder::Block).unwrap();
    World::with_executor(CostModel::new(cluster), placement, kind)
}

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

fn env_for(nodes: usize, cores: usize) -> IoEnv {
    IoEnv::new(
        FileSystem::new(4, 16 * KIB, PfsParams::default()),
        MemoryModel::pristine(&test_cluster(nodes, cores)),
    )
}

/// Eight extents per rank in the rank's own slice — enough storage
/// requests that a 5 % failure rate is all but guaranteed to fire.
fn slice_extents(rank: usize) -> ExtentList {
    let base = rank as u64 * 512 * KIB;
    ExtentList::normalize(
        (0..8)
            .map(|i| Extent::new(base + i * 64 * KIB, 48 * KIB))
            .collect(),
    )
}

/// Runs write-then-read of `slice_extents` under `plan`, returning the
/// per-rank reports and the world's traffic snapshot.
fn run_faulty(
    strategy: &dyn Strategy,
    plan: FaultPlan,
) -> (Vec<(IoReport, IoReport)>, TrafficSnapshot) {
    let cluster = test_cluster(3, 2);
    let world = world_of(3, 2, 6);
    let env = IoEnv::with_faults(
        FileSystem::new(4, 16 * KIB, PfsParams::default()),
        MemoryModel::pristine(&cluster),
        plan,
    );
    let reports = world.run(|ctx| {
        let env = env.clone();
        let handle = env.fs.open_or_create("faulty");
        let extents = slice_extents(ctx.rank());
        let payload = data::fill(&extents);
        let w = write_all(ctx, &env, &handle, &extents, &payload, strategy);
        ctx.barrier();
        let (back, r) = read_all(ctx, &env, &handle, &extents, strategy);
        assert_eq!(
            data::verify(&extents, &back),
            None,
            "rank {} corruption under {}",
            ctx.rank(),
            strategy.name()
        );
        (w, r)
    });
    let snapshot = world.traffic().snapshot();
    (reports, snapshot)
}

/// Sums the resilience counters across all per-rank reports.
fn total_resilience(reports: &[(IoReport, IoReport)]) -> Resilience {
    let mut total = Resilience::default();
    for (w, r) in reports {
        total.absorb(w.resilience);
        total.absorb(r.resilience);
    }
    total
}

#[test]
fn transient_ost_failures_retry_and_surface_in_reports() {
    // 5 % of storage attempts fail; the retry policy absorbs them all.
    // Standalone sieving takes the same fault stream as the ladder's
    // bottom rung; a 16 KiB sieve buffer gives it enough requests.
    let sieved = IndependentSieved(SieveConfig {
        buffer_size: 16 * KIB,
    });
    let mut strategies = both_collectives();
    strategies.push(Box::new(sieved));
    for strategy in strategies {
        let plan = FaultPlan::new(0xD15C).transient_io_rate(0.05);
        let (reports, _) = run_faulty(&*strategy, plan);
        let total = total_resilience(&reports);
        assert!(
            total.transient_faults > 0,
            "{}: 5% rate over hundreds of requests must fault at least once",
            strategy.name()
        );
        assert!(
            total.retries > 0,
            "{}: faulted attempts must have retried",
            strategy.name()
        );
        assert!(
            total.backoff.as_secs() > 0.0,
            "{}: retries must charge backoff in virtual time",
            strategy.name()
        );
        // The budget (4 attempts at 5%) is never exhausted: no fallbacks.
        assert_eq!(total.fallbacks, 0, "{}", strategy.name());
    }
}

#[test]
fn memory_revocation_mid_write_is_absorbed_and_reported() {
    // Shortly into the write, the host reclaims half of node 0's memory.
    // Both strategies must finish with correct data and report the
    // revocation they lived through.
    for strategy in both_collectives() {
        let plan = FaultPlan::new(0xBEEF).revoke_memory_at(VTime::from_secs(1e-9), 0, 128 * MIB);
        let (reports, _) = run_faulty(&*strategy, plan);
        let total = total_resilience(&reports);
        assert!(
            total.revocations > 0,
            "{}: the revocation fired inside the operation window",
            strategy.name()
        );
    }
}

#[test]
fn total_memory_loss_descends_the_ladder_to_independent_io() {
    // Every node loses essentially all memory before the first round:
    // collective buffering is impossible at any rung, yet the operation
    // completes (independent I/O needs no aggregation memory) and the
    // report says how far it fell.
    for strategy in both_collectives() {
        let mut plan = FaultPlan::new(0xFA11);
        for node in 0..3 {
            plan = plan.revoke_memory_at(VTime::from_secs(1e-9), node, GIB);
        }
        let (reports, _) = run_faulty(&*strategy, plan);
        let total = total_resilience(&reports);
        assert!(
            total.fallbacks > 0,
            "{}: no rung with aggregation buffers can reserve memory",
            strategy.name()
        );
        assert!(
            total.retries > 0,
            "{}: each failed rung burned its reservation retry budget",
            strategy.name()
        );
    }
}

#[test]
fn straggler_slows_the_collective_down() {
    // Same plan shape (both active), one with a 3× straggler node. The
    // straggled run must take strictly more virtual time.
    let harmless = FaultPlan::new(0x51).revoke_memory_at(VTime::from_secs(1e9), 0, 1);
    let straggled = harmless.clone().straggler(0, 3.0);
    for strategy in both_collectives() {
        let (clean, _) = run_faulty(&*strategy, harmless.clone());
        let (slow, _) = run_faulty(&*strategy, straggled.clone());
        let clean_t: f64 = clean
            .iter()
            .map(|(w, _)| w.elapsed.as_secs())
            .fold(0.0, f64::max);
        let slow_t: f64 = slow
            .iter()
            .map(|(w, _)| w.elapsed.as_secs())
            .fold(0.0, f64::max);
        assert!(
            slow_t > clean_t,
            "{}: straggler write {slow_t} ≤ clean write {clean_t}",
            strategy.name()
        );
    }
}

#[test]
fn identical_fault_plans_reproduce_bit_identical_runs() {
    // The headline guarantee: everything at once — revocation, 5 % OST
    // failures, a straggler — run twice from scratch gives identical
    // per-rank reports and an identical traffic snapshot.
    let plan = || {
        FaultPlan::new(0xCAFE)
            .transient_io_rate(0.05)
            .revoke_memory_at(VTime::from_secs(1e-9), 1, 64 * MIB)
            .straggler(2, 1.5)
    };
    for strategy in both_collectives() {
        let (reports_a, traffic_a) = run_faulty(&*strategy, plan());
        let (reports_b, traffic_b) = run_faulty(&*strategy, plan());
        assert_eq!(
            reports_a,
            reports_b,
            "{}: reports diverged across runs",
            strategy.name()
        );
        assert_eq!(
            traffic_a,
            traffic_b,
            "{}: traffic diverged across runs",
            strategy.name()
        );
    }
}

/// FNV-1a over the whole file — the integrity fingerprint the crash
/// tests compare against crash-free baselines. Written out here, as a
/// reference independent of `mccio_sim::hash`.
fn file_hash(env: &IoEnv, name: &str) -> u64 {
    let handle = env.fs.open(name).expect("file exists");
    let (bytes, _) = handle.read_at(0, handle.len());
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Like [`run_faulty`], but also returns the final file hash so crashed
/// runs can be checked byte-for-byte against crash-free ones.
fn run_faulty_hashed(
    strategy: &dyn Strategy,
    plan: FaultPlan,
) -> (Vec<(IoReport, IoReport)>, TrafficSnapshot, u64) {
    run_faulty_hashed_in(strategy, plan, world_of(3, 2, 6))
}

/// [`run_faulty_hashed`] on a caller-supplied world, so the schedule
/// matrix can pin the rank schedule explicitly.
fn run_faulty_hashed_in(
    strategy: &dyn Strategy,
    plan: FaultPlan,
    world: std::sync::Arc<World>,
) -> (Vec<(IoReport, IoReport)>, TrafficSnapshot, u64) {
    let cluster = test_cluster(3, 2);
    let env = IoEnv::with_faults(
        FileSystem::new(4, 16 * KIB, PfsParams::default()),
        MemoryModel::pristine(&cluster),
        plan,
    );
    let reports = world.run(|ctx| {
        let env = env.clone();
        let handle = env.fs.open_or_create("faulty");
        let extents = slice_extents(ctx.rank());
        let payload = data::fill(&extents);
        let w = write_all(ctx, &env, &handle, &extents, &payload, strategy);
        ctx.barrier();
        let (back, r) = read_all(ctx, &env, &handle, &extents, strategy);
        assert_eq!(
            data::verify(&extents, &back),
            None,
            "rank {} corruption under {}",
            ctx.rank(),
            strategy.name()
        );
        (w, r)
    });
    let snapshot = world.traffic().snapshot();
    let hash = file_hash(&env, "faulty");
    (reports, snapshot, hash)
}

#[test]
fn aggregator_crash_mid_write_recovers_with_identical_bytes() {
    // Rank 0 aggregates for both strategies in this configuration; it
    // crashes mid-write (the clean write takes ~0.021s of virtual
    // time). The operation must complete through detection and
    // re-election — no degradation-ladder fallback — and the file must
    // be byte-identical to a crash-free run. The read that follows
    // re-detects the same dead rank under its own fresh plan and
    // recovers again.
    for strategy in both_collectives() {
        let baseline = FaultPlan::new(0xC0);
        let (_, _, clean_hash) = run_faulty_hashed(&*strategy, baseline);
        let crashy = FaultPlan::new(0xC0).crash_rank_at(VTime::from_secs(0.005), 0);
        let (reports, _, crashed_hash) = run_faulty_hashed(&*strategy, crashy);
        let total = total_resilience(&reports);
        assert!(
            total.crashes_detected > 0,
            "{}: the mid-write crash must be detected",
            strategy.name()
        );
        assert!(
            total.reelections > 0,
            "{}: the dead aggregator's domains must be re-elected",
            strategy.name()
        );
        assert!(
            total.rounds_replayed > 0,
            "{}: the interrupted round must be replayed",
            strategy.name()
        );
        assert!(
            total.integrity_verified > 0,
            "{}: crash-gated payload checksums must be verified",
            strategy.name()
        );
        assert_eq!(
            total.fallbacks,
            0,
            "{}: survivors exist, so recovery must not fall down the ladder",
            strategy.name()
        );
        assert_eq!(
            crashed_hash,
            clean_hash,
            "{}: recovered file must be byte-identical to the crash-free run",
            strategy.name()
        );
    }
}

#[test]
fn crash_recovery_runs_are_bit_identical() {
    // Same seed + same crash schedule ⇒ identical reports (including
    // the recovery counters), identical traffic, identical bytes, on
    // any rank schedule.
    let plan = || {
        FaultPlan::new(0x0DD)
            .transient_io_rate(0.05)
            .crash_rank_at(VTime::from_secs(0.004), 0)
            .crash_rank_at(VTime::from_secs(0.012), 2)
    };
    for strategy in both_collectives() {
        let (reports_a, traffic_a, hash_a) = run_faulty_hashed(&*strategy, plan());
        let (reports_b, traffic_b, hash_b) = run_faulty_hashed(&*strategy, plan());
        assert_eq!(
            reports_a,
            reports_b,
            "{}: reports diverged",
            strategy.name()
        );
        assert_eq!(
            traffic_a,
            traffic_b,
            "{}: traffic diverged",
            strategy.name()
        );
        assert_eq!(hash_a, hash_b, "{}: file bytes diverged", strategy.name());
    }
}

#[test]
fn explored_schedules_replay_crashes_identically() {
    // Differential schedule matrix: every explored rank schedule must
    // reproduce the canonical one bit for bit on the nastiest plan in
    // the suite — transient storage faults plus two mid-operation
    // aggregator crashes — reports, traffic, and bytes.
    let plan = || {
        FaultPlan::new(0x0DD)
            .transient_io_rate(0.05)
            .crash_rank_at(VTime::from_secs(0.004), 0)
            .crash_rank_at(VTime::from_secs(0.012), 2)
    };
    for strategy in both_collectives() {
        let (reports_c, traffic_c, hash_c) =
            run_faulty_hashed_in(&*strategy, plan(), world_pinned(ExecutorKind::Event));
        for kind in ExecutorKind::EXPLORED {
            let (reports_x, traffic_x, hash_x) =
                run_faulty_hashed_in(&*strategy, plan(), world_pinned(kind));
            let name = strategy.name();
            assert_eq!(
                reports_c, reports_x,
                "{name}: reports diverged under {kind:?}"
            );
            assert_eq!(
                traffic_c, traffic_x,
                "{name}: traffic diverged under {kind:?}"
            );
            assert_eq!(hash_c, hash_x, "{name}: file bytes diverged under {kind:?}");
        }
    }
}

#[test]
fn crashing_every_rank_falls_down_the_ladder() {
    // All six ranks crash before the first round: no survivor can be
    // elected, every collective rung refuses, and the operation still
    // completes through independent I/O (the crashed threads keep
    // lock-step — only their aggregator roles died). Data verification
    // inside the harness proves the bottom rung delivered.
    for strategy in both_collectives() {
        let mut plan = FaultPlan::new(0xA11);
        for rank in 0..6 {
            plan = plan.crash_rank_at(VTime::from_secs(1e-9), rank);
        }
        let (reports, _, _) = run_faulty_hashed(&*strategy, plan);
        let total = total_resilience(&reports);
        assert!(
            total.crashes_detected > 0,
            "{}: the crashes must be detected before the ladder descends",
            strategy.name()
        );
        assert!(
            total.fallbacks > 0,
            "{}: with no survivors the ladder must fall to independent I/O",
            strategy.name()
        );
    }
}

#[test]
fn crash_with_transient_faults_and_revocation_still_recovers() {
    // The full chaos stack at once: a mid-write aggregator crash, 5 %
    // transient storage failures, and a memory revocation. Recovery,
    // retries, and the revocation all surface in the reports; every
    // sealed header message, the replayed rounds' included, is compared
    // and its seal checked by its receiver.
    for strategy in both_collectives() {
        let plan = FaultPlan::new(0x0C7)
            .transient_io_rate(0.05)
            .revoke_memory_at(VTime::from_secs(1e-9), 1, 64 * MIB)
            .crash_rank_at(VTime::from_secs(0.006), 0);
        let (reports, _, _) = run_faulty_hashed(&*strategy, plan);
        let total = total_resilience(&reports);
        assert!(total.crashes_detected > 0, "{}", strategy.name());
        assert!(total.reelections > 0, "{}", strategy.name());
        assert!(total.transient_faults > 0, "{}", strategy.name());
        assert!(total.revocations > 0, "{}", strategy.name());
    }
}

#[test]
fn fault_free_plan_changes_nothing() {
    // An inactive plan must leave the engine on the legacy code path:
    // same timing, same traffic as an env built without faults.
    let strategies = both_collectives();
    let strategy: &dyn Strategy = &*strategies[1];
    let run_with_env = |env: IoEnv| {
        let world = world_of(3, 2, 6);
        let reports = world.run(|ctx| {
            let env = env.clone();
            let handle = env.fs.open_or_create("clean");
            let extents = slice_extents(ctx.rank());
            let payload = data::fill(&extents);
            let w = write_all(ctx, &env, &handle, &extents, &payload, strategy);
            ctx.barrier();
            let (_, r) = read_all(ctx, &env, &handle, &extents, strategy);
            (w, r)
        });
        (reports, world.traffic().snapshot())
    };
    let cluster = test_cluster(3, 2);
    let plain = run_with_env(IoEnv::new(
        FileSystem::new(4, 16 * KIB, PfsParams::default()),
        MemoryModel::pristine(&cluster),
    ));
    let inactive = run_with_env(IoEnv::with_faults(
        FileSystem::new(4, 16 * KIB, PfsParams::default()),
        MemoryModel::pristine(&cluster),
        FaultPlan::new(123),
    ));
    assert_eq!(plain.0, inactive.0, "reports must be bit-identical");
    assert_eq!(plain.1, inactive.1, "traffic must be bit-identical");
}

// ---------------------------------------------------------------------
// Degenerate configurations (fault-free edge cases).
// ---------------------------------------------------------------------

#[test]
fn all_ranks_empty_is_a_noop() {
    for strategy in both_collectives() {
        let world = world_of(2, 2, 4);
        let env = env_for(2, 2);
        let strategy: &dyn Strategy = &*strategy;
        let reports = world.run(|ctx| {
            let env = env.clone();
            let handle = env.fs.open_or_create("empty");
            let extents = ExtentList::default();
            let w = write_all(ctx, &env, &handle, &extents, &[], strategy);
            let (back, r) = read_all(ctx, &env, &handle, &extents, strategy);
            assert!(back.is_empty());
            (w, r)
        });
        for (w, r) in reports {
            assert_eq!(w.bytes, 0);
            assert_eq!(r.bytes, 0);
        }
    }
}

#[test]
fn single_writer_among_idle_ranks() {
    for strategy in both_collectives() {
        let world = world_of(2, 2, 4);
        let env = env_for(2, 2);
        let strategy: &dyn Strategy = &*strategy;
        world.run(|ctx| {
            let env = env.clone();
            let handle = env.fs.open_or_create("solo");
            let extents = if ctx.rank() == 3 {
                ExtentList::normalize(vec![Extent::new(100_000, 4096)])
            } else {
                ExtentList::default()
            };
            let payload = data::fill(&extents);
            let _ = write_all(ctx, &env, &handle, &extents, &payload, strategy);
            ctx.barrier();
            let (back, _) = read_all(ctx, &env, &handle, &extents, strategy);
            assert_eq!(data::verify(&extents, &back), None);
        });
    }
}

#[test]
fn every_node_memory_starved_still_completes() {
    let cluster = test_cluster(3, 2);
    let starved = MemoryModel::build(
        &cluster,
        |_, cap| cap.saturating_sub(64 * KIB),
        MemParams::default(),
    );
    for strategy in both_collectives() {
        let world = world_of(3, 2, 6);
        let env = IoEnv::new(
            FileSystem::new(4, 16 * KIB, PfsParams::default()),
            starved.clone(),
        );
        let strategy: &dyn Strategy = &*strategy;
        world.run(|ctx| {
            let env = env.clone();
            let handle = env.fs.open_or_create("starved");
            let extents =
                ExtentList::normalize(vec![Extent::new(ctx.rank() as u64 * 128 * KIB, 128 * KIB)]);
            let payload = data::fill(&extents);
            let w = write_all(ctx, &env, &handle, &extents, &payload, strategy);
            assert!(w.elapsed.as_secs() > 0.0, "work still happened");
            ctx.barrier();
            let (back, _) = read_all(ctx, &env, &handle, &extents, strategy);
            assert_eq!(data::verify(&extents, &back), None);
        });
    }
}

#[test]
fn buffer_smaller_than_stripe_unit() {
    let strategy = TwoPhase(TwoPhaseConfig::with_buffer(KIB));
    let world = world_of(2, 2, 4);
    let env = IoEnv::new(
        FileSystem::new(4, 64 * KIB, PfsParams::default()),
        MemoryModel::pristine(&test_cluster(2, 2)),
    );
    let strategy = &strategy;
    world.run(|ctx| {
        let env = env.clone();
        let handle = env.fs.open_or_create("tinybuf");
        let extents =
            ExtentList::normalize(vec![Extent::new(ctx.rank() as u64 * 32 * KIB, 32 * KIB)]);
        let payload = data::fill(&extents);
        let _ = write_all(ctx, &env, &handle, &extents, &payload, strategy);
        ctx.barrier();
        let (back, _) = read_all(ctx, &env, &handle, &extents, strategy);
        assert_eq!(data::verify(&extents, &back), None);
    });
}

#[test]
fn misaligned_sub_byte_granularity_extents() {
    for strategy in both_collectives() {
        let world = world_of(2, 2, 4);
        let env = env_for(2, 2);
        let strategy: &dyn Strategy = &*strategy;
        world.run(|ctx| {
            let env = env.clone();
            let handle = env.fs.open_or_create("odd");
            // Odd offsets, prime lengths, nothing aligned to anything.
            let r = ctx.rank() as u64;
            let extents = ExtentList::normalize(vec![
                Extent::new(r * 10_007 + 3, 997),
                Extent::new(r * 10_007 + 1_500, 13),
                Extent::new(r * 10_007 + 2_001, 1),
            ]);
            let payload = data::fill(&extents);
            let _ = write_all(ctx, &env, &handle, &extents, &payload, strategy);
            ctx.barrier();
            let (back, _) = read_all(ctx, &env, &handle, &extents, strategy);
            assert_eq!(data::verify(&extents, &back), None);
        });
    }
}

#[test]
fn read_of_never_written_region_returns_zeros() {
    for strategy in both_collectives() {
        let world = world_of(2, 2, 4);
        let env = env_for(2, 2);
        let strategy: &dyn Strategy = &*strategy;
        world.run(|ctx| {
            let env = env.clone();
            let handle = env.fs.open_or_create("holes");
            if ctx.rank() == 0 {
                handle.write_at(1 << 20, b"end");
            }
            ctx.barrier();
            let extents = ExtentList::normalize(vec![Extent::new(ctx.rank() as u64 * 1024, 1024)]);
            let (back, _) = read_all(ctx, &env, &handle, &extents, strategy);
            assert!(back.iter().all(|&b| b == 0), "holes must read as zero");
        });
    }
}

#[test]
fn repeated_operations_on_one_file_accumulate_correctly() {
    let strategies = both_collectives();
    let strategy: &dyn Strategy = &*strategies[1];
    let world = world_of(2, 2, 4);
    let env = env_for(2, 2);
    world.run(|ctx| {
        let env = env.clone();
        let handle = env.fs.open_or_create("multi");
        for round in 0u64..3 {
            let extents = ExtentList::normalize(vec![Extent::new(
                round * 512 * KIB + ctx.rank() as u64 * 64 * KIB,
                64 * KIB,
            )]);
            let payload = data::fill(&extents);
            let _ = write_all(ctx, &env, &handle, &extents, &payload, strategy);
            ctx.barrier();
        }
        // Verify all three generations at once.
        let all = ExtentList::normalize(
            (0u64..3)
                .map(|round| {
                    Extent::new(round * 512 * KIB + ctx.rank() as u64 * 64 * KIB, 64 * KIB)
                })
                .collect(),
        );
        let (back, _) = read_all(ctx, &env, &handle, &all, strategy);
        assert_eq!(data::verify(&all, &back), None);
    });
}

#[test]
fn virtual_time_only_moves_forward() {
    let world = world_of(2, 2, 4);
    let env = env_for(2, 2);
    let strategies = both_collectives();
    let strategy: &dyn Strategy = &*strategies[0];
    world.run(|ctx| {
        let env = env.clone();
        let handle = env.fs.open_or_create("time");
        let mut last = ctx.clock();
        for _ in 0..3 {
            let extents =
                ExtentList::normalize(vec![Extent::new(ctx.rank() as u64 * 8 * KIB, 8 * KIB)]);
            let payload = data::fill(&extents);
            let _ = write_all(ctx, &env, &handle, &extents, &payload, strategy);
            let now = ctx.clock();
            assert!(now >= last, "clock went backwards");
            last = now;
        }
    });
}
