//! Round pricing: one virtual-time charge per round, computed at the
//! world root from gathered facts and broadcast, so time is a pure
//! function of the plan and never of rank scheduling.

use mccio_net::{Ctx, RankSet};
use mccio_obs::{AttrValue, ENGINE_TRACK};
use mccio_pfs::{RetryLog, ServiceReport};
use mccio_sim::cost::Flow;
use mccio_sim::time::VDuration;

use super::env::IoEnv;
use super::prologue::mark_fault_events;
use super::wire::{decode_facts, encode_facts};

/// Gathers every rank's round facts at the world root, prices the round,
/// broadcasts the duration, and advances every rank's clock by it.
/// Returns the broadcast duration — identical on every rank — which the
/// crash tracker folds into the agreed clock.
///
/// Every rank parks here twice a round, so this frame sits under the
/// deepest park of a task's stack: the root's pricing, which never
/// yields, runs in [`price_round`]'s frame instead.
#[allow(clippy::too_many_arguments)]
pub(super) fn settle_round(
    ctx: &mut Ctx,
    env: &IoEnv,
    world: &RankSet,
    my_flows: &[(usize, u64)],
    my_report: &ServiceReport,
    my_assembled: u64,
    my_retry: RetryLog,
    is_write: bool,
    my_integrity: u64,
) -> VDuration {
    let payload = encode_facts(my_flows, my_report, my_assembled, my_retry, my_integrity);
    let gathered = ctx.group_gather(world, payload);
    // One shared buffer for every receiver; non-roots contribute nothing.
    let priced = gathered.map_or_else(Vec::new, |parts| {
        mccio_net::wire::encode_f64(price_round(ctx, env, world, &parts, is_write))
    });
    let secs = ctx.group_bcast_shared(world, priced);
    let settled = VDuration::from_secs(mccio_net::wire::decode_f64(&secs));
    ctx.advance(settled);
    // Memory events that fired during this round take effect before the
    // next one prices: every rank reports the same crossing, the state
    // applies each event once.
    if env.faults().is_active() {
        let fired = env.faults().apply_due(ctx.clock(), &env.mem);
        mark_fault_events(env.obs(), &fired);
    }
    settled
}

/// The phase terms of one priced round and the ranks that set them.
struct Priced {
    sync: VDuration,
    shuffle: VDuration,
    storage: VDuration,
    assembly: VDuration,
    /// The round cannot finish before its slowest rank clears its retry
    /// backoff: the waiting term is the max over ranks.
    waiting: VDuration,
    flows: usize,
    merged: ServiceReport,
    n_clients: usize,
    transient_faults: u64,
    retries: u64,
    /// Straggler attribution: the rank whose contribution set each
    /// max-over-ranks phase term. Critical-path analysis names these per
    /// round (`obs::analyze`).
    storage_rank: u64,
    assembly_rank: u64,
    backoff_rank: u64,
    slowdowns: Vec<f64>,
}

impl Priced {
    fn total(&self) -> VDuration {
        self.sync + self.shuffle + self.storage + self.assembly + self.waiting
    }
}

/// The root's half of [`settle_round`]: prices the round from every
/// rank's gathered facts (`parts`, in world order) and traces it.
/// Returns the round's duration in seconds.
#[inline(never)]
fn price_round(ctx: &Ctx, env: &IoEnv, world: &RankSet, parts: &[Vec<u8>], is_write: bool) -> f64 {
    let fault_plan = env.faults().plan();
    let mut flows: Vec<Flow> = Vec::new();
    let mut merged = ServiceReport::empty(env.fs.n_servers());
    let mut max_client = 0u64;
    let mut n_clients = 0usize;
    let mut assembly = VDuration::ZERO;
    let mut waiting = VDuration::ZERO;
    let mut transient_faults = 0u64;
    let mut retries = 0u64;
    let mut assembly_rank = 0u64;
    let mut storage_rank = 0u64;
    let mut backoff_rank = 0u64;
    let mut factors = env.mem.pressure_factors();
    // Straggler nodes run their compute/memory phases slower; this
    // composes with memory pressure the same way pressure composes
    // with itself — as a multiplier on the node's local work.
    for (node, f) in factors.iter_mut().enumerate() {
        *f *= fault_plan.straggler_factor(node);
    }
    let cost = ctx.cost();
    let placement = ctx.placement();
    // Each part folds straight into the round totals: no per-rank
    // flow list, report or record is materialised.
    for (&src, part) in world.members().iter().zip(parts) {
        let facts = decode_facts(
            part,
            |dst, bytes| flows.push(Flow { src, dst, bytes }),
            |server, load| merged.add_load(server, load),
        );
        if facts.storage_bytes > 0 {
            n_clients += 1;
        }
        if facts.storage_bytes > max_client {
            storage_rank = src as u64;
        }
        max_client = max_client.max(facts.storage_bytes);
        if facts.assembled > 0 {
            let node = placement.node_of(src);
            let local = cost.local_copy(node, facts.assembled, factors[node]);
            if local > assembly {
                assembly = local;
                assembly_rank = src as u64;
            }
        }
        if facts.retry.backoff > waiting {
            backoff_rank = src as u64;
        }
        waiting = waiting.max(facts.retry.backoff);
        transient_faults += facts.retry.transient_faults;
        retries += facts.retry.retries;
    }
    let slowdowns = if fault_plan.has_slow_servers() {
        fault_plan.server_slowdowns(env.fs.n_servers())
    } else {
        Vec::new()
    };
    let storage = env
        .fs
        .params()
        .phase_time(&merged, max_client, is_write, n_clients, &slowdowns);
    let priced = Priced {
        sync: cost.round_sync(world.len()),
        shuffle: cost.shuffle_phase(placement, &flows, &factors),
        storage,
        assembly,
        waiting,
        flows: flows.len(),
        merged,
        n_clients,
        transient_faults,
        retries,
        storage_rank,
        assembly_rank,
        backoff_rank,
        slowdowns,
    };
    if env.obs().is_enabled() {
        trace_round(ctx, env, &priced, is_write);
    }
    priced.total().as_secs()
}

/// Traces one priced round at the root: the round span, one span per
/// non-zero phase term in pricing order and the settle mark.
#[inline(never)]
fn trace_round(ctx: &Ctx, env: &IoEnv, p: &Priced, is_write: bool) {
    let obs = env.obs();
    // The root's clock has not advanced yet, so `ctx.clock()` is the
    // round's virtual start; the phase spans tile the round in pricing
    // order. The round's facts ride on the round span's attrs;
    // `mccio_obs::analyze::Round::from_span` is their one decoder.
    let start = ctx.clock();
    let total = p.total();
    obs.span(
        ENGINE_TRACK,
        "round",
        "engine",
        start,
        total,
        &[
            (
                "dir",
                AttrValue::Str(if is_write { "write" } else { "read" }),
            ),
            ("flows", AttrValue::U64(p.flows as u64)),
            ("volume", AttrValue::U64(p.merged.total_bytes())),
            ("requests", AttrValue::U64(p.merged.total_requests())),
            ("clients", AttrValue::U64(p.n_clients as u64)),
            ("sync_secs", AttrValue::F64(p.sync.as_secs())),
            ("shuffle_secs", AttrValue::F64(p.shuffle.as_secs())),
            ("storage_secs", AttrValue::F64(p.storage.as_secs())),
            ("assembly_secs", AttrValue::F64(p.assembly.as_secs())),
            ("backoff_secs", AttrValue::F64(p.waiting.as_secs())),
            ("transient_faults", AttrValue::U64(p.transient_faults)),
            ("retries", AttrValue::U64(p.retries)),
            // Straggler attribution (meaningful only when the matching
            // phase term is non-zero).
            ("storage_rank", AttrValue::Id(p.storage_rank)),
            ("assembly_rank", AttrValue::Id(p.assembly_rank)),
            ("backoff_rank", AttrValue::Id(p.backoff_rank)),
        ],
    );
    let mut t = start;
    for (name, dur) in [
        ("sync", p.sync),
        ("shuffle", p.shuffle),
        ("storage", p.storage),
        ("assembly", p.assembly),
        ("backoff", p.waiting),
    ] {
        if dur.as_secs() > 0.0 {
            obs.span(ENGINE_TRACK, name, "engine", t, dur, &[]);
        }
        t += dur;
    }
    obs.instant(
        ENGINE_TRACK,
        "settle",
        "engine",
        t,
        &[("round_secs", AttrValue::F64(total.as_secs()))],
    );
    if !p.slowdowns.is_empty() {
        obs.instant(
            ENGINE_TRACK,
            "pfs.slow_servers",
            "fault",
            start,
            &[(
                "servers",
                AttrValue::U64(p.slowdowns.iter().filter(|&&f| f > 1.0).count() as u64),
            )],
        );
    }
}
