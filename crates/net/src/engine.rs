//! The SPMD rank engine.
//!
//! [`World::run`] executes one closure per rank, exactly like `mpiexec`
//! launches one process per core. Every rank runs as a cooperative task
//! over virtual time on the calling thread, which is what makes
//! 10k–100k rank worlds practical. [`ExecutorKind`] picks the schedule:
//! the canonical one (`Event`, the default) or a seeded exploration of
//! other legal schedules (`Explore(seed)`), the differential-testing
//! oracle. Ranks communicate through [`Ctx`]: point-to-point
//! sends/receives and (in `collective.rs`) MPI-style collectives.
//!
//! ## Virtual time
//!
//! Each rank carries a logical clock. There is one message kind: a send
//! stamps the envelope with the sender's clock (plus any injected
//! control delay) and the matching receive advances the receiver to
//! `max(receiver clock, departure)`. Messages carry causality only: the
//! cost of the bulk-data phases they coordinate is priced analytically
//! by the phase model. Wall-clock never enters, which is why every
//! schedule produces bit-identical times.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use mccio_sim::causal::{Bind, CausalSink, Frontier, Sent};
use mccio_sim::cost::CostModel;
use mccio_sim::sync::Mutex;
use mccio_sim::time::{VDuration, VTime};
use mccio_sim::topology::Placement;

use crate::executor::{self, TaskHandle};
use crate::mailbox::{Envelope, Pattern, Payload};

/// Which schedule the ranks of a [`World`] run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutorKind {
    /// The canonical schedule: the runnable task with the smallest
    /// virtual clock runs next, ties broken by `(rank, wake-seq)`.
    /// Practical to 100k ranks.
    Event,
    /// A seeded exploration of other legal schedules: any runnable task
    /// may run next, picked by `seed`, and every send is a preemption
    /// point. Results must equal [`ExecutorKind::Event`]'s bit for bit;
    /// a seed that disagrees has found a schedule-dependence bug.
    Explore(u64),
}

impl ExecutorKind {
    /// The fixed exploration seeds differential suites compare against
    /// the canonical schedule.
    pub const EXPLORED: [ExecutorKind; 8] = [
        ExecutorKind::Explore(1),
        ExecutorKind::Explore(2),
        ExecutorKind::Explore(3),
        ExecutorKind::Explore(4),
        ExecutorKind::Explore(5),
        ExecutorKind::Explore(6),
        ExecutorKind::Explore(7),
        ExecutorKind::Explore(8),
    ];
}

/// Aggregate traffic counters, updated on every send.
#[derive(Debug)]
pub struct Traffic {
    /// Shuffled bytes between ranks on the same node (see `data_msgs`).
    pub intra_bytes: AtomicU64,
    /// Shuffled bytes between ranks on different nodes.
    pub inter_bytes: AtomicU64,
    /// Exchange messages, each standing for the shuffled data it
    /// describes (see [`Ctx::exchange`]).
    pub data_msgs: AtomicU64,
    /// Every message sent (metadata, barriers, clock sync, exchanges).
    pub ctl_msgs: AtomicU64,
    /// Per-node NIC counters, allocated on the first inter-node byte so
    /// worlds that exchange no data never pay O(nodes) memory.
    node_flows: OnceLock<NodeFlows>,
    n_nodes: usize,
}

#[derive(Debug)]
struct NodeFlows {
    ingress: Box<[AtomicU64]>,
    egress: Box<[AtomicU64]>,
}

impl NodeFlows {
    fn new(n_nodes: usize) -> NodeFlows {
        NodeFlows {
            ingress: (0..n_nodes).map(|_| AtomicU64::new(0)).collect(),
            egress: (0..n_nodes).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// A point-in-time copy of [`Traffic`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficSnapshot {
    /// Bytes moved intra-node.
    pub intra_bytes: u64,
    /// Bytes moved inter-node.
    pub inter_bytes: u64,
    /// Exchange messages standing for shuffled data.
    pub data_msgs: u64,
    /// Every message sent.
    pub ctl_msgs: u64,
    /// Per-node ingress bytes.
    pub node_ingress: Vec<u64>,
    /// Per-node egress bytes.
    pub node_egress: Vec<u64>,
}

impl Traffic {
    fn new(n_nodes: usize) -> Self {
        Traffic {
            intra_bytes: AtomicU64::new(0),
            inter_bytes: AtomicU64::new(0),
            data_msgs: AtomicU64::new(0),
            ctl_msgs: AtomicU64::new(0),
            node_flows: OnceLock::new(),
            n_nodes,
        }
    }

    /// Counts one exchange message standing for `bytes` of shuffled
    /// data from `src_node` to `dst_node`, maintaining the per-node NIC
    /// counters for the inter-node case.
    pub(crate) fn account_data(&self, src_node: usize, dst_node: usize, bytes: u64) {
        self.data_msgs.fetch_add(1, Ordering::Relaxed);
        if src_node == dst_node {
            self.intra_bytes.fetch_add(bytes, Ordering::Relaxed);
        } else {
            self.inter_bytes.fetch_add(bytes, Ordering::Relaxed);
            let flows = self.node_flows.get_or_init(|| NodeFlows::new(self.n_nodes));
            flows.egress[src_node].fetch_add(bytes, Ordering::Relaxed);
            flows.ingress[dst_node].fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Copies the counters.
    #[must_use]
    pub fn snapshot(&self) -> TrafficSnapshot {
        let load = |v: &[AtomicU64]| v.iter().map(|a| a.load(Ordering::Relaxed)).collect();
        let (node_ingress, node_egress) = match self.node_flows.get() {
            Some(flows) => (load(&flows.ingress), load(&flows.egress)),
            None => (vec![0; self.n_nodes], vec![0; self.n_nodes]),
        };
        TrafficSnapshot {
            intra_bytes: self.intra_bytes.load(Ordering::Relaxed),
            inter_bytes: self.inter_bytes.load(Ordering::Relaxed),
            data_msgs: self.data_msgs.load(Ordering::Relaxed),
            ctl_msgs: self.ctl_msgs.load(Ordering::Relaxed),
            node_ingress,
            node_egress,
        }
    }
}

/// How many decoded-payload entries a world retains. Collective I/O
/// keeps at most a couple of broadcast buffers live per operation, so a
/// small ring is ample; the cap only bounds memory if a caller streams
/// many distinct broadcasts through one world.
const DECODE_CACHE_CAP: usize = 16;

/// Per-world cache of values decoded from shared broadcast buffers,
/// keyed by buffer *identity* (`Arc::ptr_eq`) and, on an identity miss,
/// by buffer *content*. Every receiver of a broadcast holds a clone of
/// the same allocation, so the first rank to decode it does the work
/// once and the other `n - 1` ranks reuse the result — turning per-rank
/// O(ranks) decode CPU into per-world O(ranks); a later broadcast of
/// equal bytes re-keys the entry and decodes nothing (see
/// [`World::decode_shared`]). Entries keep the keyed `Arc` alive, which
/// is what makes pointer comparison sound: a live key can never be a
/// recycled allocation.
#[derive(Default)]
struct DecodeCache {
    entries: Mutex<Vec<DecodeEntry>>,
}

/// One cached decode: the shared packed buffer (the identity key) and
/// the type-erased decoded value.
type DecodeEntry = (Arc<[u8]>, Arc<dyn Any + Send + Sync>);

impl std::fmt::Debug for DecodeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecodeCache")
            .field("entries", &self.entries.lock().len())
            .finish()
    }
}

/// Pins glibc's dynamic malloc thresholds at their maxima, once per
/// process: the 32 MiB mmap threshold and twice that for trimming, the
/// values glibc's own adaptive rule ends at, and 64 MiB of top padding.
///
/// Some buffers leave the engine and are freed by their owner: a read's
/// output, a workload's payload. Under glibc's default, adaptive
/// thresholds, buffers of a few hundred KiB freed that way can go back
/// to the kernel, and the next operation faults every page in again:
/// 14,849 minor faults a pass on perfbench `ior-120-2ph` with two
/// workers (2-vCPU host, glibc 2.36), whose one-sided shuffle keeps no
/// parked buffers to hold the heap in place. Fixed thresholds keep such
/// buffers inside malloc's heap, committed for the next operation.
///
/// The padding does the same for the heaps of a thread's own arena,
/// which glibc unmaps whenever one empties, whatever the trim threshold:
/// perfbench's workers run on such threads. Whether a heap empties at
/// the end of a pass depends on where a pass's long-lived allocations
/// happen to land (the coroutine stack slab, once a heap allocation,
/// held one in place), so without it a small change of allocation
/// order cost `collperf-120-mc` 11,588 minor faults a pass.
fn keep_freed_buffers_mapped() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_TOP_PAD: i32 = -2;
        const M_MMAP_THRESHOLD: i32 = -3;
        static ONCE: std::sync::Once = std::sync::Once::new();
        // SAFETY: plain setters of allocator tunables; glibc serialises
        // them against concurrent allocation.
        ONCE.call_once(|| unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
            mallopt(M_TRIM_THRESHOLD, 64 << 20);
            mallopt(M_TOP_PAD, 64 << 20);
        });
    }
}

/// Cumulative counters of the world's byte-buffer recycler; see
/// [`World::recycler`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecycleStats {
    /// Takes served from a retired buffer: always zero.
    pub hits: u64,
    /// Takes that had to allocate: always zero.
    pub misses: u64,
}

/// What is left of the world's byte-buffer recycler: counters that
/// read zero. Shuffle header messages, the last buffers it served, are
/// slices of each schedule's encoding, so nothing is taken or retired;
/// it stays so that code reading it after a run, such as the
/// `perfbench` package, still builds.
#[derive(Debug, Default)]
pub struct BytePool;

impl BytePool {
    /// Cumulative counters: all zero.
    #[must_use]
    pub fn stats(&self) -> RecycleStats {
        RecycleStats::default()
    }
}

/// The shared communication world: the placement ranks run on and the
/// cost model their drivers price phases with, plus the traffic
/// counters, decode cache and exposure table its runs share
/// (`DESIGN.md` §13 shows why none of them lets results depend on the
/// rank schedule). Ranks configure nothing here: message queues, the
/// control-plane delay, the causal hook and the causal frontier are
/// per-task state that lives for one run (see [`crate::mailbox`],
/// [`Ctx::set_control_delay`], [`Ctx::set_causal_hook`]), so no rank
/// can change what another rank's messages see.
#[derive(Debug)]
pub struct World {
    placement: Placement,
    cost: CostModel,
    traffic: Traffic,
    executor: ExecutorKind,
    decode_cache: DecodeCache,
    /// Each rank's one-sided exposure slot (see [`crate::rma`]).
    exposures: crate::rma::ExposureTable,
    /// The full-world rank set, built once and shared: per-op
    /// `RankSet::world(n)` calls are an O(ranks) allocation per rank
    /// that dominated collective prologues at 10k+ ranks.
    world_set: std::sync::OnceLock<Arc<crate::group::RankSet>>,
}

impl World {
    /// Builds a world for `placement` priced by `cost`, run on the
    /// canonical schedule.
    #[must_use]
    pub fn new(cost: CostModel, placement: Placement) -> Arc<World> {
        World::with_executor(cost, placement, ExecutorKind::Event)
    }

    /// Builds a world run on a specific schedule — differential tests
    /// pin the canonical one and explored ones this way.
    #[must_use]
    pub fn with_executor(
        cost: CostModel,
        placement: Placement,
        executor: ExecutorKind,
    ) -> Arc<World> {
        let n_ranks = placement.n_ranks();
        let n_nodes = placement.n_nodes();
        keep_freed_buffers_mapped();
        Arc::new(World {
            placement,
            cost,
            traffic: Traffic::new(n_nodes),
            executor,
            decode_cache: DecodeCache::default(),
            exposures: crate::rma::ExposureTable::new(n_ranks),
            world_set: std::sync::OnceLock::new(),
        })
    }

    /// Decodes a shared broadcast buffer once per world, and a later
    /// broadcast of the same bytes not at all while its entry is cached.
    ///
    /// Lookup runs in two steps:
    ///
    /// * **Identity.** A caller holding a clone of a cached `Arc` hits
    ///   in O(1) (`Arc::ptr_eq`) — the other `n - 1` members of one
    ///   broadcast.
    /// * **Content.** On an identity miss, a live entry of the same type
    ///   whose bytes are equal (length first, then memcmp) and whose
    ///   value `reuse` accepts is re-keyed to `packed` — so the rest of
    ///   this broadcast's members take the identity hit — and returned.
    ///   The old buffer is dropped. A repeated collective over an
    ///   unchanged access (the next timestep, or the read after a write)
    ///   thus hands out the *same* `Arc<T>` it did last time, and caches
    ///   keyed on that `Arc`'s identity downstream hit as well.
    ///
    /// `decode` must be pure (same bytes, same value) — true of every
    /// wire decoder — or caching would change behaviour. A value that
    /// depends on more than the bytes (a gathered pattern also carries
    /// the group it was gathered over) must say so through `reuse`, which
    /// is asked before a content hit is taken; a value that is a pure
    /// function of its bytes passes `|_| true`. Each buffer must always
    /// be decoded to one type, or hits degrade to misses.
    pub fn decode_shared<T: Send + Sync + 'static>(
        &self,
        packed: &Arc<[u8]>,
        reuse: impl Fn(&T) -> bool,
        decode: impl FnOnce(&[u8]) -> T,
    ) -> Arc<T> {
        let mut entries = self.decode_cache.entries.lock();
        if let Some((_, v)) = entries.iter().find(|(k, _)| Arc::ptr_eq(k, packed)) {
            if let Ok(hit) = Arc::clone(v).downcast::<T>() {
                return hit;
            }
        }
        let same_content = entries.iter().position(|(k, v)| {
            k.len() == packed.len() && v.downcast_ref::<T>().is_some_and(&reuse) && **k == **packed
        });
        if let Some(i) = same_content {
            let entry = &mut entries[i];
            entry.0 = Arc::clone(packed);
            return Arc::clone(&entry.1)
                .downcast::<T>()
                .expect("content hit checked the type");
        }
        let value = Arc::new(decode(packed));
        if entries.len() == DECODE_CACHE_CAP {
            entries.remove(0);
        }
        entries.push((
            Arc::clone(packed),
            Arc::clone(&value) as Arc<dyn Any + Send + Sync>,
        ));
        value
    }

    /// Number of ranks.
    #[must_use]
    pub fn n_ranks(&self) -> usize {
        self.placement.n_ranks()
    }

    /// The placement ranks were launched with.
    #[must_use]
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The cost model this world's drivers price phases with.
    #[must_use]
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Traffic counters (live; use [`Traffic::snapshot`]).
    #[must_use]
    pub fn traffic(&self) -> &Traffic {
        &self.traffic
    }

    /// The world-level byte-buffer recycler, which holds nothing and
    /// counts zero (see [`BytePool`]).
    #[must_use]
    pub fn recycler(&self) -> &BytePool {
        &BytePool
    }

    pub(crate) fn exposures(&self) -> &crate::rma::ExposureTable {
        &self.exposures
    }

    /// The rank set containing every rank, built once per world and
    /// shared — callers that need "all ranks" should clone this handle
    /// instead of materializing a fresh O(ranks) vector.
    #[must_use]
    pub fn rank_set(&self) -> &Arc<crate::group::RankSet> {
        self.world_set
            .get_or_init(|| Arc::new(crate::group::RankSet::world(self.n_ranks())))
    }

    /// Runs `f` once per rank as a cooperative task, on the schedule
    /// the world was built with, and returns the per-rank results in
    /// rank order. Virtual times, file hashes, and traffic are
    /// bit-identical across schedules.
    ///
    /// # Panics
    /// Propagates any rank's panic after the world has wound down, and
    /// panics if any rank still holds unmatched messages at exit (a
    /// protocol bug in the caller). Messages never outlive their run, so
    /// a world whose run panicked can be run again.
    pub fn run<F, R>(self: &Arc<Self>, f: F) -> Vec<R>
    where
        F: Fn(&mut Ctx) -> R + Send + Sync,
        R: Send,
    {
        let explore = match self.executor {
            ExecutorKind::Event => None,
            ExecutorKind::Explore(seed) => Some(seed),
        };
        executor::run_event(self, f, explore)
    }
}

/// A rank's handle to the world: identity, clock, and communication.
#[derive(Debug)]
pub struct Ctx {
    rank: usize,
    node: usize,
    world: Arc<World>,
    clock: VTime,
    /// The rank's handle into the scheduler: every send delivers
    /// through it, and blocking receives park on it.
    task: TaskHandle,
    /// Extra latency on this rank's sends.
    ctl_delay: VDuration,
    /// The causality observer this rank's settlements report to, if any.
    causal: Option<Arc<dyn CausalSink>>,
    /// This rank's blame-chain frontier under `causal`.
    frontier: Frontier,
}

impl Ctx {
    pub(crate) fn for_event_task(rank: usize, world: &Arc<World>, task: TaskHandle) -> Ctx {
        Ctx {
            rank,
            node: world.placement.node_of(rank),
            world: Arc::clone(world),
            clock: VTime::ZERO,
            task,
            ctl_delay: VDuration::ZERO,
            causal: None,
            frontier: Frontier::default(),
        }
    }

    /// Sets the delay this rank's subsequent [`Ctx::send_ctl`] calls add
    /// to their departure stamps (fault modelling: a slow management
    /// network). Zero at the start of every run; it never affects the
    /// messages this rank receives.
    pub fn set_control_delay(&mut self, delay: VDuration) {
        self.ctl_delay = delay;
    }

    /// Sets (or clears) the message-causality observer this rank stamps
    /// its subsequent sends for and reports its settlements to (see
    /// [`mccio_sim::causal`]). Unset at the start of every run. Re-arming
    /// the same sink keeps this rank's frontier, so a chain runs on
    /// across the ops of one run; another sink, or none, starts a fresh
    /// one. A message is reported only when both ends run with a hook:
    /// the sender stamps it, the receiver settles it through its own, so
    /// SPMD ranks set the same hook at the same program point.
    pub fn set_causal_hook(&mut self, hook: Option<Arc<dyn CausalSink>>) {
        let same = match (&self.causal, &hook) {
            (Some(old), Some(new)) => std::ptr::addr_eq(Arc::as_ptr(old), Arc::as_ptr(new)),
            _ => false,
        };
        if !same {
            self.frontier = Frontier::default();
        }
        self.causal = hook;
    }

    /// The bind that last moved this rank's clock under its causal hook:
    /// where the blame chain of an op this rank closes starts.
    #[must_use]
    pub fn causal_head(&self) -> Option<&Bind> {
        self.frontier.head()
    }

    /// This rank's id, `0..size`.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of ranks.
    #[must_use]
    pub fn size(&self) -> usize {
        self.world.n_ranks()
    }

    /// The node hosting this rank.
    #[must_use]
    pub fn node(&self) -> usize {
        self.node
    }

    /// The world-wide placement.
    #[must_use]
    pub fn placement(&self) -> &Placement {
        self.world.placement()
    }

    /// The cost model.
    #[must_use]
    pub fn cost(&self) -> &CostModel {
        self.world.cost()
    }

    /// The shared world (for handing to helpers).
    #[must_use]
    pub fn world(&self) -> &Arc<World> {
        &self.world
    }

    /// The shared full-world rank set (see [`World::rank_set`]).
    #[must_use]
    pub fn world_ranks(&self) -> Arc<crate::group::RankSet> {
        Arc::clone(self.world.rank_set())
    }

    /// Current virtual time at this rank.
    #[must_use]
    pub fn clock(&self) -> VTime {
        self.clock
    }

    /// Advances the local clock by `d` (local compute, buffer packing,
    /// waiting for I/O).
    pub fn advance(&mut self, d: VDuration) {
        self.clock += d;
    }

    /// Charges the time to stream `bytes` through this node's DRAM once
    /// (memcpy-style local work), under memory-pressure `factor`.
    pub fn charge_local_copy(&mut self, bytes: u64, factor: f64) {
        let d = self.world.cost().local_copy(self.node, bytes, factor);
        self.clock += d;
    }

    /// Delivers `env` to `dst` — handed to `dst` if it is parked on
    /// this pair, queued otherwise — then gives the scheduler its
    /// preemption point.
    fn deliver(&self, dst: usize, env: Envelope) {
        self.task.deliver(dst, env);
        self.task.preempt(self.clock);
    }

    /// Sends a message: causality only, no transfer cost (the bulk-data
    /// phases it coordinates are priced analytically).
    pub fn send_ctl(&mut self, dst: usize, tag: u32, payload: Vec<u8>) {
        let wire = payload.len() as u64;
        self.send_ctl_payload(dst, tag, payload.into(), wire);
    }

    /// Send of an owned *or shared* payload; collectives use the shared
    /// form so a broadcast queues one buffer, not one clone per
    /// destination. `wire` is the length the causal hook is told: the
    /// payload's own, except where a message stands for a longer one (a
    /// one-sided shuffle's headers, see [`Ctx::exchange`]).
    pub(crate) fn send_ctl_payload(&mut self, dst: usize, tag: u32, payload: Payload, wire: u64) {
        assert!(dst < self.size(), "send to rank {dst} of {}", self.size());
        self.world.traffic.ctl_msgs.fetch_add(1, Ordering::Relaxed);
        // An injected control-network delay shifts the departure stamp:
        // the receiver's causality rule (max with depart) then charges it
        // in virtual time without any wall-clock sleeping.
        let depart = self.clock + self.ctl_delay;
        let causal = self
            .causal
            .is_some()
            .then(|| self.frontier.send(self.rank, self.clock, wire));
        self.deliver(
            dst,
            Envelope {
                src: self.rank,
                tag,
                payload,
                depart,
                causal,
            },
        );
    }

    fn settle(&mut self, depart: VTime, sent: Option<Arc<Sent>>) {
        let before = self.clock;
        self.clock = self.clock.max(depart);
        if let Some(sent) = sent {
            self.settle_causal(sent, before);
        }
    }

    /// The causal half of [`Ctx::settle`], outlined to keep its frame
    /// off the receive path: inlined, it deepened `scale ci`'s deepest
    /// park from 3,616 to 3,712 B.
    #[inline(never)]
    fn settle_causal(&mut self, sent: Arc<Sent>, before: VTime) {
        if let Some(sink) = &self.causal {
            self.frontier
                .settle(&**sink, sent, self.rank, before, self.clock);
        }
    }

    /// Blocks for a message from `src` with `tag`; returns the payload.
    pub fn recv(&mut self, src: usize, tag: u32) -> Vec<u8> {
        self.recv_payload(src, tag).into_vec()
    }

    /// Like [`Ctx::recv`] but returns the payload as it was sent.
    pub(crate) fn recv_payload(&mut self, src: usize, tag: u32) -> Payload {
        let env = self.task.recv(Pattern { src, tag }, self.clock);
        self.settle(env.depart, env.causal);
        env.payload
    }

    /// Like [`Ctx::recv`] but keeps the payload shared: at a broadcast
    /// every receiver gets a clone of the *same* `Arc`, so the buffer is
    /// never copied and its identity can key per-world decode caches.
    /// Clock and traffic behave exactly like [`Ctx::recv`].
    pub(crate) fn recv_shared(&mut self, src: usize, tag: u32) -> Arc<[u8]> {
        self.recv_payload(src, tag).into_shared()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccio_sim::topology::{test_cluster, FillOrder};
    use mccio_sim::units::MIB;

    fn world_with(nodes: usize, cores: usize, ranks: usize, kind: ExecutorKind) -> Arc<World> {
        let cluster = test_cluster(nodes, cores);
        let placement = Placement::new(&cluster, ranks, FillOrder::Block).unwrap();
        World::with_executor(CostModel::new(cluster), placement, kind)
    }

    fn world(nodes: usize, cores: usize, ranks: usize) -> Arc<World> {
        world_with(nodes, cores, ranks, ExecutorKind::Event)
    }

    /// The canonical schedule followed by every explored one.
    fn all_kinds() -> impl Iterator<Item = ExecutorKind> {
        std::iter::once(ExecutorKind::Event).chain(ExecutorKind::EXPLORED)
    }

    #[test]
    fn explored_schedules_agree_bit_for_bit() {
        let run = |kind| {
            let w = world_with(2, 2, 4, kind);
            let clocks = w.run(|ctx| {
                let me = ctx.rank();
                ctx.advance(VDuration::from_secs(me as f64 * 0.125));
                let next = (me + 1) % ctx.size();
                let prev = (me + ctx.size() - 1) % ctx.size();
                ctx.send_ctl(next, 5, vec![me as u8; 256 * (me + 1)]);
                let got = ctx.recv(prev, 5);
                assert_eq!(got.len(), 256 * (prev + 1));
                ctx.barrier();
                ctx.clock().as_secs().to_bits()
            });
            (clocks, w.traffic().snapshot())
        };
        let canonical = run(ExecutorKind::Event);
        for kind in ExecutorKind::EXPLORED {
            let (clocks, snap) = run(kind);
            assert_eq!(
                clocks, canonical.0,
                "{kind:?}: virtual clocks must match bit-for-bit"
            );
            assert_eq!(snap, canonical.1, "{kind:?}: traffic must match exactly");
        }
    }

    #[test]
    fn exploration_catches_a_schedule_dependent_program() {
        // A deliberately racy program: rank 1 stores into a cell every
        // rank shares after its receive, and the later receivers advance
        // their clocks by what they read there — so their clocks depend
        // on whether rank 1 ran before them. The canonical schedule wakes
        // the receivers in rank order, so rank 1 always stores first;
        // exploration must find a schedule where it does not.
        let n = 6;
        let run = |kind| {
            let w = world_with(1, n, n, kind);
            let shared = Arc::new(AtomicU64::new(0));
            w.run(|ctx| {
                match ctx.rank() {
                    0 => (1..n).for_each(|dst| ctx.send_ctl(dst, 3, vec![])),
                    1 => {
                        let _ = ctx.recv(0, 3);
                        shared.store(1.0_f64.to_bits(), Ordering::Relaxed);
                    }
                    _ => {
                        let _ = ctx.recv(0, 3);
                        let d = f64::from_bits(shared.load(Ordering::Relaxed));
                        ctx.advance(VDuration::from_secs(d));
                    }
                }
                ctx.clock().as_secs()
            })
        };
        let canonical = run(ExecutorKind::Event);
        assert_eq!(
            canonical,
            [0.0, 0.0, 1.0, 1.0, 1.0, 1.0],
            "the canonical schedule runs rank 1 before the later receivers"
        );
        assert!(
            ExecutorKind::EXPLORED
                .into_iter()
                .any(|kind| run(kind) != canonical),
            "no explored schedule ran a receiver before rank 1's store"
        );
    }

    /// Records every delivery it is told of as `(src, seq, bound)`.
    #[derive(Debug, Default)]
    struct Deliveries(Mutex<Vec<(u32, u64, bool)>>);

    impl CausalSink for Deliveries {
        fn on_delivery(&self, sent: &Sent, _dst: usize, _arrive: VTime, bound: bool) {
            self.0.lock().push((sent.src, sent.seq, bound));
        }
    }

    #[test]
    fn a_rank_keeps_its_frontier_only_while_the_same_sink_is_armed() {
        let (a, b) = (Arc::<Deliveries>::default(), Arc::<Deliveries>::default());
        let heads = world(1, 2, 2).run(|ctx| {
            let mut heads = Vec::new();
            // Rank 0's late sends bind rank 1's clock; the second is slack.
            for (sink, late) in [
                (Some(&a), 1.0),
                (Some(&a), 0.0),
                (Some(&b), 1.0),
                (None, 1.0),
            ] {
                ctx.set_causal_hook(sink.map(|s| Arc::clone(s) as Arc<dyn CausalSink>));
                heads.push(ctx.causal_head().is_some());
                if ctx.rank() == 0 {
                    ctx.advance(VDuration::from_secs(late));
                    ctx.send_ctl(1, 3, Vec::new());
                } else {
                    let _ = ctx.recv(0, 3);
                }
                heads.push(ctx.causal_head().is_some());
            }
            heads
        });
        let kept = [false, true, true, true, false, true, false, false];
        assert_eq!(
            heads[1], kept,
            "another sink or none starts a fresh frontier"
        );
        assert_eq!(*a.0.lock(), [(0, 1, true), (0, 2, false)]);
        assert_eq!(
            *b.0.lock(),
            [(0, 1, true)],
            "a fresh frontier numbers from 1"
        );
    }

    #[test]
    fn control_messages_carry_causality_without_cost() {
        for kind in all_kinds() {
            let w = world_with(2, 1, 2, kind);
            let results = w.run(|ctx| {
                if ctx.rank() == 0 {
                    ctx.advance(VDuration::from_secs(5.0));
                    ctx.send_ctl(1, 9, vec![]);
                    ctx.clock().as_secs()
                } else {
                    let _ = ctx.recv(0, 9);
                    ctx.clock().as_secs()
                }
            });
            // Receiver is pulled forward to the sender's clock, exactly.
            assert_eq!(results[1], 5.0);
            assert_eq!(w.traffic().snapshot().ctl_msgs, 1);
            assert_eq!(w.traffic().snapshot().inter_bytes, 0);
        }
    }

    #[test]
    fn injected_ctl_delay_shifts_causality() {
        for kind in all_kinds() {
            let w = world_with(2, 1, 2, kind);
            let results = w.run(|ctx| {
                if ctx.rank() == 0 {
                    ctx.set_control_delay(VDuration::from_secs(0.25));
                    ctx.advance(VDuration::from_secs(1.0));
                    ctx.send_ctl(1, 9, vec![]);
                } else {
                    // The receiver's own delay prices only its own sends.
                    ctx.set_control_delay(VDuration::from_secs(4.0));
                    let _ = ctx.recv(0, 9);
                }
                ctx.clock().as_secs()
            });
            assert_eq!(
                results[1], 1.25,
                "{kind:?}: receiver pays the sender's delay"
            );
            assert_eq!(results[0], 1.0, "{kind:?}: sender does not");
        }
    }

    #[test]
    fn results_are_in_rank_order() {
        for kind in all_kinds() {
            let w = world_with(2, 4, 8, kind);
            let results = w.run(|ctx| ctx.rank() * 10);
            assert_eq!(results, (0..8).map(|r| r * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn local_copy_charges_dram_time() {
        let w = world(1, 1, 1);
        let r = w.run(|ctx| {
            ctx.charge_local_copy(10 * MIB, 1.0);
            let healthy = ctx.clock().as_secs();
            ctx.charge_local_copy(10 * MIB, 4.0);
            (healthy, ctx.clock().as_secs() - healthy)
        });
        let (healthy, thrashed) = r[0];
        assert!((thrashed / healthy - 4.0).abs() < 1e-9);
    }

    #[test]
    fn event_scheduler_breaks_clock_ties_by_rank_order() {
        // Satellite: same virtual clock => wake order is (rank, seq).
        // Ranks 1..4 park at clock zero; the root's release fan-out
        // makes them all runnable at once. Their post-recv side effects
        // must interleave in rank order, reproducibly.
        let w = world_with(1, 4, 4, ExecutorKind::Event);
        let log = std::sync::Mutex::new(Vec::new());
        let _ = w.run(|ctx| {
            let me = ctx.rank();
            if me == 0 {
                for src in 1..4 {
                    let _ = ctx.recv(src, 1);
                }
                for dst in 1..4 {
                    ctx.send_ctl(dst, 2, vec![]);
                }
            } else {
                ctx.send_ctl(0, 1, vec![]);
                let _ = ctx.recv(0, 2);
                log.lock().unwrap().push(me);
            }
        });
        assert_eq!(*log.lock().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn event_scheduler_runs_smallest_clock_first() {
        // Ranks park with distinct clocks (rank r waits at n - r
        // seconds); when the root releases everyone at once, the
        // scheduler must resume them smallest clock first.
        let n = 4;
        let w = world_with(1, n, n, ExecutorKind::Event);
        let log = std::sync::Mutex::new(Vec::new());
        let _ = w.run(|ctx| {
            let me = ctx.rank();
            if me == 0 {
                for src in 1..n {
                    let _ = ctx.recv(src, 1);
                }
                for dst in 1..n {
                    ctx.send_ctl(dst, 2, vec![]);
                }
            } else {
                ctx.advance(VDuration::from_secs((n - me) as f64));
                ctx.send_ctl(0, 1, vec![]);
                let _ = ctx.recv(0, 2);
                log.lock().unwrap().push(me);
            }
        });
        assert_eq!(
            *log.lock().unwrap(),
            vec![3, 2, 1],
            "rank 3 parked at the smallest clock and must wake first"
        );
    }

    #[test]
    fn event_panic_propagates_with_its_message() {
        let msg = panic_message(ExecutorKind::Event, |ctx| {
            if ctx.rank() == 1 {
                panic!("rank 1 exploded");
            }
        });
        assert!(msg.contains("rank 1 exploded"), "got panic: {msg}");
    }

    /// Runs `f` on a fresh world of `kind` and returns its panic message.
    fn panic_message<F>(kind: ExecutorKind, f: F) -> String
    where
        F: Fn(&mut Ctx) + Send + Sync,
    {
        let w = world_with(1, 2, 2, kind);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| w.run(f)))
            .expect_err("the run must panic");
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn event_leaked_message_is_detected() {
        for kind in all_kinds() {
            let msg = panic_message(kind, |ctx| {
                if ctx.rank() == 0 {
                    ctx.send_ctl(1, 99, vec![1]);
                }
                // rank 1 never receives.
            });
            assert!(
                msg.contains("rank 1 exited with unmatched messages"),
                "{kind:?}: got panic: {msg}"
            );
        }
    }

    #[test]
    fn event_executor_deadlock_is_diagnosed() {
        for kind in all_kinds() {
            // Everyone waits for a message nobody sends.
            let msg = panic_message(kind, |ctx| {
                let _ = ctx.recv((ctx.rank() + 1) % 2, 123);
            });
            assert!(msg.contains("deadlock"), "{kind:?}: got panic: {msg}");
            assert!(
                msg.contains("rank 0 waiting on (src 1, tag 0x7b)")
                    && msg.contains("rank 1 waiting on (src 0, tag 0x7b)"),
                "{kind:?}: names the stuck ranks: {msg}"
            );
        }
    }

    #[test]
    fn a_world_reused_after_a_caught_panic_delivers_only_fresh_messages() {
        for kind in all_kinds() {
            let w = world_with(1, 2, 2, kind);
            let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                w.run(|ctx| {
                    if ctx.rank() == 0 {
                        ctx.send_ctl(1, 5, vec![1]);
                    } else {
                        panic!("rank 1 dies before receiving");
                    }
                })
            }));
            assert!(crashed.is_err());
            let got = w.run(|ctx| {
                if ctx.rank() == 0 {
                    ctx.send_ctl(1, 5, vec![2]);
                    Vec::new()
                } else {
                    ctx.recv(0, 5)
                }
            });
            assert_eq!(got[1], [2], "{kind:?}: the dead run's message leaked");
        }
    }

    /// Rank 1 tells rank 0 it is about to park, then parks on `(0, 1)`;
    /// rank 0 waits for that before sending. On the canonical schedule
    /// rank 1 is therefore parked when rank 0's sends arrive.
    fn handshake_then(ctx: &mut Ctx, root: impl FnOnce(&mut Ctx), leaf: impl FnOnce(&mut Ctx)) {
        if ctx.rank() == 0 {
            let _ = ctx.recv(1, 0);
            root(ctx);
        } else {
            ctx.send_ctl(0, 0, vec![]);
            leaf(ctx);
        }
    }

    #[test]
    fn a_send_to_a_task_parked_on_another_pair_is_queued() {
        for kind in all_kinds() {
            let w = world_with(1, 2, 2, kind);
            let got = w.run(|ctx| {
                let mut got = Vec::new();
                handshake_then(
                    ctx,
                    |ctx| {
                        ctx.send_ctl(1, 2, vec![b'q']); // unexpected: rank 1 waits on tag 1
                        ctx.send_ctl(1, 1, vec![b'h']); // handed over
                    },
                    |ctx| {
                        got.extend(ctx.recv(0, 1));
                        got.extend(ctx.recv(0, 2));
                    },
                );
                got
            });
            assert_eq!(got[1], b"hq", "{kind:?}");
        }
    }

    #[test]
    fn same_pair_sends_to_a_parked_task_keep_their_order() {
        for kind in all_kinds() {
            let w = world_with(1, 2, 2, kind);
            let got = w.run(|ctx| {
                let mut got = Vec::new();
                handshake_then(
                    ctx,
                    |ctx| {
                        // The first is handed to the parked receiver, the
                        // second queues behind it.
                        for b in 1..=3 {
                            ctx.send_ctl(1, 1, vec![b]);
                        }
                    },
                    |ctx| {
                        for _ in 0..3 {
                            got.extend(ctx.recv(0, 1));
                        }
                    },
                );
                got
            });
            assert_eq!(got[1], [1, 2, 3], "{kind:?}");
        }
    }

    #[test]
    fn event_executor_handles_thousands_of_ranks() {
        // A 2000-rank world on OS threads would need gigabytes of
        // committed stacks; as tasks it is a quick smoke.
        let n = 2000;
        let w = world_with(20, 100, n, ExecutorKind::Event);
        let clocks = w.run(|ctx| {
            ctx.advance(VDuration::from_secs(ctx.rank() as f64 * 1e-6));
            ctx.barrier();
            ctx.clock().as_secs()
        });
        let expect = (n - 1) as f64 * 1e-6;
        for c in clocks {
            assert_eq!(c, expect, "barrier syncs every clock to the max");
        }
    }
}
