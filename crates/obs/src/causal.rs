//! Message-level happens-before tracing: cross-rank blame chains.
//!
//! The round spans say which phase an op's time went to — "shuffle
//! dominated" — but not *which* rank's send actually blocked *which*
//! aggregator. This module follows real message causality: the network
//! engine reports every send and every delivery settlement through the
//! [`CausalSink`] hook, and an online longest-path DP folds them into a
//! **per-rank frontier** at record time.
//!
//! ## The online DP
//!
//! Each rank's frontier holds the start of its currently-open local
//! "work" segment plus an `Arc` link to the chain node that last bound
//! its clock. On `on_send` the sender's open segment and chain head are
//! snapshotted into an in-flight table keyed `(src, per-sender seq)` —
//! nothing is allocated beyond the table entry. On `on_delivery` the
//! snapshot is popped; only when the message **bound** the receiver's
//! clock (`after > before`) is one immutable `ChainNode` allocated:
//! sender-side work `[work_from, work_to]` plus the in-flight edge
//! `[work_to, after]`, linked to the sender's snapshotted chain. The
//! receiver's frontier then points at the new node and its open segment
//! restarts at `after`. An early message (no bind) allocates nothing.
//!
//! Memory is O(ranks + path): per-rank state is constant-size, the
//! in-flight table drains on receipt (the engine asserts every envelope
//! is received), and chain nodes are `Arc`-shared — after a settle
//! broadcast every rank's chain aliases the root's suffix, so the live
//! node set collapses to roughly one path. This makes the fold
//! compatible with [`crate::ObsSink::streaming`] at 100k ranks: in
//! streaming mode no per-edge record is retained at all.
//!
//! ## Determinism
//!
//! Sequence numbers are **per-sender** (a global counter would be
//! assigned in schedule order, which differs between the canonical and
//! every explored rank schedule). Every engine receive is source-ordered
//! (`recv(src, tag)`), so each rank settles its deliveries in program
//! order, and a chain node's predecessor comes from the *sender's*
//! snapshot — never from the receiver's schedule-dependent local
//! history. The frontier is therefore a pure function of virtual clocks
//! and program order, bit-identical across `ExecutorKind::Event` and
//! every `ExecutorKind::Explore(seed)` — the same canonical-order
//! argument as the streaming cells.
//!
//! ## Blame chains
//!
//! At each op end the engine calls [`CausalAgg::op_end`] with the op
//! window `[t0, end]`; walking the root frontier backwards and clamping
//! at `t0` materializes the [`BlameChain`]: the actual
//! rank → rank → storage sequence of segments whose joints are
//! **bit-equal** and whose total is the single subtraction `end - t0` —
//! bit-identical to `IoReport.elapsed` and the op span. The analyzer
//! cuts each chain at its op's phase windows into the op's
//! [`crate::analyze::CriticalPath`], whose what-if projections re-price
//! it.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mccio_sim::causal::CausalSink;
use mccio_sim::hostprof::{self, HostPhase};
use mccio_sim::time::{VDuration, VTime};

/// What a blame-chain segment's virtual time was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegClass {
    /// Local work on one rank (compute, storage driving, local copies —
    /// everything between two clock bindings).
    Work,
    /// In-flight time of a message that bound the receiver's clock
    /// (barrier/settle causality, injected control delay).
    SyncWait,
}

impl SegClass {
    /// Stable lowercase display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SegClass::Work => "work",
            SegClass::SyncWait => "sync-wait",
        }
    }
}

/// One contiguous slice of a blame chain, on one rank's timeline.
/// Segments carry absolute virtual endpoints so tiling can be asserted
/// to the bit: each segment's `to` is bit-equal to its successor's
/// `from`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlameSegment {
    /// The rank whose timeline this slice lies on (for
    /// [`SegClass::SyncWait`] edges: the *receiving* rank).
    pub rank: u32,
    /// What the time was spent on.
    pub class: SegClass,
    /// Absolute virtual start.
    pub from: VTime,
    /// Absolute virtual end.
    pub to: VTime,
}

impl BlameSegment {
    /// The slice's virtual duration.
    #[must_use]
    pub fn dur(&self) -> VDuration {
        self.to - self.from
    }
}

/// The actual cross-rank critical path of one collective operation: the
/// rank → rank → storage sequence of segments tiling `[start, end]`.
#[derive(Debug, Clone, PartialEq)]
pub struct BlameChain {
    /// `"write"` or `"read"`.
    pub dir: &'static str,
    /// The op's virtual start (`t0`).
    pub start: VTime,
    /// The op's virtual end (the root clock when the op span closed).
    pub end: VTime,
    /// The path in virtual-time order; joints are bit-equal and
    /// zero-length slices are elided.
    pub segments: Vec<BlameSegment>,
}

impl BlameChain {
    /// Total chain duration — the single subtraction `end - start`,
    /// bit-identical to the op span duration and `IoReport.elapsed`
    /// (never re-derived from a segment sum).
    #[must_use]
    pub fn total(&self) -> VDuration {
        self.end - self.start
    }

    /// Seconds the chain spent waiting on messages in flight
    /// ([`SegClass::SyncWait`]).
    #[must_use]
    pub fn wait_secs(&self) -> f64 {
        self.segments
            .iter()
            .filter(|s| s.class != SegClass::Work)
            .map(|s| s.dur().as_secs())
            .sum()
    }

    /// Seconds the chain spent in local work.
    #[must_use]
    pub fn work_secs(&self) -> f64 {
        self.segments
            .iter()
            .filter(|s| s.class == SegClass::Work)
            .map(|s| s.dur().as_secs())
            .sum()
    }

    /// Number of cross-rank hops (message edges) on the chain.
    #[must_use]
    pub fn hops(&self) -> usize {
        self.segments
            .iter()
            .filter(|s| s.class != SegClass::Work)
            .count()
    }

    /// Distinct ranks the chain visits, in first-visit order.
    #[must_use]
    pub fn ranks(&self) -> Vec<u32> {
        let mut seen = Vec::new();
        for s in &self.segments {
            if !seen.contains(&s.rank) {
                seen.push(s.rank);
            }
        }
        seen
    }

    /// Checks the bit-tiling invariant: the first segment starts at
    /// `start` to the bit, every joint is bit-equal, every segment has
    /// non-negative length, and the last segment ends at `end` to the
    /// bit.
    ///
    /// # Errors
    /// Describes the first violated joint.
    pub fn verify_tiling(&self) -> Result<(), String> {
        verify_joints(
            self.start,
            self.end,
            self.segments.iter().map(|s| (s.from, s.to)),
        )
    }
}

/// Checks that `(from, to)` slices tile `[start, end]`: the first starts
/// at `start`, each starts where the previous ended and the last ends
/// at `end`, all to the bit, and none has negative length.
pub(crate) fn verify_joints(
    start: VTime,
    end: VTime,
    slices: impl Iterator<Item = (VTime, VTime)>,
) -> Result<(), String> {
    let bits = |t: VTime| t.as_secs().to_bits();
    let mut cursor = start;
    for (i, (from, to)) in slices.enumerate() {
        if bits(from) != bits(cursor) {
            return Err(format!(
                "segment {i} starts at {} but the path stands at {} (joint not bit-equal)",
                from.as_secs(),
                cursor.as_secs()
            ));
        }
        if to.as_secs() < from.as_secs() {
            return Err(format!("segment {i} has negative length"));
        }
        cursor = to;
    }
    if bits(cursor) != bits(end) {
        return Err(format!(
            "segments end at {} but the op ends at {} (tail not bit-equal)",
            cursor.as_secs(),
            end.as_secs()
        ));
    }
    Ok(())
}

/// One recorded message edge, retained on buffered (non-streaming)
/// sinks for Chrome flow-event export. `(src, seq)` is the edge's
/// identity; the deterministic flow id is `src · 2³² + seq`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CausalEdge {
    /// Sending rank.
    pub src: u32,
    /// Receiving rank.
    pub dst: u32,
    /// Per-sender sequence number (≥ 1).
    pub seq: u64,
    /// Payload bytes.
    pub bytes: u64,
    /// Sender's clock at the send call.
    pub depart: VTime,
    /// Receiver's clock after the settle.
    pub arrive: VTime,
}

impl CausalEdge {
    /// The deterministic Chrome flow id: `src · 2³² + seq`.
    #[must_use]
    pub fn flow_id(&self) -> u64 {
        (u64::from(self.src) << 32) | self.seq
    }
}

/// One frozen link of a rank's happens-before chain: the sender-side
/// work segment `[work_from, work_to]` followed by the in-flight edge
/// `[work_to, arrive]` that bound the receiver's clock.
#[derive(Debug)]
struct ChainNode {
    /// The sender's chain before its work segment (`None` at simulation
    /// start).
    pred: Option<Arc<ChainNode>>,
    src: u32,
    dst: u32,
    work_from: VTime,
    work_to: VTime,
    arrive: VTime,
}

impl Drop for ChainNode {
    /// Iterative predecessor teardown: a chain can be hundreds of
    /// thousands of links long, so the default recursive drop would
    /// overflow the stack. Links still shared (another rank's frontier
    /// aliases the suffix) stop the walk.
    fn drop(&mut self) {
        let mut next = self.pred.take();
        while let Some(node) = next {
            match Arc::try_unwrap(node) {
                Ok(mut n) => next = n.pred.take(),
                Err(_) => break,
            }
        }
    }
}

/// One rank's DP frontier: the start of its open local-work segment and
/// the chain link that last bound its clock. `seg_start` and `head` are
/// always updated together, so `seg_start > 0 ⟹ head.is_some()`.
#[derive(Debug, Clone, Default)]
struct RankState {
    seg_start: VTime,
    head: Option<Arc<ChainNode>>,
    next_seq: u64,
}

/// The sender-side snapshot taken at `on_send`, consumed at
/// `on_delivery`.
#[derive(Debug)]
struct InFlight {
    head: Option<Arc<ChainNode>>,
    work_from: VTime,
    work_to: VTime,
    bytes: u64,
}

/// The online causal aggregate: implements the engine's
/// [`CausalSink`] hook and materializes [`BlameChain`]s at op ends.
/// See the module docs for the fold and its memory bound.
#[derive(Debug)]
pub struct CausalAgg {
    ranks: Mutex<HashMap<u32, RankState>>,
    inflight: Mutex<HashMap<(u32, u64), InFlight>>,
    chains: Mutex<Vec<BlameChain>>,
    /// Per-edge records for Chrome flow export; `None` in streaming
    /// mode, where causal memory must stay rank-independent.
    edges: Option<Mutex<Vec<CausalEdge>>>,
    /// Chain nodes allocated so far (cumulative, monotone).
    nodes_created: AtomicU64,
    /// Deliveries that arrived early and bound nothing.
    slack_deliveries: AtomicU64,
}

impl CausalAgg {
    /// Builds an aggregate; `retain_edges` keeps one [`CausalEdge`] per
    /// message for flow export (buffered sinks only — streaming sinks
    /// pass `false` to keep memory independent of message count).
    #[must_use]
    pub fn new(retain_edges: bool) -> CausalAgg {
        CausalAgg {
            ranks: Mutex::new(HashMap::new()),
            inflight: Mutex::new(HashMap::new()),
            chains: Mutex::new(Vec::new()),
            edges: retain_edges.then(|| Mutex::new(Vec::new())),
            nodes_created: AtomicU64::new(0),
            slack_deliveries: AtomicU64::new(0),
        }
    }

    /// Closes the op window `[t0, end]` observed at `root` (the rank
    /// that prices the op span): walks the root frontier backwards,
    /// clamps at `t0`, and records the resulting [`BlameChain`].
    pub fn op_end(&self, root: u32, t0: VTime, end: VTime, dir: &'static str) {
        let (seg_start, mut node) = {
            let ranks = self.ranks.lock().expect("causal ranks lock");
            match ranks.get(&root) {
                Some(st) => (st.seg_start, st.head.clone()),
                None => (VTime::ZERO, None),
            }
        };
        let clamp = |t: VTime| if t.as_secs() < t0.as_secs() { t0 } else { t };
        // Built back-to-front, reversed at the end. Zero-length slices
        // are elided; elision preserves bit-equal joints because a
        // zero-length slice's endpoints are the same bits.
        let mut rev: Vec<BlameSegment> = Vec::new();
        let mut push = |rank: u32, class: SegClass, from: VTime, to: VTime| {
            if from.as_secs().to_bits() != to.as_secs().to_bits() {
                rev.push(BlameSegment {
                    rank,
                    class,
                    from,
                    to,
                });
            }
        };
        let mut cursor = clamp(seg_start);
        push(root, SegClass::Work, cursor, end);
        while cursor.as_secs() > t0.as_secs() {
            let n = node
                .expect("causal chain must reach t0: clocks above zero only bind through messages");
            // The frontier stands exactly where the binding arrived:
            // `seg_start`/`work_from` are set to `arrive` at bind time.
            debug_assert_eq!(
                clamp(n.arrive).as_secs().to_bits(),
                cursor.as_secs().to_bits(),
                "chain walk must stand at the binding arrival"
            );
            let edge_from = clamp(n.work_to);
            push(n.dst, SegClass::SyncWait, edge_from, cursor);
            cursor = edge_from;
            if cursor.as_secs() > t0.as_secs() {
                let work_from = clamp(n.work_from);
                push(n.src, SegClass::Work, work_from, cursor);
                cursor = work_from;
            }
            node = n.pred.clone();
        }
        rev.reverse();
        let chain = BlameChain {
            dir,
            start: t0,
            end,
            segments: rev,
        };
        self.chains.lock().expect("causal chains lock").push(chain);
    }

    /// The blame chains recorded so far, in op order.
    #[must_use]
    pub fn chains(&self) -> Vec<BlameChain> {
        self.chains.lock().expect("causal chains lock").clone()
    }

    /// The retained message edges sorted by `(src, seq)` — a
    /// deterministic order regardless of wall-clock delivery
    /// interleaving. Empty in streaming mode.
    #[must_use]
    pub fn edges(&self) -> Vec<CausalEdge> {
        let Some(edges) = &self.edges else {
            return Vec::new();
        };
        let mut out = edges.lock().expect("causal edges lock").clone();
        out.sort_by_key(|e| (e.src, e.seq));
        out
    }

    /// Chain nodes allocated so far (cumulative).
    #[must_use]
    pub fn nodes_created(&self) -> u64 {
        self.nodes_created.load(Ordering::Relaxed)
    }

    /// Deliveries that arrived early and bound nothing.
    #[must_use]
    pub fn slack_deliveries(&self) -> u64 {
        self.slack_deliveries.load(Ordering::Relaxed)
    }

    /// Messages currently in flight (sent, not yet settled).
    #[must_use]
    pub fn inflight_len(&self) -> usize {
        self.inflight.lock().expect("causal inflight lock").len()
    }

    /// Chain nodes currently reachable from any rank frontier or
    /// in-flight snapshot — the DP's live memory, O(ranks + path) by
    /// construction. Counted by pointer identity (shared suffixes count
    /// once); O(live) walk, for tests and memory gates, not hot paths.
    #[must_use]
    pub fn live_nodes(&self) -> usize {
        let mut seen: HashSet<*const ChainNode> = HashSet::new();
        let mut walk = |mut head: Option<&Arc<ChainNode>>| {
            while let Some(n) = head {
                if !seen.insert(Arc::as_ptr(n)) {
                    break;
                }
                head = n.pred.as_ref();
            }
        };
        let ranks = self.ranks.lock().expect("causal ranks lock");
        for st in ranks.values() {
            walk(st.head.as_ref());
        }
        drop(ranks);
        let inflight = self.inflight.lock().expect("causal inflight lock");
        for snap in inflight.values() {
            walk(snap.head.as_ref());
        }
        seen.len()
    }
}

impl CausalSink for CausalAgg {
    fn on_send(&self, src: usize, clock: VTime, bytes: u64) -> u64 {
        let src = src as u32;
        let (seq, snap) = {
            let mut ranks = self.ranks.lock().expect("causal ranks lock");
            let st = ranks.entry(src).or_default();
            st.next_seq += 1;
            (
                st.next_seq,
                InFlight {
                    head: st.head.clone(),
                    work_from: st.seg_start,
                    work_to: clock,
                    bytes,
                },
            )
        };
        self.inflight
            .lock()
            .expect("causal inflight lock")
            .insert((src, seq), snap);
        seq
    }

    fn on_delivery(&self, src: usize, seq: u64, dst: usize, before: VTime, after: VTime) {
        let _t = hostprof::timer(HostPhase::CausalFold);
        let src = src as u32;
        let dst = dst as u32;
        let Some(snap) = self
            .inflight
            .lock()
            .expect("causal inflight lock")
            .remove(&(src, seq))
        else {
            // Stamped through another sink (its sender ran with a
            // different hook); no edge.
            return;
        };
        if let Some(edges) = &self.edges {
            edges.lock().expect("causal edges lock").push(CausalEdge {
                src,
                dst,
                seq,
                bytes: snap.bytes,
                depart: snap.work_to,
                arrive: after,
            });
        }
        if after.as_secs() > before.as_secs() {
            let node = Arc::new(ChainNode {
                pred: snap.head,
                src,
                dst,
                work_from: snap.work_from,
                work_to: snap.work_to,
                arrive: after,
            });
            self.nodes_created.fetch_add(1, Ordering::Relaxed);
            let mut ranks = self.ranks.lock().expect("causal ranks lock");
            let st = ranks.entry(dst).or_default();
            st.head = Some(node);
            st.seg_start = after;
        } else {
            self.slack_deliveries.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> VTime {
        VTime::from_secs(s)
    }

    /// Drives the sink hooks directly: rank 0 works until 1.0 and
    /// sends; rank 1 (idle at 0.2) is bound to 1.5 by the message.
    #[test]
    fn binding_delivery_freezes_sender_work_and_edge() {
        let agg = CausalAgg::new(true);
        let seq = agg.on_send(0, t(1.0), 64);
        assert_eq!(seq, 1, "per-sender sequence starts at 1");
        agg.on_delivery(0, seq, 1, t(0.2), t(1.5));
        agg.op_end(1, VTime::ZERO, t(2.0), "write");
        let chains = agg.chains();
        assert_eq!(chains.len(), 1);
        let c = &chains[0];
        c.verify_tiling().expect("bit tiling");
        assert_eq!(c.total().as_secs(), 2.0);
        // work[0, 1.0] on rank 0 → sync-wait[1.0, 1.5] on rank 1 →
        // work[1.5, 2.0] on rank 1.
        assert_eq!(c.segments.len(), 3);
        assert_eq!(c.segments[0].rank, 0);
        assert_eq!(c.segments[0].class, SegClass::Work);
        assert_eq!(c.segments[1].class, SegClass::SyncWait);
        assert_eq!(c.segments[1].dur().as_secs(), 0.5);
        assert_eq!(c.segments[2].rank, 1);
        assert_eq!(c.wait_secs(), 0.5);
        assert_eq!(c.work_secs(), 1.5);
        assert_eq!(c.hops(), 1);
        assert_eq!(agg.edges().len(), 1);
        assert_eq!(agg.nodes_created(), 1);
    }

    #[test]
    fn early_delivery_is_slack_not_an_edge() {
        let agg = CausalAgg::new(true);
        let seq = agg.on_send(0, t(0.5), 8);
        // Receiver already past the arrival: no bind.
        agg.on_delivery(0, seq, 1, t(0.9), t(0.9));
        assert_eq!(agg.nodes_created(), 0);
        assert_eq!(agg.slack_deliveries(), 1);
        assert_eq!(agg.inflight_len(), 0, "snapshot popped either way");
        agg.op_end(1, VTime::ZERO, t(0.9), "write");
        let c = &agg.chains()[0];
        c.verify_tiling().expect("bit tiling");
        assert_eq!(c.segments.len(), 1, "pure local work");
        assert_eq!(c.hops(), 0);
    }

    #[test]
    fn clamping_truncates_history_before_t0() {
        let agg = CausalAgg::new(false);
        let s1 = agg.on_send(0, t(1.0), 4);
        agg.on_delivery(0, s1, 1, t(0.0), t(1.4));
        // Second op window starts at 2.0; rank 1's chain reaches back
        // through the 1.4 bind, which is clamped away entirely.
        agg.op_end(1, t(2.0), t(3.0), "read");
        let c = &agg.chains()[0];
        c.verify_tiling().expect("bit tiling");
        assert_eq!(c.segments.len(), 1);
        assert_eq!(c.segments[0].from.as_secs(), 2.0);
        assert_eq!(c.segments[0].to.as_secs(), 3.0);
        assert!(agg.edges().is_empty(), "streaming mode retains no edges");
    }

    #[test]
    fn deep_chains_drop_iteratively() {
        // 200k links would overflow the stack under recursive drop.
        let agg = CausalAgg::new(false);
        let mut clock = 0.0;
        for i in 0..200_000u64 {
            let (src, dst) = ((i % 2) as usize, ((i + 1) % 2) as usize);
            let seq = agg.on_send(src, t(clock + 1e-6), 1);
            clock += 2e-6;
            agg.on_delivery(src, seq, dst, t(clock - 1e-6), t(clock));
        }
        assert_eq!(agg.nodes_created(), 200_000);
        assert!(agg.live_nodes() <= 200_000);
        drop(agg); // must not overflow
    }

    #[test]
    fn live_nodes_collapse_after_a_broadcast_bind() {
        let agg = CausalAgg::new(false);
        // Rank 0 binds ranks 1..=8 at the same settle: every frontier
        // shares rank 0's (empty) chain plus one private node.
        for dst in 1..=8usize {
            let seq = agg.on_send(0, t(1.0), 0);
            agg.on_delivery(0, seq, dst, t(0.1), t(1.0 + dst as f64 * 1e-9));
        }
        assert_eq!(agg.live_nodes(), 8, "one private node per bound rank");
    }
}
