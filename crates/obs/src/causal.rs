//! Message-level happens-before tracing: cross-rank blame chains.
//!
//! The round spans say which phase an op's time went to — "shuffle
//! dominated" — but not *which* rank's send actually blocked *which*
//! aggregator. This module follows real message causality: each rank's
//! engine context keeps its own [`mccio_sim::causal::Frontier`], every
//! message carries its sender's snapshot, and [`CausalAgg`] — the
//! [`CausalSink`] the engine reports deliveries to — retains edges and
//! counts, and walks chains at op ends.
//!
//! ## The online DP
//!
//! A rank's frontier is the [`Bind`] that last moved its clock; its open
//! local-work segment starts at that bind's arrival. A send allocates
//! one immutable [`Sent`]: the sender's head (an `Arc` clone), its
//! per-sender sequence number, its clock and the wire bytes. It rides in
//! the envelope, so a delivery needs no lookup. Only when the message
//! **bound** the receiver's clock (`after > before`) does the receiver's
//! frontier take a new head: sender-side work `[work_from, work_to]`
//! plus the in-flight edge `[work_to, after]`, linked through the
//! sender's snapshot. The bind is stored inline, so it allocates
//! nothing; an early message binds nothing and its `Sent` is freed.
//!
//! Memory is O(ranks + in-flight + path): a frontier is one inline
//! bind, every envelope is settled (the engine panics on a message left
//! unmatched), and `Sent`s are `Arc`-shared — after a settle broadcast
//! every rank's chain aliases the root's suffix, so the live links
//! collapse to roughly one path. Nothing here is shared between ranks
//! but the sink's counters and, on buffered sinks, its edge list; this
//! makes the fold compatible with [`crate::ObsSink::streaming`] at 100k
//! ranks: in streaming mode no per-edge record is retained at all.
//!
//! ## Determinism
//!
//! Sequence numbers are **per-sender** (a global counter would be
//! assigned in schedule order, which differs between the canonical and
//! every explored rank schedule). Every engine receive is source-ordered
//! (`recv(src, tag)`), so each rank settles its deliveries in program
//! order, and a bind's predecessor comes from the *sender's* snapshot —
//! never from the receiver's schedule-dependent local history. The
//! frontier is therefore a pure function of virtual clocks and program
//! order, bit-identical across `ExecutorKind::Event` and every
//! `ExecutorKind::Explore(seed)` — the same canonical-order argument as
//! the streaming cells.
//!
//! ## Blame chains
//!
//! At each op end the engine calls [`CausalAgg::op_end`] with the root's
//! frontier head and the op window `[t0, end]`; walking the head
//! backwards and clamping at `t0` materializes the [`BlameChain`]: the
//! actual
//! rank → rank → storage sequence of segments whose joints are
//! **bit-equal** and whose total is the single subtraction `end - t0` —
//! bit-identical to `IoReport.elapsed` and the op span. The analyzer
//! cuts each chain at its op's phase windows into the op's
//! [`crate::analyze::CriticalPath`], whose what-if projections re-price
//! it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use mccio_sim::causal::{Bind, CausalSink, Sent};
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

/// The online causal aggregate: implements the engine's
/// [`CausalSink`] hook and materializes [`BlameChain`]s at op ends.
/// See the module docs for the fold and its memory bound.
#[derive(Debug)]
pub struct CausalAgg {
    chains: Mutex<Vec<BlameChain>>,
    /// Per-edge records for Chrome flow export; `None` in streaming
    /// mode, where causal memory must stay rank-independent.
    edges: Option<Mutex<Vec<CausalEdge>>>,
    /// Deliveries that bound their receiver's clock.
    bound_deliveries: AtomicU64,
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
            chains: Mutex::new(Vec::new()),
            edges: retain_edges.then(|| Mutex::new(Vec::new())),
            bound_deliveries: AtomicU64::new(0),
            slack_deliveries: AtomicU64::new(0),
        }
    }

    /// Closes the op window `[t0, end]` observed at `root` (the rank
    /// that prices the op span), whose frontier stands at `head`: walks
    /// the chain backwards, clamps at `t0`, and records the resulting
    /// [`BlameChain`].
    pub fn op_end(&self, root: u32, head: Option<&Bind>, t0: VTime, end: VTime, dir: &'static str) {
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
        let mut node = head;
        let mut cursor = clamp(node.map_or(VTime::ZERO, |b| b.arrive));
        push(root, SegClass::Work, cursor, end);
        while cursor.as_secs() > t0.as_secs() {
            let b = node
                .expect("causal chain must reach t0: clocks above zero only bind through messages");
            // The walk stands exactly where the binding arrived: a
            // sender's work segment starts at its last bind's arrival.
            debug_assert_eq!(
                clamp(b.arrive).as_secs().to_bits(),
                cursor.as_secs().to_bits(),
                "chain walk must stand at the binding arrival"
            );
            let edge_from = clamp(b.sent.work_to);
            push(b.dst, SegClass::SyncWait, edge_from, cursor);
            cursor = edge_from;
            if cursor.as_secs() > t0.as_secs() {
                let work_from = clamp(b.sent.work_from());
                push(b.sent.src, SegClass::Work, work_from, cursor);
                cursor = work_from;
            }
            node = b.sent.pred.as_ref();
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

    /// Deliveries that bound their receiver's clock (cumulative).
    #[must_use]
    pub fn bound_deliveries(&self) -> u64 {
        self.bound_deliveries.load(Ordering::Relaxed)
    }

    /// Deliveries that arrived early and bound nothing.
    #[must_use]
    pub fn slack_deliveries(&self) -> u64 {
        self.slack_deliveries.load(Ordering::Relaxed)
    }
}

impl CausalSink for CausalAgg {
    fn on_delivery(&self, sent: &Sent, dst: usize, arrive: VTime, bound: bool) {
        let _t = hostprof::timer(HostPhase::CausalFold);
        if let Some(edges) = &self.edges {
            edges.lock().expect("causal edges lock").push(CausalEdge {
                src: sent.src,
                dst: dst as u32,
                seq: sent.seq,
                bytes: sent.bytes,
                depart: sent.work_to,
                arrive,
            });
        }
        let count = if bound {
            &self.bound_deliveries
        } else {
            &self.slack_deliveries
        };
        count.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccio_sim::causal::Frontier;
    use std::sync::Arc;

    fn t(s: f64) -> VTime {
        VTime::from_secs(s)
    }

    /// Drives the frontiers directly: rank 0 works until 1.0 and sends;
    /// rank 1 (idle at 0.2) is bound to 1.5 by the message.
    #[test]
    fn binding_delivery_freezes_sender_work_and_edge() {
        let agg = CausalAgg::new(true);
        let mut f = [Frontier::default(), Frontier::default()];
        let sent = f[0].send(0, t(1.0), 64);
        assert_eq!(sent.seq, 1, "per-sender sequence starts at 1");
        f[1].settle(&agg, sent, 1, t(0.2), t(1.5));
        agg.op_end(1, f[1].head(), VTime::ZERO, t(2.0), "write");
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
        assert_eq!(agg.bound_deliveries(), 1);
    }

    #[test]
    fn early_delivery_is_slack_not_an_edge() {
        let agg = CausalAgg::new(true);
        let mut f = [Frontier::default(), Frontier::default()];
        let sent = f[0].send(0, t(0.5), 8);
        // Receiver already past the arrival: no bind.
        f[1].settle(&agg, Arc::clone(&sent), 1, t(0.9), t(0.9));
        assert_eq!(agg.bound_deliveries(), 0);
        assert_eq!(agg.slack_deliveries(), 1);
        assert!(f[1].head().is_none(), "slack leaves the frontier alone");
        assert_eq!(Arc::strong_count(&sent), 1, "nothing keeps the stamp");
        agg.op_end(1, f[1].head(), VTime::ZERO, t(0.9), "write");
        let c = &agg.chains()[0];
        c.verify_tiling().expect("bit tiling");
        assert_eq!(c.segments.len(), 1, "pure local work");
        assert_eq!(c.hops(), 0);
    }

    #[test]
    fn clamping_truncates_history_before_t0() {
        let agg = CausalAgg::new(false);
        let mut f = [Frontier::default(), Frontier::default()];
        let sent = f[0].send(0, t(1.0), 4);
        f[1].settle(&agg, sent, 1, t(0.0), t(1.4));
        // Second op window starts at 2.0; rank 1's chain reaches back
        // through the 1.4 bind, which is clamped away entirely.
        agg.op_end(1, f[1].head(), t(2.0), t(3.0), "read");
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
        let mut f = [Frontier::default(), Frontier::default()];
        let mut clock = 0.0;
        for i in 0..200_000usize {
            let (src, dst) = (i % 2, (i + 1) % 2);
            let sent = f[src].send(src, t(clock + 1e-6), 1);
            clock += 2e-6;
            f[dst].settle(&agg, sent, dst, t(clock - 1e-6), t(clock));
        }
        assert_eq!(agg.bound_deliveries(), 200_000);
        drop(f); // must not overflow
    }

    #[test]
    fn broadcast_binds_share_the_senders_chain() {
        let agg = CausalAgg::new(false);
        let mut f: Vec<Frontier> = (0..10).map(|_| Frontier::default()).collect();
        // Rank 9 binds rank 0; rank 0 then binds ranks 1..=8 at the same
        // settle: every bound frontier links to rank 0's one head.
        let sent = f[9].send(9, t(0.5), 0);
        f[0].settle(&agg, sent, 0, t(0.1), t(0.6));
        for dst in 1..=8usize {
            let sent = f[0].send(0, t(1.0), 0);
            f[dst].settle(&agg, sent, dst, t(0.1), t(1.0 + dst as f64 * 1e-9));
        }
        let root = &f[0].head().expect("rank 0 was bound").sent;
        for (dst, frontier) in f.iter().enumerate().take(9).skip(1) {
            let pred = frontier.head().expect("bound").sent.pred.as_ref();
            assert!(
                pred.is_some_and(|p| Arc::ptr_eq(&p.sent, root)),
                "rank {dst} holds its own copy of rank 0's chain"
            );
        }
        assert_eq!(Arc::strong_count(root), 9, "rank 0 and 8 predecessors");
    }
}
