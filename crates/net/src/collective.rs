//! Group collectives over the point-to-point layer.
//!
//! Every collective here sends the engine's one message kind: it moves
//! driver metadata (offset lists, clocks, exchange matrices) and
//! enforces causality, but charges no transfer time — the bulk-data
//! phases it coordinates are priced analytically through
//! [`mccio_sim::CostModel::shuffle_phase`]. [`Ctx::exchange`]'s
//! messages stand for shuffled data, so it also updates the traffic
//! counters' byte totals and `data_msgs`, letting experiments report
//! shuffle volumes.
//!
//! Every operation is defined over a [`RankSet`] and must be called by
//! *all* members of the set, SPMD-style, in the same order — exactly
//! MPI's rule. The designated root is the smallest member.

use std::sync::Arc;

use mccio_sim::time::VTime;

use crate::engine::Ctx;
use crate::group::RankSet;
use crate::mailbox::Payload;
use crate::wire::{decode_f64, encode_f64, Reader};

/// Internal tag space; user tags must stay below this.
pub const INTERNAL_TAG_BASE: u32 = 0xFF00_0000;
const TAG_GATHER: u32 = INTERNAL_TAG_BASE + 1;
const TAG_BCAST: u32 = INTERNAL_TAG_BASE + 2;
const TAG_BARRIER_IN: u32 = INTERNAL_TAG_BASE + 3;
const TAG_BARRIER_OUT: u32 = INTERNAL_TAG_BASE + 4;
const TAG_EXCHANGE: u32 = INTERNAL_TAG_BASE + 5;

impl Ctx {
    fn assert_member(&self, group: &RankSet, op: &str) {
        assert!(
            group.contains(self.rank()),
            "rank {} called {op} on a group it is not a member of: {:?}",
            self.rank(),
            group.members()
        );
    }

    /// Barrier over `group`. On return every member's clock equals the
    /// maximum entry clock across the group.
    pub fn group_barrier(&mut self, group: &RankSet) {
        self.assert_member(group, "group_barrier");
        let root = group.root();
        if self.rank() == root {
            for src in group.iter().filter(|&r| r != root) {
                let _ = self.recv(src, TAG_BARRIER_IN);
            }
            for dst in group.iter().filter(|&r| r != root) {
                self.send_ctl(dst, TAG_BARRIER_OUT, Vec::new());
            }
        } else {
            self.send_ctl(root, TAG_BARRIER_IN, Vec::new());
            let _ = self.recv(root, TAG_BARRIER_OUT);
        }
    }

    /// World barrier (all ranks).
    pub fn barrier(&mut self) {
        let world = self.world_ranks();
        self.group_barrier(&world);
    }

    /// Gathers each member's payload at the root. Returns
    /// `Some(payloads in group order)` at the root, `None` elsewhere.
    pub fn group_gather(&mut self, group: &RankSet, payload: Vec<u8>) -> Option<Vec<Vec<u8>>> {
        self.assert_member(group, "group_gather");
        let is_root = self.rank() == group.root();
        let mut out = Vec::with_capacity(if is_root { group.len() } else { 0 });
        self.gather_each(group, payload, |_, part| out.push(part))
            .then_some(out)
    }

    /// The gather protocol: members send their payload to the root, and
    /// the root hands every member's payload — its own moved, not
    /// copied — to `part` with the member's group index, in group order.
    /// Returns whether this rank is the root.
    fn gather_each(
        &mut self,
        group: &RankSet,
        payload: Vec<u8>,
        mut part: impl FnMut(usize, Vec<u8>),
    ) -> bool {
        let root = group.root();
        if self.rank() != root {
            self.send_ctl(root, TAG_GATHER, payload);
            return false;
        }
        let mut own = Some(payload);
        for (idx, member) in group.iter().enumerate() {
            if member == root {
                part(idx, own.take().expect("the root is one member"));
            } else {
                part(idx, self.recv(member, TAG_GATHER));
            }
        }
        true
    }

    /// Broadcasts the root's payload to every member; non-roots pass
    /// anything (conventionally empty). Every member (root included)
    /// returns a clone of the *same* shared allocation: a plan broadcast
    /// to 100k ranks queues O(plan) bytes, not O(ranks × plan), and the
    /// buffer's identity can key [`crate::World::decode_shared`].
    pub fn group_bcast_shared(&mut self, group: &RankSet, payload: Vec<u8>) -> Arc<[u8]> {
        self.assert_member(group, "group_bcast_shared");
        let root = group.root();
        if self.rank() == root {
            let shared: Arc<[u8]> = payload.into();
            for dst in group.iter().filter(|&r| r != root) {
                let payload = Payload::Shared(Arc::clone(&shared));
                self.send_ctl_payload(dst, TAG_BCAST, payload, shared.len() as u64);
            }
            shared
        } else {
            self.recv_shared(root, TAG_BCAST)
        }
    }

    /// All-gather: every member returns all members' payloads in group
    /// order, packed into one shared buffer (gather + broadcast of the
    /// concatenation) instead of split into per-member copies: a `u64`
    /// member count, the `u64` length of each part, then the parts back
    /// to back ([`Ctx::allgather_parts`] iterates them).
    /// Every member returns a clone of the same allocation, so decoding
    /// can be done once per world ([`crate::World::decode_shared`])
    /// instead of once per rank — the difference between O(n) and O(n²)
    /// total work for the metadata exchanges at 10k+ ranks.
    pub fn group_allgather_shared(&mut self, group: &RankSet, payload: Vec<u8>) -> Arc<[u8]> {
        self.assert_member(group, "group_allgather_shared");
        // The root packs each part as it lands, while it is still in
        // cache, and frees it at once; the length slots are filled in
        // as parts arrive. Other members contribute nothing to the
        // broadcast.
        let mut buf = Vec::new();
        if self.rank() == group.root() {
            buf.resize(8 * (1 + group.len()), 0);
            buf[..8].copy_from_slice(&(group.len() as u64).to_le_bytes());
        }
        self.gather_each(group, payload, |idx, part| {
            buf[8 * (1 + idx)..][..8].copy_from_slice(&(part.len() as u64).to_le_bytes());
            buf.extend_from_slice(&part);
        });
        self.group_bcast_shared(group, buf)
    }

    /// Iterates the per-member parts of a packed all-gather buffer
    /// (as produced by [`Ctx::group_allgather_shared`]) without copying
    /// them out.
    ///
    /// # Panics
    /// Panics if the buffer is not a well-formed packed all-gather.
    pub fn allgather_parts(packed: &[u8]) -> impl Iterator<Item = &[u8]> {
        let mut r = Reader::new(packed);
        let n = r.u64() as usize;
        let lens: Vec<usize> = (0..n).map(|_| r.u64() as usize).collect();
        lens.into_iter().map(move |len| r.bytes(len))
    }

    /// All-reduce max over one `f64` per member.
    ///
    /// The fold over the gathered values is computed once per world and
    /// shared between the members (they all hold the same packed buffer),
    /// so a 10k-rank reduction costs one O(n) pass, not n of them. The
    /// fold is a pure function of the gathered bytes, so a later
    /// reduction over equal bytes reuses it too, whatever the group.
    pub fn group_allreduce_max_f64(&mut self, group: &RankSet, value: f64) -> f64 {
        let packed = self.group_allgather_shared(group, encode_f64(value));
        *self.world().decode_shared(
            &packed,
            |_| true,
            |bytes| {
                Ctx::allgather_parts(bytes)
                    .map(decode_f64)
                    .fold(f64::NEG_INFINITY, f64::max)
            },
        )
    }

    /// Synchronizes clocks across the group: every member leaves with
    /// clock = max(entry clocks), which is also returned. Phase-based
    /// drivers call this before charging a jointly computed duration.
    pub fn group_sync_clocks(&mut self, group: &RankSet) -> VTime {
        self.group_barrier(group);
        self.clock()
    }

    /// Personalized all-to-all within a group: `sends` maps each
    /// destination to a `(wire, payload)` message; `recv_from` lists the
    /// sources this rank expects a message from. Both sides of the
    /// exchange must be derivable from shared metadata — in collective
    /// I/O they always are. Self-sends short-circuit locally. Returns
    /// `(src, payload)` pairs in `recv_from` order, each payload as it
    /// was sent: a [`Payload::Slice`] arrives as the same slice, uncopied.
    ///
    /// A message is accounted at its `wire` length, which may exceed the
    /// payload: a one-sided shuffle moves its bytes between exposed
    /// buffers ([`crate::rma`]) and sends only the headers, but stands
    /// for the two-sided message that would have carried them. Like
    /// every message it costs no time (callers price the whole phase
    /// analytically), but it counts in `data_msgs` and the byte totals
    /// of the traffic statistics, and its causal stamp carries that
    /// length.
    ///
    /// # Panics
    /// Panics if a destination or source is outside the group.
    pub fn exchange(
        &mut self,
        group: &RankSet,
        sends: Vec<(usize, u64, Payload)>,
        recv_from: &[usize],
    ) -> Vec<(usize, Payload)> {
        self.assert_member(group, "exchange");
        let me = self.rank();
        let mut self_payload = None;
        for (dst, wire, payload) in sends {
            assert!(
                group.contains(dst),
                "exchange destination {dst} outside group"
            );
            if dst == me {
                assert!(
                    self_payload.is_none(),
                    "multiple self-sends in one exchange"
                );
                self_payload = Some(payload);
            } else {
                self.account_exchange(dst, wire);
                self.send_ctl_payload(dst, TAG_EXCHANGE, payload, wire);
            }
        }
        let mut received = Vec::with_capacity(recv_from.len());
        for &src in recv_from {
            assert!(group.contains(src), "exchange source {src} outside group");
            if src == me {
                let payload = self_payload
                    .take()
                    .expect("recv_from lists self but sends has no self-payload");
                received.push((me, payload));
            } else {
                received.push((src, self.recv_payload(src, TAG_EXCHANGE)));
            }
        }
        assert!(
            self_payload.is_none(),
            "self-send payload was never received (missing self in recv_from)"
        );
        received
    }

    fn account_exchange(&self, dst: usize, bytes: u64) {
        let dst_node = self.placement().node_of(dst);
        self.world()
            .traffic()
            .account_data(self.node(), dst_node, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::World;
    use mccio_sim::cost::CostModel;
    use mccio_sim::time::VDuration;
    use mccio_sim::topology::{test_cluster, FillOrder, Placement};
    use std::sync::Arc;

    use crate::engine::ExecutorKind;

    /// The canonical schedule followed by every explored one.
    fn all_kinds() -> impl Iterator<Item = ExecutorKind> {
        std::iter::once(ExecutorKind::Event).chain(ExecutorKind::EXPLORED)
    }

    fn world_with(nodes: usize, cores: usize, ranks: usize, kind: ExecutorKind) -> Arc<World> {
        let cluster = test_cluster(nodes, cores);
        let placement = Placement::new(&cluster, ranks, FillOrder::Block).unwrap();
        World::with_executor(CostModel::new(cluster), placement, kind)
    }

    fn world(nodes: usize, cores: usize, ranks: usize) -> Arc<World> {
        world_with(nodes, cores, ranks, ExecutorKind::Event)
    }

    #[test]
    fn barrier_syncs_clocks_to_max() {
        for kind in all_kinds() {
            let w = world_with(2, 2, 4, kind);
            let clocks = w.run(|ctx| {
                ctx.advance(VDuration::from_secs(ctx.rank() as f64));
                ctx.barrier();
                ctx.clock().as_secs()
            });
            for c in clocks {
                assert!((c - 3.0).abs() < 1e-12, "clock {c}");
            }
        }
    }

    #[test]
    fn gather_collects_in_group_order() {
        let w = world(1, 4, 4);
        let r = w.run(|ctx| {
            let group = RankSet::new(vec![3, 1, 0]);
            if !group.contains(ctx.rank()) {
                return None;
            }
            ctx.group_gather(&group, vec![ctx.rank() as u8])
        });
        assert_eq!(
            r[0],
            Some(vec![vec![0u8], vec![1u8], vec![3u8]]),
            "root is rank 0 and sees group order"
        );
        assert_eq!(r[1], None);
        assert_eq!(r[3], None);
    }

    #[test]
    fn bcast_distributes_root_payload() {
        for kind in all_kinds() {
            let w = world_with(2, 2, 4, kind);
            let r = w.run(|ctx| {
                let group = RankSet::world(ctx.size());
                let payload = if ctx.rank() == 0 {
                    b"hello".to_vec()
                } else {
                    vec![]
                };
                ctx.group_bcast_shared(&group, payload)
            });
            for p in &r {
                assert_eq!(**p, *b"hello");
                assert!(Arc::ptr_eq(p, &r[0]), "every member shares one buffer");
            }
        }
    }

    #[test]
    fn allgather_gives_everyone_everything() {
        for kind in all_kinds() {
            let w = world_with(2, 2, 4, kind);
            let r = w.run(|ctx| {
                let group = RankSet::world(ctx.size());
                ctx.group_allgather_shared(&group, vec![ctx.rank() as u8; ctx.rank() + 1])
            });
            for packed in r {
                let parts: Vec<&[u8]> = Ctx::allgather_parts(&packed).collect();
                assert_eq!(parts.len(), 4);
                for (i, p) in parts.iter().enumerate() {
                    assert_eq!(*p, vec![i as u8; i + 1]);
                }
            }
        }
    }

    #[test]
    fn allreduce_max() {
        let w = world(1, 4, 4);
        let r = w.run(|ctx| {
            let group = RankSet::world(ctx.size());
            ctx.group_allreduce_max_f64(&group, ctx.rank() as f64 * 1.5)
        });
        for v in r {
            assert_eq!(v, 4.5);
        }
    }

    #[test]
    fn disjoint_group_collectives_run_concurrently() {
        let w = world(2, 2, 4);
        let r = w.run(|ctx| {
            let group = if ctx.rank() < 2 {
                RankSet::new(vec![0, 1])
            } else {
                RankSet::new(vec![2, 3])
            };
            let all = ctx.group_allgather_shared(&group, vec![ctx.rank() as u8]);
            Ctx::allgather_parts(&all).map(|p| p[0]).collect::<Vec<_>>()
        });
        assert_eq!(r[0], vec![0, 1]);
        assert_eq!(r[1], vec![0, 1]);
        assert_eq!(r[2], vec![2, 3]);
        assert_eq!(r[3], vec![2, 3]);
    }

    #[test]
    fn exchange_delivers_personalized_payloads() {
        for kind in all_kinds() {
            exchange_case(kind);
        }
    }

    fn exchange_case(kind: ExecutorKind) {
        let w = world_with(2, 2, 4, kind);
        let r = w.run(|ctx| {
            let group = RankSet::world(ctx.size());
            let me = ctx.rank();
            // Everyone sends one byte [me*10+dst] to every rank (self
            // included), a slice of one buffer shared with all of them.
            let buf: Arc<[u8]> = (0..4).map(|dst| (me * 10 + dst) as u8).collect();
            let sends = (0..4)
                .map(|dst| (dst, 1, Payload::Slice(Arc::clone(&buf), dst..dst + 1)))
                .collect();
            let recv_from: Vec<usize> = (0..4).collect();
            let got = ctx.exchange(&group, sends, &recv_from);
            let got: Vec<_> = got
                .into_iter()
                .map(|(src, p)| match p {
                    Payload::Slice(s, range) => (src, s[range.start], s.as_ptr() as usize),
                    other => panic!("a slice arrived as {other:?}"),
                })
                .collect();
            (buf.as_ptr() as usize, got)
        });
        for (me, (_, got)) in r.iter().enumerate() {
            for (i, &(src, byte, at)) in got.iter().enumerate() {
                assert_eq!(src, i);
                assert_eq!(byte as usize, src * 10 + me);
                assert_eq!(at, r[src].0, "the slice was copied");
            }
        }
    }

    #[test]
    fn exchange_counts_traffic() {
        let w = world(2, 2, 4);
        let _ = w.run(|ctx| {
            let group = RankSet::world(ctx.size());
            if ctx.rank() == 0 {
                // Accounted at its wire length, not the payload's.
                let got = ctx.exchange(&group, vec![(2, 100, vec![0u8; 8].into())], &[]);
                assert!(got.is_empty());
            } else if ctx.rank() == 2 {
                let _ = ctx.exchange(&group, vec![], &[0]);
            } else {
                let _ = ctx.exchange(&group, vec![], &[]);
            }
        });
        let t = w.traffic().snapshot();
        assert_eq!(t.inter_bytes, 100);
        assert_eq!(t.node_egress[0], 100);
        assert_eq!(t.node_ingress[1], 100);
        // One exchange message counts once as data and once as a message.
        assert_eq!((t.data_msgs, t.ctl_msgs), (1, 1));
        // A barrier's messages count as messages only: 3 in, 3 out.
        let _ = w.run(|ctx| ctx.barrier());
        let t = w.traffic().snapshot();
        assert_eq!((t.data_msgs, t.ctl_msgs), (1, 7));
        assert_eq!(t.inter_bytes, 100);
    }

    #[test]
    #[should_panic(expected = "rank 1 called group_barrier on a group it is not a member of")]
    fn non_member_collective_is_a_bug() {
        let w = world(1, 2, 2);
        let _ = w.run(|ctx| {
            let group = RankSet::new(vec![0]);
            ctx.group_barrier(&group); // rank 1 panics
        });
    }
}
