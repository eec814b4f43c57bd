//! Message envelopes and per-rank matching.
//!
//! Matching follows the posted-receive / unexpected-message split of MPI
//! libraries. A rank parked in a receive has *posted* its `(src, tag)`
//! [`Pattern`]; the executor's one `deliver` hands a send that matches
//! it straight to the parked task. Every other send is *unexpected* and
//! lands in the receiver's `Mailbox`, which a later receive probes
//! before it parks. Either way the receive gets the *earliest sent*
//! message of its pair — MPI's non-overtaking guarantee — because a
//! handoff only happens when no message of that pair is queued.
//!
//! Every receive names its source, so a per-`(src, tag)` FIFO is the
//! whole index: one hash lookup per probe, where a linear scan would
//! turn every flat collective into an O(n²) hot spot at 10k+ ranks
//! (the root's mailbox collects `n - 1` messages). A pair's first
//! envelope is stored inline, so the common case — one message in
//! flight per pair — allocates nothing. The mailbox belongs to the
//! rank's task slot for one run: it needs no lock, and nothing a run
//! leaves behind can reach the next run on the same world.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::Arc;

use mccio_sim::causal::Sent;
use mccio_sim::VTime;

/// Message payload bytes. Point-to-point sends own their buffer;
/// broadcast-style fan-outs share one allocation between all receivers
/// so a megabyte plan broadcast to 100k ranks queues one buffer, not
/// 100k copies; and a message that is a range of a buffer its sender
/// keeps (a shuffle header encoded once per schedule) travels as that
/// range, with no allocation and no copy.
#[derive(Debug, Clone)]
pub enum Payload {
    /// Exclusively owned bytes (moved, never copied after send).
    Owned(Vec<u8>),
    /// One buffer shared by many in-flight envelopes.
    Shared(Arc<[u8]>),
    /// The bytes `range` of a shared buffer.
    Slice(Arc<[u8]>, Range<usize>),
}

impl Payload {
    /// Number of payload bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when the payload is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The payload bytes.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        match self {
            Payload::Owned(v) => v,
            Payload::Shared(s) => s,
            Payload::Slice(s, range) => &s[range.clone()],
        }
    }

    /// Extracts owned bytes: free for owned payloads, one copy for
    /// shared ones (the receive-side half of the broadcast bargain).
    #[must_use]
    pub fn into_vec(self) -> Vec<u8> {
        match self {
            Payload::Owned(v) => v,
            shared => shared.as_slice().to_vec(),
        }
    }

    /// Extracts the bytes as a shared buffer: free for shared payloads
    /// (the receiver aliases the sender's allocation — at a broadcast
    /// every receiver holds the *same* `Arc`, which downstream caches
    /// exploit as an identity key); an owned payload or a slice is
    /// copied into a new allocation.
    #[must_use]
    pub fn into_shared(self) -> Arc<[u8]> {
        match self {
            Payload::Owned(v) => v.into(),
            Payload::Shared(s) => s,
            Payload::Slice(s, range) => s[range].into(),
        }
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Payload {
        Payload::Owned(v)
    }
}

/// A message in flight or queued at the receiver.
#[derive(Debug)]
pub struct Envelope {
    /// Sending rank.
    pub src: usize,
    /// Match tag.
    pub tag: u32,
    /// Payload bytes.
    pub payload: Payload,
    /// Virtual time at which the message left the sender.
    pub depart: VTime,
    /// The sender's causal stamp ([`mccio_sim::causal::Frontier::send`]),
    /// or `None` when the sender runs without a causal hook.
    pub causal: Option<Arc<Sent>>,
}

/// Matching criteria for a receive.
#[derive(Debug, Clone, Copy)]
pub struct Pattern {
    /// Required source rank.
    pub src: usize,
    /// Required tag.
    pub tag: u32,
}

/// Hasher for packed `(src << 32) | tag` keys. The keys are rank ids
/// and tags the simulator chose itself, so a keyed (DoS-resistant) hash
/// buys nothing; a folded 64×64→128 multiply mixes both halves of the
/// key into the low bits the table indexes with.
#[derive(Debug, Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("mailbox keys hash as one u64")
    }

    fn write_u64(&mut self, key: u64) {
        let m = u128::from(self.0 ^ key) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn pair_key(src: usize, tag: u32) -> u64 {
    ((src as u64) << 32) | u64::from(tag)
}

/// One `(src, tag)` pair's FIFO. The head is stored inline, so a pair
/// holding one message — every control message of a flat collective —
/// costs no allocation; only a second queued message of the same pair
/// spills into `rest`.
#[derive(Debug)]
struct PairQueue {
    head: Envelope,
    rest: VecDeque<Envelope>,
}

/// One rank's store of *unexpected* messages: envelopes that arrived
/// while the rank was not parked on their `(src, tag)` pair. Owned by
/// the rank's task slot for one run; the executor hands a message
/// straight to a receiver already parked on its pair and queues it
/// here otherwise.
#[derive(Debug, Default)]
pub(crate) struct Mailbox {
    by_pair: HashMap<u64, PairQueue, BuildHasherDefault<PairHasher>>,
}

impl Mailbox {
    /// Queues an envelope behind any earlier one of its pair.
    pub(crate) fn push(&mut self, env: Envelope) {
        match self.by_pair.entry(pair_key(env.src, env.tag)) {
            Entry::Occupied(mut q) => q.get_mut().rest.push_back(env),
            Entry::Vacant(slot) => {
                slot.insert(PairQueue {
                    head: env,
                    rest: VecDeque::new(),
                });
            }
        }
    }

    /// Removes the earliest queued match, dropping its pair once it
    /// drains. A probe never allocates (the entry API would reserve
    /// table space for a missing key).
    pub(crate) fn take(&mut self, pattern: Pattern) -> Option<Envelope> {
        let key = pair_key(pattern.src, pattern.tag);
        let q = self.by_pair.get_mut(&key)?;
        match q.rest.pop_front() {
            Some(next) => Some(std::mem::replace(&mut q.head, next)),
            None => self.by_pair.remove(&key).map(|q| q.head),
        }
    }

    /// Number of queued (unmatched) messages; used by shutdown checks to
    /// assert no message was silently dropped.
    pub(crate) fn pending(&self) -> usize {
        self.by_pair.values().map(|q| 1 + q.rest.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(src: usize, tag: u32, byte: u8) -> Envelope {
        Envelope {
            src,
            tag,
            payload: vec![byte].into(),
            depart: VTime::ZERO,
            causal: None,
        }
    }

    fn take_byte(mb: &mut Mailbox, src: usize, tag: u32) -> u8 {
        mb.take(Pattern { src, tag }).unwrap().payload.as_slice()[0]
    }

    #[test]
    fn matches_by_src_and_tag() {
        let mut mb = Mailbox::default();
        mb.push(env(1, 10, b'a'));
        mb.push(env(2, 10, b'b'));
        mb.push(env(1, 20, b'c'));
        assert_eq!(take_byte(&mut mb, 2, 10), b'b');
        assert_eq!(take_byte(&mut mb, 1, 20), b'c');
        assert!(mb.take(Pattern { src: 2, tag: 20 }).is_none());
        assert_eq!(mb.pending(), 1);
    }

    #[test]
    fn same_src_tag_is_fifo() {
        let mut mb = Mailbox::default();
        for b in [b'1', b'2', b'3'] {
            mb.push(env(0, 5, b));
        }
        for expect in [b'1', b'2', b'3'] {
            assert_eq!(take_byte(&mut mb, 0, 5), expect);
        }
        assert!(mb.take(Pattern { src: 0, tag: 5 }).is_none());
        assert_eq!(mb.pending(), 0);
    }

    #[test]
    fn a_drained_pair_refills_in_order() {
        let mut mb = Mailbox::default();
        mb.push(env(3, 1, b'a'));
        assert_eq!(take_byte(&mut mb, 3, 1), b'a');
        mb.push(env(3, 1, b'b'));
        mb.push(env(3, 1, b'c'));
        assert_eq!(take_byte(&mut mb, 3, 1), b'b');
        mb.push(env(3, 1, b'd'));
        assert_eq!(take_byte(&mut mb, 3, 1), b'c');
        assert_eq!(take_byte(&mut mb, 3, 1), b'd');
        assert_eq!(mb.pending(), 0);
    }

    #[test]
    fn keys_differing_only_in_source_or_tag_stay_apart() {
        // The packed key puts the source in the high half: pairs that
        // share a tag (every flat collective's fan-in) or a source must
        // never alias.
        let mut mb = Mailbox::default();
        for src in 0..64 {
            mb.push(env(src, 7, src as u8));
            mb.push(env(0, 100 + src as u32, 200));
        }
        for src in (0..64).rev() {
            assert_eq!(take_byte(&mut mb, src, 7), src as u8);
        }
        assert_eq!(mb.pending(), 64);
    }

    #[test]
    fn shared_payloads_alias_one_buffer() {
        let mut mb = Mailbox::default();
        let shared: Arc<[u8]> = b"plan".as_slice().into();
        for src in 0..3 {
            mb.push(Envelope {
                src,
                tag: 6,
                payload: Payload::Shared(Arc::clone(&shared)),
                depart: VTime::ZERO,
                causal: None,
            });
        }
        assert_eq!(Arc::strong_count(&shared), 4, "queued envelopes alias");
        for src in 0..3 {
            let got = mb.take(Pattern { src, tag: 6 }).unwrap();
            assert_eq!(got.payload.into_vec(), b"plan");
        }
        assert_eq!(Arc::strong_count(&shared), 1);
    }

    #[test]
    fn interleaved_tags_and_sources_stay_in_sync() {
        let mut mb = Mailbox::default();
        mb.push(env(0, 1, b'a'));
        mb.push(env(1, 1, b'b'));
        mb.push(env(0, 2, b'x'));
        mb.push(env(0, 1, b'c'));
        // Each (src, tag) pair drains in its own delivery order,
        // whatever order the pairs are received in.
        let order: Vec<u8> = [(1, 1), (0, 1), (0, 2), (0, 1)]
            .into_iter()
            .map(|(src, tag)| take_byte(&mut mb, src, tag))
            .collect();
        assert_eq!(order, b"baxc");
        assert_eq!(mb.pending(), 0);
    }
}
