//! Per-rank message matching.
//!
//! Each rank owns a [`Mailbox`]: an indexed store of delivered
//! envelopes. Receives never block here — the executor parks a task
//! whose probe ([`Mailbox::try_recv`]) found nothing and wakes it once
//! [`Mailbox::has_match`] holds — and a probe removes the *earliest
//! delivered* match, giving MPI's non-overtaking guarantee for messages
//! with the same source and tag.
//!
//! Matching is one hash lookup rather than a linear scan: flat
//! collectives funnel `n - 1` messages through the root's mailbox, so at
//! 10k+ ranks a scan per receive turns every barrier into an O(n²) hot
//! spot. Every receive names its source, so a per-`(src, tag)` FIFO is
//! the whole index. Empty per-pair queues are dropped eagerly, so a
//! mailbox that drained returns its memory instead of holding
//! high-water-mark capacity for the rest of the run.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use mccio_sim::sync::Mutex;

use mccio_sim::VTime;

/// Message payload bytes. Point-to-point sends own their buffer;
/// broadcast-style fan-outs share one allocation between all receivers
/// so a megabyte plan broadcast to 100k ranks queues one buffer, not
/// 100k copies.
#[derive(Debug, Clone)]
pub enum Payload {
    /// Exclusively owned bytes (moved, never copied after send).
    Owned(Vec<u8>),
    /// One buffer shared by many in-flight envelopes.
    Shared(Arc<[u8]>),
}

impl Payload {
    /// Number of payload bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Payload::Owned(v) => v.len(),
            Payload::Shared(s) => s.len(),
        }
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
        }
    }

    /// Extracts owned bytes: free for owned payloads, one copy for
    /// shared ones (the receive-side half of the broadcast bargain).
    #[must_use]
    pub fn into_vec(self) -> Vec<u8> {
        match self {
            Payload::Owned(v) => v,
            Payload::Shared(s) => s.to_vec(),
        }
    }

    /// Extracts the bytes as a shared buffer: free for shared payloads
    /// (the receiver aliases the sender's allocation — at a broadcast
    /// every receiver holds the *same* `Arc`, which downstream caches
    /// exploit as an identity key), one move for owned ones.
    #[must_use]
    pub fn into_shared(self) -> Arc<[u8]> {
        match self {
            Payload::Owned(v) => v.into(),
            Payload::Shared(s) => s,
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
    /// True when the message should be charged transfer cost at the
    /// receiver; control/bookkeeping messages are delivered free (their
    /// cost is priced analytically by the phase model instead).
    pub costed: bool,
    /// Per-sender causal sequence number stamped by the world's
    /// installed [`mccio_sim::causal::CausalSink`], or 0 when causal
    /// tracing is off. `(src, causal)` identifies the happens-before
    /// edge this delivery closes.
    pub causal: u64,
}

/// Matching criteria for a receive.
#[derive(Debug, Clone, Copy)]
pub struct Pattern {
    /// Required source rank.
    pub src: usize,
    /// Required tag.
    pub tag: u32,
}

#[derive(Debug, Default)]
struct Queue {
    /// Per-(src, tag) FIFO of queued envelopes, in delivery order.
    by_pair: HashMap<(usize, u32), VecDeque<Envelope>>,
    /// Total queued envelopes.
    len: usize,
}

impl Queue {
    fn push(&mut self, env: Envelope) {
        self.by_pair
            .entry((env.src, env.tag))
            .or_default()
            .push_back(env);
        self.len += 1;
    }

    fn contains(&self, pattern: Pattern) -> bool {
        self.by_pair.contains_key(&(pattern.src, pattern.tag))
    }

    /// Removes the earliest delivered match, dropping its FIFO once it
    /// drains.
    fn take(&mut self, pattern: Pattern) -> Option<Envelope> {
        let std::collections::hash_map::Entry::Occupied(mut entry) =
            self.by_pair.entry((pattern.src, pattern.tag))
        else {
            return None;
        };
        let env = entry
            .get_mut()
            .pop_front()
            .expect("queued FIFOs are non-empty");
        if entry.get().is_empty() {
            entry.remove();
        }
        self.len -= 1;
        Some(env)
    }
}

/// One rank's incoming-message store.
#[derive(Debug, Default)]
pub struct Mailbox {
    queue: Mutex<Queue>,
}

impl Mailbox {
    /// Creates an empty mailbox.
    #[must_use]
    pub fn new() -> Self {
        Mailbox::default()
    }

    /// Delivers an envelope (called from the sender's task).
    pub fn deliver(&self, env: Envelope) {
        self.queue.lock().push(env);
    }

    /// Non-blocking probe: removes and returns a match if one is queued.
    pub fn try_recv(&self, pattern: Pattern) -> Option<Envelope> {
        self.queue.lock().take(pattern)
    }

    /// True when a matching message is queued (does not remove it).
    /// The event scheduler's wakeup predicate.
    #[must_use]
    pub fn has_match(&self, pattern: Pattern) -> bool {
        self.queue.lock().contains(pattern)
    }

    /// Number of queued (unmatched) messages; used by shutdown checks to
    /// assert no message was silently dropped.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.lock().len
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
            costed: false,
            causal: 0,
        }
    }

    #[test]
    fn matches_by_src_and_tag() {
        let mb = Mailbox::new();
        mb.deliver(env(1, 10, b'a'));
        mb.deliver(env(2, 10, b'b'));
        mb.deliver(env(1, 20, b'c'));
        let got = mb.try_recv(Pattern { src: 2, tag: 10 }).unwrap();
        assert_eq!(got.payload.as_slice(), b"b");
        let got = mb.try_recv(Pattern { src: 1, tag: 20 }).unwrap();
        assert_eq!(got.payload.as_slice(), b"c");
        assert_eq!(mb.pending(), 1);
    }

    #[test]
    fn same_src_tag_is_fifo() {
        let mb = Mailbox::new();
        for b in [b'1', b'2', b'3'] {
            mb.deliver(env(0, 5, b));
        }
        for expect in [b'1', b'2', b'3'] {
            let got = mb.try_recv(Pattern { src: 0, tag: 5 }).unwrap();
            assert_eq!(got.payload.into_vec(), vec![expect]);
        }
    }

    #[test]
    fn try_recv_does_not_block() {
        let mb = Mailbox::new();
        assert!(mb.try_recv(Pattern { src: 0, tag: 1 }).is_none());
        mb.deliver(env(0, 1, b'z'));
        assert!(mb.try_recv(Pattern { src: 0, tag: 1 }).is_some());
        assert!(mb.try_recv(Pattern { src: 0, tag: 1 }).is_none());
    }

    #[test]
    fn has_match_probes_without_removing() {
        let mb = Mailbox::new();
        let pat = Pattern { src: 4, tag: 2 };
        assert!(!mb.has_match(pat));
        mb.deliver(env(4, 2, b'q'));
        assert!(mb.has_match(pat));
        assert!(!mb.has_match(Pattern { src: 5, tag: 2 }));
        assert!(!mb.has_match(Pattern { src: 4, tag: 3 }));
        assert_eq!(mb.pending(), 1, "has_match must not consume");
    }

    #[test]
    fn shared_payloads_alias_one_buffer() {
        let mb = Mailbox::new();
        let shared: Arc<[u8]> = b"plan".as_slice().into();
        for src in 0..3 {
            mb.deliver(Envelope {
                src,
                tag: 6,
                payload: Payload::Shared(Arc::clone(&shared)),
                depart: VTime::ZERO,
                costed: false,
                causal: 0,
            });
        }
        assert_eq!(Arc::strong_count(&shared), 4, "queued envelopes alias");
        for src in 0..3 {
            let got = mb.try_recv(Pattern { src, tag: 6 }).unwrap();
            assert_eq!(got.payload.into_vec(), b"plan");
        }
        assert_eq!(Arc::strong_count(&shared), 1);
    }

    #[test]
    fn interleaved_tags_and_sources_stay_in_sync() {
        let mb = Mailbox::new();
        mb.deliver(env(0, 1, b'a'));
        mb.deliver(env(1, 1, b'b'));
        mb.deliver(env(0, 2, b'x'));
        mb.deliver(env(0, 1, b'c'));
        // Each (src, tag) pair drains in its own delivery order,
        // whatever order the pairs are received in.
        let order: Vec<u8> = [(1, 1), (0, 1), (0, 2), (0, 1)]
            .into_iter()
            .map(|(src, tag)| {
                mb.try_recv(Pattern { src, tag })
                    .unwrap()
                    .payload
                    .into_vec()[0]
            })
            .collect();
        assert_eq!(order, b"baxc");
        assert_eq!(mb.pending(), 0);
    }
}
