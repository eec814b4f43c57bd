//! Message causality: the blame-chain facts a message carries, the
//! frontier each rank owns, and the hook through which the network
//! layer reports deliveries to an observer.
//!
//! The network engine (`mccio-net`) cannot depend on the observability
//! crate (`mccio-obs`) — both sit directly above this crate — so the
//! types both need live here. `obs::causal` implements the hook and
//! walks chains; each rank's engine context holds the sink it was given
//! for its current operation and its own [`Frontier`] beside it.
//!
//! Contract, in causality order:
//!
//! 1. [`Frontier::send`] runs in the *sender's* context. It numbers the
//!    message with a **per-sender** sequence number (≥ 1) and snapshots
//!    the sender's frontier into an immutable [`Sent`] the engine puts
//!    in the envelope; `(src, seq)` is the edge's identity. Sequence
//!    numbers are per-sender — a global counter would be allocated in
//!    rank-schedule order and break determinism across explored
//!    schedules. Nothing shared is touched.
//! 2. [`Frontier::settle`] runs in the *receiver's* context when the
//!    matching receive settles the envelope, with the receiver's clock
//!    before and after the settlement rule (`clock = max(clock,
//!    arrival)`). It reports the delivery through
//!    [`CausalSink::on_delivery`]; `after > before` means the message
//!    *bound* the receiver's clock — a true happens-before edge on the
//!    critical path — and the receiver's frontier then holds a [`Bind`]
//!    to the sender's snapshot. `after == before` means the message
//!    arrived early and contributed only slack.
//!
//! Neither may advance any virtual clock: causal tracing is a pure side
//! channel, and the engine's priced times are bit-identical with
//! tracing on or off. A rank's frontier is a function of its own sends
//! and settlements alone, and a bind's predecessor comes from the
//! sender's snapshot, so chains do not depend on the rank schedule.

use std::sync::Arc;

use crate::time::VTime;

/// What a message carries about its sender: the sender's chain when it
/// sent, and the clock it sent at. The sender's open local-work segment
/// is `[work_from(), work_to]`.
pub struct Sent {
    /// The bind that last moved the sender's clock (`None` if nothing
    /// has since its frontier started).
    pub pred: Option<Bind>,
    /// Sending rank.
    pub src: u32,
    /// Per-sender sequence number (≥ 1).
    pub seq: u64,
    /// Wire bytes.
    pub bytes: u64,
    /// The sender's clock at the send.
    pub work_to: VTime,
}

impl Sent {
    /// Where the sender's open work segment began: the arrival of the
    /// bind that last moved its clock, or time zero.
    #[must_use]
    pub fn work_from(&self) -> VTime {
        self.pred.as_ref().map_or(VTime::ZERO, |b| b.arrive)
    }
}

impl std::fmt::Debug for Sent {
    /// The message's own fields only: its predecessor chain can be
    /// hundreds of thousands of links long.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (src, seq, bytes, at) = (self.src, self.seq, self.bytes, self.work_to);
        write!(f, "Sent({src}#{seq}, {bytes} B at {at:?})")
    }
}

impl Drop for Sent {
    /// Iterative predecessor teardown: a chain can be hundreds of
    /// thousands of links long, so the default recursive drop would
    /// overflow the stack. Links still shared (another frontier or a
    /// message in flight aliases the suffix) stop the walk.
    fn drop(&mut self) {
        let mut next = self.pred.take();
        while let Some(bind) = next {
            match Arc::try_unwrap(bind.sent) {
                Ok(mut sent) => next = sent.pred.take(),
                Err(_) => break,
            }
        }
    }
}

/// One link of a blame chain: the message `sent` bound receiver `dst`'s
/// clock at `arrive`. Its sender-side work is `[sent.work_from(),
/// sent.work_to]` and its in-flight edge `[sent.work_to, arrive]`.
#[derive(Debug, Clone)]
pub struct Bind {
    /// The binding message, with the sender's chain behind it.
    pub sent: Arc<Sent>,
    /// Receiving rank.
    pub dst: u32,
    /// The receiver's clock after the settle.
    pub arrive: VTime,
}

/// One rank's blame-chain frontier: the bind that last moved its clock,
/// and the sequence number of its last stamped send.
#[derive(Debug, Default)]
pub struct Frontier {
    head: Option<Bind>,
    next_seq: u64,
}

impl Frontier {
    /// The bind that last moved this rank's clock, if any: where a chain
    /// walk ending at this rank starts.
    #[must_use]
    pub fn head(&self) -> Option<&Bind> {
        self.head.as_ref()
    }

    /// Stamps a message of `bytes` leaving `src` at `clock`: the next
    /// per-sender sequence number and a snapshot of this frontier.
    pub fn send(&mut self, src: usize, clock: VTime, bytes: u64) -> Arc<Sent> {
        self.next_seq += 1;
        Arc::new(Sent {
            pred: self.head.clone(),
            src: src as u32,
            seq: self.next_seq,
            bytes,
            work_to: clock,
        })
    }

    /// Settles `sent` at `dst`, whose clock the settlement moved from
    /// `before` to `after`: reports the delivery to `sink` and, when the
    /// message bound the clock, makes it this frontier's head.
    pub fn settle(
        &mut self,
        sink: &dyn CausalSink,
        sent: Arc<Sent>,
        dst: usize,
        before: VTime,
        after: VTime,
    ) {
        let bound = after.as_secs() > before.as_secs();
        sink.on_delivery(&sent, dst, after, bound);
        if bound {
            self.head = Some(Bind {
                sent,
                dst: dst as u32,
                arrive: after,
            });
        }
    }
}

/// An observer of message-level causality; see the module docs for the
/// call contract. Implementations must be cheap: the hook sits on the
/// engine's per-message hot path.
pub trait CausalSink: Send + Sync + std::fmt::Debug {
    /// The message `sent` settled at `dst` with the receiver's clock at
    /// `arrive`; `bound` is true when it moved that clock.
    fn on_delivery(&self, sent: &Sent, dst: usize, arrive: VTime, bound: bool);
}
