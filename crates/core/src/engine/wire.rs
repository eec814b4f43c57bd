//! Message codecs for the round engine: the header messages of the
//! one-sided shuffle and the per-round fact records the root prices.
//!
//! A shuffle's bytes never travel in a message: aggregators copy each
//! section straight between its owner's exposed buffer and the file
//! window (`super::rounds`). What each sender still sends each
//! receiver is one header message,
//! `[n_sections]{domain, n_pieces, {off,len}*}`, with the section count
//! known from the schedule and written first. Under a crash plan an
//! 8-byte FNV-1a seal follows: the hash of the two-sided payload the
//! message stands for, `[n_sections]{domain, n_pieces, {off,len}*,
//! bytes}`, so both ends compute it over the headers and the section
//! bytes they copy, in section order. That payload's length is the
//! message's *wire length*
//! ([`SendDst::payload_bytes`](crate::schedule::SendDst::payload_bytes)):
//! the traffic counters and the causal hook see it, so traffic, blame
//! chains and virtual time are what a two-sided shuffle produces.

use mccio_mpiio::Extent;
use mccio_net::wire::{put_u64, Reader};
use mccio_pfs::{RetryLog, ServerLoad, ServiceReport};
use mccio_sim::hash::Fnv1a;
use mccio_sim::time::VDuration;

use super::pool::BufferPool;
use crate::schedule::SendDst;

/// Bytes the seal adds to a header message under a crash plan.
pub(crate) const CHECKSUM_TRAILER: usize = 8;

/// The header messages of one round and direction, one per scheduled
/// destination: each opens with its section count, then each section's
/// headers, then (under a crash plan) the seal. Buffers come from the
/// pool, sized exactly by the schedule.
pub(super) struct Headers {
    /// `(destination, wire length, message)`, as the exchange sends them.
    msgs: Vec<(usize, u64, Vec<u8>)>,
    /// Each message's running seal; empty unless sealed.
    seals: Vec<Fnv1a>,
}

impl Headers {
    /// Opens one message per destination of `dsts`.
    pub(super) fn new(dsts: &[SendDst], pool: &BufferPool, sealed: bool) -> Self {
        let msgs: Vec<_> = dsts
            .iter()
            .map(|d| {
                let mut buf = pool.take(d.header_bytes);
                put_u64(&mut buf, d.sections);
                (d.rank, d.payload_bytes as u64, buf)
            })
            .collect();
        let seals = if sealed {
            msgs.iter()
                .map(|(_, _, buf)| {
                    let mut h = Fnv1a::new();
                    h.write(buf);
                    h
                })
                .collect()
        } else {
            Vec::new()
        };
        Headers { msgs, seals }
    }

    /// Appends a section's headers, `domain` and its `pieces`, to the
    /// message in `slot`.
    pub(super) fn section(
        &mut self,
        slot: usize,
        domain: usize,
        pieces: impl ExactSizeIterator<Item = Extent>,
    ) {
        let buf = &mut self.msgs[slot].2;
        let at = buf.len();
        put_u64(buf, domain as u64);
        put_u64(buf, pieces.len() as u64);
        for e in pieces {
            put_u64(buf, e.offset);
            put_u64(buf, e.len);
        }
        if let Some(h) = self.seals.get_mut(slot) {
            h.write(&buf[at..]);
        }
    }

    /// Folds the bytes of the last section in `slot`, in order, into
    /// its seal.
    pub(super) fn fold(&mut self, slot: usize, bytes: &[u8]) {
        if let Some(h) = self.seals.get_mut(slot) {
            h.write(bytes);
        }
    }

    /// The finished messages, seals appended.
    pub(super) fn finish(mut self) -> Vec<(usize, u64, Vec<u8>)> {
        for ((_, _, buf), h) in self.msgs.iter_mut().zip(self.seals) {
            put_u64(buf, h.finish());
        }
        self.msgs
    }
}

/// Walks one received header message against the schedule. The
/// receiver knows what each sender sends, so nothing is decoded: each
/// [`Sections::take`] names the domain and pieces the schedule expects
/// next and checks the message agrees.
///
/// # Panics
/// When the message disagrees with the schedule — a wrong domain, piece
/// count or piece header, a missing, repeated or reordered section, or
/// (at [`Sections::finish`]) an unscheduled section, trailing bytes or
/// a seal that does not match the headers and the bytes folded in.
/// Inside the simulator that is an engine bug, never to be priced as
/// success.
pub(super) struct Sections<'p> {
    r: Reader<'p>,
    left: u64,
    /// One past the last domain taken: senders emit ascending domains.
    next: u64,
    /// The sender's seal and the hash so far, under a crash plan.
    seal: Option<(u64, Fnv1a)>,
}

impl<'p> Sections<'p> {
    /// Opens a received message, splitting off its seal when `sealed`.
    pub(super) fn new(msg: &'p [u8], sealed: bool) -> Self {
        let (body, seal) = if sealed {
            assert!(
                msg.len() >= CHECKSUM_TRAILER,
                "sealed message shorter than its seal"
            );
            let (body, trailer) = msg.split_at(msg.len() - CHECKSUM_TRAILER);
            let want = u64::from_le_bytes(trailer.try_into().expect("8-byte seal"));
            (body, Some((want, Fnv1a::new())))
        } else {
            (msg, None)
        };
        let mut s = Sections {
            r: Reader::new(body),
            left: 0,
            next: 0,
            seal,
        };
        s.left = s.word();
        s
    }

    /// Reads one header word, folding it into the seal.
    fn word(&mut self) -> u64 {
        let w = self.r.u64();
        self.fold(&w.to_le_bytes());
        w
    }

    /// The domain of the next section, or `None` after the last.
    pub(super) fn peek_domain(&self) -> Option<usize> {
        (self.left > 0).then(|| self.r.clone().u64() as usize)
    }

    /// Consumes the next section's headers, checking it is `domain`'s
    /// and carries exactly the headers of `pieces`. Its bytes are then
    /// copied one-sided, and [`Sections::fold`]ed in under a crash plan.
    pub(super) fn take(&mut self, domain: usize, pieces: impl ExactSizeIterator<Item = Extent>) {
        assert!(self.left > 0, "message lacks scheduled domain {domain}");
        self.left -= 1;
        let (got, n, want) = (self.word(), self.word(), pieces.len() as u64);
        assert!(
            got == domain as u64 && got >= self.next && n == want,
            "message section (domain {got}, {n} pieces) is not the scheduled \
             (domain {domain}, {want} pieces) in domain order"
        );
        self.next = got + 1;
        for e in pieces {
            let (offset, len) = (self.word(), self.word());
            assert!(
                offset == e.offset && len == e.len,
                "domain {domain} piece header ({offset}, {len}) disagrees with the scheduled {e:?}"
            );
        }
    }

    /// Folds the last section's bytes, in order, into the seal.
    pub(super) fn fold(&mut self, bytes: &[u8]) {
        if let Some((_, h)) = &mut self.seal {
            h.write(bytes);
        }
    }

    /// Asserts the message was consumed exactly and, under a crash
    /// plan, that its seal matches.
    ///
    /// # Panics
    /// On a seal mismatch, too: a replayed round that copied stale
    /// bytes must never be priced as success.
    pub(super) fn finish(self) {
        assert_eq!(
            self.left, 0,
            "message carries {} unscheduled sections",
            self.left
        );
        self.r.finish();
        if let Some((want, h)) = self.seal {
            assert_eq!(
                h.finish(),
                want,
                "end-to-end checksum mismatch: section bytes differ from what the sender sealed"
            );
        }
    }
}

/// Round facts each rank contributes to the root's pricing:
/// `[n_flows]{dst, bytes}` (flows this rank *sends*), `[2 × n_servers]`
/// then each server's `{bytes, requests}`, the bytes it assembled in
/// aggregation buffers, the retry activity it endured this round, and
/// the message seals it verified (crash-gated, zero otherwise). The
/// record rides `send_ctl`, whose traffic accounting counts messages
/// rather than bytes, so growing it never disturbs crash-free goldens.
/// Written into an exact-size buffer.
pub(super) fn encode_facts(
    flows: &[(usize, u64)],
    report: &ServiceReport,
    assembled: u64,
    retry: RetryLog,
    integrity: u64,
) -> Vec<u8> {
    let loads = report.loads();
    let size = 8 * (2 + 2 * flows.len() + 2 * loads.len() + 6);
    let mut buf = Vec::with_capacity(size);
    put_u64(&mut buf, flows.len() as u64);
    for &(dst, bytes) in flows {
        put_u64(&mut buf, dst as u64);
        put_u64(&mut buf, bytes);
    }
    put_u64(&mut buf, 2 * loads.len() as u64);
    for l in loads {
        put_u64(&mut buf, l.bytes);
        put_u64(&mut buf, l.requests);
    }
    put_u64(&mut buf, assembled);
    put_u64(&mut buf, retry.backoff.as_secs().to_bits());
    put_u64(&mut buf, retry.transient_faults);
    put_u64(&mut buf, retry.retries);
    put_u64(&mut buf, retry.exhausted);
    put_u64(&mut buf, integrity);
    debug_assert_eq!(buf.len(), size, "facts buffer sized exactly");
    buf
}

/// The scalar half of one rank's round facts; its flows and server
/// loads are handed to [`decode_facts`]'s callbacks instead of being
/// collected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct Facts {
    /// Bytes over all of the rank's server loads.
    pub(super) storage_bytes: u64,
    pub(super) assembled: u64,
    pub(super) retry: RetryLog,
    pub(super) integrity: u64,
}

/// Decodes one [`encode_facts`] record, passing each flow to `flow`
/// and each server's load to `load` as it is read; allocates nothing.
pub(super) fn decode_facts(
    buf: &[u8],
    mut flow: impl FnMut(usize, u64),
    mut load: impl FnMut(usize, ServerLoad),
) -> Facts {
    let mut r = Reader::new(buf);
    let n = r.u64();
    for _ in 0..n {
        let dst = r.u64() as usize;
        flow(dst, r.u64());
    }
    let n_words = r.u64();
    assert!(
        n_words.is_multiple_of(2),
        "server loads come in (bytes, requests) pairs"
    );
    let mut storage_bytes = 0;
    for server in 0..(n_words / 2) as usize {
        let bytes = r.u64();
        storage_bytes += bytes;
        load(
            server,
            ServerLoad {
                bytes,
                requests: r.u64(),
            },
        );
    }
    let assembled = r.u64();
    let retry = RetryLog {
        backoff: VDuration::from_secs(f64::from_bits(r.u64())),
        transient_faults: r.u64(),
        retries: r.u64(),
        exhausted: r.u64(),
    };
    let integrity = r.u64();
    r.finish();
    Facts {
        storage_bytes,
        assembled,
        retry,
        integrity,
    }
}

/// What `now` accumulated beyond the `before` snapshot.
pub(super) fn retry_delta(now: RetryLog, before: RetryLog) -> RetryLog {
    RetryLog {
        transient_faults: now.transient_faults - before.transient_faults,
        retries: now.retries - before.retries,
        backoff: VDuration::from_secs((now.backoff.as_secs() - before.backoff.as_secs()).max(0.0)),
        exhausted: now.exhausted - before.exhausted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sealed one-section message over `sent`, read back with
    /// `received` folded in as the section's bytes; returns the seal.
    fn seal_roundtrip(sent: &[u8], received: &[u8]) -> u64 {
        let dst = SendDst {
            rank: 0,
            sections: 1,
            payload_bytes: 0,
            header_bytes: 48,
        };
        let piece = [Extent::new(40, sent.len() as u64)];
        let mut h = Headers::new(&[dst], &BufferPool::default(), true);
        h.section(0, 3, piece.iter().copied());
        h.fold(0, sent);
        let msg = h.finish().remove(0).2;
        let mut s = Sections::new(&msg, true);
        s.take(3, piece.iter().copied());
        s.fold(received);
        s.finish();
        u64::from_le_bytes(msg[40..].try_into().unwrap())
    }

    #[test]
    fn the_seal_is_the_two_sided_payloads_hash() {
        let mut payload = Vec::new();
        for w in [1, 3, 1, 40, 5] {
            put_u64(&mut payload, w);
        }
        payload.extend_from_slice(&[1, 2, 3, 4, 5]);
        let seal = seal_roundtrip(&[1, 2, 3, 4, 5], &[1, 2, 3, 4, 5]);
        assert_eq!(seal, mccio_sim::hash::fnv1a(&payload));
    }

    #[test]
    #[should_panic(expected = "checksum mismatch")]
    fn stale_section_bytes_are_caught() {
        seal_roundtrip(&[9; 32], &[[9; 16], [0; 16]].concat());
    }

    #[test]
    fn facts_round_trip_flows_loads_and_scalars() {
        let mut report = ServiceReport::empty(3);
        report.add_request(1, 77);
        report.add_request(1, 5);
        report.add_request(2, 9);
        let retry = RetryLog {
            transient_faults: 2,
            retries: 3,
            backoff: VDuration::from_secs(0.125),
            exhausted: 1,
        };
        let flows = [(3, 100), (0, 7)];
        let buf = encode_facts(&flows, &report, 42, retry, 6);
        assert_eq!(buf.len(), 8 * (2 + 2 * 2 + 2 * 3 + 6));

        let mut got_flows = Vec::new();
        let mut rebuilt = ServiceReport::empty(3);
        let facts = decode_facts(
            &buf,
            |dst, bytes| got_flows.push((dst, bytes)),
            |server, load| rebuilt.add_load(server, load),
        );
        assert_eq!(got_flows, flows);
        assert_eq!(rebuilt, report);
        assert_eq!(
            facts,
            Facts {
                storage_bytes: 91,
                assembled: 42,
                retry,
                integrity: 6,
            }
        );
    }
}
