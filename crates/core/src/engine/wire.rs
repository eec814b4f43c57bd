//! Message codecs for the round engine: the header messages of the
//! one-sided shuffle and the per-round fact records the root prices.
//!
//! A shuffle's bytes never travel in a message: aggregators copy each
//! section straight between its owner's exposed buffer and the file
//! window (`super::rounds`). What each sender still sends each
//! receiver is one header message,
//! `[n_sections]{domain, n_pieces, {off,len}*}`, encoded once per
//! schedule ([`CommSchedule::header`]) and sent as a slice of that
//! encoding. The schedule is symmetric: a client's message to an
//! aggregator is byte for byte the aggregator's message back to that
//! client, so each receiver checks a message by comparing it with its
//! own encoding for that peer ([`check_messages`]).
//!
//! Under a crash plan the sender copies its message and appends an
//! 8-byte FNV-1a seal: the hash of the two-sided payload the message
//! stands for, `[n_sections]{domain, n_pieces, {off,len}*, bytes}`, so
//! both ends compute it ([`Sealer`]) over their own copy of the headers
//! and the section bytes they copy, in section order. That payload's
//! length is the message's *wire length* ([`SendDst::payload_bytes`]):
//! the traffic counters and the causal stamp see it, so traffic, blame
//! chains and virtual time are what a two-sided shuffle produces.

use mccio_net::mailbox::Payload;
use mccio_net::wire::{put_u64, Reader};
use mccio_pfs::{RetryLog, ServerLoad, ServiceReport};
use mccio_sim::hash::Fnv1a;
use mccio_sim::time::VDuration;

use crate::schedule::{CommSchedule, SendDst};

/// Bytes the seal adds to a header message under a crash plan.
pub(crate) const CHECKSUM_TRAILER: usize = 8;

/// The running seal of one header message, fed the message's own
/// headers a section at a time ([`Sealer::section`]) and each section's
/// bytes after them ([`Sealer::bytes`]).
pub(super) struct Sealer<'h> {
    header: &'h [u8],
    /// Start of the next section's headers in `header`.
    at: usize,
    hash: Fnv1a,
}

impl<'h> Sealer<'h> {
    /// Starts the seal of `header`, folding in its section count.
    pub(super) fn new(header: &'h [u8]) -> Self {
        let mut hash = Fnv1a::new();
        hash.write(&header[..8]);
        Sealer {
            header,
            at: 8,
            hash,
        }
    }

    /// Folds in the next section's headers: its domain, piece count and
    /// piece headers.
    pub(super) fn section(&mut self) {
        let mut r = Reader::new(&self.header[self.at..]);
        let (_domain, n_pieces) = (r.u64(), r.u64());
        let end = self.at + 16 + 16 * n_pieces as usize;
        self.hash.write(&self.header[self.at..end]);
        self.at = end;
    }

    /// Folds in bytes of the current section, in order.
    pub(super) fn bytes(&mut self, bytes: &[u8]) {
        self.hash.write(bytes);
    }

    /// The seal, once every section is folded in.
    pub(super) fn finish(self) -> u64 {
        debug_assert_eq!(self.at, self.header.len(), "a section was not sealed");
        self.hash.finish()
    }
}

/// One [`Sealer`] per destination of `dsts` under a crash plan, fed
/// each section's bytes in order from `sections`, `(slot in dsts,
/// bytes)`; none otherwise, and `sections` is not read.
pub(super) fn sealers<'s, 'b>(
    schedule: &'s CommSchedule,
    dsts: &[SendDst],
    sealed: bool,
    sections: impl IntoIterator<Item = (usize, &'b [u8])>,
) -> Vec<Sealer<'s>> {
    if !sealed {
        return Vec::new();
    }
    let mut seals: Vec<_> = dsts
        .iter()
        .map(|d| Sealer::new(schedule.header(d)))
        .collect();
    for (slot, bytes) in sections {
        seals[slot].section();
        seals[slot].bytes(bytes);
    }
    seals
}

/// The header messages to `dsts` as the exchange sends them, each
/// accounted at its wire length: a slice of the schedule's encoding,
/// or, when `seals` holds one sealer per destination, a copy with the
/// seal appended.
pub(super) fn messages(
    schedule: &CommSchedule,
    dsts: &[SendDst],
    seals: Vec<Sealer<'_>>,
) -> Vec<(usize, u64, Payload)> {
    let mut seals = seals.into_iter();
    dsts.iter()
        .map(|d| {
            let msg = match seals.next() {
                None => schedule.header_payload(d),
                Some(seal) => {
                    let mut msg = Vec::with_capacity(d.header_bytes);
                    msg.extend_from_slice(schedule.header(d));
                    put_u64(&mut msg, seal.finish());
                    msg.into()
                }
            };
            (d.rank, d.payload_bytes as u64, msg)
        })
        .collect()
}

/// Checks the header messages rank `me` received in `round`. `received`
/// is in ascending source order, one message from each rank of `dsts`,
/// and each must equal `me`'s own encoding of its message to that rank.
/// Under a crash plan (`seals` holds one sealer per destination, fed
/// the bytes `me` lands or landed) each message's seal must match too.
///
/// # Panics
/// On the first message that differs, naming the sender, the receiver,
/// the round and the first differing 8-byte word; or on a seal
/// mismatch. Inside the simulator either is an engine bug, never to be
/// priced as success.
pub(super) fn check_messages(
    schedule: &CommSchedule,
    dsts: &[SendDst],
    received: &[(usize, Payload)],
    seals: Vec<Sealer<'_>>,
    me: usize,
    round: usize,
) {
    assert_eq!(received.len(), dsts.len(), "one message per scheduled peer");
    let mut seals = seals.into_iter();
    for d in dsts {
        let i = received
            .binary_search_by_key(&d.rank, |&(src, _)| src)
            .expect("a message from every scheduled peer");
        let msg = received[i].1.as_slice();
        let seal = seals.next();
        let trailer = if seal.is_some() { CHECKSUM_TRAILER } else { 0 };
        let (body, trailer) = msg.split_at(msg.len().saturating_sub(trailer));
        check_header(body, schedule.header(d), d.rank, me, round);
        if let Some(seal) = seal {
            assert!(
                trailer == seal.finish().to_le_bytes(),
                "rank {me}'s round {round} header from rank {}: end-to-end checksum \
                 mismatch: section bytes differ from what the sender sealed",
                d.rank
            );
        }
    }
}

/// Panics unless `got`, the header rank `src` sent rank `me` in
/// `round`, is byte for byte `want`, `me`'s encoding of it.
fn check_header(got: &[u8], want: &[u8], src: usize, me: usize, round: usize) {
    if got == want {
        return;
    }
    let at = got
        .chunks(8)
        .zip(want.chunks(8))
        .position(|(g, w)| g != w)
        .unwrap_or(got.len().min(want.len()) / 8);
    let word = |m: &[u8]| match m.chunks(8).nth(at) {
        Some(w) if w.len() == 8 => {
            format!("{:#x}", u64::from_le_bytes(w.try_into().expect("8 bytes")))
        }
        Some(w) => format!("{} trailing bytes", w.len()),
        None => "the end".to_string(),
    };
    panic!(
        "rank {me}'s round {round} header from rank {src} differs from its schedule at word \
         {at}: got {}, expected {}",
        word(got),
        word(want)
    );
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

    #[test]
    fn the_seal_is_the_two_sided_payloads_hash() {
        let mut header = Vec::new();
        for w in [1, 3, 1, 40, 5] {
            put_u64(&mut header, w);
        }
        let mut seal = Sealer::new(&header);
        seal.section();
        seal.bytes(&[1, 2, 3]);
        seal.bytes(&[4, 5]);
        let mut payload = header.clone();
        payload.extend_from_slice(&[1, 2, 3, 4, 5]);
        assert_eq!(seal.finish(), mccio_sim::hash::fnv1a(&payload));
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
