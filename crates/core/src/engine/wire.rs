//! Message codecs for the round engine: shuffle-section payloads and
//! the per-round fact records the root prices.
//!
//! Message layout: `[n_sections]{domain, n_pieces, {off,len}*, bytes}`.
//! Senders know their section counts from the communication schedule
//! (`crate::schedule`), so payloads are written straight through into
//! exact-size buffers — the count goes first, sections append behind
//! it.

use mccio_mpiio::{Extent, ExtentList};
use mccio_net::wire::{put_u64, Reader};
use mccio_pfs::{RetryLog, ServerLoad, ServiceReport};
use mccio_sim::hash::fnv1a;
use mccio_sim::time::VDuration;

/// Appends one section (`domain`, the clipped extents, their bytes
/// produced by `bytes_of`) to an in-progress payload carrying its
/// scheduled section count up front.
pub(super) fn append_section<'p>(
    buf: &mut Vec<u8>,
    domain: u64,
    pieces: &ExtentList,
    bytes_of: impl Fn(Extent) -> &'p [u8],
) {
    put_u64(buf, domain);
    put_u64(buf, pieces.len() as u64);
    for e in pieces.as_slice() {
        put_u64(buf, e.offset);
        put_u64(buf, e.len);
    }
    for &e in pieces.as_slice() {
        buf.extend_from_slice(bytes_of(e));
    }
}

/// Bytes the end-to-end checksum trailer adds to a sealed payload.
pub(crate) const CHECKSUM_TRAILER: usize = 8;

/// Seals a fully-encoded shuffle payload with its FNV-1a trailer. Only
/// called when the fault plan schedules crashes (the schedule sized the
/// payload for the extra [`CHECKSUM_TRAILER`] bytes).
pub(super) fn seal_payload(buf: &mut Vec<u8>) {
    let h = fnv1a(buf);
    put_u64(buf, h);
}

/// Verifies and strips a sealed payload's trailer, returning the body.
///
/// # Panics
/// Panics on checksum mismatch: inside the simulator a corrupt payload
/// can only mean an engine bug (a replayed round delivering stale
/// bytes), and that must never be silently priced as success.
fn verify_payload(payload: &[u8]) -> &[u8] {
    assert!(
        payload.len() >= CHECKSUM_TRAILER,
        "sealed payload shorter than its trailer"
    );
    let (body, trailer) = payload.split_at(payload.len() - CHECKSUM_TRAILER);
    let want = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
    let got = fnv1a(body);
    assert_eq!(
        got, want,
        "end-to-end checksum mismatch: payload corrupted in flight"
    );
    body
}

/// Walks one received shuffle payload against the schedule. The
/// receiver knows what each sender put on the wire, so nothing is
/// decoded: each [`Sections::take`] names the domain and pieces the
/// schedule expects next and borrows back the section's packed bytes.
///
/// # Panics
/// When the payload disagrees with the schedule — a wrong domain, piece
/// count or piece header, a missing, repeated or reordered section, or
/// (at [`Sections::finish`]) an unscheduled section or trailing bytes.
/// Inside the simulator that is an engine bug, never to be priced as
/// success.
pub(super) struct Sections<'p> {
    r: Reader<'p>,
    left: u64,
    /// One past the last domain taken: senders emit ascending domains.
    next: u64,
}

impl<'p> Sections<'p> {
    /// Opens a received payload, verifying and stripping its checksum
    /// trailer first when it is `sealed`.
    pub(super) fn new(payload: &'p [u8], sealed: bool) -> Self {
        let mut r = Reader::new(if sealed {
            verify_payload(payload)
        } else {
            payload
        });
        let left = r.u64();
        Sections { r, left, next: 0 }
    }

    /// The domain of the next section, or `None` after the last.
    pub(super) fn peek_domain(&self) -> Option<usize> {
        (self.left > 0).then(|| self.r.clone().u64() as usize)
    }

    /// Consumes the next section, checking it is `domain`'s and carries
    /// exactly the headers of `pieces`; returns the pieces' bytes,
    /// packed in order.
    pub(super) fn take(
        &mut self,
        domain: usize,
        pieces: impl ExactSizeIterator<Item = Extent>,
    ) -> &'p [u8] {
        assert!(self.left > 0, "payload lacks scheduled domain {domain}");
        self.left -= 1;
        let (got, n, want) = (self.r.u64(), self.r.u64(), pieces.len() as u64);
        assert!(
            got == domain as u64 && got >= self.next && n == want,
            "payload section (domain {got}, {n} pieces) is not the scheduled \
             (domain {domain}, {want} pieces) in domain order"
        );
        self.next = got + 1;
        let mut bytes = 0;
        for e in pieces {
            let (offset, len) = (self.r.u64(), self.r.u64());
            assert!(
                offset == e.offset && len == e.len,
                "domain {domain} piece header ({offset}, {len}) disagrees with the scheduled {e:?}"
            );
            bytes += len;
        }
        self.r.bytes(bytes as usize)
    }

    /// Asserts the payload was consumed exactly.
    pub(super) fn finish(self) {
        assert_eq!(
            self.left, 0,
            "payload carries {} unscheduled sections",
            self.left
        );
        self.r.finish();
    }
}

/// Round facts each rank contributes to the root's pricing:
/// `[n_flows]{dst, bytes}` (flows this rank *sends*), `[2 × n_servers]`
/// then each server's `{bytes, requests}`, the bytes it assembled in
/// aggregation buffers, the retry activity it endured this round, and
/// the payload checksums it verified (crash-gated, zero otherwise). The
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
    fn sealed_payload_roundtrips() {
        let mut buf = vec![1u8, 2, 3, 4, 5];
        seal_payload(&mut buf);
        assert_eq!(buf.len(), 5 + CHECKSUM_TRAILER);
        assert_eq!(verify_payload(&buf), &[1, 2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "checksum mismatch")]
    fn corrupted_payload_is_caught() {
        let mut buf = vec![9u8; 32];
        seal_payload(&mut buf);
        buf[4] ^= 0xFF;
        let _ = verify_payload(&buf);
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
