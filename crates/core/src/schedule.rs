//! Plan-time communication schedule: everything the round loop would
//! otherwise rediscover each round, computed once per collective
//! operation.
//!
//! Given a `(CollectivePlan, GroupPattern)` pair, who sends which bytes
//! to whom in round `r` is fully determined before the first byte
//! moves. The legacy round loop nevertheless rescanned all group
//! members against all active windows on every rank every round
//! (`O(members × windows)` even on ranks that aggregate nothing),
//! re-normalized window unions, and rebuilt packed layouts. The
//! [`CommSchedule`] front-loads all of it:
//!
//! * per round, this rank's **client sends** — destination aggregators
//!   in first-touch order with exact message and wire lengths, and
//!   where each window's bytes sit in this rank's buffer
//!   ([`ClientWindow`]);
//! * per round, the windows this rank **aggregates** — contributing
//!   ranks with their clipped extents, the precomputed union
//!   [`ExtentList`], its packed-buffer layout, and the assembly-buffer
//!   size ([`WindowSchedule`]);
//! * both **receive lists**: who sends to this aggregator (write) and
//!   which aggregators cover this client (read);
//! * every **header message** the rank sends, encoded once into one
//!   buffer ([`CommSchedule::header`]). The encoding is symmetric: a
//!   client's header to an aggregator is byte for byte that
//!   aggregator's header back to the client, so a receiver checks a
//!   message by comparing it with its own.
//!
//! The round executor (`crate::engine`) then reduces to a pure
//! data-movement loop. Virtual time is unaffected by construction: the
//! schedule reproduces exactly the per-round flow lists, storage
//! shapes, and assembly volumes the legacy discovery produced, in the
//! same order — `tests/golden_determinism.rs` pins this to the bit.
//!
//! Candidate contributors are prefiltered per *domain* (once per
//! operation), so each round's aggregator-side work touches only ranks
//! whose requests can intersect the domain at all — the schedule build
//! is `O(rounds × (my windows + my domains' candidates))`, not
//! `O(rounds × members × windows)`.

use std::ops::Range;
use std::sync::Arc;

use mccio_mpiio::{Extent, ExtentList, GroupPattern, SieveConfig};
use mccio_net::mailbox::Payload;

use crate::plan::{CollectivePlan, PlanIndex};

/// Wire cost of one section header: domain word + piece-count word.
const SECTION_HEADER: usize = 16;
/// Wire cost of one piece header: offset word + length word.
const PIECE_HEADER: usize = 16;
/// Wire cost of the leading section-count word.
const COUNT_WORD: usize = 8;

/// One send destination of a round: the peer rank, two lengths, and
/// where the message's headers sit in the schedule's encoding
/// ([`CommSchedule::header`]), which opens with their section count. The
/// message carries only the section headers: the bytes move one-sided,
/// between their owner's exposed buffer and the file window. It is
/// accounted at [`SendDst::payload_bytes`], the length of the two-sided
/// payload that would also have carried the bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendDst {
    /// Destination rank.
    pub rank: usize,
    /// Wire length: headers plus the sections' bytes.
    pub payload_bytes: usize,
    /// Exact length of the message sent: the section count, every
    /// section and piece header, and the seal under a crash plan.
    pub header_bytes: usize,
    /// The message's encoded headers in [`CommSchedule::header`]'s
    /// buffer: `header_bytes` without the seal.
    pub header: Range<usize>,
}

/// Adds one section of `n_pieces` pieces and `bytes` data bytes to the
/// message for `rank`, creating the destination on first touch, and
/// returns its slot in `dsts`. `trailer` is the per-message seal (0
/// when integrity is off, [`crate::engine::CHECKSUM_TRAILER`] under a
/// crash plan), baked into both lengths at creation. The header range
/// is placed once the round is complete ([`Encoder::place`]).
fn add_section(
    dsts: &mut Vec<SendDst>,
    rank: usize,
    trailer: usize,
    n_pieces: usize,
    bytes: u64,
) -> usize {
    let slot = dsts.iter().position(|d| d.rank == rank).unwrap_or_else(|| {
        dsts.push(SendDst {
            rank,
            payload_bytes: COUNT_WORD + trailer,
            header_bytes: COUNT_WORD + trailer,
            header: 0..0,
        });
        dsts.len() - 1
    });
    let d = &mut dsts[slot];
    d.header_bytes += SECTION_HEADER + PIECE_HEADER * n_pieces;
    d.payload_bytes += SECTION_HEADER + PIECE_HEADER * n_pieces + bytes as usize;
    slot
}

/// Writes a schedule's header messages into its one buffer, in the wire
/// format `[n_sections]{domain, n_pieces, {off,len}*}`: each
/// destination's count word where [`Encoder::place`] puts it, then each
/// section at the end of its destination's range, which grows as
/// sections are appended, each counted as it is.
struct Encoder<'b> {
    buf: &'b mut [u8],
    at: usize,
}

impl Encoder<'_> {
    /// Gives each destination of `dsts` the next range of the buffer,
    /// its count word zeroed and room for its sections after it.
    fn place(&mut self, dsts: &mut [SendDst], trailer: usize) {
        for d in dsts {
            let start = self.at;
            self.at += d.header_bytes - trailer;
            d.header = start..start + 8;
        }
    }

    /// Appends the word `w` to `d`'s message.
    fn word(&mut self, d: &mut SendDst, w: u64) {
        let at = d.header.end;
        self.buf[at..at + 8].copy_from_slice(&w.to_le_bytes());
        d.header.end += 8;
    }

    /// Adds `n` to the word at `at`.
    fn bump(&mut self, at: usize, n: u64) {
        let w = &mut self.buf[at..at + 8];
        let v = u64::from_le_bytes((&*w).try_into().expect("8 bytes")) + n;
        w.copy_from_slice(&v.to_le_bytes());
    }

    /// Appends a section, `domain` and its `pieces`, to `d`'s message.
    fn section(&mut self, d: &mut SendDst, domain: usize, pieces: impl Iterator<Item = Extent>) {
        self.bump(d.header.start, 1);
        self.word(d, domain as u64);
        let count_at = d.header.end;
        self.word(d, 0);
        for e in pieces {
            self.word(d, e.offset);
            self.word(d, e.len);
        }
        let n_pieces = (d.header.end - count_at - 8) / PIECE_HEADER;
        self.bump(count_at, n_pieces as u64);
    }
}

/// One active window this rank contributes to as a client in the write
/// direction: where its bytes go and where they sit. The pieces are
/// announced in the encoded header message to [`ClientWindow::dst`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientWindow {
    /// Index of the window's domain in the plan.
    pub domain: usize,
    /// Slot into the round's [`RoundSchedule::client_dsts`].
    pub dst: usize,
    /// Bytes this rank ships for this window (the priced flow).
    pub bytes: u64,
    /// Start of the window's bytes in this rank's packed buffer: they
    /// are the one run `[packed, packed + bytes)` there.
    pub packed: u64,
}

/// One contributing rank within an aggregated window: its clipped
/// extents, where their bytes sit in its packed buffer, and (for the
/// read direction) which header message they are announced in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankPieces {
    /// The contributing (write) / requesting (read) rank.
    pub rank: usize,
    /// Slot into the round's [`RoundSchedule::agg_dsts`].
    pub dst: usize,
    /// Bytes of this rank inside the window (the priced read flow).
    pub bytes: u64,
    /// Start of the pieces' bytes in the rank's packed buffer: they are
    /// the one run `[packed, packed + bytes)` there.
    pub packed: u64,
    /// The rank's extents clipped to the window.
    pub pieces: ExtentList,
}

/// One window this rank aggregates in a round, with its precomputed
/// assembly shape: the union extent list, its packed-buffer layout, and
/// the buffer size the assembly needs.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSchedule {
    /// Index of the window's domain in the plan.
    pub domain: usize,
    /// The file window serviced this round.
    pub window: Extent,
    /// Contributing ranks in ascending order with their clipped pieces.
    pub per_rank: Vec<RankPieces>,
    /// Union of every contributor's pieces — the shape of the one
    /// sieved storage access this window issues.
    pub union: ExtentList,
    /// Assembly-buffer bytes (`union.total_bytes()`), the volume priced
    /// as aggregation-memory traffic.
    pub assembly_bytes: u64,
    /// Packed-buffer cumulative offsets of `union`.
    cum: Vec<u64>,
    /// The window's file-order walk, when it has one
    /// ([`WindowSchedule::walk`]).
    walk: Option<Box<[u16]>>,
}

impl WindowSchedule {
    /// Position of file byte `off` in the window's packed assembly
    /// buffer. `off` must be covered by the union.
    #[must_use]
    pub fn position(&self, off: u64) -> usize {
        let slice = self.union.as_slice();
        let idx = slice.partition_point(|e| e.end() <= off);
        let e = &slice[idx];
        debug_assert!(e.contains(off), "offset {off} outside window layout");
        (self.cum[idx] + (off - e.offset)) as usize
    }

    /// The window's file-order walk: each piece's contributor, as an
    /// index into [`WindowSchedule::per_rank`], in offset order. Taking
    /// each contributor's pieces in turn, in walk order, lays the span
    /// front to back. A window has one when its union is one span, its
    /// contributors' pieces tile it without overlap, and it has at most
    /// 65,536 contributors; otherwise `None`.
    #[must_use]
    pub fn walk(&self) -> Option<&[u16]> {
        self.walk.as_deref()
    }

    /// The sieve configuration of this window's storage access: one
    /// covering access sized to the window.
    #[must_use]
    pub fn sieve(&self) -> SieveConfig {
        SieveConfig {
            buffer_size: self.window.len.max(1),
        }
    }
}

/// Everything one rank does in one round, precomputed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RoundSchedule {
    /// Write-direction destinations in first-touch (domain) order.
    pub client_dsts: Vec<SendDst>,
    /// This rank's contributions per active window, in domain order.
    pub client_windows: Vec<ClientWindow>,
    /// Windows this rank aggregates, in domain order.
    pub agg_windows: Vec<WindowSchedule>,
    /// Read-direction scatter destinations in first-touch order.
    pub agg_dsts: Vec<SendDst>,
    /// Write-direction receive list: ranks whose data falls in a window
    /// this rank aggregates, ascending.
    pub agg_sources: Vec<usize>,
    /// Read-direction receive list: the aggregators of windows covering
    /// this rank's request, ascending.
    pub client_sources: Vec<usize>,
}

/// The complete per-rank communication schedule of one collective
/// operation: one [`RoundSchedule`] per lock-step round, the
/// aggregation buffers the rank reserves for the whole operation, and
/// every header message the rank sends, encoded once.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CommSchedule {
    /// Per-round schedules, index = round number.
    pub rounds: Vec<RoundSchedule>,
    /// Buffer bytes of every domain this rank aggregates, in domain
    /// order — the prologue's reservation demands.
    pub buffers: Vec<u64>,
    /// Every round's header messages, back to back; each [`SendDst`]
    /// names its range.
    headers: Arc<[u8]>,
}

/// Asserts that rank `me`'s client windows tile its packed buffer
/// `[0, total)`: every byte in exactly one window. On a read, each
/// window's aggregator fills exactly that window's run of the output,
/// so this is what proves every output byte is written once. The
/// windows are disjoint — each domain's are, and an executed plan's
/// domains are (`CollectivePlan::assert_invariants`) — so covering
/// `total` bytes is tiling them.
fn assert_tiles(rounds: &[RoundSchedule], me: usize, total: u64) {
    let covered: u64 = rounds
        .iter()
        .flat_map(|r| &r.client_windows)
        .map(|cw| cw.bytes)
        .sum();
    assert!(
        covered == total,
        "rank {me}'s client windows do not tile its {total} packed bytes: they cover {covered}"
    );
}

/// A window's union and its walk ([`WindowSchedule::walk`]), from one
/// sort of its `pieces`, each tagged with its contributor's index among
/// the window's `contributors`.
fn union_and_walk(
    mut pieces: Vec<(Extent, usize)>,
    contributors: usize,
) -> (ExtentList, Option<Box<[u16]>>) {
    pieces.sort_unstable_by_key(|&(e, _)| e.offset);
    let mut union: Vec<Extent> = Vec::new();
    // Whether each piece starts where the one before it ends.
    let mut tiled = contributors <= 1 << 16;
    for &(e, _) in &pieces {
        match union.last_mut() {
            Some(last) if e.offset <= last.end() => {
                tiled &= e.offset == last.end();
                last.len = last.end().max(e.end()) - last.offset;
            }
            _ => union.push(e),
        }
    }
    let walk = (tiled && union.len() == 1).then(|| pieces.iter().map(|&(_, i)| i as u16).collect());
    (ExtentList::from_sorted(union), walk)
}

/// Encodes every header message of `rounds` into one buffer, allocated
/// once at its exact length, and sets each destination's range. A
/// client section's pieces are its request clipped to the window again
/// (the schedule keeps only their run); an aggregator's are the
/// contributor's clipped pieces it keeps for landing.
fn encode_headers(
    plan: &CollectivePlan,
    my_extents: &ExtentList,
    rounds: &mut [RoundSchedule],
    trailer: usize,
) -> Arc<[u8]> {
    let total: usize = rounds
        .iter()
        .flat_map(|rs| rs.client_dsts.iter().chain(&rs.agg_dsts))
        .map(|d| d.header_bytes - trailer)
        .sum();
    // Collected from an iterator of known length: one allocation.
    let mut headers: Arc<[u8]> = std::iter::repeat_n(0, total).collect();
    let mut enc = Encoder {
        buf: Arc::get_mut(&mut headers).expect("a fresh buffer is unique"),
        at: 0,
    };
    for (round, rs) in rounds.iter_mut().enumerate() {
        enc.place(&mut rs.client_dsts, trailer);
        enc.place(&mut rs.agg_dsts, trailer);
        for cw in &rs.client_windows {
            let w = plan.domains[cw.domain]
                .window(round as u64)
                .expect("a client window is active");
            let pieces = my_extents.clip_indexed(w).map(|(_, piece)| piece);
            enc.section(&mut rs.client_dsts[cw.dst], cw.domain, pieces);
        }
        for ws in &rs.agg_windows {
            for rp in &ws.per_rank {
                let pieces = rp.pieces.as_slice().iter().copied();
                enc.section(&mut rs.agg_dsts[rp.dst], ws.domain, pieces);
            }
        }
        let filled = |d: &SendDst| d.header.len() == d.header_bytes - trailer;
        debug_assert!(rs.client_dsts.iter().chain(&rs.agg_dsts).all(filled));
    }
    debug_assert_eq!(enc.at, total);
    headers
}

impl CommSchedule {
    /// Builds rank `me`'s schedule for executing `plan` against
    /// `pattern`. `my_extents` is the rank's own request (what the
    /// engine is handed), `pattern` the gathered view the aggregator
    /// side works from; for group members the two agree.
    ///
    /// Pure — no communication, no clock movement — so callers may
    /// build and inspect schedules freely.
    #[must_use]
    pub fn build(
        plan: &CollectivePlan,
        pattern: &GroupPattern,
        me: usize,
        my_extents: &ExtentList,
    ) -> Self {
        let index = PlanIndex::of_rank(plan, me);
        Self::build_indexed(plan, &index, pattern, me, my_extents, false)
    }

    /// The one schedule builder. It reads the plan-wide facts from
    /// `index` (which must index `plan`, at least for `me`), so its cost
    /// depends on this rank's domains and request only. With `integrity`
    /// set, every scheduled message is sized for a trailing checksum
    /// word, matching what the engine's crash-gated sealing appends at
    /// encode time.
    ///
    /// # Panics
    /// Panics, naming `me`, unless the rank's client windows tile its
    /// packed buffer: a plan whose windows miss a requested byte.
    #[must_use]
    pub fn build_indexed(
        plan: &CollectivePlan,
        index: &PlanIndex,
        pattern: &GroupPattern,
        me: usize,
        my_extents: &ExtentList,
        integrity: bool,
    ) -> Self {
        let trailer = if integrity {
            crate::engine::CHECKSUM_TRAILER
        } else {
            0
        };
        let my_cum = my_extents.cumulative_offsets();
        // Contributor candidates per domain this rank aggregates,
        // prefiltered once against the whole domain so per-round clips
        // touch only ranks that can intersect it. Index-backed
        // ([`GroupPattern::ranks_touching`]): the candidate list is the
        // identical ascending set the old full-member scan produced,
        // found in `O(log n + k)` instead of `O(members)` per domain.
        let my_domains: Vec<(usize, Vec<usize>)> = index
            .domains_of(me)
            .map(|di| (di, pattern.ranks_touching(plan.domains[di].domain)))
            .collect();

        // Domains this rank's own request can intersect, ascending.
        // Iterating these per round instead of every active window skips
        // only windows whose clip would come back empty (a window is a
        // subset of its domain), so the emitted schedule is unchanged.
        let my_client_domains = plan.domains_overlapping(my_extents.as_slice());

        let n_rounds = index.rounds();
        let mut rounds = Vec::with_capacity(n_rounds as usize);
        for round in 0..n_rounds {
            let mut rs = RoundSchedule::default();

            // Client (write) side: clip this rank's request against
            // every active window; destinations in first-touch order.
            for (di, w) in my_client_domains
                .iter()
                .filter_map(|&di| plan.domains[di].window(round).map(|w| (di, w)))
            {
                let (mut n_pieces, mut bytes, mut packed) = (0, 0u64, 0u64);
                for (idx, piece) in my_extents.clip_indexed(w) {
                    if n_pieces == 0 {
                        let base = my_extents.as_slice()[idx];
                        packed = my_cum[idx] + (piece.offset - base.offset);
                    }
                    n_pieces += 1;
                    bytes += piece.len;
                }
                if n_pieces == 0 {
                    continue;
                }
                let agg = plan.domains[di].aggregator;
                let dst = add_section(&mut rs.client_dsts, agg, trailer, n_pieces, bytes);
                rs.client_windows.push(ClientWindow {
                    domain: di,
                    dst,
                    bytes,
                    packed,
                });
            }
            rs.client_sources = rs
                .client_windows
                .iter()
                .map(|c| plan.domains[c.domain].aggregator)
                .collect();
            rs.client_sources.sort_unstable();
            rs.client_sources.dedup();

            // Aggregator side: one WindowSchedule per active window this
            // rank owns, contributors clipped from the candidate lists.
            for (di, candidates) in &my_domains {
                let Some(w) = plan.domains[*di].window(round) else {
                    continue;
                };
                let mut shapes: Vec<(Extent, usize)> = Vec::new();
                let mut per_rank: Vec<RankPieces> = Vec::new();
                for &rank in candidates {
                    let (clipped, packed) = pattern.clip_packed(rank, w);
                    if clipped.is_empty() {
                        continue;
                    }
                    let i = per_rank.len();
                    shapes.extend(clipped.as_slice().iter().map(|&e| (e, i)));
                    let bytes = clipped.total_bytes();
                    let dst = add_section(&mut rs.agg_dsts, rank, trailer, clipped.len(), bytes);
                    per_rank.push(RankPieces {
                        rank,
                        dst,
                        bytes,
                        packed,
                        pieces: clipped,
                    });
                }
                if per_rank.is_empty() {
                    continue;
                }
                let (union, walk) = union_and_walk(shapes, per_rank.len());
                debug_assert!(union.end().unwrap_or(0) <= w.end());
                rs.agg_windows.push(WindowSchedule {
                    domain: *di,
                    window: w,
                    walk,
                    per_rank,
                    assembly_bytes: union.total_bytes(),
                    cum: union.cumulative_offsets(),
                    union,
                });
            }
            rs.agg_sources = rs
                .agg_windows
                .iter()
                .flat_map(|ws| ws.per_rank.iter().map(|p| p.rank))
                .collect();
            rs.agg_sources.sort_unstable();
            rs.agg_sources.dedup();

            rounds.push(rs);
        }
        assert_tiles(&rounds, me, my_extents.total_bytes());
        let headers = encode_headers(plan, my_extents, &mut rounds, trailer);
        CommSchedule {
            rounds,
            buffers: my_domains
                .iter()
                .map(|&(di, _)| plan.domains[di].buffer)
                .collect(),
            headers,
        }
    }

    /// The encoded header message to `dst`, a destination of one of
    /// this schedule's rounds, without its seal.
    #[must_use]
    pub fn header(&self, dst: &SendDst) -> &[u8] {
        &self.headers[dst.header.clone()]
    }

    /// The header message to `dst` as a payload: a slice of the
    /// schedule's encoding, shared, not copied.
    pub(crate) fn header_payload(&self, dst: &SendDst) -> Payload {
        Payload::Slice(Arc::clone(&self.headers), dst.header.clone())
    }

    /// Total bytes this rank ships as a client across all rounds.
    #[must_use]
    pub fn client_bytes(&self) -> u64 {
        self.rounds
            .iter()
            .flat_map(|r| r.client_windows.iter())
            .map(|c| c.bytes)
            .sum()
    }

    /// Total bytes this rank assembles as an aggregator across all
    /// rounds.
    #[must_use]
    pub fn assembled_bytes(&self) -> u64 {
        self.rounds
            .iter()
            .flat_map(|r| r.agg_windows.iter())
            .map(|w| w.assembly_bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::DomainPlan;
    use mccio_net::RankSet;

    fn pattern_of(per_rank: Vec<Vec<(u64, u64)>>) -> GroupPattern {
        let n = per_rank.len();
        GroupPattern::from_parts(
            RankSet::world(n),
            per_rank
                .into_iter()
                .map(|v| {
                    ExtentList::normalize(v.into_iter().map(|(o, l)| Extent::new(o, l)).collect())
                })
                .collect(),
        )
    }

    fn plan_of(domains: Vec<(u64, u64, usize, u64)>) -> CollectivePlan {
        CollectivePlan {
            domains: domains
                .into_iter()
                .map(|(off, len, agg, buffer)| DomainPlan {
                    domain: Extent::new(off, len),
                    aggregator: agg,
                    buffer,
                    group: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn schedule_routes_interleaved_pattern() {
        // Two ranks interleave 10-byte blocks over [0, 40); rank 0
        // aggregates [0, 20), rank 1 aggregates [20, 40), 10-byte
        // windows -> 2 rounds.
        let pattern = pattern_of(vec![vec![(0, 10), (20, 10)], vec![(10, 10), (30, 10)]]);
        let plan = plan_of(vec![(0, 20, 0, 10), (20, 20, 1, 10)]);
        let s0 = CommSchedule::build(&plan, &pattern, 0, &pattern.extents_of_rank(0).to_list());
        assert_eq!(s0.rounds.len(), 2);
        // Rank 0 reserves the buffer of the one domain it aggregates.
        assert_eq!(s0.buffers, vec![10]);
        // Round 0: windows [0,10) (agg 0) and [20,30) (agg 1); rank 0
        // owns both pieces.
        let r0 = &s0.rounds[0];
        assert_eq!(r0.client_dsts.len(), 2);
        assert_eq!(r0.client_dsts[0].rank, 0);
        assert_eq!(r0.client_dsts[1].rank, 1);
        assert_eq!(r0.client_windows.len(), 2);
        assert_eq!(r0.client_windows[0].bytes, 10);
        // Rank 0 aggregates [0,10): only rank 0 contributes there.
        assert_eq!(r0.agg_windows.len(), 1);
        assert_eq!(r0.agg_windows[0].per_rank.len(), 1);
        assert_eq!(r0.agg_windows[0].assembly_bytes, 10);
        assert_eq!(r0.agg_sources, vec![0]);
        assert_eq!(r0.client_sources, vec![0, 1]);
        // Round 1: windows [10,20) and [30,40); rank 1's data only.
        let r1 = &s0.rounds[1];
        assert!(r1.client_windows.is_empty());
        assert_eq!(r1.agg_windows.len(), 1);
        assert_eq!(r1.agg_windows[0].per_rank[0].rank, 1);
        assert!(r1.client_sources.is_empty());
    }

    #[test]
    fn payload_bytes_match_wire_format() {
        let pattern = pattern_of(vec![vec![(0, 5), (8, 4)], vec![]]);
        let plan = plan_of(vec![(0, 12, 1, 12)]);
        let s = CommSchedule::build(&plan, &pattern, 0, &pattern.extents_of_rank(0).to_list());
        let dst = &s.rounds[0].client_dsts[0];
        // count + (domain + n_pieces) + 2 piece headers + 9 data bytes.
        assert_eq!(dst.payload_bytes, 8 + 16 + 2 * 16 + 9);
        assert_eq!(dst.header_bytes, 8 + 16 + 2 * 16);
        // The encoded range is the message without a seal (none here).
        assert_eq!(dst.header.len(), dst.header_bytes);
        let words = [1u64, 0, 2, 0, 5, 8, 4].map(u64::to_le_bytes);
        assert_eq!(s.header(dst), words.as_flattened());
        // The aggregator's view prices the same volume.
        let s1 = CommSchedule::build(&plan, &pattern, 1, &pattern.extents_of_rank(1).to_list());
        let ws = &s1.rounds[0].agg_windows[0];
        assert_eq!(ws.assembly_bytes, 9);
        assert_eq!((ws.per_rank[0].bytes, ws.per_rank[0].packed), (9, 0));
        assert_eq!(ws.position(8), 5);
        assert_eq!(ws.sieve().buffer_size, 12);
        // The aggregator's header back is the same bytes.
        assert_eq!(s1.header(&s1.rounds[0].agg_dsts[0]), s.header(dst));
    }

    #[test]
    fn integrity_sizing_adds_one_trailer_per_payload() {
        let pattern = pattern_of(vec![vec![(0, 5), (8, 4)], vec![]]);
        let plan = plan_of(vec![(0, 12, 1, 12)]);
        let plain = CommSchedule::build(&plan, &pattern, 0, &pattern.extents_of_rank(0).to_list());
        let sealed = CommSchedule::build_indexed(
            &plan,
            &PlanIndex::new(&plan),
            &pattern,
            0,
            &pattern.extents_of_rank(0).to_list(),
            true,
        );
        let p = &plain.rounds[0].client_dsts[0];
        let s = &sealed.rounds[0].client_dsts[0];
        assert_eq!(s.payload_bytes, p.payload_bytes + 8);
        // The encoded range is `header_bytes` minus the seal either way.
        assert_eq!(p.header.len(), p.header_bytes);
        assert_eq!(s.header.len(), s.header_bytes - 8);
        assert_eq!(sealed.header(s), plain.header(p));
        // Everything but payload sizing is identical.
        assert_eq!(
            plain.rounds[0].client_windows,
            sealed.rounds[0].client_windows
        );
        assert_eq!(plain.client_bytes(), sealed.client_bytes());
    }

    #[test]
    #[should_panic(expected = "rank 0's client windows do not tile its 12 packed bytes")]
    fn a_plan_that_misses_a_requested_byte_trips_the_tiling_assertion() {
        // The domains skip byte 5 of rank 0's request.
        let pattern = pattern_of(vec![vec![(0, 12)], vec![]]);
        let plan = plan_of(vec![(0, 5, 1, 5), (6, 6, 1, 6)]);
        let _ = CommSchedule::build(&plan, &pattern, 0, &pattern.extents_of_rank(0).to_list());
    }

    #[test]
    fn totals_roll_up() {
        let pattern = pattern_of(vec![vec![(0, 16)], vec![(16, 16)]]);
        let plan = plan_of(vec![(0, 32, 0, 8)]);
        let s = CommSchedule::build(&plan, &pattern, 0, &pattern.extents_of_rank(0).to_list());
        assert_eq!(s.client_bytes(), 16);
        assert_eq!(s.assembled_bytes(), 32);
    }

    #[test]
    fn empty_plan_yields_empty_schedule() {
        let pattern = pattern_of(vec![vec![], vec![]]);
        let plan = CollectivePlan::default();
        let s = CommSchedule::build(&plan, &pattern, 0, &ExtentList::default());
        assert!(s.rounds.is_empty());
        assert_eq!(s.client_bytes(), 0);
    }
}
