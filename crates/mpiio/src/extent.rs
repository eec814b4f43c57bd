//! File extents: the `(offset, length)` lists every layer trades in.
//!
//! A flattened MPI datatype, a rank's I/O request, a file domain, an
//! aggregation group's region — all are extents or sorted extent lists.
//!
//! Three representations share one set of range algorithms:
//!
//! * [`ExtentList`] — one rank's owned, canonical list.
//! * [`ExtentsView`] — a borrowed canonical slice, handed out by
//!   [`ExtentTable`] so a whole group's pattern lives in two flat
//!   allocations instead of one boxed `Vec` per member.
//! * The delta varint wire form ([`ExtentList::encode_compact`]) —
//!   offsets in a canonical list ascend, so each extent encodes as
//!   (gap from previous end, length) in LEB128, a fraction of the 16
//!   fixed bytes per extent the old `u64`-pair encoding spent.
//!
//! [`TouchIndex`] adds an interval index over a table's flattened
//! extents so "which members touch this window" is `O(log n + k)`
//! instead of a scan over every member.

/// A half-open byte range `[offset, offset + len)` in a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Extent {
    /// Starting byte offset.
    pub offset: u64,
    /// Length in bytes (may be zero for degenerate requests).
    pub len: u64,
}

impl Extent {
    /// Constructs an extent.
    #[must_use]
    pub fn new(offset: u64, len: u64) -> Self {
        Extent { offset, len }
    }

    /// One past the last byte.
    #[must_use]
    pub fn end(&self) -> u64 {
        self.offset
            .checked_add(self.len)
            .expect("extent end overflows u64")
    }

    /// True if the extent covers no bytes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The overlap with another extent, if any bytes are shared.
    #[must_use]
    pub fn intersect(&self, other: &Extent) -> Option<Extent> {
        let lo = self.offset.max(other.offset);
        let hi = self.end().min(other.end());
        (lo < hi).then(|| Extent::new(lo, hi - lo))
    }

    /// True if `byte` falls inside the extent.
    #[must_use]
    pub fn contains(&self, byte: u64) -> bool {
        byte >= self.offset && byte < self.end()
    }
}

/// A sorted, coalesced, non-overlapping list of extents — the canonical
/// form of one rank's access pattern.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExtentList {
    extents: Vec<Extent>,
}

impl ExtentList {
    /// Builds the canonical form from arbitrary extents: drops empties,
    /// sorts by offset, and coalesces adjacent or overlapping ranges.
    ///
    /// Input that is already sorted by `(offset, len)`, such as a
    /// subarray's rows, is not sorted again; other input is sorted
    /// unstably, which needs no scratch buffer and gives the same order
    /// as a stable sort, because extents with equal keys are equal.
    #[must_use]
    pub fn normalize(mut raw: Vec<Extent>) -> Self {
        raw.retain(|e| !e.is_empty());
        let key = |e: &Extent| (e.offset, e.len);
        if !raw.is_sorted_by_key(key) {
            raw.sort_unstable_by_key(key);
        }
        let mut extents: Vec<Extent> = Vec::with_capacity(raw.len());
        for e in raw {
            match extents.last_mut() {
                Some(last) if e.offset <= last.end() => {
                    let end = last.end().max(e.end());
                    last.len = end - last.offset;
                }
                _ => extents.push(e),
            }
        }
        ExtentList { extents }
    }

    /// Wraps extents that are already sorted, disjoint and non-empty.
    ///
    /// # Panics
    /// Panics (in debug builds) if the invariant does not hold.
    #[must_use]
    pub fn from_sorted(extents: Vec<Extent>) -> Self {
        debug_assert!(
            extents.windows(2).all(|w| w[0].end() <= w[1].offset)
                && extents.iter().all(|e| !e.is_empty()),
            "extents not sorted/disjoint/non-empty: {extents:?}"
        );
        ExtentList { extents }
    }

    /// The extents in offset order.
    #[must_use]
    pub fn as_slice(&self) -> &[Extent] {
        &self.extents
    }

    /// Number of extents.
    #[must_use]
    pub fn len(&self) -> usize {
        self.extents.len()
    }

    /// True when no extents remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.extents.is_empty()
    }

    /// Total bytes covered.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.extents.iter().map(|e| e.len).sum()
    }

    /// First byte covered, if any.
    #[must_use]
    pub fn begin(&self) -> Option<u64> {
        self.extents.first().map(|e| e.offset)
    }

    /// One past the last byte covered, if any.
    #[must_use]
    pub fn end(&self) -> Option<u64> {
        self.extents.last().map(Extent::end)
    }

    /// This list's extents as a borrowed [`ExtentsView`].
    #[must_use]
    pub fn view(&self) -> ExtentsView<'_> {
        ExtentsView {
            extents: &self.extents,
        }
    }

    /// The sub-list of byte ranges that fall inside `window`, clipped to
    /// it. Used to route a rank's request pieces to file domains.
    /// Binary-searches for the window start, so it is `O(log n + k)` in
    /// the list size `n` and match count `k`.
    #[must_use]
    pub fn clip(&self, window: Extent) -> ExtentList {
        self.view().clip(window)
    }

    /// Like [`ExtentList::clip`] but yields `(extent index, clipped
    /// piece)` pairs so callers can map pieces back into packed buffers
    /// without rescanning.
    pub fn clip_indexed(&self, window: Extent) -> impl Iterator<Item = (usize, Extent)> + '_ {
        clip_indexed_slice(&self.extents, window)
    }

    /// True when any byte of `window` is covered — `O(log n)` plus one
    /// intersection, cheaper than `!clip(window).is_empty()`.
    #[must_use]
    pub fn overlaps(&self, window: Extent) -> bool {
        overlaps_slice(&self.extents, window)
    }

    /// Cumulative packed-buffer offsets: entry `i` is the position of
    /// extent `i`'s first byte in the packed buffer. Compute once per
    /// operation and reuse with [`ExtentList::clip_indexed`].
    #[must_use]
    pub fn cumulative_offsets(&self) -> Vec<u64> {
        packed_starts(&self.extents).collect()
    }

    /// Iterates `(extent, buffer_range)` pairs: the byte range each
    /// extent occupies in the rank's packed contiguous buffer (extents in
    /// offset order define the pack order, per MPI semantics).
    pub fn with_buffer_ranges(
        &self,
    ) -> impl Iterator<Item = (Extent, std::ops::Range<usize>)> + '_ {
        let mut cursor = 0usize;
        self.extents.iter().map(move |&e| {
            let start = cursor;
            cursor += e.len as usize;
            (e, start..cursor)
        })
    }

    /// Encodes the list in the delta varint wire form: a varint extent
    /// count, then per extent the varint gap from the previous extent's
    /// end (the absolute offset for the first) and the varint length.
    /// Canonical lists ascend, so gaps are small and regular strided
    /// patterns encode in 2–4 bytes per extent. The buffer is sized
    /// exactly by a length pre-pass, so encoding allocates once.
    #[must_use]
    pub fn encode_compact(&self) -> Vec<u8> {
        encode_compact_exact(&self.extents)
    }

    /// Decodes [`ExtentList::encode_compact`] output.
    ///
    /// # Panics
    /// Panics on truncated or non-canonical input.
    #[must_use]
    pub fn decode_compact(bytes: &[u8]) -> Self {
        let mut extents = Vec::new();
        decode_compact_into(bytes, &mut extents);
        ExtentList::from_sorted(extents)
    }
}

/// Encodes `extents` (canonical order assumed) in the delta varint form
/// into a buffer of exactly the encoded length.
fn encode_compact_exact(extents: &[Extent]) -> Vec<u8> {
    let _t = mccio_sim::hostprof::timer(mccio_sim::hostprof::HostPhase::ExtentEncode);
    let count = extents.len() as u64;
    let mut len = varint_len(count);
    let mut prev_end = 0u64;
    for e in extents {
        len += varint_len(e.offset - prev_end) + varint_len(e.len);
        // Unchecked: the write pass below takes the checked `end()`.
        prev_end = e.offset.wrapping_add(e.len);
    }
    // Indexed stores into a sized buffer: a push per byte would pay a
    // capacity check per byte and cost more than the pre-pass saves.
    let mut out = vec![0u8; len];
    let mut pos = 0;
    put_varint(&mut out, &mut pos, count);
    let mut prev_end = 0u64;
    for e in extents {
        put_varint(&mut out, &mut pos, e.offset - prev_end);
        put_varint(&mut out, &mut pos, e.len);
        prev_end = e.end();
    }
    debug_assert_eq!(pos, len, "varint length pre-pass is exact");
    out
}

/// Bytes [`put_varint`] writes for `v`: one per started 7-bit group,
/// `ceil(bits / 7)`, computed as `(9 * bits + 64) / 64` — equal for every
/// width from 1 to 64 bits, and a shift where a division by 7 is not.
fn varint_len(v: u64) -> usize {
    let bits = 64 - (v | 1).leading_zeros() as usize;
    (9 * bits + 64) / 64
}

/// Decodes one delta-varint-encoded list, appending onto `extents`.
///
/// # Panics
/// Panics on truncated input or trailing bytes.
fn decode_compact_into(bytes: &[u8], extents: &mut Vec<Extent>) {
    let _t = mccio_sim::hostprof::timer(mccio_sim::hostprof::HostPhase::ExtentDecode);
    let mut pos = 0usize;
    let count = read_varint(bytes, &mut pos);
    extents.reserve(count as usize);
    let mut prev_end = 0u64;
    for _ in 0..count {
        let offset = prev_end + read_varint(bytes, &mut pos);
        let len = read_varint(bytes, &mut pos);
        let e = Extent::new(offset, len);
        prev_end = e.end();
        extents.push(e);
    }
    assert_eq!(pos, bytes.len(), "trailing bytes after extent encoding");
}

/// LEB128: 7 value bits per byte, high bit = continuation. Writes at
/// `out[*pos..]` and advances `pos`.
fn put_varint(out: &mut [u8], pos: &mut usize, mut v: u64) {
    while v >= 0x80 {
        out[*pos] = (v as u8) | 0x80;
        v >>= 7;
        *pos += 1;
    }
    out[*pos] = v as u8;
    *pos += 1;
}

/// # Panics
/// Panics on truncated input or a varint running past 64 bits.
fn read_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        assert!(shift < 64, "varint exceeds 64 bits");
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

/// The shared `O(log n + k)` clip walk over a canonical extent slice.
fn clip_indexed_slice(
    extents: &[Extent],
    window: Extent,
) -> impl Iterator<Item = (usize, Extent)> + '_ {
    let start = if window.is_empty() {
        extents.len()
    } else {
        extents.partition_point(|e| e.end() <= window.offset)
    };
    extents[start..]
        .iter()
        .enumerate()
        .take_while(move |(_, e)| e.offset < window.end())
        .filter_map(move |(i, e)| e.intersect(&window).map(|p| (start + i, p)))
}

/// The shared `O(log n)` overlap test over a canonical extent slice.
fn overlaps_slice(extents: &[Extent], window: Extent) -> bool {
    if window.is_empty() {
        return false;
    }
    let start = extents.partition_point(|e| e.end() <= window.offset);
    extents.get(start).is_some_and(|e| e.offset < window.end())
}

/// Each extent's start in the packed buffer of `extents`.
fn packed_starts(extents: &[Extent]) -> impl Iterator<Item = u64> + '_ {
    extents.iter().scan(0, |total, e| {
        let start = *total;
        *total += e.len;
        Some(start)
    })
}

/// A borrowed canonical extent slice with [`ExtentList`]'s read API.
/// `Copy`, so it passes by value; [`ExtentsView::to_list`] materializes
/// an owned list for the few callers that need one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtentsView<'a> {
    extents: &'a [Extent],
}

impl<'a> ExtentsView<'a> {
    /// Wraps a slice that is already sorted, disjoint and non-empty.
    #[must_use]
    pub fn new(extents: &'a [Extent]) -> Self {
        debug_assert!(
            extents.windows(2).all(|w| w[0].end() <= w[1].offset)
                && extents.iter().all(|e| !e.is_empty()),
            "extents not sorted/disjoint/non-empty: {extents:?}"
        );
        ExtentsView { extents }
    }

    /// The extents in offset order.
    #[must_use]
    pub fn as_slice(&self) -> &'a [Extent] {
        self.extents
    }

    /// Number of extents.
    #[must_use]
    pub fn len(&self) -> usize {
        self.extents.len()
    }

    /// True when no extents remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.extents.is_empty()
    }

    /// Total bytes covered.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.extents.iter().map(|e| e.len).sum()
    }

    /// First byte covered, if any.
    #[must_use]
    pub fn begin(&self) -> Option<u64> {
        self.extents.first().map(|e| e.offset)
    }

    /// One past the last byte covered, if any.
    #[must_use]
    pub fn end(&self) -> Option<u64> {
        self.extents.last().map(Extent::end)
    }

    /// See [`ExtentList::clip`].
    #[must_use]
    pub fn clip(&self, window: Extent) -> ExtentList {
        let clipped: Vec<Extent> = self.clip_indexed(window).map(|(_, piece)| piece).collect();
        // Clipping a canonical list preserves order and disjointness.
        ExtentList { extents: clipped }
    }

    /// See [`ExtentList::clip_indexed`].
    pub fn clip_indexed(&self, window: Extent) -> impl Iterator<Item = (usize, Extent)> + 'a {
        clip_indexed_slice(self.extents, window)
    }

    /// See [`ExtentList::overlaps`].
    #[must_use]
    pub fn overlaps(&self, window: Extent) -> bool {
        overlaps_slice(self.extents, window)
    }

    /// An owned copy of the viewed list.
    #[must_use]
    pub fn to_list(&self) -> ExtentList {
        ExtentList {
            extents: self.extents.to_vec(),
        }
    }
}

/// A whole group's extent lists flattened into two allocations: the
/// extents of all members back to back, plus each member's end position.
/// Replaces `Vec<ExtentList>` in [`crate::GroupPattern`] — at 100k ranks
/// the per-member `Vec` headers and separate heap blocks alone cost more
/// than the extents.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExtentTable {
    /// All members' extents, grouped by member, canonical within each.
    extents: Vec<Extent>,
    /// `ends[i]` = one past member `i`'s last extent in `extents`.
    ends: Vec<u32>,
}

impl ExtentTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        ExtentTable::default()
    }

    /// Flattens owned per-member lists into a table.
    #[must_use]
    pub fn from_lists<I: IntoIterator<Item = ExtentList>>(lists: I) -> Self {
        let mut t = ExtentTable::new();
        for l in lists {
            t.push_slice(l.as_slice());
        }
        t
    }

    /// Appends one member's canonical extents.
    ///
    /// # Panics
    /// Panics if the table outgrows `u32` positions (4 billion extents).
    pub fn push_slice(&mut self, extents: &[Extent]) {
        debug_assert!(
            extents.windows(2).all(|w| w[0].end() <= w[1].offset)
                && extents.iter().all(|e| !e.is_empty()),
            "extents not sorted/disjoint/non-empty: {extents:?}"
        );
        self.extents.extend_from_slice(extents);
        self.ends
            .push(u32::try_from(self.extents.len()).expect("extent table outgrew u32"));
    }

    /// Appends one member's extents from their compact wire encoding
    /// ([`ExtentList::encode_compact`]) without an intermediate list.
    ///
    /// # Panics
    /// Panics on malformed input (see [`ExtentList::decode_compact`]).
    pub fn push_compact(&mut self, bytes: &[u8]) {
        let start = self.extents.len();
        decode_compact_into(bytes, &mut self.extents);
        debug_assert!(
            self.extents[start..]
                .windows(2)
                .all(|w| w[0].end() <= w[1].offset)
                && self.extents[start..].iter().all(|e| !e.is_empty()),
            "decoded extents not canonical"
        );
        self.ends
            .push(u32::try_from(self.extents.len()).expect("extent table outgrew u32"));
    }

    /// Number of member lists.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when no member lists were pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Member `i`'s extents.
    #[must_use]
    pub fn view(&self, i: usize) -> ExtentsView<'_> {
        ExtentsView {
            extents: &self.extents[self.bounds(i)],
        }
    }

    /// Where member `i`'s extents sit in [`ExtentTable::all_extents`].
    pub(crate) fn bounds(&self, i: usize) -> std::ops::Range<usize> {
        let lo = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        lo..self.ends[i] as usize
    }

    /// Each extent's start in its member's packed buffer, parallel to
    /// [`ExtentTable::all_extents`]: every member's
    /// [`ExtentList::cumulative_offsets`], back to back.
    pub(crate) fn packed_offsets(&self) -> Vec<u64> {
        self.views()
            .flat_map(|v| packed_starts(v.extents))
            .collect()
    }

    /// Every member's extents back to back (grouped by member).
    #[must_use]
    pub fn all_extents(&self) -> &[Extent] {
        &self.extents
    }

    /// Iterates all member views in member order.
    pub fn views(&self) -> impl Iterator<Item = ExtentsView<'_>> {
        (0..self.len()).map(|i| self.view(i))
    }
}

/// An interval index over an [`ExtentTable`]'s flattened extents:
/// answers "which members own an extent overlapping this window" in
/// `O(log n + k)` instead of scanning every member.
///
/// Layout: all extents sorted by start offset, plus a max-end segment
/// tree. A query window `[lo, hi)` matches the contiguous run of
/// extents with `start ∈ [lo, hi)` (they all overlap, being non-empty)
/// plus the straddlers with `start < lo < end`, which the tree descent
/// enumerates while pruning subtrees whose max end is `≤ lo`.
#[derive(Debug, Clone)]
pub struct TouchIndex {
    /// Extent starts, ascending.
    starts: Vec<u64>,
    /// Owning member of each sorted extent.
    members: Vec<u32>,
    /// Max-end segment tree: `tree[size + i]` = end of sorted extent
    /// `i` (0 for padding), internal nodes the max of their children.
    tree: Vec<u64>,
    /// Leaf count (power of two).
    size: usize,
}

impl TouchIndex {
    /// Builds the index over every extent of `table`.
    #[must_use]
    pub fn build(table: &ExtentTable) -> Self {
        let mut order: Vec<u32> = (0..table.extents.len() as u32).collect();
        order.sort_unstable_by_key(|&i| table.extents[i as usize].offset);
        let n = order.len();
        let mut starts = Vec::with_capacity(n);
        let mut members = Vec::with_capacity(n);
        let size = n.next_power_of_two().max(1);
        let mut tree = vec![0u64; 2 * size];
        // Walk `ends` alongside the flat positions to recover owners.
        for (slot, &flat) in order.iter().enumerate() {
            let e = table.extents[flat as usize];
            starts.push(e.offset);
            members.push(table.ends.partition_point(|&end| end <= flat) as u32);
            tree[size + slot] = e.end();
        }
        for i in (1..size).rev() {
            tree[i] = tree[2 * i].max(tree[2 * i + 1]);
        }
        TouchIndex {
            starts,
            members,
            tree,
            size,
        }
    }

    /// Pushes the member index of every extent overlapping `window`
    /// onto `out` (duplicates possible; callers sort + dedup).
    pub fn members_touching(&self, window: Extent, out: &mut Vec<u32>) {
        if window.is_empty() || self.starts.is_empty() {
            return;
        }
        let lo = window.offset;
        let hi = window.end();
        let cut_lo = self.starts.partition_point(|&s| s < lo);
        let cut_hi = self.starts.partition_point(|&s| s < hi);
        // Starts inside the window: non-empty extents, so they overlap.
        out.extend_from_slice(&self.members[cut_lo..cut_hi]);
        // Straddlers: start < lo but end > lo.
        self.collect_straddlers(1, 0, self.size, cut_lo, lo, out);
    }

    fn collect_straddlers(
        &self,
        node: usize,
        node_lo: usize,
        node_hi: usize,
        limit: usize,
        lo: u64,
        out: &mut Vec<u32>,
    ) {
        if node_lo >= limit || self.tree[node] <= lo {
            return;
        }
        if node_hi - node_lo == 1 {
            out.push(self.members[node_lo]);
            return;
        }
        let mid = node_lo + (node_hi - node_lo) / 2;
        self.collect_straddlers(2 * node, node_lo, mid, limit, lo, out);
        self.collect_straddlers(2 * node + 1, mid, node_hi, limit, lo, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_len_matches_the_written_length() {
        let widths = (0..64).flat_map(|k| [(1u64 << k) - 1, 1 << k]);
        for v in widths.chain([u64::from(u32::MAX), u64::MAX]) {
            let mut out = [0u8; 10];
            let mut pos = 0;
            put_varint(&mut out, &mut pos, v);
            assert_eq!(varint_len(v), pos, "{v}");
            assert_eq!(read_varint(&out, &mut 0), v);
        }
    }

    #[test]
    fn compact_encoding_is_allocated_exactly() {
        let list = ExtentList::from_sorted(vec![
            Extent::new(0, 1),
            Extent::new(200, 1 << 20),
            Extent::new(u64::from(u32::MAX) << 8, 3),
        ]);
        for l in [ExtentList::from_sorted(Vec::new()), list] {
            let bytes = l.encode_compact();
            assert_eq!(bytes.len(), bytes.capacity());
            assert_eq!(ExtentList::decode_compact(&bytes), l);
        }
    }

    #[test]
    fn extent_basics() {
        let e = Extent::new(10, 5);
        assert_eq!(e.end(), 15);
        assert!(e.contains(10));
        assert!(e.contains(14));
        assert!(!e.contains(15));
        assert!(!Extent::new(0, 1).is_empty());
        assert!(Extent::new(7, 0).is_empty());
    }

    #[test]
    fn intersection() {
        let a = Extent::new(0, 10);
        let b = Extent::new(5, 10);
        assert_eq!(a.intersect(&b), Some(Extent::new(5, 5)));
        assert_eq!(b.intersect(&a), Some(Extent::new(5, 5)));
        let c = Extent::new(10, 5);
        assert_eq!(a.intersect(&c), None, "touching is not overlapping");
        assert_eq!(a.intersect(&Extent::new(2, 3)), Some(Extent::new(2, 3)));
    }

    #[test]
    fn normalize_sorts_and_coalesces() {
        let l = ExtentList::normalize(vec![
            Extent::new(20, 5),
            Extent::new(0, 10),
            Extent::new(10, 5), // adjacent to first → coalesce
            Extent::new(22, 2), // inside third → absorbed
            Extent::new(40, 0), // empty → dropped
        ]);
        assert_eq!(l.as_slice(), &[Extent::new(0, 15), Extent::new(20, 5)]);
        assert_eq!(l.total_bytes(), 20);
        assert_eq!(l.begin(), Some(0));
        assert_eq!(l.end(), Some(25));
    }

    #[test]
    fn normalize_matches_a_stable_sort_and_merge() {
        use mccio_sim::rng::{stream_rng, Rng};
        let mut rng = stream_rng(0xE7, "normalize");
        for case in 0..500 {
            let n = rng.gen_range(0usize..=600);
            let mut raw: Vec<Extent> = (0..n)
                .map(|_| Extent::new(rng.gen_range(0u64..=2_000), rng.gen_range(0u64..=40)))
                .collect();
            if rng.gen_bool(0.3) {
                raw.sort_by_key(|e| (e.offset, e.len)); // sorted input skips the sort
            }
            let mut want = raw.clone();
            want.retain(|e| !e.is_empty());
            want.sort_by_key(|e| (e.offset, e.len));
            let mut merged: Vec<Extent> = Vec::new();
            for e in want {
                match merged.last_mut() {
                    Some(last) if e.offset <= last.end() => {
                        last.len = last.end().max(e.end()) - last.offset;
                    }
                    _ => merged.push(e),
                }
            }
            assert_eq!(
                ExtentList::normalize(raw).as_slice(),
                &merged[..],
                "case {case}"
            );
        }
    }

    #[test]
    fn clip_to_window() {
        let l = ExtentList::normalize(vec![
            Extent::new(0, 10),
            Extent::new(20, 10),
            Extent::new(40, 10),
        ]);
        let c = l.clip(Extent::new(5, 30));
        assert_eq!(c.as_slice(), &[Extent::new(5, 5), Extent::new(20, 10)]);
        assert!(l.clip(Extent::new(100, 5)).is_empty());
        assert_eq!(l.clip(Extent::new(0, 100)), l);
    }

    #[test]
    fn clip_indexed_reports_source_indices() {
        let l = ExtentList::normalize(vec![
            Extent::new(0, 10),
            Extent::new(20, 10),
            Extent::new(40, 10),
        ]);
        let hits: Vec<_> = l.clip_indexed(Extent::new(25, 20)).collect();
        assert_eq!(hits, vec![(1, Extent::new(25, 5)), (2, Extent::new(40, 5))]);
        assert!(l.clip_indexed(Extent::new(10, 10)).next().is_none());
        assert!(l.clip_indexed(Extent::new(5, 0)).next().is_none());
    }

    #[test]
    fn overlaps_matches_clip_emptiness() {
        let l = ExtentList::normalize(vec![Extent::new(10, 5), Extent::new(30, 5)]);
        for (off, len) in [
            (0u64, 5u64),
            (0, 11),
            (15, 15),
            (15, 16),
            (34, 1),
            (35, 10),
            (12, 1),
        ] {
            let w = Extent::new(off, len);
            assert_eq!(l.overlaps(w), !l.clip(w).is_empty(), "{w:?}");
        }
    }

    #[test]
    fn cumulative_offsets_match_buffer_ranges() {
        let l = ExtentList::normalize(vec![Extent::new(100, 4), Extent::new(0, 6)]);
        assert_eq!(l.cumulative_offsets(), vec![0, 6]);
        assert_eq!(
            ExtentList::default().cumulative_offsets(),
            Vec::<u64>::new()
        );
    }

    #[test]
    fn buffer_ranges_follow_pack_order() {
        let l = ExtentList::normalize(vec![Extent::new(100, 4), Extent::new(0, 6)]);
        let pairs: Vec<_> = l.with_buffer_ranges().collect();
        assert_eq!(pairs[0], (Extent::new(0, 6), 0..6));
        assert_eq!(pairs[1], (Extent::new(100, 4), 6..10));
    }

    #[test]
    fn empty_list_queries() {
        let l = ExtentList::default();
        assert!(l.is_empty());
        assert_eq!(l.total_bytes(), 0);
        assert_eq!(l.begin(), None);
        assert_eq!(l.end(), None);
    }
}
