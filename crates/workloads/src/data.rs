//! Deterministic data generation and verification.
//!
//! Every workload fills its file with a fixed pseudo-random function of
//! the *file offset*, so any reader — any rank, any strategy, any run —
//! can verify any byte range without coordination: byte `o` of the file
//! must always equal [`byte_at`]`(o)`.
//!
//! [`fill`] and [`verify`] are the simulator's byte kernel: every rank
//! runs them on its whole access pattern around each collective op. Both
//! walk the extents with branch-free loops that compute [`byte_at`]
//! lane-wise, so the compiler vectorises them. A run that holds two
//! whole 64-byte chunks after its head splits in three: a lane-wise
//! head up to the first offset whose splitmix input is 64-aligned, the
//! chunks, which share splitmix's first product (one scalar multiply
//! per chunk, one lane multiply per byte), and a lane-wise tail.
//! `verify` folds `byte ^ byte_at(o)` over each 64-byte block or chunk,
//! branches once per block, and rescans only a block that differs, byte
//! by byte, so it still reports the exact first mismatching offset.
//!
//! The extent loops are compiled three times from the same body: for
//! the baseline target, for AVX2, and for AVX-512 (F, DQ, BW, VL — the
//! 64-bit lane multiply `byte_at` needs is AVX-512DQ). The best build the
//! host supports runs the whole extent list, so short extents pay no
//! per-extent dispatch. The standard library probes the CPU once per
//! process and caches the answer. Each build computes the same integer
//! function, so the bytes never depend on the host. Non-x86 targets run
//! the baseline build.

use std::mem::MaybeUninit;

use mccio_mpiio::{Extent, ExtentList};

/// Bytes [`verify`] compares per branch, and bytes per chunk of the
/// shared-product path. Only a block that differs is rescanned byte by
/// byte. A chunk must divide 2^30 so that `z >> 30` is fixed across it.
const BLOCK: usize = 64;

/// splitmix64's increment and its two multipliers.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
const MIX1: u64 = 0xBF58_476D_1CE4_E5B9;
const MIX2: u64 = 0x94D0_49BB_1331_11EB;

/// The canonical content of file byte `offset`.
#[inline(always)]
#[must_use]
pub fn byte_at(offset: u64) -> u8 {
    // A cheap 64-bit mix (splitmix64 finalizer) truncated to one byte.
    let z = offset.wrapping_add(GAMMA);
    finish((z ^ (z >> 30)).wrapping_mul(MIX1))
}

/// [`byte_at`] from its first product on: the second xor-shift and
/// multiply, the last xor-shift and the truncation.
#[inline(always)]
fn finish(z: u64) -> u8 {
    let z = (z ^ (z >> 27)).wrapping_mul(MIX2);
    (z ^ (z >> 31)) as u8
}

/// The first products of [`byte_at`] for chunks of [`BLOCK`] offsets
/// whose splitmix input `z = o + GAMMA` is a multiple of `BLOCK`.
///
/// For such a `z`, `H = z >> 30` is the same at `z + j` for every
/// `j < BLOCK` (the chunk divides 2^30), `z + j` has `j` in its low bits
/// and `H & (BLOCK - 1)` lives in those bits alone, so
/// `(z + j) ^ H = (z ^ (H & !(BLOCK - 1))) + (j ^ (H & (BLOCK - 1)))`.
/// Wrapping multiplication distributes over wrapping addition, so the
/// first product of offset `j` is the chunk's base product plus
/// `lanes[j] = (j ^ (H & (BLOCK - 1))) * MIX1`: one scalar multiply per
/// chunk. The lane table is rebuilt only when `H` changes, once per
/// 2^30 bytes of file offset.
struct FirstProducts {
    /// The `H` the table was built for; `u64::MAX` (never `z >> 30`)
    /// before the first chunk.
    high: u64,
    lanes: [u64; BLOCK],
}

impl FirstProducts {
    fn new() -> Self {
        FirstProducts {
            high: u64::MAX,
            lanes: [0; BLOCK],
        }
    }

    /// The base product and the lane table of the chunk whose first
    /// offset has splitmix input `z` (a multiple of [`BLOCK`]).
    #[inline(always)]
    fn chunk(&mut self, z: u64) -> (u64, &[u64; BLOCK]) {
        let high = z >> 30;
        if high != self.high {
            self.high = high;
            let low = high & (BLOCK as u64 - 1);
            for (j, lane) in (0..).zip(&mut self.lanes) {
                *lane = (j ^ low).wrapping_mul(MIX1);
            }
        }
        let base = (z ^ (high & !(BLOCK as u64 - 1))).wrapping_mul(MIX1);
        (base, &self.lanes)
    }
}

/// The lane-wise head of a run of `len` bytes from file offset
/// `offset`: the bytes before the first offset whose splitmix input is
/// a multiple of [`BLOCK`]. `None` when fewer than two whole chunks fit
/// after it; such a run stays on the lane-wise loop, whose single loop
/// beats a three-part split on short extents.
#[inline(always)]
fn aligned_head(offset: u64, len: usize) -> Option<usize> {
    let head = (offset.wrapping_add(GAMMA).wrapping_neg() % BLOCK as u64) as usize;
    (len >= head + 2 * BLOCK).then_some(head)
}

/// Produces the packed write buffer for `extents` (offset order).
#[must_use]
pub fn fill(extents: &ExtentList) -> Vec<u8> {
    let total = usize::try_from(extents.total_bytes()).expect("extents fit in memory");
    let mut out = Vec::with_capacity(total);
    fill_with_best(extents.as_slice(), &mut out.spare_capacity_mut()[..total]);
    // SAFETY: `fill_extents` splits the `total`-slot buffer into one run
    // per extent and writes each run whole (its head, chunks and tail
    // partition it); it panics before this line if a run does not fit
    // or a slot is left over, so all `total` slots are initialised here.
    unsafe { out.set_len(total) };
    out
}

/// Verifies that `data` is the packed content of `extents`; returns the
/// first mismatching file offset if any.
///
/// # Panics
/// Panics if `data` is shorter than `extents` covers.
#[must_use]
pub fn verify(extents: &ExtentList, data: &[u8]) -> Option<u64> {
    let total = usize::try_from(extents.total_bytes()).expect("extents fit in memory");
    assert!(
        data.len() >= total,
        "verify: {} data bytes for {total} extent bytes",
        data.len()
    );
    verify_with_best(extents.as_slice(), &data[..total])
}

/// Writes `byte_at(o)` for every offset of `extents`, packed, into
/// `out`. `out` must be exactly as long as the extents are in total.
#[inline(always)]
fn fill_extents(extents: &[Extent], out: &mut [MaybeUninit<u8>]) {
    let mut products = FirstProducts::new();
    let mut rest = out;
    for e in extents {
        let (run, tail) = rest.split_at_mut(e.len as usize);
        rest = tail;
        let Some(head) = aligned_head(e.offset, run.len()) else {
            fill_lanes(e.offset, run);
            continue;
        };
        let (head_run, body) = run.split_at_mut(head);
        fill_lanes(e.offset, head_run);
        let mut offset = e.offset + head as u64;
        let (chunks, tail_run) = body.as_chunks_mut::<BLOCK>();
        for chunk in chunks {
            let (base, lanes) = products.chunk(offset.wrapping_add(GAMMA));
            for (slot, &lane) in chunk.iter_mut().zip(lanes) {
                slot.write(finish(base.wrapping_add(lane)));
            }
            offset += BLOCK as u64;
        }
        fill_lanes(offset, tail_run);
    }
    assert!(rest.is_empty(), "fill: buffer longer than the extents");
}

/// Writes `byte_at(o)` into a run starting at file offset `offset`,
/// one offset per lane.
#[inline(always)]
fn fill_lanes(offset: u64, run: &mut [MaybeUninit<u8>]) {
    for (o, slot) in (offset..).zip(run) {
        slot.write(byte_at(o));
    }
}

/// The first offset at which packed `data` differs from `extents`'
/// content. `data` must be exactly as long as the extents are in total.
#[inline(always)]
fn verify_extents(extents: &[Extent], data: &[u8]) -> Option<u64> {
    let mut products = FirstProducts::new();
    let mut rest = data;
    for e in extents {
        let (run, tail) = rest.split_at(e.len as usize);
        rest = tail;
        let Some(head) = aligned_head(e.offset, run.len()) else {
            if let Some(bad) = verify_lanes(e.offset, run) {
                return Some(bad);
            }
            continue;
        };
        let (head_run, body) = run.split_at(head);
        if diff(e.offset, head_run) != 0 {
            return first_mismatch(e.offset, head_run);
        }
        let mut offset = e.offset + head as u64;
        let (chunks, tail_run) = body.as_chunks::<BLOCK>();
        for chunk in chunks {
            let (base, lanes) = products.chunk(offset.wrapping_add(GAMMA));
            let d = chunk.iter().zip(lanes).fold(0, |acc, (&b, &lane)| {
                acc | (b ^ finish(base.wrapping_add(lane)))
            });
            if d != 0 {
                return first_mismatch(offset, chunk);
            }
            offset += BLOCK as u64;
        }
        if diff(offset, tail_run) != 0 {
            return first_mismatch(offset, tail_run);
        }
    }
    None
}

/// The first offset of a run starting at `offset` whose byte is wrong,
/// checked one [`BLOCK`] per branch, one offset per lane.
#[inline(always)]
fn verify_lanes(offset: u64, run: &[u8]) -> Option<u64> {
    let (blocks, partial) = run.as_chunks::<BLOCK>();
    let mut offset = offset;
    for block in blocks {
        if diff(offset, block) != 0 {
            return first_mismatch(offset, block);
        }
        offset += BLOCK as u64;
    }
    if diff(offset, partial) != 0 {
        return first_mismatch(offset, partial);
    }
    None
}

/// The OR of `b ^ byte_at(o)` over a run starting at file offset
/// `offset`: zero exactly when the run is intact.
#[inline(always)]
fn diff(offset: u64, run: &[u8]) -> u8 {
    (offset..)
        .zip(run)
        .fold(0, |acc, (o, &b)| acc | (b ^ byte_at(o)))
}

/// The first offset of a run starting at `offset` whose byte is wrong.
#[inline(always)]
fn first_mismatch(offset: u64, run: &[u8]) -> Option<u64> {
    (offset..)
        .zip(run)
        .find(|&(o, &b)| b != byte_at(o))
        .map(|(o, _)| o)
}

/// [`fill_extents`] in the best build this host supports.
fn fill_with_best(extents: &[Extent], out: &mut [MaybeUninit<u8>]) {
    #[cfg(target_arch = "x86_64")]
    {
        if isa::has_avx512() {
            // SAFETY: the host supports every feature the build enables.
            return unsafe { isa::fill_avx512(extents, out) };
        }
        if isa::has_avx2() {
            // SAFETY: the host supports AVX2, the feature the build enables.
            return unsafe { isa::fill_avx2(extents, out) };
        }
    }
    fill_extents(extents, out);
}

/// [`verify_extents`] in the best build this host supports.
fn verify_with_best(extents: &[Extent], data: &[u8]) -> Option<u64> {
    #[cfg(target_arch = "x86_64")]
    {
        if isa::has_avx512() {
            // SAFETY: the host supports every feature the build enables.
            return unsafe { isa::verify_avx512(extents, data) };
        }
        if isa::has_avx2() {
            // SAFETY: the host supports AVX2, the feature the build enables.
            return unsafe { isa::verify_avx2(extents, data) };
        }
    }
    verify_extents(extents, data)
}

/// The x86-64 builds of the extent loops: the same bodies, compiled
/// with wider vector instructions enabled. Calling one is sound only
/// once its `has_*` check returned true.
#[cfg(target_arch = "x86_64")]
mod isa {
    use std::mem::MaybeUninit;

    use mccio_mpiio::Extent;

    /// True when the host runs the AVX-512 build.
    pub(super) fn has_avx512() -> bool {
        is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512dq")
            && is_x86_feature_detected!("avx512bw")
            && is_x86_feature_detected!("avx512vl")
    }

    /// True when the host runs the AVX2 build.
    pub(super) fn has_avx2() -> bool {
        is_x86_feature_detected!("avx2")
    }

    #[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vl")]
    pub(super) fn fill_avx512(extents: &[Extent], out: &mut [MaybeUninit<u8>]) {
        super::fill_extents(extents, out);
    }

    #[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vl")]
    pub(super) fn verify_avx512(extents: &[Extent], data: &[u8]) -> Option<u64> {
        super::verify_extents(extents, data)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn fill_avx2(extents: &[Extent], out: &mut [MaybeUninit<u8>]) {
        super::fill_extents(extents, out);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn verify_avx2(extents: &[Extent], data: &[u8]) -> Option<u64> {
        super::verify_extents(extents, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccio_sim::rng::{Prng, Rng};

    type FillFn = fn(&[Extent], &mut [MaybeUninit<u8>]);
    type VerifyFn = fn(&[Extent], &[u8]) -> Option<u64>;

    /// Every build of the extent loops this host can run, baseline first.
    fn builds() -> Vec<(&'static str, FillFn, VerifyFn)> {
        let mut out: Vec<(&'static str, FillFn, VerifyFn)> =
            vec![("baseline", fill_extents, verify_extents)];
        #[cfg(target_arch = "x86_64")]
        {
            if isa::has_avx2() {
                out.push((
                    "avx2",
                    // SAFETY: built only after the host reported AVX2.
                    |e, o| unsafe { isa::fill_avx2(e, o) },
                    // SAFETY: as above.
                    |e, d| unsafe { isa::verify_avx2(e, d) },
                ));
            }
            if isa::has_avx512() {
                out.push((
                    "avx512",
                    // SAFETY: built only after the host reported every
                    // feature the build enables.
                    |e, o| unsafe { isa::fill_avx512(e, o) },
                    // SAFETY: as above.
                    |e, d| unsafe { isa::verify_avx512(e, d) },
                ));
            }
        }
        out
    }

    /// The scalar reference: `byte_at` of every offset, packed.
    fn reference(extents: &[Extent]) -> Vec<u8> {
        extents
            .iter()
            .flat_map(|e| (e.offset..e.end()).map(byte_at))
            .collect()
    }

    fn fill_by(build: FillFn, extents: &[Extent]) -> Vec<u8> {
        let total = extents.iter().map(|e| e.len as usize).sum();
        let mut buf = vec![MaybeUninit::new(0xA5); total];
        build(extents, &mut buf);
        // SAFETY: every slot was initialised by `MaybeUninit::new`.
        buf.into_iter()
            .map(|b| unsafe { b.assume_init() })
            .collect()
    }

    /// Fills with every build and the public API and checks each
    /// against [`reference`]; verifies the reference bytes clean. The
    /// reference comparison is what catches a wrong lane table: `fill`
    /// and `verify` share it, so their round trip alone would not.
    fn assert_fills(extents: &[Extent]) {
        let want = reference(extents);
        for (name, fill_build, verify_build) in builds() {
            assert_eq!(fill_by(fill_build, extents), want, "{name}: {extents:?}");
            assert_eq!(verify_build(extents, &want), None, "{name}: {extents:?}");
        }
        let list = ExtentList::from_sorted(extents.to_vec());
        assert_eq!(fill(&list), want, "public fill: {extents:?}");
        assert_eq!(verify(&list, &want), None, "public verify: {extents:?}");
    }

    /// Asserts every build's `verify` names `first` on `data`.
    fn assert_first_corruption(extents: &[Extent], data: &[u8], first: u64) {
        for (name, _, verify_build) in builds() {
            assert_eq!(
                verify_build(extents, data),
                Some(first),
                "{name}: {extents:?}"
            );
        }
        let list = ExtentList::from_sorted(extents.to_vec());
        assert_eq!(verify(&list, data), Some(first), "public verify");
    }

    /// Candidate corruption sites `(packed index, file offset)`: each
    /// extent's first and last byte and its block edges; on the chunk
    /// path also both sides of the head's end, of the first chunk's end
    /// and of the tail's start.
    fn corruption_sites(extents: &[Extent]) -> Vec<(usize, u64)> {
        let mut sites = Vec::new();
        let mut start = 0usize;
        for e in extents {
            let len = e.len as usize;
            let mut at = vec![0, BLOCK - 1, BLOCK, BLOCK + 1, len - 1];
            if let Some(head) = aligned_head(e.offset, len) {
                let tail = head + (len - head) / BLOCK * BLOCK;
                at.extend([head, head + 1, head + BLOCK - 1, head + BLOCK]);
                at.extend([tail - 1, tail]);
                at.extend(head.checked_sub(1));
            }
            for at in at.into_iter().filter(|&at| at < len) {
                sites.push((start + at, e.offset + at as u64));
            }
            start += len;
        }
        sites.sort_unstable();
        sites.dedup();
        sites
    }

    /// Corrupts each site of `extents` alone and checks every build
    /// names it.
    fn assert_every_site_caught(extents: &[Extent]) {
        let clean = reference(extents);
        for (at, offset) in corruption_sites(extents) {
            let mut data = clean.clone();
            data[at] = !clean[at];
            assert_first_corruption(extents, &data, offset);
        }
    }

    /// The file offset whose splitmix input is `z`.
    fn offset_of_z(z: u64) -> u64 {
        z.wrapping_sub(GAMMA)
    }

    /// A sorted, disjoint extent list that exercises the block edges:
    /// lengths of 1 to 3 blocks (and some longer), unaligned starts and
    /// gaps, and a base just below an offset whose splitmix input `z`
    /// is a random multiple of 2^30 (where the chunk path's `z >> 30`
    /// changes), or just below the `z` wrap at `2^64 - GAMMA`, so runs
    /// straddle both.
    fn random_extents(rng: &mut Prng) -> Vec<Extent> {
        // The multiples of 2^30 at or above GAMMA map to offsets from 0 up.
        let first_m = GAMMA.div_ceil(1 << 30);
        let base = match rng.gen_range(0..=2u32) {
            0 => rng.gen_range(0..=4096u64),
            1 => {
                let m = first_m + rng.gen_range(0..=1u64 << 32);
                offset_of_z(m << 30) - rng.gen_range(0..=4 * BLOCK as u64)
            }
            _ => offset_of_z(0) - rng.gen_range(1..=16 * BLOCK as u64),
        };
        let mut offset = base;
        (0..rng.gen_range(1..=8usize))
            .map(|_| {
                let len = if rng.gen_bool(0.2) {
                    rng.gen_range(1..=4096u64)
                } else {
                    rng.gen_range(1..=3 * BLOCK as u64)
                };
                let e = Extent::new(offset, len);
                offset = e.end() + rng.gen_range(1..=3 * BLOCK as u64);
                e
            })
            .collect()
    }

    #[test]
    fn every_build_fills_the_reference_bytes() {
        let mut rng = Prng::seed_from_u64(0xDA7A);
        for _ in 0..400 {
            assert_fills(&random_extents(&mut rng));
        }
    }

    #[test]
    fn every_build_reports_the_first_corruption() {
        let mut rng = Prng::seed_from_u64(0xBAD);
        for _ in 0..200 {
            let extents = random_extents(&mut rng);
            let clean = reference(&extents);
            let sites = corruption_sites(&extents);
            for k in 1..=3 {
                let mut data = clean.clone();
                let mut first = u64::MAX;
                for _ in 0..k {
                    let (at, offset) = sites[rng.gen_range(0..=sites.len() - 1)];
                    data[at] = !clean[at];
                    first = first.min(offset);
                }
                assert_first_corruption(&extents, &data, first);
            }
        }
    }

    #[test]
    fn every_value_of_the_lane_tables_low_bits_is_exact() {
        // One run across z = m * 2^30 for each of the 64 values of
        // m % 64, so chunks on both sides of the boundary use the lane
        // tables of m - 1 and m; alone and together in one list (the
        // table is rebuilt from extent to extent).
        let mut rng = Prng::seed_from_u64(0x64);
        let m0 = (GAMMA.div_ceil(1 << 30) + 64 + rng.gen_range(0..=1u64 << 30)) & !63;
        let extents: Vec<Extent> = (0..64u64)
            .map(|low| {
                let before = rng.gen_range(2 * BLOCK as u64..=5 * BLOCK as u64);
                let len = before + rng.gen_range(2 * BLOCK as u64..=5 * BLOCK as u64);
                Extent::new(offset_of_z((m0 + low) << 30) - before, len)
            })
            .collect();
        for e in &extents {
            assert_fills(&[*e]);
            assert_every_site_caught(&[*e]);
        }
        assert_fills(&extents);
    }

    #[test]
    fn the_z_wrap_is_exact() {
        // z = o + GAMMA wraps to zero at o = 2^64 - GAMMA.
        let wrap = offset_of_z(0);
        for before in [0, 1, 63, 64, 65, 2 * BLOCK as u64, 3 * BLOCK as u64 + 5] {
            for len in [2 * BLOCK as u64, 3 * BLOCK as u64 + 9, 4096] {
                let extents = [Extent::new(wrap - before, len)];
                assert_fills(&extents);
                assert_every_site_caught(&extents);
            }
        }
    }

    #[test]
    fn runs_on_both_sides_of_the_short_run_cut_are_exact() {
        // For every head length, runs just short of two chunks after it
        // (the lane-wise loop), exactly two, and longer.
        let z0 = (GAMMA.div_ceil(1 << 30) << 30) + (1 << 20);
        for head in 0..BLOCK as u64 {
            let offset = offset_of_z(z0 - head);
            let cut = head + 2 * BLOCK as u64;
            for len in [
                1,
                head.max(1),
                cut - 1,
                cut,
                cut + 1,
                cut + BLOCK as u64 + 7,
            ] {
                let takes_chunks = aligned_head(offset, len as usize).is_some();
                assert_eq!(takes_chunks, len >= cut, "head {head}, len {len}");
                let extents = [Extent::new(offset, len)];
                assert_fills(&extents);
                assert_every_site_caught(&extents);
            }
        }
    }

    #[test]
    fn verify_ignores_trailing_bytes_and_rejects_short_data() {
        let extents = ExtentList::normalize(vec![Extent::new(5, 3 * BLOCK as u64)]);
        let mut data = fill(&extents);
        data.push(!byte_at(5 + 3 * BLOCK as u64));
        assert_eq!(verify(&extents, &data), None);
        data.truncate(3 * BLOCK - 1);
        let short = std::panic::catch_unwind(|| verify(&extents, &data));
        assert!(short.is_err(), "short data must panic");
    }

    #[test]
    fn byte_at_is_stable_and_varied() {
        assert_eq!(byte_at(0), byte_at(0));
        let distinct: std::collections::HashSet<u8> = (0..256u64).map(byte_at).collect();
        assert!(
            distinct.len() > 100,
            "distribution too flat: {}",
            distinct.len()
        );
    }

    #[test]
    fn fill_and_verify_roundtrip() {
        let extents = ExtentList::normalize(vec![Extent::new(10, 5), Extent::new(100, 7)]);
        let data = fill(&extents);
        assert_eq!(data.len(), 12);
        assert_eq!(verify(&extents, &data), None);
    }

    #[test]
    fn verify_reports_first_corruption() {
        let extents = ExtentList::normalize(vec![Extent::new(0, 8)]);
        let mut data = fill(&extents);
        data[3] ^= 0xFF;
        assert_eq!(verify(&extents, &data), Some(3));
    }
}
