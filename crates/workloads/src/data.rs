//! Deterministic data generation and verification.
//!
//! Every workload fills its file with a fixed pseudo-random function of
//! the *file offset*, so any reader — any rank, any strategy, any run —
//! can verify any byte range without coordination: byte `o` of the file
//! must always equal [`byte_at`]`(o)`.
//!
//! [`fill`] and [`verify`] are the simulator's byte kernel: every rank
//! runs them on its whole access pattern around each collective op. Both
//! walk the extents with one branch-free loop per extent that computes
//! [`byte_at`] lane-wise, so the compiler vectorises it. `verify` folds
//! `byte ^ byte_at(o)` over fixed 64-byte blocks, branches once per
//! block, and rescans only a block that differs, byte by byte, so it
//! still reports the exact first mismatching offset.
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

/// Bytes [`verify`] compares per branch. Only a block that differs is
/// rescanned byte by byte.
const BLOCK: usize = 64;

/// The canonical content of file byte `offset`.
#[inline(always)]
#[must_use]
pub fn byte_at(offset: u64) -> u8 {
    // A cheap 64-bit mix (splitmix64 finalizer) truncated to one byte.
    let mut z = offset.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as u8
}

/// Produces the packed write buffer for `extents` (offset order).
#[must_use]
pub fn fill(extents: &ExtentList) -> Vec<u8> {
    let total = usize::try_from(extents.total_bytes()).expect("extents fit in memory");
    let mut out = Vec::with_capacity(total);
    fill_with_best(extents.as_slice(), &mut out.spare_capacity_mut()[..total]);
    // SAFETY: `fill_extents` splits the `total`-slot buffer into one run
    // per extent and writes each run whole; it panics before this line
    // if a run does not fit or a slot is left over, so all `total`
    // slots are initialised here.
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
    let mut rest = out;
    for e in extents {
        let (run, tail) = rest.split_at_mut(e.len as usize);
        for (o, slot) in (e.offset..).zip(run) {
            slot.write(byte_at(o));
        }
        rest = tail;
    }
    assert!(rest.is_empty(), "fill: buffer longer than the extents");
}

/// The first offset at which packed `data` differs from `extents`'
/// content. `data` must be exactly as long as the extents are in total.
#[inline(always)]
fn verify_extents(extents: &[Extent], data: &[u8]) -> Option<u64> {
    let mut rest = data;
    for e in extents {
        let (run, tail) = rest.split_at(e.len as usize);
        rest = tail;
        let (blocks, partial) = run.as_chunks::<BLOCK>();
        let mut offset = e.offset;
        for block in blocks {
            if diff(offset, block) != 0 {
                return first_mismatch(offset, block);
            }
            offset += BLOCK as u64;
        }
        if diff(offset, partial) != 0 {
            return first_mismatch(offset, partial);
        }
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

    /// A sorted, disjoint extent list that exercises the block edges:
    /// lengths of 1 to 3 blocks (and some longer), unaligned starts and
    /// gaps, and a base near a random multiple of 2^30 up to 2^62, so
    /// runs straddle those multiples.
    fn random_extents(rng: &mut Prng) -> Vec<Extent> {
        let base = match rng.gen_range(0..=2u32) {
            0 => rng.gen_range(0..=4096u64),
            1 => (rng.gen_range(1..=4096u64) << 30) - rng.gen_range(0..=2 * BLOCK as u64),
            _ => (1u64 << 62) - rng.gen_range(1..=16 * BLOCK as u64),
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
            let extents = random_extents(&mut rng);
            let want = reference(&extents);
            for (name, fill_build, _) in builds() {
                assert_eq!(fill_by(fill_build, &extents), want, "{name}: {extents:?}");
            }
            let list = ExtentList::from_sorted(extents.clone());
            assert_eq!(fill(&list), want, "public fill: {extents:?}");
            assert_eq!(verify(&list, &want), None, "public verify: {extents:?}");
        }
    }

    #[test]
    fn every_build_reports_the_first_corruption() {
        let mut rng = Prng::seed_from_u64(0xBAD);
        for _ in 0..200 {
            let extents = random_extents(&mut rng);
            let clean = reference(&extents);
            // Candidate positions (packed index, file offset): each
            // extent's first and last byte and its block edges.
            let mut sites = Vec::new();
            let mut start = 0usize;
            for e in &extents {
                let len = e.len as usize;
                for at in [0, BLOCK - 1, BLOCK, BLOCK + 1, len - 1] {
                    if at < len {
                        sites.push((start + at, e.offset + at as u64));
                    }
                }
                start += len;
            }
            for k in 1..=3 {
                let mut data = clean.clone();
                let mut first = u64::MAX;
                for _ in 0..k {
                    let (at, offset) = sites[rng.gen_range(0..=sites.len() - 1)];
                    data[at] = !clean[at];
                    first = first.min(offset);
                }
                for (name, _, verify_build) in builds() {
                    assert_eq!(
                        verify_build(&extents, &data),
                        Some(first),
                        "{name}: {extents:?}"
                    );
                }
                let list = ExtentList::from_sorted(extents.clone());
                assert_eq!(verify(&list, &data), Some(first), "public verify");
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
