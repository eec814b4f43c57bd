//! Deterministic data generation and verification.
//!
//! Every workload fills its file with a fixed pseudo-random function of
//! the *file offset*, so any reader — any rank, any strategy, any run —
//! can verify any byte range without coordination: byte `o` of the file
//! must always equal [`byte_at`]`(o)`.
//!
//! [`fill`] and [`verify`] are the simulator's byte kernel: every rank
//! runs them on its whole access pattern around each collective op. Both
//! walk the extents once. A run that holds two whole 64-byte chunks
//! after its head splits in three: a lane-wise head up to the first
//! offset whose splitmix input is 64-aligned, the chunks, which share
//! splitmix's first product (one scalar multiply per chunk, one lane
//! multiply per byte), and a lane-wise tail. `verify` checks 64 bytes
//! per branch and finds the exact first mismatching offset inside a
//! block that differs.
//!
//! The walk is written once, generic over a build's two primitives: a
//! 64-byte chunk from its shared product and a lane-wise run from an
//! offset. Three builds share one pair of primitives, branch-free loops
//! that compute [`byte_at`] lane-wise so the compiler vectorises them:
//! the baseline target, AVX2 and AVX-512 (F, DQ, BW, VL — the 64-bit
//! lane multiply `byte_at` needs is AVX-512DQ). A fourth build, for
//! AVX-512 IFMA and VBMI hosts, has its own primitives: the second
//! product is one 52-bit fused multiply per lane (the byte reads only
//! bits 0..=38 of it), byte permutes pack 64 lanes into one store or
//! compare, and a run's last bytes are one masked store or load. The
//! best build the host supports runs the whole extent list, so short
//! extents pay no per-extent dispatch. The standard library probes the
//! CPU once per process and caches the answer; [`kernel_build`] names
//! the build. Each build computes the same integer function, so the
//! bytes never depend on the host. Non-x86 targets run the baseline
//! build.

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
/// multiply, then [`truncate`].
#[inline(always)]
fn finish(z: u64) -> u8 {
    truncate((z ^ (z >> 27)).wrapping_mul(MIX2))
}

/// The last xor-shift and the truncation of the second product `p`. The
/// byte holds bits 0..=7 and 31..=38 of `p` and no other, so any
/// product that agrees with `p` in bits 0..=38 gives the same byte.
#[inline(always)]
fn truncate(p: u64) -> u8 {
    (p ^ (p >> 31)) as u8
}

/// The name of the byte kernel build that [`fill`] and [`verify`] run
/// on this host: `"ifma"`, `"avx512"`, `"avx2"` or `"baseline"`.
#[must_use]
pub fn kernel_build() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if isa::has_ifma() {
            return "ifma";
        }
        if isa::has_avx512() {
            return "avx512";
        }
        if isa::has_avx2() {
            return "avx2";
        }
    }
    "baseline"
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
    // per extent and hands each run whole to its build's primitives (its
    // head, chunks and tail partition it); every primitive writes every
    // slot it is given, the IFMA build's 64-byte and masked stores
    // included (a masked store's mask covers exactly the run's last
    // bytes). `fill_extents` panics before this line if a run does not
    // fit or a slot is left over, so all `total` slots are initialised.
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

/// A build's two primitives, for `fill` and for `verify`: a 64-byte
/// chunk from its shared first product `base` and lane table `lanes`
/// (byte `j` is `finish(base + lanes[j])`), and a lane-wise run from
/// file offset `offset` (byte `i` is `byte_at(offset + i)`). A fill
/// primitive writes every slot it is given; a verify primitive returns
/// the index of the first wrong byte.
trait Kernel: Copy {
    fn fill_chunk(self, base: u64, lanes: &[u64; BLOCK], chunk: &mut [MaybeUninit<u8>; BLOCK]);
    fn fill_run(self, offset: u64, run: &mut [MaybeUninit<u8>]);
    fn verify_chunk(self, base: u64, lanes: &[u64; BLOCK], chunk: &[u8; BLOCK]) -> Option<usize>;
    fn verify_run(self, offset: u64, run: &[u8]) -> Option<usize>;
}

/// Writes `byte_at(o)` for every offset of `extents`, packed, into
/// `out`. `out` must be exactly as long as the extents are in total.
#[inline(always)]
fn fill_extents<K: Kernel>(kernel: K, extents: &[Extent], out: &mut [MaybeUninit<u8>]) {
    let mut products = FirstProducts::new();
    let mut rest = out;
    for e in extents {
        let (run, tail) = rest.split_at_mut(e.len as usize);
        rest = tail;
        let Some(head) = aligned_head(e.offset, run.len()) else {
            kernel.fill_run(e.offset, run);
            continue;
        };
        let (head_run, body) = run.split_at_mut(head);
        kernel.fill_run(e.offset, head_run);
        let mut offset = e.offset + head as u64;
        let (chunks, tail_run) = body.as_chunks_mut::<BLOCK>();
        for chunk in chunks {
            let (base, lanes) = products.chunk(offset.wrapping_add(GAMMA));
            kernel.fill_chunk(base, lanes, chunk);
            offset += BLOCK as u64;
        }
        kernel.fill_run(offset, tail_run);
    }
    assert!(rest.is_empty(), "fill: buffer longer than the extents");
}

/// The first offset at which packed `data` differs from `extents`'
/// content. `data` must be exactly as long as the extents are in total.
#[inline(always)]
fn verify_extents<K: Kernel>(kernel: K, extents: &[Extent], data: &[u8]) -> Option<u64> {
    let at = |offset: u64, bad: Option<usize>| bad.map(|i| offset + i as u64);
    let mut products = FirstProducts::new();
    let mut rest = data;
    for e in extents {
        let (run, tail) = rest.split_at(e.len as usize);
        rest = tail;
        let Some(head) = aligned_head(e.offset, run.len()) else {
            if let Some(bad) = at(e.offset, kernel.verify_run(e.offset, run)) {
                return Some(bad);
            }
            continue;
        };
        let (head_run, body) = run.split_at(head);
        if let Some(bad) = at(e.offset, kernel.verify_run(e.offset, head_run)) {
            return Some(bad);
        }
        let mut offset = e.offset + head as u64;
        let (chunks, tail_run) = body.as_chunks::<BLOCK>();
        for chunk in chunks {
            let (base, lanes) = products.chunk(offset.wrapping_add(GAMMA));
            if let Some(bad) = at(offset, kernel.verify_chunk(base, lanes, chunk)) {
                return Some(bad);
            }
            offset += BLOCK as u64;
        }
        if let Some(bad) = at(offset, kernel.verify_run(offset, tail_run)) {
            return Some(bad);
        }
    }
    None
}

/// The primitives of the baseline, AVX2 and AVX-512 builds: branch-free
/// loops over [`finish`] and [`byte_at`] that the compiler vectorises
/// for whatever target features the calling build enables.
#[derive(Clone, Copy)]
struct Portable;

impl Kernel for Portable {
    #[inline(always)]
    fn fill_chunk(self, base: u64, lanes: &[u64; BLOCK], chunk: &mut [MaybeUninit<u8>; BLOCK]) {
        for (slot, &lane) in chunk.iter_mut().zip(lanes) {
            slot.write(finish(base.wrapping_add(lane)));
        }
    }

    #[inline(always)]
    fn fill_run(self, offset: u64, run: &mut [MaybeUninit<u8>]) {
        for (o, slot) in (offset..).zip(run) {
            slot.write(byte_at(o));
        }
    }

    /// Folds `b ^ finish(..)` over the chunk and rescans it only if the
    /// fold is nonzero.
    #[inline(always)]
    fn verify_chunk(self, base: u64, lanes: &[u64; BLOCK], chunk: &[u8; BLOCK]) -> Option<usize> {
        let expected = |&lane: &u64| finish(base.wrapping_add(lane));
        let d = chunk
            .iter()
            .zip(lanes)
            .fold(0, |acc, (&b, lane)| acc | (b ^ expected(lane)));
        if d == 0 {
            return None;
        }
        chunk
            .iter()
            .zip(lanes)
            .position(|(&b, lane)| b != expected(lane))
    }

    /// Checks one [`BLOCK`] per branch and rescans only a block that
    /// differs.
    #[inline(always)]
    fn verify_run(self, offset: u64, run: &[u8]) -> Option<usize> {
        let (blocks, partial) = run.as_chunks::<BLOCK>();
        let mut offset = offset;
        for (k, block) in blocks.iter().enumerate() {
            if diff(offset, block) != 0 {
                return first_mismatch(offset, block).map(|i| k * BLOCK + i);
            }
            offset += BLOCK as u64;
        }
        if diff(offset, partial) != 0 {
            return first_mismatch(offset, partial).map(|i| blocks.len() * BLOCK + i);
        }
        None
    }
}

/// The OR of `b ^ byte_at(o)` over a run starting at file offset
/// `offset`: zero exactly when the run is intact.
#[inline(always)]
fn diff(offset: u64, run: &[u8]) -> u8 {
    (offset..)
        .zip(run)
        .fold(0, |acc, (o, &b)| acc | (b ^ byte_at(o)))
}

/// The index of the first byte of a run starting at `offset` that is
/// wrong.
#[inline(always)]
fn first_mismatch(offset: u64, run: &[u8]) -> Option<usize> {
    (offset..).zip(run).position(|(o, &b)| b != byte_at(o))
}

/// [`fill_extents`] in the best build this host supports.
fn fill_with_best(extents: &[Extent], out: &mut [MaybeUninit<u8>]) {
    #[cfg(target_arch = "x86_64")]
    {
        if isa::has_ifma() {
            // SAFETY: the host supports every feature the build enables.
            return unsafe { isa::fill_ifma(extents, out) };
        }
        if isa::has_avx512() {
            // SAFETY: the host supports every feature the build enables.
            return unsafe { isa::fill_avx512(extents, out) };
        }
        if isa::has_avx2() {
            // SAFETY: the host supports AVX2, the feature the build enables.
            return unsafe { isa::fill_avx2(extents, out) };
        }
    }
    fill_extents(Portable, extents, out);
}

/// [`verify_extents`] in the best build this host supports.
fn verify_with_best(extents: &[Extent], data: &[u8]) -> Option<u64> {
    #[cfg(target_arch = "x86_64")]
    {
        if isa::has_ifma() {
            // SAFETY: the host supports every feature the build enables.
            return unsafe { isa::verify_ifma(extents, data) };
        }
        if isa::has_avx512() {
            // SAFETY: the host supports every feature the build enables.
            return unsafe { isa::verify_avx512(extents, data) };
        }
        if isa::has_avx2() {
            // SAFETY: the host supports AVX2, the feature the build enables.
            return unsafe { isa::verify_avx2(extents, data) };
        }
    }
    verify_extents(Portable, extents, data)
}

/// The x86-64 builds of the extent walk, compiled with wider vector
/// instructions enabled. Calling one is sound only once its `has_*`
/// check returned true.
#[cfg(target_arch = "x86_64")]
mod isa {
    use std::arch::x86_64::{
        __m512i, _mm512_add_epi64, _mm512_cmpneq_epi8_mask, _mm512_loadu_si512,
        _mm512_madd52lo_epu64, _mm512_mask_cmpneq_epi8_mask, _mm512_mask_storeu_epi8,
        _mm512_maskz_loadu_epi8, _mm512_mullo_epi64, _mm512_permutex2var_epi8, _mm512_set1_epi64,
        _mm512_setzero_si512, _mm512_srli_epi64, _mm512_storeu_si512, _mm512_xor_si512,
    };
    use std::mem::MaybeUninit;

    use mccio_mpiio::Extent;

    use super::{Kernel, Portable, BLOCK, GAMMA, MIX1, MIX2};

    /// True when the host runs the IFMA build.
    pub(super) fn has_ifma() -> bool {
        has_avx512()
            && is_x86_feature_detected!("avx512ifma")
            && is_x86_feature_detected!("avx512vbmi")
    }

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

    #[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vl,avx512ifma,avx512vbmi")]
    pub(super) fn fill_ifma(extents: &[Extent], out: &mut [MaybeUninit<u8>]) {
        super::fill_extents(Ifma(()), extents, out);
    }

    #[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vl,avx512ifma,avx512vbmi")]
    pub(super) fn verify_ifma(extents: &[Extent], data: &[u8]) -> Option<u64> {
        super::verify_extents(Ifma(()), extents, data)
    }

    #[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vl")]
    pub(super) fn fill_avx512(extents: &[Extent], out: &mut [MaybeUninit<u8>]) {
        super::fill_extents(Portable, extents, out);
    }

    #[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vl")]
    pub(super) fn verify_avx512(extents: &[Extent], data: &[u8]) -> Option<u64> {
        super::verify_extents(Portable, extents, data)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn fill_avx2(extents: &[Extent], out: &mut [MaybeUninit<u8>]) {
        super::fill_extents(Portable, extents, out);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn verify_avx2(extents: &[Extent], data: &[u8]) -> Option<u64> {
        super::verify_extents(Portable, extents, data)
    }

    /// The IFMA build's primitives. A value is made only inside
    /// [`fill_ifma`] and [`verify_ifma`], which run only on hosts that
    /// support every feature they enable, so its methods may call the
    /// functions below that need those features.
    #[derive(Clone, Copy)]
    struct Ifma(());

    impl Kernel for Ifma {
        #[inline(always)]
        fn fill_chunk(self, base: u64, lanes: &[u64; BLOCK], chunk: &mut [MaybeUninit<u8>; BLOCK]) {
            // SAFETY: see `Ifma`; the store writes the chunk's 64 bytes.
            unsafe { _mm512_storeu_si512(chunk.as_mut_ptr().cast(), chunk_bytes(base, lanes)) }
        }

        #[inline(always)]
        fn fill_run(self, offset: u64, run: &mut [MaybeUninit<u8>]) {
            let (groups, last) = run.as_chunks_mut::<BLOCK>();
            let mut offset = offset;
            for group in groups {
                // SAFETY: see `Ifma`; the store writes the group's 64 bytes.
                unsafe { _mm512_storeu_si512(group.as_mut_ptr().cast(), run_bytes(offset, 8)) }
                offset += BLOCK as u64;
            }
            if !last.is_empty() {
                // SAFETY: see `Ifma`; the mask holds one bit per byte of
                // `last`, so the store writes exactly those bytes.
                unsafe {
                    _mm512_mask_storeu_epi8(
                        last.as_mut_ptr().cast(),
                        last_mask(last.len()),
                        run_bytes(offset, last.len().div_ceil(8)),
                    );
                }
            }
        }

        #[inline(always)]
        fn verify_chunk(
            self,
            base: u64,
            lanes: &[u64; BLOCK],
            chunk: &[u8; BLOCK],
        ) -> Option<usize> {
            // SAFETY: see `Ifma`; the load reads the chunk's 64 bytes.
            let bad = unsafe {
                _mm512_cmpneq_epi8_mask(
                    chunk_bytes(base, lanes),
                    _mm512_loadu_si512(chunk.as_ptr().cast()),
                )
            };
            first_set(bad)
        }

        #[inline(always)]
        fn verify_run(self, offset: u64, run: &[u8]) -> Option<usize> {
            let (groups, last) = run.as_chunks::<BLOCK>();
            let mut offset = offset;
            for (k, group) in groups.iter().enumerate() {
                // SAFETY: see `Ifma`; the load reads the group's 64 bytes.
                let bad = unsafe {
                    _mm512_cmpneq_epi8_mask(
                        run_bytes(offset, 8),
                        _mm512_loadu_si512(group.as_ptr().cast()),
                    )
                };
                if let Some(i) = first_set(bad) {
                    return Some(k * BLOCK + i);
                }
                offset += BLOCK as u64;
            }
            if last.is_empty() {
                return None;
            }
            let keep = last_mask(last.len());
            // SAFETY: see `Ifma`; the mask holds one bit per byte of
            // `last`, so the load reads exactly those bytes.
            let bad = unsafe {
                let data = _mm512_maskz_loadu_epi8(keep, last.as_ptr().cast());
                _mm512_mask_cmpneq_epi8_mask(keep, run_bytes(offset, last.len().div_ceil(8)), data)
            };
            first_set(bad).map(|i| groups.len() * BLOCK + i)
        }
    }

    /// One bit per byte of a run's last `len` bytes, `0 < len < 64`.
    #[inline(always)]
    fn last_mask(len: usize) -> u64 {
        u64::MAX >> (BLOCK - len)
    }

    /// The index of the lowest set bit of a byte mask: the first wrong
    /// byte.
    #[inline(always)]
    fn first_set(bad: u64) -> Option<usize> {
        (bad != 0).then(|| bad.trailing_zeros() as usize)
    }

    /// The 64 bytes of the chunk whose first products are
    /// `base + lanes[j]`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vl,avx512ifma,avx512vbmi")]
    fn chunk_bytes(base: u64, lanes: &[u64; BLOCK]) -> __m512i {
        let base = _mm512_set1_epi64(base as i64);
        let mut bytes = [_mm512_setzero_si512(); 8];
        for (r, lanes) in bytes.iter_mut().zip(lanes.as_chunks::<8>().0) {
            // SAFETY: `lanes` is 8 `u64`s, the 64 bytes the load reads.
            let lanes = unsafe { _mm512_loadu_si512(lanes.as_ptr().cast()) };
            *r = finish8(_mm512_add_epi64(base, lanes));
        }
        pack(bytes)
    }

    /// The bytes of the `8 * vectors` offsets from `offset` on, one
    /// offset per lane, in bytes `0..8 * vectors` (`vectors <= 8`; the
    /// other bytes are left over). A run's last bytes compute only the
    /// vectors they need.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vl,avx512ifma,avx512vbmi")]
    fn run_bytes(offset: u64, vectors: usize) -> __m512i {
        let eight = _mm512_set1_epi64(8);
        let mix1 = _mm512_set1_epi64(MIX1 as i64);
        let mut z = _mm512_add_epi64(_mm512_set1_epi64(offset.wrapping_add(GAMMA) as i64), IOTA);
        let mut bytes = [_mm512_setzero_si512(); 8];
        for r in &mut bytes[..vectors] {
            let x = _mm512_xor_si512(z, _mm512_srli_epi64::<30>(z));
            *r = finish8(_mm512_mullo_epi64(x, mix1));
            z = _mm512_add_epi64(z, eight);
        }
        pack(bytes)
    }

    /// `finish` of each lane's first product `y`, in the lane's low byte
    /// (the lane's other bytes are left over). The second product is
    /// exact in bits 0..=51, and the byte reads bits 0..=38 of it.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vl,avx512ifma,avx512vbmi")]
    fn finish8(y: __m512i) -> __m512i {
        let w = _mm512_xor_si512(y, _mm512_srli_epi64::<27>(y));
        let p = _mm512_madd52lo_epu64(_mm512_setzero_si512(), w, _mm512_set1_epi64(MIX2 as i64));
        _mm512_xor_si512(p, _mm512_srli_epi64::<31>(p))
    }

    /// Byte 0 of every lane of `r`, vector `k`'s lanes at bytes
    /// `8k..8k + 8`: pairs of vectors, then pairs of pairs, then halves.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vl,avx512ifma,avx512vbmi")]
    fn pack(r: [__m512i; 8]) -> __m512i {
        let q0 = _mm512_permutex2var_epi8(r[0], LOW_BYTES, r[1]);
        let q1 = _mm512_permutex2var_epi8(r[2], LOW_BYTES, r[3]);
        let q2 = _mm512_permutex2var_epi8(r[4], LOW_BYTES, r[5]);
        let q3 = _mm512_permutex2var_epi8(r[6], LOW_BYTES, r[7]);
        let h0 = _mm512_permutex2var_epi8(q0, FIRST_16, q1);
        let h1 = _mm512_permutex2var_epi8(q2, FIRST_16, q3);
        _mm512_permutex2var_epi8(h0, FIRST_32, h1)
    }

    /// Lanes `0..8` as 64-bit integers.
    // SAFETY: any 64 bytes are a valid 512-bit vector.
    const IOTA: __m512i = unsafe { std::mem::transmute([0u64, 1, 2, 3, 4, 5, 6, 7]) };
    /// Byte 0 of each lane of the first table, then of the second.
    const LOW_BYTES: __m512i = interleave(8, 8);
    /// Bytes `0..16` of the first table, then of the second.
    const FIRST_16: __m512i = interleave(16, 1);
    /// Bytes `0..32` of the first table, then of the second.
    const FIRST_32: __m512i = interleave(32, 1);

    /// Byte permute indices into two tables: byte `m` selects byte
    /// `stride * (m % width)` of the first table when `m / width` is
    /// even, of the second when it is odd.
    const fn interleave(width: usize, stride: usize) -> __m512i {
        let mut index = [0u8; BLOCK];
        let mut m = 0;
        while m < BLOCK {
            index[m] = (stride * (m % width) + BLOCK * (m / width % 2)) as u8;
            m += 1;
        }
        // SAFETY: any 64 bytes are a valid 512-bit vector.
        unsafe { std::mem::transmute::<[u8; BLOCK], __m512i>(index) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccio_sim::rng::{Prng, Rng};

    type FillFn = fn(&[Extent], &mut [MaybeUninit<u8>]);
    type VerifyFn = fn(&[Extent], &[u8]) -> Option<u64>;

    /// Every build of the extent walk this host can run, baseline first
    /// and the one `fill`/`verify` dispatch to last.
    fn builds() -> Vec<(&'static str, FillFn, VerifyFn)> {
        let mut out: Vec<(&'static str, FillFn, VerifyFn)> = vec![(
            "baseline",
            |e, o| fill_extents(Portable, e, o),
            |e, d| verify_extents(Portable, e, d),
        )];
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
            if isa::has_ifma() {
                out.push((
                    "ifma",
                    // SAFETY: built only after the host reported every
                    // feature the build enables.
                    |e, o| unsafe { isa::fill_ifma(e, o) },
                    // SAFETY: as above.
                    |e, d| unsafe { isa::verify_ifma(e, d) },
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
        let names: Vec<&str> = builds().iter().map(|&(name, ..)| name).collect();
        println!("byte kernel builds compared with byte_at: {names:?}");
        let mut rng = Prng::seed_from_u64(0xDA7A);
        for _ in 0..400 {
            assert_fills(&random_extents(&mut rng));
        }
    }

    #[test]
    fn kernel_build_names_the_best_build_compared() {
        let (best, ..) = *builds().last().expect("the baseline build");
        assert_eq!(kernel_build(), best);
    }

    #[test]
    fn truncate_reads_only_bits_0_to_38_of_the_second_product() {
        // The IFMA build's second product is exact in bits 0..=51 only.
        let mut rng = Prng::seed_from_u64(39);
        for _ in 0..100_000 {
            let p = rng.next_u64();
            let high = rng.next_u64() & !((1 << 39) - 1);
            assert_eq!(truncate(p ^ high), truncate(p), "p {p:#x}, flip {high:#x}");
            // Bit 38 lands in the byte's top bit: the bound is tight.
            assert_ne!(truncate(p ^ 1 << 38), truncate(p), "p {p:#x}");
        }
    }

    #[test]
    fn a_product_of_the_low_52_bits_is_exact_mod_2_52() {
        const LOW_52: u64 = (1 << 52) - 1;
        let mut rng = Prng::seed_from_u64(52);
        let mut ws: Vec<u64> = (0..100_000).map(|_| rng.next_u64()).collect();
        ws.extend((0..1000).map(|_| rng.next_u64() | !LOW_52));
        ws.extend([0, LOW_52, u64::MAX, !LOW_52]);
        for &w in &ws {
            let low = (u128::from(w & LOW_52) * u128::from(MIX2 & LOW_52)) as u64 & LOW_52;
            assert_eq!(low, w.wrapping_mul(MIX2) & LOW_52, "w {w:#x}");
        }
        #[cfg(target_arch = "x86_64")]
        if isa::has_ifma() {
            for w in ws.chunks_exact(8) {
                let w: [u64; 8] = w.try_into().expect("8 lanes");
                // SAFETY: the host reported AVX-512F and IFMA.
                let got = unsafe { madd52lo(w, MIX2) };
                for (&w, got) in w.iter().zip(got) {
                    assert_eq!(got, w.wrapping_mul(MIX2) & LOW_52, "w {w:#x}");
                }
            }
        }
    }

    /// `vpmadd52luq` with a zero accumulator: the low 52 bits of the
    /// product of the low 52 bits of each lane of `w` and of `c`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn madd52lo(w: [u64; 8], c: u64) -> [u64; 8] {
        use std::arch::x86_64::{
            __m512i, _mm512_madd52lo_epu64, _mm512_set1_epi64, _mm512_setzero_si512,
        };
        // SAFETY: `[u64; 8]` and `__m512i` are the same 64 bytes.
        let w = unsafe { std::mem::transmute::<[u64; 8], __m512i>(w) };
        let p = _mm512_madd52lo_epu64(_mm512_setzero_si512(), w, _mm512_set1_epi64(c as i64));
        // SAFETY: as above.
        unsafe { std::mem::transmute::<__m512i, [u64; 8]>(p) }
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
