//! Independent (non-collective) I/O drivers.
//!
//! Each rank services its own extent list with no knowledge of other
//! ranks — the baseline MPI-IO path. Two flavours:
//!
//! * **direct**: one storage access per extent. Many small noncontiguous
//!   extents pay the per-request overhead and access latency over and
//!   over; this is the pathology collective I/O fixes.
//! * **sieved**: data sieving per rank (`crate::sieve`) — fewer, larger
//!   covering accesses plus local copies.
//!
//! Timing: each storage access is priced individually (no cross-client
//! batching — these are independent operations by definition) and charged
//! to the rank's virtual clock; sieving additionally charges the local
//! memcpy traffic.

use mccio_net::Ctx;
use mccio_pfs::{FileHandle, IoFaults, PfsParams};
use mccio_sim::error::SimResult;

use crate::extent::ExtentList;
use crate::op::Op;
use crate::report::IoReport;
use crate::sieve::{sieved_read, sieved_write, SieveConfig};

/// Serves `op` with one access per extent. Fault-oblivious: nothing
/// runs direct I/O under a fault plan.
///
/// # Panics
/// Panics if a write's buffer is shorter than the extents, or a read's
/// vector is not empty ([`Op::assert_fresh`]).
pub fn direct(
    ctx: &mut Ctx,
    handle: &FileHandle,
    extents: &ExtentList,
    mut op: Op<'_>,
    params: &PfsParams,
) -> IoReport {
    op.assert_fresh();
    let is_write = op.is_write();
    match &mut op {
        Op::Write(data) => assert!(
            data.len() as u64 >= extents.total_bytes(),
            "packed buffer shorter than extents"
        ),
        Op::Read(out) => out.resize(extents.total_bytes() as usize, 0),
    }
    let mut report = IoReport::empty();
    for (e, range) in extents.with_buffer_ranges() {
        let r = match &mut op {
            Op::Write(data) => handle.write_at(e.offset, &data[range]),
            Op::Read(out) => handle.read_into(e.offset, &mut out[range]),
        };
        let d = params.phase_time(&r, e.len, is_write, 1, &[]);
        ctx.advance(d);
        report.absorb(IoReport::new(e.len, d));
    }
    report
}

/// Serves `op` by per-rank data sieving over a fallible request path:
/// storage attempts may transiently fail and retry per `faults`
/// (healthy callers pass [`IoFaults::none`]), and the backoff they
/// accumulate is charged to the rank's virtual clock here. A read's
/// vector is filled only when the whole access succeeds.
///
/// # Errors
/// Propagates retry exhaustion from the storage layer; safe to re-drive.
pub fn sieved(
    ctx: &mut Ctx,
    handle: &FileHandle,
    extents: &ExtentList,
    op: Op<'_>,
    params: &PfsParams,
    cfg: SieveConfig,
    faults: &mut IoFaults,
) -> SimResult<IoReport> {
    let t0 = ctx.clock();
    let log_before = faults.log;
    let is_write = op.is_write();
    let out = match op {
        Op::Write(data) => sieved_write(handle, extents, data, cfg, faults)?,
        Op::Read(buf) => {
            let (packed, out) = sieved_read(handle, extents, cfg, faults)?;
            *buf = packed;
            out
        }
    };
    let d = params.phase_time(&out.report, out.covered_bytes, is_write, 1, &[]);
    ctx.advance(d);
    ctx.advance(backoff_delta(faults, log_before));
    ctx.charge_local_copy(out.copied_bytes, 1.0);
    Ok(IoReport::new(extents.total_bytes(), ctx.clock() - t0))
}

/// Backoff accumulated in `faults` since the `before` snapshot.
fn backoff_delta(faults: &IoFaults, before: mccio_pfs::RetryLog) -> mccio_sim::time::VDuration {
    mccio_sim::time::VDuration::from_secs(
        (faults.log.backoff.as_secs() - before.backoff.as_secs()).max(0.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extent::Extent;
    use mccio_net::World;
    use mccio_pfs::FileSystem;
    use mccio_sim::cost::CostModel;
    use mccio_sim::topology::{test_cluster, FillOrder, Placement};

    fn run2<F>(f: F) -> Vec<IoReport>
    where
        F: Fn(&mut Ctx, &FileSystem) -> IoReport + Send + Sync,
    {
        let cluster = test_cluster(2, 1);
        let placement = Placement::new(&cluster, 2, FillOrder::Block).unwrap();
        let world = World::new(CostModel::new(cluster), placement);
        let fs = FileSystem::new(4, 64, PfsParams::default());
        world.run(|ctx| f(ctx, &fs))
    }

    fn write(ctx: &mut Ctx, fs: &FileSystem, h: &FileHandle, e: &ExtentList, d: &[u8]) -> IoReport {
        direct(ctx, h, e, Op::Write(d), &fs.params())
    }

    fn read(ctx: &mut Ctx, fs: &FileSystem, h: &FileHandle, e: &ExtentList) -> (Vec<u8>, IoReport) {
        let mut out = Vec::new();
        let r = direct(ctx, h, e, Op::Read(&mut out), &fs.params());
        (out, r)
    }

    fn sieve(
        ctx: &mut Ctx,
        fs: &FileSystem,
        h: &FileHandle,
        e: &ExtentList,
        op: Op<'_>,
    ) -> IoReport {
        let cfg = SieveConfig::default();
        sieved(ctx, h, e, op, &fs.params(), cfg, &mut IoFaults::none()).unwrap()
    }

    fn interleaved(rank: usize, block: u64, count: u64) -> ExtentList {
        ExtentList::normalize(
            (0..count)
                .map(|i| Extent::new((i * 2 + rank as u64) * block, block))
                .collect(),
        )
    }

    #[test]
    fn direct_write_read_roundtrip_across_ranks() {
        let reports = run2(|ctx, fs| {
            let h = fs.open_or_create("f");
            let extents = interleaved(ctx.rank(), 32, 8);
            let data = vec![ctx.rank() as u8 + 1; 256];
            let w = write(ctx, fs, &h, &extents, &data);
            ctx.barrier();
            let (back, r) = read(ctx, fs, &h, &extents);
            assert_eq!(back, data, "rank {} readback", ctx.rank());
            assert_eq!(w.bytes, 256);
            r
        });
        for r in reports {
            assert_eq!(r.bytes, 256);
            assert!(r.elapsed.as_secs() > 0.0);
        }
    }

    #[test]
    fn sieved_matches_direct_contents() {
        let reports = run2(|ctx, fs| {
            let h = fs.open_or_create("f");
            let extents = interleaved(ctx.rank(), 16, 16);
            let data: Vec<u8> = (0..256).map(|i| (i as u8) ^ (ctx.rank() as u8)).collect();
            let r = sieve(ctx, fs, &h, &extents, Op::Write(&data));
            ctx.barrier();
            let mut back = Vec::new();
            let _ = sieve(ctx, fs, &h, &extents, Op::Read(&mut back));
            assert_eq!(back, data);
            r
        });
        assert_eq!(reports.len(), 2);
    }

    #[test]
    fn sieving_is_faster_than_direct_for_many_small_extents() {
        let reports = run2(|ctx, fs| {
            if ctx.rank() == 0 {
                let h = fs.open_or_create("many");
                let extents = interleaved(0, 8, 200);
                let data = vec![1u8; 1600];
                let direct = write(ctx, fs, &h, &extents, &data);
                let sieved = sieve(ctx, fs, &h, &extents, Op::Write(&data));
                assert!(
                    sieved.elapsed.as_secs() < direct.elapsed.as_secs() / 2.0,
                    "sieved {:?} vs direct {:?}",
                    sieved.elapsed,
                    direct.elapsed
                );
                direct
            } else {
                IoReport::empty()
            }
        });
        assert!(reports[0].elapsed.as_secs() > 0.0);
    }

    #[test]
    fn empty_extents_cost_nothing() {
        let _ = run2(|ctx, fs| {
            let h = fs.open_or_create("e");
            let r = write(ctx, fs, &h, &ExtentList::default(), &[]);
            assert_eq!(r.bytes, 0);
            assert_eq!(r.elapsed.as_secs(), 0.0);
            let (d, r2) = read(ctx, fs, &h, &ExtentList::default());
            assert!(d.is_empty());
            r2
        });
    }
}
