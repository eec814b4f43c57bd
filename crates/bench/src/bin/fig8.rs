//! Reproduces Figure 8: IOR interleaved at 1080 cores, decreasing the
//! aggregation buffer from 128 MB to 2 MB.
//!
//! Paper numbers to compare shape against: normal two-phase write
//! bandwidth fell 1631.91 → 396.36 MB/s and read 2047.05 → 861.62 MB/s
//! over that sweep; memory-conscious collective I/O improved writes by
//! 24.3 % and reads by 57.8 % on average.
//!
//! Scaled here to 1 MiB per process (1080 rank tasks on one host,
//! virtual-time measurements); the buffer axis scales alongside.
//!
//! ```text
//! cargo run --release -p mccio-bench --bin fig8 [per_rank_mib]
//! ```

use mccio_bench::{run_figure, Platform};
use mccio_sim::units::MIB;
use mccio_workloads::Ior;

fn main() {
    let per_rank_mib: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    // 90 testbed nodes × 12 cores = 1080 ranks, 16 OSTs.
    let platform = Platform::testbed(90, 1080, 16).with_memory(320 * MIB, 64 * MIB);
    let workload = Ior::interleaved_total(per_rank_mib * MIB, 4);
    eprintln!(
        "fig8: IOR interleaved, {per_rank_mib} MiB/process x 1080 ranks = {} MiB file",
        workload.file_bytes(1080) / MIB
    );
    run_figure(
        "Figure 8: IOR interleaved, 1080 processes, bandwidth vs aggregation buffer",
        &workload,
        &platform,
        &[128, 32, 8, 2],
        "paper reference: 2ph write 1631.91->396.36 MB/s, read 2047.05->861.62 MB/s \
         (128->2 MB); MC avg improvement write +24.3%, read +57.8%",
    );
}
