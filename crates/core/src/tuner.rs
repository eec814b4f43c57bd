//! Runtime parameter tuning (paper §3, prelude).
//!
//! The prototype "measures the corresponding parameters for optimizing
//! the performance of collective I/O": the optimal aggregator count per
//! node `N_ah`, the per-aggregator message size `Msg_ind` that saturates
//! one node's I/O path, the minimum node memory `Mem_min`, and the group
//! message size `Msg_group`. The paper determines them empirically; we
//! derive them the same way — by *measuring the simulated platform*
//! (sweeping request sizes through the PFS service model and aggregator
//! counts through the NIC/client budget) rather than hard-coding magic
//! numbers.

use mccio_pfs::{PfsParams, ServiceReport};
use mccio_sim::topology::ClusterSpec;
use mccio_sim::units::{KIB, MIB};

/// The four tuned parameters of memory-conscious collective I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tuning {
    /// Aggregators per node that saturate the node's I/O path (`N_ah`).
    pub n_ah: usize,
    /// Per-aggregator message size that reaches (close to) peak storage
    /// bandwidth (`Msg_ind`), bytes.
    pub msg_ind: u64,
    /// Minimum aggregation memory a node needs for full performance
    /// (`Mem_min = N_ah × Msg_ind`), bytes.
    pub mem_min: u64,
    /// Aggregation-group message size (`Msg_group`), bytes.
    pub msg_group: u64,
}

/// How many node's worth of saturating traffic one aggregation group
/// spans by default. Empirical, like the paper's group size; the
/// `group_sweep` ablation bench explores the sensitivity.
const GROUP_NODES: u64 = 4;

impl Tuning {
    /// Derives the tuning for a platform by measurement against the
    /// simulated storage and network models.
    ///
    /// # Panics
    /// Panics on an empty cluster.
    #[must_use]
    pub fn derive(cluster: &ClusterSpec, pfs: &PfsParams, n_servers: usize) -> Self {
        assert!(!cluster.nodes.is_empty(), "empty cluster");
        let msg_ind = measure_msg_ind(pfs, n_servers);
        let n_ah = measure_n_ah(cluster, pfs, n_servers, msg_ind);
        let mem_min = n_ah as u64 * msg_ind;
        let msg_group = mem_min * GROUP_NODES;
        Tuning {
            n_ah,
            msg_ind,
            mem_min,
            msg_group,
        }
    }

    /// Overrides `Msg_group` (the ablation benches sweep it).
    #[must_use]
    pub fn with_msg_group(mut self, msg_group: u64) -> Self {
        assert!(msg_group > 0);
        self.msg_group = msg_group;
        self
    }

    /// Overrides `N_ah`.
    #[must_use]
    pub fn with_n_ah(mut self, n_ah: usize) -> Self {
        assert!(n_ah > 0);
        self.n_ah = n_ah;
        self.mem_min = n_ah as u64 * self.msg_ind;
        self
    }

    /// Overrides `Msg_ind` (and recomputes `Mem_min`).
    #[must_use]
    pub fn with_msg_ind(mut self, msg_ind: u64) -> Self {
        assert!(msg_ind > 0);
        self.msg_ind = msg_ind;
        self.mem_min = self.n_ah as u64 * msg_ind;
        self
    }
}

/// Bandwidth one client achieves for a single contiguous request of
/// `size` bytes, from the storage service model.
#[must_use]
pub fn client_bandwidth_at(size: u64, pfs: &PfsParams, n_servers: usize) -> f64 {
    assert!(size > 0);
    let striping = mccio_pfs::Striping::new(n_servers, MIB);
    let mut report = ServiceReport::empty(n_servers);
    for ext in striping.extents(0, size) {
        report.add_request(ext.server, ext.len);
    }
    let t = pfs.phase_time(&report, size, false, 1, &[]).as_secs();
    size as f64 / t
}

/// The saturation sweep behind `Msg_ind`: `(size, bandwidth)` samples
/// over power-of-two request sizes. Exposed for the ablation bench and
/// the tuning example.
#[must_use]
pub fn saturation_sweep(pfs: &PfsParams, n_servers: usize) -> Vec<(u64, f64)> {
    let mut out = Vec::new();
    let mut size = 64 * KIB;
    while size <= 512 * MIB {
        out.push((size, client_bandwidth_at(size, pfs, n_servers)));
        size *= 2;
    }
    out
}

/// Smallest power-of-two request size achieving ≥ 90 % of the asymptotic
/// single-client bandwidth.
fn measure_msg_ind(pfs: &PfsParams, n_servers: usize) -> u64 {
    let sweep = saturation_sweep(pfs, n_servers);
    let peak = sweep.iter().map(|&(_, bw)| bw).fold(0.0f64, f64::max);
    sweep
        .iter()
        .find(|&&(_, bw)| bw >= 0.9 * peak)
        .map(|&(size, _)| size)
        .expect("sweep is non-empty")
}

/// Measures the aggregators-per-node sweet spot: simulate one
/// full-system storage phase (every node running `n` aggregators, each
/// moving `Msg_ind` contiguous bytes) for increasing `n` and keep the
/// smallest `n` within 5 % of the best system throughput. More
/// aggregators add client pipes (good until the servers or the NIC
/// saturate) but also per-server request overhead (bad); measuring the
/// model resolves the tension the way the paper resolved it empirically.
fn measure_n_ah(cluster: &ClusterSpec, pfs: &PfsParams, n_servers: usize, msg_ind: u64) -> usize {
    let node = &cluster.nodes[0];
    let n_nodes = cluster.n_nodes().max(1);
    let striping = mccio_pfs::Striping::new(n_servers, MIB);
    let candidates: Vec<usize> = (1..=node.cores.min(8)).collect();
    let mut results: Vec<(usize, f64)> = Vec::new();
    for &n in &candidates {
        let aggs = n_nodes * n;
        let bytes = aggs as u64 * msg_ind;
        let mut report = ServiceReport::empty(n_servers);
        for a in 0..aggs as u64 {
            for ext in striping.extents(a * msg_ind, msg_ind) {
                report.add_request(ext.server, ext.len);
            }
        }
        let storage = pfs.phase_time(&report, msg_ind, true, aggs, &[]).as_secs();
        // NIC constraint: each node must push n x msg_ind bytes out.
        let nic = (n as u64 * msg_ind) as f64 / node.nic_bandwidth;
        let bw = bytes as f64 / storage.max(nic);
        results.push((n, bw));
    }
    let peak = results.iter().map(|&(_, bw)| bw).fold(0.0f64, f64::max);
    results
        .iter()
        .find(|&&(_, bw)| bw >= 0.95 * peak)
        .map(|&(n, _)| n)
        .expect("non-empty candidate sweep")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccio_sim::topology::{test_cluster, NodeSpec};
    use mccio_sim::units::GIB;

    #[test]
    fn sweep_bandwidth_increases_then_saturates() {
        let pfs = PfsParams::default();
        let sweep = saturation_sweep(&pfs, 8);
        assert!(sweep.len() > 8);
        // Monotone non-decreasing until within noise of peak.
        for w in sweep.windows(2) {
            assert!(w[1].1 >= w[0].1 * 0.99, "bandwidth dipped: {w:?}");
        }
        let first = sweep.first().unwrap().1;
        let last = sweep.last().unwrap().1;
        // With a 400 MiB/s client pipe the asymptote is client-capped;
        // the overhead regime still sits well below it.
        assert!(
            last > 2.0 * first,
            "saturation never separated from overhead regime: {first} -> {last}"
        );
    }

    #[test]
    fn msg_ind_is_in_a_sane_range() {
        let t = Tuning::derive(&test_cluster(4, 4), &PfsParams::default(), 8);
        assert!(t.msg_ind >= 256 * KIB, "{}", t.msg_ind);
        assert!(t.msg_ind <= 256 * MIB, "{}", t.msg_ind);
        assert_eq!(t.mem_min, t.n_ah as u64 * t.msg_ind);
        assert_eq!(t.msg_group, t.mem_min * GROUP_NODES);
    }

    #[test]
    fn fat_nic_wants_more_aggregators() {
        let pfs = PfsParams::default(); // 400 MiB/s client pipe
        let thin = ClusterSpec::uniform(
            2,
            NodeSpec {
                cores: 16,
                mem_capacity: GIB,
                mem_bandwidth: 10.0 * GIB as f64,
                nic_bandwidth: 0.5 * GIB as f64,
            },
            1e-6,
            8.0 * GIB as f64,
        );
        let fat = ClusterSpec::uniform(
            2,
            NodeSpec {
                nic_bandwidth: 16.0 * GIB as f64,
                ..thin.nodes[0].clone()
            },
            1e-6,
            8.0 * GIB as f64,
        );
        let t_thin = Tuning::derive(&thin, &pfs, 8);
        let t_fat = Tuning::derive(&fat, &pfs, 8);
        assert!(t_fat.n_ah > t_thin.n_ah, "{t_fat:?} vs {t_thin:?}");
        assert!(t_fat.n_ah <= 8, "capped by the candidate sweep: {t_fat:?}");
    }

    #[test]
    fn overrides_recompute_derived_values() {
        let t = Tuning::derive(&test_cluster(2, 4), &PfsParams::default(), 4);
        let t2 = t.with_n_ah(3).with_msg_ind(2 * MIB);
        assert_eq!(t2.mem_min, 6 * MIB);
        let t3 = t2.with_msg_group(123 * MIB);
        assert_eq!(t3.msg_group, 123 * MIB);
        assert_eq!(t3.n_ah, 3);
    }

    #[test]
    fn bigger_requests_never_hurt_client_bandwidth() {
        let pfs = PfsParams::default();
        let small = client_bandwidth_at(256 * KIB, &pfs, 4);
        let large = client_bandwidth_at(64 * MIB, &pfs, 4);
        assert!(large > small);
    }
}
