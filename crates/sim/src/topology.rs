//! Cluster topology and rank placement.
//!
//! A [`ClusterSpec`] describes the machine the simulation runs on: a list
//! of nodes, each with a core count, memory capacity, off-chip memory
//! bandwidth and NIC bandwidth, plus network-wide latency parameters. A
//! [`Placement`] maps MPI-style ranks onto nodes (and cores), mirroring
//! how `mpiexec` fills a machine.
//!
//! Two ready-made configurations matter for the reproduction:
//!
//! * [`ClusterSpec::testbed`] — the paper's evaluation platform: a
//!   640-node Linux cluster, two 6-core Xeons and 24 GB per node, DDR
//!   InfiniBand, Lustre over DDN storage;
//! * [`ClusterSpec::exascale_node_slice`] — a slice of the projected 2018
//!   exascale design of Table 1 (1000-way node concurrency, 10 GB/node if
//!   memory scaled by 33× while node count scales by 50×), used by the
//!   memory-pressure ablations.

use crate::error::{SimError, SimResult};
use crate::units::{GIB, MIB};

/// Hardware description of one compute node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Number of cores (= maximum processes placed on this node).
    pub cores: usize,
    /// Physical memory capacity in bytes.
    pub mem_capacity: u64,
    /// Off-chip (DRAM) bandwidth in bytes/second, shared by all cores.
    pub mem_bandwidth: f64,
    /// NIC bandwidth in bytes/second (full duplex; applied independently
    /// to ingress and egress).
    pub nic_bandwidth: f64,
}

impl NodeSpec {
    fn validate(&self, idx: usize) -> SimResult<()> {
        if self.cores == 0 {
            return Err(SimError::InvalidConfig(format!("node {idx} has 0 cores")));
        }
        if self.mem_capacity == 0 {
            return Err(SimError::InvalidConfig(format!("node {idx} has 0 memory")));
        }
        if !(self.mem_bandwidth.is_finite() && self.mem_bandwidth > 0.0) {
            return Err(SimError::InvalidConfig(format!(
                "node {idx} memory bandwidth must be positive"
            )));
        }
        if !(self.nic_bandwidth.is_finite() && self.nic_bandwidth > 0.0) {
            return Err(SimError::InvalidConfig(format!(
                "node {idx} NIC bandwidth must be positive"
            )));
        }
        Ok(())
    }
}

/// Description of the whole machine.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Per-node hardware. Nodes may be heterogeneous.
    pub nodes: Vec<NodeSpec>,
    /// One-way network latency between two nodes, seconds.
    pub link_latency: f64,
    /// Intra-node (shared-memory) transfer latency, seconds.
    pub intra_latency: f64,
    /// Per-flow cap on network bandwidth, bytes/second. A single message
    /// stream cannot exceed this even if NICs are idle (models the
    /// per-connection limits of real interconnects).
    pub link_bandwidth: f64,
}

impl ClusterSpec {
    /// A homogeneous cluster of `n_nodes` copies of `node`.
    #[must_use]
    pub fn uniform(n_nodes: usize, node: NodeSpec, link_latency: f64, link_bandwidth: f64) -> Self {
        ClusterSpec {
            nodes: vec![node; n_nodes],
            link_latency,
            intra_latency: 0.5e-6,
            link_bandwidth,
        }
    }

    /// The paper's evaluation platform (Section 4): 640 nodes, two
    /// 6-core 2.8 GHz Xeons and 24 GB per node, double-data-rate
    /// InfiniBand (~2 GB/s per link) with full cross-section bandwidth.
    ///
    /// `n_nodes` lets callers take a slice of the machine — the paper's
    /// runs use 10 nodes (120 ranks) and 90 nodes (1080 ranks).
    #[must_use]
    pub fn testbed(n_nodes: usize) -> Self {
        ClusterSpec::uniform(
            n_nodes,
            NodeSpec {
                cores: 12,
                mem_capacity: 24 * GIB,
                // Two-socket Westmere-era node: ~25 GB/s aggregate DRAM bandwidth.
                mem_bandwidth: 25.0 * GIB as f64,
                // DDR InfiniBand 4x: ~2 GB/s usable.
                nic_bandwidth: 2.0 * GIB as f64,
            },
            1.5e-6,
            2.0 * GIB as f64,
        )
    }

    /// A slice of the projected 2018 exascale machine of Table 1:
    /// 1000-way node concurrency, node memory = 10 PB / 1M nodes = 10 GB,
    /// node memory bandwidth 400 GB/s, interconnect 50 GB/s.
    ///
    /// Memory per core is ~10 MB — the regime the paper argues collective
    /// I/O must survive.
    #[must_use]
    pub fn exascale_node_slice(n_nodes: usize) -> Self {
        ClusterSpec::uniform(
            n_nodes,
            NodeSpec {
                cores: 1000,
                mem_capacity: 10 * GIB,
                mem_bandwidth: 400.0 * GIB as f64,
                nic_bandwidth: 50.0 * GIB as f64,
            },
            1.0e-6,
            50.0 * GIB as f64,
        )
    }

    /// Number of nodes.
    #[must_use]
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Total core count across the machine.
    #[must_use]
    pub fn total_cores(&self) -> usize {
        self.nodes.iter().map(|n| n.cores).sum()
    }

    /// Validates structural invariants, returning a descriptive error for
    /// configurations the simulator cannot run.
    pub fn validate(&self) -> SimResult<()> {
        if self.nodes.is_empty() {
            return Err(SimError::InvalidConfig("cluster has no nodes".into()));
        }
        for (idx, node) in self.nodes.iter().enumerate() {
            node.validate(idx)?;
        }
        if !(self.link_bandwidth.is_finite() && self.link_bandwidth > 0.0) {
            return Err(SimError::InvalidConfig(
                "link bandwidth must be positive".into(),
            ));
        }
        if !(self.link_latency.is_finite() && self.link_latency >= 0.0) {
            return Err(SimError::InvalidConfig(
                "link latency must be non-negative".into(),
            ));
        }
        Ok(())
    }

    /// Borrow the spec of one node.
    pub fn node(&self, node: usize) -> SimResult<&NodeSpec> {
        self.nodes.get(node).ok_or(SimError::InvalidNode {
            node,
            nodes: self.nodes.len(),
        })
    }
}

/// How ranks fill the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillOrder {
    /// Consecutive ranks pack each node before moving to the next (the
    /// common `mpiexec` default and what the paper's Figure 4 assumes:
    /// ranks 0..k-1 on node 0, k..2k-1 on node 1, ...).
    Block,
    /// Ranks are dealt round-robin across nodes.
    RoundRobin,
}

/// A mapping from rank to node, plus the inverse (node → ranks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    rank_to_node: Vec<usize>,
    node_to_ranks: Vec<Vec<usize>>,
}

impl Placement {
    /// Places `n_ranks` ranks on `cluster` in the given fill order.
    ///
    /// Returns an error if the machine has fewer cores than ranks.
    pub fn new(cluster: &ClusterSpec, n_ranks: usize, order: FillOrder) -> SimResult<Self> {
        cluster.validate()?;
        if n_ranks == 0 {
            return Err(SimError::InvalidConfig("placement of 0 ranks".into()));
        }
        if n_ranks > cluster.total_cores() {
            return Err(SimError::InvalidConfig(format!(
                "{n_ranks} ranks exceed {} cores",
                cluster.total_cores()
            )));
        }
        let n_nodes = cluster.n_nodes();
        let mut rank_to_node = Vec::with_capacity(n_ranks);
        let mut node_to_ranks = vec![Vec::new(); n_nodes];
        match order {
            FillOrder::Block => {
                let mut node = 0usize;
                let mut used = 0usize;
                for rank in 0..n_ranks {
                    while used >= cluster.nodes[node].cores {
                        node += 1;
                        used = 0;
                    }
                    rank_to_node.push(node);
                    node_to_ranks[node].push(rank);
                    used += 1;
                }
            }
            FillOrder::RoundRobin => {
                let mut remaining: Vec<usize> = cluster.nodes.iter().map(|n| n.cores).collect();
                let mut node = 0usize;
                for rank in 0..n_ranks {
                    // Find the next node with a free core.
                    let mut probed = 0;
                    while remaining[node] == 0 {
                        node = (node + 1) % n_nodes;
                        probed += 1;
                        assert!(probed <= n_nodes, "capacity checked above");
                    }
                    rank_to_node.push(node);
                    node_to_ranks[node].push(rank);
                    remaining[node] -= 1;
                    node = (node + 1) % n_nodes;
                }
            }
        }
        Ok(Placement {
            rank_to_node,
            node_to_ranks,
        })
    }

    /// Number of ranks in this placement.
    #[must_use]
    pub fn n_ranks(&self) -> usize {
        self.rank_to_node.len()
    }

    /// Number of nodes in the underlying cluster.
    #[must_use]
    pub fn n_nodes(&self) -> usize {
        self.node_to_ranks.len()
    }

    /// The node hosting `rank`.
    ///
    /// # Panics
    /// Panics if `rank` is out of range; rank indices are produced by this
    /// library so an out-of-range value is a bug, not user error.
    #[must_use]
    pub fn node_of(&self, rank: usize) -> usize {
        self.rank_to_node[rank]
    }

    /// Ranks hosted on `node`, in rank order.
    #[must_use]
    pub fn ranks_on(&self, node: usize) -> &[usize] {
        &self.node_to_ranks[node]
    }

    /// Iterator over `(rank, node)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.rank_to_node.iter().copied().enumerate()
    }
}

/// A tiny cluster useful in unit tests: `n_nodes` nodes of `cores` cores,
/// 256 MiB memory, modest bandwidths.
#[must_use]
pub fn test_cluster(n_nodes: usize, cores: usize) -> ClusterSpec {
    ClusterSpec::uniform(
        n_nodes,
        NodeSpec {
            cores,
            mem_capacity: 256 * MIB,
            mem_bandwidth: 10.0 * GIB as f64,
            nic_bandwidth: 1.0 * GIB as f64,
        },
        2e-6,
        1.0 * GIB as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_matches_paper() {
        let c = ClusterSpec::testbed(640);
        assert_eq!(c.n_nodes(), 640);
        assert_eq!(c.nodes[0].cores, 12);
        assert_eq!(c.nodes[0].mem_capacity, 24 * GIB);
        assert_eq!(c.total_cores(), 640 * 12);
        c.validate().unwrap();
    }

    #[test]
    fn exascale_node_memory_per_core_is_megabytes() {
        let c = ClusterSpec::exascale_node_slice(4);
        let per_core = c.nodes[0].mem_capacity / c.nodes[0].cores as u64;
        assert!(per_core < 16 * MIB, "got {per_core}");
        c.validate().unwrap();
    }

    #[test]
    fn block_placement_packs_nodes() {
        let c = test_cluster(3, 3);
        let p = Placement::new(&c, 9, FillOrder::Block).unwrap();
        assert_eq!(p.node_of(0), 0);
        assert_eq!(p.node_of(2), 0);
        assert_eq!(p.node_of(3), 1);
        assert_eq!(p.node_of(8), 2);
        assert_eq!(p.ranks_on(1), &[3, 4, 5]);
    }

    #[test]
    fn round_robin_placement_deals_ranks() {
        let c = test_cluster(3, 3);
        let p = Placement::new(&c, 7, FillOrder::RoundRobin).unwrap();
        assert_eq!(p.node_of(0), 0);
        assert_eq!(p.node_of(1), 1);
        assert_eq!(p.node_of(2), 2);
        assert_eq!(p.node_of(3), 0);
        assert_eq!(p.ranks_on(0), &[0, 3, 6]);
    }

    #[test]
    fn round_robin_skips_full_nodes() {
        let mut c = test_cluster(3, 2);
        c.nodes[1].cores = 1;
        let p = Placement::new(&c, 5, FillOrder::RoundRobin).unwrap();
        // node 1 only takes one rank; the rest spill to nodes 0 and 2.
        assert_eq!(p.ranks_on(1).len(), 1);
        assert_eq!(p.n_ranks(), 5);
        let total: usize = (0..3).map(|n| p.ranks_on(n).len()).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn placement_rejects_oversubscription() {
        let c = test_cluster(2, 2);
        assert!(Placement::new(&c, 5, FillOrder::Block).is_err());
        assert!(Placement::new(&c, 0, FillOrder::Block).is_err());
        assert!(Placement::new(&c, 4, FillOrder::Block).is_ok());
    }

    #[test]
    fn partial_fill_leaves_trailing_nodes_empty() {
        let c = test_cluster(4, 4);
        let p = Placement::new(&c, 6, FillOrder::Block).unwrap();
        assert_eq!(p.ranks_on(0).len(), 4);
        assert_eq!(p.ranks_on(1).len(), 2);
        assert_eq!(p.ranks_on(2).len(), 0);
        assert_eq!(p.ranks_on(3).len(), 0);
    }

    #[test]
    fn validation_catches_bad_nodes() {
        let mut c = test_cluster(2, 2);
        c.nodes[1].mem_capacity = 0;
        assert!(matches!(c.validate(), Err(SimError::InvalidConfig(_))));
        let empty = ClusterSpec {
            nodes: vec![],
            link_latency: 0.0,
            intra_latency: 0.0,
            link_bandwidth: 1.0,
        };
        assert!(empty.validate().is_err());
    }

    #[test]
    fn node_accessor_bounds_checked() {
        let c = test_cluster(2, 2);
        assert!(c.node(1).is_ok());
        assert!(matches!(
            c.node(2),
            Err(SimError::InvalidNode { node: 2, nodes: 2 })
        ));
    }
}
