//! The shared error type for the MC-CIO workspace.

use std::fmt;

/// Errors surfaced by the simulation layers.
///
/// The variants are deliberately coarse: most invariant violations in the
/// simulator are programming errors and panic instead, while `SimError`
/// covers conditions a *user* of the library can trigger with legitimate
/// inputs (unknown files, out-of-range ranks, infeasible configurations).
/// The enum is `#[non_exhaustive]`: fault injection keeps growing new
/// failure kinds, and downstream matches must carry a wildcard arm so
/// adding one is not a breaking change.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A named file does not exist in the simulated file system.
    NoSuchFile(String),
    /// A file with this name already exists.
    FileExists(String),
    /// A rank index was out of range for the communicator or placement.
    InvalidRank {
        /// The offending rank.
        rank: usize,
        /// The communicator/cluster size it was checked against.
        size: usize,
    },
    /// A node index was out of range for the cluster.
    InvalidNode {
        /// The offending node id.
        node: usize,
        /// Number of nodes in the cluster.
        nodes: usize,
    },
    /// A configuration was structurally invalid (empty cluster, zero
    /// stripe size, ...). The message names the offending field.
    InvalidConfig(String),
    /// A memory reservation could not be satisfied even after falling
    /// back (e.g. every candidate node is exhausted).
    OutOfMemory {
        /// Node on which the reservation was last attempted.
        node: usize,
        /// Bytes requested.
        requested: u64,
        /// Bytes available at that node.
        available: u64,
    },
    /// A PFS request kept failing transiently until the retry budget
    /// was exhausted.
    TransientIo {
        /// Attempts made before giving up (including the first).
        attempts: u32,
    },
    /// Cumulative retry backoff exceeded the policy's deadline.
    Timeout {
        /// Virtual microseconds spent backing off before giving up.
        waited_us: u64,
    },
    /// A peer rank's crash could not be recovered from: no survivor
    /// could take over its duties, or the replacements could not
    /// reserve the buffers they adopted.
    RankFailed {
        /// The rank declared dead.
        rank: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoSuchFile(name) => write!(f, "no such file: {name:?}"),
            SimError::FileExists(name) => write!(f, "file already exists: {name:?}"),
            SimError::InvalidRank { rank, size } => {
                write!(f, "rank {rank} out of range for size {size}")
            }
            SimError::InvalidNode { node, nodes } => {
                write!(f, "node {node} out of range for {nodes} nodes")
            }
            SimError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SimError::OutOfMemory {
                node,
                requested,
                available,
            } => write!(
                f,
                "out of memory on node {node}: requested {requested} B, available {available} B"
            ),
            SimError::TransientIo { attempts } => write!(
                f,
                "transient I/O failure persisted after {attempts} attempts"
            ),
            SimError::Timeout { waited_us } => {
                write!(f, "gave up after {waited_us} us of retry backoff")
            }
            SimError::RankFailed { rank } => {
                write!(f, "rank {rank} declared dead")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Convenience result alias used across the workspace.
pub type SimResult<T> = Result<T, SimError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::InvalidRank { rank: 9, size: 4 };
        assert_eq!(e.to_string(), "rank 9 out of range for size 4");
        let e = SimError::OutOfMemory {
            node: 3,
            requested: 100,
            available: 10,
        };
        assert!(e.to_string().contains("node 3"));
        assert!(e.to_string().contains("100 B"));
    }

    #[test]
    fn implements_error_trait() {
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&SimError::NoSuchFile("x".into()));
        takes_error(&SimError::TransientIo { attempts: 4 });
        takes_error(&SimError::Timeout { waited_us: 1500 });
    }

    #[test]
    fn fault_variants_display_their_budgets() {
        let e = SimError::TransientIo { attempts: 4 };
        assert_eq!(
            e.to_string(),
            "transient I/O failure persisted after 4 attempts"
        );
        let e = SimError::Timeout { waited_us: 2500 };
        assert!(e.to_string().contains("2500 us"), "{e}");
        let e = SimError::RankFailed { rank: 17 };
        assert_eq!(e.to_string(), "rank 17 declared dead");
    }
}
