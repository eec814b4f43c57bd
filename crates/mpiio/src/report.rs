//! I/O operation outcome: bytes moved, virtual time spent, and what the
//! operation endured to get there.

use mccio_sim::time::VDuration;

/// Fault-recovery counters for one operation: how hostile the run was
/// and what the resilience machinery did about it. All zero for a
/// healthy run, so comparing faulty vs. fault-free reports quantifies
/// resilience overhead directly.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Resilience {
    /// PFS request attempts that transiently failed.
    pub transient_faults: u64,
    /// Retries issued against those failures.
    pub retries: u64,
    /// Total retry backoff charged, in virtual time.
    pub backoff: VDuration,
    /// Accesses that exhausted their whole retry budget (each then
    /// escalated: the engine re-drives the access after a policy-wide
    /// backoff rather than dropping data).
    pub exhausted: u64,
    /// Memory revocation events that fired during the operation.
    pub revocations: u64,
    /// Rungs descended on the degradation ladder (0 = planned strategy
    /// ran; 1 = one fallback, e.g. MC-CIO replanned or two-phase; ...).
    pub fallbacks: u32,
    /// Aggregator crashes this operation detected at a round boundary,
    /// each priced as one failure-detection timeout.
    pub crashes_detected: u64,
    /// Replacement aggregators elected from the survivor set.
    pub reelections: u64,
    /// Rounds whose shuffle payloads were replayed against a re-planned
    /// schedule after their original aggregator died.
    pub rounds_replayed: u64,
    /// Shuffle payloads whose end-to-end checksum was verified at
    /// assembly (crash-gated: zero unless the plan schedules crashes).
    pub integrity_verified: u64,
}

impl Resilience {
    /// True when anything at all went wrong (or was worked around).
    #[must_use]
    pub fn any(&self) -> bool {
        *self != Resilience::default()
    }

    /// Folds a sequential follow-up operation's counters into this one.
    /// Fallbacks take the max: the ladder position is a state, not a sum.
    pub fn absorb(&mut self, other: Resilience) {
        self.transient_faults += other.transient_faults;
        self.retries += other.retries;
        self.backoff += other.backoff;
        self.exhausted += other.exhausted;
        self.revocations += other.revocations;
        self.fallbacks = self.fallbacks.max(other.fallbacks);
        self.crashes_detected += other.crashes_detected;
        self.reelections += other.reelections;
        self.rounds_replayed += other.rounds_replayed;
        self.integrity_verified += other.integrity_verified;
    }
}

/// Per-operation engine metrics: what the round loop did to move the
/// bytes, and what it cost in aggregation memory. All zero for paths
/// that bypass the round engine (independent I/O reports only the
/// memory fields). Counters are per-rank facts accumulated with zero
/// communication, so populating them never moves virtual time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpMetrics {
    /// Rounds the operation ran.
    pub rounds: u64,
    /// Bytes this rank put on the wire in shuffle phases.
    pub shuffle_bytes: u64,
    /// Storage requests this rank issued.
    pub storage_requests: u64,
    /// Bytes this rank moved through storage.
    pub storage_bytes: u64,
    /// Always zero, like the next three: the engine keeps no buffer
    /// pool (a shuffle's header messages are slices of its schedule's
    /// encoding). The four fields stay because the `perfbench` package
    /// reads them.
    pub pool_hits: u64,
    /// Always zero (see `pool_hits`).
    pub pool_misses: u64,
    /// Always zero (see `pool_hits`).
    pub recycle_takes: u64,
    /// Always zero (see `pool_hits`).
    pub recycle_returns: u64,
    /// Bytes of the packed buffer this rank exposed for one-sided
    /// access — its write data or its read output, which is the whole
    /// of its shuffle payload; the largest over absorbed operations.
    pub payload_peak_bytes: u64,
    /// Mean per-node aggregation-buffer high-water mark, bytes.
    pub mem_peak_mean: f64,
    /// Largest per-node aggregation-buffer high-water mark, bytes.
    pub mem_peak_max: f64,
    /// Coefficient of variation of the per-node high-water marks — the
    /// paper's "variance among processes" statistic.
    pub mem_peak_cov: f64,
}

impl OpMetrics {
    /// True when anything was recorded.
    #[must_use]
    pub fn any(&self) -> bool {
        *self != OpMetrics::default()
    }

    /// Folds a sequential follow-up operation's metrics into this one:
    /// counters add; memory high-water fields take the later reading
    /// (peaks are monotone over an environment's lifetime, so the
    /// follow-up's view supersedes).
    pub fn absorb(&mut self, other: OpMetrics) {
        self.rounds += other.rounds;
        self.shuffle_bytes += other.shuffle_bytes;
        self.storage_requests += other.storage_requests;
        self.storage_bytes += other.storage_bytes;
        self.payload_peak_bytes = self.payload_peak_bytes.max(other.payload_peak_bytes);
        if other.mem_peak_max > 0.0 {
            self.mem_peak_mean = other.mem_peak_mean;
            self.mem_peak_max = other.mem_peak_max;
            self.mem_peak_cov = other.mem_peak_cov;
        }
    }
}

/// Result of one I/O operation (or one whole benchmark phase) at one
/// rank: how many application bytes moved and how long it took in
/// virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoReport {
    /// Application payload bytes read or written.
    pub bytes: u64,
    /// Virtual time the operation occupied at this rank.
    pub elapsed: VDuration,
    /// Fault-recovery counters (all zero on a healthy run).
    pub resilience: Resilience,
    /// Engine metrics for the operation (zeroed on paths that bypass
    /// the round engine).
    pub metrics: OpMetrics,
}

impl IoReport {
    /// A healthy-run report.
    #[must_use]
    pub fn new(bytes: u64, elapsed: VDuration) -> Self {
        IoReport {
            bytes,
            elapsed,
            resilience: Resilience::default(),
            metrics: OpMetrics::default(),
        }
    }

    /// Starts a builder for a report of `bytes` payload bytes; the
    /// engine and the degradation ladder assemble reports through this
    /// instead of hand-filling fields.
    #[must_use]
    pub fn builder(bytes: u64) -> IoReportBuilder {
        IoReportBuilder {
            bytes,
            elapsed: VDuration::ZERO,
            resilience: Resilience::default(),
            metrics: OpMetrics::default(),
        }
    }

    /// A zero-work report.
    #[must_use]
    pub fn empty() -> Self {
        IoReport::new(0, VDuration::ZERO)
    }

    /// Achieved bandwidth in bytes/second; 0.0 when no time elapsed.
    #[must_use]
    pub fn bandwidth(&self) -> f64 {
        let secs = self.elapsed.as_secs();
        if secs <= 0.0 {
            0.0
        } else {
            self.bytes as f64 / secs
        }
    }

    /// Combines a sequential follow-up operation into this report.
    pub fn absorb(&mut self, other: IoReport) {
        self.bytes += other.bytes;
        self.elapsed += other.elapsed;
        self.resilience.absorb(other.resilience);
        self.metrics.absorb(other.metrics);
    }
}

/// Step-by-step assembly of an [`IoReport`]; see [`IoReport::builder`].
#[derive(Debug, Clone, Copy)]
pub struct IoReportBuilder {
    bytes: u64,
    elapsed: VDuration,
    resilience: Resilience,
    metrics: OpMetrics,
}

impl IoReportBuilder {
    /// Sets the virtual time the operation occupied at this rank.
    #[must_use]
    pub fn elapsed(mut self, elapsed: VDuration) -> Self {
        self.elapsed = elapsed;
        self
    }

    /// Sets the fault-recovery counters the operation accumulated.
    #[must_use]
    pub fn resilience(mut self, resilience: Resilience) -> Self {
        self.resilience = resilience;
        self
    }

    /// Records the degradation-ladder rung that completed the operation
    /// (0 = the planned strategy ran).
    #[must_use]
    pub fn fallbacks(mut self, rung: u32) -> Self {
        self.resilience.fallbacks = rung;
        self
    }

    /// Sets the engine metrics the operation accumulated.
    #[must_use]
    pub fn metrics(mut self, metrics: OpMetrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// Finishes the report.
    #[must_use]
    pub fn build(self) -> IoReport {
        IoReport {
            bytes: self.bytes,
            elapsed: self.elapsed,
            resilience: self.resilience,
            metrics: self.metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_is_bytes_over_time() {
        let r = IoReport::new(1_000_000, VDuration::from_secs(2.0));
        assert_eq!(r.bandwidth(), 500_000.0);
        assert_eq!(IoReport::empty().bandwidth(), 0.0);
    }

    #[test]
    fn absorb_accumulates() {
        let mut a = IoReport::new(10, VDuration::from_secs(1.0));
        a.absorb(IoReport::new(5, VDuration::from_secs(0.5)));
        assert_eq!(a.bytes, 15);
        assert_eq!(a.elapsed.as_secs(), 1.5);
        assert!(!a.resilience.any());
    }

    #[test]
    fn resilience_absorbs_counts_and_maxes_fallbacks() {
        let mut a = Resilience {
            transient_faults: 3,
            retries: 2,
            backoff: VDuration::from_secs(0.1),
            exhausted: 0,
            revocations: 1,
            fallbacks: 2,
            crashes_detected: 1,
            reelections: 1,
            rounds_replayed: 1,
            integrity_verified: 8,
        };
        assert!(a.any());
        a.absorb(Resilience {
            transient_faults: 1,
            retries: 1,
            backoff: VDuration::from_secs(0.2),
            exhausted: 1,
            revocations: 0,
            fallbacks: 1,
            crashes_detected: 1,
            reelections: 2,
            rounds_replayed: 0,
            integrity_verified: 4,
        });
        assert_eq!(a.transient_faults, 4);
        assert_eq!(a.retries, 3);
        assert!((a.backoff.as_secs() - 0.3).abs() < 1e-12);
        assert_eq!(a.exhausted, 1);
        assert_eq!(a.revocations, 1);
        assert_eq!(a.fallbacks, 2, "ladder position is a max, not a sum");
        assert_eq!(a.crashes_detected, 2);
        assert_eq!(a.reelections, 3);
        assert_eq!(a.rounds_replayed, 1);
        assert_eq!(a.integrity_verified, 12);
        assert!(!Resilience::default().any());
    }
}
