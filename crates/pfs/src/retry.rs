//! Fallible request paths: transient failures, retries, backoff.
//!
//! An [`IoFaults`] bundles the three things a fault-aware access needs —
//! the caller's private transient-failure stream, the [`RetryPolicy`]
//! bounding recovery, and a [`RetryLog`] accumulating what happened so
//! the engine can price it in virtual time and surface it in reports.
//! [`IoFaults::none`] is the healthy configuration: requests cannot fail
//! and the log stays zero, so the fault-free paths behave exactly as
//! before this subsystem existed.

use mccio_sim::error::{SimError, SimResult};
use mccio_sim::fault::{FaultStream, RetryPolicy};
use mccio_sim::time::VDuration;

/// What a sequence of fallible accesses endured.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RetryLog {
    /// Request attempts that transiently failed.
    pub transient_faults: u64,
    /// Retries issued (each priced with backoff in virtual time).
    pub retries: u64,
    /// Total backoff accumulated, virtual time.
    pub backoff: VDuration,
    /// Requests abandoned after exhausting the retry budget.
    pub exhausted: u64,
}

impl RetryLog {
    /// Folds another log into this one.
    pub fn absorb(&mut self, other: RetryLog) {
        self.transient_faults += other.transient_faults;
        self.retries += other.retries;
        self.backoff += other.backoff;
        self.exhausted += other.exhausted;
    }
}

/// Per-caller fault context for PFS accesses.
///
/// Owned by exactly one rank (streams are rank-seeded), so the failure
/// decisions each access observes are independent of rank scheduling.
#[derive(Debug, Clone)]
pub struct IoFaults {
    stream: Option<FaultStream>,
    policy: RetryPolicy,
    /// Running account of faults endured through this context.
    pub log: RetryLog,
}

impl IoFaults {
    /// The healthy context: no access through it can fail.
    #[must_use]
    #[inline]
    pub fn none() -> Self {
        IoFaults {
            stream: None,
            policy: RetryPolicy::default(),
            log: RetryLog::default(),
        }
    }

    /// A faulty context drawing failures from `stream`, recovering under
    /// `policy`.
    #[must_use]
    pub fn new(stream: Option<FaultStream>, policy: RetryPolicy) -> Self {
        policy.assert_valid();
        IoFaults {
            stream,
            policy,
            log: RetryLog::default(),
        }
    }

    /// True when accesses through this context can fail at all.
    #[must_use]
    pub fn can_fail(&self) -> bool {
        self.stream.is_some()
    }

    /// The policy bounding recovery.
    #[must_use]
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Decomposes the context, handing the stream back so a caller can
    /// persist its position across operations (the stream is stateful:
    /// every attempt consumes one draw).
    #[must_use]
    pub fn into_stream(self) -> Option<FaultStream> {
        self.stream
    }

    /// Runs one logical access under the retry policy.
    ///
    /// `attempt_cost` is invoked on every *failed* attempt so the caller
    /// can account the wasted server round-trips (a failed RPC still
    /// reaches the servers and pays its request overhead); `op` performs
    /// the access itself and only runs once the stream grants success.
    ///
    /// On success returns `op()`'s result; after `max_attempts` failures
    /// returns [`SimError::TransientIo`]; if cumulative backoff passes
    /// the policy deadline first, [`SimError::Timeout`]. Backoff is
    /// *recorded*, not slept: the engine adds `log.backoff` to the
    /// round's virtual time.
    pub fn run<T>(
        &mut self,
        mut attempt_cost: impl FnMut(),
        op: impl FnOnce() -> T,
    ) -> SimResult<T> {
        let Some(stream) = &mut self.stream else {
            return Ok(op());
        };
        let mut waited = VDuration::ZERO;
        for attempt in 0..self.policy.max_attempts {
            if !stream.next_fails() {
                return Ok(op());
            }
            self.log.transient_faults += 1;
            attempt_cost();
            // No backoff after the final attempt — we are about to give up.
            if attempt + 1 >= self.policy.max_attempts {
                break;
            }
            let pause = self.policy.backoff(attempt);
            waited += pause;
            self.log.backoff += pause;
            self.log.retries += 1;
            if let Some(deadline) = self.policy.give_up_after {
                if waited > deadline {
                    self.log.exhausted += 1;
                    return Err(SimError::Timeout {
                        waited_us: (waited.as_secs() * 1e6) as u64,
                    });
                }
            }
        }
        self.log.exhausted += 1;
        Err(SimError::TransientIo {
            attempts: self.policy.max_attempts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccio_sim::fault::FaultPlan;

    #[test]
    fn healthy_context_never_fails_and_logs_nothing() {
        let mut f = IoFaults::none();
        for _ in 0..100 {
            let r = f.run(|| panic!("no cost on success"), || 7);
            assert_eq!(r.unwrap(), 7);
        }
        assert_eq!(f.log, RetryLog::default());
    }

    #[test]
    fn failures_retry_and_eventually_succeed() {
        // High rate so the budget is exercised, but < 1 so success comes.
        let plan = FaultPlan::new(3).transient_io_rate(0.5);
        let mut f = IoFaults::new(plan.io_stream(0), RetryPolicy::default());
        let mut completed = 0u32;
        let mut gave_up = 0u32;
        for _ in 0..200 {
            match f.run(|| {}, || ()) {
                Ok(()) => completed += 1,
                Err(SimError::TransientIo { attempts }) => {
                    assert_eq!(attempts, 4);
                    gave_up += 1;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(completed > 150, "most ops recover: {completed}");
        assert!(gave_up > 0, "rate 0.5^4 ≈ 6% exhausts over 200 ops");
        assert_eq!(f.log.exhausted as u32, gave_up);
        assert!(f.log.transient_faults > f.log.retries);
        assert!(f.log.backoff > VDuration::ZERO);
    }

    #[test]
    fn deadline_turns_exhaustion_into_timeout() {
        let plan = FaultPlan::new(4).transient_io_rate(0.95);
        let policy = RetryPolicy {
            max_attempts: 100,
            base_backoff: VDuration::from_micros(1000.0),
            backoff_multiplier: 2.0,
            give_up_after: Some(VDuration::from_micros(2500.0)),
        };
        let mut f = IoFaults::new(plan.io_stream(1), policy);
        let mut saw_timeout = false;
        for _ in 0..50 {
            if let Err(SimError::Timeout { waited_us }) = f.run(|| {}, || ()) {
                assert!(waited_us >= 2500, "{waited_us}");
                saw_timeout = true;
            }
        }
        assert!(saw_timeout);
    }

    #[test]
    fn identical_streams_make_identical_fault_histories() {
        let plan = FaultPlan::new(9).transient_io_rate(0.3);
        let run = || {
            let mut f = IoFaults::new(plan.io_stream(5), RetryPolicy::default());
            let outcomes: Vec<bool> = (0..100).map(|_| f.run(|| {}, || ()).is_ok()).collect();
            (outcomes, f.log)
        };
        assert_eq!(run(), run());
    }
}
