//! Deterministic fault injection.
//!
//! Extreme-scale machines are hostile: aggregation memory fluctuates per
//! node, storage targets drop requests, nodes straggle. A [`FaultPlan`]
//! describes such an environment as *data* — scheduled memory
//! revocation/restoration events keyed to virtual time, a seeded
//! transient-failure rate for PFS requests, per-server slowdown
//! multipliers, straggler nodes, and a control-message delay — so a
//! faulty run is exactly as reproducible as a healthy one.
//!
//! Determinism is structural, not incidental:
//!
//! * per-rank failure streams come from [`stream_rng`] with the rank
//!   baked into the stream label, so the sequence each rank observes is
//!   independent of rank interleaving;
//! * memory events fire when the *virtual* clock crosses their
//!   timestamp, and the engine only consults the clock at collective
//!   synchronization points where every rank agrees on it;
//! * retry backoff is priced in virtual time ([`RetryPolicy::backoff`]),
//!   never slept in wall-clock time.
//!
//! Same seed + same plan ⇒ bit-identical data and identical virtual-time
//! reports, on any machine and any rank schedule.

use crate::rng::{stream_rng, Prng, Rng};
use crate::time::{VDuration, VTime};

/// Bounded-retry policy with exponential backoff, priced in virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per request, including the first (≥ 1).
    pub max_attempts: u32,
    /// Backoff charged after the first failed attempt.
    pub base_backoff: VDuration,
    /// Growth factor applied per successive retry (≥ 1).
    pub backoff_multiplier: f64,
    /// Give up with [`crate::SimError::Timeout`] once cumulative backoff
    /// exceeds this, even if attempts remain.
    pub give_up_after: Option<VDuration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: VDuration::from_micros(1000.0),
            backoff_multiplier: 2.0,
            give_up_after: None,
        }
    }
}

/// Largest exponent [`RetryPolicy::backoff`] will raise the multiplier
/// to. Beyond this the backoff saturates: with the default 2× multiplier
/// the cap already prices a wait of 2⁶⁴ × base, far past any
/// `give_up_after` deadline, while keeping the computation finite for
/// adversarial retry counts (`powi(u32 as i32)` would otherwise wrap
/// negative at retry ≥ 2³¹ and *shrink* the wait).
pub const MAX_BACKOFF_EXPONENT: u32 = 64;

impl RetryPolicy {
    /// Backoff charged before retry number `retry` (0-based: the wait
    /// after the first failure is `backoff(0) == base_backoff`).
    ///
    /// Growth saturates at [`MAX_BACKOFF_EXPONENT`]: every retry at or
    /// past the cap is charged the same (large but finite) wait.
    #[must_use]
    pub fn backoff(&self, retry: u32) -> VDuration {
        let exponent = retry.min(MAX_BACKOFF_EXPONENT);
        self.base_backoff * self.backoff_multiplier.powi(exponent as i32)
    }

    /// Panics if the policy is structurally invalid.
    pub fn assert_valid(&self) {
        assert!(self.max_attempts >= 1, "max_attempts must be at least 1");
        assert!(
            self.backoff_multiplier >= 1.0 && self.backoff_multiplier.is_finite(),
            "backoff_multiplier must be finite and ≥ 1, got {}",
            self.backoff_multiplier
        );
    }
}

/// One scheduled environmental change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// The host reclaims `bytes` of node `node`'s memory (e.g. the
    /// application or another tenant grows): available memory shrinks
    /// mid-run and the collective driver must re-plan around it.
    RevokeMemory {
        /// Node losing memory.
        node: usize,
        /// Bytes reclaimed.
        bytes: u64,
    },
    /// The host returns `bytes` of previously revoked memory on `node`.
    RestoreMemory {
        /// Node regaining memory.
        node: usize,
        /// Bytes returned.
        bytes: u64,
    },
    /// Rank `rank` stops serving its aggregation role: once the engine's
    /// agreed clock crosses this point the rank answers no shuffle
    /// traffic and must be replaced by re-election. The rank's *process*
    /// keeps lock-step as a plain client (the loosely-coupled CIO model:
    /// participants drop aggregation duty, not membership), so its own
    /// file data still reaches storage through the recovered plan.
    RankCrash {
        /// Rank whose aggregator role dies.
        rank: usize,
    },
    /// Rank `rank` becomes eligible for aggregation duty again. Recovery
    /// affects *future* plans and re-elections only; domains already
    /// moved away stay with their replacement.
    RankRecover {
        /// Rank rejoining the candidate set.
        rank: usize,
    },
}

/// A [`FaultEvent`] scheduled at a point in virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedEvent {
    /// Virtual time at which the event fires.
    pub at: VTime,
    /// What happens.
    pub event: FaultEvent,
}

/// A deterministic description of a hostile environment.
///
/// Build one fluently and hand it to `IoEnv::with_faults`:
///
/// ```
/// use mccio_sim::fault::{FaultPlan, RetryPolicy};
/// use mccio_sim::time::{VDuration, VTime};
///
/// let plan = FaultPlan::new(42)
///     .transient_io_rate(0.05)
///     .revoke_memory_at(VTime::from_secs(0.002), 1, 512 << 20)
///     .slow_server(0, 3.0)
///     .straggler(2, 1.5)
///     .retry_policy(RetryPolicy::default());
/// assert_eq!(plan.events().len(), 1);
/// assert!(plan.io_stream(0).is_some());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every failure stream the plan derives.
    pub seed: u64,
    events: Vec<TimedEvent>,
    /// Probability in `[0, 1)` that any single PFS request attempt
    /// transiently fails.
    pub io_failure_rate: f64,
    server_slowdown: Vec<(usize, f64)>,
    stragglers: Vec<(usize, f64)>,
    /// Extra latency stamped onto every control-plane message.
    pub ctl_delay: VDuration,
    /// Retry policy governing fallible request paths.
    pub retry: RetryPolicy,
}

/// How long a real failure detector would wait on a silent peer before
/// declaring it dead, in microseconds: the virtual-time price of failure
/// detection, charged to every rank per newly-dead aggregator at the
/// detection point.
const DETECT_TIMEOUT_US: f64 = 250.0;

impl FaultPlan {
    /// An empty plan (injects nothing) with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            events: Vec::new(),
            io_failure_rate: 0.0,
            server_slowdown: Vec::new(),
            stragglers: Vec::new(),
            ctl_delay: VDuration::ZERO,
            retry: RetryPolicy::default(),
        }
    }

    /// Schedules a memory revocation at virtual time `at`.
    #[must_use]
    pub fn revoke_memory_at(mut self, at: VTime, node: usize, bytes: u64) -> Self {
        self.events.push(TimedEvent {
            at,
            event: FaultEvent::RevokeMemory { node, bytes },
        });
        self.sort_events();
        self
    }

    /// Schedules a memory restoration at virtual time `at`.
    #[must_use]
    pub fn restore_memory_at(mut self, at: VTime, node: usize, bytes: u64) -> Self {
        self.events.push(TimedEvent {
            at,
            event: FaultEvent::RestoreMemory { node, bytes },
        });
        self.sort_events();
        self
    }

    /// Schedules an aggregator-role crash of `rank` at virtual time `at`.
    #[must_use]
    pub fn crash_rank_at(mut self, at: VTime, rank: usize) -> Self {
        self.events.push(TimedEvent {
            at,
            event: FaultEvent::RankCrash { rank },
        });
        self.sort_events();
        self
    }

    /// Schedules `rank` to rejoin the aggregation candidate set at `at`.
    #[must_use]
    pub fn recover_rank_at(mut self, at: VTime, rank: usize) -> Self {
        self.events.push(TimedEvent {
            at,
            event: FaultEvent::RankRecover { rank },
        });
        self.sort_events();
        self
    }

    /// Schedules `count` crashes of distinct ranks drawn from
    /// `0..n_ranks`, at times drawn uniformly from `[from, until]` —
    /// the seeded crash schedule for chaos sweeps. The draw depends only
    /// on `(seed, count, n_ranks, window)`, so two plans built with the
    /// same seed inject identical schedules.
    ///
    /// # Panics
    /// Panics if `count > n_ranks` (crashed ranks are distinct) or the
    /// window is inverted.
    #[must_use]
    pub fn random_crashes(
        mut self,
        count: usize,
        n_ranks: usize,
        from: VTime,
        until: VTime,
    ) -> Self {
        assert!(
            count <= n_ranks,
            "cannot crash {count} distinct ranks out of {n_ranks}"
        );
        assert!(from <= until, "inverted crash window");
        let mut rng = stream_rng(self.seed, "crash-schedule");
        let mut pool: Vec<usize> = (0..n_ranks).collect();
        for _ in 0..count {
            let idx = rng.gen_range(0..=pool.len() - 1);
            let rank = pool.swap_remove(idx);
            let span = until.since(from).as_secs();
            let at = from + VDuration::from_secs(rng.gen::<f64>() * span);
            self.events.push(TimedEvent {
                at,
                event: FaultEvent::RankCrash { rank },
            });
        }
        self.sort_events();
        self
    }

    /// Sets the transient PFS request failure probability.
    ///
    /// # Panics
    /// Panics unless `0 ≤ rate < 1` — a rate of 1 would make every
    /// retry fail forever.
    #[must_use]
    pub fn transient_io_rate(mut self, rate: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&rate),
            "transient failure rate must be in [0, 1), got {rate}"
        );
        self.io_failure_rate = rate;
        self
    }

    /// Marks PFS server `server` as degraded: its service time is
    /// multiplied by `factor` (≥ 1).
    #[must_use]
    pub fn slow_server(mut self, server: usize, factor: f64) -> Self {
        assert!(
            factor >= 1.0 && factor.is_finite(),
            "slowdown factor must be finite and ≥ 1, got {factor}"
        );
        self.server_slowdown.retain(|&(s, _)| s != server);
        self.server_slowdown.push((server, factor));
        self.server_slowdown.sort_unstable_by_key(|&(s, _)| s);
        self
    }

    /// Marks node `node` as a straggler: its compute/memory phases run
    /// `factor`× slower (≥ 1).
    #[must_use]
    pub fn straggler(mut self, node: usize, factor: f64) -> Self {
        assert!(
            factor >= 1.0 && factor.is_finite(),
            "straggler factor must be finite and ≥ 1, got {factor}"
        );
        self.stragglers.retain(|&(n, _)| n != node);
        self.stragglers.push((node, factor));
        self.stragglers.sort_unstable_by_key(|&(n, _)| n);
        self
    }

    /// Adds `delay` of latency to every control-plane message.
    #[must_use]
    pub fn delay_control(mut self, delay: VDuration) -> Self {
        self.ctl_delay = delay;
        self
    }

    /// Replaces the retry policy.
    ///
    /// # Panics
    /// Panics if the policy is invalid (see [`RetryPolicy::assert_valid`]).
    #[must_use]
    pub fn retry_policy(mut self, retry: RetryPolicy) -> Self {
        retry.assert_valid();
        self.retry = retry;
        self
    }

    fn sort_events(&mut self) {
        self.events
            .sort_by(|a, b| a.at.partial_cmp(&b.at).expect("VTime is finite"));
    }

    /// The scheduled events, sorted by firing time.
    #[must_use]
    pub fn events(&self) -> &[TimedEvent] {
        &self.events
    }

    /// Number of leading events with `at ≤ now` — the applier keeps a
    /// cursor and applies `events()[cursor..due_by(now)]` at each
    /// synchronization point.
    #[must_use]
    pub fn due_by(&self, now: VTime) -> usize {
        self.events.iter().take_while(|e| e.at <= now).count()
    }

    /// Number of revocation events firing in the half-open window
    /// `(after, upto]` — a pure function of the plan, used to report
    /// per-operation revocation counts independent of rank schedule.
    #[must_use]
    pub fn revocations_between(&self, after: VTime, upto: VTime) -> u64 {
        self.events
            .iter()
            .filter(|e| {
                e.at > after && e.at <= upto && matches!(e.event, FaultEvent::RevokeMemory { .. })
            })
            .count() as u64
    }

    /// The transient-failure stream observed by `rank`, or `None` when
    /// the plan injects no I/O faults. Each rank's stream is independent
    /// and fixed by `(seed, rank)` alone.
    #[must_use]
    pub fn io_stream(&self, rank: usize) -> Option<FaultStream> {
        if self.io_failure_rate <= 0.0 {
            return None;
        }
        Some(FaultStream {
            rng: stream_rng(self.seed, &format!("pfs-io-faults-rank-{rank}")),
            rate: self.io_failure_rate,
        })
    }

    /// Per-server slowdown multipliers as a dense vector of length
    /// `n_servers` (1.0 = healthy).
    #[must_use]
    pub fn server_slowdowns(&self, n_servers: usize) -> Vec<f64> {
        let mut v = vec![1.0; n_servers];
        for &(s, f) in &self.server_slowdown {
            if s < n_servers {
                v[s] = f;
            }
        }
        v
    }

    /// True if any server carries a slowdown multiplier.
    #[must_use]
    pub fn has_slow_servers(&self) -> bool {
        !self.server_slowdown.is_empty()
    }

    /// The straggler multiplier of `node` (1.0 = healthy).
    #[must_use]
    pub fn straggler_factor(&self, node: usize) -> f64 {
        self.stragglers
            .iter()
            .find(|&&(n, _)| n == node)
            .map_or(1.0, |&(_, f)| f)
    }

    /// True if the plan schedules any rank crash. The engine keys *all*
    /// crash machinery (agreed-clock broadcast, liveness probes, payload
    /// checksums, re-planning) off this, so crash-free plans pay nothing.
    #[must_use]
    pub fn has_crashes(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e.event, FaultEvent::RankCrash { .. }))
    }

    /// The ranks whose aggregator role is dead at virtual time `now`:
    /// for each rank, the latest crash/recover event with `at ≤ now`
    /// wins. Sorted ascending — a pure function of `(plan, now)`, so
    /// every rank evaluating it at an agreed clock computes the same
    /// survivor set with no extra communication.
    #[must_use]
    pub fn crashed_at(&self, now: VTime) -> Vec<usize> {
        let mut dead = Vec::new();
        for e in self.events.iter().take_while(|e| e.at <= now) {
            match e.event {
                FaultEvent::RankCrash { rank } => {
                    if !dead.contains(&rank) {
                        dead.push(rank);
                    }
                }
                FaultEvent::RankRecover { rank } => dead.retain(|&r| r != rank),
                FaultEvent::RevokeMemory { .. } | FaultEvent::RestoreMemory { .. } => {}
            }
        }
        dead.sort_unstable();
        dead
    }

    /// The virtual-time price of detecting one dead peer: how long a
    /// failure detector would wait on its silence.
    #[must_use]
    pub fn detect_timeout(&self) -> VDuration {
        VDuration::from_micros(DETECT_TIMEOUT_US)
    }

    /// True if the plan injects anything at all.
    #[must_use]
    pub fn is_active(&self) -> bool {
        !self.events.is_empty()
            || self.io_failure_rate > 0.0
            || !self.server_slowdown.is_empty()
            || !self.stragglers.is_empty()
            || self.ctl_delay > VDuration::ZERO
    }
}

/// A rank-private stream of transient-failure decisions.
///
/// Each PFS request attempt consumes one draw; because the stream is
/// owned by exactly one rank and seeded from `(plan seed, rank)`, the
/// decision sequence is identical across runs and rank schedules.
#[derive(Debug, Clone)]
pub struct FaultStream {
    rng: Prng,
    rate: f64,
}

impl FaultStream {
    /// Draws the next decision: does this request attempt fail?
    pub fn next_fails(&mut self) -> bool {
        self.rng.gen_bool(self.rate)
    }

    /// The failure probability this stream draws with.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially() {
        let p = RetryPolicy {
            max_attempts: 5,
            base_backoff: VDuration::from_micros(100.0),
            backoff_multiplier: 2.0,
            give_up_after: None,
        };
        assert!((p.backoff(0).as_secs() - 100e-6).abs() < 1e-12);
        assert!((p.backoff(1).as_secs() - 200e-6).abs() < 1e-12);
        assert!((p.backoff(3).as_secs() - 800e-6).abs() < 1e-12);
    }

    #[test]
    fn backoff_saturates_at_the_exponent_cap() {
        let p = RetryPolicy {
            max_attempts: u32::MAX,
            base_backoff: VDuration::from_micros(1.0),
            backoff_multiplier: 2.0,
            give_up_after: None,
        };
        let at_cap = p.backoff(MAX_BACKOFF_EXPONENT);
        assert!(at_cap.as_secs().is_finite());
        // Everything past the cap charges exactly the capped wait — in
        // particular retry counts whose `as i32` cast would wrap
        // negative and *shrink* the backoff.
        assert_eq!(p.backoff(MAX_BACKOFF_EXPONENT + 1), at_cap);
        assert_eq!(p.backoff(u32::MAX), at_cap);
        assert!(p.backoff(u32::MAX) >= p.backoff(0));
    }

    #[test]
    fn crash_schedule_tracks_latest_event() {
        let t = VTime::from_secs;
        let plan = FaultPlan::new(3)
            .crash_rank_at(t(1.0), 4)
            .crash_rank_at(t(2.0), 1)
            .recover_rank_at(t(3.0), 4);
        assert!(plan.has_crashes());
        assert!(plan.is_active(), "crash events activate the plan");
        assert_eq!(plan.crashed_at(t(0.5)), Vec::<usize>::new());
        assert_eq!(plan.crashed_at(t(1.0)), vec![4]);
        assert_eq!(plan.crashed_at(t(2.5)), vec![1, 4]);
        assert_eq!(plan.crashed_at(t(9.0)), vec![1], "recover wins after 3s");
        assert!(!FaultPlan::new(3).recover_rank_at(t(1.0), 0).has_crashes());
    }

    #[test]
    fn random_crash_schedules_are_seeded_and_bounded() {
        let t = VTime::from_secs;
        let build = |seed| FaultPlan::new(seed).random_crashes(3, 8, t(1.0), t(2.0));
        assert_eq!(build(5).events(), build(5).events());
        assert_ne!(build(5).events(), build(6).events());
        let plan = build(5);
        let dead = plan.crashed_at(t(10.0));
        assert_eq!(dead.len(), 3, "distinct ranks: {dead:?}");
        for e in plan.events() {
            assert!(e.at >= t(1.0) && e.at <= t(2.0), "crash at {:?}", e.at);
            assert!(matches!(e.event, FaultEvent::RankCrash { rank } if rank < 8));
        }
    }

    #[test]
    #[should_panic(expected = "distinct ranks")]
    fn more_crashes_than_ranks_rejected() {
        let _ = FaultPlan::new(0).random_crashes(4, 3, VTime::ZERO, VTime::from_secs(1.0));
    }

    #[test]
    fn events_sort_and_window_queries() {
        let t = VTime::from_secs;
        let plan = FaultPlan::new(1)
            .restore_memory_at(t(3.0), 0, 10)
            .revoke_memory_at(t(1.0), 0, 10)
            .revoke_memory_at(t(2.0), 1, 20);
        let ats: Vec<f64> = plan.events().iter().map(|e| e.at.as_secs()).collect();
        assert_eq!(ats, vec![1.0, 2.0, 3.0]);
        assert_eq!(plan.due_by(t(0.5)), 0);
        assert_eq!(plan.due_by(t(2.0)), 2);
        assert_eq!(plan.due_by(t(9.0)), 3);
        // Restores don't count as revocations; window is half-open.
        assert_eq!(plan.revocations_between(VTime::ZERO, t(9.0)), 2);
        assert_eq!(plan.revocations_between(t(1.0), t(9.0)), 1);
    }

    #[test]
    fn io_streams_are_per_rank_and_reproducible() {
        let plan = FaultPlan::new(7).transient_io_rate(0.3);
        let draw = |rank: usize| -> Vec<bool> {
            let mut s = plan.io_stream(rank).unwrap();
            (0..64).map(|_| s.next_fails()).collect()
        };
        assert_eq!(draw(0), draw(0));
        assert_ne!(draw(0), draw(1));
        assert!(
            FaultPlan::new(7).io_stream(0).is_none(),
            "no rate, no stream"
        );
    }

    #[test]
    fn fault_rate_is_respected() {
        let plan = FaultPlan::new(11).transient_io_rate(0.05);
        let mut s = plan.io_stream(3).unwrap();
        let fails = (0..20_000).filter(|_| s.next_fails()).count();
        let rate = fails as f64 / 20_000.0;
        assert!((rate - 0.05).abs() < 0.01, "observed {rate}");
    }

    #[test]
    fn slowdowns_and_stragglers_default_to_healthy() {
        let plan = FaultPlan::new(0).slow_server(1, 2.5).straggler(2, 1.5);
        assert_eq!(plan.server_slowdowns(3), vec![1.0, 2.5, 1.0]);
        assert_eq!(plan.straggler_factor(2), 1.5);
        assert_eq!(plan.straggler_factor(0), 1.0);
        // Re-declaring a server replaces, not duplicates.
        let plan = plan.slow_server(1, 4.0);
        assert_eq!(plan.server_slowdowns(2), vec![1.0, 4.0]);
    }

    #[test]
    fn empty_plan_is_inactive() {
        assert!(!FaultPlan::new(9).is_active());
        assert!(FaultPlan::new(9).transient_io_rate(0.01).is_active());
        assert!(FaultPlan::new(9)
            .delay_control(VDuration::from_micros(5.0))
            .is_active());
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1)")]
    fn certain_failure_rejected() {
        let _ = FaultPlan::new(0).transient_io_rate(1.0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_attempt_policy_rejected() {
        let p = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        };
        let _ = FaultPlan::new(0).retry_policy(p);
    }
}
