//! Trace analytics: critical-path extraction, memory-pressure
//! timelines, and A/B run diffing.
//!
//! The raw trace (spans, instants, counters) answers *what happened*;
//! this module answers the questions the paper asks of it:
//!
//! * **Critical path** — one [`CriticalPath`] per op, built from two
//!   inputs: the op's rounds, each decoded once from its round span into
//!   a [`Round`], and the op's chain. The chain is the recorded
//!   [`BlameChain`] when causal tracing is armed; otherwise it is one
//!   implicit work segment on rank 0 over the op span (rank 0 is the
//!   root that prices the op). The rounds' phase terms (sync → shuffle →
//!   storage → assembly → backoff, in pricing order) plus the prologue,
//!   inter-round gaps and epilogue partition the op span into phase
//!   windows; one linear merge-walk cuts the chain at their boundaries,
//!   so every [`Segment`] names its rank, causal class, [`Phase`], round
//!   and straggler, with bit-equal joints from op start to op end. The
//!   per-phase [`Attribution`], the top straggler and the what-if
//!   projections are views of that one path.
//! * **Memory pressure** — paired `mem.reserve` / `mem.release`
//!   instants (plus `fault.mem.revoke` / `fault.mem.restore`) replay
//!   into exact per-node occupancy step functions ([`MemTimeline`]),
//!   not just high-water marks, with overflow windows flagged wherever
//!   occupancy exceeds the node's ceiling.
//! * **A/B diffing** — [`TraceAnalysis::diff`] compares two runs'
//!   attribution tables and counters with per-phase deltas
//!   ([`RunDiff`]); a run diffed against itself is exactly zero.
//!
//! Input is either a live [`ObsSink`] ([`TraceAnalysis::of_sink`], which
//! also picks up the sink's blame chains) or events replayed from the
//! trace artifact by [`crate::export::replay`]
//! ([`TraceAnalysis::from_events`]).

use std::collections::BTreeMap;

use mccio_sim::hostprof::HostProfile;
use mccio_sim::time::{VDuration, VTime};

use crate::causal::{verify_joints, BlameChain, BlameSegment, SegClass};
use crate::sink::ObsSink;
use crate::span::{AttrValue, Event, EventKind, ENGINE_TRACK};
use crate::stream::StreamAgg;

/// Tolerance for tiling checks: phase sums are f64 accumulations of
/// attribute values, so they match the priced durations to rounding.
pub const TILING_EPS: f64 = 1e-9;

/// One priced round, decoded from the engine's `"round"` span.
///
/// The engine prices every round at the world root and records the
/// round's facts as attributes on that span; [`Round::from_span`] is
/// the one place that schema is read back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Round {
    /// `"write"` or `"read"`.
    pub dir: &'static str,
    /// Virtual start of the round.
    pub start: VTime,
    /// Priced duration of the round (the span's duration).
    pub dur: VDuration,
    /// Shuffle flows in the round.
    pub flows: u64,
    /// Application bytes stored or fetched this round.
    pub volume: u64,
    /// Storage requests issued this round.
    pub requests: u64,
    /// Ranks that touched storage this round (the active aggregators).
    pub clients: u64,
    /// Seconds of each priced phase, in [`Phase::ALL`] order (the five
    /// round phases lead it).
    pub phase_secs: [f64; 5],
    /// The rank that set each max-over-ranks phase term, aligned with
    /// `phase_secs`. Storage, assembly and backoff name one; sync and
    /// shuffle are priced globally and are always `None`.
    pub stragglers: [Option<u32>; 5],
    /// Transiently failed storage attempts across all ranks.
    pub transient_faults: u64,
    /// Retries issued across all ranks.
    pub retries: u64,
}

impl Round {
    /// Decodes a `"round"` span. Missing attributes decode as zero (or
    /// no straggler); a missing direction decodes as `"?"`.
    #[must_use]
    pub fn from_span(e: &Event) -> Round {
        // Each round phase's seconds ride on `<phase>_secs` and its
        // straggler on `<phase>_rank` (sync and shuffle are priced
        // globally and name none).
        let key = |k: usize, suffix: &str| format!("{}_{suffix}", Phase::ALL[k].name());
        let u64_attr = |k: &str| e.attr_u64(k).unwrap_or(0);
        let (start, dur) = match e.kind {
            EventKind::Span { start, dur } => (start, dur),
            other => (other.at(), VDuration::ZERO),
        };
        Round {
            dir: e.attr_str("dir").unwrap_or("?"),
            start,
            dur,
            flows: u64_attr("flows"),
            volume: u64_attr("volume"),
            requests: u64_attr("requests"),
            clients: u64_attr("clients"),
            phase_secs: std::array::from_fn(|k| e.attr_f64(&key(k, "secs")).unwrap_or(0.0)),
            stragglers: std::array::from_fn(|k| e.attr_u64(&key(k, "rank")).map(|v| v as u32)),
            transient_faults: u64_attr("transient_faults"),
            retries: u64_attr("retries"),
        }
    }

    /// Virtual end of the round.
    #[must_use]
    pub fn end(&self) -> VTime {
        self.start + self.dur
    }

    /// Seconds of one round phase (zero for the non-round phases).
    #[must_use]
    pub fn secs(&self, phase: Phase) -> f64 {
        self.phase_secs.get(phase as usize).copied().unwrap_or(0.0)
    }
}

/// Where a slice of critical-path time went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Round control synchronization.
    Sync,
    /// Shuffle (client → aggregator data exchange).
    Shuffle,
    /// Storage phase (aggregator ↔ file system).
    Storage,
    /// Aggregation-buffer assembly copies.
    Assembly,
    /// Retry backoff the round waited on its slowest rank.
    Backoff,
    /// Before the first round: clock sync, fault application, buffer
    /// reservation (including collective reservation retries).
    Prologue,
    /// Virtual time between consecutive rounds not claimed by either
    /// (zero on healthy runs; escalation pauses land here).
    Gap,
    /// After the last round: release barriers and report assembly.
    Epilogue,
}

impl Phase {
    /// Every phase, round phases first in pricing order.
    pub const ALL: [Phase; 8] = [
        Phase::Sync,
        Phase::Shuffle,
        Phase::Storage,
        Phase::Assembly,
        Phase::Backoff,
        Phase::Prologue,
        Phase::Gap,
        Phase::Epilogue,
    ];

    /// The phase's lowercase display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::Sync => "sync",
            Phase::Shuffle => "shuffle",
            Phase::Storage => "storage",
            Phase::Assembly => "assembly",
            Phase::Backoff => "backoff",
            Phase::Prologue => "prologue",
            Phase::Gap => "gap",
            Phase::Epilogue => "epilogue",
        }
    }
}

/// One contiguous slice of an operation's critical path: the piece of
/// the op's chain that lies in one phase window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// The rank whose timeline the slice lies on (for wait classes, the
    /// receiving rank; rank 0 on a path without a recorded chain).
    pub rank: u32,
    /// What the chain spent the slice on: local work or a message in
    /// flight.
    pub class: SegClass,
    /// The phase window the slice falls in.
    pub phase: Phase,
    /// Index of the round the slice belongs to (round phases only).
    pub round: Option<usize>,
    /// The rank that set this max-over-ranks phase term — the round's
    /// straggler. Named for storage (the busiest aggregator), assembly,
    /// and backoff; sync and shuffle are priced globally.
    pub straggler: Option<u32>,
    /// Absolute virtual start; bit-equal to the previous slice's `to`.
    pub from: VTime,
    /// Absolute virtual end.
    pub to: VTime,
}

impl Segment {
    /// The slice's virtual duration.
    #[must_use]
    pub fn dur(&self) -> VDuration {
        self.to - self.from
    }
}

/// Seconds of critical-path time attributed to each phase, indexed by
/// `Phase as usize` (which is [`Phase::ALL`] order).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Attribution(pub [f64; 8]);

impl Attribution {
    /// Seconds attributed to `phase`.
    #[must_use]
    pub fn get(&self, phase: Phase) -> f64 {
        self.0[phase as usize]
    }

    /// Sum over every phase, in [`Phase::ALL`] order.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.0.iter().sum()
    }

    /// The phase holding the most time.
    #[must_use]
    pub fn dominant(&self) -> Phase {
        let mut best = Phase::Sync;
        for &p in &Phase::ALL {
            if self.get(p) > self.get(best) {
                best = p;
            }
        }
        best
    }
}

/// One what-if projection: the path re-priced under a re-weighting of
/// its segments.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIf {
    /// Scenario name (`"zero-network"`, `"infinite-pfs"`,
    /// `"uniform-memory"`).
    pub name: &'static str,
    /// Projected path seconds under the scenario.
    pub projected_secs: f64,
    /// `total / projected` (∞ when the scenario removes the whole
    /// path).
    pub speedup: f64,
}

/// The critical path of one collective operation.
///
/// The op span is the longest virtual-time chain (the engine prices
/// every round at the root); the path says which rank, which message
/// and which phase of which round each slice of it belongs to, and who
/// the straggler was.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// `"write"` or `"read"`.
    pub dir: &'static str,
    /// Virtual start of the operation (the op span's start).
    pub start: VTime,
    /// Total critical-path duration — the op span's priced virtual
    /// duration, verbatim (bit-identical, never re-derived from the
    /// segment sum).
    pub total: VDuration,
    /// The op's chain cut at its phase-window boundaries, in
    /// virtual-time order; joints are bit-equal from `start` to the op's
    /// end and zero-length slices are elided.
    pub segments: Vec<Segment>,
    /// Per-phase seconds as the engine priced them: each round's phase
    /// terms plus the prologue, gap and epilogue the rounds leave.
    pub attribution: Attribution,
    /// The rounds on the path, decoded, in virtual-time order.
    pub rounds: Vec<Round>,
    /// The recorded blame chain, when causal tracing was armed; `None`
    /// stands for the implicit chain, one work segment on rank 0.
    pub chain: Option<BlameChain>,
}

impl CriticalPath {
    /// `attribution.total() - total` — how far the f64 phase sum drifts
    /// from the priced duration. Bounded by [`TILING_EPS`] × rounds on
    /// any trace the engine emitted.
    #[must_use]
    pub fn tiling_error(&self) -> f64 {
        self.attribution.total() - self.total.as_secs()
    }

    /// The rank named as straggler most often across this path's
    /// priced storage/assembly/backoff terms (one count per round and
    /// phase, however many slices the chain cuts it into), with its
    /// count.
    #[must_use]
    pub fn top_straggler(&self) -> Option<(u32, usize)> {
        let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
        for r in &self.rounds {
            for (&secs, &straggler) in r.phase_secs.iter().zip(&r.stragglers) {
                if let Some(rank) = straggler.filter(|_| secs > 0.0) {
                    *counts.entry(rank).or_insert(0) += 1;
                }
            }
        }
        counts
            .into_iter()
            .max_by_key(|&(r, n)| (n, std::cmp::Reverse(r)))
    }

    /// Checks that the segments tile `[start, end]` with bit-equal
    /// joints, where `end` is the chain's end (or `start + total` on a
    /// path without a recorded chain).
    ///
    /// # Errors
    /// Describes the first violated joint.
    pub fn verify_tiling(&self) -> Result<(), String> {
        let end = match &self.chain {
            Some(c) => c.end,
            None => self.start + self.total,
        };
        let slices = self.segments.iter().map(|s| (s.from, s.to));
        verify_joints(self.start, end, slices)
    }

    /// Re-prices the path under `weight`: each segment's duration is
    /// scaled by `weight(class, phase) ∈ [0, 1]` and the projection is
    /// `total − Σ (1 − w)·dur`. The identity weighting (`w ≡ 1`)
    /// subtracts an exact `+0.0` per segment and therefore reproduces
    /// `total` **bit-exactly**.
    #[must_use]
    pub fn project(&self, weight: impl Fn(SegClass, Phase) -> f64) -> f64 {
        let removed: f64 = self
            .segments
            .iter()
            .map(|s| (1.0 - weight(s.class, s.phase)) * s.dur().as_secs())
            .sum();
        self.total.as_secs() - removed
    }

    /// The standard speed-of-light scenarios: zero network cost
    /// (sync-wait segments free), infinite PFS bandwidth
    /// (storage-phase segments free), and uniform memory ceilings
    /// (backoff-phase segments free).
    #[must_use]
    pub fn what_ifs(&self) -> Vec<WhatIf> {
        // Each scenario names the segments it makes free.
        type Frees = fn(SegClass, Phase) -> bool;
        let scenarios: [(&'static str, Frees); 3] = [
            ("zero-network", |c, _| c != SegClass::Work),
            ("infinite-pfs", |_, p| p == Phase::Storage),
            ("uniform-memory", |_, p| p == Phase::Backoff),
        ];
        let total = self.total.as_secs();
        scenarios
            .into_iter()
            .map(|(name, free)| {
                let projected_secs = self.project(|c, p| if free(c, p) { 0.0 } else { 1.0 });
                WhatIf {
                    name,
                    projected_secs,
                    speedup: if projected_secs > 0.0 {
                        total / projected_secs
                    } else {
                        f64::INFINITY
                    },
                }
            })
            .collect()
    }
}

/// One step of a node's occupancy timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemPoint {
    /// Virtual time of the step.
    pub at: VTime,
    /// Aggregation-buffer bytes held from this instant on.
    pub occupancy: u64,
    /// The node's ceiling (capacity minus application usage) from this
    /// instant on.
    pub ceiling: u64,
}

/// A node's exact aggregation-buffer occupancy over virtual time,
/// replayed from paired `mem.reserve`/`mem.release` instants, with the
/// ceiling stepped by `fault.mem.revoke`/`fault.mem.restore`.
#[derive(Debug, Clone, PartialEq)]
pub struct MemTimeline {
    /// The node this timeline describes.
    pub node: usize,
    /// Occupancy/ceiling steps in virtual-time order.
    pub points: Vec<MemPoint>,
    /// Highest occupancy reached.
    pub peak: u64,
    /// Total bytes reserved across the run.
    pub reserved: u64,
    /// Total bytes released across the run.
    pub released: u64,
    /// Occupancy after the last event — zero iff every reserve was
    /// released.
    pub final_occupancy: u64,
    /// Windows `[start, end)` where occupancy exceeded the ceiling
    /// (`end == start of the step that cleared it`; an unclosed window
    /// ends at the last event).
    pub overflow: Vec<(VTime, VTime)>,
}

impl MemTimeline {
    /// True when occupancy never exceeded the ceiling.
    #[must_use]
    pub fn within_ceiling(&self) -> bool {
        self.overflow.is_empty()
    }
}

/// Everything the analyzer extracts from one run's trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceAnalysis {
    /// Critical paths, one per collective operation, in virtual-time
    /// order (a paper run is a write op followed by a read op).
    pub ops: Vec<CriticalPath>,
    /// Per-node occupancy timelines, in node order (only nodes that
    /// reserved anything appear).
    pub memory: Vec<MemTimeline>,
    /// The run's counters, derived from its events (see
    /// [`TraceAnalysis::from_events`]), so a replayed artifact carries
    /// the same ones as the live run.
    pub counters: BTreeMap<String, u64>,
    /// The streaming aggregate, when the analyzed sink folds through
    /// one (`ObsSink::streaming`); `None` on buffered sinks and
    /// replayed artifacts.
    pub streaming: Option<StreamAgg>,
    /// Host-wall profile of the run, when the caller attached one via
    /// [`TraceAnalysis::with_host_profile`]. Host times are
    /// nondeterministic observability data, never part of bit-identity
    /// checks.
    pub host: Option<HostProfile>,
}

impl TraceAnalysis {
    /// Analyzes a live sink: its retained events, the blame chains when
    /// causal tracing is armed ([`ObsSink::with_causal`]) and, on a
    /// streaming sink, the folded cells, whose counts and attribute sums
    /// add to the counters, so a streamed run reports the same counters
    /// as a buffered one. The sink is read, not drained.
    ///
    /// # Errors
    /// Propagates [`TraceAnalysis::from_events`] errors.
    pub fn of_sink(sink: &ObsSink) -> Result<TraceAnalysis, String> {
        let chains = sink.causal_chains();
        let streaming = sink.stream_stats();
        let mut analysis =
            sink.with_events(|events| TraceAnalysis::analyze(events, &chains, streaming.as_ref()))?;
        analysis.streaming = streaming;
        Ok(analysis)
    }

    /// Attaches a host-wall profile (with the run's total host wall and
    /// virtual seconds) for the report's virtual-vs-host section.
    #[must_use]
    pub fn with_host_profile(mut self, profile: HostProfile) -> TraceAnalysis {
        self.host = Some(profile);
        self
    }

    /// Analyzes a live or replayed event stream, in any order, with the
    /// blame chains recorded alongside it (empty when causal tracing was
    /// off). Each chain belongs to the op span whose start it matches to
    /// the bit; an op without one gets the implicit chain.
    ///
    /// The counters are derived from the events in one pass: `<event>`
    /// is the number of events of that name, `<event>.<attr>` the sum of
    /// that `u64` attribute, and `<event>.value` the sum of a counter
    /// sample's value rounded to an integer (the stream fold's domain).
    /// Keys that total zero are left out: the exporters print an f64
    /// zero as `0`, which replays as a `u64`, and a zero key would then
    /// exist on one side only.
    ///
    /// # Errors
    /// Returns a description when the trace is structurally broken — a
    /// round span outside any op span, a round whose phase terms do not
    /// tile its duration, or a chain that matches no op span or does
    /// not tile its op.
    pub fn from_events(events: &[Event], chains: &[BlameChain]) -> Result<TraceAnalysis, String> {
        TraceAnalysis::analyze(events, chains, None)
    }

    /// [`TraceAnalysis::from_events`], with a streaming sink's `folded`
    /// cells adding to the counters.
    fn analyze(
        events: &[Event],
        chains: &[BlameChain],
        folded: Option<&StreamAgg>,
    ) -> Result<TraceAnalysis, String> {
        let mut ops: Vec<&Event> = Vec::new();
        let mut rounds: Vec<&Event> = Vec::new();
        for e in events {
            if e.track == ENGINE_TRACK {
                match (e.name, &e.kind) {
                    ("op", EventKind::Span { .. }) => ops.push(e),
                    ("round", EventKind::Span { .. }) => rounds.push(e),
                    _ => {}
                }
            }
        }
        let by_time = |a: &&Event, b: &&Event| {
            (a.kind.at().as_secs(), a.seq)
                .partial_cmp(&(b.kind.at().as_secs(), b.seq))
                .expect("virtual times are finite")
        };
        ops.sort_by(by_time);
        rounds.sort_by(by_time);

        // Ops run one after another, so one merge-walk in time order
        // hands each op the rounds it contains and, chains being recorded
        // in op order, the chain whose start matches it to the bit.
        let mut rounds = rounds.into_iter().map(Round::from_span).peekable();
        let bits = |t: VTime| t.as_secs().to_bits();
        let mut chains = chains.iter().enumerate().peekable();
        let mut paths = Vec::with_capacity(ops.len());
        for op in &ops {
            let EventKind::Span { start, dur } = op.kind else {
                unreachable!("filtered to spans")
            };
            let end = start + dur;
            let contained = |r: &Round| {
                r.start.as_secs() >= start.as_secs() - TILING_EPS
                    && r.end().as_secs() <= end.as_secs() + TILING_EPS
            };
            let mine: Vec<Round> = std::iter::from_fn(|| rounds.next_if(contained)).collect();
            let chain = chains.next_if(|(_, c)| bits(c.start) == bits(start));
            if let Some((k, c)) = chain {
                let tiled = if c.total() == dur {
                    c.verify_tiling()
                } else {
                    let (mine, op) = (c.total().as_secs(), dur.as_secs());
                    Err(format!("it lasts {mine}s but its op span lasts {op}s"))
                };
                tiled.map_err(|e| format!("blame chain {k} ({}): {e}", c.dir))?;
            }
            paths.push(critical_path(op, start, dur, mine, chain.map(|(_, c)| c))?);
        }
        if let Some(r) = rounds.next() {
            return Err(format!(
                "round span at t={} lies outside every op span",
                r.start
            ));
        }
        if let Some((k, c)) = chains.next() {
            let (dir, at) = (c.dir, c.start);
            return Err(format!(
                "blame chain {k} ({dir} at t={at}) matches no op span"
            ));
        }
        Ok(TraceAnalysis {
            ops: paths,
            memory: mem_timelines(events),
            counters: derive_counters(events, folded),
            ..TraceAnalysis::default()
        })
    }

    /// Structured comparison of two runs: per-phase attribution deltas
    /// (summed across each run's ops) and counter deltas.
    #[must_use]
    pub fn diff(&self, other: &TraceAnalysis) -> RunDiff {
        let sum = |a: &TraceAnalysis, p| {
            a.ops
                .iter()
                .fold(0.0, |acc, op| acc + op.attribution.get(p))
        };
        let phases = Phase::ALL
            .iter()
            .map(|&p| PhaseDelta {
                phase: p,
                a_secs: sum(self, p),
                b_secs: sum(other, p),
            })
            .collect();
        let mut names: Vec<&String> = self.counters.keys().collect();
        for k in other.counters.keys() {
            if !self.counters.contains_key(k) {
                names.push(k);
            }
        }
        names.sort();
        let counters = names
            .into_iter()
            .map(|k| CounterDelta {
                name: k.clone(),
                a: self.counters.get(k).copied().unwrap_or(0),
                b: other.counters.get(k).copied().unwrap_or(0),
            })
            .collect();
        RunDiff {
            ops_a: self.ops.len(),
            ops_b: other.ops.len(),
            phases,
            counters,
        }
    }
}

/// The counters of [`TraceAnalysis::from_events`], plus the `count` and
/// per-attribute `sum` of each `folded` cell: the events a streaming
/// sink did not retain. Only [`AttrValue::U64`] attributes are summed;
/// ids and limits ([`AttrValue::Id`]) and f64s make no counter. Sums
/// wrap at 2⁶⁴ on both paths (the cells' `u128` sums are cut to their
/// low 64 bits), so a streamed run and a buffered one agree to the bit.
fn derive_counters(events: &[Event], folded: Option<&StreamAgg>) -> BTreeMap<String, u64> {
    let mut tally: BTreeMap<(&'static str, &'static str), u64> = BTreeMap::new();
    let mut add = |name, key, v: u64| {
        let sum = tally.entry((name, key)).or_insert(0);
        *sum = sum.wrapping_add(v);
    };
    for e in events {
        add(e.name, "", 1);
        if let EventKind::Counter { value, .. } = e.kind {
            add(e.name, "value", value.round() as u64);
        }
        for &(key, v) in &e.attrs {
            if let AttrValue::U64(v) = v {
                add(e.name, key, v);
            }
        }
    }
    for (name, _, cell) in folded.into_iter().flat_map(StreamAgg::cells) {
        add(name, "", cell.count);
        add(name, "value", cell.value.sum as u64);
        for (&key, stat) in &cell.attrs {
            add(name, key, stat.sum as u64);
        }
    }
    tally
        .into_iter()
        .filter(|&(_, v)| v > 0)
        .map(|((name, key), v)| match key {
            "" => (name.to_string(), v),
            _ => (format!("{name}.{key}"), v),
        })
        .collect()
}

/// One phase's attribution in two runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseDelta {
    /// The phase compared.
    pub phase: Phase,
    /// Seconds in run A.
    pub a_secs: f64,
    /// Seconds in run B.
    pub b_secs: f64,
}

impl PhaseDelta {
    /// `b - a` seconds.
    #[must_use]
    pub fn delta(&self) -> f64 {
        self.b_secs - self.a_secs
    }
}

/// One counter's value in two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterDelta {
    /// Counter name.
    pub name: String,
    /// Value in run A.
    pub a: u64,
    /// Value in run B.
    pub b: u64,
}

impl CounterDelta {
    /// `b - a`.
    #[must_use]
    pub fn delta(&self) -> i64 {
        self.b as i64 - self.a as i64
    }
}

/// A structured A/B comparison of two analyzed runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RunDiff {
    /// Op count in run A.
    pub ops_a: usize,
    /// Op count in run B.
    pub ops_b: usize,
    /// Per-phase attribution deltas (summed across ops).
    pub phases: Vec<PhaseDelta>,
    /// Counter deltas, name order, union of both runs' counters.
    pub counters: Vec<CounterDelta>,
}

impl RunDiff {
    /// True when every phase delta is within `eps` seconds and every
    /// counter delta is zero — what a run diffed against itself yields.
    #[must_use]
    pub fn is_zero(&self, eps: f64) -> bool {
        self.ops_a == self.ops_b
            && self.phases.iter().all(|p| p.delta().abs() <= eps)
            && self.counters.iter().all(|c| c.delta() == 0)
    }
}

/// Builds one op's path: attributes the rounds' priced phase terms,
/// partitions the op span into phase windows, and cuts the chain (the
/// recorded one, or one work segment on rank 0) at their boundaries in
/// one merge-walk.
fn critical_path(
    op: &Event,
    start: VTime,
    total: VDuration,
    rounds: Vec<Round>,
    chain: Option<&BlameChain>,
) -> Result<CriticalPath, String> {
    let dir = op.attr_str("dir").unwrap_or("?");
    // The chain ends at the root's clock; the span's `start + total`
    // may round one ulp away from it.
    let end = chain.map_or(start + total, |c| c.end);
    let implicit = [BlameSegment {
        rank: 0,
        class: SegClass::Work,
        from: start,
        to: end,
    }];
    let mut links = chain
        .map_or(&implicit[..], |c| &c.segments)
        .iter()
        .peekable();
    let mut segments = Vec::new();
    let mut attribution = Attribution::default();
    let mut from = start;
    // Closes the phase window ending at `to`, clamped into the op so the
    // windows partition it whatever the rounds' rounding: every chain
    // link the window overlaps yields one segment. `secs` is the time
    // the engine priced for the window, which is what it attributes.
    let mut window = |phase: Phase, round, straggler, secs: f64, to: VTime| {
        attribution.0[phase as usize] += secs;
        let to = to.min(end);
        while from.as_secs() < to.as_secs() {
            let Some(&l) = links.peek() else { break };
            let cut = l.to.min(to);
            if cut.as_secs() > from.as_secs() {
                segments.push(Segment {
                    rank: l.rank,
                    class: l.class,
                    phase,
                    round,
                    straggler,
                    from,
                    to: cut,
                });
                from = cut;
            }
            if l.to.as_secs() <= cut.as_secs() {
                links.next();
            }
        }
    };
    // Filler of at most `TILING_EPS` is rounding, not priced time.
    let filler = |secs: f64| if secs > TILING_EPS { secs } else { 0.0 };
    let mut cursor = start;
    for (i, r) in rounds.iter().enumerate() {
        let phase = if i == 0 { Phase::Prologue } else { Phase::Gap };
        let lead = filler(r.start.as_secs() - cursor.as_secs());
        window(phase, None, None, lead, r.start);
        // The last priced term runs to the span's end, so the rounding
        // between the summed terms and the span falls in a phase too.
        let last = r.phase_secs.iter().rposition(|&secs| secs > 0.0);
        let mut t = r.start;
        for (k, (&secs, &straggler)) in r.phase_secs.iter().zip(&r.stragglers).enumerate() {
            t += VDuration::from_secs(secs);
            if secs > 0.0 {
                let to = if last == Some(k) { r.end() } else { t };
                window(Phase::ALL[k], Some(i), straggler, secs, to);
            }
        }
        if (t.as_secs() - r.end().as_secs()).abs() > TILING_EPS * 10.0 {
            return Err(format!(
                "round {i} phase terms sum to {} but the span ends at {} (op {dir})",
                t,
                r.end(),
            ));
        }
        cursor = r.end();
    }
    let phase = if rounds.is_empty() {
        Phase::Prologue
    } else {
        Phase::Epilogue
    };
    let tail = filler((start + total).as_secs() - cursor.as_secs());
    window(phase, None, None, tail, end);
    Ok(CriticalPath {
        dir,
        start,
        total,
        segments,
        attribution,
        rounds,
        chain: chain.cloned(),
    })
}

/// Replays `mem.reserve`/`mem.release` and `fault.mem.*` events into
/// per-node occupancy step functions.
///
/// A node's events are taken in virtual-time order. Within one instant,
/// the releases that open a rank's events there go first (one op ends
/// and frees its buffers before the next op reserves), then the rest;
/// each group in track order, each track in emission order. The order
/// reads nothing but each track's own order, so every rank schedule and
/// a replayed trace (whose `seq` is a position) give the same timeline.
fn mem_timelines(events: &[Event]) -> Vec<MemTimeline> {
    // Reserve/release carry an exact ceiling reading; fault events step
    // it.
    #[derive(Clone, Copy)]
    enum Ceil {
        Observed(u64),
        Delta(i64),
    }
    struct Step {
        at: f64,
        late: bool,
        track: u32,
        seq: u64,
        occ_delta: i64,
        ceil: Ceil,
    }
    let mut per_node: BTreeMap<usize, Vec<Step>> = BTreeMap::new();
    for e in events {
        let (occ_delta, ceil) = match e.name {
            "mem.reserve" => (
                e.attr_u64("bytes").unwrap_or(0) as i64,
                Ceil::Observed(e.attr_u64("ceiling").unwrap_or(0)),
            ),
            "mem.release" => (
                -(e.attr_u64("bytes").unwrap_or(0) as i64),
                Ceil::Observed(e.attr_u64("ceiling").unwrap_or(0)),
            ),
            "fault.mem.revoke" => (0, Ceil::Delta(-(e.attr_u64("bytes").unwrap_or(0) as i64))),
            "fault.mem.restore" => (0, Ceil::Delta(e.attr_u64("bytes").unwrap_or(0) as i64)),
            _ => continue,
        };
        let Some(node) = e.attr_u64("node") else {
            continue;
        };
        per_node.entry(node as usize).or_default().push(Step {
            at: e.kind.at().as_secs(),
            late: false,
            track: e.track,
            seq: e.seq,
            occ_delta,
            ceil,
        });
    }
    per_node
        .into_iter()
        .filter(|(_, evs)| evs.iter().any(|s| s.occ_delta != 0))
        .map(|(node, mut evs)| {
            let by_time = |a: &Step, b: &Step| a.at.partial_cmp(&b.at).expect("finite");
            evs.sort_by(|a, b| by_time(a, b).then((a.track, a.seq).cmp(&(b.track, b.seq))));
            for i in 0..evs.len() {
                let opens =
                    i == 0 || (evs[i - 1].at, evs[i - 1].track) != (evs[i].at, evs[i].track);
                evs[i].late = evs[i].occ_delta >= 0 || (!opens && evs[i - 1].late);
            }
            // Stable: each group keeps its track-then-emission order.
            evs.sort_by(|a, b| by_time(a, b).then(a.late.cmp(&b.late)));
            // Back-fill the initial ceiling from the first exact reading
            // so fault deltas before any reservation still level out.
            let first_obs = evs
                .iter()
                .find_map(|s| match s.ceil {
                    Ceil::Observed(v) => Some(v),
                    Ceil::Delta(_) => None,
                })
                .unwrap_or(0);
            let mut pre_delta = 0i64;
            for s in &evs {
                match s.ceil {
                    Ceil::Observed(_) => break,
                    Ceil::Delta(d) => pre_delta += d,
                }
            }
            let mut ceiling = (first_obs as i64 - pre_delta).max(0) as u64;
            let mut occupancy = 0u64;
            let mut tl = MemTimeline {
                node,
                points: Vec::with_capacity(evs.len()),
                peak: 0,
                reserved: 0,
                released: 0,
                final_occupancy: 0,
                overflow: Vec::new(),
            };
            let mut over_since: Option<VTime> = None;
            for Step {
                at,
                occ_delta,
                ceil,
                ..
            } in evs
            {
                let at = VTime::from_secs(at);
                if occ_delta > 0 {
                    tl.reserved += occ_delta as u64;
                } else {
                    tl.released += (-occ_delta) as u64;
                }
                occupancy = (occupancy as i64 + occ_delta).max(0) as u64;
                ceiling = match ceil {
                    Ceil::Observed(v) => v,
                    Ceil::Delta(d) => (ceiling as i64 + d).max(0) as u64,
                };
                tl.peak = tl.peak.max(occupancy);
                match (occupancy > ceiling, over_since) {
                    (true, None) => over_since = Some(at),
                    (false, Some(since)) => {
                        tl.overflow.push((since, at));
                        over_since = None;
                    }
                    _ => {}
                }
                tl.points.push(MemPoint {
                    at,
                    occupancy,
                    ceiling,
                });
            }
            if let (Some(since), Some(last)) = (over_since, tl.points.last()) {
                tl.overflow.push((since, last.at));
            }
            tl.final_occupancy = occupancy;
            tl
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn ev(
        name: &'static str,
        track: u32,
        kind: EventKind,
        attrs: Vec<(&'static str, AttrValue)>,
        seq: u64,
    ) -> Event {
        Event {
            name,
            cat: "t",
            track,
            kind,
            attrs,
            seq,
        }
    }

    pub(crate) fn span(start: f64, dur: f64) -> EventKind {
        EventKind::Span {
            start: VTime::from_secs(start),
            dur: VDuration::from_secs(dur),
        }
    }

    pub(crate) fn at(t: f64) -> EventKind {
        EventKind::Instant {
            at: VTime::from_secs(t),
        }
    }

    pub(crate) fn round(start: f64, secs: [f64; 5], straggler: u64, seq: u64) -> Event {
        let dur: f64 = secs.iter().sum();
        ev(
            "round",
            ENGINE_TRACK,
            span(start, dur),
            vec![
                ("dir", AttrValue::Str("write")),
                ("sync_secs", AttrValue::F64(secs[0])),
                ("shuffle_secs", AttrValue::F64(secs[1])),
                ("storage_secs", AttrValue::F64(secs[2])),
                ("assembly_secs", AttrValue::F64(secs[3])),
                ("backoff_secs", AttrValue::F64(secs[4])),
                ("storage_rank", AttrValue::U64(straggler)),
                ("assembly_rank", AttrValue::U64(straggler + 1)),
                ("backoff_rank", AttrValue::U64(straggler + 2)),
            ],
            seq,
        )
    }

    #[test]
    fn critical_path_tiles_op_with_rounds_gaps_and_epilogue() {
        let op = ev(
            "op",
            ENGINE_TRACK,
            span(0.0, 10.0),
            vec![("dir", AttrValue::Str("write"))],
            0,
        );
        let events = vec![
            op,
            round(1.0, [0.5, 1.0, 1.5, 0.0, 0.0], 3, 1),
            round(5.0, [0.5, 0.5, 2.0, 1.0, 0.0], 7, 2),
        ];
        let a = TraceAnalysis::from_events(&events, &[]).unwrap();
        assert_eq!(a.ops.len(), 1);
        let cp = &a.ops[0];
        assert_eq!(cp.dir, "write");
        assert_eq!(cp.rounds.len(), 2);
        // Total is the op span's duration verbatim.
        assert_eq!(cp.total.as_secs().to_bits(), 10.0f64.to_bits());
        // Prologue [0,1), round1 3s, gap [4,5), round2 4s, epilogue [9,10).
        assert!((cp.attribution.get(Phase::Prologue) - 1.0).abs() < 1e-12);
        assert!((cp.attribution.get(Phase::Gap) - 1.0).abs() < 1e-12);
        assert!((cp.attribution.get(Phase::Epilogue) - 1.0).abs() < 1e-12);
        assert!((cp.attribution.get(Phase::Storage) - 3.5).abs() < 1e-12);
        assert!(cp.tiling_error().abs() < TILING_EPS);
        assert_eq!(cp.attribution.dominant(), Phase::Storage);
        // Stragglers named only on nonzero storage/assembly/backoff.
        let stragglers: Vec<(Phase, u32)> = cp
            .segments
            .iter()
            .filter_map(|s| s.straggler.map(|r| (s.phase, r)))
            .collect();
        assert_eq!(
            stragglers,
            vec![
                (Phase::Storage, 3),
                (Phase::Storage, 7),
                (Phase::Assembly, 8)
            ]
        );
        assert_eq!(cp.top_straggler(), Some((3, 1)));
        // Without a recorded chain the path is rank 0's work, cut at
        // every window, with bit-equal joints from start to end.
        assert!(cp
            .segments
            .iter()
            .all(|s| s.rank == 0 && s.class == SegClass::Work));
        assert_eq!(cp.segments.len(), 10);
        cp.verify_tiling().unwrap();
        assert_eq!(cp.segments.last().unwrap().to.as_secs(), 10.0);
    }

    /// One op `[0, 4]` priced as one round: sync 1, shuffle 1, storage 2
    /// (straggler rank 3).
    fn one_round_op() -> Vec<Event> {
        vec![
            ev(
                "op",
                ENGINE_TRACK,
                span(0.0, 4.0),
                vec![("dir", AttrValue::Str("write"))],
                0,
            ),
            round(0.0, [1.0, 1.0, 2.0, 0.0, 0.0], 3, 1),
        ]
    }

    /// The chain the causal fold records over `[t0, end]` at rank 1
    /// when a message from rank 0 binds it over `[2.5, 3]`.
    fn chain(t0: f64, end: f64) -> BlameChain {
        use mccio_sim::causal::Frontier;
        let agg = crate::causal::CausalAgg::new(false);
        let (mut f0, mut f1) = (Frontier::default(), Frontier::default());
        let sent = f0.send(0, VTime::from_secs(2.5), 8);
        f1.settle(&agg, sent, 1, VTime::ZERO, VTime::from_secs(3.0));
        let (t0, end) = (VTime::from_secs(t0), VTime::from_secs(end));
        agg.op_end(1, f1.head(), t0, end, "write");
        agg.chains().remove(0)
    }

    #[test]
    fn a_chain_cut_inside_a_storage_window_counts_its_straggler_once() {
        // The sync-wait on [2.5, 3] cuts the storage window [2, 4] in three.
        use SegClass::{SyncWait, Work};
        let c = chain(0.0, 4.0);
        let a = TraceAnalysis::from_events(&one_round_op(), std::slice::from_ref(&c)).unwrap();
        let cp = &a.ops[0];
        assert_eq!(cp.chain.as_ref(), Some(&c));
        cp.verify_tiling().unwrap();
        let pieces: Vec<_> = cp
            .segments
            .iter()
            .map(|s| (s.rank, s.class, s.phase, s.to.as_secs()))
            .collect();
        assert_eq!(
            pieces,
            [
                (0, Work, Phase::Sync, 1.0),
                (0, Work, Phase::Shuffle, 2.0),
                (0, Work, Phase::Storage, 2.5),
                (1, SyncWait, Phase::Storage, 3.0),
                (1, Work, Phase::Storage, 4.0),
            ]
        );
        assert!(cp.segments[2..].iter().all(|s| s.straggler == Some(3)));
        assert_eq!(cp.top_straggler(), Some((3, 1)), "one storage term");
        // Zero-network frees the sync-wait, infinite-pfs all three
        // storage pieces; the identity is the total to the bit.
        let projected: Vec<f64> = cp.what_ifs().iter().map(|w| w.projected_secs).collect();
        assert_eq!(projected, [3.5, 2.0, 4.0]);
        assert_eq!(cp.project(|_, _| 1.0).to_bits(), 4.0f64.to_bits());
    }

    #[test]
    fn a_chain_that_matches_no_op_is_an_error() {
        let (stray, short, mut torn) = (chain(0.5, 4.0), chain(0.0, 3.0), chain(0.0, 4.0));
        torn.segments[1].from = VTime::from_secs(2.0);
        for (c, why) in [
            (stray, "matches no op span"),
            (short, "lasts"),
            (torn, "joint"),
        ] {
            let err = TraceAnalysis::from_events(&one_round_op(), &[c]).unwrap_err();
            assert!(err.contains("blame chain 0") && err.contains(why), "{err}");
        }
    }

    #[test]
    fn round_outside_any_op_is_an_error() {
        let events = vec![
            ev("op", ENGINE_TRACK, span(0.0, 1.0), vec![], 0),
            round(5.0, [1.0, 0.0, 0.0, 0.0, 0.0], 0, 1),
        ];
        let err = TraceAnalysis::from_events(&events, &[]).unwrap_err();
        assert!(err.contains("outside"), "{err}");
    }

    #[test]
    fn untiled_round_is_an_error() {
        let mut bad = round(0.0, [1.0, 0.0, 0.0, 0.0, 0.0], 0, 1);
        bad.kind = span(0.0, 2.0); // claims 2s, terms sum to 1s
        let events = vec![ev("op", ENGINE_TRACK, span(0.0, 2.0), vec![], 0), bad];
        let err = TraceAnalysis::from_events(&events, &[]).unwrap_err();
        assert!(err.contains("phase terms"), "{err}");
    }

    fn mem_ev(name: &'static str, t: f64, node: u64, bytes: u64, ceiling: u64, seq: u64) -> Event {
        ev(
            name,
            0,
            at(t),
            vec![
                ("node", AttrValue::Id(node)),
                ("bytes", AttrValue::U64(bytes)),
                ("ceiling", AttrValue::Id(ceiling)),
            ],
            seq,
        )
    }

    #[test]
    fn one_instant_orders_by_track_not_by_schedule() {
        // Ranks 0 and 1 on one node end an op at t = 1 and rank 0
        // reserves more for the next one at the same instant.
        let on = |track, mut e: Event| {
            e.track = track;
            e
        };
        let run = |seqs: [u64; 5]| {
            let events = vec![
                on(0, mem_ev("mem.reserve", 0.0, 0, 100, 1000, seqs[0])),
                on(1, mem_ev("mem.reserve", 0.0, 0, 100, 1000, seqs[1])),
                on(0, mem_ev("mem.release", 1.0, 0, 100, 1000, seqs[2])),
                on(0, mem_ev("mem.reserve", 1.0, 0, 300, 1000, seqs[3])),
                on(1, mem_ev("mem.release", 1.0, 0, 100, 1000, seqs[4])),
            ];
            TraceAnalysis::from_events(&events, &[]).unwrap().memory
        };
        // Both releases apply before the reservation, whichever rank
        // the schedule ran first.
        let tl = run([0, 1, 2, 3, 4]);
        let occ: Vec<u64> = tl[0].points.iter().map(|p| p.occupancy).collect();
        assert_eq!(occ, vec![100, 200, 100, 0, 300]);
        assert_eq!(tl[0].peak, 300);
        assert_eq!(run([1, 0, 3, 4, 2]), tl);
    }

    #[test]
    fn occupancy_steps_and_balances() {
        let events = vec![
            mem_ev("mem.reserve", 0.0, 0, 100, 150, 0),
            mem_ev("mem.reserve", 1.0, 0, 40, 150, 1),
            mem_ev("mem.release", 2.0, 0, 100, 150, 2),
            mem_ev("mem.release", 2.0, 0, 40, 150, 3),
        ];
        let a = TraceAnalysis::from_events(&events, &[]).unwrap();
        assert_eq!(a.memory.len(), 1);
        let tl = &a.memory[0];
        assert_eq!(tl.node, 0);
        assert_eq!(tl.peak, 140);
        assert_eq!(tl.reserved, 140);
        assert_eq!(tl.released, 140);
        assert_eq!(tl.final_occupancy, 0);
        assert!(tl.within_ceiling());
        let occ: Vec<u64> = tl.points.iter().map(|p| p.occupancy).collect();
        assert_eq!(occ, vec![100, 140, 40, 0]);
    }

    #[test]
    fn overflow_windows_track_ceiling_revocations() {
        let events = vec![
            mem_ev("mem.reserve", 0.0, 2, 100, 150, 0),
            // A revocation drops the ceiling below occupancy…
            ev(
                "fault.mem.revoke",
                ENGINE_TRACK,
                at(1.0),
                vec![("node", AttrValue::Id(2)), ("bytes", AttrValue::U64(80))],
                1,
            ),
            // …and a restoration clears it.
            ev(
                "fault.mem.restore",
                ENGINE_TRACK,
                at(3.0),
                vec![("node", AttrValue::Id(2)), ("bytes", AttrValue::U64(80))],
                2,
            ),
            mem_ev("mem.release", 5.0, 2, 100, 150, 3),
        ];
        let a = TraceAnalysis::from_events(&events, &[]).unwrap();
        let tl = &a.memory[0];
        assert!(!tl.within_ceiling());
        assert_eq!(tl.overflow.len(), 1);
        let (s, e) = tl.overflow[0];
        assert!((s.as_secs() - 1.0).abs() < 1e-12);
        assert!((e.as_secs() - 3.0).abs() < 1e-12);
        // Ceiling readings: 150, 70, 150, 150.
        let ceils: Vec<u64> = tl.points.iter().map(|p| p.ceiling).collect();
        assert_eq!(ceils, vec![150, 70, 150, 150]);
    }

    #[test]
    fn self_diff_is_zero_and_deltas_show() {
        let events = vec![
            ev("op", ENGINE_TRACK, span(0.0, 2.0), vec![], 0),
            round(0.0, [1.0, 1.0, 0.0, 0.0, 0.0], 0, 1),
        ];
        let a = TraceAnalysis::from_events(&events, &[]).unwrap();
        assert_eq!(a.counters["round"], 1);
        let d = a.diff(&a.clone());
        assert!(d.is_zero(0.0));

        let mut b = a.clone();
        b.counters.insert("round".into(), 3);
        b.ops[0].attribution.0[Phase::Shuffle as usize] += 0.5;
        let d = a.diff(&b);
        assert!(!d.is_zero(1e-12));
        let shuffle = d.phases.iter().find(|p| p.phase == Phase::Shuffle).unwrap();
        assert!((shuffle.delta() - 0.5).abs() < 1e-12);
        assert_eq!(
            d.counters
                .iter()
                .find(|c| c.name == "round")
                .unwrap()
                .delta(),
            2
        );
    }

    #[test]
    fn counters_derive_from_events_and_folded_cells() {
        use crate::stream::{StreamAgg, StreamConfig};
        let reserve = |track, bytes, seq| {
            let attrs = vec![("bytes", AttrValue::U64(bytes)), ("node", AttrValue::Id(1))];
            ev("mem.reserve", track, at(0.0), attrs, seq)
        };
        let peak = EventKind::Counter {
            at: VTime::ZERO,
            value: 2.6,
        };
        let events = vec![
            reserve(0, 3, 0),
            reserve(5, 4, 1),
            ev("mem.peak_reserved", ENGINE_TRACK, peak, vec![], 2),
            ev(
                "settle",
                ENGINE_TRACK,
                at(0.0),
                vec![("secs", AttrValue::F64(0.0))],
                3,
            ),
        ];
        let want: BTreeMap<String, u64> = [
            ("mem.peak_reserved", 1),
            ("mem.peak_reserved.value", 3),
            ("mem.reserve", 2),
            ("mem.reserve.bytes", 7),
            ("settle", 1),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        // Ids (`mem.reserve.node`) and f64 attributes make no counter.
        assert_eq!(derive_counters(&events, None), want);
        // A streaming sink keeps the rank-0 lane and the engine-track
        // instant; its cells stand for the rest.
        let cfg = StreamConfig {
            top_k: 1,
            exemplar_stride: 4,
            exemplar_max: 1,
        };
        let agg = StreamAgg::from_events(&events, cfg);
        let retained: Vec<Event> = events
            .iter()
            .filter(|e| agg.retains(e.track, &e.kind))
            .cloned()
            .collect();
        assert_eq!(retained.len(), 2);
        assert_eq!(derive_counters(&retained, Some(&agg)), want);
    }

    #[test]
    fn round_from_span_decodes_every_attribute() {
        let mut e = round(1.0, [0.1, 0.2, 0.3, 0.4, 0.5], 6, 0);
        e.attrs.extend([
            ("flows", AttrValue::U64(3)),
            ("volume", AttrValue::U64(100)),
            ("requests", AttrValue::U64(2)),
            ("clients", AttrValue::U64(1)),
            ("transient_faults", AttrValue::U64(4)),
            ("retries", AttrValue::U64(5)),
        ]);
        let r = Round::from_span(&e);
        assert_eq!(r.dir, "write");
        assert_eq!(r.start.as_secs(), 1.0);
        assert_eq!(r.end(), e.end());
        assert_eq!((r.flows, r.volume, r.requests, r.clients), (3, 100, 2, 1));
        assert_eq!((r.transient_faults, r.retries), (4, 5));
        assert_eq!(r.phase_secs, [0.1, 0.2, 0.3, 0.4, 0.5]);
        assert_eq!(r.secs(Phase::Assembly), 0.4);
        assert_eq!(r.secs(Phase::Gap), 0.0);
        assert_eq!(r.stragglers, [None, None, Some(6), Some(7), Some(8)]);
    }
}
