//! Trace analytics: critical-path extraction, memory-pressure
//! timelines, and A/B run diffing.
//!
//! The raw trace (spans, instants, counters) answers *what happened*;
//! this module answers the questions the paper asks of it:
//!
//! * **Critical path** — the engine prices every round at the world
//!   root, so the longest virtual-time chain through an operation is
//!   the op span itself, tiled by its rounds' phase terms (sync →
//!   shuffle → storage → assembly → backoff, in pricing order) plus
//!   whatever the rounds do not cover (prologue, inter-round gaps,
//!   epilogue). [`CriticalPath`] reconstructs that tiling from the
//!   round spans, each decoded once into a [`Round`], attributes every
//!   virtual second to a [`Phase`], and names the straggler rank that
//!   set each max-over-ranks phase term.
//! * **Memory pressure** — paired `mem.reserve` / `mem.release`
//!   instants (plus `fault.mem.revoke` / `fault.mem.restore`) replay
//!   into exact per-node occupancy step functions ([`MemTimeline`]),
//!   not just high-water marks, with overflow windows flagged wherever
//!   occupancy exceeds the node's ceiling.
//! * **A/B diffing** — [`TraceAnalysis::diff`] compares two runs'
//!   attribution tables and counters with per-phase deltas
//!   ([`RunDiff`]); a run diffed against itself is exactly zero.
//!
//! Input is either a live [`ObsSink`] ([`TraceAnalysis::of_sink`]) or a
//! replayed JSONL artifact: [`from_jsonl`] parses the
//! [`crate::export::jsonl`] format back into the engine's own [`Event`]
//! type bit-exactly (f64s are printed shortest-roundtrip), interning its
//! strings through [`crate::span::intern`].

use std::collections::BTreeMap;

use mccio_sim::hostprof::HostProfile;
use mccio_sim::time::{VDuration, VTime};

use crate::causal::CausalAnalysis;
use crate::json::{self, Value};
use crate::metrics::Histogram;
use crate::sink::ObsSink;
use crate::span::{intern, AttrValue, Event, EventKind, ENGINE_TRACK, PHASE_NAMES};
use crate::stream::StreamAgg;

/// Tolerance for tiling checks: segment sums are f64 accumulations of
/// attribute values, so they match the priced durations to rounding.
pub const TILING_EPS: f64 = 1e-9;

/// Replays a JSONL artifact (the [`crate::export::jsonl`] format) back
/// into events. JSONL prints f64s shortest-roundtrip, so every virtual
/// time comes back bit-identical to the live sink's. Each event's `seq`
/// is its line position: the exporter writes parents before children,
/// so ordering semantics survive the round trip.
///
/// # Errors
/// Describes the first malformed line: bad JSON, a missing or mistyped
/// field, a track that is not an integer in `0..=u32::MAX`, or an
/// attribute that is neither a number nor a string.
pub fn from_jsonl(doc: &str) -> Result<Vec<Event>, String> {
    let mut out = Vec::new();
    for (i, line) in doc.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let n = i + 1;
        let v = json::parse(line).map_err(|e| format!("line {n}: {e}"))?;
        let field = |k: &str| v.get(k).ok_or(format!("line {n} missing {k:?}"));
        let num = |k: &str| {
            field(k)?
                .as_f64()
                .ok_or(format!("line {n}: {k:?} not a number"))
        };
        let text = |k: &str| {
            field(k)?
                .as_str()
                .map(intern)
                .ok_or(format!("line {n}: {k:?} not a string"))
        };
        let kind = match field("kind")?.as_str() {
            Some("span") => EventKind::Span {
                start: VTime::from_secs(num("start_s")?),
                dur: VDuration::from_secs(num("dur_s")?),
            },
            Some("instant") => EventKind::Instant {
                at: VTime::from_secs(num("at_s")?),
            },
            Some("counter") => EventKind::Counter {
                at: VTime::from_secs(num("at_s")?),
                value: num("value")?,
            },
            other => return Err(format!("line {n}: bad kind {other:?}")),
        };
        let track = num("track")?;
        if track.fract() != 0.0 || !(0.0..=f64::from(u32::MAX)).contains(&track) {
            return Err(format!(
                "line {n}: track {track} is not an integer in 0..={}",
                u32::MAX
            ));
        }
        out.push(Event {
            name: text("name")?,
            cat: text("cat")?,
            track: track as u32,
            kind,
            attrs: parse_attrs(v.get("attrs"), n)?,
            seq: out.len() as u64,
        });
    }
    Ok(out)
}

/// Parses an exported `attrs` object back into attribute pairs.
/// Integral numbers come back as [`AttrValue::U64`] (the exporters print
/// u64s without a decimal point); other numbers stay f64.
fn parse_attrs(v: Option<&Value>, line: usize) -> Result<Vec<(&'static str, AttrValue)>, String> {
    let Some(obj) = v.and_then(Value::as_obj) else {
        return Ok(Vec::new());
    };
    obj.iter()
        .map(|(k, v)| {
            let val = match v {
                Value::Str(s) => AttrValue::Str(intern(s)),
                Value::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= u64::MAX as f64 => {
                    AttrValue::U64(*n as u64)
                }
                Value::Num(n) => AttrValue::F64(*n),
                _ => {
                    return Err(format!(
                        "line {line}: attribute {k:?} is not a number or string"
                    ))
                }
            };
            Ok((intern(k), val))
        })
        .collect()
}

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
    /// Seconds of each priced phase, in [`PHASE_NAMES`] order.
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
        // Per-phase seconds, in `PHASE_NAMES` order.
        const PHASE_KEYS: [&str; 5] = [
            "sync_secs",
            "shuffle_secs",
            "storage_secs",
            "assembly_secs",
            "backoff_secs",
        ];
        // Straggler ranks, aligned with `PHASE_KEYS`: sync and shuffle
        // are priced globally and name none.
        const STRAGGLER_KEYS: [Option<&str>; 5] = [
            None,
            None,
            Some("storage_rank"),
            Some("assembly_rank"),
            Some("backoff_rank"),
        ];
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
            phase_secs: PHASE_KEYS.map(|k| e.attr_f64(k).unwrap_or(0.0)),
            stragglers: STRAGGLER_KEYS.map(|k| k.and_then(|k| e.attr_u64(k)).map(|v| v as u32)),
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

    /// The round phase with this name (`"sync"` … `"backoff"`), if any.
    /// Round phases lead [`Phase::ALL`] in [`PHASE_NAMES`] order.
    #[must_use]
    pub fn round_phase(name: &str) -> Option<Phase> {
        PHASE_NAMES
            .iter()
            .position(|&n| n == name)
            .map(|i| Phase::ALL[i])
    }
}

/// One contiguous slice of an operation's critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// What the time was spent on.
    pub phase: Phase,
    /// Virtual start of the slice.
    pub start: VTime,
    /// Virtual duration of the slice.
    pub dur: VDuration,
    /// Index of the round this slice belongs to (round phases only).
    pub round: Option<usize>,
    /// The rank that set this max-over-ranks phase term — the round's
    /// straggler. Named for storage (the busiest aggregator), assembly,
    /// and backoff; sync and shuffle are priced globally.
    pub straggler: Option<u32>,
}

/// Seconds of critical-path time attributed to each phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Attribution {
    /// Control-synchronization seconds.
    pub sync: f64,
    /// Shuffle seconds.
    pub shuffle: f64,
    /// Storage seconds.
    pub storage: f64,
    /// Assembly seconds.
    pub assembly: f64,
    /// Retry-backoff seconds.
    pub backoff: f64,
    /// Prologue seconds.
    pub prologue: f64,
    /// Inter-round gap seconds.
    pub gap: f64,
    /// Epilogue seconds.
    pub epilogue: f64,
}

impl Attribution {
    /// Seconds attributed to `phase`.
    #[must_use]
    pub fn get(&self, phase: Phase) -> f64 {
        match phase {
            Phase::Sync => self.sync,
            Phase::Shuffle => self.shuffle,
            Phase::Storage => self.storage,
            Phase::Assembly => self.assembly,
            Phase::Backoff => self.backoff,
            Phase::Prologue => self.prologue,
            Phase::Gap => self.gap,
            Phase::Epilogue => self.epilogue,
        }
    }

    fn add(&mut self, phase: Phase, secs: f64) {
        match phase {
            Phase::Sync => self.sync += secs,
            Phase::Shuffle => self.shuffle += secs,
            Phase::Storage => self.storage += secs,
            Phase::Assembly => self.assembly += secs,
            Phase::Backoff => self.backoff += secs,
            Phase::Prologue => self.prologue += secs,
            Phase::Gap => self.gap += secs,
            Phase::Epilogue => self.epilogue += secs,
        }
    }

    /// Sum over every phase.
    #[must_use]
    pub fn total(&self) -> f64 {
        Phase::ALL.iter().map(|&p| self.get(p)).sum()
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

/// The critical path of one collective operation.
///
/// The engine advances every rank's clock by the same root-priced
/// duration each round, so the op span *is* the longest virtual-time
/// chain; what this adds is the tiling — which phase of which round
/// each slice belongs to, and who the straggler was.
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
    /// The path, tiled in virtual-time order.
    pub segments: Vec<Segment>,
    /// Per-phase attribution (sums of the segments).
    pub attribution: Attribution,
    /// The rounds on the path, decoded, in virtual-time order.
    pub rounds: Vec<Round>,
    /// `attribution.total() - total.as_secs()` — how far the f64
    /// segment sum drifts from the priced duration. Bounded by
    /// [`TILING_EPS`] × rounds on any trace the engine emitted.
    pub tiling_error: f64,
}

impl CriticalPath {
    /// The rank named as straggler most often across this path's
    /// storage/assembly/backoff segments, with its count.
    #[must_use]
    pub fn top_straggler(&self) -> Option<(u32, usize)> {
        let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
        for s in &self.segments {
            if let Some(r) = s.straggler {
                *counts.entry(r).or_insert(0) += 1;
            }
        }
        counts
            .into_iter()
            .max_by_key(|&(r, n)| (n, std::cmp::Reverse(r)))
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
    /// Counter snapshot, when analyzing a live sink (replayed artifacts
    /// carry events only).
    pub counters: BTreeMap<String, u64>,
    /// Histogram snapshot, when analyzing a live sink (per-node memory
    /// peaks, round client counts, …).
    pub histograms: BTreeMap<String, Histogram>,
    /// The streaming aggregate, when the analyzed sink folds through
    /// one (`ObsSink::streaming`); `None` on buffered sinks and
    /// replayed artifacts.
    pub streaming: Option<StreamAgg>,
    /// Host-wall profile of the run, when the caller attached one via
    /// [`TraceAnalysis::with_host_profile`]. Host times are
    /// nondeterministic observability data, never part of bit-identity
    /// checks.
    pub host: Option<HostProfile>,
    /// Per-op causal analyses (blame chains, wait-vs-work, what-if
    /// projections), when the analyzed sink had causal tracing armed
    /// ([`ObsSink::with_causal`]); `None` otherwise.
    pub causal: Option<CausalAnalysis>,
}

impl TraceAnalysis {
    /// Analyzes a live sink: events plus the metrics registry's
    /// counters. The sink is read, not drained.
    ///
    /// # Errors
    /// Propagates [`TraceAnalysis::from_events`] errors.
    pub fn of_sink(sink: &ObsSink) -> Result<TraceAnalysis, String> {
        let mut analysis = sink.with_events(TraceAnalysis::from_events)?;
        let metrics = sink.metrics();
        analysis.counters = metrics.counter_map();
        analysis.histograms = metrics.histogram_map();
        analysis.streaming = sink.stream_stats();
        // Chains and critical paths are both recorded in op order, so
        // the causal layer pairs them positionally (bit-checked inside
        // `from_chains`).
        let chains = sink.causal_chains();
        if !chains.is_empty() {
            analysis.causal = Some(CausalAnalysis::from_chains(&chains, &analysis.ops));
        }
        Ok(analysis)
    }

    /// Attaches a host-wall profile (with the run's total host wall and
    /// virtual seconds) for the report's virtual-vs-host section.
    #[must_use]
    pub fn with_host_profile(mut self, profile: HostProfile) -> TraceAnalysis {
        self.host = Some(profile);
        self
    }

    /// Analyzes a live or replayed event stream, in any order.
    ///
    /// # Errors
    /// Returns a description when the trace is structurally broken —
    /// a round span outside any op span, or a round whose phase terms
    /// do not tile its duration.
    pub fn from_events(events: &[Event]) -> Result<TraceAnalysis, String> {
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
        let rounds: Vec<Round> = rounds.into_iter().map(Round::from_span).collect();

        let mut paths = Vec::with_capacity(ops.len());
        let mut used = vec![false; rounds.len()];
        for op in &ops {
            let (start, dur) = match op.kind {
                EventKind::Span { start, dur } => (start, dur),
                _ => unreachable!("filtered to spans"),
            };
            let end = start + dur;
            let mut mine: Vec<Round> = Vec::new();
            for (r, claimed) in rounds.iter().zip(used.iter_mut()) {
                if *claimed {
                    continue;
                }
                let contained = r.start.as_secs() >= start.as_secs() - TILING_EPS
                    && r.end().as_secs() <= end.as_secs() + TILING_EPS;
                if contained {
                    *claimed = true;
                    mine.push(*r);
                }
            }
            paths.push(critical_path(op, start, dur, mine)?);
        }
        if let Some(pos) = used.iter().position(|&u| !u) {
            return Err(format!(
                "round span at t={} lies outside every op span",
                rounds[pos].start
            ));
        }
        Ok(TraceAnalysis {
            ops: paths,
            memory: mem_timelines(events),
            ..TraceAnalysis::default()
        })
    }

    /// Structured comparison of two runs: per-phase attribution deltas
    /// (summed across each run's ops) and counter deltas.
    #[must_use]
    pub fn diff(&self, other: &TraceAnalysis) -> RunDiff {
        let sum = |a: &TraceAnalysis| {
            let mut acc = Attribution::default();
            for op in &a.ops {
                for &p in &Phase::ALL {
                    acc.add(p, op.attribution.get(p));
                }
            }
            acc
        };
        let (a, b) = (sum(self), sum(other));
        let phases = Phase::ALL
            .iter()
            .map(|&p| PhaseDelta {
                phase: p,
                a_secs: a.get(p),
                b_secs: b.get(p),
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

    /// A fixed-width text rendering of the comparison.
    #[must_use]
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "ops: a={} b={}", self.ops_a, self.ops_b);
        let _ = writeln!(
            out,
            "{:<10} {:>14} {:>14} {:>14}",
            "phase", "a_secs", "b_secs", "delta"
        );
        for p in &self.phases {
            let _ = writeln!(
                out,
                "{:<10} {:>14.6} {:>14.6} {:>+14.6}",
                p.phase.name(),
                p.a_secs,
                p.b_secs,
                p.delta()
            );
        }
        let changed: Vec<&CounterDelta> = self.counters.iter().filter(|c| c.delta() != 0).collect();
        if changed.is_empty() {
            let _ = writeln!(out, "counters: no deltas");
        } else {
            let _ = writeln!(
                out,
                "{:<36} {:>14} {:>14} {:>10}",
                "counter", "a", "b", "delta"
            );
            for c in changed {
                let _ = writeln!(
                    out,
                    "{:<36} {:>14} {:>14} {:>+10}",
                    c.name,
                    c.a,
                    c.b,
                    c.delta()
                );
            }
        }
        out
    }
}

/// Tiles one op span with its rounds' phase terms.
fn critical_path(
    op: &Event,
    start: VTime,
    dur: VDuration,
    rounds: Vec<Round>,
) -> Result<CriticalPath, String> {
    let dir = op.attr_str("dir").unwrap_or("?");
    let end = start + dur;
    let mut segments = Vec::new();
    let mut attribution = Attribution::default();
    let mut push =
        |phase: Phase, at: VTime, secs: f64, round: Option<usize>, straggler: Option<u32>| {
            if secs > 0.0 {
                segments.push(Segment {
                    phase,
                    start: at,
                    dur: VDuration::from_secs(secs),
                    round,
                    straggler,
                });
            }
            attribution.add(phase, secs);
        };
    let mut cursor = start;
    for (i, r) in rounds.iter().enumerate() {
        let lead = r.start.as_secs() - cursor.as_secs();
        if lead > TILING_EPS {
            let phase = if i == 0 { Phase::Prologue } else { Phase::Gap };
            push(phase, cursor, lead, None, None);
        }
        let mut t = r.start;
        for ((&phase, &secs), &straggler) in Phase::ALL.iter().zip(&r.phase_secs).zip(&r.stragglers)
        {
            push(phase, t, secs, Some(i), straggler.filter(|_| secs > 0.0));
            t += VDuration::from_secs(secs);
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
    let tail = end.as_secs() - cursor.as_secs();
    if tail > TILING_EPS {
        let phase = if rounds.is_empty() {
            Phase::Prologue
        } else {
            Phase::Epilogue
        };
        push(phase, cursor, tail, None, None);
    }
    let tiling_error = attribution.total() - dur.as_secs();
    Ok(CriticalPath {
        dir,
        start,
        total: dur,
        segments,
        attribution,
        rounds,
        tiling_error,
    })
}

/// Replays `mem.reserve`/`mem.release` and `fault.mem.*` events into
/// per-node occupancy step functions.
fn mem_timelines(events: &[Event]) -> Vec<MemTimeline> {
    // Per node, chronological (occupancy delta, ceiling observation or
    // delta) — reserve/release carry an exact ceiling reading, fault
    // events step it.
    #[derive(Clone, Copy)]
    enum Ceil {
        Observed(u64),
        Delta(i64),
    }
    let mut per_node: BTreeMap<usize, Vec<(f64, u64, i64, Ceil)>> = BTreeMap::new();
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
        per_node.entry(node as usize).or_default().push((
            e.kind.at().as_secs(),
            e.seq,
            occ_delta,
            ceil,
        ));
    }
    per_node
        .into_iter()
        .filter(|(_, evs)| evs.iter().any(|&(_, _, d, _)| d != 0))
        .map(|(node, mut evs)| {
            evs.sort_by(|a, b| (a.0, a.1).partial_cmp(&(b.0, b.1)).expect("finite"));
            // Back-fill the initial ceiling from the first exact reading
            // so fault deltas before any reservation still level out.
            let first_obs = evs
                .iter()
                .find_map(|&(_, _, _, c)| match c {
                    Ceil::Observed(v) => Some(v),
                    Ceil::Delta(_) => None,
                })
                .unwrap_or(0);
            let mut pre_delta = 0i64;
            for &(_, _, _, c) in &evs {
                match c {
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
            for (at_secs, _, occ_delta, ceil) in evs {
                let at = VTime::from_secs(at_secs);
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
mod tests {
    use super::*;
    use crate::span::sort_for_export;

    fn ev(
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

    fn span(start: f64, dur: f64) -> EventKind {
        EventKind::Span {
            start: VTime::from_secs(start),
            dur: VDuration::from_secs(dur),
        }
    }

    fn at(t: f64) -> EventKind {
        EventKind::Instant {
            at: VTime::from_secs(t),
        }
    }

    fn round(start: f64, secs: [f64; 5], straggler: u64, seq: u64) -> Event {
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
        let a = TraceAnalysis::from_events(&events).unwrap();
        assert_eq!(a.ops.len(), 1);
        let cp = &a.ops[0];
        assert_eq!(cp.dir, "write");
        assert_eq!(cp.rounds.len(), 2);
        // Total is the op span's duration verbatim.
        assert_eq!(cp.total.as_secs().to_bits(), 10.0f64.to_bits());
        // Prologue [0,1), round1 3s, gap [4,5), round2 4s, epilogue [9,10).
        assert!((cp.attribution.prologue - 1.0).abs() < 1e-12);
        assert!((cp.attribution.gap - 1.0).abs() < 1e-12);
        assert!((cp.attribution.epilogue - 1.0).abs() < 1e-12);
        assert!((cp.attribution.storage - 3.5).abs() < 1e-12);
        assert!(cp.tiling_error.abs() < TILING_EPS);
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
        // Segments are contiguous from start to end.
        let mut t = cp.start;
        for s in &cp.segments {
            assert!((s.start.as_secs() - t.as_secs()).abs() < 1e-9);
            t = s.start + s.dur;
        }
        assert!((t.as_secs() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn round_outside_any_op_is_an_error() {
        let events = vec![
            ev("op", ENGINE_TRACK, span(0.0, 1.0), vec![], 0),
            round(5.0, [1.0, 0.0, 0.0, 0.0, 0.0], 0, 1),
        ];
        let err = TraceAnalysis::from_events(&events).unwrap_err();
        assert!(err.contains("outside"), "{err}");
    }

    #[test]
    fn untiled_round_is_an_error() {
        let mut bad = round(0.0, [1.0, 0.0, 0.0, 0.0, 0.0], 0, 1);
        bad.kind = span(0.0, 2.0); // claims 2s, terms sum to 1s
        let events = vec![ev("op", ENGINE_TRACK, span(0.0, 2.0), vec![], 0), bad];
        let err = TraceAnalysis::from_events(&events).unwrap_err();
        assert!(err.contains("phase terms"), "{err}");
    }

    fn mem_ev(name: &'static str, t: f64, node: u64, bytes: u64, ceiling: u64, seq: u64) -> Event {
        ev(
            name,
            0,
            at(t),
            vec![
                ("node", AttrValue::U64(node)),
                ("bytes", AttrValue::U64(bytes)),
                ("ceiling", AttrValue::U64(ceiling)),
            ],
            seq,
        )
    }

    #[test]
    fn occupancy_steps_and_balances() {
        let events = vec![
            mem_ev("mem.reserve", 0.0, 0, 100, 150, 0),
            mem_ev("mem.reserve", 1.0, 0, 40, 150, 1),
            mem_ev("mem.release", 2.0, 0, 100, 150, 2),
            mem_ev("mem.release", 2.0, 0, 40, 150, 3),
        ];
        let a = TraceAnalysis::from_events(&events).unwrap();
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
                vec![("node", AttrValue::U64(2)), ("bytes", AttrValue::U64(80))],
                1,
            ),
            // …and a restoration clears it.
            ev(
                "fault.mem.restore",
                ENGINE_TRACK,
                at(3.0),
                vec![("node", AttrValue::U64(2)), ("bytes", AttrValue::U64(80))],
                2,
            ),
            mem_ev("mem.release", 5.0, 2, 100, 150, 3),
        ];
        let a = TraceAnalysis::from_events(&events).unwrap();
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
        let mut a = TraceAnalysis::from_events(&events).unwrap();
        a.counters.insert("round.count".into(), 1);
        let d = a.diff(&a.clone());
        assert!(d.is_zero(0.0));
        assert!(d.table().contains("no deltas"));

        let mut b = a.clone();
        b.counters.insert("round.count".into(), 3);
        b.ops[0].attribution.shuffle += 0.5;
        let d = a.diff(&b);
        assert!(!d.is_zero(1e-12));
        let shuffle = d.phases.iter().find(|p| p.phase == Phase::Shuffle).unwrap();
        assert!((shuffle.delta() - 0.5).abs() < 1e-12);
        assert_eq!(
            d.counters
                .iter()
                .find(|c| c.name == "round.count")
                .unwrap()
                .delta(),
            2
        );
        assert!(d.table().contains("round.count"));
    }

    #[test]
    fn jsonl_round_trip_is_bit_exact() {
        use crate::export;
        let sink = ObsSink::enabled();
        sink.span(
            ENGINE_TRACK,
            "op",
            "engine",
            VTime::ZERO,
            VDuration::from_secs(0.1 + 0.2), // not representable exactly
            &[("dir", AttrValue::Str("write"))],
        );
        sink.instant(
            3,
            "mem.reserve",
            "mem",
            VTime::from_secs(1.0 / 3.0),
            &[("node", AttrValue::U64(1)), ("bytes", AttrValue::U64(42))],
        );
        sink.counter_sample(0, "occ", "mem", VTime::from_secs(0.7), 12.5, &[]);
        let mut live = sink.events();
        sort_for_export(&mut live);
        let replayed = from_jsonl(&export::jsonl(&live)).unwrap();
        assert_eq!(replayed.len(), live.len());
        for (r, l) in replayed.iter().zip(&live) {
            assert_eq!(r.name, l.name);
            assert_eq!(r.cat, l.cat);
            assert_eq!(r.track, l.track);
            // JSON objects parse key-ordered, so compare key sets.
            let keys = |e: &Event| {
                let mut keys: Vec<&str> = e.attrs.iter().map(|(k, _)| *k).collect();
                keys.sort_unstable();
                keys
            };
            assert_eq!(keys(r), keys(l));
            match (r.kind, l.kind) {
                (
                    EventKind::Span { start: rs, dur: rd },
                    EventKind::Span { start: ls, dur: ld },
                ) => {
                    assert_eq!(rs.as_secs().to_bits(), ls.as_secs().to_bits());
                    assert_eq!(rd.as_secs().to_bits(), ld.as_secs().to_bits());
                }
                (EventKind::Instant { at: ra }, EventKind::Instant { at: la }) => {
                    assert_eq!(ra.as_secs().to_bits(), la.as_secs().to_bits());
                }
                (
                    EventKind::Counter { at: ra, value: rv },
                    EventKind::Counter { at: la, value: lv },
                ) => {
                    assert_eq!(ra.as_secs().to_bits(), la.as_secs().to_bits());
                    assert_eq!(rv.to_bits(), lv.to_bits());
                }
                other => panic!("kind mismatch: {other:?}"),
            }
        }
        // Attribute types survive: u64 stays integral, str stays str.
        let op = replayed.iter().find(|e| e.name == "op").unwrap();
        assert_eq!(op.attr_str("dir"), Some("write"));
        let res = replayed.iter().find(|e| e.name == "mem.reserve").unwrap();
        assert_eq!(res.attr_u64("bytes"), Some(42));
    }

    #[test]
    fn repeated_replays_intern_nothing_new() {
        let doc = "{\"kind\": \"instant\", \"name\": \"mem.reserve\", \"cat\": \"mem\", \
                   \"track\": 3, \"at_s\": 0.5, \"attrs\": {\"node\": 1, \"dir\": \"write\"}}\n";
        let first = from_jsonl(doc).unwrap();
        let second = from_jsonl(doc).unwrap();
        for (a, b) in first.iter().zip(&second) {
            assert!(std::ptr::eq(a.name, b.name));
            assert!(std::ptr::eq(a.cat, b.cat));
            for ((ka, va), (kb, vb)) in a.attrs.iter().zip(&b.attrs) {
                assert!(std::ptr::eq(*ka, *kb));
                if let (AttrValue::Str(sa), AttrValue::Str(sb)) = (va, vb) {
                    assert!(std::ptr::eq(*sa, *sb));
                }
            }
        }
    }

    #[test]
    fn malformed_replay_lines_are_rejected() {
        let line = |track: &str, attr: &str| {
            format!(
                "{{\"kind\": \"instant\", \"name\": \"x\", \"cat\": \"t\", \
                 \"track\": {track}, \"at_s\": 0, \"attrs\": {{\"k\": {attr}}}}}"
            )
        };
        assert!(from_jsonl(&line("7", "1")).is_ok());
        for track in ["-1", "2.5", "5e9"] {
            let doc = format!("{}\n{}\n", line("0", "1"), line(track, "1"));
            let err = from_jsonl(&doc).unwrap_err();
            assert!(err.starts_with("line 2:") && err.contains("track"), "{err}");
        }
        for attr in ["true", "null", "[1]", "{\"a\": 1}"] {
            let err = from_jsonl(&line("0", attr)).unwrap_err();
            assert!(err.starts_with("line 1:") && err.contains("\"k\""), "{err}");
        }
        // Every line must be JSON and carry a kind, a name and a track;
        // blank lines are skipped.
        let err = from_jsonl("\n{not json}\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        for field in ["kind", "name", "track"] {
            let doc = line("0", "1").replacen(&format!("\"{field}\""), "\"other\"", 1);
            let err = from_jsonl(&doc).unwrap_err();
            assert!(err.contains(&format!("missing \"{field}\"")), "{err}");
        }
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

    #[test]
    fn phase_names_agree_with_round_phase() {
        for name in PHASE_NAMES {
            let p = Phase::round_phase(name).unwrap();
            assert_eq!(p.name(), name);
        }
        assert_eq!(Phase::round_phase("prologue"), None);
    }
}
