//! Streaming aggregation: bounded-memory observability for extreme
//! rank counts.
//!
//! The buffered [`ObsSink`](crate::ObsSink) retains every event, which
//! is O(ranks × rounds) memory — infeasible at the 100k-rank scale the
//! event executor reaches. A *streaming* sink folds the per-rank event
//! firehose into this module's [`StreamAgg`] instead: online statistics
//! per aggregation cell, plus a deterministic top-k straggler list, plus
//! a small set of *exemplar* rank tracks retained at full fidelity so
//! Chrome-trace export still shows real span lanes at scale.
//!
//! ## What is retained vs folded
//!
//! * Engine-track spans and instants (root-priced rounds, phases,
//!   faults) are **retained** verbatim: they are O(rounds), not
//!   O(ranks), and the critical-path analyzer needs them exact.
//! * Span/instant events on *exemplar* rank tracks are retained: rank
//!   `r` is an exemplar iff `r % stride == 0 && r / stride <
//!   exemplar_max` ([`StreamConfig`]), a rule chosen to be a pure
//!   function of the rank number so the exemplar set is identical
//!   across executors and runs.
//! * Everything else — per-rank events from non-exemplar ranks and
//!   *all* counter samples (including the O(nodes) per-node peak
//!   samples the engine emits on the engine track) — is **folded** into
//!   a [`StreamCell`] and dropped.
//!
//! ## Determinism rule
//!
//! Events arrive in rank-schedule order, which differs between the
//! canonical and every explored schedule, so every folded quantity
//! must be order-independent: sums accumulate in `u128` over exact
//! integer inputs (span durations are converted to whole nanoseconds, a
//! deterministic function of the priced `f64`), counts and min/max are
//! trivially commutative, and the top-k straggler list keeps the k
//! largest `(value, rank)` entries under the canonical order *value
//! descending, rank ascending* — a total order on the folded value
//! bits, so the surviving set (not just its statistics) is bit-stable
//! across executors.
//!
//! ## Memory bound
//!
//! Cells are keyed `(event name, virtual-time bits)`. Rank clocks move
//! in lockstep between rounds, so the per-rank events of one logical
//! point share one virtual time and land in one cell: the cell count
//! grows with *rounds and faults*, never with ranks. Each cell holds
//! fixed-size statistics (count, sum, extremes and k straggler slots
//! per tracked quantity), so steady-state folding allocates nothing.

use std::collections::BTreeMap;

use mccio_sim::time::VTime;

use crate::span::{AttrValue, Event, EventKind, ENGINE_TRACK};

/// Configuration for a streaming sink; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Straggler slots retained per folded quantity.
    pub top_k: usize,
    /// Exemplar stride: rank `r` keeps full-fidelity lanes iff
    /// `r % exemplar_stride == 0` and the quota below allows it.
    /// Clamped to at least 1.
    pub exemplar_stride: u32,
    /// Maximum number of exemplar ranks (`r / stride < exemplar_max`).
    pub exemplar_max: u32,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            top_k: 8,
            exemplar_stride: 1,
            exemplar_max: 8,
        }
    }
}

impl StreamConfig {
    /// A config whose exemplar set is `max` ranks strided evenly
    /// across a world of `n_ranks`.
    #[must_use]
    pub fn for_ranks(n_ranks: usize, max: u32) -> Self {
        let stride = ((n_ranks as u32) / max.max(1)).max(1);
        StreamConfig {
            exemplar_stride: stride,
            exemplar_max: max.max(1),
            ..StreamConfig::default()
        }
    }
}

/// Order-independent online statistics over one folded `u64` quantity,
/// with a canonical top-k `(value, rank)` straggler list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OnlineStat {
    /// Observations folded.
    pub count: u64,
    /// Exact sum (u128: 2⁶⁴ observations of u64 cannot overflow).
    pub sum: u128,
    /// Smallest observation (`u64::MAX` when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// The k largest `(value, rank)` observations, ordered value
    /// descending then rank ascending (the canonical straggler order;
    /// see the module docs).
    pub top: Vec<(u64, u32)>,
}

impl OnlineStat {
    fn new() -> Self {
        OnlineStat {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            top: Vec::new(),
        }
    }

    fn fold(&mut self, value: u64, rank: u32, top_k: usize) {
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if top_k == 0 {
            return;
        }
        // Canonical order: value desc, rank asc. Insertion keeps the
        // list sorted; k is small so a linear scan is the fast path.
        let pos = self
            .top
            .iter()
            .position(|&(v, r)| (value > v) || (value == v && rank < r))
            .unwrap_or(self.top.len());
        if pos < top_k {
            self.top.insert(pos, (value, rank));
            self.top.truncate(top_k);
        }
    }

    /// Mean of the folded values (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest observation, or 0 when empty (for display).
    #[must_use]
    pub fn min_or_zero(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }
}

/// The folded statistics of one aggregation cell — every event sharing
/// one `(name, virtual time)` point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamCell {
    /// Events folded into this cell.
    pub count: u64,
    /// `"span"`, `"instant"`, or `"counter"` (cells never mix kinds:
    /// the engine emits each name with one kind).
    pub kind: &'static str,
    /// Span durations in whole nanoseconds (empty unless `kind` is
    /// `"span"`). Its `top` list is the per-cell straggler table.
    pub dur_nanos: OnlineStat,
    /// Counter sample values (empty unless `kind` is `"counter"`).
    pub value: OnlineStat,
    /// Per-attribute statistics over the events' `u64` attributes.
    pub attrs: BTreeMap<&'static str, OnlineStat>,
}

impl StreamCell {
    fn new(kind: &'static str) -> Self {
        StreamCell {
            count: 0,
            kind,
            dur_nanos: OnlineStat::new(),
            value: OnlineStat::new(),
            attrs: BTreeMap::new(),
        }
    }
}

/// Converts a priced span duration to whole nanoseconds — the
/// deterministic integer domain every folded sum uses.
#[must_use]
pub fn dur_to_nanos(secs: f64) -> u64 {
    (secs * 1e9).round() as u64
}

/// The streaming aggregate: bounded-memory statistics plus retention
/// bookkeeping. Built live by a streaming sink, or offline from a
/// buffered event list via [`StreamAgg::from_events`] (both paths run
/// the same fold, which is what the equivalence tests pin).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamAgg {
    cfg: StreamConfig,
    cells: BTreeMap<(&'static str, u64), StreamCell>,
    /// Events folded (dropped after aggregation).
    pub folded_events: u64,
    /// Events retained verbatim (engine track + exemplar lanes).
    pub retained_events: u64,
}

impl StreamAgg {
    /// An empty aggregate.
    #[must_use]
    pub fn new(cfg: StreamConfig) -> Self {
        StreamAgg {
            cfg,
            cells: BTreeMap::new(),
            folded_events: 0,
            retained_events: 0,
        }
    }

    /// The configuration this aggregate folds under.
    #[must_use]
    pub fn config(&self) -> StreamConfig {
        self.cfg
    }

    /// Whether rank track `track` keeps full-fidelity lanes.
    #[must_use]
    pub fn is_exemplar(&self, track: u32) -> bool {
        let stride = self.cfg.exemplar_stride.max(1);
        track.is_multiple_of(stride) && track / stride < self.cfg.exemplar_max
    }

    /// Whether an event on `track` of kind `kind` is retained verbatim
    /// (engine-track or exemplar span/instant) rather than folded.
    /// Counter samples are always folded — the engine emits O(nodes)
    /// of them per op on the engine track.
    #[must_use]
    pub fn retains(&self, track: u32, kind: &EventKind) -> bool {
        if matches!(kind, EventKind::Counter { .. }) {
            return false;
        }
        track == ENGINE_TRACK || self.is_exemplar(track)
    }

    /// Counts a retained event (the sink keeps the event itself).
    pub fn note_retained(&mut self) {
        self.retained_events += 1;
    }

    /// Folds one event into its cell. The caller has already decided
    /// (via [`StreamAgg::retains`]) that the event is not retained.
    pub fn fold(
        &mut self,
        track: u32,
        name: &'static str,
        kind: &EventKind,
        attrs: &[(&'static str, AttrValue)],
    ) {
        self.folded_events += 1;
        let at_bits = kind.at().as_secs().to_bits();
        let kind_name = match kind {
            EventKind::Span { .. } => "span",
            EventKind::Instant { .. } => "instant",
            EventKind::Counter { .. } => "counter",
        };
        let top_k = self.cfg.top_k;
        let cell = self
            .cells
            .entry((name, at_bits))
            .or_insert_with(|| StreamCell::new(kind_name));
        cell.count += 1;
        match *kind {
            EventKind::Span { dur, .. } => {
                cell.dur_nanos
                    .fold(dur_to_nanos(dur.as_secs()), track, top_k);
            }
            EventKind::Counter { value, .. } => {
                // Counter samples in this codebase are integral byte
                // counts carried as f64; round-trip deterministically.
                cell.value.fold(value.round() as u64, track, top_k);
            }
            EventKind::Instant { .. } => {}
        }
        for &(key, value) in attrs {
            if let AttrValue::U64(v) = value {
                cell.attrs
                    .entry(key)
                    .or_insert_with(OnlineStat::new)
                    .fold(v, track, top_k);
            }
        }
    }

    /// Routes one event: folds it and reports `false`, or counts it
    /// retained and reports `true` (the caller keeps it).
    pub fn route(&mut self, event: &Event) -> bool {
        if self.retains(event.track, &event.kind) {
            self.note_retained();
            true
        } else {
            self.fold(event.track, event.name, &event.kind, &event.attrs);
            false
        }
    }

    /// Derives the aggregate a streaming sink would have produced from
    /// a fully-buffered event list — the offline half of the
    /// streaming-equivalence contract.
    #[must_use]
    pub fn from_events<'a, I>(events: I, cfg: StreamConfig) -> StreamAgg
    where
        I: IntoIterator<Item = &'a Event>,
    {
        let mut agg = StreamAgg::new(cfg);
        for e in events {
            agg.route(e);
        }
        agg
    }

    /// Number of aggregation cells held.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Iterates the cells in key order: `(name, virtual time, cell)`.
    pub fn cells(&self) -> impl Iterator<Item = (&'static str, VTime, &StreamCell)> {
        self.cells
            .iter()
            .map(|(&(name, bits), cell)| (name, VTime::from_secs(f64::from_bits(bits)), cell))
    }

    /// Per-name rollup across cells, in name order: `(name, cells,
    /// events folded)`.
    #[must_use]
    pub fn by_name(&self) -> Vec<(&'static str, usize, u64)> {
        let mut rollup: BTreeMap<&'static str, (usize, u64)> = BTreeMap::new();
        for (&(name, _), cell) in &self.cells {
            let e = rollup.entry(name).or_insert((0, 0));
            e.0 += 1;
            e.1 += cell.count;
        }
        rollup
            .into_iter()
            .map(|(name, (cells, events))| (name, cells, events))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccio_sim::time::VDuration;

    fn span_on(track: u32, name: &'static str, at: f64, dur: f64) -> Event {
        Event {
            name,
            cat: "t",
            track,
            kind: EventKind::Span {
                start: VTime::from_secs(at),
                dur: VDuration::from_secs(dur),
            },
            attrs: vec![("bytes", AttrValue::U64(track as u64 * 10))],
            seq: 0,
        }
    }

    #[test]
    fn exemplar_rule_is_strided_and_capped() {
        let agg = StreamAgg::new(StreamConfig {
            exemplar_stride: 4,
            exemplar_max: 3,
            ..StreamConfig::default()
        });
        let exemplars: Vec<u32> = (0..32).filter(|&r| agg.is_exemplar(r)).collect();
        assert_eq!(exemplars, vec![0, 4, 8]);
    }

    #[test]
    fn counters_always_fold_even_on_engine_track() {
        let mut agg = StreamAgg::new(StreamConfig::default());
        let e = Event {
            name: "mem.peak_reserved",
            cat: "mem",
            track: ENGINE_TRACK,
            kind: EventKind::Counter {
                at: VTime::from_secs(1.0),
                value: 4096.0,
            },
            attrs: vec![],
            seq: 0,
        };
        assert!(!agg.route(&e));
        assert_eq!(agg.folded_events, 1);
        let (_, _, cell) = agg.cells().next().unwrap();
        assert_eq!(cell.kind, "counter");
        assert_eq!(cell.value.sum, 4096);
    }

    #[test]
    fn fold_is_order_independent_and_topk_canonical() {
        let cfg = StreamConfig {
            top_k: 3,
            exemplar_stride: 1,
            exemplar_max: 0,
        };
        // Ranks 1..=20 with duration proportional to rank; ranks 7 and
        // 9 tie in duration with rank 19.
        let mut events: Vec<Event> = (1..=20u32)
            .map(|r| {
                let d = match r {
                    7 | 9 => 19.0,
                    r => f64::from(r),
                };
                span_on(r, "prologue", 5.0, d * 1e-3)
            })
            .collect();
        let forward = StreamAgg::from_events(events.iter(), cfg);
        events.reverse();
        let backward = StreamAgg::from_events(events.iter(), cfg);
        assert_eq!(forward, backward, "fold must be order-independent");

        let (_, at, cell) = forward.cells().next().unwrap();
        assert_eq!(at.as_secs().to_bits(), 5.0f64.to_bits());
        assert_eq!(cell.count, 20);
        assert_eq!(cell.dur_nanos.count, 20);
        // Largest durations: rank 20 (20ms), then the 19ms three-way
        // tie broken by rank ascending: 7 beats 9 beats 19.
        let top: Vec<(u64, u32)> = cell.dur_nanos.top.clone();
        assert_eq!(
            top,
            vec![(20_000_000, 20), (19_000_000, 7), (19_000_000, 9)]
        );
        // Attribute stats fold the u64 attr exactly.
        let bytes = &cell.attrs["bytes"];
        assert_eq!(bytes.sum, (1..=20u128).map(|r| r * 10).sum::<u128>());
        assert_eq!(bytes.max, 200);
        assert_eq!(bytes.min, 10);
    }

    #[test]
    fn retention_splits_engine_exemplar_and_bulk() {
        let mut agg = StreamAgg::new(StreamConfig {
            exemplar_stride: 8,
            exemplar_max: 2,
            ..StreamConfig::default()
        });
        // Engine-track span: retained.
        assert!(agg.route(&span_on(ENGINE_TRACK, "round", 1.0, 0.5)));
        // Exemplar ranks 0 and 8: retained.
        assert!(agg.route(&span_on(0, "prologue", 1.0, 0.1)));
        assert!(agg.route(&span_on(8, "prologue", 1.0, 0.1)));
        // Rank 16 is past the quota; rank 3 misses the stride.
        assert!(!agg.route(&span_on(16, "prologue", 1.0, 0.1)));
        assert!(!agg.route(&span_on(3, "prologue", 1.0, 0.1)));
        assert_eq!(agg.retained_events, 3);
        assert_eq!(agg.folded_events, 2);
        assert_eq!(agg.cell_count(), 1);
        assert_eq!(agg.by_name(), vec![("prologue", 1, 2)]);
    }

    #[test]
    fn fold_keeps_exact_count_sum_and_extremes() {
        let mut s = OnlineStat::new();
        assert_eq!(s.min_or_zero(), 0, "empty");
        for v in [3u64, 1, 4, u64::MAX] {
            s.fold(v, 0, 0);
        }
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, u128::from(u64::MAX) + 8, "no overflow");
        assert_eq!(s.min_or_zero(), 1);
        assert_eq!(s.max, u64::MAX);
        assert!(s.top.is_empty(), "k = 0 keeps no stragglers");
    }
}
