//! The event model: spans, instants, and counter samples on
//! virtual-time tracks.
//!
//! A *track* is a horizontal timeline in the trace viewer. The engine
//! prices every round at the world root, so phase durations (sync,
//! shuffle, storage, assembly, backoff) only exist there — those spans
//! land on [`ENGINE_TRACK`]. Per-rank facts (which windows a rank
//! stored, what it retried) land on the rank's own track, numbered by
//! rank.
//!
//! Spans are recorded *complete* — virtual start plus duration — rather
//! than as begin/end pairs, because the simulator always knows both ends
//! when the fact becomes true (virtual time is priced, not observed).
//! Nesting is by containment: a span that starts no earlier and ends no
//! later than another on the same track renders inside it, which is
//! exactly Chrome's `"X"` (complete event) semantics.

use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::sync::{Mutex, PoisonError};

use mccio_sim::time::{VDuration, VTime};

/// The track root-priced engine phases are recorded on. Rank tracks use
/// the rank number; this sits far above any plausible rank count.
pub const ENGINE_TRACK: u32 = 1_000_000;

/// The crash-recovery event family the engine emits when a fault plan
/// schedules rank crashes. Grouped here so trace consumers (and the
/// chaos sweep) key off one vocabulary:
///
/// * [`CRASH_DETECTED`] — instant: an aggregator was declared dead at a
///   round boundary and its detection timeout was charged.
/// * [`REELECTION`] — instant: a replacement aggregator was elected from
///   the survivor set for one domain.
/// * [`ROUNDS_REPLAYED`] — instant: a round's shuffle payloads were
///   re-sent against the re-planned schedule.
///
/// Each name is also the derived counter of its instants
/// (`analyze::TraceAnalysis::counters`).
pub const CRASH_DETECTED: &str = "crash.detected";
/// See [`CRASH_DETECTED`].
pub const REELECTION: &str = "reelection";
/// See [`CRASH_DETECTED`].
pub const ROUNDS_REPLAYED: &str = "rounds.replayed";

/// One structured attribute value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttrValue {
    /// An unsigned count or byte size: derived counters sum it.
    U64(u64),
    /// An integer that names or bounds something rather than counts it
    /// (a node, a rank, a round, a memory ceiling): derived counters
    /// never sum it.
    Id(u64),
    /// A floating-point quantity (seconds, factors).
    F64(f64),
    /// A static label (direction, strategy name, event taxonomy).
    Str(&'static str),
}

/// What kind of mark an [`Event`] places on its track.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A complete span: virtual start and duration.
    Span {
        /// Virtual start of the span.
        start: VTime,
        /// Priced virtual duration.
        dur: VDuration,
    },
    /// A zero-duration mark (a fault fired, a rung was descended).
    Instant {
        /// Virtual time of the mark.
        at: VTime,
    },
    /// A sampled counter value (reserved bytes, pool occupancy).
    Counter {
        /// Virtual time of the sample.
        at: VTime,
        /// The sampled value.
        value: f64,
    },
}

impl EventKind {
    /// The virtual time the event begins (spans) or occurs (marks).
    #[must_use]
    pub fn at(&self) -> VTime {
        match *self {
            EventKind::Span { start, .. } => start,
            EventKind::Instant { at } | EventKind::Counter { at, .. } => at,
        }
    }
}

/// One recorded observability event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event name within the taxonomy (`"op"`, `"round"`, `"shuffle"`,
    /// `"storage.window"`, `"ladder.rung"`, `"fault.mem"`, …).
    pub name: &'static str,
    /// Category, the coarse grouping trace viewers filter by
    /// (`"engine"`, `"ladder"`, `"fault"`, `"storage"`, `"mem"`).
    pub cat: &'static str,
    /// The track the event renders on: a rank number or
    /// [`ENGINE_TRACK`].
    pub track: u32,
    /// The mark this event places on the track.
    pub kind: EventKind,
    /// Structured attributes (`args` in the Chrome trace).
    pub attrs: Vec<(&'static str, AttrValue)>,
    /// Emission sequence number, unique per sink: ties on `(track,
    /// start)` sort in emission order, which puts parents (emitted
    /// first) before their children.
    pub seq: u64,
}

impl Event {
    /// Looks up an attribute by key.
    #[must_use]
    pub fn attr(&self, key: &str) -> Option<AttrValue> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    /// An attribute as u64, if present and a count or an id.
    #[must_use]
    pub fn attr_u64(&self, key: &str) -> Option<u64> {
        match self.attr(key) {
            Some(AttrValue::U64(v) | AttrValue::Id(v)) => Some(v),
            _ => None,
        }
    }

    /// An attribute as f64 (also accepts integers), if present.
    #[must_use]
    pub fn attr_f64(&self, key: &str) -> Option<f64> {
        match self.attr(key) {
            Some(AttrValue::F64(v)) => Some(v),
            Some(AttrValue::U64(v) | AttrValue::Id(v)) => Some(v as f64),
            _ => None,
        }
    }

    /// An attribute as a static string, if present and of that type.
    #[must_use]
    pub fn attr_str(&self, key: &str) -> Option<&'static str> {
        match self.attr(key) {
            Some(AttrValue::Str(v)) => Some(v),
            _ => None,
        }
    }

    /// Virtual end of the event (start + duration for spans, the mark
    /// itself otherwise).
    #[must_use]
    pub fn end(&self) -> VTime {
        match self.kind {
            EventKind::Span { start, dur } => start + dur,
            EventKind::Instant { at } | EventKind::Counter { at, .. } => at,
        }
    }
}

/// Sorts events (or references to them) into stable export order: by
/// track, then virtual start, then emission order. Parents (emitted
/// before their children at the same start) stay ahead, which is what
/// containment-nesting viewers expect.
pub fn sort_for_export<E: Borrow<Event>>(events: &mut [E]) {
    events.sort_by(|a, b| {
        let (a, b) = (a.borrow(), b.borrow());
        (a.track, a.kind.at().as_secs(), a.seq)
            .partial_cmp(&(b.track, b.kind.at().as_secs(), b.seq))
            .expect("virtual times are finite")
    });
}

/// Interns a replayed string as `&'static str`, so a parsed artifact
/// yields the same [`Event`] type the engine emits. Each distinct
/// string is leaked at most once per process: replay vocabularies
/// (names, categories, attribute keys, labels) are small and shared by
/// every replay.
#[must_use]
pub fn intern(s: &str) -> &'static str {
    static SEEN: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut seen = SEEN.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(&hit) = seen.get(s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.into());
    seen.insert(leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(track: u32, start: f64, dur: f64, seq: u64) -> Event {
        Event {
            name: "s",
            cat: "t",
            track,
            kind: EventKind::Span {
                start: VTime::from_secs(start),
                dur: VDuration::from_secs(dur),
            },
            attrs: vec![("bytes", AttrValue::U64(7))],
            seq,
        }
    }

    #[test]
    fn attr_lookup_by_type() {
        let e = span(0, 0.0, 1.0, 0);
        assert_eq!(e.attr_u64("bytes"), Some(7));
        assert_eq!(e.attr_f64("bytes"), Some(7.0));
        assert_eq!(e.attr_str("bytes"), None);
        assert_eq!(e.attr("missing"), None);
    }

    #[test]
    fn sort_orders_by_track_time_then_seq() {
        let mut evs = vec![
            span(1, 0.0, 1.0, 3),
            span(0, 5.0, 1.0, 2),
            span(0, 5.0, 0.5, 4),
        ];
        sort_for_export(&mut evs);
        assert_eq!(
            evs.iter().map(|e| (e.track, e.seq)).collect::<Vec<_>>(),
            vec![(0, 2), (0, 4), (1, 3)]
        );
    }

    #[test]
    fn span_end_is_start_plus_duration() {
        let e = span(0, 2.0, 1.5, 0);
        assert!((e.end().as_secs() - 3.5).abs() < 1e-12);
        assert!((e.kind.at().as_secs() - 2.0).abs() < 1e-12);
    }
}
