//! # mccio-obs — observability for the collective I/O stack
//!
//! The paper's whole evaluation is cost *attribution*: where virtual
//! time goes per phase (Figures 6–8), how much aggregation memory each
//! node holds and how much that varies across nodes (Table 1). This
//! crate is the first-class form of those measurements — a scoped span
//! tracer, its analysis, and exporters — shared by every layer of the
//! stack. The events are the one record of a run: every counter (bytes
//! shuffled, storage requests, retries, per-node high-water marks) is
//! derived from them, so a replayed artifact carries the same ones.
//!
//! * [`span`] — the event model: complete spans on virtual-time tracks,
//!   instants, and counter samples, each carrying structured attributes
//!   (direction, window id, flows, bytes, …);
//! * [`sink`] — [`ObsSink`], the per-environment collection point. A
//!   disabled sink (the default) is a `None` behind one branch: every
//!   record call returns immediately, no locks, no allocation, so the
//!   engine's virtual time and wall clock are untouched when tracing is
//!   off — and virtual time is untouched even when it is *on*, because
//!   recording never advances any clock;
//! * [`export`] — the one trace artifact: a Chrome `trace_event` JSON
//!   document (loadable in Perfetto or `chrome://tracing`) that also
//!   carries exact virtual seconds and typed attributes, so
//!   [`export::replay`] parses it back into the same [`Event`]s;
//! * [`json`] — a small self-contained JSON parser that replay reads
//!   the artifact with (the workspace is dependency-free by design);
//! * [`analyze`] — trace analytics over a sink or a replayed artifact:
//!   the one decoder of the round span ([`Round`]), one critical path per op —
//!   its blame chain (or, untraced, rank 0's work) cut at the rounds'
//!   phase windows, with per-phase attribution, straggler naming and
//!   what-if projections as views of it — exact per-node
//!   memory-occupancy timelines, counters derived from the events, and
//!   structured A/B run diffing;
//! * [`stream`] — bounded-memory streaming aggregation for extreme
//!   rank counts: online per-cell statistics, deterministic top-k
//!   straggler retention, and strided exemplar-rank sampling (used by
//!   [`ObsSink::streaming`]);
//! * [`causal`] — message-level happens-before tracing: the sink the
//!   ranks' frontiers report every network delivery to (edges and
//!   counts), and cross-rank blame chains that tile each op's elapsed
//!   time to the bit (armed via [`ObsSink::with_causal`]);
//! * [`report`] — a self-contained HTML report (inline SVG timeline
//!   lanes, the critical path with its blame-chain table, occupancy
//!   strip charts; zero dependencies).
//!
//! ## Quick example
//!
//! ```
//! use mccio_obs::{AttrValue, EventKind, ObsSink};
//! use mccio_sim::time::{VDuration, VTime};
//!
//! let sink = ObsSink::enabled();
//! sink.span(
//!     mccio_obs::ENGINE_TRACK,
//!     "round",
//!     "engine",
//!     VTime::ZERO,
//!     VDuration::from_secs(0.5),
//!     &[("dir", AttrValue::Str("write")), ("flows", AttrValue::U64(12))],
//! );
//! let events = sink.take_events();
//! assert_eq!(events.len(), 1);
//! assert!(matches!(events[0].kind, EventKind::Span { .. }));
//! let trace = mccio_obs::export::chrome_trace_flows(&events, &[]);
//! assert_eq!(mccio_obs::export::replay(&trace).unwrap(), events);
//! ```

#![deny(missing_docs)]

pub mod analyze;
pub mod causal;
pub mod export;
pub mod json;
pub mod report;
pub mod sink;
pub mod span;
pub mod stream;

pub use analyze::{CriticalPath, MemTimeline, Phase, Round, RunDiff, TraceAnalysis, WhatIf};
pub use causal::{BlameChain, BlameSegment, CausalAgg, CausalEdge, SegClass};
pub use sink::ObsSink;
pub use span::{
    AttrValue, Event, EventKind, CRASH_DETECTED, ENGINE_TRACK, REELECTION, ROUNDS_REPLAYED,
};
pub use stream::{OnlineStat, StreamAgg, StreamCell, StreamConfig};
