//! Exporters: Chrome `trace_event` JSON and a JSONL event stream.
//!
//! The Chrome format is the JSON-array flavour understood by Perfetto
//! and `chrome://tracing`: one object per event, `"ph": "X"` complete
//! spans with `ts`/`dur` in microseconds, `"i"` instants, `"C"`
//! counters, plus `"M"` metadata records naming each track. Virtual
//! time maps directly onto the trace clock (1 virtual second = 1e6
//! `ts` units), so a Perfetto timeline of one collective op reads in
//! real units.
//!
//! Export order is deterministic: events are sorted by `(track, start,
//! emission sequence)` first, so two runs of the same plan produce
//! byte-identical artifacts regardless of rank scheduling.
//!
//! [`chrome_trace_flows`] also renders causal message edges, when it is
//! given any, as Chrome **flow events** (`"ph": "s"` at the send,
//! `"ph": "f"` at the binding delivery) so Perfetto draws arrows between
//! rank tracks; flow ids are the deterministic `src · 2³² + seq` and
//! edges are sorted by `(src, seq)`, keeping the artifact
//! byte-identical too.

use crate::causal::CausalEdge;
use crate::json::{self, Value};
use crate::span::{sort_for_export, AttrValue, Event, EventKind, ENGINE_TRACK};

/// Microseconds per virtual second on the trace clock.
const US: f64 = 1e6;

fn fmt_attr(v: &AttrValue) -> String {
    match v {
        AttrValue::U64(x) => x.to_string(),
        AttrValue::F64(x) => {
            if x.is_finite() {
                format!("{x}")
            } else {
                format!("\"{x}\"")
            }
        }
        AttrValue::Str(s) => format!("\"{}\"", json::escape(s)),
    }
}

fn fmt_args(attrs: &[(&'static str, AttrValue)]) -> String {
    let body: Vec<String> = attrs
        .iter()
        .map(|(k, v)| format!("\"{}\": {}", json::escape(k), fmt_attr(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn track_name(track: u32) -> String {
    if track == ENGINE_TRACK {
        "engine (root-priced phases)".to_string()
    } else {
        format!("rank {track}")
    }
}

/// Renders one event as a Chrome record, returning its `ts` (in µs,
/// unrounded) alongside the line for merge ordering.
fn event_row(e: &Event) -> (f64, String) {
    let common = format!(
        "\"name\": \"{}\", \"cat\": \"{}\", \"pid\": 0, \"tid\": {}",
        json::escape(e.name),
        json::escape(e.cat),
        e.track
    );
    match e.kind {
        EventKind::Span { start, dur } => (
            start.as_secs() * US,
            format!(
                "{{{common}, \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {}}}",
                start.as_secs() * US,
                dur.as_secs() * US,
                fmt_args(&e.attrs)
            ),
        ),
        EventKind::Instant { at } => (
            at.as_secs() * US,
            format!(
                "{{{common}, \"ph\": \"i\", \"ts\": {:.3}, \"s\": \"t\", \"args\": {}}}",
                at.as_secs() * US,
                fmt_args(&e.attrs)
            ),
        ),
        EventKind::Counter { at, value } => (
            at.as_secs() * US,
            format!(
                "{{{common}, \"ph\": \"C\", \"ts\": {:.3}, \"args\": {{\"value\": {value}}}}}",
                at.as_secs() * US,
            ),
        ),
    }
}

/// Renders the track-name metadata records for a sorted, deduplicated
/// track list.
fn track_metadata(tracks: &[u32]) -> Vec<String> {
    tracks
        .iter()
        .map(|t| {
            format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": {t}, \
                 \"args\": {{\"name\": \"{}\"}}}}",
                json::escape(&track_name(*t))
            )
        })
        .collect()
}

/// Renders events as a Chrome `trace_event` JSON array in export order
/// (the input order does not matter), with one track-name metadata
/// record per track. Each causal message edge becomes a pair of **flow
/// events**: a `"ph": "s"` record on the sender's track at the
/// departure time and a `"ph": "f"` (binding-point `"e"`) record on the
/// receiver's track at the arrival, sharing the deterministic id
/// `src · 2³² + seq` — Perfetto draws the rank → rank arrows of the
/// blame chain. Rows are merged so `ts` stays monotone per track;
/// byte-identical across runs. Callers without edges pass `&[]`.
#[must_use]
pub fn chrome_trace_flows(events: &[Event], edges: &[CausalEdge]) -> String {
    let mut sorted: Vec<&Event> = events.iter().collect();
    sort_for_export(&mut sorted);
    let mut edges: Vec<CausalEdge> = edges.to_vec();
    edges.sort_by_key(|e| (e.src, e.seq));
    // (tid, ts, line): stable sort keeps events in export order and
    // flow records in (src, seq) order within equal timestamps.
    let mut rows: Vec<(u32, f64, String)> = Vec::with_capacity(sorted.len() + 2 * edges.len());
    for e in &sorted {
        let (ts, line) = event_row(e);
        rows.push((e.track, ts, line));
    }
    for e in &edges {
        let id = e.flow_id();
        let depart = e.depart.as_secs() * US;
        let arrive = e.arrive.as_secs() * US;
        rows.push((
            e.src,
            depart,
            format!(
                "{{\"name\": \"msg\", \"cat\": \"causal.ctl\", \"ph\": \"s\", \"id\": {id}, \
                 \"pid\": 0, \"tid\": {}, \"ts\": {depart:.3}, \
                 \"args\": {{\"bytes\": {}}}}}",
                e.src, e.bytes
            ),
        ));
        rows.push((
            e.dst,
            arrive,
            format!(
                "{{\"name\": \"msg\", \"cat\": \"causal.ctl\", \"ph\": \"f\", \"bp\": \"e\", \
                 \"id\": {id}, \"pid\": 0, \"tid\": {}, \"ts\": {arrive:.3}, \
                 \"args\": {{\"bytes\": {}}}}}",
                e.dst, e.bytes
            ),
        ));
    }
    rows.sort_by(|a, b| {
        (a.0, a.1)
            .partial_cmp(&(b.0, b.1))
            .expect("virtual times are finite")
    });
    let mut tracks: Vec<u32> = rows.iter().map(|r| r.0).collect();
    tracks.sort_unstable();
    tracks.dedup();
    let mut lines = track_metadata(&tracks);
    lines.extend(rows.into_iter().map(|r| r.2));
    format!("[\n{}\n]\n", lines.join(",\n"))
}

/// Renders events as a JSONL stream: one self-describing JSON object
/// per line, in deterministic export order — the greppable/streamable
/// companion to the Chrome trace.
#[must_use]
pub fn jsonl(events: &[Event]) -> String {
    let mut sorted: Vec<&Event> = events.iter().collect();
    sort_for_export(&mut sorted);
    let mut out = String::new();
    for e in &sorted {
        let (kind, timing) = match e.kind {
            EventKind::Span { start, dur } => (
                "span",
                format!(
                    "\"start_s\": {}, \"dur_s\": {}",
                    start.as_secs(),
                    dur.as_secs()
                ),
            ),
            EventKind::Instant { at } => ("instant", format!("\"at_s\": {}", at.as_secs())),
            EventKind::Counter { at, value } => (
                "counter",
                format!("\"at_s\": {}, \"value\": {value}", at.as_secs()),
            ),
        };
        out.push_str(&format!(
            "{{\"kind\": \"{kind}\", \"name\": \"{}\", \"cat\": \"{}\", \"track\": {}, \
             {timing}, \"attrs\": {}}}\n",
            json::escape(e.name),
            json::escape(e.cat),
            e.track,
            fmt_args(&e.attrs)
        ));
    }
    out
}

/// What [`validate_chrome_trace`] learned about a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChromeSummary {
    /// Total events (excluding metadata records).
    pub events: usize,
    /// Distinct `tid` tracks seen.
    pub tracks: usize,
    /// Names seen, deduplicated, in first-seen order.
    pub names: Vec<String>,
    /// Largest `ts + dur` on any track, in microseconds.
    pub end_ts: f64,
}

impl ChromeSummary {
    /// True when an event with this name appears in the trace.
    #[must_use]
    pub fn has(&self, name: &str) -> bool {
        self.names.iter().any(|n| n == name)
    }
}

/// Validates a Chrome trace document: parses it, checks the required
/// fields of every event, checks that `ts` is monotone
/// (non-decreasing) per track in document order, and checks flow
/// pairing — every `"s"` start carries an id, is matched by exactly
/// one `"f"` finish, and finishes no earlier than it starts.
///
/// # Errors
/// Describes the first violation found.
pub fn validate_chrome_trace(doc: &str) -> Result<ChromeSummary, String> {
    let parsed = json::parse(doc)?;
    let events = parsed.as_arr().ok_or("top level must be a JSON array")?;
    let mut summary = ChromeSummary::default();
    let mut last_ts: std::collections::BTreeMap<i64, f64> = std::collections::BTreeMap::new();
    // Flow pairing: id → (start ts, finish ts).
    let mut flows: std::collections::BTreeMap<u64, (Option<f64>, Option<f64>)> =
        std::collections::BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        let obj = e.as_obj().ok_or(format!("event {i} is not an object"))?;
        let ph = obj
            .get("ph")
            .and_then(Value::as_str)
            .ok_or(format!("event {i} missing \"ph\""))?;
        let name = obj
            .get("name")
            .and_then(Value::as_str)
            .ok_or(format!("event {i} missing \"name\""))?;
        obj.get("pid")
            .and_then(Value::as_f64)
            .ok_or(format!("event {i} missing \"pid\""))?;
        let tid = obj
            .get("tid")
            .and_then(Value::as_f64)
            .ok_or(format!("event {i} missing \"tid\""))? as i64;
        if ph == "M" {
            continue; // metadata records carry no timestamp
        }
        let ts = obj
            .get("ts")
            .and_then(Value::as_f64)
            .ok_or(format!("event {i} ({name}) missing \"ts\""))?;
        if !ts.is_finite() || ts < 0.0 {
            return Err(format!("event {i} ({name}) has bad ts {ts}"));
        }
        if let Some(&prev) = last_ts.get(&tid) {
            if ts < prev {
                return Err(format!(
                    "event {i} ({name}) breaks ts monotonicity on tid {tid}: {ts} < {prev}"
                ));
            }
        }
        last_ts.insert(tid, ts);
        let dur = match ph {
            "X" => obj
                .get("dur")
                .and_then(Value::as_f64)
                .ok_or(format!("complete event {i} ({name}) missing \"dur\""))?,
            "i" | "C" => 0.0,
            "s" | "f" => {
                let id = obj
                    .get("id")
                    .and_then(Value::as_f64)
                    .ok_or(format!("flow event {i} ({name}) missing \"id\""))?
                    as u64;
                let slot = flows.entry(id).or_insert((None, None));
                let side = if ph == "s" { &mut slot.0 } else { &mut slot.1 };
                if side.replace(ts).is_some() {
                    return Err(format!(
                        "flow id {id} has a duplicate \"{ph}\" at event {i}"
                    ));
                }
                0.0
            }
            other => return Err(format!("event {i} ({name}) has unknown ph {other:?}")),
        };
        if dur < 0.0 {
            return Err(format!("event {i} ({name}) has negative dur {dur}"));
        }
        summary.events += 1;
        summary.end_ts = summary.end_ts.max(ts + dur);
        if !summary.has(name) {
            summary.names.push(name.to_string());
        }
    }
    for (id, (s, f)) in &flows {
        match (s, f) {
            (Some(s_ts), Some(f_ts)) if f_ts >= s_ts => {}
            (Some(_), None) => return Err(format!("flow id {id} starts but never finishes")),
            (None, Some(_)) => return Err(format!("flow id {id} finishes without a start")),
            (Some(s_ts), Some(f_ts)) => {
                return Err(format!(
                    "flow id {id} finishes at {f_ts} before its start at {s_ts}"
                ))
            }
            (None, None) => unreachable!("flow entries are created with one side set"),
        }
    }
    summary.tracks = last_ts.len();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccio_sim::time::{VDuration, VTime};

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                name: "op",
                cat: "engine",
                track: ENGINE_TRACK,
                kind: EventKind::Span {
                    start: VTime::ZERO,
                    dur: VDuration::from_secs(1.0),
                },
                attrs: vec![("dir", AttrValue::Str("write"))],
                seq: 0,
            },
            Event {
                name: "round",
                cat: "engine",
                track: ENGINE_TRACK,
                kind: EventKind::Span {
                    start: VTime::from_secs(0.1),
                    dur: VDuration::from_secs(0.4),
                },
                attrs: vec![("flows", AttrValue::U64(12)), ("r", AttrValue::F64(0.5))],
                seq: 1,
            },
            Event {
                name: "fault.mem",
                cat: "fault",
                track: 3,
                kind: EventKind::Instant {
                    at: VTime::from_secs(0.2),
                },
                attrs: vec![],
                seq: 2,
            },
            Event {
                name: "mem.reserved",
                cat: "mem",
                track: ENGINE_TRACK,
                kind: EventKind::Counter {
                    at: VTime::from_secs(0.3),
                    value: 1024.0,
                },
                attrs: vec![],
                seq: 3,
            },
        ]
    }

    #[test]
    fn chrome_trace_validates_and_summarizes() {
        let doc = chrome_trace_flows(&sample_events(), &[]);
        let summary = validate_chrome_trace(&doc).unwrap();
        assert_eq!(summary.events, 4);
        assert_eq!(summary.tracks, 2);
        assert!(summary.has("op") && summary.has("round") && summary.has("fault.mem"));
        assert!((summary.end_ts - 1e6).abs() < 1e-6, "{}", summary.end_ts);
    }

    #[test]
    fn monotonicity_violations_are_caught() {
        let doc = r#"[
            {"name": "a", "ph": "i", "ts": 5.0, "pid": 0, "tid": 1, "s": "t"},
            {"name": "b", "ph": "i", "ts": 2.0, "pid": 0, "tid": 1, "s": "t"}
        ]"#;
        let err = validate_chrome_trace(doc).unwrap_err();
        assert!(err.contains("monotonicity"), "{err}");
        // Different tracks may interleave freely.
        let ok = r#"[
            {"name": "a", "ph": "i", "ts": 5.0, "pid": 0, "tid": 1, "s": "t"},
            {"name": "b", "ph": "i", "ts": 2.0, "pid": 0, "tid": 2, "s": "t"}
        ]"#;
        assert!(validate_chrome_trace(ok).is_ok());
    }

    #[test]
    fn missing_fields_are_caught() {
        assert!(validate_chrome_trace(r#"[{"ph": "X"}]"#).is_err());
        assert!(validate_chrome_trace(r#"{"not": "array"}"#).is_err());
        assert!(
            validate_chrome_trace(r#"[{"name": "x", "ph": "X", "ts": 0, "pid": 0, "tid": 0}]"#)
                .is_err(),
            "complete event without dur"
        );
    }

    #[test]
    fn export_is_deterministic_regardless_of_input_order() {
        let evs = sample_events();
        let mut reversed = evs.clone();
        reversed.reverse();
        assert_eq!(
            chrome_trace_flows(&evs, &[]),
            chrome_trace_flows(&reversed, &[])
        );
        assert_eq!(jsonl(&evs), jsonl(&reversed));
    }

    #[test]
    fn flow_events_pair_and_validate() {
        use mccio_sim::time::VTime;
        let edges = vec![
            CausalEdge {
                src: 3,
                dst: 0,
                seq: 2,
                bytes: 512,
                depart: VTime::from_secs(0.2),
                arrive: VTime::from_secs(0.35),
            },
            CausalEdge {
                src: 0,
                dst: 3,
                seq: 1,
                bytes: 0,
                depart: VTime::from_secs(0.05),
                arrive: VTime::from_secs(0.1),
            },
        ];
        let doc = chrome_trace_flows(&sample_events(), &edges);
        let summary = validate_chrome_trace(&doc).unwrap();
        // 4 sample events + 2 flow starts + 2 flow finishes.
        assert_eq!(summary.events, 8);
        assert!(summary.has("msg"));
        // Edge order in the input must not matter.
        let mut reversed = edges.clone();
        reversed.reverse();
        assert_eq!(doc, chrome_trace_flows(&sample_events(), &reversed));
    }

    #[test]
    fn broken_flow_pairing_is_caught() {
        let orphan_start = r#"[
            {"name": "msg", "ph": "s", "id": 7, "ts": 1.0, "pid": 0, "tid": 0}
        ]"#;
        let err = validate_chrome_trace(orphan_start).unwrap_err();
        assert!(err.contains("never finishes"), "{err}");
        let orphan_finish = r#"[
            {"name": "msg", "ph": "f", "bp": "e", "id": 7, "ts": 1.0, "pid": 0, "tid": 0}
        ]"#;
        let err = validate_chrome_trace(orphan_finish).unwrap_err();
        assert!(err.contains("without a start"), "{err}");
        let backwards = r#"[
            {"name": "msg", "ph": "s", "id": 7, "ts": 2.0, "pid": 0, "tid": 0},
            {"name": "msg", "ph": "f", "bp": "e", "id": 7, "ts": 1.0, "pid": 0, "tid": 1}
        ]"#;
        let err = validate_chrome_trace(backwards).unwrap_err();
        assert!(err.contains("before its start"), "{err}");
        let missing_id = r#"[
            {"name": "msg", "ph": "s", "ts": 1.0, "pid": 0, "tid": 0}
        ]"#;
        let err = validate_chrome_trace(missing_id).unwrap_err();
        assert!(err.contains("missing \"id\""), "{err}");
        let duplicate = r#"[
            {"name": "msg", "ph": "s", "id": 7, "ts": 1.0, "pid": 0, "tid": 0},
            {"name": "msg", "ph": "s", "id": 7, "ts": 1.5, "pid": 0, "tid": 0}
        ]"#;
        let err = validate_chrome_trace(duplicate).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }
}
