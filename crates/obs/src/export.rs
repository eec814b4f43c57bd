//! The trace artifact: a Chrome `trace_event` JSON document, with one
//! writer ([`chrome_trace_flows`]) and one reader ([`replay`]).
//!
//! The format is the JSON-array flavour understood by Perfetto and
//! `chrome://tracing`: one object per event, `"ph": "X"` complete spans
//! with `ts`/`dur` in microseconds, `"i"` instants, `"C"` counters, plus
//! `"M"` metadata records naming each track. Virtual time maps directly
//! onto the trace clock (1 virtual second = 1e6 `ts` units), so a
//! Perfetto timeline of one collective op reads in real units.
//!
//! Each event record also carries, under keys outside the trace-event
//! reserved set, what a replay needs and a viewer does not: its exact
//! virtual seconds (`start_s`/`dur_s`, or `at_s`, printed
//! shortest-roundtrip) and `attrs`, every attribute in emission order
//! as a `[key, kind, value]` triple whose kind is `"u64"`, `"f64"`,
//! `"id"` or `"str"`. `args` repeats the attributes for the viewer,
//! except on a counter: there `args` holds the sampled `value` alone,
//! and the counter's [`AttrValue::Id`] attributes name its series
//! through Chrome's `id` (one `mem.peak_reserved` series per node).
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

use std::collections::BTreeMap;

use mccio_sim::time::{VDuration, VTime};

use crate::causal::CausalEdge;
use crate::json::{self, Value};
use crate::span::{intern, sort_for_export, AttrValue, Event, EventKind, ENGINE_TRACK};

/// Microseconds per virtual second on the trace clock.
const US: f64 = 1e6;

/// An attribute's kind and its value as JSON: integers plain, finite
/// f64s shortest-roundtrip, non-finite f64s and labels as strings.
fn fmt_attr(v: &AttrValue) -> (&'static str, String) {
    match v {
        AttrValue::U64(x) => ("u64", x.to_string()),
        AttrValue::Id(x) => ("id", x.to_string()),
        AttrValue::F64(x) if x.is_finite() => ("f64", format!("{x}")),
        AttrValue::F64(x) => ("f64", format!("\"{x}\"")),
        AttrValue::Str(s) => ("str", format!("\"{}\"", json::escape(s))),
    }
}

/// Renders the viewer's `args` (on a counter, its sample and the `id`
/// its id attributes name) and the replay's typed `attrs`.
fn fmt_attrs(e: &Event) -> String {
    let (mut args, mut ids, mut typed) = (Vec::new(), Vec::new(), Vec::new());
    for (k, v) in &e.attrs {
        let (kind, val) = fmt_attr(v);
        let k = json::escape(k);
        if let AttrValue::Id(x) = v {
            ids.push(format!("{k} {x}"));
        }
        args.push(format!("\"{k}\": {val}"));
        typed.push(format!("[\"{k}\", \"{kind}\", {val}]"));
    }
    let viewer = match e.kind {
        EventKind::Counter { value, .. } if ids.is_empty() => {
            format!("\"args\": {{\"value\": {value}}}")
        }
        EventKind::Counter { value, .. } => format!(
            "\"id\": \"{}\", \"args\": {{\"value\": {value}}}",
            ids.join(" ")
        ),
        _ => format!("\"args\": {{{}}}", args.join(", ")),
    };
    format!("{viewer}, \"attrs\": [{}]", typed.join(", "))
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
    let at = e.kind.at().as_secs();
    let timing = match e.kind {
        EventKind::Span { dur, .. } => format!(
            "\"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"start_s\": {at}, \"dur_s\": {}",
            at * US,
            dur.as_secs() * US,
            dur.as_secs()
        ),
        EventKind::Instant { .. } => {
            format!(
                "\"ph\": \"i\", \"ts\": {:.3}, \"s\": \"t\", \"at_s\": {at}",
                at * US
            )
        }
        EventKind::Counter { .. } => {
            format!("\"ph\": \"C\", \"ts\": {:.3}, \"at_s\": {at}", at * US)
        }
    };
    let line = format!(
        "{{\"name\": \"{}\", \"cat\": \"{}\", \"pid\": 0, \"tid\": {}, {timing}, {}}}",
        json::escape(e.name),
        json::escape(e.cat),
        e.track,
        fmt_attrs(e)
    );
    (at * US, line)
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

/// The events a [`replay`] of their export yields: export order, each
/// `seq` its position. A replay equals this with `==`.
#[must_use]
pub fn export_order(events: &[Event]) -> Vec<Event> {
    let mut sorted = events.to_vec();
    sort_for_export(&mut sorted);
    for (i, e) in sorted.iter_mut().enumerate() {
        e.seq = i as u64;
    }
    sorted
}

/// Replays a [`chrome_trace_flows`] document back into events, exactly:
/// every virtual time and attribute comes back bit-identical and of its
/// kind, its strings interned through [`crate::span::intern`]. Each
/// event's `seq` is its position among the event records; the writer
/// puts parents before children, so ordering semantics survive.
/// Metadata and flow records are checked, then skipped.
///
/// # Errors
/// Describes the first violation: a document that is not a JSON array
/// of objects; a record missing `ph`, `name`, `pid`, `tid` (or, on
/// events, `ts`, `cat` and the exact seconds; on spans `dur`); a `tid`
/// that is not an integer in `0..=u32::MAX`; a `ts` or exact time that
/// is not finite and non-negative; a `ts` that runs backwards on its
/// track; an unknown `ph`; a flow without an `id`, or one that does not
/// pair exactly one `"s"` with one later-or-equal `"f"`; or an
/// attribute that is not a `[key, kind, value]` triple whose value is a
/// number or string of that kind.
pub fn replay(doc: &str) -> Result<Vec<Event>, String> {
    let parsed = json::parse(doc)?;
    let records = parsed.as_arr().ok_or("top level must be a JSON array")?;
    let mut events = Vec::new();
    let mut last_ts: BTreeMap<u32, f64> = BTreeMap::new();
    // Flow pairing: id → (start ts, finish ts).
    let mut flows: BTreeMap<u64, (Option<f64>, Option<f64>)> = BTreeMap::new();
    for (i, r) in records.iter().enumerate() {
        if r.as_obj().is_none() {
            return Err(format!("event {i} is not an object"));
        }
        let field = |k: &str| r.get(k).ok_or(format!("event {i} missing {k:?}"));
        let num = |k: &str| {
            field(k)?
                .as_f64()
                .ok_or(format!("event {i}: {k:?} not a number"))
        };
        let text = |k: &str| {
            field(k)?
                .as_str()
                .ok_or(format!("event {i}: {k:?} not a string"))
        };
        let ph = text("ph")?;
        let name = text("name")?;
        num("pid")?;
        let tid = num("tid")?;
        if tid.fract() != 0.0 || !(0.0..=f64::from(u32::MAX)).contains(&tid) {
            return Err(format!(
                "event {i}: tid {tid} is not an integer in 0..={}",
                u32::MAX
            ));
        }
        let track = tid as u32;
        if ph == "M" {
            continue; // metadata records carry no timestamp
        }
        let time = |k: &str| {
            let t = num(k)?;
            if t.is_finite() && t >= 0.0 {
                Ok(t)
            } else {
                Err(format!("event {i} ({name}) has bad {k} {t}"))
            }
        };
        let ts = time("ts")?;
        if let Some(&prev) = last_ts.get(&track) {
            if ts < prev {
                return Err(format!(
                    "event {i} ({name}) breaks ts monotonicity on tid {track}: {ts} < {prev}"
                ));
            }
        }
        last_ts.insert(track, ts);
        let kind = match ph {
            "X" => {
                time("dur")?;
                EventKind::Span {
                    start: VTime::from_secs(time("start_s")?),
                    dur: VDuration::from_secs(time("dur_s")?),
                }
            }
            "i" => EventKind::Instant {
                at: VTime::from_secs(time("at_s")?),
            },
            "C" => EventKind::Counter {
                at: VTime::from_secs(time("at_s")?),
                value: field("args")?
                    .get("value")
                    .and_then(Value::as_f64)
                    .ok_or(format!("counter {i} ({name}) has no numeric args.value"))?,
            },
            "s" | "f" => {
                let id = num("id")? as u64;
                let slot = flows.entry(id).or_insert((None, None));
                let side = if ph == "s" { &mut slot.0 } else { &mut slot.1 };
                if side.replace(ts).is_some() {
                    return Err(format!(
                        "flow id {id} has a duplicate \"{ph}\" at event {i}"
                    ));
                }
                continue;
            }
            other => return Err(format!("event {i} ({name}) has unknown ph {other:?}")),
        };
        events.push(Event {
            name: intern(name),
            cat: intern(text("cat")?),
            track,
            kind,
            attrs: replay_attrs(r.get("attrs"), i)?,
            seq: events.len() as u64,
        });
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
    Ok(events)
}

/// Parses an event record's typed `attrs` list back into attribute
/// pairs, each of its written kind. A record without one has none.
fn replay_attrs(v: Option<&Value>, i: usize) -> Result<Vec<(&'static str, AttrValue)>, String> {
    let Some(v) = v else {
        return Ok(Vec::new());
    };
    let list = v
        .as_arr()
        .ok_or(format!("event {i}: \"attrs\" not an array"))?;
    list.iter()
        .map(|entry| {
            let Some([Value::Str(key), Value::Str(kind), value]) = entry.as_arr() else {
                return Err(format!(
                    "event {i}: attribute {entry:?} is not a [key, kind, value] triple"
                ));
            };
            let int = match value {
                Value::Num(n) if n.fract() == 0.0 && (0.0..=u64::MAX as f64).contains(n) => {
                    Some(*n as u64)
                }
                _ => None,
            };
            let parsed = match (kind.as_str(), value) {
                ("u64", _) => int.map(AttrValue::U64),
                ("id", _) => int.map(AttrValue::Id),
                ("f64", Value::Num(n)) => Some(AttrValue::F64(*n)),
                ("f64", Value::Str(s)) => s
                    .parse::<f64>()
                    .ok()
                    .filter(|x| !x.is_finite())
                    .map(AttrValue::F64),
                ("str", Value::Str(s)) => Some(AttrValue::Str(intern(s))),
                _ => None,
            };
            let val = parsed.ok_or(format!(
                "event {i}: attribute {key:?} is not a number or string of kind {kind:?}"
            ))?;
            Ok((intern(key), val))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::tests::{at, ev, span};

    fn sample_events() -> Vec<Event> {
        let peak = EventKind::Counter {
            at: VTime::from_secs(0.3),
            value: 1024.0,
        };
        vec![
            // 0.1 + 0.2 is not representable exactly.
            ev(
                "op",
                ENGINE_TRACK,
                span(0.0, 0.1 + 0.2),
                vec![("dir", AttrValue::Str("write"))],
                0,
            ),
            ev(
                "round",
                ENGINE_TRACK,
                span(0.1, 0.2),
                vec![
                    ("flows", AttrValue::U64(12)),
                    ("r", AttrValue::F64(0.5)),
                    ("limit", AttrValue::F64(f64::INFINITY)),
                    ("storage_rank", AttrValue::Id(3)),
                ],
                1,
            ),
            ev(
                "mem.reserve",
                3,
                at(1.0 / 3.0),
                vec![("node", AttrValue::Id(1)), ("bytes", AttrValue::U64(42))],
                2,
            ),
            ev(
                "mem.peak_reserved",
                ENGINE_TRACK,
                peak,
                vec![("node", AttrValue::Id(1))],
                3,
            ),
        ]
    }

    fn edges() -> Vec<CausalEdge> {
        vec![
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
        ]
    }

    #[test]
    fn replay_returns_the_exported_events_exactly() {
        let mut live = sample_events();
        live.reverse();
        let doc = chrome_trace_flows(&live, &[]);
        let live = export_order(&live);
        assert_eq!(replay(&doc).unwrap(), live);
        // The counter's id attribute names its series; its args hold
        // the sample alone.
        assert!(
            doc.contains("\"id\": \"node 1\", \"args\": {\"value\": 1024}"),
            "{doc}"
        );
        // Flow records are checked and skipped.
        let flows = chrome_trace_flows(&live, &edges());
        assert_eq!(replay(&flows).unwrap(), live);
    }

    #[test]
    fn an_integral_f64_replays_as_an_f64() {
        let attrs = vec![("round_secs", AttrValue::F64(2.0))];
        let live = vec![ev("settle", ENGINE_TRACK, at(0.5), attrs, 0)];
        assert_eq!(replay(&chrome_trace_flows(&live, &[])).unwrap(), live);
    }

    #[test]
    fn export_is_deterministic_regardless_of_input_order() {
        let evs = sample_events();
        let mut reversed = evs.clone();
        reversed.reverse();
        let mut reversed_edges = edges();
        reversed_edges.reverse();
        assert_eq!(
            chrome_trace_flows(&evs, &edges()),
            chrome_trace_flows(&reversed, &reversed_edges)
        );
    }

    #[test]
    fn repeated_replays_intern_nothing_new() {
        let doc = chrome_trace_flows(&sample_events(), &[]);
        let (first, second) = (replay(&doc).unwrap(), replay(&doc).unwrap());
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

    /// One instant record on `tid` at `ts`, with one attribute triple.
    fn instant(tid: &str, ts: &str, attr: &str) -> String {
        format!(
            "{{\"name\": \"x\", \"cat\": \"t\", \"ph\": \"i\", \"pid\": 0, \"tid\": {tid}, \
             \"ts\": {ts}, \"at_s\": 0, \"attrs\": [{attr}]}}"
        )
    }

    fn err(doc: &str) -> String {
        replay(doc).expect_err(doc)
    }

    #[test]
    fn monotonicity_violations_are_caught() {
        let one = |tid: &str, ts: &str| instant(tid, ts, "");
        let backwards = format!("[{}, {}]", one("1", "5.0"), one("1", "2.0"));
        assert!(err(&backwards).contains("monotonicity"));
        // Different tracks may interleave freely.
        let ok = format!("[{}, {}]", one("1", "5.0"), one("2", "2.0"));
        assert_eq!(replay(&ok).unwrap().len(), 2);
        for ts in ["-1", "1e999"] {
            assert!(err(&format!("[{}]", one("1", ts))).contains("bad ts"));
        }
    }

    #[test]
    fn missing_fields_are_caught() {
        assert!(err(r#"{"not": "array"}"#).contains("array"));
        assert!(err("[1]").contains("not an object"));
        let span = r#"{"name": "x", "cat": "t", "ph": "X", "pid": 0, "tid": 0, "ts": 0,
                       "dur": 0, "start_s": 0, "dur_s": 0}"#;
        assert_eq!(replay(&format!("[{span}]")).unwrap().len(), 1);
        for field in [
            "ph", "name", "pid", "tid", "ts", "cat", "dur", "start_s", "dur_s",
        ] {
            let doc = format!(
                "[{}]",
                span.replacen(&format!("\"{field}\""), "\"other\"", 1)
            );
            assert!(
                err(&doc).contains(&format!("missing \"{field}\"")),
                "{field}"
            );
        }
        let unknown = span.replacen("\"X\"", "\"B\"", 1);
        assert!(err(&format!("[{unknown}]")).contains("unknown ph"));
    }

    #[test]
    fn bad_tracks_and_attributes_are_caught() {
        assert_eq!(
            replay(&format!("[{}]", instant("7", "0", ""))).unwrap()[0].track,
            7
        );
        for tid in ["-1", "2.5", "5e9"] {
            let doc = format!("[{}, {}]", instant("0", "0", ""), instant(tid, "0", ""));
            let e = err(&doc);
            assert!(e.starts_with("event 1:") && e.contains("tid"), "{e}");
        }
        for attr in [
            r#"["k", "u64", true]"#,
            r#"["k", "u64", null]"#,
            r#"["k", "u64", [1]]"#,
            r#"["k", "u64", {"a": 1}]"#,
            r#"["k", "u64", 2.5]"#,
            r#"["k", "id", -1]"#,
            r#"["k", "str", 1]"#,
            r#"["k", "f64", "1.5"]"#,
            r#"["k", "bool", 1]"#,
        ] {
            let e = err(&format!("[{}]", instant("0", "0", attr)));
            assert!(e.starts_with("event 0:") && e.contains("\"k\""), "{e}");
        }
        let e = err(&format!("[{}]", instant("0", "0", r#"["k", 1]"#)));
        assert!(e.contains("triple"), "{e}");
    }

    #[test]
    fn broken_flow_pairing_is_caught() {
        let flow = |ph: &str, id: &str, ts: &str, tid: u32| {
            format!(
                "{{\"name\": \"msg\", \"ph\": \"{ph}\", {id} \"ts\": {ts}, \"pid\": 0, \"tid\": {tid}}}"
            )
        };
        let cases = [
            (vec![flow("s", "\"id\": 7,", "1.0", 0)], "never finishes"),
            (vec![flow("f", "\"id\": 7,", "1.0", 0)], "without a start"),
            (
                vec![
                    flow("s", "\"id\": 7,", "2.0", 0),
                    flow("f", "\"id\": 7,", "1.0", 1),
                ],
                "before its start",
            ),
            (vec![flow("s", "", "1.0", 0)], "missing \"id\""),
            (
                vec![
                    flow("s", "\"id\": 7,", "1.0", 0),
                    flow("s", "\"id\": 7,", "1.5", 0),
                ],
                "duplicate",
            ),
        ];
        for (records, want) in cases {
            let e = err(&format!("[{}]", records.join(", ")));
            assert!(e.contains(want), "{want}: {e}");
        }
    }
}
