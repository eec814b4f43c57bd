//! The re-record rule for the deterministic regression record: a change
//! that deletes a recorded mechanism may write a new record without the
//! fields that measured it, but every field both records hold must be
//! bit-identical.
//!
//! `BENCH_PR21.json` (record version 2) replaced `BENCH_PR18.json`
//! (version 1) when the shuffle became one-sided. It drops exactly the
//! fields in [`DROPPED`]; everything else — virtual times, the round,
//! shuffle, storage and memory counters, traffic, stream counters, the
//! other host-phase call counts and blame-chain hashes — must carry
//! over to the bit.

use std::collections::{BTreeMap, BTreeSet};

use mccio_suite::obs::json::{self, Value};

const OLD: &str = include_str!("../BENCH_PR18.json");
const NEW: &str = include_str!("../BENCH_PR21.json");

/// Fields version 2 no longer records. They measured the buffer pool
/// the round engine drew its shuffle payloads from — its hits, misses,
/// recycler takes and returns, the peak bytes it held out, and the
/// recycler's host-phase calls — and the one-sided shuffle
/// materialises no payload: what the pool serves now is header messages
/// and assembly buffers. (The 1,008- and 10,080-rank rows have no
/// causal pass, so they drop the `obs.` names only.)
const DROPPED: [&str; 9] = [
    "causal.calls.recycle.return",
    "causal.calls.recycle.take",
    "metrics.payload_peak_bytes",
    "metrics.pool_hits",
    "metrics.pool_misses",
    "metrics.recycle_returns",
    "metrics.recycle_takes",
    "obs.calls.recycle.return",
    "obs.calls.recycle.take",
];

/// Each row's fields, keyed by `(ranks, strategy)`.
fn rows(text: &str) -> BTreeMap<(u64, String), BTreeMap<String, Value>> {
    let doc = json::parse(text).expect("a record parses as JSON");
    let top = doc.as_obj().expect("a record is an object");
    top["rows"]
        .as_arr()
        .expect("rows")
        .iter()
        .map(|row| {
            let row = row.as_obj().expect("a row is an object");
            let ranks = row["ranks"].as_f64().expect("ranks") as u64;
            let strategy = row["strategy"].as_str().expect("strategy").to_string();
            let fields = row["fields"].as_obj().expect("fields").clone();
            ((ranks, strategy), fields)
        })
        .collect()
}

/// A field's exact identity: a number's bits, or a hash string.
fn bits(v: &Value) -> Result<u64, String> {
    match v {
        Value::Num(x) => Ok(x.to_bits()),
        Value::Str(s) => Err(s.clone()),
        other => panic!("unexpected record value {other:?}"),
    }
}

#[test]
fn a_new_record_keeps_every_surviving_field_to_the_bit() {
    let (old, new) = (rows(OLD), rows(NEW));
    assert_eq!(
        old.keys().collect::<Vec<_>>(),
        new.keys().collect::<Vec<_>>(),
        "the records measure different points"
    );
    let mut dropped = BTreeSet::new();
    for (key, was) in &old {
        let now = &new[key];
        dropped.extend(was.keys().filter(|f| !now.contains_key(*f)));
        for (field, value) in now {
            let old_value = was
                .get(field)
                .unwrap_or_else(|| panic!("{key:?} / {field}: not in the old record"));
            assert_eq!(
                bits(value),
                bits(old_value),
                "{key:?} / {field}: {value:?} differs from the old record's {old_value:?}"
            );
        }
    }
    assert_eq!(
        dropped.into_iter().map(String::as_str).collect::<Vec<_>>(),
        DROPPED,
        "the fields the new record drops"
    );
}
