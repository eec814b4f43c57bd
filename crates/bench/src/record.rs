//! The regression record: one versioned JSON document of *deterministic*
//! quantities only — virtual-time bits, engine counters, traffic,
//! stream counters, host-profile call counts and blame-chain hashes.
//! `scale record` writes one and `scale regress` measures again and
//! compares every field exactly; nothing in it comes from the wall
//! clock.
//!
//! The JSON reader stores every number as `f64`, so the encoding is
//! chosen to survive that exactly:
//!
//! * reals are written with Rust's shortest round-trip `Display` and
//!   compared by `to_bits` after parsing;
//! * counters are written as integers, and [`Record::render`] refuses
//!   any counter at or above 2^53 instead of rounding it;
//! * hashes are written as `"0x…"` strings.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use mccio_obs::{json, BlameChain};
use mccio_sim::hash::Fnv1a;

/// The schema tag written as `"bench"`.
pub const BENCH: &str = "mccio-record";

/// The schema version. Bump it whenever a row's fields change meaning.
/// Version 2 dropped the buffer-pool fields (`metrics.pool_*`,
/// `metrics.recycle_*`, `metrics.payload_peak_bytes` and the
/// `recycle.*` host-phase call counts): they measured the pooled
/// shuffle payloads, which the one-sided shuffle deleted.
pub const VERSION: u64 = 2;

/// Smallest integer JSON's `f64` numbers cannot hold exactly next to
/// its neighbours.
const EXACT_LIMIT: u64 = 1 << 53;

/// One recorded quantity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A real (virtual seconds, memory statistics), compared by bits.
    Real(f64),
    /// A counter.
    Count(u64),
    /// A hash, written as a hex string.
    Hash(u64),
}

impl Value {
    /// The exact identity two values are compared by: a counter and a
    /// real are the same quantity when the counter's `f64` has the
    /// real's bits (a parsed counter comes back as a real).
    fn key(self) -> (bool, u64) {
        match self {
            Value::Real(v) => (false, v.to_bits()),
            Value::Count(c) => (false, (c as f64).to_bits()),
            Value::Hash(h) => (true, h),
        }
    }

    /// Whether the JSON encoding holds this value exactly.
    fn is_exact(self) -> bool {
        match self {
            Value::Real(v) => v.is_finite(),
            Value::Count(c) => c < EXACT_LIMIT,
            Value::Hash(_) => true,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Real(v) => write!(f, "{v}"),
            Value::Count(c) => write!(f, "{c}"),
            Value::Hash(h) => write!(f, "\"0x{h:016x}\""),
        }
    }
}

/// The fields measured for one strategy at one point.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The point's rank count.
    pub ranks: u64,
    /// The strategy's name.
    pub strategy: String,
    /// `(name, value)` in measurement order; names are unique.
    pub fields: Vec<(String, Value)>,
}

impl Row {
    /// An empty row for `strategy` at `ranks`.
    #[must_use]
    pub fn new(ranks: u64, strategy: &str) -> Self {
        Row {
            ranks,
            strategy: strategy.to_string(),
            fields: Vec::new(),
        }
    }

    /// Appends a field.
    pub fn push(&mut self, name: impl Into<String>, value: Value) {
        self.fields.push((name.into(), value));
    }

    /// The value of `name`, if recorded.
    fn get(&self, name: &str) -> Option<Value> {
        self.fields.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    fn label(&self) -> String {
        format!("{} ranks / {}", self.ranks, self.strategy)
    }
}

/// A whole record: one row per `(point, strategy)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Record {
    /// The rows, in measurement order.
    pub rows: Vec<Row>,
}

impl Record {
    /// Renders the record as JSON, one field per line.
    ///
    /// # Errors
    /// Names the first field the encoding cannot hold exactly: a counter
    /// at or above 2^53, or a real that is not finite.
    pub fn render(&self) -> Result<String, String> {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"bench\": \"{BENCH}\",");
        let _ = writeln!(out, "  \"version\": {VERSION},");
        let _ = writeln!(out, "  \"rows\": [");
        for (i, row) in self.rows.iter().enumerate() {
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"ranks\": {},", row.ranks);
            let _ = writeln!(
                out,
                "      \"strategy\": \"{}\",",
                json::escape(&row.strategy)
            );
            let _ = writeln!(out, "      \"fields\": {{");
            for (j, (name, value)) in row.fields.iter().enumerate() {
                if !value.is_exact() {
                    return Err(format!(
                        "{} / {name}: {value:?} has no exact JSON encoding",
                        row.label()
                    ));
                }
                let comma = if j + 1 < row.fields.len() { "," } else { "" };
                let _ = writeln!(out, "        \"{}\": {value}{comma}", json::escape(name));
            }
            let _ = writeln!(out, "      }}");
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            let _ = writeln!(out, "    }}{comma}");
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        Ok(out)
    }

    /// Parses a rendered record.
    ///
    /// # Errors
    /// Describes malformed JSON, a different `"bench"` or version, an
    /// unknown key, or a field that is neither a number nor a `"0x…"`
    /// hash.
    pub fn parse(text: &str) -> Result<Record, String> {
        let doc = json::parse(text)?;
        let top = object(&doc, "record", &["bench", "version", "rows"])?;
        let bench = top["bench"].as_str();
        if bench != Some(BENCH) {
            return Err(format!("not a {BENCH} document (bench {bench:?})"));
        }
        let version = top["version"].as_f64();
        if version != Some(VERSION as f64) {
            return Err(format!(
                "record version {version:?}, this build reads {VERSION}"
            ));
        }
        let rows = top["rows"].as_arr().ok_or("\"rows\" is not an array")?;
        let rows = rows
            .iter()
            .map(|row| {
                let obj = object(row, "row", &["ranks", "strategy", "fields"])?;
                let ranks = obj["ranks"]
                    .as_f64()
                    .filter(|r| r.fract() == 0.0 && *r >= 0.0)
                    .ok_or("row \"ranks\" is not a count")? as u64;
                let strategy = obj["strategy"]
                    .as_str()
                    .ok_or("row \"strategy\" is not a string")?;
                let mut out = Row::new(ranks, strategy);
                let fields = obj["fields"]
                    .as_obj()
                    .ok_or_else(|| format!("{}: \"fields\" is not an object", out.label()))?;
                for (name, value) in fields {
                    let value = parse_value(value)
                        .ok_or_else(|| format!("{} / {name}: unreadable value", out.label()))?;
                    out.push(name.clone(), value);
                }
                Ok(out)
            })
            .collect::<Result<_, String>>()?;
        Ok(Record { rows })
    }
}

/// `value` as an object with exactly the keys `keys`.
fn object<'a>(
    value: &'a json::Value,
    what: &str,
    keys: &[&str],
) -> Result<&'a BTreeMap<String, json::Value>, String> {
    let obj = value
        .as_obj()
        .ok_or_else(|| format!("{what} is not an object"))?;
    if obj.len() != keys.len() || keys.iter().any(|k| !obj.contains_key(*k)) {
        let found: Vec<&String> = obj.keys().collect();
        return Err(format!("{what} has keys {found:?}, expected {keys:?}"));
    }
    Ok(obj)
}

fn parse_value(value: &json::Value) -> Option<Value> {
    match value {
        json::Value::Num(v) => Some(Value::Real(*v)),
        json::Value::Str(s) => {
            let hex = s.strip_prefix("0x")?;
            (hex.len() == 16)
                .then(|| u64::from_str_radix(hex, 16).ok())
                .flatten()
                .map(Value::Hash)
        }
        _ => None,
    }
}

/// Compares a measured record against a recorded one, field by field
/// and bit for bit. Returns one message per difference — each naming
/// the point, the strategy and the field — or nothing when they agree.
#[must_use]
pub fn compare(recorded: &Record, measured: &Record) -> Vec<String> {
    let key = |r: &Row| (r.ranks, r.strategy.clone());
    let mut out = Vec::new();
    for m in &measured.rows {
        if !recorded.rows.iter().any(|r| key(r) == key(m)) {
            out.push(format!("{}: measured but not in the record", m.label()));
        }
    }
    for r in &recorded.rows {
        let Some(m) = measured.rows.iter().find(|m| key(m) == key(r)) else {
            out.push(format!("{}: recorded but not measured", r.label()));
            continue;
        };
        for (name, want) in &r.fields {
            match m.get(name) {
                None => out.push(format!("{} / {name}: recorded but not measured", r.label())),
                Some(got) if !got.is_exact() => out.push(format!(
                    "{} / {name}: measured {got:?} has no exact encoding",
                    r.label()
                )),
                Some(got) if got.key() != want.key() => out.push(format!(
                    "{} / {name}: recorded {want}, measured {got}",
                    r.label()
                )),
                Some(_) => {}
            }
        }
        for (name, _) in &m.fields {
            if r.get(name).is_none() {
                out.push(format!(
                    "{} / {name}: measured but not in the record",
                    r.label()
                ));
            }
        }
    }
    out
}

/// FNV-1a over every chain's direction, span and segments (rank, class
/// and both endpoints' bits): equal hashes mean bit-identical chains.
#[must_use]
pub fn chain_hash(chains: &[BlameChain]) -> u64 {
    let mut h = Fnv1a::new();
    for chain in chains {
        h.write(chain.dir.as_bytes());
        h.write(&chain.start.as_secs().to_bits().to_le_bytes());
        h.write(&chain.end.as_secs().to_bits().to_le_bytes());
        for s in &chain.segments {
            h.write(&s.rank.to_le_bytes());
            h.write(s.class.name().as_bytes());
            h.write(&s.from.as_secs().to_bits().to_le_bytes());
            h.write(&s.to.as_secs().to_bits().to_le_bytes());
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Record {
        let mut a = Row::new(24, "two-phase");
        a.push("write_secs", Value::Real(0.1 + 0.2));
        a.push("read_secs", Value::Real(0.048_549_87));
        a.push("metrics.rounds", Value::Count(288));
        a.push("metrics.mem_peak_max", Value::Real(4_194_304.0));
        let mut b = Row::new(1008, "memory-conscious");
        b.push("write_secs", Value::Real(0.059_699_87));
        b.push("causal.chain_hash", Value::Hash((1 << 60) + 12_345));
        b.push("traffic.ctl_msgs", Value::Count(EXACT_LIMIT - 1));
        Record { rows: vec![a, b] }
    }

    fn roundtrip(r: &Record) -> Record {
        Record::parse(&r.render().expect("renders")).expect("parses")
    }

    #[test]
    fn render_parse_compare_is_equal() {
        let r = sample();
        let back = roundtrip(&r);
        assert!(compare(&back, &r).is_empty(), "{:?}", compare(&back, &r));
        assert_eq!(
            back.rows[0].get("write_secs").map(Value::key),
            Some(Value::Real(0.1 + 0.2).key())
        );
        assert_eq!(
            back.rows[1].get("causal.chain_hash"),
            Some(Value::Hash((1 << 60) + 12_345))
        );
    }

    #[test]
    fn one_ulp_one_count_or_one_hash_digit_fails_by_name() {
        let recorded = roundtrip(&sample());

        let mut ulp = sample();
        let bits = (0.1f64 + 0.2).to_bits() + 1;
        ulp.rows[0].fields[0].1 = Value::Real(f64::from_bits(bits));
        let msgs = compare(&recorded, &ulp);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(
            msgs[0].starts_with("24 ranks / two-phase / write_secs:"),
            "{msgs:?}"
        );

        let mut count = sample();
        count.rows[0].fields[2].1 = Value::Count(289);
        let msgs = compare(&recorded, &count);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(
            msgs[0].starts_with("24 ranks / two-phase / metrics.rounds:"),
            "{msgs:?}"
        );

        let text = sample().render().unwrap();
        let edited = text.replace("0x1000000000003039", "0x1000000000003038");
        assert_ne!(text, edited);
        let msgs = compare(&Record::parse(&edited).unwrap(), &sample());
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(
            msgs[0].starts_with("1008 ranks / memory-conscious / causal.chain_hash:"),
            "{msgs:?}"
        );
    }

    #[test]
    fn missing_or_extra_fields_and_rows_fail() {
        let recorded = roundtrip(&sample());
        let mut missing = sample();
        missing.rows[1].fields.pop();
        let msgs = compare(&recorded, &missing);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("/ traffic.ctl_msgs: recorded but not measured"));

        let mut extra = sample();
        extra.rows[0].push("metrics.extra", Value::Count(1));
        let msgs = compare(&recorded, &extra);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("/ metrics.extra: measured but not in the record"));

        let mut row = sample();
        row.rows.pop();
        assert_eq!(compare(&recorded, &row).len(), 1);
    }

    #[test]
    fn a_different_bench_or_version_or_shape_is_refused() {
        let text = sample().render().unwrap();
        for (from, to) in [
            ("\"mccio-record\"", "\"scale-obs\""),
            (&*format!("\"version\": {VERSION},"), "\"version\": 1,"),
            ("\"ranks\": 24,", "\"ranks\": 24, \"mode\": \"ci\","),
            ("\"0x1000000000003039\"", "\"1000000000003039\""),
        ] {
            let edited = text.replacen(from, to, 1);
            assert_ne!(edited, text);
            assert!(Record::parse(&edited).is_err(), "accepted {to}");
        }
    }

    #[test]
    fn render_refuses_a_counter_at_2_pow_53() {
        let mut r = sample();
        r.rows[1].fields[2].1 = Value::Count(EXACT_LIMIT);
        let err = r.render().expect_err("2^53 has no exact neighbour");
        assert!(
            err.starts_with("1008 ranks / memory-conscious / traffic.ctl_msgs"),
            "{err}"
        );
        r.rows[1].fields[2].1 = Value::Real(f64::NAN);
        assert!(r.render().is_err());
    }
}
