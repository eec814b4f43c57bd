//! The metrics registry: named counters and log₂-bucketed
//! histograms.
//!
//! Names are static strings from the instrumentation sites (the event
//! taxonomy in DESIGN.md §10), stored in `BTreeMap`s so every snapshot
//! and summary table comes out in deterministic order. Histograms keep
//! enough moments (count, sum, sum of squares, min, max) to report the
//! mean and coefficient of variation directly — the paper's
//! memory-variance statistic — on top of the per-power-of-two bucket
//! counts.

use std::collections::BTreeMap;

/// Number of log₂ buckets: bucket `i` counts values in
/// `[2^(i-1), 2^i)`, with bucket 0 holding only zero.
const BUCKETS: usize = 65;

/// A log₂-bucketed histogram with running moments.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let idx = (64 - value.leading_zeros()) as usize; // 0 for 0, 1 for 1, …
        self.buckets[idx.min(BUCKETS - 1)] += 1;
        let v = value as f64;
        self.count += 1;
        self.sum += v;
        self.sum_sq += v * v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observation (0.0 when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0.0 when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Mean of the observations (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Population standard deviation (0.0 when empty).
    #[must_use]
    pub fn stddev(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let n = self.count as f64;
        let mean = self.sum / n;
        (self.sum_sq / n - mean * mean).max(0.0).sqrt()
    }

    /// Coefficient of variation, `stddev / mean` — the paper's
    /// cross-node memory-variance statistic (0.0 when the mean is 0).
    #[must_use]
    pub fn cov(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.stddev() / m
        }
    }

    /// Non-empty buckets as `(upper_bound_exclusive, count)` pairs;
    /// bucket `[2^(i-1), 2^i)` reports `2^i` (bucket 0, holding only
    /// zero, reports 1; the top bucket saturates at `u64::MAX`).
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let bound = match i {
                    0 => 1u64,
                    64 => u64::MAX,
                    _ => 1u64 << i,
                };
                (bound, c)
            })
            .collect()
    }
}

/// Named counters and histograms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `delta` to the named counter (created at zero).
    pub fn counter_add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Records one observation into the named histogram.
    pub fn observe(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().observe(value);
    }

    /// The named counter's value (0 when never touched).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if anything was observed into it.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// The counters as an owned name → value map (the analyzer's
    /// run-comparison currency).
    #[must_use]
    pub fn counter_map(&self) -> std::collections::BTreeMap<String, u64> {
        self.counters
            .iter()
            .map(|(&k, &v)| (k.to_string(), v))
            .collect()
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(&k, v)| (k, v))
    }

    /// The histograms as an owned name → histogram map, mirroring
    /// [`MetricsRegistry::counter_map`].
    #[must_use]
    pub fn histogram_map(&self) -> std::collections::BTreeMap<String, Histogram> {
        self.histograms
            .iter()
            .map(|(&k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    /// Folds another registry into this one: counters add, histograms
    /// merge bucket-wise.
    pub fn absorb(&mut self, other: &MetricsRegistry) {
        for (name, v) in &other.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (name, h) in &other.histograms {
            let mine = self.histograms.entry(name).or_default();
            for (b, c) in mine.buckets.iter_mut().zip(&h.buckets) {
                *b += c;
            }
            mine.count += h.count;
            mine.sum += h.sum;
            mine.sum_sq += h.sum_sq;
            mine.min = mine.min.min(h.min);
            mine.max = mine.max.max(h.max);
        }
    }

    /// A fixed-width text table of everything recorded, in name order —
    /// the `trace` binary's metrics summary.
    #[must_use]
    pub fn summary_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:<36} {v:>16}");
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(out, "histograms:");
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {name:<36} n={} mean={:.1} cov={:.3} min={:.0} max={:.0}",
                    h.count(),
                    h.mean(),
                    h.cov(),
                    h.min(),
                    h.max()
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::new();
        m.counter_add("a", 3);
        m.counter_add("a", 4);
        assert_eq!(m.counter("a"), 7);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 3, 4, 1024] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        let buckets = h.nonzero_buckets();
        // 0 → bound 1; 1 → bound 2; 2 and 3 → bound 4; 4 → 8; 1024 → 2048.
        assert_eq!(buckets, vec![(1, 1), (2, 1), (4, 2), (8, 1), (2048, 1)]);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 1024.0);
    }

    #[test]
    fn histogram_moments_give_mean_and_cov() {
        let mut h = Histogram::default();
        for v in [10u64, 10, 10, 10] {
            h.observe(v);
        }
        assert_eq!(h.mean(), 10.0);
        assert_eq!(h.cov(), 0.0);
        h.observe(50);
        assert!(h.cov() > 0.0);
        assert_eq!(Histogram::default().mean(), 0.0);
        assert_eq!(Histogram::default().cov(), 0.0);
    }

    #[test]
    fn absorb_merges_everything() {
        let mut a = MetricsRegistry::new();
        a.counter_add("c", 1);
        a.observe("h", 8);
        let mut b = MetricsRegistry::new();
        b.counter_add("c", 2);
        b.observe("h", 16);
        a.absorb(&b);
        assert_eq!(a.counter("c"), 3);
        let h = a.histogram("h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 24.0);
    }

    #[test]
    fn map_accessors_mirror_each_other() {
        let mut m = MetricsRegistry::new();
        m.counter_add("c", 1);
        m.observe("h", 8);
        assert_eq!(m.counter_map().get("c"), Some(&1));
        let hm = m.histogram_map();
        assert_eq!(hm.len(), 1);
        assert_eq!(hm["h"].count(), 1);
        assert_eq!(hm["h"], *m.histogram("h").unwrap());
    }

    #[test]
    fn summary_table_lists_names() {
        let mut m = MetricsRegistry::new();
        m.counter_add("shuffle.bytes", 4096);
        m.observe("mem.node_peak", 1 << 20);
        let t = m.summary_table();
        assert!(t.contains("shuffle.bytes"));
        assert!(t.contains("mem.node_peak"));
    }
}
