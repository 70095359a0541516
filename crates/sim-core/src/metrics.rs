//! Run-wide metrics registry: named counters, gauges and time-stamped
//! series with label support.
//!
//! The registry lives on the [`crate::Engine`] next to the trace and is
//! enabled together with it; when disabled every write is a no-op so an
//! unobserved run stays bit-identical. Keys are plain strings formatted
//! `name{label=value,...}` and stored in `BTreeMap`s, so a
//! [`MetricsSnapshot`] is deterministic and directly comparable across
//! runs (the determinism suite does exactly that).

use std::collections::BTreeMap;

use crate::stats::Summary;
use crate::time::SimTime;
use crate::trace::escape_json;

/// Format a metric key with labels: `name{a=1,b=2}` (no braces without
/// labels). Label order is preserved as given — call sites use a fixed
/// order so keys stay stable.
pub fn metric_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::from(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push('=');
        out.push_str(v);
    }
    out.push('}');
    out
}

/// Registry of named counters, gauges and series.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    enabled: bool,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    series: BTreeMap<String, Vec<(SimTime, f64)>>,
}

impl MetricsRegistry {
    pub fn disabled() -> Self {
        MetricsRegistry::default()
    }

    pub fn enabled() -> Self {
        MetricsRegistry {
            enabled: true,
            ..MetricsRegistry::default()
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Add to a counter (no-op when disabled). Existing keys take a
    /// borrowed-lookup fast path — no per-call `String` allocation on the
    /// hot counters an at-scale run bumps millions of times.
    pub fn add(&mut self, name: &str, n: u64) {
        if self.enabled {
            if let Some(v) = self.counters.get_mut(name) {
                *v += n;
            } else {
                self.counters.insert(name.to_string(), n);
            }
        }
    }

    /// Increment a counter by one.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Increment a labelled counter, e.g. `incr_labeled("yarn.containers",
    /// &[("kind", "am")])`.
    pub fn incr_labeled(&mut self, name: &str, labels: &[(&str, &str)]) {
        if self.enabled {
            let key = metric_key(name, labels);
            *self.counters.entry(key).or_insert(0) += 1;
        }
    }

    /// Current counter value (0 if never written or disabled).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set a gauge to the latest value (no-op when disabled).
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        if self.enabled {
            if let Some(v) = self.gauges.get_mut(name) {
                *v = value;
            } else {
                self.gauges.insert(name.to_string(), value);
            }
        }
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Append a time-stamped observation to a series (no-op when disabled).
    pub fn observe(&mut self, name: &str, time: SimTime, value: f64) {
        if self.enabled {
            if let Some(points) = self.series.get_mut(name) {
                points.push((time, value));
            } else {
                self.series.insert(name.to_string(), vec![(time, value)]);
            }
        }
    }

    pub fn series(&self, name: &str) -> Vec<(SimTime, f64)> {
        self.series.get(name).cloned().unwrap_or_default()
    }

    /// Summary statistics over a series' values.
    pub fn series_summary(&self, name: &str) -> Summary {
        let values: Vec<f64> = self
            .series
            .get(name)
            .map(|s| s.iter().map(|&(_, v)| v).collect())
            .unwrap_or_default();
        Summary::of(&values)
    }

    /// Deterministic point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            gauges: self.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            series: self
                .series
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }
}

/// Sorted, comparable export of a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub series: Vec<(String, Vec<(SimTime, f64)>)>,
}

impl MetricsSnapshot {
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.series.is_empty()
    }

    /// Aligned text table of counters and gauges (series shown as count +
    /// last value).
    pub fn render_table(&self) -> String {
        let mut rows: Vec<(String, String)> = Vec::new();
        for (k, v) in &self.counters {
            rows.push((k.clone(), v.to_string()));
        }
        for (k, v) in &self.gauges {
            rows.push((k.clone(), format!("{v:.3}")));
        }
        for (k, v) in &self.series {
            let last = v
                .last()
                .map(|&(_, x)| format!("{x:.3}"))
                .unwrap_or_default();
            rows.push((k.clone(), format!("n={} last={last}", v.len())));
        }
        let width = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (k, v) in rows {
            out.push_str(&format!("{k:<width$}  {v}\n"));
        }
        out
    }

    /// CSV export: `kind,name,value` (series flattened to one row per point
    /// with the timestamp in microseconds appended).
    pub fn to_csv(&self) -> String {
        let quote = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::from("kind,name,time_us,value\n");
        for (k, v) in &self.counters {
            out.push_str(&format!("counter,{},,{v}\n", quote(k)));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("gauge,{},,{v}\n", quote(k)));
        }
        for (k, points) in &self.series {
            for (t, v) in points {
                out.push_str(&format!("series,{},{},{v}\n", quote(k), t.0));
            }
        }
        out
    }

    /// JSON export.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", escape_json(k)));
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", escape_json(k)));
        }
        out.push_str("},\"series\":{");
        for (i, (k, points)) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":[", escape_json(k)));
            for (j, (t, v)) in points.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{},{v}]", t.0));
            }
            out.push(']');
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let mut m = MetricsRegistry::disabled();
        m.incr("a");
        m.gauge_set("g", 1.0);
        m.observe("s", SimTime(1), 2.0);
        assert_eq!(m.counter("a"), 0);
        assert_eq!(m.gauge("g"), None);
        assert!(m.snapshot().is_empty());
    }

    #[test]
    fn counters_and_labels_accumulate() {
        let mut m = MetricsRegistry::enabled();
        m.incr("jobs");
        m.add("jobs", 4);
        m.incr_labeled("containers", &[("kind", "am")]);
        m.incr_labeled("containers", &[("kind", "task")]);
        m.incr_labeled("containers", &[("kind", "task")]);
        assert_eq!(m.counter("jobs"), 5);
        assert_eq!(m.counter("containers{kind=am}"), 1);
        assert_eq!(m.counter("containers{kind=task}"), 2);
        assert_eq!(metric_key("x", &[("a", "1"), ("b", "2")]), "x{a=1,b=2}");
    }

    #[test]
    fn snapshot_is_deterministic_and_comparable() {
        let build = || {
            let mut m = MetricsRegistry::enabled();
            m.incr("z.last");
            m.incr("a.first");
            m.gauge_set("util", 0.5);
            m.observe("queue", SimTime(1), 3.0);
            m.observe("queue", SimTime(2), 4.0);
            m.snapshot()
        };
        let s1 = build();
        let s2 = build();
        assert_eq!(s1, s2);
        // BTreeMap ordering: sorted by key.
        assert_eq!(s1.counters[0].0, "a.first");
        assert_eq!(s1.counters[1].0, "z.last");
        assert_eq!(s1.series[0].1.len(), 2);
    }

    #[test]
    fn series_summary_matches_values() {
        let mut m = MetricsRegistry::enabled();
        m.observe("s", SimTime(1), 10.0);
        m.observe("s", SimTime(2), 20.0);
        assert_eq!(m.series_summary("s").mean, 15.0);
        assert_eq!(m.series("s").len(), 2);
    }

    #[test]
    fn exports_are_parseable_and_complete() {
        let mut m = MetricsRegistry::enabled();
        m.incr_labeled("c", &[("k", "v")]);
        m.gauge_set("g", 2.5);
        m.observe("s", SimTime(7), 1.0);
        let snap = m.snapshot();
        let table = snap.render_table();
        assert!(table.contains("c{k=v}") && table.contains("2.500"));
        let csv = snap.to_csv();
        assert!(csv.lines().count() == 4); // header + counter + gauge + 1 point
        assert!(csv.contains("series,s,7,1"));
        let json = snap.to_json();
        assert!(json.contains("\"c{k=v}\":1"));
        assert!(json.contains("\"s\":[[7,1]]"));
    }
}
