//! Run-wide metrics registry: named counters with label support.
//!
//! The registry lives on the [`crate::Engine`] next to the trace and is
//! enabled together with it; when disabled every write is a no-op so an
//! unobserved run stays bit-identical. Keys are plain strings formatted
//! `name{label=value,...}` and stored in a `BTreeMap`, so a
//! [`MetricsSnapshot`] is deterministic and directly comparable across
//! runs (the determinism suite does exactly that). Distributions are not
//! kept here: they belong in a mergeable [`crate::stats::Histogram`].

use std::collections::BTreeMap;

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

/// Registry of named counters.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    enabled: bool,
    counters: BTreeMap<String, u64>,
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

    /// Deterministic point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.iter().map(|(k, &v)| (k.clone(), v)).collect(),
        }
    }
}

/// Sorted, comparable export of a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
}

impl MetricsSnapshot {
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let mut m = MetricsRegistry::disabled();
        m.incr("a");
        assert_eq!(m.counter("a"), 0);
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
            m.snapshot()
        };
        let s1 = build();
        let s2 = build();
        assert_eq!(s1, s2);
        // BTreeMap ordering: sorted by key.
        assert_eq!(s1.counters[0].0, "a.first");
        assert_eq!(s1.counters[1].0, "z.last");
    }
}
