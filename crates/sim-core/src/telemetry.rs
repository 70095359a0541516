//! Engine flight recorder: host-side-only telemetry.
//!
//! The simulator's observability layer (spans, metrics, profiler) watches
//! the *simulated workload*; this module watches the *engine itself* —
//! how many events it applies and where host time goes (apply windows),
//! plus periodic high-water samples of the slab, the live span set and
//! the coordination backlog, and the ownership counters of the lease
//! layer.
//!
//! **Contract: telemetry never feeds back into the simulation.** It reads
//! wall-clock time (this is the only sim-core module allowed to — the
//! `wallclock` lint enforces it) and it is only ever *written*; no engine
//! or model decision consults it. `tests/telemetry.rs` holds runs
//! bit-identical with the recorder on vs off.
//!
//! Everything aggregates into mergeable [`Histogram`]s and counters, so
//! snapshots from many bench repetitions combine exactly.
//! [`TelemetrySnapshot::to_json`] renders the schema-v2 document embedded
//! in `BENCH_*.json` under `host.telemetry` and diffed by `trace_diff`.

use std::time::Instant;

use crate::stats::Histogram;

/// Version stamp of [`TelemetrySnapshot::to_json`]'s document shape.
pub const TELEMETRY_SCHEMA_VERSION: u32 = 2;

/// Applied events per high-water/apply-window sample. Sampling (rather
/// than per-event clock reads) bounds recorder overhead to well under a
/// microsecond per event even with telemetry on.
pub const SAMPLE_EVERY: u64 = 1024;

/// The flight recorder an [`crate::engine::Engine`] carries. Disabled by
/// default; every hook is a cheap early-return when off.
#[derive(Debug, Default, Clone)]
pub struct EngineTelemetry {
    enabled: bool,
    /// Events applied while the recorder was on.
    events: u64,
    /// Host µs per window of [`SAMPLE_EVERY`] applied events.
    apply_window_us: Histogram,
    window_start: Option<Instant>,
    window_events: u64,
    samples: u64,
    slab_len_hw: u64,
    live_spans_hw: u64,
    coord_backlog_hw: u64,
    coord_backlog_samples: u64,
    lease_renewals: u64,
    fence_rejections: u64,
    partition_windows: u64,
}

impl EngineTelemetry {
    pub fn new() -> EngineTelemetry {
        EngineTelemetry::default()
    }

    /// Turn the recorder on (idempotent). There is deliberately no `off`
    /// switch mid-run: a snapshot must describe one contiguous recording.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Hook: one event applied. Counts it and, every [`SAMPLE_EVERY`]
    /// applies, closes an apply window (recording its host µs) and samples
    /// high-water marks.
    pub fn on_apply(&mut self, slab_len: usize, live_spans: usize) {
        if !self.enabled {
            return;
        }
        self.events += 1;
        self.window_events += 1;
        if self.window_events >= SAMPLE_EVERY {
            let now = Instant::now();
            if let Some(t0) = self.window_start {
                self.apply_window_us
                    .record(saturating_micros(now.duration_since(t0)));
            }
            self.window_start = Some(now);
            self.window_events = 0;
            self.samples += 1;
            self.slab_len_hw = self.slab_len_hw.max(slab_len as u64);
            self.live_spans_hw = self.live_spans_hw.max(live_spans as u64);
        }
    }

    /// Hook: observed coordination-store backlog depth (sampled by the
    /// store's apply path, not per message).
    pub fn sample_coord_backlog(&mut self, depth: usize) {
        if !self.enabled {
            return;
        }
        self.coord_backlog_samples += 1;
        self.coord_backlog_hw = self.coord_backlog_hw.max(depth as u64);
    }

    /// Hook: an agent's pilot lease was renewed through the store.
    pub fn note_lease_renewal(&mut self) {
        if self.enabled {
            self.lease_renewals += 1;
        }
    }

    /// Hook: the store rejected a stale-fencing-epoch effect (a healed
    /// zombie's write arrived after ownership moved on).
    pub fn note_fence_rejection(&mut self) {
        if self.enabled {
            self.fence_rejections += 1;
        }
    }

    /// Hook: a partition reachability window opened against a pilot.
    pub fn note_partition_window(&mut self) {
        if self.enabled {
            self.partition_windows += 1;
        }
    }

    /// Freeze the recorder into a mergeable snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            enabled: self.enabled,
            events: self.events,
            apply_window_us: self.apply_window_us.clone(),
            highwater_samples: self.samples,
            slab_len_hw: self.slab_len_hw,
            live_spans_hw: self.live_spans_hw,
            coord_backlog_hw: self.coord_backlog_hw,
            coord_backlog_samples: self.coord_backlog_samples,
            lease_renewals: self.lease_renewals,
            fence_rejections: self.fence_rejections,
            partition_windows: self.partition_windows,
        }
    }
}

fn saturating_micros(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Frozen, mergeable view of an [`EngineTelemetry`] recorder. Snapshots
/// from independent runs (bench repetitions) merge exactly: histograms
/// add bucket-wise, counters add, high-water marks take the max.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TelemetrySnapshot {
    pub enabled: bool,
    pub events: u64,
    pub apply_window_us: Histogram,
    pub highwater_samples: u64,
    pub slab_len_hw: u64,
    pub live_spans_hw: u64,
    pub coord_backlog_hw: u64,
    pub coord_backlog_samples: u64,
    pub lease_renewals: u64,
    pub fence_rejections: u64,
    pub partition_windows: u64,
}

impl TelemetrySnapshot {
    /// Merge another snapshot into this one (exact; see type docs).
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        self.enabled |= other.enabled;
        self.events += other.events;
        self.apply_window_us.merge(&other.apply_window_us);
        self.highwater_samples += other.highwater_samples;
        self.slab_len_hw = self.slab_len_hw.max(other.slab_len_hw);
        self.live_spans_hw = self.live_spans_hw.max(other.live_spans_hw);
        self.coord_backlog_hw = self.coord_backlog_hw.max(other.coord_backlog_hw);
        self.coord_backlog_samples += other.coord_backlog_samples;
        self.lease_renewals += other.lease_renewals;
        self.fence_rejections += other.fence_rejections;
        self.partition_windows += other.partition_windows;
    }

    /// Render the schema-v2 JSON document (stable key order).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"schema\":{schema},\"enabled\":{enabled},\"events\":{events},",
                "\"apply_window_us\":{apply},",
                "\"highwater\":{{\"samples\":{hs},\"slab_len\":{slab},",
                "\"live_spans\":{live},\"coord_backlog\":{cb},\"coord_samples\":{cs}}},",
                "\"ownership\":{{\"lease_renewals\":{lr},\"fence_rejections\":{fr},",
                "\"partition_windows\":{pw}}}}}"
            ),
            schema = TELEMETRY_SCHEMA_VERSION,
            enabled = self.enabled,
            events = self.events,
            apply = self.apply_window_us.to_json(),
            hs = self.highwater_samples,
            slab = self.slab_len_hw,
            live = self.live_spans_hw,
            cb = self.coord_backlog_hw,
            cs = self.coord_backlog_samples,
            lr = self.lease_renewals,
            fr = self.fence_rejections,
            pw = self.partition_windows,
        )
    }

    /// One-line human summary for report footers.
    pub fn summary_line(&self) -> String {
        format!(
            "engine telemetry: {} events; apply/{}ev {}; \
             high-water slab={} live_spans={} coord_backlog={}",
            self.events,
            SAMPLE_EVERY,
            self.apply_window_us.render_line(),
            self.slab_len_hw,
            self.live_spans_hw,
            self.coord_backlog_hw,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot(seed: u64) -> TelemetrySnapshot {
        let mut t = EngineTelemetry::new();
        t.enable();
        for _ in 0..(SAMPLE_EVERY * 2 + 7 + seed) {
            t.on_apply(10, 2);
        }
        t.sample_coord_backlog(4 + seed as usize);
        t.note_lease_renewal();
        t.note_fence_rejection();
        t.note_partition_window();
        t.snapshot()
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let mut t = EngineTelemetry::new();
        assert!(!t.is_enabled());
        t.on_apply(100, 5);
        t.sample_coord_backlog(9);
        t.note_lease_renewal();
        t.note_fence_rejection();
        t.note_partition_window();
        let snap = t.snapshot();
        assert_eq!(snap.events, 0);
        assert_eq!(snap.highwater_samples, 0);
        assert!(snap.apply_window_us.is_empty());
        assert_eq!(snap.coord_backlog_samples, 0);
        assert_eq!(snap.lease_renewals, 0);
        assert_eq!(snap.fence_rejections, 0);
        assert_eq!(snap.partition_windows, 0);
    }

    #[test]
    fn merge_adds_counters_and_maxes_highwater() {
        let a = sample_snapshot(1);
        let b = sample_snapshot(2);
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.events, a.events + b.events);
        assert_eq!(
            m.highwater_samples,
            a.highwater_samples + b.highwater_samples
        );
        assert_eq!(
            m.coord_backlog_hw,
            a.coord_backlog_hw.max(b.coord_backlog_hw)
        );
        assert_eq!(
            m.apply_window_us.count(),
            a.apply_window_us.count() + b.apply_window_us.count()
        );
        // Merge is commutative.
        let mut m2 = b.clone();
        m2.merge(&a);
        assert_eq!(m, m2);
    }

    #[test]
    fn json_document_schema() {
        let snap = sample_snapshot(1);
        let j = snap.to_json();
        let doc = crate::json::parse(&j).expect("telemetry JSON parses");
        assert_eq!(doc.get("schema").and_then(|v| v.as_f64()), Some(2.0));
        for key in [
            "enabled",
            "events",
            "apply_window_us",
            "highwater",
            "ownership",
        ] {
            assert!(doc.get(key).is_some(), "missing {key} in {j}");
        }
        let own = doc.get("ownership").expect("ownership");
        for key in ["lease_renewals", "fence_rejections", "partition_windows"] {
            assert_eq!(
                own.get(key).and_then(|v| v.as_f64()),
                Some(1.0),
                "ownership.{key}"
            );
        }
        assert_eq!(
            doc.get("events").and_then(|v| v.as_f64()),
            Some((SAMPLE_EVERY * 2 + 8) as f64)
        );
    }

    #[test]
    fn summary_line_counts_events() {
        let snap = sample_snapshot(1);
        let line = snap.summary_line();
        assert!(line.contains("engine telemetry"), "{line}");
        assert!(line.contains(&format!("{} events", snap.events)), "{line}");
    }
}
