//! Telemetry differential tier: the engine flight recorder observes, it
//! never steers.
//!
//! The recorder (`rp_sim::telemetry`) reads the host clock — the one
//! thing deterministic simulation code must never depend on. This tier is
//! the proof that it doesn't: the same seeded scenario runs with the
//! recorder on and off, and every virtual observable — unit states, trace
//! events, spans, metrics, the coordination store's applied-effect log —
//! must be bit-identical.
//!
//! The tier also pins the snapshot's JSON shape (schema v2): the bench
//! artifacts embed it under `host.telemetry`, and `trace_diff` consumers
//! parse it, so the key set is a contract.

use hadoop_hpc::pilot::*;
use hadoop_hpc::sim::json::{self, Value};
use hadoop_hpc::sim::{
    Engine, MetricsSnapshot, SimDuration, SimTime, Span, TelemetrySnapshot, TraceEvent,
    TELEMETRY_SCHEMA_VERSION,
};

/// Run `f` with the given thread-default telemetry setting, restoring the
/// environment-derived default afterwards.
fn with_telemetry<T>(telemetry: bool, f: impl FnOnce() -> T) -> T {
    Engine::set_default_telemetry(Some(telemetry));
    let out = f();
    Engine::set_default_telemetry(None);
    out
}

struct Outcome {
    states: Vec<UnitState>,
    events: Vec<TraceEvent>,
    spans: Vec<Span>,
    metrics: MetricsSnapshot,
    /// Applied coordination effects `(time, seq, label)`.
    effects: Vec<(SimTime, u64, &'static str)>,
    snapshot: TelemetrySnapshot,
    /// `Engine::events_executed()` at the end of the run.
    events_executed: u64,
}

/// Two three-node pilots, RoundRobin UM with leases (60 s, 30 s grace),
/// 12 sleep units, driven to completion by `Engine::run`.
fn capture_run(seed: u64) -> Outcome {
    let mut e = Engine::with_trace(seed);
    let session = Session::new(SessionConfig::test_profile());
    session.store().enable_effect_log();
    let pm = PilotManager::new(&session);
    let pilots: Vec<PilotHandle> = (0..2)
        .map(|_| {
            pm.submit(
                &mut e,
                PilotDescription::new("xsede.stampede", 3, SimDuration::from_secs(14_400)),
            )
            .unwrap()
        })
        .collect();
    let mut um = UnitManager::new(&session, UmScheduler::RoundRobin);
    for p in &pilots {
        um.add_pilot(p);
    }
    um.enable_leases(
        &mut e,
        SimDuration::from_secs(60),
        SimDuration::from_secs(30),
    );
    let units = um.submit_units(
        &mut e,
        (0..12)
            .map(|i| {
                ComputeUnitDescription::new(
                    format!("c{i}"),
                    1,
                    WorkSpec::Sleep(SimDuration::from_secs(150 + (i as u64 % 5) * 30)),
                )
            })
            .collect(),
    );
    e.run();
    assert!(
        units.iter().all(|u| u.state().is_final()),
        "seed {seed}: run drained with non-terminal units"
    );
    let store = session.store();
    Outcome {
        states: units.iter().map(|u| u.state()).collect(),
        events: e.trace.events().to_vec(),
        spans: e.trace.iter_spans().cloned().collect(),
        metrics: e.metrics.snapshot(),
        effects: store.effect_log(),
        snapshot: e.telemetry_snapshot(),
        events_executed: e.events_executed(),
    }
}

fn assert_virtual_identical(label: &str, off: &Outcome, on: &Outcome) {
    assert_eq!(off.states, on.states, "{label}: states diverge");
    assert_eq!(off.events, on.events, "{label}: trace events diverge");
    assert_eq!(off.spans, on.spans, "{label}: spans diverge");
    assert_eq!(off.metrics, on.metrics, "{label}: metrics diverge");
    assert_eq!(
        off.effects, on.effects,
        "{label}: coordination effect logs diverge"
    );
}

#[test]
fn recorder_is_result_inert_in_serial_mode() {
    for seed in [1u64, 23] {
        let off = with_telemetry(false, || capture_run(seed));
        let on = with_telemetry(true, || capture_run(seed));
        assert_virtual_identical(&format!("serial seed {seed}"), &off, &on);
        assert!(!off.snapshot.enabled, "off-run recorder was enabled");
        assert!(on.snapshot.enabled, "on-run recorder was disabled");
        // The recorder actually saw the run: it counted every applied
        // event, and the off-run recorded nothing at all.
        assert_eq!(
            on.snapshot.events, on.events_executed,
            "seed {seed}: recorder event count != Engine::events_executed()"
        );
        assert!(on.snapshot.events > 0, "seed {seed}: no events counted");
        assert_eq!(off.snapshot.events, 0, "seed {seed}: off-run counted");
        assert!(!off.effects.is_empty(), "seed {seed}: empty effect log");
    }
}

// ---------------------------------------------------------------------
// Golden schema: the JSON document's key set is a contract (schema v2).
// ---------------------------------------------------------------------

fn assert_keys(v: &Value, path: &str, keys: &[&str]) {
    for k in keys {
        assert!(v.get(k).is_some(), "{path}.{k} missing from telemetry JSON");
    }
}

#[test]
fn snapshot_json_matches_golden_schema() {
    let on = with_telemetry(true, || capture_run(23));
    let doc = json::parse(&on.snapshot.to_json()).expect("snapshot JSON parses");
    assert_eq!(
        doc.get("schema").and_then(Value::as_f64),
        Some(TELEMETRY_SCHEMA_VERSION as f64),
        "schema version"
    );
    assert_eq!(TELEMETRY_SCHEMA_VERSION, 2);
    assert_keys(
        &doc,
        "",
        &[
            "schema",
            "enabled",
            "events",
            "apply_window_us",
            "highwater",
            "ownership",
        ],
    );
    for gone in ["par", "stalls", "lookahead", "events_per_domain"] {
        assert!(
            doc.get(gone).is_none(),
            "schema-v2 telemetry still carries `{gone}`"
        );
    }
    let get = |k: &str| doc.get(k).expect("checked above");
    assert_eq!(
        get("events").as_f64(),
        Some(on.events_executed as f64),
        "events"
    );
    assert_keys(
        get("apply_window_us"),
        "apply_window_us",
        &["count", "sum", "min", "max", "p50", "p95", "p99", "buckets"],
    );
    assert_keys(
        get("highwater"),
        "highwater",
        &[
            "samples",
            "slab_len",
            "live_spans",
            "coord_backlog",
            "coord_samples",
        ],
    );
    assert_keys(
        get("ownership"),
        "ownership",
        &["lease_renewals", "fence_rejections", "partition_windows"],
    );
    // The one-line human summary carries the applied-event count.
    let line = on.snapshot.summary_line();
    assert!(
        line.contains(&format!("{} events", on.events_executed)),
        "summary line {line:?} does not name the event count"
    );
}
