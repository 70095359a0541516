//! Edge cases of the phase profiler: empty traces, instant-only traces,
//! and span trees whose root never ends (a run cut short by a forced
//! engine shutdown leaves its roots open — the profiler must degrade to
//! empty breakdowns rather than invent time).

use rp_sim::profile::{aggregate_roots, mean_breakdown, pilot_utilization, profile_roots};
use rp_sim::{
    critical_path_run, profile_span, Engine, Phase, PhaseBreakdown, SimDuration, SimTime, SpanId,
    Trace,
};

fn secs(s: u64) -> SimTime {
    SimTime(s * 1_000_000)
}

#[test]
fn empty_trace_profiles_to_nothing() {
    let tr = Trace::enabled();
    assert!(profile_roots(&tr, "pilot.run").is_empty());
    assert_eq!(aggregate_roots(&tr, "pilot.run").total_secs(), 0.0);
    assert_eq!(profile_span(&tr, SpanId(1)).total_secs(), 0.0);
    assert_eq!(profile_span(&tr, SpanId::NONE).total_secs(), 0.0);
    assert_eq!(pilot_utilization(&tr, SpanId(1), 16), 0.0);
    assert!(critical_path_run(&tr).is_none());
    // A disabled trace behaves the same way.
    let off = Trace::disabled();
    assert!(profile_roots(&off, "pilot.run").is_empty());
    assert_eq!(mean_breakdown(&[]).total_secs(), 0.0);
}

#[test]
fn instant_only_trace_profiles_to_nothing() {
    // A trace holding only instant events (and zero-length spans) carries
    // no duration for the profiler to attribute.
    let mut tr = Trace::enabled();
    tr.record(secs(1), "agent", "heartbeat");
    tr.record(secs(2), "agent", "heartbeat");
    let z = tr.span_begin(secs(3), "unit", "unit.run", SpanId::NONE);
    tr.span_end(secs(3), z);
    assert_eq!(tr.events().len(), 2);
    let profiles = profile_roots(&tr, "unit.run");
    assert_eq!(profiles.len(), 1);
    assert_eq!(profiles[0].1.total_secs(), 0.0);
    assert_eq!(aggregate_roots(&tr, "unit.run").total_secs(), 0.0);
    // The zero-length root also yields a zero-makespan critical path.
    let cp = critical_path_run(&tr).unwrap();
    assert_eq!(cp.makespan_secs(), 0.0);
    assert!(cp.segments.is_empty());
}

#[test]
fn open_root_is_excluded_completed_sibling_still_profiles() {
    let mut tr = Trace::enabled();
    // This root never ends; its completed child must not leak time.
    let open_root = tr.span_begin(secs(0), "pilot", "pilot.run", SpanId::NONE);
    let q = tr.span_begin(secs(0), "pilot", "pilot.queue_wait", open_root.id());
    tr.span_end(secs(4), q);
    // A sibling root that did complete.
    let done = tr.span_begin(secs(0), "pilot", "pilot.run", SpanId::NONE);
    let done_id = done.id();
    let b = tr.span_begin(secs(0), "pilot", "pilot.bootstrap", done_id);
    tr.span_end(secs(3), b);
    tr.span_end(secs(5), done);

    assert_eq!(profile_span(&tr, open_root.id()).total_secs(), 0.0);
    // roots_named only yields completed roots, so the open one is skipped.
    let profiles = profile_roots(&tr, "pilot.run");
    assert_eq!(profiles.len(), 1);
    assert_eq!(profiles[0].0, done_id);
    assert_eq!(profiles[0].1.secs(Phase::PilotBootstrap), 3.0);
    assert_eq!(profiles[0].1.secs(Phase::Overhead), 2.0);
    let agg = aggregate_roots(&tr, "pilot.run");
    assert_eq!(agg.total_secs(), 5.0);
}

#[test]
fn forced_shutdown_leaves_roots_open_and_unprofiled() {
    // Drive a real engine: a span opens at t=0 and would close at t=60,
    // but the run is cut off at t=10 — the close event never fires, which
    // is exactly what a forced shutdown (or a crash-abandoned unit) leaves
    // behind in the trace.
    let mut eng = Engine::with_trace(7);
    let root = eng
        .trace
        .span_begin(SimTime(0), "pilot", "pilot.run", SpanId::NONE);
    let root_id = root.id();
    let q = eng
        .trace
        .span_begin(SimTime(0), "pilot", "pilot.queue_wait", root_id);
    eng.schedule_at(secs(2), move |e| {
        e.trace.span_end(e.now(), q);
    });
    eng.schedule_at(secs(60), move |e| {
        e.trace.span_end(e.now(), root);
    });
    eng.run_until(secs(10));
    assert_eq!(eng.now(), secs(10));

    let root_span = eng.trace.span(root_id).unwrap();
    assert!(root_span.end.is_none(), "root must still be open");
    assert_eq!(profile_span(&eng.trace, root_id).total_secs(), 0.0);
    assert!(profile_roots(&eng.trace, "pilot.run").is_empty());
    assert_eq!(aggregate_roots(&eng.trace, "pilot.run").total_secs(), 0.0);
    assert_eq!(pilot_utilization(&eng.trace, root_id, 16), 0.0);
    assert!(critical_path_run(&eng.trace).is_none());
}

#[test]
fn mean_breakdown_truncates_submicrosecond_remainders() {
    // A 3 µs compute span averaged over two runs (the second empty)
    // truncates to 1 µs — integer virtual time never rounds up.
    let mut tr = Trace::enabled();
    let r = tr.span_begin(SimTime(0), "unit", "unit.run", SpanId::NONE);
    let r_id = r.id();
    let c = tr.span_begin(SimTime(0), "unit", "unit.compute", r_id);
    tr.span_end(SimTime(3), c);
    tr.span_end(SimTime(3), r);
    let a = profile_span(&tr, r_id);
    let b = PhaseBreakdown::default();
    let m = mean_breakdown(&[a, b]);
    assert_eq!(m.get(Phase::Compute), SimDuration(1));
    assert_eq!(m.get(Phase::Overhead), SimDuration(0));
}
