//! Bit-reproducibility of full-stack runs: the headline guarantee of the
//! deterministic simulation core.

use hadoop_hpc::analytics::{
    fig6_session_config, run_rp_kmeans, run_rp_yarn_kmeans, KMeansCalibration, SCENARIOS,
};
use hadoop_hpc::pilot::*;
use hadoop_hpc::sim::{Engine, SimTime};
use rp_bench::scenario::run;

// `pub`: this test takes only `mixed`, and the rest of the module is
// not dead code.
pub mod common;

/// A full mixed workload; returns every unit's (startup, done) pair.
fn mixed_run(seed: u64) -> Vec<(SimTime, SimTime)> {
    mixed_run_with(Engine::new(seed)).1
}

/// Same workload on a given engine, handed back — so the observability
/// guarantees (bit-identical spans/metrics per seed, zero behavioural
/// cost when disabled) can be checked against the exact runs the
/// timeline tests use.
fn mixed_run_with(engine: Engine) -> (Engine, Vec<(SimTime, SimTime)>) {
    let scenario = common::mixed("xsede.stampede", AccessMode::YarnModeI { with_hdfs: true });
    let run = run(&scenario, engine).expect("the mixed workload completes");
    let timeline = run
        .units
        .iter()
        .map(|u| {
            let t = u.times();
            (t.exec_start.unwrap(), t.done.unwrap())
        })
        .collect();
    (run.engine, timeline)
}

#[test]
fn same_seed_same_timeline() {
    assert_eq!(mixed_run(42), mixed_run(42));
}

#[test]
fn different_seeds_different_timelines() {
    assert_ne!(mixed_run(42), mixed_run(43));
}

/// Observability is part of the deterministic state: two traced runs with
/// the same seed must produce bit-identical span streams and metrics
/// snapshots, not just identical unit timelines.
#[test]
fn same_seed_same_spans_and_metrics() {
    let (e1, t1) = mixed_run_with(Engine::with_trace(42));
    let (e2, t2) = mixed_run_with(Engine::with_trace(42));
    assert_eq!(t1, t2);
    assert!(e1.trace.iter_spans().eq(e2.trace.iter_spans()));
    assert_eq!(e1.trace.render_spans(), e2.trace.render_spans());
    assert_eq!(e1.metrics.snapshot(), e2.metrics.snapshot());
    // ... and the run actually fed both subsystems.
    assert!(e1.trace.span_count() > 0);
    let counters = e1.metrics.snapshot().counters;
    assert!(
        counters.iter().any(|(k, _)| k == "agent.units_completed"),
        "metrics registry must be populated: {counters:?}"
    );
}

/// Tracing is pure recording: enabling it draws no RNG samples and
/// schedules no events, so a traced run's outcome is bit-identical to the
/// untraced run — observability costs nothing when disabled *and* changes
/// nothing when enabled.
#[test]
fn tracing_does_not_perturb_the_timeline() {
    let (off_engine, off) = mixed_run_with(Engine::new(42));
    let (on_engine, on) = mixed_run_with(Engine::with_trace(42));
    assert_eq!(off, on, "enabling tracing must not move a single event");
    // The disabled engine recorded nothing; the traced one recorded spans.
    assert_eq!(off_engine.trace.span_count(), 0);
    assert!(off_engine.metrics.snapshot().counters.is_empty());
    assert!(on_engine.trace.span_count() > 0);
}

#[test]
fn fig6_runners_are_deterministic() {
    let cal = KMeansCalibration {
        core_s_per_pair: 2.4e-6, // shrunk for test speed
        ..KMeansCalibration::default()
    };
    let rp = |seed: u64| {
        let mut e = Engine::new(seed);
        let session = Session::new(fig6_session_config());
        run_rp_kmeans(&mut e, &session, "xsede.stampede", 16, SCENARIOS[1], &cal).time_to_completion
    };
    assert_eq!(rp(7).to_bits(), rp(7).to_bits());
    let yarn = |seed: u64| {
        let mut e = Engine::new(seed);
        let session = Session::new(fig6_session_config());
        run_rp_yarn_kmeans(&mut e, &session, "xsede.wrangler", 16, SCENARIOS[1], &cal)
            .time_to_completion
    };
    assert_eq!(yarn(9).to_bits(), yarn(9).to_bits());
}

#[test]
fn native_analytics_are_seed_deterministic() {
    use hadoop_hpc::analytics::{gaussian_blobs, lloyd};
    let a = lloyd(&gaussian_blobs(10_000, 6, 2.0, 5), 6, 4);
    let b = lloyd(&gaussian_blobs(10_000, 6, 2.0, 5), 6, 4);
    // Thread scheduling must not change the result (order-independent
    // merge of partial sums).
    assert_eq!(a.cost.to_bits(), b.cost.to_bits());
    assert_eq!(a.centroids, b.centroids);
}
