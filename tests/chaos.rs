//! Chaos soak: the whole failure surface at once.
//!
//! Each seeded scenario runs a two-pilot session with lease-based
//! cross-pilot failover, a lossy coordination store (drops, duplicates,
//! delivery jitter) and a mixed fault plan that can crash nodes, slow
//! them down, kill containers, fail staging and kill entire pilots.
//! Every scenario must uphold the failure-model contract:
//!
//! (a) every Compute-Unit reaches a terminal state — the sim never
//!     wedges;
//! (b) no duplicate side effects — each Done unit completed exactly
//!     once, and every duplicated store message had its second apply
//!     suppressed by the sequence-number dedup;
//! (c) no open spans at shutdown except deliberately-abandoned attempt
//!     spans (a killed attempt's `unit.compute` span is left open on
//!     purpose: the work never finished);
//! (d) re-running the same seed is bit-identical (events, spans,
//!     metrics);
//! (e) the zero-fault configuration — injector installed with an empty
//!     plan, loss probabilities at zero — is bit-identical to a run
//!     without the chaos machinery at all.
//!
//! `CHAOS_SEEDS` overrides the number of scenarios (default 32).

use hadoop_hpc::pilot::*;
use hadoop_hpc::sim::{
    Engine, FaultEvent, FaultKind, FaultPlan, MetricsSnapshot, SimDuration, SimTime, Span,
    TraceEvent,
};
use rp_bench::scenario::{run, sleep_units, Run, Scenario};

const UNITS: usize = 12;
const SLEEP_S: u64 = 150;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Failover on, lossless store, no injector: the reference run.
    Baseline,
    /// Failover on, injector installed with an empty plan: must match
    /// `Baseline` bit for bit.
    ZeroFault,
    /// Failover on, lossy store, mixed fault plan.
    Chaos,
}

struct Outcome {
    states: Vec<UnitState>,
    events: Vec<TraceEvent>,
    spans: Vec<Span>,
    /// (category, resolved name) of every span left open at shutdown —
    /// resolved before the trace (and its intern table) is dropped.
    open_spans: Vec<(&'static str, String)>,
    metrics: MetricsSnapshot,
    rebinds: u64,
    done: usize,
    units_completed: u64,
    msgs_dropped: u64,
    msgs_duplicated: u64,
    dup_applies_ignored: u64,
    faults_injected: usize,
    partition_windows: u64,
    fence_rejections: u64,
}

/// 2 three-node pilots, RoundRobin Unit-Manager with lease-based
/// failover (60 s leases, 30 s grace), `faults` installed before
/// `units` are submitted. Lease renewals bypass the lossy transport, so
/// dropped heartbeats never make a live pilot look dead.
fn lease_scenario(
    config: SessionConfig,
    faults: Option<FaultPlan>,
    units: Vec<ComputeUnitDescription>,
) -> Scenario {
    Scenario {
        config,
        pilots: vec![PilotDescription::new("xsede.stampede", 3, SimDuration::from_secs(14_400)); 2],
        scheduler: UmScheduler::RoundRobin,
        leases: Some((SimDuration::from_secs(60), SimDuration::from_secs(30))),
        faults,
        units,
    }
}

/// Run `scenario` traced. Invariant (a): terminate without wedging.
/// Walltime expiry is the backstop, so the run is bounded in virtual
/// time. The pilots still live are then canceled and the engine drained
/// past every heal: held zombie messages are delivered (and fenced), not
/// left pending in the queue.
fn drive(seed: u64, scenario: &Scenario) -> Run {
    run(scenario, Engine::with_trace(seed)).unwrap_or_else(|err| panic!("seed {seed}: {err}"))
}

fn outcome(run: &Run) -> Outcome {
    let (e, units, store) = (&run.engine, &run.units, run.session.store());
    Outcome {
        states: units.iter().map(|u| u.state()).collect(),
        done: units
            .iter()
            .filter(|u| u.state() == UnitState::Done)
            .count(),
        units_completed: e.metrics.counter("agent.units_completed"),
        events: e.trace.events().to_vec(),
        spans: e.trace.iter_spans().cloned().collect(),
        open_spans: e
            .trace
            .iter_spans()
            .filter(|s| s.end.is_none())
            .map(|s| (s.category, e.trace.span_name(s).to_string()))
            .collect(),
        metrics: e.metrics.snapshot(),
        rebinds: run.um.rebinds(),
        msgs_dropped: store.msgs_dropped(),
        msgs_duplicated: store.msgs_duplicated(),
        dup_applies_ignored: store.dup_applies_ignored(),
        faults_injected: run.injector.as_ref().map_or(0, |i| i.injected()),
        partition_windows: store.partition_windows(),
        fence_rejections: store.fence_rejections(),
    }
}

/// One soak scenario: the lease set-up running `UNITS` sleep units.
fn chaos_run(seed: u64, mode: Mode) -> Outcome {
    let mut cfg = SessionConfig::test_profile();
    if mode == Mode::Chaos {
        // Seed-derived loss: every scenario shakes the transport
        // differently, but deterministically.
        cfg.coordination.loss = LossProfile {
            drop_p: 0.15,
            dup_p: 0.10,
            delay_jitter_ms: 25.0,
            seed,
        };
    }
    let faults = match mode {
        Mode::Baseline => None,
        Mode::ZeroFault => Some(FaultPlan::none()),
        Mode::Chaos => Some(FaultPlan::generate_mixed(
            seed,
            SimDuration::from_secs(1_800),
            3,
            2,
            8,
        )),
    };
    let units = sleep_units(UNITS, "c", |_| SLEEP_S);
    outcome(&drive(seed, &lease_scenario(cfg, faults, units)))
}

fn seed_count() -> u64 {
    std::env::var("CHAOS_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

fn check_invariants(seed: u64, out: &Outcome) {
    // (a) every unit terminal (the run loop already proved no wedge).
    for (i, s) in out.states.iter().enumerate() {
        assert!(s.is_final(), "seed {seed}: c{i} not terminal: {s:?}");
    }
    // (b) exactly-once side effects: the agent completion counter equals
    // the number of Done units — no unit was completed twice, so no stale
    // or duplicated completion got through — and every duplicated store
    // delivery had its second apply suppressed. Per-message exactly-once
    // apply is checked against a model in
    // `crates/core/tests/store_model.rs`.
    assert_eq!(
        out.units_completed, out.done as u64,
        "seed {seed}: completion side effects diverge from Done count"
    );
    assert_eq!(
        out.dup_applies_ignored, out.msgs_duplicated,
        "seed {seed}: every duplicated message must be applied exactly once"
    );
    // (c) open spans at shutdown are only abandoned attempt spans.
    for (category, name) in &out.open_spans {
        assert_eq!(
            name, "unit.compute",
            "seed {seed}: unexpected open span {category:?}/{name} at shutdown"
        );
    }
}

#[test]
fn chaos_soak() {
    let seeds = seed_count();
    assert!(seeds >= 1);
    let mut total_rebinds = 0u64;
    let mut total_dropped = 0u64;
    let mut total_duplicated = 0u64;
    let mut any_failed = 0usize;
    for seed in 1..=seeds {
        let out = chaos_run(seed, Mode::Chaos);
        assert!(
            out.faults_injected > 0,
            "seed {seed}: plan injected nothing"
        );
        check_invariants(seed, &out);
        total_rebinds += out.rebinds;
        total_dropped += out.msgs_dropped;
        total_duplicated += out.msgs_duplicated;
        any_failed += out.states.len() - out.done;
    }
    // The soak must actually exercise the machinery under test: across
    // the seed grid, some pilots died and re-bound units, and the lossy
    // transport dropped and duplicated messages.
    assert!(
        total_rebinds > 0,
        "no scenario exercised cross-pilot failover"
    );
    assert!(total_dropped > 0, "no scenario dropped a message");
    assert!(total_duplicated > 0, "no scenario duplicated a message");
    // Failed units are allowed (both pilots can die), but the recovery
    // paths must save the large majority of the workload.
    let total_units = seeds as usize * UNITS;
    assert!(
        any_failed * 4 < total_units,
        "{any_failed}/{total_units} units failed — recovery is not pulling its weight"
    );
}

#[test]
fn chaos_reruns_are_bit_identical() {
    // Invariant (d) on a spread of seeds: injected chaos is part of the
    // simulation, so a re-run reproduces events, spans and metrics
    // exactly.
    let seeds = seed_count().min(8);
    for seed in 1..=seeds {
        let a = chaos_run(seed, Mode::Chaos);
        let b = chaos_run(seed, Mode::Chaos);
        assert_eq!(a.states, b.states, "seed {seed}: states diverge");
        assert_eq!(a.events, b.events, "seed {seed}: trace events diverge");
        assert_eq!(a.spans, b.spans, "seed {seed}: spans diverge");
        assert_eq!(a.metrics, b.metrics, "seed {seed}: metrics diverge");
        assert_eq!(a.rebinds, b.rebinds, "seed {seed}: rebinds diverge");
    }
}

// ---- split-brain tier: partition × heal × lossy grid ----

/// One split-brain scenario: the lease set-up under a partition-bearing
/// fault plan, and optionally the lossy transport on top. A
/// deterministic long asymmetric/symmetric window against one pilot is
/// appended to the generated plan so every seed exercises the
/// heal-after-rebind zombie path, not just whatever
/// `generate_partitioned` happened to draw.
fn partition_run(seed: u64, lossy: bool) -> Outcome {
    let mut cfg = SessionConfig::test_profile();
    if lossy {
        cfg.coordination.loss = LossProfile {
            drop_p: 0.10,
            dup_p: 0.05,
            delay_jitter_ms: 25.0,
            seed,
        };
    }
    let mut plan = FaultPlan::generate_partitioned(seed, SimDuration::from_secs(1_800), 3, 2, 6);
    // Guaranteed zombie: partition one pilot at 50 s (agents are Active
    // by ~47 s) for 300 s — long past lease expiry (60 s) + grace (30 s),
    // so the victim self-fences and its units re-bind while the window is
    // still open; its held completions arrive after the heal under a
    // stale epoch.
    plan.events.push(FaultEvent {
        at: SimTime::from_secs_f64(50.0),
        kind: FaultKind::Partition {
            pilot: (seed as usize) % 2,
            duration: SimDuration::from_secs(300),
            symmetric: seed.is_multiple_of(2),
        },
    });
    // Staggered short sleeps: pilots only become Active around t ≈ 40 s
    // (queue wait + bootstrap), so the first wave completes inside the
    // partition-to-fence window (~40–100 s) and its completions are held;
    // the rest re-bind after the fence.
    let units = sleep_units(UNITS, "c", |i| 15 + (i as u64 % 4) * 10);
    let run = drive(seed, &lease_scenario(cfg, Some(plan), units));
    let out = outcome(&run);
    assert!(
        out.faults_injected > 0,
        "seed {seed}: plan injected nothing"
    );
    if std::env::var("CHAOS_DEBUG").is_ok() {
        eprintln!(
            "seed {seed}: injected={} windows={} holds={} fenced={} rebinds={} done={}",
            out.faults_injected,
            out.partition_windows,
            run.session.store().partition_holds(),
            out.fence_rejections,
            out.rebinds,
            out.done
        );
        for ev in &out.events {
            if ev.message.contains("lease")
                || ev.message.contains("fenc")
                || ev.message.contains("partition")
                || ev.message.contains("held")
                || ev.message.contains("rejected")
                || ev.message.contains("lost (")
            {
                eprintln!("  {:?} [{}] {}", ev.time, ev.category, ev.message);
            }
        }
    }
    out
}

#[test]
fn partition_heal_grid() {
    // ≥16-point grid (seed × lossy), env-overridable like the main soak.
    let seeds = seed_count().clamp(16, 64);
    let mut total_rebinds = 0u64;
    let mut total_windows = 0u64;
    let mut total_fenced = 0u64;
    let mut any_failed = 0usize;
    for seed in 1..=seeds {
        let out = partition_run(seed, seed.is_multiple_of(2));
        check_invariants(seed, &out);
        total_rebinds += out.rebinds;
        total_windows += out.partition_windows;
        total_fenced += out.fence_rejections;
        any_failed += out.states.len() - out.done;
    }
    assert!(total_windows > 0, "no scenario opened a partition window");
    assert!(
        total_rebinds > 0,
        "no scenario re-bound units off a fenced pilot"
    );
    // The heal-after-rebind zombie path must fire somewhere in the grid:
    // at least one healed pilot's stale-epoch write reached the store and
    // was rejected (zero such writes were ever *applied* — the
    // completion count check above proves that side).
    assert!(
        total_fenced > 0,
        "no scenario rejected a stale-epoch zombie write"
    );
    let total_units = seeds as usize * UNITS;
    assert!(
        any_failed * 4 < total_units,
        "{any_failed}/{total_units} units failed — recovery is not pulling its weight"
    );
}

#[test]
fn partition_reruns_are_bit_identical() {
    // Invariant (d) for the split-brain tier: partitions, leases and
    // fencing are part of the deterministic simulation.
    let seeds = seed_count().min(4);
    for seed in 1..=seeds {
        for lossy in [false, true] {
            let a = partition_run(seed, lossy);
            let b = partition_run(seed, lossy);
            assert_eq!(a.states, b.states, "seed {seed}: states diverge");
            assert_eq!(a.events, b.events, "seed {seed}: trace events diverge");
            assert_eq!(a.spans, b.spans, "seed {seed}: spans diverge");
            assert_eq!(a.metrics, b.metrics, "seed {seed}: metrics diverge");
        }
    }
}

#[test]
fn leases_without_partitions_are_quiet() {
    // Lease machinery at rest: with ownership leases on but no partition
    // in the plan and a lossless transport, every renewal succeeds — no
    // fence rejections, no self-fences, no re-binding — and the run stays
    // deterministic.
    for seed in [1u64, 9] {
        let out = chaos_run(seed, Mode::Baseline);
        assert!(
            out.states.iter().all(|s| *s == UnitState::Done),
            "seed {seed}"
        );
        assert_eq!(
            out.fence_rejections, 0,
            "seed {seed}: healthy renewals must not fence"
        );
        assert_eq!(out.partition_windows, 0, "seed {seed}");
        assert_eq!(
            out.rebinds, 0,
            "seed {seed}: healthy leases must not re-bind"
        );
        let again = chaos_run(seed, Mode::Baseline);
        assert_eq!(out.states, again.states, "seed {seed}");
        assert_eq!(out.events, again.events, "seed {seed}");
        assert_eq!(out.metrics, again.metrics, "seed {seed}");
    }
}

#[test]
fn zero_fault_chaos_config_matches_baseline() {
    // Invariant (e): the chaos machinery at rest — injector with an
    // empty plan, loss probabilities at zero — must not perturb the run
    // at all.
    for seed in [1u64, 7, 23] {
        let base = chaos_run(seed, Mode::Baseline);
        let zero = chaos_run(seed, Mode::ZeroFault);
        assert_eq!(base.states, zero.states, "seed {seed}");
        assert_eq!(base.events, zero.events, "seed {seed}");
        assert_eq!(base.spans, zero.spans, "seed {seed}");
        assert_eq!(base.metrics, zero.metrics, "seed {seed}");
        assert_eq!(base.rebinds, 0, "baseline must never re-bind");
        assert_eq!(base.done, UNITS, "baseline must finish everything");
        assert_eq!(base.msgs_dropped, 0);
        assert_eq!(base.msgs_duplicated, 0);
    }
}

#[test]
fn lossy_lease_run_pins_the_transport_rng_stream() {
    // Heartbeats carry no liveness under leases, but each one still takes
    // the lossy transport's loss and jitter draws. Those draws decide the
    // fate of every later message, so removing them (or adding a consumer
    // of the stream) moves these recorded done times.
    let mut cfg = SessionConfig::test_profile();
    cfg.coordination.loss = LossProfile {
        drop_p: 0.2,
        dup_p: 0.1,
        delay_jitter_ms: 25.0,
        seed: 5,
    };
    let scenario = Scenario {
        config: cfg,
        pilots: vec![PilotDescription::new("xsede.stampede", 1, SimDuration::from_secs(3_600)); 2],
        scheduler: UmScheduler::RoundRobin,
        leases: Some((SimDuration::from_secs(60), SimDuration::from_secs(30))),
        faults: None,
        units: sleep_units(6, "p", |i| 20 + 15 * i as u64),
    };
    let Run { units, session, .. } =
        run(&scenario, Engine::new(5)).expect("sim wedged with live units");
    let got: Vec<(UnitState, u64)> = units
        .iter()
        .map(|u| (u.state(), u.times().done.map_or(0, |t| t.0)))
        .collect();
    assert_eq!(
        got,
        vec![
            (UnitState::Done, 63_744_241),
            (UnitState::Done, 77_650_713),
            (UnitState::Done, 93_831_854),
            (UnitState::Done, 107_855_206),
            (UnitState::Done, 124_040_626),
            (UnitState::Done, 138_057_883),
        ]
    );
    assert_eq!(session.store().msgs_dropped(), 4);
}
