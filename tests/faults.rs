//! Deterministic fault-schedule harness (the failure-model counterpart of
//! `determinism.rs`): injected faults are part of the simulation, so runs
//! with faults are exactly as reproducible as runs without, recovery keeps
//! under-budget workloads at 100% completion, and the cost of failures
//! shows up as a monotone makespan penalty.

use hadoop_hpc::pilot::*;
use hadoop_hpc::sim::{Engine, FaultEvent, FaultKind, FaultPlan, SimDuration, SimTime, TraceEvent};
use rp_bench::scenario::{run, sleep_units, Run, Scenario};

/// `pilot` running `units` under `config` with `plan` installed, on a
/// traced engine.
fn faulted(
    seed: u64,
    config: SessionConfig,
    pilot: PilotDescription,
    units: Vec<ComputeUnitDescription>,
    plan: Option<&FaultPlan>,
) -> Run {
    let scenario = Scenario {
        config,
        pilots: vec![pilot],
        scheduler: UmScheduler::Direct,
        leases: None,
        faults: plan.cloned(),
        units,
    };
    run(&scenario, Engine::with_trace(seed)).expect("simulation stalled with live units")
}

/// A plain 4-node pilot running `descrs` under `config`, with `plan`
/// installed. Returns the unit handles, the pilot and the full trace.
fn faulted_run(
    seed: u64,
    config: SessionConfig,
    descrs: Vec<ComputeUnitDescription>,
    plan: Option<&FaultPlan>,
) -> (Vec<UnitHandle>, PilotHandle, Vec<TraceEvent>) {
    let pilot = PilotDescription::new("xsede.stampede", 4, SimDuration::from_secs(14_400));
    let mut run = faulted(seed, config, pilot, descrs, plan);
    let events = run.engine.trace.events().to_vec();
    (run.units, run.pilots.remove(0), events)
}

/// `n` one-core sleep units of `sleep_s` on the test profile.
fn sleep_run(
    seed: u64,
    n: usize,
    sleep_s: u64,
    plan: Option<&FaultPlan>,
) -> (Vec<UnitHandle>, PilotHandle, Vec<TraceEvent>) {
    let descrs = sleep_units(n, "u", |_| sleep_s);
    faulted_run(seed, SessionConfig::test_profile(), descrs, plan)
}

fn makespan(units: &[UnitHandle]) -> SimTime {
    units
        .iter()
        .map(|u| u.times().done.expect("unit finished"))
        .max()
        .unwrap()
}

/// A plan of `k` node crashes at fixed times, hitting distinct nodes.
fn crash_plan(k: usize) -> FaultPlan {
    FaultPlan {
        events: (0..k)
            .map(|i| FaultEvent {
                at: SimTime::from_secs_f64(150.0 + 160.0 * i as f64),
                kind: FaultKind::NodeCrash { node: i },
            })
            .collect(),
    }
}

#[test]
fn under_budget_plan_completes_every_unit() {
    // One fault of every kind, well inside the default 4-attempt budget.
    let plan = FaultPlan {
        events: vec![
            FaultEvent {
                at: SimTime::from_secs_f64(90.0),
                kind: FaultKind::StagingError,
            },
            FaultEvent {
                at: SimTime::from_secs_f64(100.0),
                kind: FaultKind::NodeSlowdown {
                    node: 1,
                    factor: 2.0,
                    duration: SimDuration::from_secs(120),
                },
            },
            FaultEvent {
                at: SimTime::from_secs_f64(120.0),
                kind: FaultKind::LinkDegrade {
                    factor: 0.3,
                    duration: SimDuration::from_secs(60),
                },
            },
            FaultEvent {
                at: SimTime::from_secs_f64(200.0),
                kind: FaultKind::NodeCrash { node: 0 },
            },
            FaultEvent {
                at: SimTime::from_secs_f64(250.0),
                kind: FaultKind::ContainerKill { count: 2 },
            },
        ],
    };
    let (units, pilot, trace) = sleep_run(11, 10, 300, Some(&plan));
    for u in &units {
        assert_eq!(
            u.state(),
            UnitState::Done,
            "{:?}: {:?}",
            u.id(),
            u.failure()
        );
    }
    let agent = pilot.agent().expect("pilot active");
    assert!(agent.is_degraded(), "faults must mark the pilot degraded");
    assert_eq!(agent.dead_nodes().len(), 1);
    // The crash (and the kills) forced retries.
    assert!(
        units.iter().any(|u| u.attempts() > 1),
        "at least one unit should have been retried"
    );
    assert_eq!(
        trace.iter().filter(|ev| ev.category == "fault").count(),
        plan.len()
    );
}

#[test]
fn same_seed_same_fault_trace() {
    let plan = FaultPlan::generate(7, SimDuration::from_secs(1200), 4, 6);
    let (ua, _, ta) = sleep_run(42, 8, 200, Some(&plan));
    let (ub, _, tb) = sleep_run(42, 8, 200, Some(&plan));
    assert_eq!(ta, tb, "same seed + same plan must be bit-identical");
    for (a, b) in ua.iter().zip(&ub) {
        assert_eq!(a.state(), b.state());
        assert_eq!(a.attempts(), b.attempts());
    }
    // A different fault seed perturbs the run.
    let other = FaultPlan::generate(8, SimDuration::from_secs(1200), 4, 6);
    assert_ne!(plan, other);
}

#[test]
fn makespan_is_monotone_in_crash_count() {
    let spans: Vec<SimTime> = (0..=3)
        .map(|k| {
            let (units, _, _) = sleep_run(5, 12, 400, Some(&crash_plan(k)));
            assert!(
                units.iter().all(|u| u.state() == UnitState::Done),
                "k={k}: all units should survive {k} crashes on 4 nodes"
            );
            makespan(&units)
        })
        .collect();
    for (k, w) in spans.windows(2).enumerate() {
        assert!(
            w[0] <= w[1],
            "makespan must not shrink with more crashes: k={k} {:?} -> {:?}",
            w[0],
            w[1]
        );
    }
    // The crashes must actually cost something.
    assert!(spans[3] > spans[0]);
}

#[test]
fn zero_fault_plan_is_bit_identical_to_baseline() {
    let (ua, _, ta) = sleep_run(9, 8, 120, None);
    let (ub, _, tb) = sleep_run(9, 8, 120, Some(&FaultPlan::none()));
    assert_eq!(ta, tb, "installing an empty plan must not perturb the run");
    assert_eq!(makespan(&ua), makespan(&ub));
}

#[test]
fn unit_fails_terminally_once_retry_budget_is_spent() {
    // Crash the node under the unit, with a policy that forbids retries.
    let plan = FaultPlan {
        events: vec![FaultEvent {
            at: SimTime::from_secs_f64(150.0),
            kind: FaultKind::NodeCrash { node: 0 },
        }],
    };
    let units = faulted(
        3,
        SessionConfig::test_profile(),
        PilotDescription::new("xsede.stampede", 2, SimDuration::from_secs(7200)),
        vec![ComputeUnitDescription::new(
            "fragile",
            1,
            WorkSpec::Sleep(SimDuration::from_secs(600)),
        )
        .with_retry(RetryPolicy::never())],
        Some(&plan),
    )
    .units;
    assert_eq!(units[0].state(), UnitState::Failed);
    assert_eq!(units[0].attempts(), 1);
    assert!(units[0].failure().unwrap().contains("no attempts left"));
}

#[test]
fn yarn_pilot_survives_container_kills() {
    let plan = FaultPlan {
        events: vec![
            FaultEvent {
                at: SimTime::from_secs_f64(150.0),
                kind: FaultKind::ContainerKill { count: 2 },
            },
            FaultEvent {
                at: SimTime::from_secs_f64(200.0),
                kind: FaultKind::ContainerKill { count: 1 },
            },
        ],
    };
    let Run { units, pilots, .. } = faulted(
        17,
        SessionConfig::test_profile(),
        PilotDescription::new("xsede.stampede", 3, SimDuration::from_secs(14_400))
            .with_access(AccessMode::YarnModeI { with_hdfs: false }),
        (0..6)
            .map(|i| {
                ComputeUnitDescription::new(
                    format!("y{i}"),
                    2,
                    WorkSpec::Sleep(SimDuration::from_secs(300)),
                )
            })
            .collect(),
        Some(&plan),
    );
    let pilot = &pilots[0];
    for u in &units {
        assert_eq!(
            u.state(),
            UnitState::Done,
            "{:?}: {:?}",
            u.id(),
            u.failure()
        );
    }
    let agent = pilot.agent().unwrap();
    assert!(agent.is_degraded());
    assert!(units.iter().any(|u| u.attempts() > 1));
}

/// The staged Compute workload: 12 eight-core `Compute` units of
/// 3,200 core-s, each staging 32 MiB in from Lustre.
fn staged_compute_units() -> Vec<ComputeUnitDescription> {
    (0..12)
        .map(|i| {
            ComputeUnitDescription::new(
                format!("work-{i}"),
                8,
                WorkSpec::Compute {
                    core_seconds: 3200.0,
                    read_mb: 64.0,
                    write_mb: 16.0,
                    io: UnitIoTarget::Lustre,
                },
            )
            .stage_in(StagingDirective {
                bytes: 32.0 * 1024.0 * 1024.0,
                from: StageEndpoint::Lustre,
                to: StageEndpoint::ExecNode,
            })
        })
        .collect()
}

/// 3 seeds × 3 intensities: every sleep-bag run must terminate with every
/// unit in a final state. On the staged Compute workload
/// (default session), every planned fault fires, every unit ends Done or
/// Failed within 4 attempts, and intensities up to 6 lose no unit.
#[test]
fn fault_matrix_always_terminates() {
    for seed in [1u64, 2, 3] {
        for intensity in [2usize, 6, 12] {
            let case = format!("seed={seed} intensity={intensity}");
            let plan = FaultPlan::generate(seed, SimDuration::from_secs(1800), 4, intensity);
            let (units, _, _) = sleep_run(seed, 8, 150, Some(&plan));
            let stuck: Vec<_> = units
                .iter()
                .filter(|u| !u.state().is_final())
                .map(|u| u.id())
                .collect();
            assert!(stuck.is_empty(), "{case}: {stuck:?} stuck");
            let (units, _, trace) = faulted_run(
                seed,
                SessionConfig::default(),
                staged_compute_units(),
                Some(&plan),
            );
            let injected = trace.iter().filter(|ev| ev.category == "fault").count();
            assert_eq!(injected, plan.len(), "{case}");
            for u in &units {
                let (name, state, attempts) = (u.name(), u.state(), u.attempts());
                let ended =
                    state == UnitState::Done || (intensity > 6 && state == UnitState::Failed);
                assert!(
                    ended && attempts <= 4,
                    "{case}: {name} {state:?} after {attempts}"
                );
            }
            assert!(makespan(&units) > SimTime::ZERO, "{case}");
        }
    }
}
