//! Per-access-mode pins of the agent's failure and cancel paths.
//!
//! One table row per {access mode} × {event}: a node crash, a container
//! kill (twice, so the second spends the retry budget), a whole-pilot
//! kill under leases, and a Unit-Manager cancel that lands while units
//! wait for the Task Spawner, a YARN container or Spark executors. Each
//! row pins the final unit states, the attempt counts, the recovery
//! counters, and what became of the pilot's framework daemons.
//!
//! Every event fires relative to the moment the first unit starts
//! executing, so each row hits the same phase whatever its mode's
//! startup latency.

use rp_pilot::*;
use rp_sim::{Engine, FaultEvent, FaultKind, FaultPlan, SimDuration, SimTime};

use UnitState::{Canceled as C, Done as D, Failed as F};

const UNITS: usize = 4;

#[derive(Clone, Copy, Debug)]
enum Mode {
    Plain,
    YarnModeI,
    YarnModeII,
    Spark,
}

#[derive(Clone, Copy, Debug)]
enum Event {
    NodeCrash,
    ContainerKill,
    PilotKill,
    Cancel,
}

/// What one row leaves behind once the run settles.
#[derive(Debug, PartialEq)]
struct Pin {
    states: [UnitState; UNITS],
    attempts: [u32; UNITS],
    /// `agent.attempts_killed`, `agent.preemption_restarts`,
    /// `agent.units_returned`.
    counters: [u64; 3],
    /// Whether the pilot's YARN or Spark daemons were shut down.
    framework_stopped: Option<bool>,
    /// Live NodeManagers and DataNodes of a YARN pilot's environment.
    hadoop_daemons: Option<(usize, Option<usize>)>,
    /// Whether the crashed node's NodeManager / DataNode are gone.
    crash_victim_daemons_lost: Option<(bool, bool)>,
}

fn pin(
    states: [UnitState; UNITS],
    attempts: [u32; UNITS],
    counters: [u64; 3],
    framework_stopped: Option<bool>,
    hadoop_daemons: Option<(usize, Option<usize>)>,
    crash_victim_daemons_lost: Option<(bool, bool)>,
) -> Pin {
    Pin {
        states,
        attempts,
        counters,
        framework_stopped,
        hadoop_daemons,
        crash_victim_daemons_lost,
    }
}

fn access(mode: Mode) -> (&'static str, AccessMode) {
    match mode {
        Mode::Plain => ("xsede.stampede", AccessMode::Plain),
        Mode::YarnModeI => ("xsede.stampede", AccessMode::YarnModeI { with_hdfs: true }),
        Mode::YarnModeII => ("xsede.wrangler", AccessMode::YarnModeII),
        Mode::Spark => ("xsede.stampede", AccessMode::SparkModeI),
    }
}

fn run_row(mode: Mode, event: Event) -> Pin {
    let mut e = Engine::with_trace(2016);
    let session = Session::new(SessionConfig::test_profile());
    let pm = PilotManager::new(&session);
    let (resource, mode_access) = access(mode);
    let pilot = pm
        .submit(
            &mut e,
            PilotDescription::new(resource, 3, SimDuration::from_secs(7200))
                .with_access(mode_access),
        )
        .unwrap();
    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);
    if let Event::PilotKill = event {
        // A plain survivor on the same machine takes the returned units.
        let survivor = pm
            .submit(
                &mut e,
                PilotDescription::new(resource, 1, SimDuration::from_secs(7200)),
            )
            .unwrap();
        um.add_pilot(&survivor);
        um.enable_leases(
            &mut e,
            SimDuration::from_secs(60),
            SimDuration::from_secs(30),
        );
    }
    let retry = RetryPolicy {
        max_attempts: 2,
        ..RetryPolicy::default()
    };
    let units = um.submit_units(
        &mut e,
        (0..UNITS)
            .map(|i| {
                ComputeUnitDescription::new(
                    format!("u{i}"),
                    1,
                    WorkSpec::Sleep(SimDuration::from_secs(600)),
                )
                .with_retry(retry)
            })
            .collect(),
    );
    while !units.iter().any(|u| u.state() == UnitState::Executing) {
        assert!(e.step(), "{mode:?}/{event:?}: stalled before execution");
    }
    let t0 = e.now().as_secs_f64();
    let at = |dt: f64| SimTime::from_secs_f64(t0 + dt);
    let faults = match event {
        Event::NodeCrash => vec![(at(5.0), FaultKind::NodeCrash { node: 0 })],
        Event::ContainerKill => vec![
            (at(5.0), FaultKind::ContainerKill { count: UNITS }),
            (at(200.0), FaultKind::ContainerKill { count: UNITS }),
        ],
        Event::PilotKill => vec![(at(5.0), FaultKind::PilotKill { pilot: 0 })],
        Event::Cancel => {
            for u in &units {
                um.cancel_unit(&mut e, u);
            }
            Vec::new()
        }
    };
    let plan = FaultPlan {
        events: faults
            .into_iter()
            .map(|(at, kind)| FaultEvent { at, kind })
            .collect(),
    };
    install_faults_multi(&mut e, &plan, std::slice::from_ref(&pilot));
    e.run_until(SimTime::from_secs_f64(4000.0));

    let agent = pilot.agent().unwrap();
    let env = agent.hadoop_env();
    let spark = agent.spark_cluster();
    let victim = agent.dead_nodes().first().copied();
    Pin {
        states: std::array::from_fn(|i| units[i].state()),
        attempts: std::array::from_fn(|i| units[i].attempts()),
        counters: [
            e.metrics.counter("agent.attempts_killed"),
            e.metrics.counter("agent.preemption_restarts"),
            e.metrics.counter("agent.units_returned"),
        ],
        framework_stopped: match (&env, &spark) {
            (Some(env), _) => Some(env.yarn.is_stopped()),
            (_, Some(spark)) => Some(spark.is_stopped()),
            _ => None,
        },
        hadoop_daemons: env.as_ref().map(|env| {
            (
                env.yarn.nodes().len(),
                env.hdfs.as_ref().map(|h| h.datanodes().len()),
            )
        }),
        crash_victim_daemons_lost: env.as_ref().zip(victim).map(|(env, v)| {
            (
                !env.yarn.nodes().contains(&v),
                env.hdfs
                    .as_ref()
                    .is_some_and(|h| !h.datanodes().contains(&v)),
            )
        }),
    }
}

#[test]
fn every_mode_arm_is_pinned() {
    use Event::*;
    use Mode::*;
    #[rustfmt::skip]
    let rows: &[(Mode, Event, Pin)] = &[
        (Plain, NodeCrash, pin([D, D, D, D], [2, 2, 2, 2], [4, 0, 0], None, None, None)),
        (Plain, ContainerKill, pin([F, F, F, F], [2, 2, 2, 2], [8, 0, 0], None, None, None)),
        (Plain, PilotKill, pin([D, D, D, D], [2, 2, 2, 2], [0, 0, 4], None, None, None)),
        (Plain, Cancel, pin([D, C, C, C], [1, 1, 1, 1], [0, 0, 0], None, None, None)),
        // Mode I: the crashed node's NodeManager and DataNode die with it,
        // and the unit whose container ran there restarts (DESIGN §8).
        (YarnModeI, NodeCrash, pin([D, D, D, D], [1, 1, 2, 1], [0, 1, 0], Some(false), Some((2, Some(2))), Some((true, true)))),
        (YarnModeI, ContainerKill, pin([F, F, F, F], [2, 2, 2, 2], [0, 4, 0], Some(false), Some((3, Some(3))), None)),
        (YarnModeI, PilotKill, pin([D, D, D, D], [2, 2, 2, 2], [0, 0, 4], Some(true), Some((3, Some(3))), None)),
        (YarnModeI, Cancel, pin([D, C, C, C], [1, 1, 1, 1], [0, 0, 0], Some(false), Some((3, Some(3))), None)),
        // Mode II: the dedicated environment is not the pilot's, so a crash
        // of an allocation node leaves it whole and a pilot kill keeps it up.
        (YarnModeII, NodeCrash, pin([D, D, D, D], [1, 1, 1, 1], [0, 0, 0], Some(false), Some((2, Some(2))), Some((false, false)))),
        (YarnModeII, ContainerKill, pin([F, F, F, F], [2, 2, 2, 2], [0, 4, 0], Some(false), Some((2, Some(2))), None)),
        (YarnModeII, PilotKill, pin([D, D, D, D], [2, 2, 2, 2], [0, 0, 4], Some(false), Some((2, Some(2))), None)),
        (YarnModeII, Cancel, pin([D, C, C, C], [1, 1, 1, 1], [0, 0, 0], Some(false), Some((2, Some(2))), None)),
        // Spark: node crashes and container kills do not reach executors.
        (Spark, NodeCrash, pin([D, D, D, D], [1, 1, 1, 1], [0, 0, 0], Some(false), None, None)),
        (Spark, ContainerKill, pin([D, D, D, D], [1, 1, 1, 1], [0, 0, 0], Some(false), None, None)),
        (Spark, PilotKill, pin([D, D, D, D], [2, 2, 2, 2], [0, 0, 4], Some(true), None, None)),
        (Spark, Cancel, pin([D, C, C, C], [1, 1, 1, 1], [0, 0, 0], Some(false), None, None)),
    ];
    let mut mismatches = Vec::new();
    for mode in [Plain, YarnModeI, YarnModeII, Spark] {
        for event in [NodeCrash, ContainerKill, PilotKill, Cancel] {
            let got = run_row(mode, event);
            let want = rows
                .iter()
                .find(|(m, ev, _)| format!("{m:?}{ev:?}") == format!("{mode:?}{event:?}"))
                .map(|(_, _, p)| p);
            if want != Some(&got) {
                mismatches.push(format!("({mode:?}, {event:?}, {got:?}),"));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "unpinned rows:\n{}",
        mismatches.join("\n")
    );
}
