//! Agent guard rails: validation rejections (units a pilot can never
//! run fail fast with a reason), scheduler skip behaviour, and Heartbeat
//! Monitor accounting.

use hadoop_hpc::pilot::*;
use hadoop_hpc::sim::{Engine, FaultEvent, FaultKind, FaultPlan, SimDuration, SimTime};

fn drive(e: &mut Engine, units: &[UnitHandle]) {
    while units.iter().any(|u| !u.state().is_final()) {
        assert!(e.step(), "simulation stalled");
    }
}

fn plain_pilot(e: &mut Engine, session: &Session, nodes: u32) -> (PilotHandle, UnitManager) {
    let pm = PilotManager::new(session);
    let pilot = pm
        .submit(
            e,
            PilotDescription::new("xsede.stampede", nodes, SimDuration::from_secs(7200)),
        )
        .unwrap();
    let mut um = UnitManager::new(session, UmScheduler::Direct);
    um.add_pilot(&pilot);
    (pilot, um)
}

fn mr_spec() -> hadoop_hpc::mapreduce::MrJobSpec {
    hadoop_hpc::mapreduce::MrJobSpec {
        name: "probe".into(),
        input_path: "/in".into(),
        num_reducers: 1,
        container: hadoop_hpc::yarn::Resource::new(1, 1024),
        shuffle: hadoop_hpc::mapreduce::ShuffleBackend::LocalDisk,
        cost: hadoop_hpc::mapreduce::MrCostModel::default(),
    }
}

// ---- validation rejections ----

#[test]
fn mapreduce_unit_rejected_on_plain_pilot() {
    let mut e = Engine::new(1);
    let session = Session::new(SessionConfig::test_profile());
    let (_pilot, um) = plain_pilot(&mut e, &session, 2);
    let units = um.submit_units(
        &mut e,
        vec![ComputeUnitDescription::new(
            "mr",
            1,
            WorkSpec::MapReduce(mr_spec()),
        )],
    );
    drive(&mut e, &units);
    assert_eq!(units[0].state(), UnitState::Failed);
    assert!(units[0]
        .failure()
        .unwrap()
        .contains("requires a YARN pilot"));
}

#[test]
fn mapreduce_unit_rejected_on_yarn_pilot_without_hdfs() {
    let mut e = Engine::new(1);
    let session = Session::new(SessionConfig::test_profile());
    let pm = PilotManager::new(&session);
    let pilot = pm
        .submit(
            &mut e,
            PilotDescription::new("xsede.stampede", 2, SimDuration::from_secs(7200))
                .with_access(AccessMode::YarnModeI { with_hdfs: false }),
        )
        .unwrap();
    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);
    let units = um.submit_units(
        &mut e,
        vec![ComputeUnitDescription::new(
            "mr",
            1,
            WorkSpec::MapReduce(mr_spec()),
        )],
    );
    drive(&mut e, &units);
    assert_eq!(units[0].state(), UnitState::Failed);
    assert!(units[0].failure().unwrap().contains("requires HDFS"));
}

#[test]
fn spark_unit_rejected_on_plain_pilot() {
    let mut e = Engine::new(2);
    let session = Session::new(SessionConfig::test_profile());
    let (_pilot, um) = plain_pilot(&mut e, &session, 2);
    let units = um.submit_units(
        &mut e,
        vec![ComputeUnitDescription::new(
            "spark",
            4,
            WorkSpec::SparkApp {
                cores: 4,
                core_seconds: 40.0,
            },
        )],
    );
    drive(&mut e, &units);
    assert_eq!(units[0].state(), UnitState::Failed);
    assert!(units[0]
        .failure()
        .unwrap()
        .contains("requires a Spark pilot"));
}

#[test]
fn oversized_unit_rejected() {
    let mut e = Engine::new(3);
    let session = Session::new(SessionConfig::test_profile());
    // 2 nodes x 16 cores = 32 total.
    let (_pilot, um) = plain_pilot(&mut e, &session, 2);
    let units = um.submit_units(
        &mut e,
        vec![
            ComputeUnitDescription::new("huge", 64, WorkSpec::Sleep(SimDuration::from_secs(1)))
                .with_mpi(),
        ],
    );
    drive(&mut e, &units);
    assert_eq!(units[0].state(), UnitState::Failed);
    assert!(units[0].failure().unwrap().contains("pilot has 32"));
}

#[test]
fn wide_non_mpi_unit_rejected() {
    let mut e = Engine::new(4);
    let session = Session::new(SessionConfig::test_profile());
    let (_pilot, um) = plain_pilot(&mut e, &session, 2);
    // 20 cores without MPI cannot fit a single 16-core node.
    let units = um.submit_units(
        &mut e,
        vec![ComputeUnitDescription::new(
            "wide",
            20,
            WorkSpec::Sleep(SimDuration::from_secs(1)),
        )],
    );
    drive(&mut e, &units);
    assert_eq!(units[0].state(), UnitState::Failed);
    assert!(units[0].failure().unwrap().contains("on one node"));
}

#[test]
fn mpi_unit_cannot_span_yarn_containers() {
    let mut e = Engine::new(5);
    let session = Session::new(SessionConfig::test_profile());
    let pm = PilotManager::new(&session);
    let pilot = pm
        .submit(
            &mut e,
            PilotDescription::new("xsede.stampede", 3, SimDuration::from_secs(7200))
                .with_access(AccessMode::YarnModeI { with_hdfs: false }),
        )
        .unwrap();
    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);
    let units = um.submit_units(
        &mut e,
        vec![
            ComputeUnitDescription::new("mpi", 24, WorkSpec::Sleep(SimDuration::from_secs(1)))
                .with_mpi(),
        ],
    );
    drive(&mut e, &units);
    assert_eq!(units[0].state(), UnitState::Failed);
    assert_eq!(
        units[0].failure().unwrap(),
        "gang-scheduled MPI unit (24 cores) cannot span YARN containers \
         (max 16 vcores per NodeManager)"
    );
}

#[test]
fn compute_and_native_units_rejected_on_spark_pilot() {
    let mut e = Engine::new(5);
    let session = Session::new(SessionConfig::test_profile());
    let pm = PilotManager::new(&session);
    let pilot = pm
        .submit(
            &mut e,
            PilotDescription::new("xsede.stampede", 2, SimDuration::from_secs(7200))
                .with_access(AccessMode::SparkModeI),
        )
        .unwrap();
    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);
    let ran = std::rc::Rc::new(std::cell::Cell::new(false));
    let ran2 = ran.clone();
    let units = um.submit_units(
        &mut e,
        vec![
            ComputeUnitDescription::new(
                "compute",
                4,
                WorkSpec::Compute {
                    core_seconds: 40.0,
                    read_mb: 10.0,
                    write_mb: 10.0,
                    io: UnitIoTarget::Lustre,
                },
            ),
            ComputeUnitDescription::new(
                "native",
                1,
                WorkSpec::Native(std::rc::Rc::new(move || ran2.set(true))),
            ),
        ],
    );
    drive(&mut e, &units);
    for u in &units {
        assert_eq!(u.state(), UnitState::Failed);
        assert_eq!(
            u.failure().unwrap(),
            "Compute and Native units cannot run on a Spark pilot \
             (it runs SparkApp, SparkJob and Sleep units)"
        );
    }
    assert!(!ran.get(), "a rejected Native closure must never run");
}

// ---- scheduler skip behaviour ----

#[test]
fn small_unit_skips_ahead_of_blocked_wide_unit() {
    let mut e = Engine::new(6);
    let session = Session::new(SessionConfig::test_profile());
    // One 16-core node.
    let (_pilot, um) = plain_pilot(&mut e, &session, 1);
    let units = um.submit_units(
        &mut e,
        vec![
            // Takes most of the node.
            ComputeUnitDescription::new("a", 10, WorkSpec::Sleep(SimDuration::from_secs(100))),
            // Does not fit next to A: blocked until A finishes.
            ComputeUnitDescription::new("b", 10, WorkSpec::Sleep(SimDuration::from_secs(100))),
            // FIFO-with-skip: fits in the 6 cores A left free.
            ComputeUnitDescription::new("c", 4, WorkSpec::Sleep(SimDuration::from_secs(5))),
        ],
    );
    drive(&mut e, &units);
    for u in &units {
        assert_eq!(u.state(), UnitState::Done, "{:?}", u.failure());
    }
    let b_start = units[1].times().exec_start.unwrap();
    let c_done = units[2].times().done.unwrap();
    assert!(
        c_done < b_start,
        "c should skip past the blocked b: c done {c_done}, b start {b_start}"
    );
}

// ---- heartbeat accounting ----

#[test]
fn idle_agent_emits_no_heartbeats() {
    let mut e = Engine::new(7);
    let session = Session::new(SessionConfig::test_profile());
    let pm = PilotManager::new(&session);
    let pilot = pm
        .submit(
            &mut e,
            PilotDescription::new("xsede.stampede", 1, SimDuration::from_secs(300)),
        )
        .unwrap();
    e.run();
    assert!(pilot.state().is_final());
    let agent = pilot.agent().unwrap();
    assert_eq!(agent.heartbeats(), 0, "idle agents must not heartbeat");
    assert!(!agent.is_degraded());
}

#[test]
fn heartbeats_stop_once_work_drains() {
    let mut e = Engine::new(8);
    let session = Session::new(SessionConfig::test_profile());
    let (pilot, um) = plain_pilot(&mut e, &session, 1);
    let units = um.submit_units(
        &mut e,
        vec![ComputeUnitDescription::new(
            "w",
            1,
            WorkSpec::Sleep(SimDuration::from_secs(25)),
        )],
    );
    drive(&mut e, &units);
    // Drain the remaining events; if the monitor failed to disarm this
    // would never terminate.
    e.run();
    let agent = pilot.agent().unwrap();
    let total = agent.heartbeats();
    // ~25s busy window at a 10s period (plus at most one armed beat that
    // fires right after the drain).
    assert!(
        (2..=4).contains(&total),
        "expected 2-4 heartbeats for 25s of work, got {total}"
    );
}

#[test]
fn heartbeat_monitor_detects_crash_and_requeues() {
    let mut e = Engine::with_trace(9);
    let session = Session::new(SessionConfig::test_profile());
    let pm = PilotManager::new(&session);
    let pilot = pm
        .submit(
            &mut e,
            PilotDescription::new("xsede.stampede", 2, SimDuration::from_secs(7200)),
        )
        .unwrap();
    let plan = FaultPlan {
        events: vec![FaultEvent {
            at: SimTime::from_secs_f64(150.0),
            kind: FaultKind::NodeCrash { node: 0 },
        }],
    };
    install_faults(&mut e, &plan, &pilot);
    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);
    let units = um.submit_units(
        &mut e,
        vec![ComputeUnitDescription::new(
            "survivor",
            1,
            WorkSpec::Sleep(SimDuration::from_secs(600)),
        )],
    );
    drive(&mut e, &units);
    let agent = pilot.agent().unwrap();
    assert_eq!(
        units[0].state(),
        UnitState::Done,
        "{:?}",
        units[0].failure()
    );
    assert_eq!(units[0].attempts(), 2, "crash must force a second attempt");
    assert!(agent.is_degraded());
    assert_eq!(agent.dead_nodes().len(), 1);
    // The re-run landed on the surviving node.
    let exec = units[0].exec_nodes();
    assert!(!exec.iter().any(|n| agent.dead_nodes().contains(n)));
    // Detection is heartbeat-driven: the kill is recorded after the crash.
    assert!(e
        .trace
        .in_category("agent")
        .any(|ev| ev.message.contains("lost (node crashed)")));
}
