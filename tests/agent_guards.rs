//! Agent guard rails: validation rejections (units a pilot can never
//! run fail fast with a reason), scheduler skip behaviour, and Heartbeat
//! Monitor accounting.

use hadoop_hpc::pilot::*;
use hadoop_hpc::sim::{Engine, FaultEvent, FaultKind, FaultPlan, SimDuration, SimTime};
use rp_bench::scenario::{run, Run, Scenario};

fn drive(e: &mut Engine, units: &[UnitHandle]) {
    while units.iter().any(|u| !u.state().is_final()) {
        assert!(e.step(), "simulation stalled");
    }
}

/// `units` on one 7,200 s Stampede pilot of `nodes` nodes with `access`.
fn one_pilot(nodes: u32, access: AccessMode, units: Vec<ComputeUnitDescription>) -> Scenario {
    Scenario {
        config: SessionConfig::test_profile(),
        pilots: vec![
            PilotDescription::new("xsede.stampede", nodes, SimDuration::from_secs(7200))
                .with_access(access),
        ],
        scheduler: UmScheduler::Direct,
        leases: None,
        faults: None,
        units,
    }
}

/// Run [`one_pilot`] on an untraced engine seeded with `seed`.
fn run_on(seed: u64, nodes: u32, access: AccessMode, units: Vec<ComputeUnitDescription>) -> Run {
    run(&one_pilot(nodes, access, units), Engine::new(seed)).expect("simulation stalled")
}

/// A one-stage Spark job asking for `executor_cores` executor cores.
fn spark_job(executor_cores: u32) -> WorkSpec {
    WorkSpec::SparkJob(hadoop_hpc::spark::SparkJobSpec {
        name: "probe".into(),
        executor_cores,
        stages: vec![hadoop_hpc::spark::SparkStage {
            name: "map".into(),
            compute_core_s: 240.0,
            input_read_mb: 0.0,
            shuffle_mb: 0.0,
        }],
        jitter_sigma: 0.0,
    })
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
    let units = run_on(
        1,
        2,
        AccessMode::Plain,
        vec![ComputeUnitDescription::new(
            "mr",
            1,
            WorkSpec::MapReduce(mr_spec()),
        )],
    )
    .units;
    assert_eq!(units[0].state(), UnitState::Failed);
    assert!(units[0]
        .failure()
        .unwrap()
        .contains("requires a YARN pilot"));
}

#[test]
fn mapreduce_unit_rejected_on_yarn_pilot_without_hdfs() {
    let units = run_on(
        1,
        2,
        AccessMode::YarnModeI { with_hdfs: false },
        vec![ComputeUnitDescription::new(
            "mr",
            1,
            WorkSpec::MapReduce(mr_spec()),
        )],
    )
    .units;
    assert_eq!(units[0].state(), UnitState::Failed);
    assert!(units[0].failure().unwrap().contains("requires HDFS"));
}

#[test]
fn spark_unit_rejected_on_plain_pilot() {
    let units = run_on(
        2,
        2,
        AccessMode::Plain,
        vec![ComputeUnitDescription::new("spark", 4, spark_job(4))],
    )
    .units;
    assert_eq!(units[0].state(), UnitState::Failed);
    assert!(units[0]
        .failure()
        .unwrap()
        .contains("requires a Spark pilot"));
}

#[test]
fn oversized_unit_rejected() {
    // 2 nodes x 16 cores = 32 total.
    let units = run_on(
        3,
        2,
        AccessMode::Plain,
        vec![
            ComputeUnitDescription::new("huge", 64, WorkSpec::Sleep(SimDuration::from_secs(1)))
                .with_mpi(),
        ],
    )
    .units;
    assert_eq!(units[0].state(), UnitState::Failed);
    assert!(units[0].failure().unwrap().contains("pilot has 32"));
}

#[test]
fn wide_non_mpi_unit_rejected() {
    // 20 cores without MPI cannot fit a single 16-core node.
    let units = run_on(
        4,
        2,
        AccessMode::Plain,
        vec![ComputeUnitDescription::new(
            "wide",
            20,
            WorkSpec::Sleep(SimDuration::from_secs(1)),
        )],
    )
    .units;
    assert_eq!(units[0].state(), UnitState::Failed);
    assert!(units[0].failure().unwrap().contains("on one node"));
}

#[test]
fn mpi_unit_cannot_span_yarn_containers() {
    let units = run_on(
        5,
        3,
        AccessMode::YarnModeI { with_hdfs: false },
        vec![
            ComputeUnitDescription::new("mpi", 24, WorkSpec::Sleep(SimDuration::from_secs(1)))
                .with_mpi(),
        ],
    )
    .units;
    assert_eq!(units[0].state(), UnitState::Failed);
    assert_eq!(
        units[0].failure().unwrap(),
        "gang-scheduled MPI unit (24 cores) cannot span YARN containers \
         (max 16 vcores per NodeManager)"
    );
}

#[test]
fn compute_and_native_units_rejected_on_spark_pilot() {
    let ran = std::rc::Rc::new(std::cell::Cell::new(false));
    let ran2 = ran.clone();
    let units = run_on(
        5,
        2,
        AccessMode::SparkModeI,
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
    )
    .units;
    for u in &units {
        assert_eq!(u.state(), UnitState::Failed);
        assert_eq!(
            u.failure().unwrap(),
            "Compute and Native units cannot run on a Spark pilot \
             (it runs SparkJob and Sleep units)"
        );
    }
    assert!(!ran.get(), "a rejected Native closure must never run");
}

#[test]
fn spark_job_wider_than_pilot_rejected() {
    // 2 nodes x 16 cores = 32 executor cores; the job asks for 64.
    let Run {
        engine: e, units, ..
    } = run_on(
        7,
        2,
        AccessMode::SparkModeI,
        vec![ComputeUnitDescription::new("wide", 4, spark_job(64))],
    );
    assert_eq!(units[0].state(), UnitState::Failed);
    assert_eq!(
        units[0].failure().unwrap(),
        "Spark unit needs 64 executor cores, pilot has 32"
    );
    // Rejected at pickup, not after waiting out the 7200 s walltime.
    assert!(e.now() < SimTime::from_secs_f64(600.0), "{}", e.now());
}

#[test]
fn spark_job_executors_spread_over_workers() {
    // 24 executor cores fit no 16-core node, but they fit the pilot.
    let units = run_on(
        8,
        2,
        AccessMode::SparkModeI,
        vec![ComputeUnitDescription::new("spread", 24, spark_job(24))],
    )
    .units;
    assert_eq!(
        units[0].state(),
        UnitState::Done,
        "{:?}",
        units[0].failure()
    );
}

#[test]
fn mapreduce_unit_with_missing_input_fails_alone() {
    let mut e = Engine::new(3);
    let session = Session::new(SessionConfig::test_profile());
    let pm = PilotManager::new(&session);
    let pilot = pm
        .submit(
            &mut e,
            PilotDescription::new("xsede.stampede", 2, SimDuration::from_secs(7200))
                .with_access(AccessMode::YarnModeI { with_hdfs: true }),
        )
        .unwrap();
    while pilot.state() != PilotState::Active {
        assert!(e.step(), "pilot never became active");
    }
    let hdfs = pilot.agent().unwrap().hadoop_env().unwrap().hdfs.unwrap();
    hdfs.create_synthetic(
        "/in",
        256 * 1024 * 1024,
        hadoop_hpc::hdfs::StoragePolicy::Default,
    )
    .unwrap();
    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);
    let mut missing = mr_spec();
    missing.input_path = "/no/such/input".into();
    let units = um.submit_units(
        &mut e,
        vec![
            ComputeUnitDescription::new("missing", 1, WorkSpec::MapReduce(missing)),
            ComputeUnitDescription::new("valid", 1, WorkSpec::MapReduce(mr_spec())),
        ],
    );
    drive(&mut e, &units);
    assert_eq!(units[0].state(), UnitState::Failed);
    let reason = units[0].failure().unwrap();
    assert!(reason.contains("/no/such/input"), "{reason}");
    assert_eq!(
        units[1].state(),
        UnitState::Done,
        "{:?}",
        units[1].failure()
    );
}

// ---- scheduler skip behaviour ----

#[test]
fn small_unit_skips_ahead_of_blocked_wide_unit() {
    // One 16-core node.
    let units = run_on(
        6,
        1,
        AccessMode::Plain,
        vec![
            // Takes most of the node.
            ComputeUnitDescription::new("a", 10, WorkSpec::Sleep(SimDuration::from_secs(100))),
            // Does not fit next to A: blocked until A finishes.
            ComputeUnitDescription::new("b", 10, WorkSpec::Sleep(SimDuration::from_secs(100))),
            // FIFO-with-skip: fits in the 6 cores A left free.
            ComputeUnitDescription::new("c", 4, WorkSpec::Sleep(SimDuration::from_secs(5))),
        ],
    )
    .units;
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
    let pilot = PilotManager::new(&session)
        .submit(
            &mut e,
            PilotDescription::new("xsede.stampede", 1, SimDuration::from_secs(7200)),
        )
        .unwrap();
    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);
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
    let plan = FaultPlan {
        events: vec![FaultEvent {
            at: SimTime::from_secs_f64(150.0),
            kind: FaultKind::NodeCrash { node: 0 },
        }],
    };
    let scenario = Scenario {
        faults: Some(plan),
        ..one_pilot(
            2,
            AccessMode::Plain,
            vec![ComputeUnitDescription::new(
                "survivor",
                1,
                WorkSpec::Sleep(SimDuration::from_secs(600)),
            )],
        )
    };
    let Run {
        engine: e,
        units,
        pilots,
        ..
    } = run(&scenario, Engine::with_trace(9)).expect("simulation stalled");
    let pilot = &pilots[0];
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
