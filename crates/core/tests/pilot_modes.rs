//! Integration tests of the pilot access modes: Mode I (Hadoop on HPC),
//! Mode II (HPC on Hadoop), Spark pilots, and the AM-reuse optimization.

use rp_pilot::*;
use rp_sim::{Engine, SimDuration, SimTime};

fn sleep_unit(name: &str, secs: u64) -> ComputeUnitDescription {
    ComputeUnitDescription::new(name, 1, WorkSpec::Sleep(SimDuration::from_secs(secs)))
}

fn active_pilot(
    engine: &mut Engine,
    session: &Session,
    access: AccessMode,
) -> (PilotManager, PilotHandle) {
    let pm = PilotManager::new(session);
    let pilot = pm
        .submit(
            engine,
            PilotDescription::new("localhost", 2, SimDuration::from_secs(7200)).with_access(access),
        )
        .unwrap();
    engine.run_until(SimTime::from_secs_f64(300.0));
    assert_eq!(pilot.state(), PilotState::Active, "pilot must be active");
    (pm, pilot)
}

#[test]
fn mode_i_pilot_runs_units_through_yarn() {
    let mut e = Engine::new(11);
    let session = Session::new(SessionConfig::test_profile());
    let (_pm, pilot) = active_pilot(&mut e, &session, AccessMode::YarnModeI { with_hdfs: false });
    let agent = pilot.agent().unwrap();
    assert!(agent.hadoop_env().is_some());
    assert!(agent.framework_bootstrap_time().as_secs_f64() > 0.0);

    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);
    let units = um.submit_units(
        &mut e,
        (0..4).map(|i| sleep_unit(&format!("u{i}"), 3)).collect(),
    );
    e.run_until(SimTime::from_secs_f64(600.0));
    for u in &units {
        assert_eq!(
            u.state(),
            UnitState::Done,
            "{:?}: {:?}",
            u.id(),
            u.failure()
        );
        assert!(!u.exec_nodes().is_empty());
    }
}

#[test]
fn yarn_unit_startup_exceeds_plain_startup() {
    // The Fig. 5 inset effect: two-stage AM+container allocation makes
    // YARN CU startup much larger than plain fork startup.
    let startup = |access: AccessMode, seed: u64| {
        let mut e = Engine::new(seed);
        let mut cfg = SessionConfig::test_profile();
        // Realistic YARN latencies, fast everything else.
        cfg.yarn.nm_heartbeat_ms = 1_000;
        cfg.yarn.am_launch_s = (8.0, 0.5);
        cfg.yarn.container_launch_s = (2.0, 0.3);
        cfg.yarn.app_submit_s = (1.0, 0.1);
        let session = Session::new(cfg);
        let (_pm, pilot) = active_pilot(&mut e, &session, access);
        let mut um = UnitManager::new(&session, UmScheduler::Direct);
        um.add_pilot(&pilot);
        let units = um.submit_units(&mut e, vec![sleep_unit("probe", 1)]);
        e.run_until(SimTime::from_secs_f64(900.0));
        assert_eq!(
            units[0].state(),
            UnitState::Done,
            "{:?}",
            units[0].failure()
        );
        units[0].times().startup_time().unwrap().as_secs_f64()
    };
    let plain = startup(AccessMode::Plain, 21);
    let yarn = startup(AccessMode::YarnModeI { with_hdfs: false }, 21);
    assert!(
        yarn > plain + 8.0,
        "yarn startup {yarn} should far exceed plain {plain}"
    );
}

#[test]
fn mode_ii_connects_to_dedicated_cluster() {
    let mut e = Engine::new(13);
    let session = Session::new(SessionConfig::test_profile());
    let pm = PilotManager::new(&session);
    // Wrangler offers the dedicated environment.
    let pilot = pm
        .submit(
            &mut e,
            PilotDescription::new("xsede.wrangler", 1, SimDuration::from_secs(7200))
                .with_access(AccessMode::YarnModeII),
        )
        .unwrap();
    e.run_until(SimTime::from_secs_f64(300.0));
    assert_eq!(pilot.state(), PilotState::Active);
    let agent = pilot.agent().unwrap();
    // Mode II: connect only — bootstrap is a fraction of a Mode I one.
    assert!(agent.framework_bootstrap_time().as_secs_f64() < 5.0);

    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);
    let units = um.submit_units(&mut e, vec![sleep_unit("probe", 2)]);
    e.run_until(SimTime::from_secs_f64(600.0));
    assert_eq!(
        units[0].state(),
        UnitState::Done,
        "{:?}",
        units[0].failure()
    );
}

#[test]
fn mode_i_bootstrap_slower_than_mode_ii() {
    let boot = |access: AccessMode| {
        let mut e = Engine::new(17);
        let mut cfg = SessionConfig::test_profile();
        cfg.yarn = rp_yarn::YarnConfig::default(); // realistic bootstrap
        let session = Session::new(cfg);
        let pm = PilotManager::new(&session);
        let pilot = pm
            .submit(
                &mut e,
                PilotDescription::new("xsede.wrangler", 1, SimDuration::from_secs(7200))
                    .with_access(access),
            )
            .unwrap();
        e.run_until(SimTime::from_secs_f64(600.0));
        assert_eq!(pilot.state(), PilotState::Active);
        pilot
            .agent()
            .unwrap()
            .framework_bootstrap_time()
            .as_secs_f64()
    };
    let mode_i = boot(AccessMode::YarnModeI { with_hdfs: true });
    let mode_ii = boot(AccessMode::YarnModeII);
    assert!(mode_i > 40.0, "mode I bootstrap {mode_i}");
    assert!(mode_ii < 5.0, "mode II connect {mode_ii}");
}

#[test]
fn am_reuse_cuts_subsequent_unit_startup() {
    let run = |reuse: bool| {
        let mut e = Engine::new(23);
        let mut cfg = SessionConfig::test_profile();
        cfg.am_reuse = reuse;
        cfg.yarn.nm_heartbeat_ms = 1_000;
        cfg.yarn.am_launch_s = (10.0, 0.0);
        cfg.yarn.container_launch_s = (2.0, 0.0);
        cfg.yarn.app_submit_s = (1.0, 0.0);
        let session = Session::new(cfg);
        let (_pm, pilot) =
            active_pilot(&mut e, &session, AccessMode::YarnModeI { with_hdfs: false });
        let mut um = UnitManager::new(&session, UmScheduler::Direct);
        um.add_pilot(&pilot);
        // Sequential units: submit the second after the first finishes.
        let first = um.submit_units(&mut e, vec![sleep_unit("a", 1)]);
        e.run_until(SimTime::from_secs_f64(600.0));
        assert_eq!(first[0].state(), UnitState::Done);
        let second = um.submit_units(&mut e, vec![sleep_unit("b", 1)]);
        e.run_until(SimTime::from_secs_f64(1200.0));
        assert_eq!(second[0].state(), UnitState::Done);
        second[0].times().startup_time().unwrap().as_secs_f64()
    };
    let without = run(false);
    let with = run(true);
    assert!(
        without - with > 8.0,
        "AM reuse should skip submission+AM launch: {with} vs {without}"
    );
}

#[test]
fn spark_pilot_runs_spark_apps() {
    let mut e = Engine::new(29);
    let session = Session::new(SessionConfig::test_profile());
    let (_pm, pilot) = active_pilot(&mut e, &session, AccessMode::SparkModeI);
    let agent = pilot.agent().unwrap();
    assert!(agent.spark_cluster().is_some());
    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);
    let units = um.submit_units(
        &mut e,
        // A Sleep unit runs as a one-stage app on 4 executor cores.
        vec![ComputeUnitDescription::new(
            "spark-job",
            4,
            WorkSpec::Sleep(SimDuration::from_secs(10)),
        )],
    );
    e.run_until(SimTime::from_secs_f64(600.0));
    assert_eq!(
        units[0].state(),
        UnitState::Done,
        "{:?}",
        units[0].failure()
    );
    assert!(!units[0].exec_nodes().is_empty());
    // 10 s on 4 cores → ~10 s execution.
    let exec = units[0].times().execution_time().unwrap().as_secs_f64();
    assert!((9.0..12.0).contains(&exec), "{exec}");
}

#[test]
fn spark_job_records_its_executor_nodes() {
    let mut e = Engine::new(29);
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
    // 24 executor cores fit no 16-core Stampede node, so both workers
    // host executors.
    let job = WorkSpec::SparkJob(rp_spark::SparkJobSpec {
        name: "spread".into(),
        executor_cores: 24,
        stages: vec![rp_spark::SparkStage {
            name: "map".into(),
            compute_core_s: 240.0,
            input_read_mb: 0.0,
            shuffle_mb: 0.0,
        }],
        jitter_sigma: 0.0,
    });
    let units = um.submit_units(&mut e, vec![ComputeUnitDescription::new("spread", 24, job)]);
    e.run_until(SimTime::from_secs_f64(1200.0));
    assert_eq!(
        units[0].state(),
        UnitState::Done,
        "{:?}",
        units[0].failure()
    );
    let nodes = units[0].exec_nodes();
    assert_eq!(nodes.len(), 2, "{nodes:?}");
    assert_ne!(nodes[0], nodes[1]);
}

#[test]
fn mapreduce_unit_runs_on_mode_i_pilot() {
    let mut e = Engine::new(31);
    let session = Session::new(SessionConfig::test_profile());
    let (_pm, pilot) = active_pilot(&mut e, &session, AccessMode::YarnModeI { with_hdfs: true });
    let env = pilot.agent().unwrap().hadoop_env().unwrap();
    let hdfs = env.hdfs.clone().unwrap();
    hdfs.create_synthetic(
        "/data/in",
        256 * 1024 * 1024,
        rp_hdfs::StoragePolicy::Default,
    )
    .unwrap();

    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);
    let units = um.submit_units(
        &mut e,
        vec![ComputeUnitDescription::new(
            "mr",
            1,
            WorkSpec::MapReduce(rp_mapreduce::MrJobSpec {
                name: "wordcount".into(),
                input_path: "/data/in".into(),
                num_reducers: 2,
                container: rp_yarn::Resource::new(1, 1024),
                shuffle: rp_mapreduce::ShuffleBackend::LocalDisk,
                cost: rp_mapreduce::MrCostModel::default(),
            }),
        )],
    );
    e.run_until(SimTime::from_secs_f64(1200.0));
    assert_eq!(
        units[0].state(),
        UnitState::Done,
        "{:?}",
        units[0].failure()
    );
    let stats = units[0].mr_stats().expect("MR stats recorded");
    assert_eq!(stats.maps, 2); // 256 MB / 128 MB
    assert_eq!(stats.reducers, 2);
}

fn mr_unit(name: &str, vcores: u32, mem_mb: u64) -> ComputeUnitDescription {
    ComputeUnitDescription::new(
        name,
        1,
        WorkSpec::MapReduce(rp_mapreduce::MrJobSpec {
            name: name.into(),
            input_path: "/data/in".into(),
            num_reducers: 1,
            container: rp_yarn::Resource::new(vcores, mem_mb),
            shuffle: rp_mapreduce::ShuffleBackend::LocalDisk,
            cost: rp_mapreduce::MrCostModel::default(),
        }),
    )
}

#[test]
fn mode_i_admission_is_fifo_with_skip() {
    // The Mode I gate admits a MapReduce unit only when its AM plus one
    // task container fit the YARN capacity not already promised to
    // in-flight units. On 2 × 8 vcores, `big0` (1 + 8 vcores) fits an
    // idle cluster; `big1` behind it does not fit what is left, so the
    // scan skips it and admits the small units queued behind it.
    // `big1` starts only after capacity comes back.
    let mut e = Engine::new(43);
    let session = Session::new(SessionConfig::test_profile());
    let (_pm, pilot) = active_pilot(&mut e, &session, AccessMode::YarnModeI { with_hdfs: true });
    let env = pilot.agent().unwrap().hadoop_env().unwrap();
    env.hdfs
        .clone()
        .unwrap()
        .create_synthetic(
            "/data/in",
            256 * 1024 * 1024,
            rp_hdfs::StoragePolicy::Default,
        )
        .unwrap();
    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);
    let units = um.submit_units(
        &mut e,
        vec![
            mr_unit("big0", 8, 4096),
            mr_unit("big1", 8, 4096),
            mr_unit("small0", 1, 1024),
            mr_unit("small1", 2, 1024),
        ],
    );
    e.run_until(SimTime::from_secs_f64(3600.0));
    for u in &units {
        assert_eq!(
            u.state(),
            UnitState::Done,
            "{}: {:?}",
            u.name(),
            u.failure()
        );
    }
    let starts: Vec<SimTime> = units
        .iter()
        .map(|u| u.times().exec_start.unwrap())
        .collect();
    // The spawner launches serially in admission order, so `exec_start`
    // orders the admissions: big0, small0, small1, then big1.
    let mut order: Vec<usize> = (0..units.len()).collect();
    order.sort_by_key(|&i| starts[i]);
    let names: Vec<String> = order.iter().map(|&i| units[i].name()).collect();
    assert_eq!(names, ["big0", "small0", "small1", "big1"]);
    // Exact start times pin the admission instants, not just their order.
    assert_eq!(
        starts,
        [
            SimTime(300_096_162),
            SimTime(662_255_774),
            SimTime(300_146_162),
            SimTime(300_196_162),
        ]
    );
}

#[test]
fn spark_unit_on_plain_pilot_fails_cleanly() {
    let mut e = Engine::new(37);
    let session = Session::new(SessionConfig::test_profile());
    let (_pm, pilot) = active_pilot(&mut e, &session, AccessMode::Plain);
    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);
    let units = um.submit_units(
        &mut e,
        vec![ComputeUnitDescription::new(
            "spark",
            2,
            WorkSpec::SparkJob(rp_spark::SparkJobSpec {
                name: "spark".into(),
                executor_cores: 2,
                stages: Vec::new(),
                jitter_sigma: 0.0,
            }),
        )],
    );
    e.run_until(SimTime::from_secs_f64(600.0));
    assert_eq!(units[0].state(), UnitState::Failed);
    assert!(units[0].failure().unwrap().contains("Spark"));
}

#[test]
fn staging_directives_execute_in_order() {
    let mut e = Engine::new(41);
    let session = Session::new(SessionConfig::test_profile());
    let (_pm, pilot) = active_pilot(&mut e, &session, AccessMode::Plain);
    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);
    let unit = ComputeUnitDescription::new("staged", 1, WorkSpec::Sleep(SimDuration::from_secs(1)))
        .stage_in(StagingDirective {
            bytes: 200.0 * rp_sim::MB,
            from: StageEndpoint::Lustre,
            to: StageEndpoint::ExecNode,
        })
        .stage_out(StagingDirective {
            bytes: 50.0 * rp_sim::MB,
            from: StageEndpoint::ExecNode,
            to: StageEndpoint::Lustre,
        });
    let units = um.submit_units(&mut e, vec![unit]);
    e.run_until(SimTime::from_secs_f64(600.0));
    assert_eq!(
        units[0].state(),
        UnitState::Done,
        "{:?}",
        units[0].failure()
    );
    // Total time must include both staging legs (≥1 s of I/O beyond sleep).
    let total = units[0].times().total_time().unwrap().as_secs_f64();
    let exec = units[0].times().execution_time().unwrap().as_secs_f64();
    assert!(total > exec + 0.5, "total {total} exec {exec}");
}

#[test]
fn deterministic_pilot_runs_with_same_seed() {
    let run = || {
        let mut e = Engine::new(99);
        let session = Session::new(SessionConfig::test_profile());
        let (_pm, pilot) =
            active_pilot(&mut e, &session, AccessMode::YarnModeI { with_hdfs: false });
        let mut um = UnitManager::new(&session, UmScheduler::Direct);
        um.add_pilot(&pilot);
        let units = um.submit_units(
            &mut e,
            (0..3).map(|i| sleep_unit(&format!("u{i}"), 2)).collect(),
        );
        e.run_until(SimTime::from_secs_f64(900.0));
        units
            .iter()
            .map(|u| u.times().done.unwrap())
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn preempted_yarn_unit_restarts_and_completes() {
    let mut e = Engine::with_trace(47);
    let session = Session::new(SessionConfig::test_profile());
    let (_pm, pilot) = active_pilot(&mut e, &session, AccessMode::YarnModeI { with_hdfs: false });
    let env = pilot.agent().unwrap().hadoop_env().unwrap();
    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);
    // A long unit so we can preempt it mid-flight.
    let units = um.submit_units(&mut e, vec![sleep_unit("victim", 30)]);
    // Wait until it is executing, then preempt its container.
    while units[0].state() != UnitState::Executing {
        assert!(e.step(), "unit never reached Executing");
    }
    let t_exec = e.now();
    let victims = env.yarn.preempt(&mut e, 1);
    assert_eq!(victims.len(), 1, "task container should be preemptible");
    // The unit must still finish (restarted on a fresh container).
    e.run_until(SimTime::from_secs_f64(t_exec.as_secs_f64() + 300.0));
    assert_eq!(
        units[0].state(),
        UnitState::Done,
        "{:?}",
        units[0].failure()
    );
    // The agent logged the preemption restart, and the work was redone
    // from scratch (done ≥ preemption instant + full 30 s sleep).
    assert!(
        e.trace.find("re-requesting").is_some(),
        "restart should be traced"
    );
    let done = units[0].times().done.unwrap().as_secs_f64();
    assert!(
        done >= t_exec.as_secs_f64() + 30.0,
        "work redone from scratch: done {done}, preempted at {t_exec}"
    );
}

#[test]
fn docker_pilot_units_pay_image_pull_once() {
    let mut cfg = SessionConfig::test_profile();
    cfg.yarn.container_runtime = rp_yarn::ContainerRuntime::Docker {
        image_pull_s: (8.0, 0.0),
        start_overhead_s: 0.2,
    };
    let mut e = Engine::new(53);
    let session = Session::new(cfg);
    let (_pm, pilot) = active_pilot(&mut e, &session, AccessMode::YarnModeI { with_hdfs: false });
    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);
    // Two sequential units on the same (2-node) pilot.
    let first = um.submit_units(&mut e, vec![sleep_unit("a", 1)]);
    e.run_until(SimTime::from_secs_f64(500.0));
    assert_eq!(first[0].state(), UnitState::Done);
    let second = um.submit_units(&mut e, vec![sleep_unit("b", 1)]);
    e.run_until(SimTime::from_secs_f64(900.0));
    assert_eq!(second[0].state(), UnitState::Done);
    let s1 = first[0].times().startup_time().unwrap().as_secs_f64();
    // First unit: AM pull (+ possibly task-container pull on the other
    // node) → slow; warm node caches make later pulls disappear.
    assert!(s1 > 8.0, "first unit pays at least one pull: {s1}");
}

#[test]
fn gang_scheduled_mpi_rejected_on_yarn_pilot() {
    // Paper §II: YARN poorly supports gang-scheduled MPI; a container
    // cannot span NodeManagers, so a multi-node MPI unit must fail fast.
    let mut e = Engine::new(59);
    let session = Session::new(SessionConfig::test_profile());
    let (_pm, pilot) = active_pilot(&mut e, &session, AccessMode::YarnModeI { with_hdfs: false });
    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);
    // localhost: 8 cores/node, pilot has 2 nodes → 12-core MPI unit fits
    // the allocation but not a single container.
    let units = um.submit_units(
        &mut e,
        vec![
            ComputeUnitDescription::new("mpi", 12, WorkSpec::Sleep(SimDuration::from_secs(1)))
                .with_mpi(),
        ],
    );
    e.run_until(SimTime::from_secs_f64(600.0));
    assert_eq!(units[0].state(), UnitState::Failed);
    assert!(units[0].failure().unwrap().contains("gang"));

    // The same unit on a plain pilot spans nodes and succeeds.
    let mut e = Engine::new(61);
    let session = Session::new(SessionConfig::test_profile());
    let (_pm2, plain) = active_pilot(&mut e, &session, AccessMode::Plain);
    let mut um2 = UnitManager::new(&session, UmScheduler::Direct);
    um2.add_pilot(&plain);
    let units = um2.submit_units(
        &mut e,
        vec![
            ComputeUnitDescription::new("mpi2", 12, WorkSpec::Sleep(SimDuration::from_secs(1)))
                .with_mpi(),
        ],
    );
    while units.iter().any(|u| !u.state().is_final()) {
        assert!(e.step());
    }
    assert_eq!(
        units[0].state(),
        UnitState::Done,
        "{:?}",
        units[0].failure()
    );
    assert!(units[0].exec_nodes().len() >= 2, "MPI unit spans nodes");
}

#[test]
fn unit_survives_yarn_node_failure() {
    // A NodeManager dies mid-execution; the preemption-restart path must
    // re-place the unit on a surviving node and finish the work.
    let mut e = Engine::with_trace(67);
    let session = Session::new(SessionConfig::test_profile());
    let (_pm, pilot) = active_pilot(&mut e, &session, AccessMode::YarnModeI { with_hdfs: false });
    let env = pilot.agent().unwrap().hadoop_env().unwrap();
    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);
    let units = um.submit_units(&mut e, vec![sleep_unit("survivor", 30)]);
    while units[0].state() != UnitState::Executing {
        assert!(e.step(), "unit never reached Executing");
    }
    let node = units[0].exec_nodes()[0];
    let lost = env.yarn.fail_node(&mut e, node);
    assert!(!lost.is_empty(), "the unit's container was on the node");
    let horizon = e.now().as_secs_f64() + 300.0;
    e.run_until(SimTime::from_secs_f64(horizon));
    assert_eq!(
        units[0].state(),
        UnitState::Done,
        "{:?}",
        units[0].failure()
    );
    // The restart landed on a different (surviving) node.
    assert_ne!(units[0].exec_nodes()[0], node);
    assert!(e.trace.find("re-requesting").is_some());
}
