//! Cross-crate end-to-end tests: multi-pilot sessions across machines,
//! mixed HPC + Hadoop workloads, and the coupled simulation→analysis
//! pipeline the paper motivates.

use hadoop_hpc::pilot::*;
use hadoop_hpc::sim::{Engine, SimDuration};
use rp_bench::scenario::{run, Run, Scenario};

fn drive_until_final(engine: &mut Engine, units: &[UnitHandle]) {
    while units.iter().any(|u| !u.state().is_final()) {
        assert!(engine.step(), "engine drained before units finished");
    }
}

#[test]
fn two_machines_one_unit_manager() {
    let scenario = Scenario {
        config: SessionConfig::test_profile(),
        pilots: ["xsede.stampede", "xsede.wrangler"]
            .map(|m| PilotDescription::new(m, 1, SimDuration::from_secs(7200)))
            .into(),
        scheduler: UmScheduler::RoundRobin,
        leases: None,
        faults: None,
        units: (0..10)
            .map(|i| {
                ComputeUnitDescription::new(
                    format!("u{i}"),
                    2,
                    WorkSpec::Compute {
                        core_seconds: 60.0,
                        read_mb: 10.0,
                        write_mb: 10.0,
                        io: UnitIoTarget::Lustre,
                    },
                )
            })
            .collect(),
    };
    let Run { units, pilots, .. } = run(&scenario, Engine::new(1)).expect("the session completes");
    let (p_stampede, p_wrangler) = (&pilots[0], &pilots[1]);
    assert!(units.iter().all(|u| u.state() == UnitState::Done));
    // Both pilots got work.
    assert_eq!(p_stampede.assigned_units(), 5);
    assert_eq!(p_wrangler.assigned_units(), 5);
    // Wrangler's faster cores finish the same work quicker.
    let mean_exec = |pilot: &PilotHandle| {
        let xs: Vec<f64> = units
            .iter()
            .filter(|u| u.pilot() == Some(pilot.id()))
            .map(|u| u.times().execution_time().unwrap().as_secs_f64())
            .collect();
        xs.iter().sum::<f64>() / xs.len() as f64
    };
    assert!(mean_exec(p_wrangler) < mean_exec(p_stampede));
}

#[test]
fn hybrid_pipeline_hpc_stage_then_mapreduce_stage() {
    // The integration the paper is about: simulation CUs on a plain view
    // of the pilot, then a MapReduce analysis on the same pilot's Mode I
    // Hadoop environment.
    let mut e = Engine::new(3);
    let session = Session::new(SessionConfig::test_profile());
    let pm = PilotManager::new(&session);
    let pilot = pm
        .submit(
            &mut e,
            PilotDescription::new("localhost", 3, SimDuration::from_secs(7200))
                .with_access(AccessMode::YarnModeI { with_hdfs: true }),
        )
        .unwrap();
    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);

    // Stage 1: "simulations" (sleep CUs through the YARN path).
    let sims = um.submit_units(
        &mut e,
        (0..4)
            .map(|i| {
                ComputeUnitDescription::new(
                    format!("sim{i}"),
                    1,
                    WorkSpec::Sleep(SimDuration::from_secs(10)),
                )
            })
            .collect(),
    );
    drive_until_final(&mut e, &sims);
    assert!(sims.iter().all(|u| u.state() == UnitState::Done));

    // Stage 2: register the "trajectory output" in HDFS and analyse it
    // with a MapReduce unit on the same pilot.
    let env = pilot.agent().unwrap().hadoop_env().unwrap();
    let hdfs = env.hdfs.clone().unwrap();
    hdfs.create_synthetic(
        "/traj/gen0",
        384 * 1024 * 1024,
        hadoop_hpc::hdfs::StoragePolicy::Default,
    )
    .unwrap();
    let analysis = um.submit_units(
        &mut e,
        vec![ComputeUnitDescription::new(
            "analysis",
            1,
            WorkSpec::MapReduce(hadoop_hpc::mapreduce::MrJobSpec {
                name: "traj-analysis".into(),
                input_path: "/traj/gen0".into(),
                num_reducers: 2,
                container: hadoop_hpc::yarn::Resource::new(1, 1024),
                shuffle: hadoop_hpc::mapreduce::ShuffleBackend::LocalDisk,
                cost: hadoop_hpc::mapreduce::MrCostModel::default(),
            }),
        )],
    );
    drive_until_final(&mut e, &analysis);
    assert_eq!(
        analysis[0].state(),
        UnitState::Done,
        "{:?}",
        analysis[0].failure()
    );
    let stats = analysis[0].mr_stats().unwrap();
    assert_eq!(stats.maps, 3); // 384 MB / 128 MB blocks
    assert!(stats.total.as_secs_f64() > 0.0);
}

#[test]
fn pilot_walltime_cancels_leftover_units() {
    let mut e = Engine::new(4);
    let session = Session::new(SessionConfig::test_profile());
    let pm = PilotManager::new(&session);
    let pilot = pm
        .submit(
            &mut e,
            // Walltime shorter than the workload.
            PilotDescription::new("localhost", 1, SimDuration::from_secs(60)),
        )
        .unwrap();
    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);
    // 8 cores/node; 20 units × 8 cores × 30 s → far beyond walltime.
    let units = um.submit_units(
        &mut e,
        (0..20)
            .map(|i| {
                ComputeUnitDescription::new(
                    format!("u{i}"),
                    8,
                    WorkSpec::Sleep(SimDuration::from_secs(30)),
                )
            })
            .collect(),
    );
    e.run();
    assert_eq!(pilot.state(), PilotState::Done); // walltime expiry
    let done = units
        .iter()
        .filter(|u| u.state() == UnitState::Done)
        .count();
    let canceled = units
        .iter()
        .filter(|u| u.state() == UnitState::Canceled)
        .count();
    assert!(done >= 1, "some units should have finished");
    assert!(canceled >= 1, "queued units must be canceled at teardown");
}

#[test]
fn trace_records_full_causal_chain() {
    let scenario = Scenario {
        config: SessionConfig::test_profile(),
        pilots: vec![
            PilotDescription::new("localhost", 1, SimDuration::from_secs(600))
                .with_access(AccessMode::YarnModeI { with_hdfs: false }),
        ],
        scheduler: UmScheduler::Direct,
        leases: None,
        faults: None,
        units: vec![ComputeUnitDescription::new(
            "traced",
            1,
            WorkSpec::Sleep(SimDuration::from_secs(2)),
        )],
    };
    let e = run(&scenario, Engine::with_trace(5))
        .expect("the unit completes")
        .engine;
    for needle in [
        "PendingLaunch",
        "radical-pilot-agent",
        "mode-I bootstrap",
        "active",
        "UmScheduling",
        "Executing",
        "Done",
    ] {
        assert!(e.trace.find(needle).is_some(), "trace missing '{needle}'");
    }
    // Causality: unit Done after pilot active.
    let active_t = e.trace.find("active").unwrap().time;
    let done_t = e.trace.find("-> Done").unwrap().time;
    assert!(done_t > active_t);
}

#[test]
fn three_stage_dependent_workflow() {
    // Ingest → simulate (fan-out) → analyse, wired with unit dependencies
    // (the paper's "set of dependent CUs") instead of manual driving.
    let mut e = Engine::new(6);
    let session = Session::new(SessionConfig::test_profile());
    let pm = PilotManager::new(&session);
    let pilot = pm
        .submit(
            &mut e,
            PilotDescription::new("localhost", 2, SimDuration::from_secs(7200)),
        )
        .unwrap();
    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);

    let ingest = um.submit_units(
        &mut e,
        vec![ComputeUnitDescription::new(
            "ingest",
            1,
            WorkSpec::Compute {
                core_seconds: 5.0,
                read_mb: 100.0,
                write_mb: 100.0,
                io: UnitIoTarget::Lustre,
            },
        )],
    );
    let sims = um.submit_units_after(
        &mut e,
        (0..6)
            .map(|i| {
                ComputeUnitDescription::new(
                    format!("sim{i}"),
                    2,
                    WorkSpec::Compute {
                        core_seconds: 40.0,
                        read_mb: 20.0,
                        write_mb: 50.0,
                        io: UnitIoTarget::Lustre,
                    },
                )
            })
            .collect(),
        &ingest,
    );
    let analysis = um.submit_units_after(
        &mut e,
        vec![ComputeUnitDescription::new(
            "analysis",
            4,
            WorkSpec::Compute {
                core_seconds: 60.0,
                read_mb: 300.0,
                write_mb: 10.0,
                io: UnitIoTarget::Lustre,
            },
        )],
        &sims,
    );
    while analysis.iter().any(|u| !u.state().is_final()) {
        assert!(e.step(), "engine drained before workflow finished");
    }
    assert!(analysis.iter().all(|u| u.state() == UnitState::Done));
    // Strict stage ordering.
    let t_ingest_done = ingest[0].times().done.unwrap();
    let t_sims_start = sims
        .iter()
        .map(|u| u.times().exec_start.unwrap())
        .min()
        .unwrap();
    let t_sims_done = sims.iter().map(|u| u.times().done.unwrap()).max().unwrap();
    let t_analysis_start = analysis[0].times().exec_start.unwrap();
    assert!(t_sims_start > t_ingest_done);
    assert!(t_analysis_start > t_sims_done);
}
