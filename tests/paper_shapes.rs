//! Reduced-size versions of the paper's headline results, checked as part
//! of the ordinary test suite (the full sweeps live in `rp-bench`).

use hadoop_hpc::analytics::{
    fig6_session_config, run_rp_kmeans, run_rp_yarn_kmeans, KMeansCalibration, SCENARIOS,
};
use hadoop_hpc::pilot::*;
use hadoop_hpc::sim::{Engine, SimDuration};
use rp_bench::scenario::{run, Scenario};

/// Fig. 5 (main): Mode I adds a bootstrap in the paper's 50–85 s band;
/// Mode II is comparable to plain RP.
#[test]
fn fig5_pilot_startup_shape() {
    let startup = |resource: &str, access: AccessMode, seed: u64| -> (f64, f64) {
        let mut e = Engine::new(seed);
        let session = Session::new(SessionConfig::default());
        let pm = PilotManager::new(&session);
        let pilot = pm
            .submit(
                &mut e,
                PilotDescription::new(resource, 1, SimDuration::from_secs(3600))
                    .with_access(access),
            )
            .unwrap();
        while pilot.state() != PilotState::Active {
            assert!(e.step());
        }
        let s = pilot.times().startup_time().unwrap().as_secs_f64();
        let b = pilot
            .agent()
            .unwrap()
            .framework_bootstrap_time()
            .as_secs_f64();
        (s, b)
    };
    let (rp, _) = startup("xsede.stampede", AccessMode::Plain, 2);
    let (mode1, boot1) = startup(
        "xsede.stampede",
        AccessMode::YarnModeI { with_hdfs: true },
        2,
    );
    let (mode2_w, _) = startup("xsede.wrangler", AccessMode::YarnModeII, 2);
    let (rp_w, _) = startup("xsede.wrangler", AccessMode::Plain, 2);

    assert!((45.0..95.0).contains(&boot1), "Mode I bootstrap {boot1}");
    assert!(mode1 > rp + 40.0, "Mode I {mode1} vs plain {rp}");
    assert!(
        (mode2_w - rp_w).abs() < 12.0,
        "Mode II {mode2_w} ≈ plain {rp_w} on Wrangler"
    );
}

/// Fig. 5 (inset): YARN CU startup far exceeds the plain fork path.
#[test]
fn fig5_unit_startup_shape() {
    let startup = |access: AccessMode| -> f64 {
        let mut e = Engine::new(3);
        let session = Session::new(SessionConfig::default());
        let pm = PilotManager::new(&session);
        let pilot = pm
            .submit(
                &mut e,
                PilotDescription::new("xsede.stampede", 1, SimDuration::from_secs(3600))
                    .with_access(access),
            )
            .unwrap();
        while pilot.state() != PilotState::Active {
            assert!(e.step());
        }
        let mut um = UnitManager::new(&session, UmScheduler::Direct);
        um.add_pilot(&pilot);
        let units = um.submit_units(
            &mut e,
            vec![ComputeUnitDescription::new(
                "probe",
                1,
                WorkSpec::Sleep(SimDuration::from_secs(5)),
            )],
        );
        while !units[0].state().is_final() {
            assert!(e.step());
        }
        assert_eq!(units[0].state(), UnitState::Done);
        units[0].times().startup_time().unwrap().as_secs_f64()
    };
    let plain = startup(AccessMode::Plain);
    let yarn = startup(AccessMode::YarnModeI { with_hdfs: false });
    assert!(plain < 10.0, "plain CU startup {plain}");
    assert!(
        (15.0..60.0).contains(&yarn),
        "YARN CU startup {yarn} (paper: tens of seconds)"
    );
    assert!(yarn / plain > 4.0);
}

/// Fig. 6 core shape on one cell pair (Wrangler, 1M points): YARN loses
/// at 8 tasks (bootstrap), wins at 32 (in-framework fan-out + local
/// disks), with YARN's speedup above RP's.
#[test]
fn fig6_kmeans_shape() {
    let cal = KMeansCalibration::default();
    let scenario = SCENARIOS[2];
    let cell = |yarn: bool, tasks: u32| -> f64 {
        let mut e = Engine::new(100 + tasks as u64);
        let session = Session::new(fig6_session_config());
        if yarn {
            run_rp_yarn_kmeans(&mut e, &session, "xsede.wrangler", tasks, scenario, &cal)
                .time_to_completion
        } else {
            run_rp_kmeans(&mut e, &session, "xsede.wrangler", tasks, scenario, &cal)
                .time_to_completion
        }
    };
    let rp8 = cell(false, 8);
    let rp32 = cell(false, 32);
    let yarn8 = cell(true, 8);
    let yarn32 = cell(true, 32);

    assert!(yarn8 > rp8, "YARN overhead at 8 tasks: {yarn8} vs {rp8}");
    assert!(yarn32 < rp32, "YARN wins at 32 tasks: {yarn32} vs {rp32}");
    let rp_speedup = rp8 / rp32;
    let yarn_speedup = yarn8 / yarn32;
    assert!(
        yarn_speedup > rp_speedup,
        "speedups: YARN {yarn_speedup:.2} vs RP {rp_speedup:.2} (paper: 3.2 vs 2.4)"
    );
    assert!(rp_speedup > 1.5 && yarn_speedup > 2.0);
}

/// The plain scheduler's memory-pressure model: a cores-only scheduler
/// that oversubscribes node memory slows compute down (the Stampede
/// 32 GB effect of §IV-B).
#[test]
fn memory_pressure_slows_oversubscribed_nodes() {
    let exec_time = |mem_mb: u64| -> f64 {
        // One localhost node: 8 cores, 16 GB.
        let scenario = Scenario {
            config: SessionConfig::test_profile(),
            pilots: vec![PilotDescription::new(
                "localhost",
                1,
                SimDuration::from_secs(7200),
            )],
            scheduler: UmScheduler::Direct,
            leases: None,
            faults: None,
            units: (0..8)
                .map(|i| {
                    ComputeUnitDescription::new(
                        format!("u{i}"),
                        1,
                        WorkSpec::Compute {
                            core_seconds: 60.0,
                            read_mb: 0.0,
                            write_mb: 0.0,
                            io: UnitIoTarget::Lustre,
                        },
                    )
                    .with_memory(mem_mb)
                })
                .collect(),
        };
        let units = run(&scenario, Engine::new(9)).unwrap().units;
        units
            .iter()
            .map(|u| u.times().execution_time().unwrap().as_secs_f64())
            .fold(0.0, f64::max)
    };
    // 8 × 1 GB = 8 GB < 16 GB: no pressure. 8 × 4 GB = 32 GB: 2× over.
    let light = exec_time(1024);
    let heavy = exec_time(4096);
    assert!(
        heavy > light * 1.3,
        "oversubscription must slow compute: {heavy} vs {light}"
    );
}
