//! Workloads shared by more than one integration test.

use hadoop_hpc::pilot::*;
use hadoop_hpc::sim::{Engine, SimDuration};

/// The `determinism.rs` mixed workload, but traced: a 2-node pilot with the
/// given access mode running 12 heterogeneous Compute units to completion,
/// then canceled so every lifecycle span closes.
pub fn traced_mixed(seed: u64, machine: &str, access: AccessMode) -> Engine {
    let mut e = Engine::with_trace(seed);
    let session = Session::new(SessionConfig::test_profile());
    let pm = PilotManager::new(&session);
    let pilot = pm
        .submit(
            &mut e,
            PilotDescription::new(machine, 2, SimDuration::from_secs(7200)).with_access(access),
        )
        .unwrap();
    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);
    let units = um.submit_units(
        &mut e,
        (0..12)
            .map(|i| {
                ComputeUnitDescription::new(
                    format!("u{i}"),
                    1 + (i % 4),
                    WorkSpec::Compute {
                        core_seconds: 30.0 + i as f64,
                        read_mb: 5.0 * i as f64,
                        write_mb: 2.0 * i as f64,
                        io: if i % 2 == 0 {
                            UnitIoTarget::Lustre
                        } else {
                            UnitIoTarget::LocalDisk
                        },
                    },
                )
            })
            .collect(),
    );
    while units.iter().any(|u| !u.state().is_final()) {
        assert!(e.step(), "simulation stalled with live units");
    }
    pm.cancel(&mut e, &pilot);
    e.run();
    e
}
