//! Workloads shared by more than one integration test.

use hadoop_hpc::pilot::*;
use hadoop_hpc::sim::{Engine, SimDuration};
use rp_bench::scenario::{run, Scenario};

/// The mixed workload: a 2-node pilot with the given access mode running
/// 12 heterogeneous Compute units, half on Lustre, half on local disk.
pub fn mixed(machine: &str, access: AccessMode) -> Scenario {
    Scenario {
        config: SessionConfig::test_profile(),
        pilots: vec![
            PilotDescription::new(machine, 2, SimDuration::from_secs(7200)).with_access(access),
        ],
        scheduler: UmScheduler::Direct,
        leases: None,
        faults: None,
        units: (0..12)
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
    }
}

/// The mixed workload, traced: run to completion, then the pilot is
/// canceled so every lifecycle span closes.
pub fn traced_mixed(seed: u64, machine: &str, access: AccessMode) -> Engine {
    run(&mixed(machine, access), Engine::with_trace(seed))
        .expect("the mixed workload completes")
        .engine
}
