//! Launch Methods: the environment-specific mechanics of starting a unit
//! (paper §III-B: "the usage of mpiexec for MPI applications, machine-
//! specific launch methods (e.g. aprun on Cray machines) or the usage of
//! YARN").

use rp_hpc::MachineSpec;

use crate::description::{ComputeUnitDescription, WorkSpec};

/// How a unit's executable is started on the resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchMethod {
    /// Direct fork/exec on the node.
    Fork,
    /// Generic MPI launcher.
    MpiExec,
    /// TACC's MPI launcher (Stampede, Wrangler).
    Ibrun,
    /// Cray ALPS launcher.
    Aprun,
    /// Submission through the `yarn` CLI as a RADICAL-Pilot YARN app.
    YarnSubmit,
    /// `spark-submit` against the standalone master.
    SparkSubmit,
}

impl LaunchMethod {
    /// Launcher process overhead in seconds (spawn, wire-up, teardown of
    /// the launcher itself — not the launched work). YARN/Spark overheads
    /// live in their cluster models instead.
    pub fn overhead_s(self) -> f64 {
        match self {
            LaunchMethod::Fork => 0.15,
            LaunchMethod::MpiExec => 1.2,
            LaunchMethod::Ibrun => 1.0,
            LaunchMethod::Aprun => 0.8,
            LaunchMethod::YarnSubmit | LaunchMethod::SparkSubmit => 0.0,
        }
    }
}

/// Pick the launch method for a unit on a machine (the agent's Launch
/// Method component). Framework work always goes through the framework
/// submitter; MPI picks the machine's native launcher.
pub fn select(
    machine: &MachineSpec,
    unit: &ComputeUnitDescription,
    has_yarn: bool,
    has_spark: bool,
) -> LaunchMethod {
    match &unit.work {
        WorkSpec::MapReduce(_) => LaunchMethod::YarnSubmit,
        _ if has_spark => LaunchMethod::SparkSubmit,
        _ if has_yarn => LaunchMethod::YarnSubmit,
        _ if unit.mpi => match machine.name {
            "stampede" | "wrangler" => LaunchMethod::Ibrun,
            name if name.contains("cray") => LaunchMethod::Aprun,
            _ => LaunchMethod::MpiExec,
        },
        _ => LaunchMethod::Fork,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_sim::SimDuration;

    fn unit(mpi: bool) -> ComputeUnitDescription {
        let mut u = ComputeUnitDescription::new("u", 4, WorkSpec::Sleep(SimDuration::from_secs(1)));
        if mpi {
            u = u.with_mpi();
        }
        u
    }

    #[test]
    fn plain_unit_forks() {
        let m = MachineSpec::localhost();
        assert_eq!(select(&m, &unit(false), false, false), LaunchMethod::Fork);
    }

    #[test]
    fn mpi_uses_machine_launcher() {
        assert_eq!(
            select(&MachineSpec::stampede(), &unit(true), false, false),
            LaunchMethod::Ibrun
        );
        assert_eq!(
            select(&MachineSpec::localhost(), &unit(true), false, false),
            LaunchMethod::MpiExec
        );
    }

    #[test]
    fn yarn_pilot_routes_through_yarn() {
        let m = MachineSpec::wrangler();
        assert_eq!(
            select(&m, &unit(false), true, false),
            LaunchMethod::YarnSubmit
        );
    }

    #[test]
    fn mapreduce_work_always_yarn() {
        let m = MachineSpec::localhost();
        let u = ComputeUnitDescription::new(
            "mr",
            1,
            WorkSpec::MapReduce(rp_mapreduce::MrJobSpec {
                name: "j".into(),
                input_path: "/in".into(),
                num_reducers: 1,
                container: rp_yarn::Resource::new(1, 1024),
                shuffle: rp_mapreduce::ShuffleBackend::LocalDisk,
                cost: rp_mapreduce::MrCostModel::default(),
            }),
        );
        assert_eq!(select(&m, &u, true, false), LaunchMethod::YarnSubmit);
    }

    #[test]
    fn launcher_overheads_ranked() {
        assert!(LaunchMethod::Fork.overhead_s() < LaunchMethod::Ibrun.overhead_s());
        assert!(LaunchMethod::Ibrun.overhead_s() <= LaunchMethod::MpiExec.overhead_s());
    }
}
