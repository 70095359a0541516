//! Pilot and Compute-Unit descriptions — the user-facing vocabulary of the
//! Pilot-Abstraction (paper §II: Pilot-Compute allocates resources, a
//! Compute-Unit is a self-contained piece of work with data dependencies).

use rp_mapreduce::MrJobSpec;
use rp_sim::SimDuration;

/// How the agent provisions data-processing frameworks on its resources.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessMode {
    /// Plain HPC pilot: units execute directly on the allocation.
    Plain,
    /// Mode I (Hadoop on HPC): the agent spawns YARN (+HDFS) on the
    /// allocated nodes during startup and tears it down at the end.
    YarnModeI { with_hdfs: bool },
    /// Mode II (HPC on Hadoop): the agent connects to the machine's
    /// dedicated, already-running Hadoop environment.
    YarnModeII,
    /// The agent spawns a standalone Spark cluster (paper §III-D).
    SparkModeI,
}

/// Description of a Pilot (placeholder allocation + agent behaviour).
#[derive(Debug, Clone)]
pub struct PilotDescription {
    /// Resource key, e.g. `"xsede.stampede"` or `"localhost"`.
    pub resource: String,
    /// Whole nodes to allocate.
    pub nodes: u32,
    /// Batch walltime of the placeholder job.
    pub runtime: SimDuration,
    pub queue: Option<String>,
    pub access: AccessMode,
}

impl PilotDescription {
    pub fn new(resource: impl Into<String>, nodes: u32, runtime: SimDuration) -> Self {
        PilotDescription {
            resource: resource.into(),
            nodes,
            runtime,
            queue: None,
            access: AccessMode::Plain,
        }
    }

    pub fn with_access(mut self, access: AccessMode) -> Self {
        self.access = access;
        self
    }
}

/// Endpoint vocabulary for staging directives. `ExecNode` resolves to the
/// local disk of whichever node the unit lands on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StageEndpoint {
    Lustre,
    ExecNode,
}

/// One staging directive (a data dependency of a CU).
#[derive(Debug, Clone, PartialEq)]
pub struct StagingDirective {
    pub bytes: f64,
    pub from: StageEndpoint,
    pub to: StageEndpoint,
}

/// Where a unit's own I/O goes (plain HPC units).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitIoTarget {
    /// The shared parallel filesystem (what plain RADICAL-Pilot units use
    /// in the paper's K-Means runs).
    Lustre,
    /// The executing node's local disk.
    LocalDisk,
}

/// What a Compute-Unit does when it executes.
#[derive(Clone)]
pub enum WorkSpec {
    /// Fixed virtual duration (calibration, tests). On a Spark pilot it
    /// runs as a one-stage app on the unit's `cores` executor cores.
    Sleep(SimDuration),
    /// Compute with optional read-before / write-after I/O phases.
    Compute {
        /// Core-seconds on a reference (`core_speed == 1.0`) core. The
        /// unit's `cores` divide this (perfectly parallel region).
        core_seconds: f64,
        read_mb: f64,
        write_mb: f64,
        io: UnitIoTarget,
    },
    /// A MapReduce job on the pilot's YARN cluster (Mode I/II pilots only).
    MapReduce(MrJobSpec),
    /// A full simulated Spark job (stage DAG with cached-RDD semantics)
    /// on the pilot's Spark cluster, asking for the spec's
    /// `executor_cores`. A Spark pilot runs this and `Sleep`, no other
    /// kind.
    SparkJob(rp_spark::SparkJobSpec),
    /// Run a real closure (native compute) — virtual duration is the
    /// measured wall time, so this trades determinism for realism; used by
    /// examples that couple simulation with actual analytics.
    Native(std::rc::Rc<dyn Fn()>),
}

impl std::fmt::Debug for WorkSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkSpec::Sleep(d) => write!(f, "Sleep({d})"),
            WorkSpec::Compute {
                core_seconds,
                read_mb,
                write_mb,
                io,
            } => write!(
                f,
                "Compute({core_seconds} core-s, r{read_mb}MB w{write_mb}MB {io:?})"
            ),
            WorkSpec::MapReduce(spec) => write!(f, "MapReduce({})", spec.name),
            WorkSpec::SparkJob(spec) => {
                write!(f, "SparkJob({}, {} stages)", spec.name, spec.stages.len())
            }
            WorkSpec::Native(_) => write!(f, "Native(<closure>)"),
        }
    }
}

/// How many times a unit is re-run after a failure (node crash, container
/// kill, staging error), and how long to wait between attempts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts including the first. 1 ⇒ fail on the first fault.
    pub max_attempts: u32,
    /// Delay before the first retry; doubles every further attempt.
    pub backoff_base: SimDuration,
    /// Upper bound on the exponential backoff.
    pub backoff_cap: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            backoff_base: SimDuration::from_secs(1),
            backoff_cap: SimDuration::from_secs(60),
        }
    }
}

impl RetryPolicy {
    /// No retries at all: the first fault is terminal.
    pub fn never() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Backoff before attempt number `attempt` (2 = first retry):
    /// `base · 2^(attempt-2)`, capped.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let shift = attempt.saturating_sub(2).min(32);
        let raw = self.backoff_base.0.saturating_mul(1u64 << shift);
        SimDuration(raw.min(self.backoff_cap.0))
    }
}

/// Description of a Compute-Unit.
#[derive(Debug, Clone)]
pub struct ComputeUnitDescription {
    pub name: String,
    /// Cores the unit needs (on one node for non-MPI work; the agent
    /// scheduler may span nodes for `mpi = true`).
    pub cores: u32,
    /// Memory demand in MB (enforced by the YARN-backed scheduler; used
    /// for pressure accounting by the plain scheduler).
    pub mem_mb: u64,
    pub mpi: bool,
    pub work: WorkSpec,
    pub input_staging: Vec<StagingDirective>,
    pub output_staging: Vec<StagingDirective>,
    /// Failure-recovery policy applied by the agent when the unit's node
    /// crashes, its container is killed, or a staging transfer faults.
    pub retry: RetryPolicy,
    /// How many times the Unit-Manager may re-bind the unit to another
    /// pilot after a pilot loss or walltime drain before declaring it
    /// `Failed` (late binding makes units pilot-agnostic, but an unlucky
    /// unit must not bounce forever).
    pub max_rebinds: u32,
}

impl ComputeUnitDescription {
    pub fn new(name: impl Into<String>, cores: u32, work: WorkSpec) -> Self {
        ComputeUnitDescription {
            name: name.into(),
            cores,
            mem_mb: 1024,
            mpi: false,
            work,
            input_staging: Vec::new(),
            output_staging: Vec::new(),
            retry: RetryPolicy::default(),
            max_rebinds: 2,
        }
    }

    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    pub fn with_max_rebinds(mut self, max_rebinds: u32) -> Self {
        self.max_rebinds = max_rebinds;
        self
    }

    pub fn with_memory(mut self, mem_mb: u64) -> Self {
        self.mem_mb = mem_mb;
        self
    }

    pub fn with_mpi(mut self) -> Self {
        self.mpi = true;
        self
    }

    pub fn stage_in(mut self, d: StagingDirective) -> Self {
        self.input_staging.push(d);
        self
    }

    pub fn stage_out(mut self, d: StagingDirective) -> Self {
        self.output_staging.push(d);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let cud = ComputeUnitDescription::new(
            "sim",
            16,
            WorkSpec::Compute {
                core_seconds: 160.0,
                read_mb: 100.0,
                write_mb: 50.0,
                io: UnitIoTarget::Lustre,
            },
        )
        .with_memory(4096)
        .with_mpi()
        .stage_in(StagingDirective {
            bytes: 1e6,
            from: StageEndpoint::Lustre,
            to: StageEndpoint::ExecNode,
        });
        assert_eq!(cud.cores, 16);
        assert!(cud.mpi);
        assert_eq!(cud.mem_mb, 4096);
        assert_eq!(cud.input_staging.len(), 1);
        assert!(format!("{cud:?}").contains("Compute"));
    }

    #[test]
    fn pilot_description_defaults() {
        let pd = PilotDescription::new("xsede.stampede", 3, SimDuration::from_secs(3600));
        assert_eq!(pd.access, AccessMode::Plain);
        let pd = pd.with_access(AccessMode::YarnModeI { with_hdfs: true });
        assert!(matches!(pd.access, AccessMode::YarnModeI { .. }));
    }

    #[test]
    fn retry_backoff_is_capped_exponential() {
        let p = RetryPolicy {
            max_attempts: 6,
            backoff_base: SimDuration::from_secs(2),
            backoff_cap: SimDuration::from_secs(10),
        };
        assert_eq!(p.backoff(2), SimDuration::from_secs(2));
        assert_eq!(p.backoff(3), SimDuration::from_secs(4));
        assert_eq!(p.backoff(4), SimDuration::from_secs(8));
        assert_eq!(p.backoff(5), SimDuration::from_secs(10)); // capped
        assert_eq!(p.backoff(6), SimDuration::from_secs(10));
        assert_eq!(RetryPolicy::never().max_attempts, 1);
    }

    #[test]
    fn workspec_debug_is_readable() {
        let w = WorkSpec::Sleep(SimDuration::from_secs(5));
        assert_eq!(format!("{w:?}"), "Sleep(5.000s)");
    }
}
