//! The SAGA Job API: a standardized, adaptor-based interface to
//! heterogeneous resource managers (SLURM, Torque, SGE, fork).
//!
//! RADICAL-Pilot launches its placeholder jobs exclusively through this
//! layer (paper §II: "The interoperability layer of both frameworks is
//! SAGA"). An adaptor validates the URL scheme against the machine's
//! batch flavour and applies the flavour's submission-latency profile.

use rp_hpc::{Allocation, BatchSystem, JobId, JobRequest, JobState, SchedulerKind};
use rp_sim::{Engine, SimDuration};

/// A SAGA resource URL, e.g. `slurm://stampede/normal`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SagaUrl {
    pub scheme: String,
    pub host: String,
    pub queue: Option<String>,
}

impl SagaUrl {
    /// Parse `scheme://host[/queue]`.
    pub fn parse(s: &str) -> Result<SagaUrl, SagaError> {
        let (scheme, rest) = s
            .split_once("://")
            .ok_or_else(|| SagaError::BadUrl(s.into()))?;
        if scheme.is_empty() || rest.is_empty() {
            return Err(SagaError::BadUrl(s.into()));
        }
        let (host, queue) = match rest.split_once('/') {
            Some((h, q)) if !q.is_empty() => (h, Some(q.to_string())),
            Some((h, _)) => (h, None),
            None => (rest, None),
        };
        if host.is_empty() {
            return Err(SagaError::BadUrl(s.into()));
        }
        Ok(SagaUrl {
            scheme: scheme.to_string(),
            host: host.to_string(),
            queue,
        })
    }
}

impl std::fmt::Display for SagaUrl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}://{}", self.scheme, self.host)?;
        if let Some(q) = &self.queue {
            write!(f, "/{q}")?;
        }
        Ok(())
    }
}

/// SAGA job description (the subset the Pilot layer uses).
#[derive(Debug, Clone)]
pub struct JobDescription {
    pub executable: String,
    pub nodes: u32,
    pub wall_time: SimDuration,
}

impl JobDescription {
    pub fn new(executable: impl Into<String>, nodes: u32, wall_time: SimDuration) -> Self {
        JobDescription {
            executable: executable.into(),
            nodes,
            wall_time,
        }
    }
}

/// Errors surfaced by the SAGA layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SagaError {
    BadUrl(String),
    /// URL scheme does not match the machine's batch system.
    AdaptorMismatch {
        requested: String,
        machine: String,
    },
    UnknownScheme(String),
}

impl std::fmt::Display for SagaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SagaError::BadUrl(u) => write!(f, "malformed SAGA url: {u}"),
            SagaError::AdaptorMismatch { requested, machine } => write!(
                f,
                "adaptor {requested} does not match machine scheduler {machine}"
            ),
            SagaError::UnknownScheme(s) => write!(f, "no adaptor for scheme {s}"),
        }
    }
}

impl std::error::Error for SagaError {}

fn scheme_kind(scheme: &str) -> Result<SchedulerKind, SagaError> {
    match scheme {
        "slurm" => Ok(SchedulerKind::Slurm),
        "torque" | "pbs" => Ok(SchedulerKind::Torque),
        "sge" => Ok(SchedulerKind::Sge),
        "fork" | "ssh" => Ok(SchedulerKind::Fork),
        other => Err(SagaError::UnknownScheme(other.into())),
    }
}

/// A connected job service (one machine, one adaptor).
#[derive(Clone)]
pub struct JobService {
    url: SagaUrl,
    batch: BatchSystem,
}

/// Handle to a submitted SAGA job.
#[derive(Clone)]
pub struct SagaJob {
    id: JobId,
    batch: BatchSystem,
}

impl JobService {
    /// Connect to a machine's batch system, validating the adaptor scheme
    /// ("pbs" is accepted as an alias for torque, "ssh" for fork).
    pub fn connect(url: SagaUrl, batch: BatchSystem) -> Result<JobService, SagaError> {
        let kind = scheme_kind(&url.scheme)?;
        let machine = batch.cluster().spec().scheduler;
        if kind != machine {
            return Err(SagaError::AdaptorMismatch {
                requested: url.scheme.clone(),
                machine: machine.scheme().to_string(),
            });
        }
        Ok(JobService { url, batch })
    }

    pub fn url(&self) -> &SagaUrl {
        &self.url
    }

    pub fn batch(&self) -> &BatchSystem {
        &self.batch
    }

    /// Submit a job; `on_start` receives the allocation when nodes are
    /// granted, `on_end` the final state.
    pub fn submit(
        &self,
        engine: &mut Engine,
        jd: JobDescription,
        on_start: impl FnOnce(&mut Engine, Allocation) + 'static,
        on_end: impl FnOnce(&mut Engine, JobState) + 'static,
    ) -> SagaJob {
        let id = self.batch.submit_with_end(
            engine,
            JobRequest {
                name: jd.executable.clone(),
                nodes: jd.nodes,
                walltime: jd.wall_time,
            },
            on_start,
            on_end,
        );
        engine.trace.record(
            engine.now(),
            "saga",
            format!(
                "submitted '{}' ({} nodes) via {}",
                jd.executable, jd.nodes, self.url
            ),
        );
        engine
            .metrics
            .incr_labeled("saga.jobs_submitted", &[("scheme", &self.url.scheme)]);
        SagaJob {
            id,
            batch: self.batch.clone(),
        }
    }
}

impl SagaJob {
    pub fn id(&self) -> JobId {
        self.id
    }

    pub fn state(&self) -> JobState {
        self.batch.state(self.id)
    }

    pub fn cancel(&self, engine: &mut Engine) {
        self.batch.cancel(engine, self.id);
    }

    /// Signal normal completion (the payload shut itself down).
    pub fn complete(&self, engine: &mut Engine) {
        self.batch.complete(engine, self.id);
    }

    /// Kill the job as a hardware/queue fault would (fault injection).
    pub fn fail(&self, engine: &mut Engine) {
        self.batch.fail_job(engine, self.id);
    }

    pub fn wait_time(&self) -> Option<SimDuration> {
        self.batch.wait_time(self.id)
    }

    /// Hard end of the allocation (start + walltime); None until running.
    pub fn deadline(&self) -> Option<rp_sim::SimTime> {
        self.batch.deadline(self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_hpc::{Cluster, MachineSpec};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn url_parse_roundtrip() {
        let u = SagaUrl::parse("slurm://stampede/normal").unwrap();
        assert_eq!(u.scheme, "slurm");
        assert_eq!(u.host, "stampede");
        assert_eq!(u.queue.as_deref(), Some("normal"));
        assert_eq!(u.to_string(), "slurm://stampede/normal");

        let u = SagaUrl::parse("fork://localhost").unwrap();
        assert_eq!(u.queue, None);
    }

    #[test]
    fn bad_urls_rejected() {
        for bad in ["", "slurm", "://host", "slurm://", "slurm:///q"] {
            assert!(SagaUrl::parse(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn adaptor_mismatch_detected() {
        let batch = BatchSystem::new(Cluster::new(MachineSpec::stampede()));
        let err = JobService::connect(SagaUrl::parse("sge://stampede").unwrap(), batch)
            .err()
            .unwrap();
        assert!(matches!(err, SagaError::AdaptorMismatch { .. }));
    }

    #[test]
    fn pbs_is_torque_alias() {
        let mut spec = MachineSpec::localhost();
        spec.scheduler = rp_hpc::SchedulerKind::Torque;
        let batch = BatchSystem::new(Cluster::new(spec));
        assert!(JobService::connect(SagaUrl::parse("pbs://localhost").unwrap(), batch).is_ok());
    }

    #[test]
    fn unknown_scheme_rejected() {
        let batch = BatchSystem::new(Cluster::new(MachineSpec::localhost()));
        let err = JobService::connect(SagaUrl::parse("htcondor://x").unwrap(), batch)
            .err()
            .unwrap();
        assert!(matches!(err, SagaError::UnknownScheme(_)));
    }

    #[test]
    fn submit_runs_job_lifecycle() {
        let mut e = rp_sim::Engine::new(1);
        let batch = BatchSystem::new(Cluster::new(MachineSpec::localhost()));
        let svc = JobService::connect(SagaUrl::parse("fork://localhost").unwrap(), batch).unwrap();
        let events = Rc::new(RefCell::new(Vec::new()));
        let ev1 = events.clone();
        let ev2 = events.clone();
        let job = svc.submit(
            &mut e,
            JobDescription::new("agent.sh", 2, SimDuration::from_secs(600)),
            move |_, alloc| {
                ev1.borrow_mut()
                    .push(format!("start:{}", alloc.nodes.len()))
            },
            move |_, st| ev2.borrow_mut().push(format!("end:{st:?}")),
        );
        e.run_until(rp_sim::SimTime::from_secs_f64(5.0));
        assert_eq!(job.state(), JobState::Running);
        job.complete(&mut e);
        e.run();
        assert_eq!(
            *events.borrow(),
            vec!["start:2".to_string(), "end:Completed".to_string()]
        );
    }
}
