//! Session: shared context for Pilot- and Unit-Managers — machine
//! registry, coordination store, and the configuration profile.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use rp_hdfs::HdfsConfig;
use rp_hpc::{BatchSystem, Cluster, MachineSpec};
use rp_sim::Engine;
use rp_spark::SparkConfig;
use rp_yarn::{dedicated_cluster, HadoopEnv, YarnConfig};

use crate::coordination::{CoordinationConfig, CoordinationStore, LossProfile};
use crate::unit::{PilotId, UnitId};

/// Session-wide configuration.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    pub coordination: CoordinationConfig,
    pub yarn: YarnConfig,
    pub spark: SparkConfig,
    pub hdfs: HdfsConfig,
    /// Task Spawner setup per unit (environment module loads, wrapper
    /// script) (s, mean/std).
    pub exec_prep_s: (f64, f64),
    /// Extra launch overhead for MPI units (mpiexec/ibrun/aprun spin-up).
    pub mpi_launch_s: (f64, f64),
    /// Reuse the RADICAL-Pilot YARN Application Master across units —
    /// the optimization the paper names as future work (§III-C).
    pub am_reuse: bool,
    /// Lognormal sigma of per-unit compute jitter (OS noise, load
    /// imbalance); the iteration barrier then waits for the slowest task.
    pub compute_jitter_sigma: f64,
    /// Size (nodes) of the dedicated Hadoop environment on machines that
    /// provide one (Wrangler's reservation).
    pub dedicated_nodes: u32,
    /// Safety margin (s) for walltime-aware draining: the agent stops
    /// admitting units whose expected runtime exceeds remaining walltime
    /// minus this margin and hands them back to the Unit-Manager (only
    /// when a failover client is listening).
    pub drain_margin_s: f64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            coordination: CoordinationConfig::default(),
            yarn: YarnConfig::default(),
            spark: SparkConfig::default(),
            hdfs: HdfsConfig::default(),
            exec_prep_s: (0.6, 0.15),
            mpi_launch_s: (1.2, 0.3),
            am_reuse: false,
            compute_jitter_sigma: 0.08,
            dedicated_nodes: 4,
            drain_margin_s: 30.0,
        }
    }
}

impl SessionConfig {
    /// Fast profile for unit tests: sub-second latencies everywhere.
    pub fn test_profile() -> Self {
        SessionConfig {
            coordination: CoordinationConfig {
                write_ms: 5.0,
                update_ms: 5.0,
                poll_ms: 50,
                loss: LossProfile::NONE,
            },
            yarn: YarnConfig::test_profile(),
            spark: SparkConfig::test_profile(),
            hdfs: HdfsConfig::default(),
            exec_prep_s: (0.05, 0.0),
            mpi_launch_s: (0.1, 0.0),
            am_reuse: false,
            compute_jitter_sigma: 0.0,
            dedicated_nodes: 2,
            drain_margin_s: 5.0,
        }
    }
}

/// One machine known to the session.
#[derive(Clone)]
pub struct MachineHandle {
    pub name: String,
    pub cluster: Cluster,
    pub batch: BatchSystem,
    /// The dedicated Hadoop environment, on machines that offer one
    /// (enables Mode II pilots).
    pub dedicated: Option<HadoopEnv>,
}

struct SessionInner {
    config: SessionConfig,
    machines: BTreeMap<String, MachineHandle>,
    store: CoordinationStore,
    next_pilot: u64,
    next_unit: u64,
}

/// Shared session handle.
#[derive(Clone)]
pub struct Session {
    inner: Rc<RefCell<SessionInner>>,
}

/// Errors from Pilot-layer operations.
#[derive(Debug, Clone, PartialEq)]
pub enum PilotError {
    UnknownResource(String),
    /// Mode II requested on a machine without a dedicated Hadoop env.
    NoDedicatedHadoop(String),
    Saga(String),
}

impl std::fmt::Display for PilotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PilotError::UnknownResource(r) => write!(f, "unknown resource: {r}"),
            PilotError::NoDedicatedHadoop(r) => {
                write!(f, "machine {r} has no dedicated Hadoop environment")
            }
            PilotError::Saga(e) => write!(f, "saga: {e}"),
        }
    }
}

impl std::error::Error for PilotError {}

impl Session {
    pub fn new(config: SessionConfig) -> Session {
        let store = CoordinationStore::new(config.coordination.clone());
        Session {
            inner: Rc::new(RefCell::new(SessionInner {
                config,
                machines: BTreeMap::new(),
                store,
                next_pilot: 0,
                next_unit: 0,
            })),
        }
    }

    pub fn store(&self) -> CoordinationStore {
        self.inner.borrow().store.clone()
    }

    pub fn config(&self) -> SessionConfig {
        self.inner.borrow().config.clone()
    }

    /// Look up (and lazily instantiate) a machine by resource key, e.g.
    /// `"xsede.stampede"`. Machines with dedicated Hadoop get their
    /// environment provisioned at first access.
    pub fn machine(
        &self,
        engine: &mut Engine,
        resource: &str,
    ) -> Result<MachineHandle, PilotError> {
        if let Some(m) = self.inner.borrow().machines.get(resource) {
            return Ok(m.clone());
        }
        let spec = MachineSpec::by_name(resource)
            .ok_or_else(|| PilotError::UnknownResource(resource.into()))?;
        Ok(self.register_machine(engine, resource, spec))
    }

    /// Register a machine under a custom key/spec (tests, what-if studies).
    pub fn register_machine(
        &self,
        engine: &mut Engine,
        resource: &str,
        spec: MachineSpec,
    ) -> MachineHandle {
        let cluster = Cluster::new(spec);
        let batch = BatchSystem::new(cluster.clone());
        let dedicated = if cluster.spec().has_dedicated_hadoop {
            let cfg = self.inner.borrow().config.clone();
            let n = cfg.dedicated_nodes.min(cluster.node_count());
            let nodes: Vec<_> = cluster.node_ids().take(n as usize).collect();
            Some(dedicated_cluster(
                engine,
                &cluster,
                &nodes,
                cfg.yarn.clone(),
                true,
            ))
        } else {
            None
        };
        let handle = MachineHandle {
            name: resource.to_string(),
            cluster,
            batch,
            dedicated,
        };
        self.inner
            .borrow_mut()
            .machines
            .insert(resource.to_string(), handle.clone());
        handle
    }

    pub(crate) fn next_pilot_id(&self) -> PilotId {
        let mut inner = self.inner.borrow_mut();
        let id = PilotId(inner.next_pilot);
        inner.next_pilot += 1;
        id
    }

    pub(crate) fn next_unit_id(&self) -> UnitId {
        let mut inner = self.inner.borrow_mut();
        let id = UnitId(inner.next_unit);
        inner.next_unit += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_lookup_is_cached() {
        let mut e = Engine::new(1);
        let s = Session::new(SessionConfig::test_profile());
        let a = s.machine(&mut e, "localhost").unwrap();
        let b = s.machine(&mut e, "localhost").unwrap();
        // Same underlying batch system (shared free-node view).
        assert_eq!(a.batch.free_node_count(), b.batch.free_node_count());
        assert!(a.dedicated.is_none());
    }

    #[test]
    fn unknown_resource_is_error() {
        let mut e = Engine::new(1);
        let s = Session::new(SessionConfig::test_profile());
        assert!(matches!(
            s.machine(&mut e, "xsede.bluewaters"),
            Err(PilotError::UnknownResource(_))
        ));
    }

    #[test]
    fn wrangler_gets_dedicated_hadoop() {
        let mut e = Engine::new(1);
        let s = Session::new(SessionConfig::test_profile());
        let w = s.machine(&mut e, "xsede.wrangler").unwrap();
        let env = w.dedicated.expect("wrangler has dedicated hadoop");
        assert!(env.hdfs.is_some());
        assert_eq!(env.yarn.nodes().len(), 2); // test profile dedicated_nodes
    }

    #[test]
    fn ids_are_unique() {
        let s = Session::new(SessionConfig::test_profile());
        assert_ne!(s.next_pilot_id(), s.next_pilot_id());
        assert_ne!(s.next_unit_id(), s.next_unit_id());
    }
}
