//! Pilot-Data: the data side of the Pilot-Abstraction (Luckow et al.,
//! "Pilot-Data: An Abstraction for Distributed Data", JPDC 2014 — the
//! paper's ref \[15\] and the basis of its resource-management middleware).
//!
//! A [`DataPilot`] is a placeholder *storage* allocation on one machine
//! (its Lustre scratch or its HDFS); a [`DataUnit`] is a self-contained
//! set of logical files registered into a data pilot. Compute-Units can
//! declare data dependencies; the Unit-Manager's
//! [`crate::manager::UmScheduler::DataAware`] policy then routes them to
//! the pilot co-located with the most dependent bytes, and the agent's
//! stage-in pulls any remote bytes over the inter-site network.

use std::cell::RefCell;
use std::rc::Rc;

use rp_sim::{Engine, SimDuration, SimTime};

use crate::session::{PilotError, Session};

/// Identifier of a data unit within a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DataUnitId(pub u64);

/// Which storage system of the machine backs a data pilot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataPilotBackend {
    /// The machine's parallel filesystem.
    Lustre,
    /// The machine's HDFS (requires local disks; used by Mode I/II
    /// pilots so MapReduce inputs are already in place).
    Hdfs,
}

/// Description of a data pilot: a storage lease on one machine.
#[derive(Debug, Clone)]
pub struct DataPilotDescription {
    pub resource: String,
    pub capacity_bytes: u64,
    pub backend: DataPilotBackend,
}

/// One logical file inside a data unit.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalFile {
    pub name: String,
    pub size_bytes: u64,
}

/// Description of a data unit (a named set of files plus where the bytes
/// come from).
#[derive(Debug, Clone)]
pub struct DataUnitDescription {
    pub name: String,
    pub files: Vec<LogicalFile>,
    /// Bandwidth of the external source the bytes are ingested from
    /// (MB/s); `None` means the data already exists on the machine.
    pub source_bandwidth_mbps: Option<f64>,
}

impl DataUnitDescription {
    pub fn new(name: impl Into<String>) -> Self {
        DataUnitDescription {
            name: name.into(),
            files: Vec::new(),
            source_bandwidth_mbps: None,
        }
    }

    pub fn with_file(mut self, name: impl Into<String>, size_bytes: u64) -> Self {
        self.files.push(LogicalFile {
            name: name.into(),
            size_bytes,
        });
        self
    }

    pub fn from_remote(mut self, bandwidth_mbps: f64) -> Self {
        self.source_bandwidth_mbps = Some(bandwidth_mbps);
        self
    }

    pub fn total_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.size_bytes).sum()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataUnitState {
    /// Ingest in progress.
    Pending,
    /// Bytes resident in the data pilot.
    Ready,
}

struct DataUnitRecord {
    id: DataUnitId,
    descr: DataUnitDescription,
    state: DataUnitState,
    ready_at: Option<SimTime>,
    /// Resource the bytes live on (the data pilot's machine).
    resource: String,
}

/// Shared handle to a data unit.
#[derive(Clone)]
pub struct DataUnit {
    rec: Rc<RefCell<DataUnitRecord>>,
}

impl std::fmt::Debug for DataUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rec = self.rec.borrow();
        write!(
            f,
            "DataUnit({:?}, '{}', {} B on {})",
            rec.id,
            rec.descr.name,
            rec.descr.total_bytes(),
            rec.resource
        )
    }
}

impl DataUnit {
    pub fn id(&self) -> DataUnitId {
        self.rec.borrow().id
    }

    pub fn name(&self) -> String {
        self.rec.borrow().descr.name.clone()
    }

    pub fn state(&self) -> DataUnitState {
        self.rec.borrow().state
    }

    pub fn total_bytes(&self) -> u64 {
        self.rec.borrow().descr.total_bytes()
    }

    /// Machine whose data pilot holds the bytes.
    pub fn resource(&self) -> String {
        self.rec.borrow().resource.clone()
    }

    pub fn ready_at(&self) -> Option<SimTime> {
        self.rec.borrow().ready_at
    }
}

struct DataPilotInner {
    descr: DataPilotDescription,
    used_bytes: u64,
    units: Vec<DataUnit>,
}

/// A storage lease on one machine. Cheap to clone.
#[derive(Clone)]
pub struct DataPilot {
    session: Session,
    inner: Rc<RefCell<DataPilotInner>>,
}

/// Errors from Pilot-Data operations.
#[derive(Debug, Clone, PartialEq)]
pub enum DataError {
    CapacityExceeded { requested: u64, free: u64 },
    BackendUnavailable(String),
}

impl std::fmt::Display for DataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataError::CapacityExceeded { requested, free } => {
                write!(f, "data pilot full: requested {requested} B, {free} B free")
            }
            DataError::BackendUnavailable(m) => write!(f, "backend unavailable: {m}"),
        }
    }
}

impl std::error::Error for DataError {}

impl DataPilot {
    /// Lease storage on a machine. HDFS-backed pilots require the machine
    /// to have local disks.
    pub fn submit(
        engine: &mut Engine,
        session: &Session,
        descr: DataPilotDescription,
    ) -> Result<DataPilot, PilotError> {
        let machine = session.machine(engine, &descr.resource)?;
        if descr.backend == DataPilotBackend::Hdfs && !machine.cluster.has_local_disk() {
            return Err(PilotError::Saga(format!(
                "machine {} cannot host HDFS-backed pilot-data (no local disks)",
                descr.resource
            )));
        }
        engine.trace.record(
            engine.now(),
            "pilot-data",
            format!(
                "leased {} B of {:?} on {}",
                descr.capacity_bytes, descr.backend, descr.resource
            ),
        );
        Ok(DataPilot {
            session: session.clone(),
            inner: Rc::new(RefCell::new(DataPilotInner {
                descr,
                used_bytes: 0,
                units: Vec::new(),
            })),
        })
    }

    pub fn resource(&self) -> String {
        self.inner.borrow().descr.resource.clone()
    }

    pub fn backend(&self) -> DataPilotBackend {
        self.inner.borrow().descr.backend
    }

    pub fn units(&self) -> Vec<DataUnit> {
        self.inner.borrow().units.clone()
    }

    /// Register a data unit. Remote-sourced units pay the ingest transfer
    /// (WAN leg + write to the backend); locally-sourced units become
    /// ready after backend metadata latency. `on_ready` fires when the
    /// bytes are resident.
    pub fn submit_data_unit(
        &self,
        engine: &mut Engine,
        descr: DataUnitDescription,
        on_ready: impl FnOnce(&mut Engine, DataUnit) + 'static,
    ) -> Result<DataUnit, DataError> {
        let bytes = descr.total_bytes();
        {
            let inner = self.inner.borrow();
            let free = inner.descr.capacity_bytes - inner.used_bytes;
            if bytes > free {
                return Err(DataError::CapacityExceeded {
                    requested: bytes,
                    free,
                });
            }
        }
        let id = DataUnitId(self.session.next_unit_id().0); // shared id space
        let unit = DataUnit {
            rec: Rc::new(RefCell::new(DataUnitRecord {
                id,
                resource: self.resource(),
                descr: descr.clone(),
                state: DataUnitState::Pending,
                ready_at: None,
            })),
        };
        {
            let mut inner = self.inner.borrow_mut();
            inner.used_bytes += bytes;
            inner.units.push(unit.clone());
        }
        let machine = self
            .session
            .machine(engine, &self.resource())
            .expect("machine existed at lease time");
        let backend = self.backend();
        let u2 = unit.clone();
        let finish = move |eng: &mut Engine| {
            {
                let mut rec = u2.rec.borrow_mut();
                rec.state = DataUnitState::Ready;
                rec.ready_at = Some(eng.now());
            }
            eng.trace.record(
                eng.now(),
                "pilot-data",
                format!("{:?} ready ({} B)", u2.id(), u2.total_bytes()),
            );
            on_ready(eng, u2.clone());
        };
        match descr.source_bandwidth_mbps {
            Some(wan) => {
                // Ingest: WAN then backend write.
                let to = match backend {
                    DataPilotBackend::Lustre => rp_saga::Endpoint::Lustre,
                    DataPilotBackend::Hdfs => {
                        // HDFS lands on a datanode's local disk.
                        rp_saga::Endpoint::Local(rp_hpc::NodeId(0))
                    }
                };
                rp_saga::transfer(
                    engine,
                    &machine.cluster,
                    rp_saga::Endpoint::Remote {
                        bandwidth_mbps: wan,
                    },
                    to,
                    bytes as f64,
                    finish,
                );
            }
            None => {
                // Already on the machine: metadata registration only.
                engine.schedule_in(SimDuration::from_millis(200), finish);
            }
        }
        Ok(unit)
    }
}

/// Bytes of `deps` that are *not* resident on `resource` (the amount a
/// compute unit placed there would have to pull over the WAN).
pub fn remote_bytes(deps: &[DataUnit], resource: &str) -> u64 {
    deps.iter()
        .filter(|d| d.resource() != resource)
        .map(|d| d.total_bytes())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionConfig;

    fn setup(engine: &mut Engine) -> (Session, DataPilot) {
        let session = Session::new(SessionConfig::test_profile());
        let dp = DataPilot::submit(
            engine,
            &session,
            DataPilotDescription {
                resource: "xsede.stampede".into(),
                capacity_bytes: 10 * 1024 * 1024 * 1024,
                backend: DataPilotBackend::Lustre,
            },
        )
        .unwrap();
        (session, dp)
    }

    #[test]
    fn local_data_unit_becomes_ready_quickly() {
        let mut e = Engine::new(1);
        let (_s, dp) = setup(&mut e);
        let ready = Rc::new(RefCell::new(false));
        let r = ready.clone();
        let du = dp
            .submit_data_unit(
                &mut e,
                DataUnitDescription::new("trajectories").with_file("t0.dcd", 1_000_000),
                move |_, _| *r.borrow_mut() = true,
            )
            .unwrap();
        assert_eq!(du.state(), DataUnitState::Pending);
        e.run();
        assert!(*ready.borrow());
        assert_eq!(du.state(), DataUnitState::Ready);
        assert_eq!(du.resource(), "xsede.stampede");
    }

    #[test]
    fn remote_ingest_pays_wan_time() {
        let mut e = Engine::new(1);
        let (_s, dp) = setup(&mut e);
        // 1 GB over a 10 MB/s WAN ≈ 102.4 s.
        let du = dp
            .submit_data_unit(
                &mut e,
                DataUnitDescription::new("archive")
                    .with_file("big.tar", 1024 * 1024 * 1024)
                    .from_remote(10.0),
                |_, _| {},
            )
            .unwrap();
        e.run();
        let t = du.ready_at().unwrap().as_secs_f64();
        assert!((100.0..115.0).contains(&t), "{t}"); // WAN 102.4 s + Lustre write ~8.5 s
    }

    #[test]
    fn capacity_is_enforced() {
        let mut e = Engine::new(1);
        let session = Session::new(SessionConfig::test_profile());
        let dp = DataPilot::submit(
            &mut e,
            &session,
            DataPilotDescription {
                resource: "localhost".into(),
                capacity_bytes: 100,
                backend: DataPilotBackend::Lustre,
            },
        )
        .unwrap();
        dp.submit_data_unit(
            &mut e,
            DataUnitDescription::new("a").with_file("x", 80),
            |_, _| {},
        )
        .unwrap();
        let err = dp
            .submit_data_unit(
                &mut e,
                DataUnitDescription::new("b").with_file("y", 30),
                |_, _| {},
            )
            .err()
            .unwrap();
        assert!(matches!(err, DataError::CapacityExceeded { free: 20, .. }));
    }

    #[test]
    fn hdfs_backend_requires_local_disks() {
        let mut e = Engine::new(1);
        let session = Session::new(SessionConfig::test_profile());
        let mut spec = rp_hpc::MachineSpec::localhost();
        spec.local_disk = None;
        session.register_machine(&mut e, "diskless", spec);
        let err = DataPilot::submit(
            &mut e,
            &session,
            DataPilotDescription {
                resource: "diskless".into(),
                capacity_bytes: 1024,
                backend: DataPilotBackend::Hdfs,
            },
        )
        .err()
        .unwrap();
        assert!(matches!(err, PilotError::Saga(_)));
    }

    #[test]
    fn remote_bytes_accounts_locality() {
        let mut e = Engine::new(1);
        let (session, dp_s) = setup(&mut e);
        let dp_w = DataPilot::submit(
            &mut e,
            &session,
            DataPilotDescription {
                resource: "xsede.wrangler".into(),
                capacity_bytes: 1 << 40,
                backend: DataPilotBackend::Lustre,
            },
        )
        .unwrap();
        let a = dp_s
            .submit_data_unit(
                &mut e,
                DataUnitDescription::new("a").with_file("x", 100),
                |_, _| {},
            )
            .unwrap();
        let b = dp_w
            .submit_data_unit(
                &mut e,
                DataUnitDescription::new("b").with_file("y", 900),
                |_, _| {},
            )
            .unwrap();
        e.run();
        let deps = vec![a, b];
        assert_eq!(remote_bytes(&deps, "xsede.stampede"), 900);
        assert_eq!(remote_bytes(&deps, "xsede.wrangler"), 100);
        assert_eq!(remote_bytes(&deps, "elsewhere"), 1000);
    }
}
