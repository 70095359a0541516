//! # rp-pilot — the Pilot abstraction (the paper's contribution)
//!
//! A RADICAL-Pilot-style resource-management layer that unifies HPC and
//! Hadoop/Spark execution:
//!
//! * [`description`] — Pilot and Compute-Unit descriptions, access modes
//!   (Plain / **Mode I** Hadoop-on-HPC / **Mode II** HPC-on-Hadoop /
//!   Spark) and work specifications.
//! * [`manager`] — Pilot-Manager (placeholder jobs via SAGA, P.1–P.2)
//!   and Unit-Manager (workload scheduling across pilots, U.1–U.2).
//! * [`coordination`] — the shared store (the paper's MongoDB) with its
//!   write/poll/update latency model (U.2–U.3).
//! * [`agent`] — the RADICAL-Pilot-Agent, one module per paper component:
//!   the LRM (framework bootstrap, and every access-mode decision behind
//!   its `Runtime`), the agent scheduler (cores, plus memory for YARN),
//!   the Task Spawner with the RADICAL-Pilot YARN application and
//!   optional AM reuse (Fig. 4), the staging workers (U.4–U.7), and the
//!   heartbeat/lease monitor.
//! * [`states`], [`unit` module](crate::unit), [`session`], [`launch`] — supporting vocabulary.
//!
//! ```no_run
//! use rp_pilot::*;
//! use rp_sim::{Engine, SimDuration};
//!
//! let mut engine = Engine::new(42);
//! let session = Session::new(SessionConfig::default());
//! let pm = PilotManager::new(&session);
//! let pilot = pm.submit(&mut engine, PilotDescription::new(
//!     "xsede.stampede", 2, SimDuration::from_secs(3600),
//! ).with_access(AccessMode::YarnModeI { with_hdfs: true })).unwrap();
//! let mut um = UnitManager::new(&session, UmScheduler::Direct);
//! um.add_pilot(&pilot);
//! let units = um.submit_units(&mut engine, vec![
//!     ComputeUnitDescription::new("sim", 16, WorkSpec::Compute {
//!         core_seconds: 1600.0, read_mb: 100.0, write_mb: 200.0,
//!         io: UnitIoTarget::Lustre,
//!     }),
//! ]);
//! engine.run();
//! assert!(units.iter().all(|u| u.state() == UnitState::Done));
//! ```

pub mod agent;
pub mod coordination;
pub mod description;
pub mod fault;
pub mod launch;
pub mod manager;
pub mod session;
pub mod states;
pub mod unit;

pub use agent::Agent;
pub use coordination::{CoordinationConfig, CoordinationStore, Fence, LossProfile, Revoked};
pub use description::{
    AccessMode, ComputeUnitDescription, PilotDescription, RetryPolicy, StageEndpoint,
    StagingDirective, UnitIoTarget, WorkSpec,
};
pub use fault::install_faults_multi;
pub use launch::LaunchMethod;
pub use manager::{PilotHandle, PilotManager, PilotTimestamps, UmScheduler, UnitManager};
pub use session::{MachineHandle, PilotError, Session, SessionConfig};
pub use states::{PilotState, UnitState};
pub use unit::{when_all_done, PilotId, UnitHandle, UnitId, UnitTimestamps};
