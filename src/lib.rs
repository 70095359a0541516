//! # hadoop-hpc — Integrating Hadoop and Pilot-based Dynamic Resource Management
//!
//! A Rust reproduction of *"Hadoop on HPC: Integrating Hadoop and
//! Pilot-based Dynamic Resource Management"* (Luckow, Paraskevakos,
//! Chantzialexiou, Jha — 2016). This facade crate re-exports the whole
//! workspace; see `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! ## Layering
//!
//! ```text
//!  rp-analytics   K-Means / MD trajectory workloads
//!  rp-pilot       Pilot-Manager · Unit-Manager · coordination store · Agent
//!                 (Mode I: Hadoop on HPC · Mode II: HPC on Hadoop · Spark)
//!  rp-saga        SAGA job/file API · SAGA-Hadoop cluster tool
//!  rp-mapreduce   MR API · native runner · simulated MR-on-YARN job
//!  rp-yarn        ResourceManager · NodeManagers · AM protocol · bootstrap
//!  rp-spark       standalone deployment model · native mini-RDD engine
//!  rp-hdfs        NameNode/DataNodes · replication · block locality
//!  rp-hpc         machines (Stampede, Wrangler) · batch scheduler · storage
//!  rp-sim         deterministic discrete-event engine · fair-share links
//! ```
//!
//! ## Quickstart
//!
//! ```
//! use hadoop_hpc::pilot::*;
//! use hadoop_hpc::sim::{Engine, SimDuration};
//!
//! let mut engine = Engine::new(42);
//! let session = Session::new(SessionConfig::test_profile());
//! let pm = PilotManager::new(&session);
//! let pilot = pm.submit(&mut engine, PilotDescription::new(
//!     "localhost", 2, SimDuration::from_secs(3600),
//! )).unwrap();
//! let mut um = UnitManager::new(&session, UmScheduler::Direct);
//! um.add_pilot(&pilot);
//! let units = um.submit_units(&mut engine, vec![
//!     ComputeUnitDescription::new("hello", 1,
//!         WorkSpec::Sleep(SimDuration::from_secs(5))),
//! ]);
//! engine.run();
//! assert_eq!(units[0].state(), UnitState::Done);
//! ```

pub use rp_analytics as analytics;
pub use rp_hdfs as hdfs;
pub use rp_hpc as hpc;
pub use rp_mapreduce as mapreduce;
pub use rp_pilot as pilot;
pub use rp_saga as saga;
pub use rp_sim as sim;
pub use rp_spark as spark;
pub use rp_yarn as yarn;
