//! # rp-mapreduce — MapReduce for the Pilot integration
//!
//! * [`api`] — Hadoop-style `Mapper` / `Reducer` traits (with
//!   closure blanket impls) and the stable hash partitioner.
//! * [`local`] — a native multi-threaded runner that executes jobs for
//!   real (the K-Means MapReduce kernel runs on it).
//! * [`simjob`] — the simulated MR-on-YARN job: AM startup, locality-aware
//!   map waves over HDFS splits, shuffle spills/fetches through the
//!   storage models (node-local disk vs Lustre), reduce and output phases.

pub mod api;
pub mod local;
pub mod simjob;

pub use api::{partition_of, Emitter, Mapper, Reducer};
pub use local::run_local;
pub use simjob::{run_on_yarn, MrCostModel, MrJobSpec, MrJobStats, ShuffleBackend};
