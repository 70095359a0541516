//! # rp-hpc — simulated HPC machines
//!
//! Deterministic models of the production systems the paper evaluates on:
//!
//! * [`machine::MachineSpec`] — static profiles (Stampede, Wrangler,
//!   localhost) with node shape, storage/network characteristics and the
//!   batch-system latency model.
//! * [`cluster::Cluster`] — runtime instance: per-node core/memory tokens,
//!   a shared Lustre link, per-node local disks, and the fabric. All I/O in
//!   the workspace goes through [`cluster::Cluster::storage_io`] and
//!   [`cluster::Cluster::net_transfer`].
//! * [`batch::BatchSystem`] — FCFS + EASY-backfill scheduling of whole-node
//!   jobs; a Pilot-Job is exactly one of these placeholder jobs.

pub mod batch;
pub mod cluster;
pub mod machine;

pub use batch::{Allocation, BatchSystem, JobId, JobRequest, JobState};
pub use cluster::{Cluster, IoKind, IoPattern, NodeId, StorageTarget};
pub use machine::{FsSpec, MachineSpec, SchedulerKind};
