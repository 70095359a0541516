//! # rp-yarn — simulated Hadoop YARN
//!
//! ResourceManager + NodeManagers with heartbeat-driven container
//! allocation, the ApplicationMaster protocol (two-stage allocation of
//! Fig. 4), locality-aware delay scheduling, a FIFO scheduler, a
//! REST-equivalent cluster-state API, and Mode I / Mode II provisioning:
//!
//! * [`bootstrap::bootstrap_mode_i`] — spawn YARN (+HDFS) inside an HPC
//!   allocation (Hadoop on HPC).
//! * [`bootstrap::connect_mode_ii`] — attach to a dedicated, pre-running
//!   cluster (HPC on Hadoop).

pub mod bootstrap;
pub mod config;
pub mod rm;

pub use bootstrap::{bootstrap_mode_i, connect_mode_ii, dedicated_cluster, HadoopEnv};
pub use config::{ContainerRuntime, YarnConfig};
pub use rm::{
    AmHandle, AppId, AppReport, AppState, ClusterState, Container, ContainerId, Resource,
    ResourceRequest, YarnCluster,
};
