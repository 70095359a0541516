//! # rp-analytics — the paper's application workloads
//!
//! * [`kmeans`] — the Fig. 6 benchmark workload in four shapes: native
//!   parallel Lloyd, MapReduce, mini-RDD, and (in [`scenarios`]) the
//!   pilot-orchestrated RP / RP-YARN variants.
//! * [`scenarios`] — the three Fig. 6 scenarios with calibrated cost
//!   models and the run harnesses the benchmark binaries call.
//! * [`trajectory`] — molecular-dynamics trajectory analysis (RMSD
//!   series, moments, PCA), the paper's motivating domain.
//! * [`dataset`] — seeded synthetic data generators for all of the above.

pub mod dataset;
pub mod kmeans;
pub mod scenarios;
pub mod trajectory;

pub use dataset::{gaussian_blobs, md_trajectory, Frame, Point3};
pub use kmeans::{kmeans_mapreduce, kmeans_rdd, lloyd, lloyd_sequential, KMeansResult};
pub use scenarios::{
    fig6_session_config, nodes_for_tasks, run_rp_kmeans, run_rp_spark_kmeans, run_rp_yarn_kmeans,
    KMeansCalibration, KMeansRunStats, KMeansScenario, SCENARIOS,
};
pub use trajectory::{moments, pca, rmsd, rmsd_series, Moments, Pca};
