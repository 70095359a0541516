//! YARN deployment and scheduler tunables.
//!
//! Defaults correspond to a stock Hadoop 2.x install of the paper's era;
//! they are the constants behind the Fig. 5 bootstrap and Compute-Unit
//! startup overheads, so each one documents what it models.

/// How task/AM containers are executed on NodeManagers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ContainerRuntime {
    /// Plain process containers (default Hadoop 2.x).
    Process,
    /// Docker containers (the paper's future-work §V: "container-based
    /// virtualization … is increasingly used … and also supported by
    /// YARN"): the first container on each node pays an image pull.
    Docker {
        /// Image pull + extract on first use per node (s, mean/std).
        image_pull_s: (f64, f64),
        /// Extra per-container start overhead vs a plain process (s).
        start_overhead_s: f64,
    },
}

/// All tunables of a simulated YARN cluster.
#[derive(Debug, Clone)]
pub struct YarnConfig {
    /// NodeManager → RM heartbeat period (ms). Container allocation is
    /// heartbeat-driven — this is the main source of the multi-second
    /// allocation latency in Fig. 5's inset.
    pub nm_heartbeat_ms: u64,
    /// Fraction of node memory NodeManagers offer to containers
    /// (`yarn.nodemanager.resource.memory-mb` ÷ physical).
    pub nm_mem_fraction: f64,
    /// Smallest container memory grant (scheduler rounds requests up).
    pub min_allocation_mb: u64,
    /// Client-side app submission round trip (s, mean/std).
    pub app_submit_s: (f64, f64),
    /// ApplicationMaster container launch: localization + JVM start +
    /// RM registration (s, mean/std).
    pub am_launch_s: (f64, f64),
    /// Task container launch: localization + JVM start (s, mean/std).
    pub container_launch_s: (f64, f64),
    /// How many scheduler ticks a node-local request waits before relaxing
    /// to any node (delay scheduling).
    pub locality_delay_ticks: u32,
    pub container_runtime: ContainerRuntime,
    /// Maximum fraction of cluster vcores ApplicationMasters may hold
    /// (Fair scheduler's `maxAMShare` / Capacity's
    /// `maximum-am-resource-percent`). Prevents the classic AM deadlock
    /// where AMs fill the cluster and no task container can ever start.
    pub max_am_share: f64,

    // ---- Mode I bootstrap constants (Hadoop-on-HPC) ----
    /// Hadoop distribution tarball size (MB) fetched when no shared install
    /// is present.
    pub dist_size_mb: f64,
    /// Effective download bandwidth from the campus mirror (MB/s).
    pub download_mbps: f64,
    /// Whether the tarball is already staged (skips the download).
    pub dist_cached: bool,
    /// Untar + layout of the distribution (s, mean/std).
    pub unpack_s: (f64, f64),
    /// Generation of *-site.xml, slaves/master files (s, mean/std).
    pub config_gen_s: (f64, f64),
    /// ResourceManager daemon start (s, mean/std).
    pub rm_start_s: (f64, f64),
    /// Per-NodeManager daemon start (s, mean/std); NMs start in parallel.
    pub nm_start_s: (f64, f64),
    /// Mode II: connect + cluster-state fetch from a running RM (s, m/s).
    pub connect_s: (f64, f64),
}

impl Default for YarnConfig {
    fn default() -> Self {
        YarnConfig {
            nm_heartbeat_ms: 1_000,
            nm_mem_fraction: 0.85,
            min_allocation_mb: 1_024,
            app_submit_s: (1.0, 0.2),
            // Vanilla YARN app without warmed JVMs: jar localization +
            // AM JVM start + RM registration. Together with the task
            // container below this produces the ~tens-of-seconds CU
            // startup of Fig. 5's inset.
            am_launch_s: (26.0, 3.0),
            container_launch_s: (7.0, 1.2),
            locality_delay_ticks: 2,
            container_runtime: ContainerRuntime::Process,
            max_am_share: 0.5,
            dist_size_mb: 280.0,
            download_mbps: 12.0,
            dist_cached: false,
            unpack_s: (9.0, 1.5),
            config_gen_s: (2.0, 0.4),
            rm_start_s: (9.0, 1.5),
            nm_start_s: (6.0, 1.0),
            connect_s: (1.5, 0.3),
        }
    }
}

impl YarnConfig {
    /// Fast-everything profile for unit tests (sub-second bootstrap,
    /// 100 ms heartbeats) — keeps tests focused on logic, not constants.
    pub fn test_profile() -> Self {
        YarnConfig {
            nm_heartbeat_ms: 100,
            app_submit_s: (0.05, 0.0),
            am_launch_s: (0.2, 0.0),
            container_launch_s: (0.1, 0.0),
            dist_cached: true,
            unpack_s: (0.1, 0.0),
            config_gen_s: (0.05, 0.0),
            rm_start_s: (0.2, 0.0),
            nm_start_s: (0.1, 0.0),
            connect_s: (0.05, 0.0),
            ..YarnConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_hadoop2_like() {
        let c = YarnConfig::default();
        assert_eq!(c.nm_heartbeat_ms, 1_000);
        assert_eq!(c.min_allocation_mb, 1_024);
        assert!(!c.dist_cached);
    }

    #[test]
    fn test_profile_is_fast() {
        let c = YarnConfig::test_profile();
        assert!(c.am_launch_s.0 < 1.0);
        assert!(c.dist_cached);
    }
}
