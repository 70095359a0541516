//! Machine profiles.
//!
//! A [`MachineSpec`] captures everything the simulator needs to know about a
//! production system: node shape, relative core speed, filesystem and
//! network characteristics, batch-system flavour and its latency model.
//!
//! The two profiles used throughout the paper's evaluation are
//! [`MachineSpec::stampede`] and [`MachineSpec::wrangler`]; a small
//! [`MachineSpec::localhost`] profile backs the quickstart example and unit
//! tests. Every latency constant is documented where it is set; they are
//! chosen so the *absolute* values land in the ranges the paper reports and
//! the *shapes* (who wins, where crossovers fall) match — see EXPERIMENTS.md.

/// Flavour of the system-level resource manager fronting the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    Slurm,
    Torque,
    Sge,
    /// No batch system: jobs start immediately (used for `localhost`).
    Fork,
}

impl SchedulerKind {
    /// URL scheme used by SAGA adaptors (`slurm://…`).
    pub fn scheme(self) -> &'static str {
        match self {
            SchedulerKind::Slurm => "slurm",
            SchedulerKind::Torque => "torque",
            SchedulerKind::Sge => "sge",
            SchedulerKind::Fork => "fork",
        }
    }
}

/// Bandwidth/latency description of a filesystem backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FsSpec {
    /// Aggregate bandwidth in MB/s (shared across all concurrent streams;
    /// for per-node local disks this is the bandwidth of one node's disk).
    pub aggregate_mbps: f64,
    /// Per-stream cap in MB/s.
    pub per_stream_mbps: f64,
    /// Per-operation latency (metadata + first byte) in milliseconds.
    pub latency_ms: f64,
    /// Effective-throughput fraction for small/random I/O (shuffle
    /// spills, merge passes). Parallel filesystems collapse here — the
    /// reason Hadoop prefers node-local storage (paper §II).
    pub random_factor: f64,
}

/// Static description of an HPC machine.
#[derive(Debug, Clone)]
pub struct MachineSpec {
    pub name: &'static str,
    /// Number of nodes made available to the simulation (production systems
    /// are far larger; experiments never allocate more than this).
    pub nodes: u32,
    pub cores_per_node: u32,
    pub mem_per_node_mb: u64,
    /// Relative per-core compute speed (Stampede's Sandy Bridge == 1.0).
    pub core_speed: f64,
    /// Shared parallel filesystem (Lustre on both paper machines).
    pub lustre: FsSpec,
    /// Node-local disk, if usable by jobs (None disables local storage).
    pub local_disk: Option<FsSpec>,
    /// Per-node NIC bandwidth in MB/s.
    pub nic_mbps: f64,
    /// Aggregate fabric bandwidth in MB/s available to one allocation.
    pub fabric_mbps: f64,
    pub scheduler: SchedulerKind,
    /// Mean/std of the batch submit round-trip (qsub/sbatch + poll), seconds.
    pub submit_latency_s: (f64, f64),
    /// Mean/std of the Pilot-Agent bootstrap (environment setup, agent
    /// process start, coordination handshake), seconds. Dominates the plain
    /// RADICAL-Pilot startup bar of Fig. 5.
    pub agent_bootstrap_s: (f64, f64),
    /// Whether the machine offers a dedicated, already-running Hadoop
    /// environment (Wrangler's data-portal reservation → enables Mode II).
    pub has_dedicated_hadoop: bool,
}

impl MachineSpec {
    /// TACC Stampede: 16 cores / 32 GB per node, Sandy Bridge, SLURM,
    /// Lustre `$SCRATCH`, modest node-local disk.
    pub fn stampede() -> MachineSpec {
        MachineSpec {
            name: "stampede",
            nodes: 128,
            cores_per_node: 16,
            mem_per_node_mb: 32 * 1024,
            core_speed: 1.0,
            // Effective Lustre bandwidth visible to one mid-size allocation
            // (the full system backbone is shared with all users).
            lustre: FsSpec {
                aggregate_mbps: 1_200.0,
                per_stream_mbps: 120.0,
                latency_ms: 8.0,
                random_factor: 0.10,
            },
            local_disk: Some(FsSpec {
                aggregate_mbps: 250.0,
                per_stream_mbps: 250.0,
                latency_ms: 0.6,
                random_factor: 0.70,
            }),
            nic_mbps: 3_500.0, // FDR InfiniBand ~56 Gb/s
            fabric_mbps: 12_000.0,
            scheduler: SchedulerKind::Slurm,
            submit_latency_s: (2.0, 0.5),
            // RP agent bootstrap on Stampede (venv activation, agent spawn,
            // MongoDB handshake): ~40 s in the paper's Fig. 5 bar.
            agent_bootstrap_s: (40.0, 4.0),
            has_dedicated_hadoop: false,
        }
    }

    /// TACC Wrangler: 48 cores / 128 GB per node, Haswell, SLURM, massive
    /// flash storage, and a dedicated Hadoop environment via reservation.
    pub fn wrangler() -> MachineSpec {
        MachineSpec {
            name: "wrangler",
            nodes: 64,
            cores_per_node: 48,
            mem_per_node_mb: 128 * 1024,
            core_speed: 1.35, // newer cores + much more memory bandwidth
            lustre: FsSpec {
                aggregate_mbps: 4_000.0,
                per_stream_mbps: 250.0,
                latency_ms: 4.0,
                random_factor: 0.25,
            },
            // DSSD-backed flash: node-local performance far above Stampede.
            local_disk: Some(FsSpec {
                aggregate_mbps: 1_000.0,
                per_stream_mbps: 500.0,
                latency_ms: 0.2,
                random_factor: 0.90,
            }),
            nic_mbps: 5_000.0,
            fabric_mbps: 40_000.0,
            scheduler: SchedulerKind::Slurm,
            submit_latency_s: (2.0, 0.5),
            // Slightly slower agent bootstrap than Stampede (shared data
            // subsystem mounts), matching the taller Wrangler RP bar.
            agent_bootstrap_s: (52.0, 5.0),
            has_dedicated_hadoop: true,
        }
    }

    /// SDSC Comet (2015): 24 cores / 128 GB per node, Haswell, SLURM,
    /// Lustre plus large node-local SSDs — another XSEDE machine of the
    /// paper's era, useful for what-if studies.
    pub fn comet() -> MachineSpec {
        MachineSpec {
            name: "comet",
            nodes: 72,
            cores_per_node: 24,
            mem_per_node_mb: 128 * 1024,
            core_speed: 1.3,
            lustre: FsSpec {
                aggregate_mbps: 2_000.0,
                per_stream_mbps: 180.0,
                latency_ms: 6.0,
                random_factor: 0.15,
            },
            local_disk: Some(FsSpec {
                aggregate_mbps: 450.0,
                per_stream_mbps: 450.0,
                latency_ms: 0.3,
                random_factor: 0.85, // SSD
            }),
            nic_mbps: 3_500.0,
            fabric_mbps: 20_000.0,
            scheduler: SchedulerKind::Slurm,
            submit_latency_s: (2.0, 0.5),
            agent_bootstrap_s: (42.0, 4.0),
            has_dedicated_hadoop: false,
        }
    }

    /// A laptop-sized profile for tests and the quickstart example.
    pub fn localhost() -> MachineSpec {
        MachineSpec {
            name: "localhost",
            nodes: 4,
            cores_per_node: 8,
            mem_per_node_mb: 16 * 1024,
            core_speed: 1.0,
            lustre: FsSpec {
                aggregate_mbps: 500.0,
                per_stream_mbps: 500.0,
                latency_ms: 0.5,
                random_factor: 0.30,
            },
            local_disk: Some(FsSpec {
                aggregate_mbps: 400.0,
                per_stream_mbps: 400.0,
                latency_ms: 0.2,
                random_factor: 0.80,
            }),
            nic_mbps: 1_200.0,
            fabric_mbps: 4_800.0,
            scheduler: SchedulerKind::Fork,
            submit_latency_s: (0.05, 0.01),
            agent_bootstrap_s: (1.0, 0.1),
            has_dedicated_hadoop: false,
        }
    }

    /// Look a machine up by name (the resource key used in Pilot
    /// descriptions, e.g. `"xsede.stampede"`).
    pub fn by_name(name: &str) -> Option<MachineSpec> {
        let short = name.rsplit('.').next().unwrap_or(name);
        match short {
            "stampede" => Some(MachineSpec::stampede()),
            "wrangler" => Some(MachineSpec::wrangler()),
            "comet" => Some(MachineSpec::comet()),
            "localhost" => Some(MachineSpec::localhost()),
            _ => None,
        }
    }

    pub fn total_cores(&self) -> u64 {
        self.nodes as u64 * self.cores_per_node as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_match_paper_node_shapes() {
        let s = MachineSpec::stampede();
        assert_eq!(s.cores_per_node, 16);
        assert_eq!(s.mem_per_node_mb, 32 * 1024);
        let w = MachineSpec::wrangler();
        assert_eq!(w.cores_per_node, 48);
        assert_eq!(w.mem_per_node_mb, 128 * 1024);
        assert!(w.has_dedicated_hadoop);
        assert!(!s.has_dedicated_hadoop);
    }

    #[test]
    fn lookup_by_qualified_name() {
        assert_eq!(
            MachineSpec::by_name("xsede.stampede").unwrap().name,
            "stampede"
        );
        assert_eq!(MachineSpec::by_name("wrangler").unwrap().name, "wrangler");
        assert!(MachineSpec::by_name("bluewaters").is_none());
    }

    #[test]
    fn wrangler_is_faster_everywhere() {
        let s = MachineSpec::stampede();
        let w = MachineSpec::wrangler();
        assert!(w.core_speed > s.core_speed);
        assert!(w.lustre.aggregate_mbps > s.lustre.aggregate_mbps);
        assert!(w.local_disk.unwrap().aggregate_mbps > s.local_disk.unwrap().aggregate_mbps);
    }

    #[test]
    fn total_cores() {
        assert_eq!(MachineSpec::localhost().total_cores(), 32);
    }

    #[test]
    fn comet_profile_resolves() {
        let c = MachineSpec::by_name("xsede.comet").unwrap();
        assert_eq!(c.cores_per_node, 24);
        assert!(c.local_disk.unwrap().random_factor > 0.8, "SSD-backed");
    }
}
