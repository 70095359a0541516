//! Runtime cluster: per-node local disks, the shared Lustre link and the
//! fabric, instantiated from a [`MachineSpec`].
//!
//! All I/O in the workspace funnels through [`Cluster::storage_io`] and
//! [`Cluster::net_transfer`], so Lustre contention, local-disk bandwidth and
//! fabric sharing are modelled uniformly with [`rp_sim::FairLink`].

use std::rc::Rc;

use rp_sim::{Engine, FairLink, SimDuration, MB};

use crate::machine::MachineSpec;

/// Index of a node inside one cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{:03}", self.0)
    }
}

/// Which storage backend an I/O targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageTarget {
    /// The shared parallel filesystem (one contended link for the machine).
    Lustre,
    /// The local disk of a specific node (per-node links).
    LocalDisk(NodeId),
}

/// Access pattern of a storage operation. Random/small I/O runs at the
/// backend's `random_factor` fraction of streaming throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoPattern {
    Streaming,
    Random,
}

struct ClusterInner {
    spec: MachineSpec,
    /// One link per node; empty on machines without local disks.
    local_disks: Vec<FairLink>,
    lustre: FairLink,
    fabric: FairLink,
}

/// A running cluster instance. Cheap to clone (shared handle).
#[derive(Clone)]
pub struct Cluster {
    inner: Rc<ClusterInner>,
}

/// Rate at which a same-node "transfer" proceeds (memory copy), MB/s.
const LOOPBACK_MBPS: f64 = 4_000.0;

impl Cluster {
    pub fn new(spec: MachineSpec) -> Cluster {
        let local_disks = match spec.local_disk {
            Some(fs) => (0..spec.nodes)
                .map(|i| {
                    FairLink::new(
                        format!("{}:n{:03}:disk", spec.name, i),
                        fs.aggregate_mbps * MB,
                    )
                })
                .collect(),
            None => Vec::new(),
        };
        let lustre = FairLink::new(
            format!("{}:lustre", spec.name),
            spec.lustre.aggregate_mbps * MB,
        );
        let fabric = FairLink::new(format!("{}:fabric", spec.name), spec.fabric_mbps * MB);
        Cluster {
            inner: Rc::new(ClusterInner {
                spec,
                local_disks,
                lustre,
                fabric,
            }),
        }
    }

    pub fn spec(&self) -> &MachineSpec {
        &self.inner.spec
    }

    pub fn node_count(&self) -> u32 {
        self.inner.spec.nodes
    }

    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.inner.spec.nodes).map(NodeId)
    }

    /// The shared Lustre link (exposed for metrics/tests).
    pub fn lustre_link(&self) -> &FairLink {
        &self.inner.lustre
    }

    pub fn has_local_disk(&self) -> bool {
        self.inner.spec.local_disk.is_some()
    }

    /// Perform a storage operation of `bytes` against `target`; `done`
    /// fires when it completes. Latency (metadata + first byte) is applied
    /// before the bandwidth phase.
    ///
    /// Panics if `target` is a local disk on a machine without local disks —
    /// callers must check [`Cluster::has_local_disk`] and fall back to
    /// Lustre (that fallback choice is exactly the trade-off the paper
    /// discusses, so it is made explicitly by callers, not silently here).
    pub fn storage_io(
        &self,
        engine: &mut Engine,
        target: StorageTarget,
        bytes: f64,
        done: impl FnOnce(&mut Engine) + 'static,
    ) {
        self.storage_io_pattern(engine, target, IoPattern::Streaming, bytes, done)
    }

    /// [`Cluster::storage_io`] with an explicit access pattern; random
    /// I/O divides effective throughput by the backend's `random_factor`
    /// (modelled as inflating the transferred volume).
    pub fn storage_io_pattern(
        &self,
        engine: &mut Engine,
        target: StorageTarget,
        pattern: IoPattern,
        bytes: f64,
        done: impl FnOnce(&mut Engine) + 'static,
    ) {
        let (link, fs) = match target {
            StorageTarget::Lustre => (self.inner.lustre.clone(), self.inner.spec.lustre),
            StorageTarget::LocalDisk(node) => {
                let fs = self.inner.spec.local_disk.unwrap_or_else(|| {
                    panic!("machine {} has no local disk", self.inner.spec.name)
                });
                (self.inner.local_disks[node.0 as usize].clone(), fs)
            }
        };
        let latency = SimDuration::from_secs_f64(fs.latency_ms / 1e3);
        let cap = fs.per_stream_mbps * MB;
        let effective_bytes = match pattern {
            IoPattern::Streaming => bytes,
            IoPattern::Random => bytes / fs.random_factor.clamp(0.01, 1.0),
        };
        engine.schedule_in(latency, move |eng| {
            link.transfer(eng, effective_bytes, cap, done);
        });
    }

    /// Move `bytes` from `from` to `to` over the fabric. Same-node transfers
    /// are modelled as memory copies that bypass the fabric.
    pub fn net_transfer(
        &self,
        engine: &mut Engine,
        from: NodeId,
        to: NodeId,
        bytes: f64,
        done: impl FnOnce(&mut Engine) + 'static,
    ) {
        if from == to {
            let dur = SimDuration::from_secs_f64(bytes / (LOOPBACK_MBPS * MB));
            engine.schedule_in(dur, done);
            return;
        }
        let cap = self.inner.spec.nic_mbps * MB;
        self.inner.fabric.transfer(engine, bytes, cap, done);
    }

    /// Duration of a pure-compute region of `core_seconds` normalised work
    /// on this machine (divides by the relative core speed).
    pub fn compute_duration(&self, core_seconds: f64) -> SimDuration {
        SimDuration::from_secs_f64(core_seconds / self.inner.spec.core_speed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_sim::SimTime;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn localhost() -> Cluster {
        Cluster::new(MachineSpec::localhost())
    }

    #[test]
    fn topology_matches_spec() {
        let c = localhost();
        assert_eq!(c.node_count(), 4);
        assert_eq!(c.spec().cores_per_node, 8);
        assert_eq!(c.spec().mem_per_node_mb, 16 * 1024);
        assert!(c.has_local_disk());
    }

    #[test]
    fn lustre_io_takes_latency_plus_bandwidth() {
        let mut e = Engine::new(1);
        let c = localhost();
        let done_at = Rc::new(RefCell::new(SimTime::ZERO));
        let d = done_at.clone();
        // 500 MB at 500 MB/s (per-stream == aggregate) + 0.5 ms latency ≈ 1.0005 s
        c.storage_io(&mut e, StorageTarget::Lustre, 500.0 * MB, move |eng| {
            *d.borrow_mut() = eng.now();
        });
        e.run();
        let t = done_at.borrow().as_secs_f64();
        assert!((t - 1.0005).abs() < 0.01, "{t}");
    }

    #[test]
    fn concurrent_lustre_streams_contend() {
        let mut e = Engine::new(1);
        let c = localhost();
        let times = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..4 {
            let t = times.clone();
            c.storage_io(&mut e, StorageTarget::Lustre, 250.0 * MB, move |eng| {
                t.borrow_mut().push(eng.now().as_secs_f64());
            });
        }
        e.run();
        // 4 × 250 MB over a 500 MB/s shared link → ~2 s each.
        for &t in times.borrow().iter() {
            assert!((t - 2.0).abs() < 0.05, "{t}");
        }
    }

    #[test]
    fn local_disks_are_independent() {
        let mut e = Engine::new(1);
        let c = localhost();
        let times = Rc::new(RefCell::new(Vec::new()));
        for n in 0..2 {
            let t = times.clone();
            c.storage_io(
                &mut e,
                StorageTarget::LocalDisk(NodeId(n)),
                400.0 * MB,
                move |eng| t.borrow_mut().push(eng.now().as_secs_f64()),
            );
        }
        e.run();
        // Each disk runs at 400 MB/s independently → ~1 s each.
        for &t in times.borrow().iter() {
            assert!((t - 1.0).abs() < 0.05, "{t}");
        }
    }

    #[test]
    fn same_node_transfer_bypasses_fabric() {
        let mut e = Engine::new(1);
        let c = localhost();
        let hit = Rc::new(RefCell::new(0.0));
        let h = hit.clone();
        c.net_transfer(&mut e, NodeId(1), NodeId(1), 4000.0 * MB, move |eng| {
            *h.borrow_mut() = eng.now().as_secs_f64();
        });
        e.run();
        assert!((*hit.borrow() - 1.0).abs() < 0.05);
    }

    #[test]
    fn cross_node_transfer_capped_by_nic() {
        let mut e = Engine::new(1);
        let c = localhost();
        let hit = Rc::new(RefCell::new(0.0));
        let h = hit.clone();
        // Fabric is 4800 MB/s but NIC caps a single flow at 1200 MB/s.
        c.net_transfer(&mut e, NodeId(0), NodeId(1), 1200.0 * MB, move |eng| {
            *h.borrow_mut() = eng.now().as_secs_f64();
        });
        e.run();
        assert!((*hit.borrow() - 1.0).abs() < 0.05);
    }

    #[test]
    fn compute_duration_scales_with_core_speed() {
        let s = Cluster::new(MachineSpec::stampede());
        let w = Cluster::new(MachineSpec::wrangler());
        let ds = s.compute_duration(135.0).as_secs_f64();
        let dw = w.compute_duration(135.0).as_secs_f64();
        assert!((ds - 135.0).abs() < 1e-9);
        assert!((dw - 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn local_disk_io_panics_without_disk() {
        let mut spec = MachineSpec::localhost();
        spec.local_disk = None;
        let c = Cluster::new(spec);
        let mut e = Engine::new(1);
        c.storage_io(&mut e, StorageTarget::LocalDisk(NodeId(0)), 1.0, |_| {});
        e.run();
    }
}
