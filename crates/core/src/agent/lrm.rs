//! Local Resource Manager: the allocation's slot table and the runtime
//! the pilot's access mode provisions on it.
//!
//! Every decision that depends on the access mode is a method of
//! [`Runtime`] in this file. The rest of the agent asks, and does not
//! match on the mode itself, except for the Task Spawner's one exec
//! dispatch.

use rp_hpc::{MachineSpec, NodeId};
use rp_sim::{Engine, SimDuration, SpanId};
use rp_spark::SparkCluster;
use rp_yarn::{bootstrap_mode_i, connect_mode_ii, HadoopEnv, Resource};

use crate::description::{AccessMode, ComputeUnitDescription, WorkSpec};
use crate::launch::{self, LaunchMethod};
use crate::session::{MachineHandle, SessionConfig};

/// Memory of a RADICAL-Pilot YARN Application Master container.
pub(super) const AM_MEM_MB: u64 = 1536;

/// What the LRM provisioned for this pilot.
#[derive(Clone)]
pub(super) enum Runtime {
    Plain,
    Yarn { env: HadoopEnv, mode_i: bool },
    Spark { cluster: SparkCluster },
}

/// What one scheduling pass may still admit.
#[derive(Clone, Copy)]
pub(super) enum Headroom {
    /// Plain pilots place against the agent's own slot table.
    Slots,
    /// The framework's free capacity minus what in-flight units were
    /// already promised. Spark gates on cores alone, with memory 0.
    Framework(Resource),
}

impl Runtime {
    /// Provision the access mode's runtime on `nodes` (the LRM bootstrap).
    /// `on_ready` receives the runtime and the framework's bootstrap time,
    /// zero for plain pilots.
    pub(super) fn bootstrap(
        engine: &mut Engine,
        access: AccessMode,
        machine: &MachineHandle,
        nodes: Vec<NodeId>,
        cfg: &SessionConfig,
        bootstrap_span: SpanId,
        on_ready: impl FnOnce(&mut Engine, Runtime, SimDuration) + 'static,
    ) {
        let t0 = engine.now();
        match access {
            AccessMode::Plain => on_ready(engine, Runtime::Plain, SimDuration::ZERO),
            AccessMode::YarnModeI { with_hdfs } => {
                bootstrap_mode_i(
                    engine,
                    machine.cluster.clone(),
                    nodes,
                    cfg.yarn.clone(),
                    with_hdfs,
                    bootstrap_span,
                    move |eng, env| {
                        let boot = eng.now().since(t0);
                        on_ready(eng, Runtime::Yarn { env, mode_i: true }, boot);
                    },
                );
            }
            AccessMode::YarnModeII => {
                let env = machine
                    .dedicated
                    .clone()
                    .expect("manager validated dedicated env exists");
                let span =
                    engine
                        .trace
                        .span_begin(engine.now(), "yarn", "yarn.startup", bootstrap_span);
                engine.trace.span_attr(span.id(), "mode", "II");
                connect_mode_ii(engine, env, &cfg.yarn, move |eng, env| {
                    eng.trace.span_end(eng.now(), span);
                    let boot = eng.now().since(t0);
                    on_ready(eng, Runtime::Yarn { env, mode_i: false }, boot);
                });
            }
            AccessMode::SparkModeI => {
                SparkCluster::bootstrap(
                    engine,
                    &machine.cluster,
                    nodes,
                    cfg.spark.clone(),
                    move |eng, cluster, boot| {
                        on_ready(eng, Runtime::Spark { cluster }, boot);
                    },
                );
            }
        }
    }

    /// Reject units this pilot can never run on an allocation of `nodes`
    /// nodes (fail fast, like the agent scheduler's sanity checks). A
    /// Spark pilot runs `SparkJob` and `Sleep` units and checks only the
    /// executor cores they ask for against the whole pilot.
    pub(super) fn validate(
        &self,
        d: &ComputeUnitDescription,
        nodes: u32,
        spec: &MachineSpec,
    ) -> Result<(), String> {
        let spark = self.spark_cluster().is_some();
        let wrong_runtime = match &d.work {
            WorkSpec::MapReduce(_) => match self.hadoop_env() {
                None => Some("MapReduce unit requires a YARN pilot (Mode I/II)"),
                Some(env) if env.hdfs.is_none() => {
                    Some("MapReduce unit requires HDFS on its YARN pilot")
                }
                Some(_) => None,
            },
            WorkSpec::SparkJob(_) if !spark => Some("Spark job requires a Spark pilot"),
            WorkSpec::Compute { .. } | WorkSpec::Native(_) if spark => Some(
                "Compute and Native units cannot run on a Spark pilot \
                 (it runs SparkJob and Sleep units)",
            ),
            _ => None,
        };
        if let Some(reason) = wrong_runtime {
            return Err(reason.into());
        }
        let total_cores = nodes * spec.cores_per_node;
        if spark {
            // A Spark pilot admits by executor cores (`gate`), and the
            // executors spread over every worker: the one limit is the
            // pilot's size, not a node's.
            let demand = self.gate(d).vcores;
            if demand > total_cores {
                return Err(format!(
                    "Spark unit needs {demand} executor cores, pilot has {total_cores}"
                ));
            }
            return Ok(());
        }
        if d.cores > total_cores {
            return Err(format!(
                "unit needs {} cores, pilot has {total_cores}",
                d.cores
            ));
        }
        // Paper §II: "gang-scheduled parallel MPI applications … are less
        // well supported" on YARN — a container cannot span nodes.
        if self.hadoop_env().is_some() && d.mpi && d.cores > spec.cores_per_node {
            return Err(format!(
                "gang-scheduled MPI unit ({} cores) cannot span YARN containers \
                 (max {} vcores per NodeManager)",
                d.cores, spec.cores_per_node
            ));
        }
        if !d.mpi && d.cores > spec.cores_per_node && !matches!(d.work, WorkSpec::MapReduce(_)) {
            return Err(format!(
                "non-MPI unit needs {} cores on one node ({} available)",
                d.cores, spec.cores_per_node
            ));
        }
        Ok(())
    }

    /// Capacity a scheduling pass may still hand out, read once per pass:
    /// O(NodeManagers) for YARN, O(workers) for Spark, O(1) for plain
    /// pilots. `None` only when a plain pilot is saturated: every unit
    /// needs at least one core, so the queue scan can be skipped entirely.
    /// YARN and Spark pilots always get a value; the scheduler skips
    /// their scan when the queue floor does not fit it.
    pub(super) fn headroom(&self, slots: &NodeSlots, inflight: Resource) -> Option<Headroom> {
        match self {
            Runtime::Plain => (slots.free_total > 0).then_some(Headroom::Slots),
            Runtime::Yarn { env, .. } => {
                let available = env.yarn.available();
                Some(Headroom::Framework(Resource::new(
                    available.vcores.saturating_sub(inflight.vcores),
                    available.mem_mb.saturating_sub(inflight.mem_mb),
                )))
            }
            Runtime::Spark { cluster } => Some(Headroom::Framework(Resource::new(
                cluster.free_cores().saturating_sub(inflight.vcores),
                0,
            ))),
        }
    }

    /// The framework gate a unit must fit in [`Headroom::Framework`].
    /// Plain pilots place on slots and never ask.
    pub(super) fn gate(&self, d: &ComputeUnitDescription) -> Resource {
        if self.hadoop_env().is_some() {
            // The unit's container plus its AM. MapReduce jobs gate
            // coarsely (AM + one container): the MR AM runs its own waves.
            return match &d.work {
                WorkSpec::MapReduce(spec) => {
                    Resource::new(1 + spec.container.vcores, AM_MEM_MB + spec.container.mem_mb)
                }
                _ => Resource::new(1 + d.cores.max(1), AM_MEM_MB + d.mem_mb),
            };
        }
        match &d.work {
            WorkSpec::SparkJob(spec) => Resource::new(spec.executor_cores.max(1), 0),
            _ => Resource::new(d.cores.max(1), 0),
        }
    }

    /// The Launch Method the Task Spawner starts a unit with.
    pub(super) fn launch_method(
        &self,
        spec: &MachineSpec,
        d: &ComputeUnitDescription,
    ) -> LaunchMethod {
        launch::select(
            spec,
            d,
            self.hadoop_env().is_some(),
            self.spark_cluster().is_some(),
        )
    }

    /// Stop the frameworks this pilot started. A Mode II environment is
    /// the machine's, not the pilot's, and keeps running.
    pub(super) fn shutdown(&self, engine: &mut Engine) {
        match self {
            Runtime::Yarn { env, mode_i: true } => env.yarn.shutdown(engine),
            Runtime::Spark { cluster } => cluster.shutdown(engine, |_| {}),
            _ => {}
        }
    }

    /// Propagate a node crash. Mode I frameworks live on the allocation,
    /// so the victim's NodeManager (and DataNode) die with it. Spark
    /// workers and Mode II daemons are not told.
    pub(super) fn node_crashed(&self, engine: &mut Engine, victim: NodeId) {
        if let Runtime::Yarn { env, mode_i: true } = self {
            env.yarn.fail_node(engine, victim);
            if let Some(hdfs) = &env.hdfs {
                if hdfs.datanodes().len() > 1 && hdfs.datanodes().contains(&victim) {
                    hdfs.fail_datanode(engine, victim, |_, _| {});
                }
            }
        }
    }

    /// `ContainerKill` on a YARN pilot: the RM preempts up to `count` task
    /// containers and the YARN app's handlers restart or fail their units.
    /// Returns how many died, or `None` on other pilots, where the agent
    /// kills its own node-placed runs.
    pub(super) fn preempt(&self, engine: &mut Engine, count: usize) -> Option<usize> {
        Some(self.hadoop_env()?.yarn.preempt(engine, count).len())
    }

    pub(super) fn hadoop_env(&self) -> Option<&HadoopEnv> {
        match self {
            Runtime::Yarn { env, .. } => Some(env),
            _ => None,
        }
    }

    pub(super) fn spark_cluster(&self) -> Option<&SparkCluster> {
        match self {
            Runtime::Spark { cluster } => Some(cluster),
            _ => None,
        }
    }
}

/// Dense per-node slot accounting for the plain scheduler.
///
/// The allocation's nodes are stored sorted by id with all per-node state
/// in parallel vectors indexed by rank, so the first-fit scan walks flat
/// arrays instead of chasing B-tree nodes and a slot update is one binary
/// search plus an O(1) write. Ascending-id iteration matches the
/// `BTreeMap`s this replaces, so placement decisions are bit-identical.
pub(super) struct NodeSlots {
    /// Allocation nodes, sorted ascending; rank here keys every other field.
    ids: Vec<NodeId>,
    free_cores: Vec<u32>,
    /// Sum of `free_cores` over live nodes, so a saturated pilot answers
    /// "anything placeable?" in O(1) instead of rescanning the queue.
    free_total: u64,
    /// Memory committed per node (pressure model for the plain scheduler).
    committed_mem: Vec<u64>,
    /// Compute-slowdown factors (>1 ⇒ slower) from injected `NodeSlowdown`
    /// faults; applied to Compute work at launch time.
    slowdown: Vec<f64>,
    /// Nodes lost to injected crashes. The scheduler never places new work
    /// on them; `release` tolerates them.
    dead: Vec<bool>,
}

impl NodeSlots {
    pub(super) fn new(nodes: &[NodeId], cores_per_node: u32) -> Self {
        let mut ids = nodes.to_vec();
        ids.sort_unstable();
        let n = ids.len();
        NodeSlots {
            ids,
            free_cores: vec![cores_per_node; n],
            free_total: cores_per_node as u64 * n as u64,
            committed_mem: vec![0; n],
            slowdown: vec![1.0; n],
            dead: vec![false; n],
        }
    }

    /// Rank of a node; `None` for nodes outside the allocation
    /// (framework-placed containers may reference those).
    fn idx(&self, n: NodeId) -> Option<usize> {
        self.ids.binary_search(&n).ok()
    }

    /// Live nodes with their free cores, ascending by id.
    pub(super) fn live(&self) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        self.ids
            .iter()
            .zip(&self.free_cores)
            .zip(&self.dead)
            .filter(|&(_, &dead)| !dead)
            .map(|((&n, &free), _)| (n, free))
    }

    pub(super) fn any_dead(&self) -> bool {
        self.dead.contains(&true)
    }

    pub(super) fn is_dead(&self, n: NodeId) -> bool {
        self.idx(n).is_some_and(|i| self.dead[i])
    }

    /// Crashed nodes, ascending.
    pub(super) fn dead_nodes(&self) -> Vec<NodeId> {
        self.ids
            .iter()
            .zip(&self.dead)
            .filter(|&(_, &d)| d)
            .map(|(&n, _)| n)
            .collect()
    }

    /// Mark a node crashed and drop its slots. Returns `false` if it was
    /// already dead (or unknown).
    pub(super) fn kill(&mut self, n: NodeId) -> bool {
        let Some(i) = self.idx(n) else { return false };
        if self.dead[i] {
            return false;
        }
        self.dead[i] = true;
        self.free_total -= self.free_cores[i] as u64;
        self.free_cores[i] = 0;
        self.committed_mem[i] = 0;
        true
    }

    /// Compute-slowdown factor of a node: memory pressure (committed over
    /// `mem_mb` capacity, at least 1) times any injected slowdown. Nodes
    /// outside the allocation (framework-placed containers) run at 1.0.
    pub(super) fn pressure(&self, n: NodeId, mem_mb: u64) -> f64 {
        self.idx(n).map_or(1.0, |i| {
            (self.committed_mem[i] as f64 / mem_mb as f64).max(1.0) * self.slowdown[i]
        })
    }

    pub(super) fn set_slowdown(&mut self, n: NodeId, factor: f64) {
        if let Some(i) = self.idx(n) {
            self.slowdown[i] = factor;
        }
    }

    /// Take a placement's share of a node. The scheduler only ever picks
    /// live allocation nodes, so the rank lookup must succeed.
    pub(super) fn reserve(&mut self, n: NodeId, cores: u32, mem_share: u64) {
        let i = self.idx(n).expect("node known");
        self.free_cores[i] -= cores;
        self.free_total -= cores as u64;
        self.committed_mem[i] += mem_share;
    }

    /// Give back a placement's share. Crashed nodes lost their slots with
    /// the crash — their share of the placement is simply gone.
    pub(super) fn release(&mut self, n: NodeId, cores: u32, mem_share: u64) {
        if let Some(i) = self.idx(n) {
            if self.dead[i] {
                return;
            }
            self.free_cores[i] += cores;
            self.free_total += cores as u64;
            self.committed_mem[i] = self.committed_mem[i].saturating_sub(mem_share);
        }
    }
}
