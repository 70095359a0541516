//! The RADICAL-Pilot-Agent (paper §III-B/C/D, right half of Fig. 3).
//!
//! The agent runs inside the placeholder batch job, split into the
//! paper's components:
//! - `lrm`: the Local Resource Manager. It detects the allocation and,
//!   depending on the pilot's access mode, bootstraps YARN/HDFS (Mode I),
//!   connects to the machine's dedicated Hadoop environment (Mode II) or
//!   deploys standalone Spark. Every access-mode decision lives there;
//! - `scheduler`: the agent scheduler. It assigns execution slots
//!   (cores for plain pilots; cores *and memory* for YARN-backed pilots,
//!   as the paper highlights) and drains units the walltime cannot fit;
//! - `spawner`: the Task Spawner, launching units through the selected
//!   Launch Method;
//! - `staging`: the Stage-In/Out workers;
//! - `monitor`: the Heartbeat and Update monitors, lease and fault
//!   handling.
//!
//! This file holds the agent itself: unit intake, the begin/complete
//! life of one attempt, and teardown. Completion flows back through the
//! coordination store.

mod lrm;
mod monitor;
mod scheduler;
mod spawner;
mod staging;

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

use rp_hpc::{Allocation, NodeId};
use rp_sim::{Engine, Message, SimDuration, SimTime, SpanId};
use rp_spark::SparkCluster;
use rp_yarn::{AmHandle, HadoopEnv, Resource};

use self::lrm::{NodeSlots, Runtime};
use self::scheduler::Placement;
use crate::coordination::{CoordinationStore, Fence};
use crate::description::{AccessMode, StageEndpoint, StagingDirective};
use crate::session::{MachineHandle, SessionConfig};
use crate::states::UnitState;
use crate::unit::{PilotId, UnitHandle};

/// A unit the agent currently owns resources for (staging, spawner queue
/// or executing). The `alive` flag lets the recovery path invalidate an
/// attempt's pending continuations without being able to cancel them.
#[derive(Clone)]
struct ActiveRun {
    unit: UnitHandle,
    placement: Placement,
    alive: Rc<Cell<bool>>,
}

struct AgentInner {
    pilot: PilotId,
    machine: MachineHandle,
    alloc: Allocation,
    runtime: Runtime,
    cfg: SessionConfig,
    store: CoordinationStore,
    /// Plain-scheduler slot accounting, dense per allocation node.
    slots: NodeSlots,
    /// Submission gate for framework-backed units: the framework does its
    /// own placement, and the agent avoids flooding it.
    framework_inflight: Resource,
    queue: VecDeque<UnitHandle>,
    /// Units staged and waiting for the (serial) Task Spawner.
    spawn_queue: VecDeque<ActiveRun>,
    spawner_busy: bool,
    running: usize,
    stopping: bool,
    /// Pending injected staging errors: each one fails the next staging
    /// directive once.
    staging_faults: u32,
    /// Live attempts owning agent resources, keyed by unit id. The
    /// Heartbeat Monitor scans these for runs stranded on dead nodes.
    active: BTreeMap<u64, ActiveRun>,
    /// Units past execution (staging out / awaiting the Done round trip).
    /// Ownership token: `terminate` drains this map, so a completion
    /// callback that fires after the pilot died finds its unit gone and
    /// must not flip the (possibly re-bound) unit's state.
    finishing: BTreeMap<u64, UnitHandle>,
    /// Hard end of the allocation (start + walltime): the reference for
    /// walltime-aware draining.
    deadline: Option<SimTime>,
    /// Set once any fault hit this pilot (crash detected, work requeued).
    degraded: bool,
    /// Idle RADICAL-Pilot Application Masters kept for reuse (§III-C
    /// future-work optimization, enabled by `SessionConfig::am_reuse`).
    am_pool: Vec<AmHandle>,
    framework_bootstrap: SimDuration,
    units_completed: u64,
    heartbeats: u64,
    heartbeat_armed: bool,
    /// Fence of the currently/last held ownership lease, read from the
    /// store at construction (epoch 0 = never acquired, which is also
    /// what a lease-free agent writes under). Stamped on every
    /// completion/return message.
    lease_epoch: Fence,
    /// Local expiry of the held lease (the store's expiry from the last
    /// successful grant/renewal — virtual clocks are identical, so the
    /// agent's view is never later than the store's).
    lease_deadline: SimTime,
    /// Self-fenced: the lease expired without renewal. The agent stops
    /// dispatching, drops in-flight completion tokens and waits to
    /// re-acquire at a fresh epoch once reachable again.
    fenced: bool,
}

/// Record an agent trace event at the current virtual time.
fn note(engine: &mut Engine, message: impl Into<Message>) {
    engine.trace.record(engine.now(), "agent", message);
}

/// Shared handle to a running agent.
#[derive(Clone)]
pub struct Agent {
    inner: Rc<RefCell<AgentInner>>,
}

impl Agent {
    /// Start the agent inside a granted allocation. `on_active` fires once
    /// the LRM finished provisioning (the pilot becomes Active then).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn start(
        engine: &mut Engine,
        pilot: PilotId,
        machine: MachineHandle,
        alloc: Allocation,
        access: AccessMode,
        bootstrap_span: SpanId,
        cfg: SessionConfig,
        store: CoordinationStore,
        on_active: impl FnOnce(&mut Engine, Agent) + 'static,
    ) {
        let (boot_mean, boot_std) = machine.cluster.spec().agent_bootstrap_s;
        let agent_boot =
            SimDuration::from_secs_f64(engine.rng.normal_min(boot_mean, boot_std, 0.05));
        note(
            engine,
            format!("{pilot:?} bootstrapping on {} nodes", alloc.nodes.len()),
        );
        let lrm_machine = machine.clone();
        let lrm_nodes = alloc.nodes.clone();
        let lrm_cfg = cfg.clone();
        let finish = move |eng: &mut Engine, runtime: Runtime, framework_bootstrap: SimDuration| {
            let slots = NodeSlots::new(&alloc.nodes, machine.cluster.spec().cores_per_node);
            let deadline = machine.batch.deadline(alloc.job_id);
            let agent = Agent {
                inner: Rc::new(RefCell::new(AgentInner {
                    pilot,
                    machine,
                    alloc,
                    runtime,
                    cfg,
                    store: store.clone(),
                    slots,
                    framework_inflight: Resource::new(0, 0),
                    queue: VecDeque::new(),
                    spawn_queue: VecDeque::new(),
                    spawner_busy: false,
                    running: 0,
                    stopping: false,
                    staging_faults: 0,
                    active: BTreeMap::new(),
                    finishing: BTreeMap::new(),
                    deadline,
                    degraded: false,
                    am_pool: Vec::new(),
                    framework_bootstrap,
                    units_completed: 0,
                    heartbeats: 0,
                    heartbeat_armed: false,
                    lease_epoch: store.lease_epoch(pilot),
                    lease_deadline: SimTime::ZERO,
                    fenced: false,
                })),
            };
            let a2 = agent.clone();
            store.register_agent(eng, pilot, move |eng, batch| {
                a2.receive_units(eng, batch);
            });
            // Ownership lease: acquired at registration, renewed on
            // every heartbeat. A partition at bootstrap just defers
            // acquisition to the first reachable heartbeat tick.
            if store.leases_enabled() {
                agent.acquire_lease(eng);
                // A lease-holding agent heartbeats for its whole
                // lifetime (idle included): renewal is proof of life,
                // and a lapsed-while-idle lease would force a
                // spurious self-fence the moment work arrives.
                agent.ensure_heartbeat(eng);
            }
            note(eng, format!("{pilot:?} active"));
            on_active(eng, agent);
        };

        engine.schedule_in(agent_boot, move |eng| {
            Runtime::bootstrap(
                eng,
                access,
                &lrm_machine,
                lrm_nodes,
                &lrm_cfg,
                bootstrap_span,
                finish,
            );
        });
    }

    /// Time the LRM spent provisioning the framework (YARN/Spark); zero
    /// for plain pilots. The Mode I bar-height delta of Fig. 5.
    pub fn framework_bootstrap_time(&self) -> SimDuration {
        self.inner.borrow().framework_bootstrap
    }

    /// The pilot's Hadoop environment, if one was provisioned (exposed so
    /// applications can pre-load HDFS data and inspect cluster state).
    pub fn hadoop_env(&self) -> Option<HadoopEnv> {
        self.inner.borrow().runtime.hadoop_env().cloned()
    }

    pub fn spark_cluster(&self) -> Option<SparkCluster> {
        self.inner.borrow().runtime.spark_cluster().cloned()
    }

    pub fn units_completed(&self) -> u64 {
        self.inner.borrow().units_completed
    }

    /// Heartbeats the agent pushed to the coordination store so far (the
    /// Heartbeat Monitor of Fig. 3; armed only while work is in flight so
    /// idle sessions drain the event queue).
    pub fn heartbeats(&self) -> u64 {
        self.inner.borrow().heartbeats
    }

    /// Whether any injected fault hit this pilot (a crash was detected, a
    /// container was killed, or work had to be requeued).
    pub fn is_degraded(&self) -> bool {
        self.inner.borrow().degraded
    }

    /// Nodes of the allocation lost to injected crashes.
    pub fn dead_nodes(&self) -> Vec<NodeId> {
        self.inner.borrow().slots.dead_nodes()
    }

    pub fn queued_units(&self) -> usize {
        self.inner.borrow().queue.len()
    }

    pub fn running_units(&self) -> usize {
        self.inner.borrow().running
    }

    /// Mark the agent stopping and deregister it from the store. `None`
    /// if it already stopped.
    fn begin_stop(&self) -> Option<PilotId> {
        let mut inner = self.inner.borrow_mut();
        if inner.stopping {
            return None;
        }
        inner.stopping = true;
        inner.store.deregister_agent(inner.pilot);
        Some(inner.pilot)
    }

    /// Finish the pooled AMs and stop the frameworks this pilot started.
    fn shutdown_frameworks(&self, engine: &mut Engine) {
        let (pool, runtime) = {
            let mut inner = self.inner.borrow_mut();
            (std::mem::take(&mut inner.am_pool), inner.runtime.clone())
        };
        for am in pool {
            am.finish(engine);
        }
        runtime.shutdown(engine);
    }

    /// Tear the agent down: cancel queued units, stop Mode I frameworks
    /// (a Mode II dedicated environment keeps running — it is not ours).
    pub(crate) fn stop(&self, engine: &mut Engine) {
        let Some(pilot) = self.begin_stop() else {
            return;
        };
        let queued = std::mem::take(&mut self.inner.borrow_mut().queue);
        for u in queued {
            // Cancelled units are dropped from the queue lazily; skip any
            // that already reached a final state.
            if !u.state().is_final() {
                u.advance(engine, UnitState::Canceled);
            }
        }
        self.shutdown_frameworks(engine);
        note(engine, format!("{pilot:?} stopped"));
    }

    /// Whole-pilot loss (walltime expiry, queue kill, batch failure).
    /// Unlike `stop`, which cancels queued units, this invalidates every
    /// in-flight attempt and reports all unfinished units back through
    /// the coordination store so a Unit-Manager can re-bind them to
    /// surviving pilots. Without leases (no Unit-Manager listening) it
    /// falls back to `stop`, cancelling queued units: the fault-free
    /// walltime scenario (`pilot_walltime_cancels_leftover_units`)
    /// depends on that.
    pub(crate) fn terminate(&self, engine: &mut Engine, cause: &str) {
        if !self.inner.borrow().store.leases_enabled() {
            self.stop(engine);
            return;
        }
        let Some(pilot) = self.begin_stop() else {
            return;
        };
        // Collect every unfinished unit the agent owns, exactly once.
        // Killed attempts deliberately abandon their compute spans (same
        // convention as node-crash recovery); the unit-level span closes
        // when the Unit-Manager re-binds or fails the unit.
        let mut seen = BTreeSet::new();
        let unfinished: Vec<UnitHandle> = self
            .drop_all_work()
            .into_iter()
            .filter(|u| seen.insert(u.id().0) && !u.state().is_final())
            .collect();
        self.shutdown_frameworks(engine);
        engine
            .metrics
            .add("agent.units_returned", unfinished.len() as u64);
        note(
            engine,
            format!(
                "{pilot:?} terminated ({cause}); returning {} unfinished units",
                unfinished.len()
            ),
        );
        let (store, fence) = {
            let inner = self.inner.borrow();
            (inner.store.clone(), inner.lease_epoch)
        };
        store.return_units_from(engine, pilot, fence, unfinished, cause);
    }

    /// Chaos hook: the agent process dies *silently* — heartbeats and
    /// lease renewals stop, nothing is torn down or returned, and the
    /// batch job keeps running. Stranded work is only recovered by the
    /// Unit-Manager's lease monitor (expiry + grace) or, eventually, the
    /// allocation's walltime expiry.
    pub fn hang(&self, engine: &mut Engine) {
        let Some(pilot) = self.begin_stop() else {
            return;
        };
        let active = {
            let mut inner = self.inner.borrow_mut();
            inner.finishing.clear();
            std::mem::take(&mut inner.active)
        };
        for (_, run) in active {
            run.alive.set(false);
        }
        note(engine, format!("{pilot:?} hung (silent agent death)"));
    }

    /// Drop all work the agent holds: the queue, the spawner queue, the
    /// active attempts (their continuations are invalidated) and the
    /// finishing units. Returns their units in that order; one unit may
    /// appear twice.
    fn drop_all_work(&self) -> Vec<UnitHandle> {
        let (queued, spawn, active, finishing) = {
            let mut inner = self.inner.borrow_mut();
            (
                std::mem::take(&mut inner.queue),
                std::mem::take(&mut inner.spawn_queue),
                std::mem::take(&mut inner.active),
                std::mem::take(&mut inner.finishing),
            )
        };
        let attempts = spawn.into_iter().chain(active.into_values());
        let attempts = attempts.map(|run| {
            run.alive.set(false);
            run.unit
        });
        queued
            .into_iter()
            .chain(attempts)
            .chain(finishing.into_values())
            .collect()
    }

    // ---- unit intake ----

    fn receive_units(&self, engine: &mut Engine, batch: Vec<UnitHandle>) {
        let (pilot, fenced) = {
            let inner = self.inner.borrow();
            (inner.pilot, inner.fenced)
        };
        if fenced {
            // A fenced agent takes no new work: the units stay bound to
            // this (suspect) pilot in the Unit-Manager's tracking and are
            // re-bound once lease expiry + grace passes.
            note(
                engine,
                format!("{pilot:?} fenced; ignoring {} delivered units", batch.len()),
            );
            return;
        }
        for unit in batch {
            unit.advance(engine, UnitState::AgentScheduling);
            // Ties the unit's root span to its pilot so the critical-path
            // analyzer can adopt it as a causal child of `pilot.run`.
            engine
                .trace
                .span_attr(unit.root_span(), "pilot", pilot.0.to_string());
            let verdict = {
                let inner = self.inner.borrow();
                inner.runtime.validate(
                    &unit.descr(),
                    inner.alloc.nodes.len() as u32,
                    inner.machine.cluster.spec(),
                )
            };
            if let Err(reason) = verdict {
                unit.fail(engine, reason);
                continue;
            }
            self.inner.borrow_mut().queue.push_back(unit);
        }
        self.try_schedule(engine);
        self.ensure_heartbeat(engine);
    }

    // ---- one attempt: begin, complete, release ----

    fn begin_unit(&self, engine: &mut Engine, unit: UnitHandle, placement: Placement) {
        let run = ActiveRun {
            unit: unit.clone(),
            placement,
            alive: Rc::new(Cell::new(true)),
        };
        {
            let mut inner = self.inner.borrow_mut();
            inner.running += 1;
            inner.active.insert(unit.id().0, run.clone());
        }
        unit.rec.borrow_mut().attempts += 1;
        unit.advance(engine, UnitState::StagingInput);
        // Pilot-Data dependencies not resident on this machine are pulled
        // over the inter-site network onto the parallel filesystem first.
        let (mut directives, remote, wan) = {
            let (inner, d) = (self.inner.borrow(), unit.descr());
            let remote = crate::data::remote_bytes(&d.data_deps, &inner.machine.name);
            (d.input_staging.clone(), remote, inner.cfg.inter_site_mbps)
        };
        if remote > 0 {
            engine.metrics.add("agent.wan_pull_bytes", remote);
            if engine.trace.is_enabled() {
                note(
                    engine,
                    format!("{:?} pulling {remote} B of pilot-data over WAN", unit.id()),
                );
            }
            directives.insert(
                0,
                StagingDirective {
                    bytes: remote as f64,
                    from: StageEndpoint::Remote {
                        bandwidth_mbps: wan,
                    },
                    to: StageEndpoint::Lustre,
                },
            );
        }
        let primary = run.placement.nodes().first().map(|&(n, _)| n);
        let this = self.clone();
        self.run_staging(
            engine,
            directives,
            primary,
            unit,
            Box::new(move |eng, ok| {
                if !run.alive.get() {
                    // Killed while staging; the recovery path owns the unit.
                    return;
                }
                if run.unit.state().is_final() {
                    // Canceled while staging in: drop the attempt and free
                    // its reservation instead of launching a final unit.
                    this.fail_and_release(eng, run.unit, run.placement, "canceled");
                    return;
                }
                if !ok {
                    let reason = "input staging failed after retries";
                    this.fail_and_release(eng, run.unit, run.placement, reason);
                    return;
                }
                // Staging is over even though the unit stays StagingInput
                // until its slot is granted: close the stage_in span so the
                // allocation wait is not charged to staging.
                run.unit.end_open_span(eng);
                if this.placement_lost(&run.placement) {
                    // Node died under us mid-staging; the Heartbeat Monitor
                    // will requeue this attempt.
                    return;
                }
                this.enqueue_spawn(eng, run);
            }),
        );
    }

    fn complete_unit(&self, engine: &mut Engine, unit: UnitHandle, placement: Placement) {
        // The attempt survived execution; it no longer needs crash recovery.
        // The `finishing` entry is this path's ownership token: `terminate`
        // drains it when the pilot dies, after which the stale staging /
        // roundtrip continuations below must not touch the (possibly
        // re-bound) unit.
        {
            let mut inner = self.inner.borrow_mut();
            inner.active.remove(&unit.id().0);
            inner.finishing.insert(unit.id().0, unit.clone());
        }
        unit.advance(engine, UnitState::StagingOutput);
        let directives = unit.descr().output_staging.clone();
        let primary = unit.exec_nodes().first().copied();
        let this = self.clone();
        let u2 = unit.clone();
        self.run_staging(
            engine,
            directives,
            primary,
            unit,
            Box::new(move |eng, ok| {
                if !this.inner.borrow().finishing.contains_key(&u2.id().0) {
                    return; // pilot died while staging out; UM owns the unit
                }
                if !ok {
                    this.inner.borrow_mut().finishing.remove(&u2.id().0);
                    u2.fail(eng, "output staging failed after retries");
                    this.release(eng, placement);
                    return;
                }
                // Output staging is done; the remaining coordination
                // roundtrip is overhead, not staging. It carries the
                // lease's fence: if ownership moves before the update
                // lands (partition → lease revoked), the store rejects it
                // instead of double-completing the unit.
                u2.end_open_span(eng);
                let (store, pilot, fence) = {
                    let inner = this.inner.borrow();
                    (inner.store.clone(), inner.pilot, inner.lease_epoch)
                };
                let this2 = this.clone();
                store.roundtrip_from(eng, pilot, fence, move |eng| {
                    let owned = this2.inner.borrow_mut().finishing.remove(&u2.id().0);
                    if owned.is_none() {
                        return; // pilot died mid-roundtrip; UM owns the unit
                    }
                    u2.advance(eng, UnitState::Done);
                    eng.metrics.incr("agent.units_completed");
                    this2.inner.borrow_mut().units_completed += 1;
                    this2.release(eng, placement);
                });
            }),
        );
    }

    fn release(&self, engine: &mut Engine, placement: Placement) {
        {
            let mut inner = self.inner.borrow_mut();
            inner.running -= 1;
            inner.unreserve(placement);
        }
        self.try_schedule(engine);
    }

    /// Drop an attempt's recovery record, fail the unit and free its
    /// slots. A unit cancelled before it ran is already final: it just
    /// gives its reservation back, and `reason` goes unused.
    fn fail_and_release(
        &self,
        engine: &mut Engine,
        unit: UnitHandle,
        placement: Placement,
        reason: &str,
    ) {
        self.inner.borrow_mut().active.remove(&unit.id().0);
        if !unit.state().is_final() {
            unit.fail(engine, reason);
        }
        self.release(engine, placement);
    }

    /// Whether a placement holds slots on a node that has since crashed.
    fn placement_lost(&self, placement: &Placement) -> bool {
        let inner = self.inner.borrow();
        placement
            .nodes()
            .iter()
            .any(|&(n, _)| inner.slots.is_dead(n))
    }
}
