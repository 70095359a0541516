//! Agent Scheduler: the unit queue, FIFO-with-skip placement and the
//! walltime drain.
//!
//! Plain pilots place units on the LRM's slot table (cores, with memory
//! tracked for pressure). Framework pilots hand placement to YARN or
//! Spark and only gate admission, so the framework is not flooded: the
//! gate is cores *and memory* for YARN, as the paper highlights, and
//! cores for Spark.

use std::collections::VecDeque;
use std::rc::Rc;

use rp_hpc::NodeId;
use rp_sim::{Engine, SimDuration, SimTime};
use rp_yarn::Resource;

use super::lrm::{Headroom, Runtime};
use super::{note, Agent, AgentInner};
use crate::description::{ComputeUnitDescription, WorkSpec};
use crate::states::UnitState;
use crate::unit::UnitHandle;

/// The queue floor of an empty queue: it fits no headroom.
pub(super) const NO_FLOOR: Resource = Resource {
    vcores: u32::MAX,
    mem_mb: u64::MAX,
};

fn componentwise_min(a: Resource, b: Resource) -> Resource {
    Resource::new(a.vcores.min(b.vcores), a.mem_mb.min(b.mem_mb))
}

/// Where a scheduled unit runs.
#[derive(Clone)]
pub(super) enum Placement {
    /// Plain execution on agent-managed core slots: (node, cores) pairs,
    /// plus the unit's memory demand for pressure accounting.
    Nodes {
        nodes: Vec<(NodeId, u32)>,
        mem_mb: u64,
        cores: u32,
    },
    /// Through the pilot's framework, holding this much of its gate.
    Framework(Resource),
}

impl Placement {
    /// The agent-managed slots a placement holds; none for framework
    /// placements.
    pub(super) fn nodes(&self) -> &[(NodeId, u32)] {
        match self {
            Placement::Nodes { nodes, .. } => nodes,
            Placement::Framework(_) => &[],
        }
    }
}

impl Agent {
    /// Append a unit to the scheduling queue. On framework pilots this
    /// lowers the queue floor and watches the unit, so the scheduler
    /// knows when a cancelled unit may still be queued. Plain pilots
    /// only push.
    pub(super) fn enqueue(&self, engine: &mut Engine, unit: UnitHandle) {
        let mut inner = self.inner.borrow_mut();
        if !matches!(inner.runtime, Runtime::Plain) {
            let gate = inner.runtime.gate(&unit.descr());
            inner.queue_floor = componentwise_min(inner.queue_floor, gate);
            let flag = inner.final_maybe_queued.clone();
            if unit.state().is_final() {
                // Cancelled during its retry backoff.
                flag.set(true);
            } else {
                // Done is reached only after the unit left the queue.
                let rec = Rc::downgrade(&unit.rec);
                unit.on_done(engine, move |_| {
                    let done = rec
                        .upgrade()
                        .is_some_and(|r| r.borrow().state.get() == UnitState::Done);
                    if !done {
                        flag.set(true);
                    }
                });
            }
        }
        inner.queue.push_back(unit);
    }

    pub(super) fn try_schedule(&self, engine: &mut Engine) {
        self.fence_if_overdue(engine);
        let mut drained = Vec::new();
        loop {
            let next = {
                let mut inner = self.inner.borrow_mut();
                if inner.stopping || inner.fenced {
                    break;
                }
                // Walltime-aware draining only makes sense when someone is
                // listening for returned units (leases armed); otherwise a
                // drained unit would be lost, which is strictly worse than
                // trying it.
                let drain_deadline = inner.deadline.filter(|_| inner.store.leases_enabled());
                inner.pop_schedulable(engine.now(), drain_deadline, &mut drained)
            };
            match next {
                Some((unit, placement)) => self.begin_unit(engine, unit, placement),
                None => break,
            }
        }
        if !drained.is_empty() {
            let (pilot, store, fence) = {
                let inner = self.inner.borrow();
                (inner.pilot, inner.store.clone(), inner.lease_epoch)
            };
            engine
                .metrics
                .add("agent.units_drained", drained.len() as u64);
            note(
                engine,
                format!(
                    "{pilot:?} draining {} units (insufficient walltime left)",
                    drained.len()
                ),
            );
            store.return_units_from(
                engine,
                pilot,
                fence,
                drained,
                "drained: insufficient walltime left",
            );
        }
    }
}

impl AgentInner {
    /// Expected runtime of a unit's work on this machine, where the model
    /// admits a prediction. `None` ⇒ unknown, and the unit is always
    /// admitted (draining must not starve unpredictable work).
    fn expected_runtime(&self, d: &ComputeUnitDescription) -> Option<SimDuration> {
        match &d.work {
            WorkSpec::Sleep(dur) => Some(*dur),
            WorkSpec::Compute { core_seconds, .. } => Some(
                self.machine
                    .cluster
                    .compute_duration(core_seconds / d.cores.max(1) as f64),
            ),
            _ => None,
        }
    }

    /// Find, reserve and pop the first schedulable unit (FIFO with skip).
    /// Units cancelled while queued are dropped here. With a drain
    /// deadline set, units whose expected runtime no longer fits the
    /// remaining walltime (minus the configured safety margin) are moved
    /// to `drained` instead of being admitted — the caller hands them
    /// back to the Unit-Manager.
    ///
    /// Cost per call, in order:
    /// - drain sweep (only with a deadline): O(queue), cloning every
    ///   queued description. It is the one path left that walks the whole
    ///   queue on every pop;
    /// - one headroom read (see `Runtime::headroom`);
    /// - on framework pilots, O(1) when the queue floor does not fit the
    ///   headroom and no cancelled unit may be queued: nothing can be
    ///   admitted, so there is no scan;
    /// - candidate scan up to the first placement: per candidate a borrow
    ///   of its description and an O(1) gate (YARN, Spark) or an
    ///   O(nodes) first fit (plain). A pop costs O(position of the
    ///   admitted unit). The last, fruitless call of a scheduling round
    ///   scans the whole queue unless the floor check above returned.
    fn pop_schedulable(
        &mut self,
        now: SimTime,
        drain_deadline: Option<SimTime>,
        drained: &mut Vec<UnitHandle>,
    ) -> Option<(UnitHandle, Placement)> {
        if let Some(deadline) = drain_deadline {
            let margin = SimDuration::from_secs_f64(self.cfg.drain_margin_s);
            let mut keep = VecDeque::with_capacity(self.queue.len());
            for u in std::mem::take(&mut self.queue) {
                if u.state().is_final() {
                    continue;
                }
                match self.expected_runtime(&u.description()) {
                    Some(est) if now + est + margin > deadline => drained.push(u),
                    _ => keep.push_back(u),
                }
            }
            self.queue = keep;
        }
        // Read once per call. Exact: the scan changes no YARN or Spark
        // capacity and the call returns on the first placement, so every
        // candidate sees what a read of its own would have returned.
        let headroom = self
            .runtime
            .headroom(&self.slots, self.framework_inflight)?;
        // Every queued gate is at least the floor, so when the floor does
        // not fit, no unit does. The scan would only drop cancelled
        // units, which `heartbeat_busy` sees through the queue length:
        // skip it only while none may be queued.
        if let Headroom::Framework(free) = headroom {
            if !self.queue_floor.fits_in(&free) && !self.final_maybe_queued.get() {
                return None;
            }
        }
        // Final (cancelled) units are dropped lazily as the scan reaches
        // them instead of a full `retain` sweep per call: a scheduling
        // round ends in a full scan or in the floor check above, which
        // only returns while no cancelled unit may be queued, so the queue
        // still ends each round fully compacted.
        let mut floor = NO_FLOOR;
        let mut i = 0;
        while i < self.queue.len() {
            if self.queue[i].state().is_final() {
                self.queue.remove(i);
                continue;
            }
            let placement = {
                let d = self.queue[i].descr();
                match headroom {
                    Headroom::Slots => self.place_on_nodes(&d),
                    Headroom::Framework(free) => {
                        let need = self.runtime.gate(&d);
                        floor = componentwise_min(floor, need);
                        need.fits_in(&free).then_some(Placement::Framework(need))
                    }
                }
            };
            if let Some(p) = placement {
                let unit = self.queue.remove(i)?;
                self.reserve(&p);
                return Some((unit, p));
            }
            i += 1;
        }
        // The scan saw every queued unit and dropped the final ones.
        self.queue_floor = floor;
        self.final_maybe_queued.set(false);
        None
    }

    /// Continuous scheduler: single-node first-fit for serial units,
    /// greedy multi-node spread for MPI units.
    fn place_on_nodes(&self, d: &ComputeUnitDescription) -> Option<Placement> {
        let cores = d.cores.max(1);
        if !d.mpi {
            // First node with enough free cores (ascending node id →
            // deterministic, same order as the BTreeMap this replaced).
            let (node, _) = self.slots.live().find(|&(_, free)| free >= cores)?;
            return Some(Placement::Nodes {
                nodes: vec![(node, cores)],
                mem_mb: d.mem_mb,
                cores,
            });
        }
        // MPI: take cores greedily across nodes.
        let mut need = cores;
        let mut picked = Vec::new();
        for (n, free) in self.slots.live().filter(|&(_, free)| free > 0) {
            let take = free.min(need);
            picked.push((n, take));
            need -= take;
            if need == 0 {
                return Some(Placement::Nodes {
                    nodes: picked,
                    mem_mb: d.mem_mb,
                    cores,
                });
            }
        }
        None
    }

    fn reserve(&mut self, placement: &Placement) {
        match placement {
            Placement::Nodes {
                nodes,
                mem_mb,
                cores,
            } => {
                for &(n, c) in nodes {
                    self.slots
                        .reserve(n, c, *mem_mb * c as u64 / (*cores).max(1) as u64);
                }
            }
            Placement::Framework(gate) => self.framework_inflight.add(gate),
        }
    }

    pub(super) fn unreserve(&mut self, placement: Placement) {
        match placement {
            Placement::Nodes {
                nodes,
                mem_mb,
                cores,
            } => {
                for (n, c) in nodes {
                    let share = mem_mb * c as u64 / cores.max(1) as u64;
                    self.slots.release(n, c, share);
                }
            }
            Placement::Framework(gate) => self.framework_inflight.sub(&gate),
        }
    }
}
