//! Agent Scheduler: the unit queue, FIFO-with-skip placement and the
//! walltime drain.
//!
//! Plain pilots place units on the LRM's slot table (cores, with memory
//! tracked for pressure). Framework pilots hand placement to YARN or
//! Spark and only gate admission, so the framework is not flooded: the
//! gate is cores *and memory* for YARN, as the paper highlights, and
//! cores for Spark.

use std::collections::VecDeque;

use rp_hpc::NodeId;
use rp_sim::{Engine, SimDuration, SimTime};
use rp_yarn::Resource;

use super::lrm::Headroom;
use super::{note, Agent, AgentInner};
use crate::description::{ComputeUnitDescription, WorkSpec};
use crate::unit::UnitHandle;

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
    /// - candidate scan up to the first placement: per candidate a borrow
    ///   of its description and an O(1) gate (YARN, Spark) or an
    ///   O(nodes) first fit (plain). A pop costs O(position of the
    ///   admitted unit); only the last, fruitless call of a scheduling
    ///   round scans the whole queue.
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
        // Final (cancelled) units are dropped lazily as the scan reaches
        // them instead of a full `retain` sweep per call: the last call of
        // every scheduling round scans the whole queue (it returns `None`
        // only after finding nothing placeable), so the queue still ends
        // each round fully compacted.
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
