//! Heartbeat and Update monitors: the heartbeat tick, the ownership
//! lease it renews, self-fencing, fault injection and the dead-run
//! detector that requeues work stranded on crashed nodes.

use rp_hpc::NodeId;
use rp_sim::{Engine, FaultKind, SimDuration};

use super::scheduler::Placement;
use super::{note, Agent, AgentInner};
use crate::coordination::Fence;
use crate::states::UnitState;
use crate::unit::PilotId;

impl AgentInner {
    /// Whether the heartbeat must keep beating: work is in flight, or the
    /// agent is fenced (the tick is where it re-acquires its lease), or
    /// leases are armed (renewal is proof of life even when idle).
    fn heartbeat_busy(&self) -> bool {
        self.running > 0 || !self.queue.is_empty() || self.fenced || self.store.leases_enabled()
    }
}

impl Agent {
    /// Arm the next heartbeat if the agent is busy and none is scheduled.
    pub(super) fn ensure_heartbeat(&self, engine: &mut Engine) {
        {
            let mut inner = self.inner.borrow_mut();
            if inner.heartbeat_armed || inner.stopping || !inner.heartbeat_busy() {
                return;
            }
            inner.heartbeat_armed = true;
        }
        let this = self.clone();
        engine.schedule_in(SimDuration::from_secs(10), move |eng| {
            let (pilot, still_busy) = {
                let mut inner = this.inner.borrow_mut();
                inner.heartbeat_armed = false;
                if inner.stopping {
                    return;
                }
                inner.heartbeats += 1;
                (inner.pilot, inner.heartbeat_busy())
            };
            eng.metrics.incr("agent.heartbeats");
            note(eng, format!("{pilot:?} heartbeat"));
            // Lease maintenance piggybacks on the heartbeat: renew under
            // the held epoch, self-fence the moment the local deadline
            // passes unrenewed, re-acquire at a fresh epoch after a
            // fence. May leave the agent fenced — then no beat is sent.
            let fenced = this.lease_tick(eng, pilot);
            if !fenced {
                // The beat itself carries no liveness (the lease does);
                // it still crosses the lossy transport, see
                // `CoordinationStore::report_heartbeat`.
                let store = this.inner.borrow().store.clone();
                store.report_heartbeat(eng, pilot);
            }
            // The Heartbeat Monitor doubles as the failure detector: any
            // run stranded on a dead node is requeued (or failed) now.
            this.detect_dead_runs(eng);
            if still_busy {
                this.ensure_heartbeat(eng);
            }
        });
    }

    /// Take the ownership lease at a fresh epoch. On success the agent
    /// holds it and is no longer fenced. Fails while partitioned or while
    /// another owner holds an unexpired lease.
    pub(super) fn acquire_lease(&self, engine: &mut Engine) -> Option<Fence> {
        let (store, pilot) = {
            let inner = self.inner.borrow();
            (inner.store.clone(), inner.pilot)
        };
        let (fence, expires) = store.try_acquire_lease(engine, pilot)?;
        let mut inner = self.inner.borrow_mut();
        inner.lease_epoch = fence;
        inner.lease_deadline = expires;
        inner.fenced = false;
        Some(fence)
    }

    /// Per-heartbeat lease maintenance. Returns whether the agent is
    /// fenced after the tick.
    fn lease_tick(&self, engine: &mut Engine, pilot: PilotId) -> bool {
        let store = self.inner.borrow().store.clone();
        if !store.leases_enabled() {
            return false;
        }
        let (fenced, fence, deadline) = {
            let inner = self.inner.borrow();
            (inner.fenced, inner.lease_epoch, inner.lease_deadline)
        };
        if fenced {
            // Fenced: the only way back is a fresh grant (new fencing
            // epoch); a failed attempt just retries next tick.
            let Some(fence) = self.acquire_lease(engine) else {
                return true;
            };
            note(
                engine,
                format!("{pilot:?} re-acquired lease at epoch {}", fence.epoch()),
            );
            return false;
        }
        if fence.epoch() == 0 {
            // Acquisition at registration was blocked (partition during
            // bootstrap); keep trying.
            self.acquire_lease(engine);
            return false;
        }
        if engine.now() >= deadline {
            self.self_fence(engine);
            return true;
        }
        if let Some(expires) = store.renew_lease(engine, pilot, fence) {
            self.inner.borrow_mut().lease_deadline = expires;
        }
        // A failed renewal (partition or stale epoch) keeps the old local
        // deadline: dispatch continues only until it passes, then the
        // deadline check above fences.
        false
    }

    /// Lazy fencing: if the lease deadline passed between heartbeats,
    /// fence before dispatching anything (the heartbeat tick would catch
    /// it too, but never after new side effects).
    pub(super) fn fence_if_overdue(&self, engine: &mut Engine) {
        let overdue = {
            let inner = self.inner.borrow();
            !inner.fenced
                && inner.lease_epoch.epoch() > 0
                && inner.store.leases_enabled()
                && engine.now() >= inner.lease_deadline
        };
        if overdue {
            self.self_fence(engine);
        }
    }

    /// Self-fence: the ownership lease expired without renewal, so from
    /// this virtual instant the agent must produce no more side effects —
    /// the Unit-Manager is free to re-bind the moment expiry + grace
    /// passes. Queued work is dropped (the UM still tracks it), live
    /// attempts are invalidated, and in-flight stage-out/completion
    /// callbacks find their `finishing` ownership tokens gone. Unlike
    /// `hang`, the agent stays registered and keeps ticking: after the
    /// partition heals it may re-acquire at a fresh epoch.
    fn self_fence(&self, engine: &mut Engine) {
        let pilot = {
            let mut inner = self.inner.borrow_mut();
            if inner.fenced {
                return;
            }
            inner.fenced = true;
            // Invalidated attempts will never release their bookkeeping
            // (their completion events die on the alive flag), so the
            // running count is reset here rather than leaked.
            inner.running = 0;
            inner.pilot
        };
        self.drop_all_work();
        engine.metrics.incr("agent.self_fences");
        note(
            engine,
            format!("{pilot:?} self-fenced (lease expired unrenewed)"),
        );
    }

    // ---- fault injection & recovery ----

    /// Map a fault plan's logical node index onto a real allocation node.
    fn map_node(&self, idx: usize) -> Option<NodeId> {
        let nodes = &self.inner.borrow().alloc.nodes;
        (!nodes.is_empty()).then(|| nodes[idx % nodes.len()])
    }

    /// Entry point for the fault injector: apply one fault to this pilot.
    pub fn apply_fault(&self, engine: &mut Engine, kind: &FaultKind) {
        match kind {
            FaultKind::NodeCrash { node } => {
                if let Some(victim) = self.map_node(*node) {
                    self.inject_node_crash(engine, victim);
                }
            }
            FaultKind::NodeSlowdown {
                node,
                factor,
                duration,
            } => {
                if let Some(victim) = self.map_node(*node) {
                    {
                        let mut inner = self.inner.borrow_mut();
                        inner.slots.set_slowdown(victim, factor.max(1.0));
                        inner.degraded = true;
                    }
                    note(
                        engine,
                        format!("{victim:?} slowed {factor:.2}x for {duration}"),
                    );
                    let this = self.clone();
                    engine.schedule_in(*duration, move |eng| {
                        this.inner.borrow_mut().slots.set_slowdown(victim, 1.0);
                        note(eng, format!("{victim:?} speed restored"));
                    });
                }
            }
            FaultKind::ContainerKill { count } => {
                self.inject_container_kill(engine, *count);
            }
            FaultKind::LinkDegrade { factor, duration } => {
                let cluster = self.inner.borrow().machine.cluster.clone();
                let link = cluster.lustre_link().clone();
                let orig = link.capacity();
                link.set_capacity(engine, (orig * factor).max(1.0));
                self.inner.borrow_mut().degraded = true;
                note(
                    engine,
                    format!("lustre link degraded to {factor:.2}x for {duration}"),
                );
                engine.schedule_in(*duration, move |eng| {
                    link.set_capacity(eng, orig);
                    note(eng, "lustre link capacity restored");
                });
            }
            FaultKind::StagingError => {
                self.inner.borrow_mut().staging_faults += 1;
            }
            FaultKind::PilotKill { .. } => {
                // Whole-pilot loss is routed at the Pilot-Manager level (the
                // placeholder batch job is killed and `terminate` runs from
                // its end-callback); nothing to do inside the agent itself.
            }
            FaultKind::Partition {
                duration,
                symmetric,
                ..
            } => {
                // Cut this agent off from the coordination store for
                // `duration` (the logical pilot index was already resolved
                // by the installer's routing). The agent itself keeps
                // running — that is the point: work continues while
                // heartbeats, lease renewals and completions are held.
                let (store, pilot) = {
                    let mut inner = self.inner.borrow_mut();
                    inner.degraded = true;
                    (inner.store.clone(), inner.pilot)
                };
                store.partition_pilot(engine, pilot, *duration, *symmetric);
            }
        }
    }

    /// Permanently lose a node: drop its slots, let the runtime propagate
    /// the loss to the frameworks on it, and let the Heartbeat Monitor
    /// requeue stranded work.
    fn inject_node_crash(&self, engine: &mut Engine, victim: NodeId) {
        let runtime = {
            let mut inner = self.inner.borrow_mut();
            if !inner.slots.kill(victim) {
                return; // already dead
            }
            inner.degraded = true;
            inner.runtime.clone()
        };
        note(engine, format!("{victim:?} crashed"));
        runtime.node_crashed(engine, victim);
        self.ensure_heartbeat(engine);
    }

    /// Kill up to `count` running executions (preemption-style).
    fn inject_container_kill(&self, engine: &mut Engine, count: usize) {
        let runtime = self.inner.borrow().runtime.clone();
        if let Some(killed) = runtime.preempt(engine, count) {
            if killed > 0 {
                self.inner.borrow_mut().degraded = true;
            }
            return;
        }
        // The agent kills its own running node-placed attempts, lowest id
        // first (deterministic order). Spark executors hold no agent
        // slots, so on a Spark pilot nothing dies.
        let victims: Vec<u64> = {
            let inner = self.inner.borrow();
            inner
                .active
                .iter()
                .filter(|(_, run)| {
                    matches!(run.placement, Placement::Nodes { .. })
                        && run.unit.state() == UnitState::Executing
                })
                .map(|(&id, _)| id)
                .take(count)
                .collect()
        };
        for id in victims {
            self.kill_run(engine, id, "container killed");
        }
    }

    /// Heartbeat-driven failure detector: requeue every active run whose
    /// placement touches a dead node.
    fn detect_dead_runs(&self, engine: &mut Engine) {
        let stranded: Vec<u64> = {
            let inner = self.inner.borrow();
            if !inner.slots.any_dead() {
                return;
            }
            inner
                .active
                .iter()
                .filter(|(_, run)| {
                    run.placement
                        .nodes()
                        .iter()
                        .any(|&(n, _)| inner.slots.is_dead(n))
                })
                .map(|(&id, _)| id)
                .collect()
        };
        for id in stranded {
            self.kill_run(engine, id, "node crashed");
        }
    }

    /// Kill one active attempt: invalidate its continuations, free its
    /// slots and either requeue it (after capped exponential backoff) or
    /// fail it terminally once the retry budget is spent.
    fn kill_run(&self, engine: &mut Engine, unit_id: u64, reason: &str) {
        let Some(run) = self.inner.borrow_mut().active.remove(&unit_id) else {
            return;
        };
        run.alive.set(false);
        self.inner.borrow_mut().degraded = true;
        let unit = run.unit;
        engine.metrics.incr("agent.attempts_killed");
        note(
            engine,
            format!(
                "{:?} lost ({reason}); attempt {}",
                unit.id(),
                unit.attempts()
            ),
        );
        self.release(engine, run.placement);
        if unit.state().is_final() {
            return;
        }
        let retry = unit.descr().retry;
        let attempts = unit.attempts();
        if attempts >= retry.max_attempts {
            unit.fail(
                engine,
                format!(
                    "{reason}: no attempts left ({attempts}/{})",
                    retry.max_attempts
                ),
            );
            return;
        }
        unit.advance(engine, UnitState::AgentScheduling);
        let backoff = retry.backoff(attempts + 1);
        let this = self.clone();
        engine.schedule_in(backoff, move |eng| {
            if this.inner.borrow().stopping {
                unit.advance(eng, UnitState::Canceled);
                return;
            }
            this.inner.borrow_mut().queue.push_back(unit);
            this.try_schedule(eng);
            this.ensure_heartbeat(eng);
        });
    }
}
