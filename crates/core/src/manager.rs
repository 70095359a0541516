//! Pilot-Manager and Unit-Manager (client side of Fig. 3).
//!
//! The Pilot-Manager owns pilot lifecycles: it turns a
//! [`PilotDescription`] into a SAGA placeholder job (P.1–P.2) and starts
//! the agent when the batch system grants nodes. The Unit-Manager owns
//! workload lifecycles: it schedules Compute-Units across pilots and
//! queues their documents in the coordination store (U.1–U.2).

use std::cell::RefCell;
use std::rc::Rc;

use rp_hpc::JobState;
use rp_sim::{Engine, OpenSpan, SimDuration, SimTime, SpanId, Trace};

use crate::agent::Agent;
use crate::coordination::Revoked;
use crate::description::{AccessMode, ComputeUnitDescription, PilotDescription};
use crate::session::{PilotError, Session};
use crate::states::{Guarded, PilotState};
use crate::unit::{when_all_done, PilotId, UnitHandle};

/// Why the Unit-Manager lost a pilot. A lease loss can only be reported
/// with the store's [`Revoked`] proof, so the old owner is fenced before
/// any of its units are re-bound.
enum PilotLoss {
    /// The pilot reached a terminal state other than a user cancel.
    Final(PilotId),
    /// The pilot's lease expired past grace and was revoked.
    LeaseRevoked(Revoked),
}

impl PilotLoss {
    fn pilot(&self) -> PilotId {
        match self {
            PilotLoss::Final(pilot) => *pilot,
            PilotLoss::LeaseRevoked(revoked) => revoked.pilot(),
        }
    }

    fn cause(&self) -> &'static str {
        match self {
            PilotLoss::Final(_) => "pilot reached a terminal state",
            PilotLoss::LeaseRevoked(_) => "pilot lease expired",
        }
    }
}

/// Pilot lifecycle milestones.
#[derive(Debug, Clone, Copy, Default)]
pub struct PilotTimestamps {
    pub submitted: Option<SimTime>,
    /// Batch job granted nodes; agent bootstrap begins.
    pub launched: Option<SimTime>,
    /// Agent (and Mode I framework) ready; accepting units.
    pub active: Option<SimTime>,
    pub finished: Option<SimTime>,
}

impl PilotTimestamps {
    /// Submission → Active: the Fig. 5 "Pilot startup time".
    pub fn startup_time(&self) -> Option<SimDuration> {
        Some(self.active?.since(self.submitted?))
    }
}

type FinalWaiter = Box<dyn FnOnce(&mut Engine, PilotState)>;

struct PilotRecord {
    id: PilotId,
    descr: PilotDescription,
    state: Guarded<PilotState>,
    times: PilotTimestamps,
    agent: Option<Agent>,
    saga_job: Option<rp_saga::SagaJob>,
    assigned_units: u64,
    /// Root lifecycle span ("pilot.run"): its id, kept after the run for
    /// the profilers, and the open span until the final state. Then the
    /// currently open child phase span. All `NONE` when tracing is
    /// disabled.
    span_root: SpanId,
    span_run: OpenSpan,
    span_open: OpenSpan,
    /// Callbacks fired once when the pilot reaches a final state (the
    /// Unit-Manager's failover monitor registers here).
    waiters: Vec<FinalWaiter>,
}

impl PilotRecord {
    /// Close the open phase span and open `next` (if any) under the root.
    fn next_phase(&mut self, trace: &mut Trace, now: SimTime, next: Option<&str>) {
        trace.span_end(now, std::mem::take(&mut self.span_open));
        if let Some(name) = next {
            self.span_open = trace.span_begin(now, "pilot", name, self.span_root);
        }
    }
}

/// Shared handle to a pilot. Cheap to clone.
#[derive(Clone)]
pub struct PilotHandle {
    rec: Rc<RefCell<PilotRecord>>,
}

impl PilotHandle {
    pub fn id(&self) -> PilotId {
        self.rec.borrow().id
    }

    pub fn state(&self) -> PilotState {
        self.rec.borrow().state.get()
    }

    pub fn description(&self) -> PilotDescription {
        self.rec.borrow().descr.clone()
    }

    pub fn times(&self) -> PilotTimestamps {
        self.rec.borrow().times
    }

    /// The agent, once the pilot is Active.
    pub fn agent(&self) -> Option<Agent> {
        self.rec.borrow().agent.clone()
    }

    pub fn assigned_units(&self) -> u64 {
        self.rec.borrow().assigned_units
    }

    /// Bind `unit` here and count it in [`assigned_units`](Self::assigned_units).
    fn bind(&self, unit: &UnitHandle) {
        let mut pilot = self.rec.borrow_mut();
        pilot.assigned_units += 1;
        unit.rec.borrow_mut().pilot = Some(pilot.id);
    }

    /// Root lifecycle span ("pilot.run"), for the phase profiler.
    pub fn root_span(&self) -> SpanId {
        self.rec.borrow().span_root
    }

    /// Currently open phase span (e.g. "pilot.bootstrap" while Launching);
    /// framework startup spans nest under it.
    pub(crate) fn open_span(&self) -> SpanId {
        self.rec.borrow().span_open.id()
    }

    /// Run `cb` once the pilot reaches a final state. Returns `false` if
    /// it is already final — the callback is not retained then, and the
    /// caller handles the already-final case inline.
    pub fn watch_final(&self, cb: impl FnOnce(&mut Engine, PilotState) + 'static) -> bool {
        let mut rec = self.rec.borrow_mut();
        if rec.state.get().is_final() {
            return false;
        }
        rec.waiters.push(Box::new(cb));
        true
    }

    /// Kill the pilot's placeholder batch job (queue kill, hardware loss).
    /// The job's end-callback then terminates the agent, which reports
    /// every unfinished unit back through the coordination store for
    /// cross-pilot re-binding. No-op on final pilots.
    pub fn kill(&self, engine: &mut Engine) {
        if self.state().is_final() {
            return;
        }
        let job = self.rec.borrow().saga_job.clone();
        match job {
            Some(job) => job.fail(engine),
            // Never made it into the batch system; fail directly.
            None => self.advance(engine, PilotState::Failed),
        }
    }

    fn advance(&self, engine: &mut Engine, next: PilotState) {
        let waiters = {
            let mut rec = self.rec.borrow_mut();
            rec.state.advance(next);
            let now = engine.now();
            match next {
                PilotState::PendingLaunch => {
                    rec.times.submitted = Some(now);
                    let root = engine
                        .trace
                        .span_begin(now, "pilot", "pilot.run", SpanId::NONE);
                    rec.span_root = root.id();
                    rec.span_run = root;
                    engine
                        .trace
                        .span_attr(rec.span_root, "pilot", rec.id.0.to_string());
                    engine
                        .trace
                        .span_attr(rec.span_root, "resource", rec.descr.resource.clone());
                    engine
                        .trace
                        .span_attr(rec.span_root, "nodes", rec.descr.nodes.to_string());
                    rec.next_phase(&mut engine.trace, now, Some("pilot.queue_wait"));
                }
                PilotState::Launching => {
                    rec.times.launched = Some(now);
                    rec.next_phase(&mut engine.trace, now, Some("pilot.bootstrap"));
                }
                PilotState::Active => {
                    rec.times.active = Some(now);
                    rec.next_phase(&mut engine.trace, now, None);
                }
                s if s.is_final() => {
                    rec.times.finished = Some(now);
                    rec.next_phase(&mut engine.trace, now, None);
                    engine
                        .trace
                        .span_end(now, std::mem::take(&mut rec.span_run));
                }
                _ => {}
            }
            if next.is_final() {
                std::mem::take(&mut rec.waiters)
            } else {
                Vec::new()
            }
        };
        engine.metrics.incr(next.transition_key());
        engine
            .trace
            .record(engine.now(), "pilot", self.id().transition(next));
        for w in waiters {
            w(engine, next);
        }
    }
}

/// Manages the lifecycle of a set of Pilots.
pub struct PilotManager {
    session: Session,
}

impl PilotManager {
    pub fn new(session: &Session) -> PilotManager {
        PilotManager {
            session: session.clone(),
        }
    }

    /// Submit a pilot: validates the resource/access pair, then launches
    /// the placeholder job through SAGA.
    pub fn submit(
        &self,
        engine: &mut Engine,
        descr: PilotDescription,
    ) -> Result<PilotHandle, PilotError> {
        let machine = self.session.machine(engine, &descr.resource)?;
        if matches!(descr.access, AccessMode::YarnModeII) && machine.dedicated.is_none() {
            return Err(PilotError::NoDedicatedHadoop(descr.resource.clone()));
        }
        let id = self.session.next_pilot_id();
        let handle = PilotHandle {
            rec: Rc::new(RefCell::new(PilotRecord {
                id,
                descr: descr.clone(),
                state: Guarded::<PilotState>::new(),
                times: PilotTimestamps::default(),
                agent: None,
                saga_job: None,
                assigned_units: 0,
                span_root: SpanId::NONE,
                span_run: OpenSpan::NONE,
                span_open: OpenSpan::NONE,
                waiters: Vec::new(),
            })),
        };
        let scheme = machine.cluster.spec().scheduler.scheme();
        let url = rp_saga::SagaUrl::parse(&format!(
            "{scheme}://{}{}",
            machine.name,
            descr
                .queue
                .as_ref()
                .map(|q| format!("/{q}"))
                .unwrap_or_default()
        ))
        .map_err(|e| PilotError::Saga(e.to_string()))?;
        let service = rp_saga::JobService::connect(url, machine.batch.clone())
            .map_err(|e| PilotError::Saga(e.to_string()))?;

        handle.advance(engine, PilotState::PendingLaunch);
        let session = self.session.clone();
        let h_start = handle.clone();
        let h_end = handle.clone();
        let access = descr.access.clone();
        let job = service.submit(
            engine,
            rp_saga::JobDescription::new("radical-pilot-agent", descr.nodes, descr.runtime),
            move |eng, alloc| {
                h_start.advance(eng, PilotState::Launching);
                let h2 = h_start.clone();
                Agent::start(
                    eng,
                    id,
                    machine,
                    alloc,
                    access,
                    h_start.open_span(),
                    session.config(),
                    session.store(),
                    move |eng, agent| {
                        h2.rec.borrow_mut().agent = Some(agent);
                        h2.advance(eng, PilotState::Active);
                    },
                );
            },
            move |eng, job_state| {
                // Batch job ended (walltime, cancellation, completion).
                let state = h_end.state();
                if state.is_final() {
                    return;
                }
                let (next, cause) = match job_state {
                    JobState::Cancelled => (PilotState::Canceled, "pilot canceled"),
                    JobState::Completed => (PilotState::Done, "pilot completed"),
                    JobState::TimedOut => (PilotState::Done, "pilot walltime expired"),
                    _ => (PilotState::Failed, "pilot lost (batch job failed)"),
                };
                if let Some(agent) = h_end.agent() {
                    // With leases armed this reports every unfinished unit
                    // back through the coordination store; otherwise it is
                    // a hard stop (see `Agent::terminate`).
                    agent.terminate(eng, cause);
                }
                h_end.advance(eng, next);
            },
        );
        handle.rec.borrow_mut().saga_job = Some(job);
        Ok(handle)
    }

    /// Cancel a pilot: tears the agent down and releases the allocation.
    pub fn cancel(&self, engine: &mut Engine, pilot: &PilotHandle) {
        if pilot.state().is_final() {
            return;
        }
        if let Some(agent) = pilot.agent() {
            agent.stop(engine);
        }
        // Completing the batch job triggers the on_end path above, which
        // would mark Done — advance to Canceled first.
        pilot.advance(engine, PilotState::Canceled);
        let job = pilot.rec.borrow().saga_job.clone();
        if let Some(job) = job {
            job.cancel(engine);
        }
    }
}

/// Unit-Manager scheduling policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UmScheduler {
    /// Cycle through pilots in registration order.
    #[default]
    RoundRobin,
    /// Everything to the first pilot.
    Direct,
}

struct UmInner {
    scheduler: UmScheduler,
    pilots: Vec<PilotHandle>,
    rr_cursor: usize,
    /// Every unit this UM submitted — scanned to rescue the ones bound to
    /// a pilot that was lost.
    tracked: Vec<UnitHandle>,
    /// Pilots declared lost; never picked again.
    dead: std::collections::BTreeSet<PilotId>,
    /// Lease grace; `Some` iff cross-pilot failover is armed
    /// (`enable_leases` ran). A pilot is declared lost only once its
    /// ownership lease has been expired for this long, and the lease is
    /// revoked (fencing epoch bumped) before any unit is re-bound.
    lease_grace: Option<SimDuration>,
    monitor_armed: bool,
    /// When units were last pushed to each pilot (the monitor's silence
    /// clock for a pilot that never acquired a lease).
    bound_at: std::collections::BTreeMap<PilotId, SimTime>,
    rebinds: u64,
}

impl UmInner {
    /// Pilots still eligible for placement. Falls back to the full list
    /// when none is left alive.
    fn candidates(&self) -> Vec<PilotHandle> {
        let alive: Vec<PilotHandle> = self
            .pilots
            .iter()
            .filter(|p| !self.dead.contains(&p.id()) && !p.state().is_final())
            .cloned()
            .collect();
        if alive.is_empty() {
            self.pilots.clone()
        } else {
            alive
        }
    }

    /// Pick a pilot among the [`candidates`](Self::candidates).
    fn pick(&mut self) -> PilotHandle {
        let cands = self.candidates();
        self.pick_from(&cands)
    }

    fn pick_from(&mut self, cands: &[PilotHandle]) -> PilotHandle {
        match self.scheduler {
            UmScheduler::Direct => cands[0].clone(),
            UmScheduler::RoundRobin => {
                let i = self.rr_cursor;
                self.rr_cursor = (i + 1) % cands.len();
                cands[i % cands.len()].clone()
            }
        }
    }
}

/// Manages Compute-Units and dispatches them to pilots.
#[derive(Clone)]
pub struct UnitManager {
    session: Session,
    inner: Rc<RefCell<UmInner>>,
}

impl UnitManager {
    pub fn new(session: &Session, scheduler: UmScheduler) -> UnitManager {
        UnitManager {
            session: session.clone(),
            inner: Rc::new(RefCell::new(UmInner {
                scheduler,
                pilots: Vec::new(),
                rr_cursor: 0,
                tracked: Vec::new(),
                dead: std::collections::BTreeSet::new(),
                lease_grace: None,
                monitor_armed: false,
                bound_at: std::collections::BTreeMap::new(),
                rebinds: 0,
            })),
        }
    }

    pub fn add_pilot(&mut self, pilot: &PilotHandle) {
        let failover = {
            let mut inner = self.inner.borrow_mut();
            inner.pilots.push(pilot.clone());
            inner.lease_grace.is_some()
        };
        if failover {
            self.watch_pilot(pilot);
        }
    }

    pub fn pilots(&self) -> Vec<PilotHandle> {
        self.inner.borrow().pilots.clone()
    }

    /// Units re-bound to another pilot so far.
    pub fn rebinds(&self) -> u64 {
        self.inner.borrow().rebinds
    }

    /// Arm cross-pilot failover under lease-based ownership. Every agent
    /// must hold a `duration`-long lease (renewed on its heartbeat tick)
    /// to dispatch. The UM registers as the coordination store's client,
    /// receiving units an agent reports back on pilot loss or walltime
    /// drain, and watches every pilot's terminal state. Silent agent
    /// death is detected by lease expiry: the monitor declares a pilot
    /// lost once its lease has been expired for `grace`, and first
    /// revokes it, bumping the fencing epoch so a healed zombie's stale
    /// writes are rejected at the store. Until this runs, pilot loss
    /// keeps the hard-stop semantics (queued units are cancelled,
    /// in-flight ones are stranded). Idempotent.
    ///
    /// Safety requires `grace` to exceed the agent heartbeat period
    /// (10 s): the agent self-fences at its first tick past expiry, so it
    /// is guaranteed fenced before any unit is re-bound.
    pub fn enable_leases(&self, engine: &mut Engine, duration: SimDuration, grace: SimDuration) {
        {
            let mut inner = self.inner.borrow_mut();
            if inner.lease_grace.is_some() {
                return;
            }
            inner.lease_grace = Some(grace);
        }
        let this = self.clone();
        self.session
            .store()
            .enable_leases(duration, move |eng, pilot, units, cause| {
                this.on_units_returned(eng, pilot, units, cause);
            });
        let pilots = self.inner.borrow().pilots.clone();
        for p in &pilots {
            self.watch_pilot(p);
        }
        self.ensure_monitor(engine);
    }

    fn watch_pilot(&self, pilot: &PilotHandle) {
        let this = self.clone();
        let id = pilot.id();
        let registered = pilot.watch_final(move |eng, state| {
            if state == PilotState::Canceled {
                // A user cancel is deliberate: no failover, and no pilot
                // loss counted. The `pilot_loss` bench cancels its live
                // pilots at teardown, and its fault-free case pins
                // `um.pilots_lost` at 0 through this.
                return;
            }
            this.handle_pilot_loss(eng, PilotLoss::Final(id));
        });
        if !registered {
            // Added a pilot that is already gone: never pick it.
            self.inner.borrow_mut().dead.insert(id);
        }
    }

    /// Submit descriptions; returns live handles (U.1 → U.2).
    pub fn submit_units(
        &self,
        engine: &mut Engine,
        descrs: Vec<ComputeUnitDescription>,
    ) -> Vec<UnitHandle> {
        assert!(
            !self.inner.borrow().pilots.is_empty(),
            "UnitManager has no pilots — call add_pilot first"
        );
        let store = self.session.store();
        let mut per_pilot: std::collections::BTreeMap<PilotId, Vec<UnitHandle>> =
            std::collections::BTreeMap::new();
        let mut handles = Vec::with_capacity(descrs.len());
        for d in descrs {
            let unit = UnitHandle::new(self.session.next_unit_id(), d);
            let pilot = self.inner.borrow_mut().pick();
            pilot.bind(&unit);
            unit.advance(engine, crate::states::UnitState::UmScheduling);
            per_pilot.entry(pilot.id()).or_default().push(unit.clone());
            self.inner.borrow_mut().tracked.push(unit.clone());
            handles.push(unit);
        }
        let now = engine.now();
        for (pilot, units) in per_pilot {
            self.inner.borrow_mut().bound_at.insert(pilot, now);
            store.push_units(engine, pilot, units);
        }
        self.ensure_monitor(engine);
        handles
    }

    /// Submit units that must not start before every unit in `deps`
    /// reached a final state (the paper's "set of dependent CUs", §II).
    /// The units are created immediately (state `New` until dispatch);
    /// their documents enter the coordination store once the dependencies
    /// resolve. If any dependency fails or is cancelled, the dependents
    /// are cancelled instead of dispatched.
    pub fn submit_units_after(
        &self,
        engine: &mut Engine,
        descrs: Vec<ComputeUnitDescription>,
        deps: &[UnitHandle],
    ) -> Vec<UnitHandle> {
        assert!(
            !self.inner.borrow().pilots.is_empty(),
            "UnitManager has no pilots — call add_pilot first"
        );
        if deps.is_empty() {
            return self.submit_units(engine, descrs);
        }
        let store = self.session.store();
        let mut handles = Vec::with_capacity(descrs.len());
        let mut planned: Vec<(crate::unit::PilotId, UnitHandle)> = Vec::new();
        for d in descrs {
            let unit = UnitHandle::new(self.session.next_unit_id(), d);
            let pilot = self.inner.borrow_mut().pick();
            pilot.bind(&unit);
            planned.push((pilot.id(), unit.clone()));
            self.inner.borrow_mut().tracked.push(unit.clone());
            handles.push(unit);
        }
        let deps_vec: Vec<UnitHandle> = deps.to_vec();
        let this = self.clone();
        when_all_done(engine, deps, move |eng| {
            let all_ok = deps_vec
                .iter()
                .all(|d| d.state() == crate::states::UnitState::Done);
            let mut per_pilot: std::collections::BTreeMap<crate::unit::PilotId, Vec<UnitHandle>> =
                std::collections::BTreeMap::new();
            for (pilot, unit) in planned {
                if all_ok {
                    // The planned pilot may have died while the deps ran;
                    // late binding lets us re-pick at dispatch time.
                    let pilot = if this.inner.borrow().dead.contains(&pilot) {
                        let target = this.inner.borrow_mut().pick();
                        target.bind(&unit);
                        target.id()
                    } else {
                        pilot
                    };
                    unit.advance(eng, crate::states::UnitState::UmScheduling);
                    per_pilot.entry(pilot).or_default().push(unit);
                } else {
                    unit.fail(eng, "dependency failed or was cancelled");
                }
            }
            let now = eng.now();
            for (pilot, units) in per_pilot {
                this.inner.borrow_mut().bound_at.insert(pilot, now);
                store.push_units(eng, pilot, units);
            }
            this.ensure_monitor(eng);
        });
        handles
    }

    /// Best-effort cancellation: units not yet executing are dropped at
    /// the agent's next scheduling pass; executing units run to completion
    /// (matching RADICAL-Pilot's cancellation semantics for in-flight
    /// tasks). No-op on final units.
    pub fn cancel_unit(&self, engine: &mut Engine, unit: &UnitHandle) {
        use crate::states::UnitState;
        let state = unit.state();
        if state.is_final() || state == UnitState::Executing || state == UnitState::StagingOutput {
            return;
        }
        unit.advance(engine, UnitState::Canceled);
    }

    // ---- cross-pilot failover ----

    /// A pilot is gone (terminal state or lease expiry): mark it
    /// dead, then rescue every unit still bound to it — documents never picked up from the
    /// store plus tracked in-flight units — and re-bind them.
    fn handle_pilot_loss(&self, engine: &mut Engine, loss: PilotLoss) {
        let (dead, cause) = (loss.pilot(), loss.cause());
        if !self.inner.borrow_mut().dead.insert(dead) {
            return;
        }
        engine.metrics.incr("um.pilots_lost");
        engine
            .trace
            .record(engine.now(), "um", format!("{dead:?} lost ({cause})"));
        let pending = self.session.store().take_pending(dead);
        let stranded: Vec<UnitHandle> = {
            let inner = self.inner.borrow();
            inner
                .tracked
                .iter()
                .filter(|u| u.pilot() == Some(dead) && !u.state().is_final())
                .cloned()
                .collect()
        };
        // `rebind` is idempotent (skips units no longer bound to `dead`),
        // so the overlap between the two sets is harmless.
        for u in pending.into_iter().chain(stranded) {
            self.rebind(engine, u, dead, cause);
        }
    }

    /// Units an agent reported back through the coordination store
    /// (walltime drain or pilot death). May arrive late or twice — the
    /// transport is at-least-once — so `rebind` carries the idempotence.
    fn on_units_returned(
        &self,
        engine: &mut Engine,
        pilot: PilotId,
        units: Vec<UnitHandle>,
        cause: &str,
    ) {
        engine.trace.record(
            engine.now(),
            "um",
            format!("{} units returned from {pilot:?} ({cause})", units.len()),
        );
        for u in units {
            self.rebind(engine, u, pilot, cause);
        }
    }

    /// Re-bind one unit away from `from`, respecting the per-unit re-bind
    /// budget. Stale/duplicate requests (unit already re-bound or final)
    /// are dropped silently.
    fn rebind(&self, engine: &mut Engine, unit: UnitHandle, from: PilotId, cause: &str) {
        use crate::states::UnitState;
        let state = unit.state();
        if state.is_final() || unit.pilot() != Some(from) {
            return;
        }
        if state == UnitState::New {
            // Dependent unit not yet dispatched: `submit_units_after`
            // re-picks its pilot at dispatch time.
            return;
        }
        let max = unit.descr().max_rebinds;
        if unit.rebinds() >= max {
            unit.fail(
                engine,
                format!("re-bind budget exhausted ({max}) after {cause}"),
            );
            return;
        }
        let target = {
            let mut inner = self.inner.borrow_mut();
            let cands: Vec<PilotHandle> = inner
                .candidates()
                .into_iter()
                .filter(|p| !p.state().is_final() && !inner.dead.contains(&p.id()))
                .collect();
            // Prefer any pilot other than the one that just shed the unit
            // (a drained unit re-bound to the same pilot drains again).
            let others: Vec<PilotHandle> =
                cands.iter().filter(|p| p.id() != from).cloned().collect();
            let pool = if others.is_empty() { cands } else { others };
            if pool.is_empty() {
                None
            } else {
                Some(inner.pick_from(&pool))
            }
        };
        let Some(target) = target else {
            unit.fail(
                engine,
                format!("no surviving pilot to re-bind to after {cause}"),
            );
            return;
        };
        unit.rec.borrow_mut().rebinds += 1;
        if state != UnitState::UmScheduling {
            unit.advance(engine, UnitState::UmScheduling);
        }
        target.bind(&unit);
        {
            let mut inner = self.inner.borrow_mut();
            inner.rebinds += 1;
            inner.bound_at.insert(target.id(), engine.now());
        }
        engine.metrics.incr("um.rebinds");
        engine.trace.record(
            engine.now(),
            "um",
            format!(
                "{:?} re-bound {from:?} -> {:?} ({cause})",
                unit.id(),
                target.id()
            ),
        );
        self.session
            .store()
            .push_units(engine, target.id(), vec![unit]);
        self.ensure_monitor(engine);
    }

    /// Arm the next lease check if failover is armed and some unit is
    /// still in flight. Quiet on healthy systems: the tick emits no trace
    /// or metrics unless it declares a pilot dead.
    fn ensure_monitor(&self, engine: &mut Engine) {
        let Some(lease) = self.session.store().lease_duration() else {
            return;
        };
        let (grace, tick) = {
            let mut inner = self.inner.borrow_mut();
            let Some(grace) = inner.lease_grace else {
                return;
            };
            if inner.monitor_armed || !inner.tracked.iter().any(|u| !u.state().is_final()) {
                return;
            }
            inner.monitor_armed = true;
            let tick = SimDuration((lease + grace).0 / 2).max(SimDuration::from_secs(1));
            (grace, tick)
        };
        let this = self.clone();
        engine.schedule_in(tick, move |eng| {
            this.inner.borrow_mut().monitor_armed = false;
            this.monitor_tick(eng, lease, grace);
        });
    }

    fn monitor_tick(&self, engine: &mut Engine, lease: SimDuration, grace: SimDuration) {
        let now = engine.now();
        let store = self.session.store();
        let suspects: Vec<PilotId> = {
            let inner = self.inner.borrow();
            inner
                .pilots
                .iter()
                .filter(|p| {
                    let id = p.id();
                    if inner.dead.contains(&id) || p.state() != PilotState::Active {
                        return false;
                    }
                    let bound = inner
                        .tracked
                        .iter()
                        .any(|u| u.pilot() == Some(id) && !u.state().is_final());
                    if !bound {
                        return false;
                    }
                    // Ownership moves only once the lease the agent last
                    // held has been expired for the grace window — the
                    // agent self-fenced at expiry, so re-binding can never
                    // double-run a unit.
                    match store.lease_expiry(id) {
                        Some(expires) => now > expires + grace,
                        // Never acquired (partitioned since bootstrap or
                        // already revoked): fall back to binding-age
                        // silence at the same horizon.
                        None => {
                            let mut since = p.times().active.unwrap_or(SimTime::ZERO);
                            if let Some(&b) = inner.bound_at.get(&id) {
                                since = since.max(b);
                            }
                            now.since(since) > lease + grace
                        }
                    }
                })
                .map(|p| p.id())
                .collect()
        };
        for id in suspects {
            // Revoke first: the epoch bump fences any in-flight or
            // post-heal writes from the old owner before new ownership
            // exists, and the loss cannot be reported without its proof.
            let revoked = store.revoke_lease(engine, id);
            self.handle_pilot_loss(engine, PilotLoss::LeaseRevoked(revoked));
        }
        self.ensure_monitor(engine);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::description::WorkSpec;
    use crate::session::SessionConfig;
    use crate::states::UnitState;

    fn sleep_unit(name: &str, secs: u64) -> ComputeUnitDescription {
        ComputeUnitDescription::new(name, 1, WorkSpec::Sleep(SimDuration::from_secs(secs)))
    }

    /// Cross-pilot failover as every test here arms it: 60 s leases,
    /// 30 s grace.
    fn arm_leases(um: &UnitManager, e: &mut Engine) {
        um.enable_leases(e, SimDuration::from_secs(60), SimDuration::from_secs(30));
    }

    #[test]
    fn plain_pilot_runs_units_end_to_end() {
        let mut e = Engine::new(1);
        let session = Session::new(SessionConfig::test_profile());
        let pm = PilotManager::new(&session);
        let pilot = pm
            .submit(
                &mut e,
                PilotDescription::new("localhost", 2, SimDuration::from_secs(3600)),
            )
            .unwrap();
        let mut um = UnitManager::new(&session, UmScheduler::Direct);
        um.add_pilot(&pilot);
        let units = um.submit_units(
            &mut e,
            (0..8).map(|i| sleep_unit(&format!("u{i}"), 2)).collect(),
        );
        e.run_until(SimTime::from_secs_f64(120.0));
        assert_eq!(pilot.state(), PilotState::Active);
        for u in &units {
            assert_eq!(u.state(), UnitState::Done, "{:?}", u.id());
            assert!(u.times().startup_time().is_some());
        }
        assert_eq!(pilot.agent().unwrap().units_completed(), 8);
        pm.cancel(&mut e, &pilot);
        e.run();
        assert_eq!(pilot.state(), PilotState::Canceled);
    }

    #[test]
    fn pilot_startup_time_is_recorded() {
        let mut e = Engine::new(2);
        let session = Session::new(SessionConfig::test_profile());
        let pm = PilotManager::new(&session);
        let pilot = pm
            .submit(
                &mut e,
                PilotDescription::new("localhost", 1, SimDuration::from_secs(600)),
            )
            .unwrap();
        e.run_until(SimTime::from_secs_f64(60.0));
        let t = pilot.times();
        assert!(t.startup_time().is_some());
    }

    #[test]
    fn mode_ii_rejected_without_dedicated_env() {
        let mut e = Engine::new(1);
        let session = Session::new(SessionConfig::test_profile());
        let pm = PilotManager::new(&session);
        let err = pm
            .submit(
                &mut e,
                PilotDescription::new("xsede.stampede", 1, SimDuration::from_secs(600))
                    .with_access(AccessMode::YarnModeII),
            )
            .err()
            .unwrap();
        assert!(matches!(err, PilotError::NoDedicatedHadoop(_)));
    }

    #[test]
    fn walltime_expiry_finishes_pilot() {
        let mut e = Engine::new(3);
        let session = Session::new(SessionConfig::test_profile());
        let pm = PilotManager::new(&session);
        let pilot = pm
            .submit(
                &mut e,
                PilotDescription::new("localhost", 1, SimDuration::from_secs(30)),
            )
            .unwrap();
        e.run();
        assert_eq!(pilot.state(), PilotState::Done);
        assert!(pilot.times().finished.is_some());
    }

    #[test]
    fn round_robin_spreads_units() {
        let mut e = Engine::new(4);
        let session = Session::new(SessionConfig::test_profile());
        let pm = PilotManager::new(&session);
        let p1 = pm
            .submit(
                &mut e,
                PilotDescription::new("localhost", 1, SimDuration::from_secs(600)),
            )
            .unwrap();
        let p2 = pm
            .submit(
                &mut e,
                PilotDescription::new("localhost", 1, SimDuration::from_secs(600)),
            )
            .unwrap();
        let mut um = UnitManager::new(&session, UmScheduler::RoundRobin);
        um.add_pilot(&p1);
        um.add_pilot(&p2);
        let units = um.submit_units(
            &mut e,
            (0..6).map(|i| sleep_unit(&format!("u{i}"), 1)).collect(),
        );
        assert_eq!(p1.assigned_units(), 3);
        assert_eq!(p2.assigned_units(), 3);
        e.run_until(SimTime::from_secs_f64(120.0));
        assert!(units.iter().all(|u| u.state() == UnitState::Done));
    }

    #[test]
    fn mapreduce_unit_on_plain_pilot_fails() {
        let mut e = Engine::new(5);
        let session = Session::new(SessionConfig::test_profile());
        let pm = PilotManager::new(&session);
        let pilot = pm
            .submit(
                &mut e,
                PilotDescription::new("localhost", 1, SimDuration::from_secs(600)),
            )
            .unwrap();
        let mut um = UnitManager::new(&session, UmScheduler::Direct);
        um.add_pilot(&pilot);
        let mr = ComputeUnitDescription::new(
            "mr",
            1,
            WorkSpec::MapReduce(rp_mapreduce::MrJobSpec {
                name: "job".into(),
                input_path: "/in".into(),
                num_reducers: 1,
                container: rp_yarn::Resource::new(1, 1024),
                shuffle: rp_mapreduce::ShuffleBackend::LocalDisk,
                cost: rp_mapreduce::MrCostModel::default(),
            }),
        );
        let units = um.submit_units(&mut e, vec![mr]);
        e.run_until(SimTime::from_secs_f64(60.0));
        assert_eq!(units[0].state(), UnitState::Failed);
        assert!(units[0].failure().unwrap().contains("YARN"));
    }

    #[test]
    fn dependent_units_wait_for_dependencies() {
        let mut e = Engine::new(11);
        let session = Session::new(SessionConfig::test_profile());
        let pm = PilotManager::new(&session);
        let pilot = pm
            .submit(
                &mut e,
                PilotDescription::new("localhost", 2, SimDuration::from_secs(3600)),
            )
            .unwrap();
        let mut um = UnitManager::new(&session, UmScheduler::Direct);
        um.add_pilot(&pilot);
        // Stage 1 (simulation) → stage 2 (analysis) chain.
        let stage1 = um.submit_units(&mut e, vec![sleep_unit("sim", 20)]);
        let stage2 = um.submit_units_after(&mut e, vec![sleep_unit("analysis", 5)], &stage1);
        assert_eq!(stage2[0].state(), UnitState::New);
        e.run_until(SimTime::from_secs_f64(500.0));
        assert_eq!(stage1[0].state(), UnitState::Done);
        assert_eq!(stage2[0].state(), UnitState::Done);
        // Analysis started only after the simulation finished.
        let sim_done = stage1[0].times().done.unwrap();
        let ana_start = stage2[0].times().exec_start.unwrap();
        assert!(ana_start > sim_done, "{ana_start} vs {sim_done}");
    }

    #[test]
    fn failed_dependency_cancels_dependents() {
        let mut e = Engine::new(12);
        let session = Session::new(SessionConfig::test_profile());
        let pm = PilotManager::new(&session);
        let pilot = pm
            .submit(
                &mut e,
                PilotDescription::new("localhost", 1, SimDuration::from_secs(3600)),
            )
            .unwrap();
        let mut um = UnitManager::new(&session, UmScheduler::Direct);
        um.add_pilot(&pilot);
        // A MapReduce unit on a plain pilot fails validation…
        let doomed = um.submit_units(
            &mut e,
            vec![ComputeUnitDescription::new(
                "mr",
                1,
                WorkSpec::MapReduce(rp_mapreduce::MrJobSpec {
                    name: "j".into(),
                    input_path: "/in".into(),
                    num_reducers: 1,
                    container: rp_yarn::Resource::new(1, 1024),
                    shuffle: rp_mapreduce::ShuffleBackend::LocalDisk,
                    cost: rp_mapreduce::MrCostModel::default(),
                }),
            )],
        );
        // …so its dependent must be cancelled, not dispatched.
        let dependent = um.submit_units_after(&mut e, vec![sleep_unit("dep", 1)], &doomed);
        e.run_until(SimTime::from_secs_f64(200.0));
        assert_eq!(doomed[0].state(), UnitState::Failed);
        assert_eq!(dependent[0].state(), UnitState::Failed);
        assert!(dependent[0].failure().unwrap().contains("dependency"));
    }

    #[test]
    fn cancel_unit_before_execution() {
        let mut e = Engine::new(7);
        let session = Session::new(SessionConfig::test_profile());
        let pm = PilotManager::new(&session);
        let pilot = pm
            .submit(
                &mut e,
                PilotDescription::new("localhost", 1, SimDuration::from_secs(600)),
            )
            .unwrap();
        let mut um = UnitManager::new(&session, UmScheduler::Direct);
        um.add_pilot(&pilot);
        // Fill all 8 cores with a long unit, then queue a victim behind it.
        let blocker = um.submit_units(
            &mut e,
            vec![ComputeUnitDescription::new(
                "blocker",
                8,
                WorkSpec::Sleep(SimDuration::from_secs(100)),
            )],
        );
        let victim = um.submit_units(
            &mut e,
            vec![ComputeUnitDescription::new(
                "victim",
                8,
                WorkSpec::Sleep(SimDuration::from_secs(100)),
            )],
        );
        e.run_until(SimTime::from_secs_f64(20.0));
        assert_eq!(blocker[0].state(), UnitState::Executing);
        um.cancel_unit(&mut e, &victim[0]);
        assert_eq!(victim[0].state(), UnitState::Canceled);
        // Cancelling an executing unit is a no-op.
        um.cancel_unit(&mut e, &blocker[0]);
        assert_eq!(blocker[0].state(), UnitState::Executing);
        e.run_until(SimTime::from_secs_f64(150.0));
        assert_eq!(blocker[0].state(), UnitState::Done);
        assert_eq!(victim[0].state(), UnitState::Canceled, "must not resurrect");
    }

    #[test]
    fn cancel_straight_after_submit_skips_the_unit_at_intake() {
        // The unit is still in UmScheduling, its document in the store:
        // the agent must drop it on delivery, not advance it.
        let mut e = Engine::new(7);
        let session = Session::new(SessionConfig::test_profile());
        let pm = PilotManager::new(&session);
        let pilot = pm
            .submit(
                &mut e,
                PilotDescription::new("localhost", 1, SimDuration::from_secs(600)),
            )
            .unwrap();
        let mut um = UnitManager::new(&session, UmScheduler::RoundRobin);
        um.add_pilot(&pilot);
        let units = um.submit_units(
            &mut e,
            (0..4).map(|i| sleep_unit(&format!("u{i}"), 30)).collect(),
        );
        um.cancel_unit(&mut e, &units[1]);
        e.run();
        assert_eq!(units[1].state(), UnitState::Canceled);
        assert_eq!(units[1].attempts(), 0);
        for i in [0, 2, 3] {
            assert_eq!(units[i].state(), UnitState::Done, "{}", units[i].name());
        }
        // The cancelled unit stays assigned but never completes.
        let done = pilot.agent().unwrap().units_completed();
        assert_eq!((pilot.assigned_units(), done), (4, 3));
    }

    #[test]
    fn agent_heartbeats_while_busy() {
        let mut e = Engine::new(8);
        let session = Session::new(SessionConfig::test_profile());
        let pm = PilotManager::new(&session);
        let pilot = pm
            .submit(
                &mut e,
                PilotDescription::new("localhost", 1, SimDuration::from_secs(600)),
            )
            .unwrap();
        let mut um = UnitManager::new(&session, UmScheduler::Direct);
        um.add_pilot(&pilot);
        let units = um.submit_units(
            &mut e,
            vec![ComputeUnitDescription::new(
                "long",
                1,
                WorkSpec::Sleep(SimDuration::from_secs(45)),
            )],
        );
        e.run_until(SimTime::from_secs_f64(120.0));
        assert_eq!(units[0].state(), UnitState::Done);
        let hb = pilot.agent().unwrap().heartbeats();
        // 45 s of work at a 10 s heartbeat → ~4 beats, none afterwards.
        assert!((3..=6).contains(&hb), "heartbeats {hb}");
        let before_idle = hb;
        e.run_until(SimTime::from_secs_f64(400.0));
        assert_eq!(pilot.agent().unwrap().heartbeats(), before_idle);
    }

    #[test]
    fn queue_of_cancelled_units_behind_a_full_cluster_stops_the_heartbeat() {
        // A Mode II pilot shares the machine's YARN cluster. Another
        // tenant fills it, units queue behind the agent's gate, and all
        // of them are cancelled. When the pilot's one running unit
        // completes, the queue holds only cancelled units: the heartbeat
        // must stop as for an empty queue.
        use rp_yarn::ResourceRequest;
        let mut e = Engine::new(9);
        let session = Session::new(SessionConfig::test_profile());
        let pm = PilotManager::new(&session);
        let pilot = pm
            .submit(
                &mut e,
                PilotDescription::new("xsede.wrangler", 1, SimDuration::from_secs(600))
                    .with_access(AccessMode::YarnModeII),
            )
            .unwrap();
        let mut um = UnitManager::new(&session, UmScheduler::Direct);
        um.add_pilot(&pilot);
        let running = um.submit_units(&mut e, vec![sleep_unit("running", 60)]);
        while running[0].state() != UnitState::Executing {
            assert!(e.step(), "the unit never ran");
        }
        let later = |e: &Engine, s: u64| e.now() + SimDuration::from_secs(s);
        let machine = session.machine(&mut e, "xsede.wrangler").unwrap();
        let yarn = machine
            .dedicated
            .expect("wrangler has dedicated Hadoop")
            .yarn;
        let free = yarn.available().vcores;
        yarn.submit_app(
            &mut e,
            "tenant",
            ResourceRequest::new(1, 1024),
            move |eng, am| {
                for _ in 1..free {
                    am.request_container(eng, ResourceRequest::new(1, 1024), |_, _| {});
                }
            },
        );
        e.run_until(later(&e, 10));
        assert_eq!(yarn.available().vcores, 0);
        // Two cores each: the running unit's one core freed later does
        // not admit them.
        let queued = um.submit_units(
            &mut e,
            (0..3)
                .map(|i| {
                    let work = WorkSpec::Sleep(SimDuration::from_secs(10));
                    ComputeUnitDescription::new(format!("q{i}"), 2, work)
                })
                .collect(),
        );
        e.run_until(later(&e, 5));
        for u in &queued {
            assert_eq!(u.state(), UnitState::AgentScheduling);
            um.cancel_unit(&mut e, u);
        }
        e.run();
        assert_eq!(running[0].state(), UnitState::Done);
        let hb = pilot.agent().unwrap().heartbeats();
        assert_eq!((hb, e.now().0), (7, 601_388_841));
    }

    #[test]
    fn cancel_during_input_staging_does_not_resurrect() {
        let mut e = Engine::new(21);
        let session = Session::new(SessionConfig::test_profile());
        let pm = PilotManager::new(&session);
        let pilot = pm
            .submit(
                &mut e,
                PilotDescription::new("localhost", 1, SimDuration::from_secs(600)),
            )
            .unwrap();
        let mut um = UnitManager::new(&session, UmScheduler::Direct);
        um.add_pilot(&pilot);
        // A big stage-in keeps the unit in StagingInput for a while.
        let units = um.submit_units(
            &mut e,
            vec![ComputeUnitDescription::new(
                "staged",
                1,
                WorkSpec::Sleep(SimDuration::from_secs(10)),
            )
            .stage_in(crate::description::StagingDirective {
                bytes: 20e9,
                from: crate::description::StageEndpoint::Lustre,
                to: crate::description::StageEndpoint::ExecNode,
            })],
        );
        // Step until the unit is mid-staging, then cancel it.
        while units[0].state() != UnitState::StagingInput {
            assert!(e.step());
        }
        um.cancel_unit(&mut e, &units[0]);
        assert_eq!(units[0].state(), UnitState::Canceled);
        // The staging continuation fires later; it must not launch (and
        // certainly not advance) the canceled unit. Pre-fix this panicked
        // on an illegal Canceled -> Executing transition.
        e.run_until(SimTime::from_secs_f64(580.0));
        assert_eq!(units[0].state(), UnitState::Canceled);
        // The slot came back: a fresh unit still runs to completion.
        let next = um.submit_units(
            &mut e,
            vec![ComputeUnitDescription::new(
                "after",
                8,
                WorkSpec::Sleep(SimDuration::from_secs(1)),
            )],
        );
        e.run_until(SimTime::from_secs_f64(599.0));
        assert_eq!(next[0].state(), UnitState::Done);
    }

    #[test]
    fn pilot_kill_fails_over_units_to_surviving_pilot() {
        let mut e = Engine::new(22);
        let session = Session::new(SessionConfig::test_profile());
        let pm = PilotManager::new(&session);
        let p0 = pm
            .submit(
                &mut e,
                PilotDescription::new("localhost", 2, SimDuration::from_secs(7200)),
            )
            .unwrap();
        let p1 = pm
            .submit(
                &mut e,
                PilotDescription::new("localhost", 2, SimDuration::from_secs(7200)),
            )
            .unwrap();
        let mut um = UnitManager::new(&session, UmScheduler::RoundRobin);
        um.add_pilot(&p0);
        um.add_pilot(&p1);
        arm_leases(&um, &mut e);
        let units = um.submit_units(
            &mut e,
            (0..8).map(|i| sleep_unit(&format!("u{i}"), 60)).collect(),
        );
        // Kill pilot 0 while its units are mid-flight.
        let victim = p0.clone();
        e.schedule_in(SimDuration::from_secs(30), move |eng| victim.kill(eng));
        while units.iter().any(|u| !u.state().is_final()) {
            assert!(e.step(), "stalled with live units");
        }
        assert_eq!(p0.state(), PilotState::Failed);
        assert!(
            units.iter().all(|u| u.state() == UnitState::Done),
            "all units must fail over: {:?}",
            units.iter().map(|u| u.state()).collect::<Vec<_>>()
        );
        assert!(um.rebinds() > 0, "failover must actually re-bind units");
        // Every survivor ended up on the surviving pilot.
        assert!(units.iter().all(|u| u.pilot() == Some(p1.id())));
    }

    #[test]
    fn rebind_exhaustion_fails_units_when_no_pilot_survives() {
        let mut e = Engine::new(23);
        let session = Session::new(SessionConfig::test_profile());
        let pm = PilotManager::new(&session);
        let p0 = pm
            .submit(
                &mut e,
                PilotDescription::new("localhost", 2, SimDuration::from_secs(7200)),
            )
            .unwrap();
        let mut um = UnitManager::new(&session, UmScheduler::Direct);
        um.add_pilot(&p0);
        arm_leases(&um, &mut e);
        let units = um.submit_units(&mut e, vec![sleep_unit("doomed", 120)]);
        let victim = p0.clone();
        e.schedule_in(SimDuration::from_secs(30), move |eng| victim.kill(eng));
        while units.iter().any(|u| !u.state().is_final()) {
            assert!(e.step(), "stalled with live units");
        }
        assert_eq!(units[0].state(), UnitState::Failed);
        assert!(
            units[0].failure().unwrap().contains("no surviving pilot"),
            "{:?}",
            units[0].failure()
        );
    }

    #[test]
    fn rebind_budget_is_respected() {
        // Two pilots killed in sequence with max_rebinds = 1: the unit
        // survives the first loss, then fails on the second.
        let mut e = Engine::new(24);
        let session = Session::new(SessionConfig::test_profile());
        let pm = PilotManager::new(&session);
        let p0 = pm
            .submit(
                &mut e,
                PilotDescription::new("localhost", 1, SimDuration::from_secs(7200)),
            )
            .unwrap();
        let p1 = pm
            .submit(
                &mut e,
                PilotDescription::new("localhost", 1, SimDuration::from_secs(7200)),
            )
            .unwrap();
        let mut um = UnitManager::new(&session, UmScheduler::Direct);
        um.add_pilot(&p0);
        um.add_pilot(&p1);
        arm_leases(&um, &mut e);
        let units = um.submit_units(
            &mut e,
            vec![ComputeUnitDescription::new(
                "bouncy",
                1,
                WorkSpec::Sleep(SimDuration::from_secs(300)),
            )
            .with_max_rebinds(1)],
        );
        let (v0, v1) = (p0.clone(), p1.clone());
        e.schedule_in(SimDuration::from_secs(30), move |eng| v0.kill(eng));
        e.schedule_in(SimDuration::from_secs(90), move |eng| v1.kill(eng));
        while units.iter().any(|u| !u.state().is_final()) {
            assert!(e.step(), "stalled with live units");
        }
        assert_eq!(units[0].state(), UnitState::Failed);
        assert_eq!(units[0].rebinds(), 1);
        assert!(
            units[0].failure().unwrap().contains("re-bind budget")
                || units[0].failure().unwrap().contains("no surviving pilot"),
            "{:?}",
            units[0].failure()
        );
    }

    #[test]
    fn round_robin_never_picks_a_killed_pilot() {
        // Round-robin spreads the first wave over both pilots; after one
        // pilot dies, every new unit lands on the survivor.
        let mut e = Engine::new(25);
        let session = Session::new(SessionConfig::test_profile());
        let pm = PilotManager::new(&session);
        let pilots: Vec<PilotHandle> = (0..2)
            .map(|_| {
                pm.submit(
                    &mut e,
                    PilotDescription::new("localhost", 1, SimDuration::from_secs(7200)),
                )
                .unwrap()
            })
            .collect();
        let (victim, survivor) = (&pilots[0], &pilots[1]);
        let mut um = UnitManager::new(&session, UmScheduler::RoundRobin);
        um.add_pilot(victim);
        um.add_pilot(survivor);
        arm_leases(&um, &mut e);
        let first = um.submit_units(
            &mut e,
            (0..4).map(|i| sleep_unit(&format!("u{i}"), 10)).collect(),
        );
        while first.iter().any(|u| !u.state().is_final()) {
            assert!(e.step());
        }
        assert_eq!(victim.assigned_units(), 2);

        victim.kill(&mut e);
        e.run_until(e.now() + SimDuration::from_secs(5));
        let tail = um.submit_units(
            &mut e,
            (0..4).map(|i| sleep_unit(&format!("t{i}"), 10)).collect(),
        );
        assert!(tail.iter().all(|u| u.pilot() == Some(survivor.id())));
        while tail.iter().any(|u| !u.state().is_final()) {
            assert!(e.step());
        }
        assert!(tail.iter().all(|u| u.state() == UnitState::Done));
    }

    #[test]
    fn walltime_drain_hands_long_units_to_the_long_pilot() {
        let mut e = Engine::new(26);
        let session = Session::new(SessionConfig::test_profile());
        let pm = PilotManager::new(&session);
        // Short pilot: 90 s of walltime. Long pilot: two hours.
        let short = pm
            .submit(
                &mut e,
                PilotDescription::new("localhost", 2, SimDuration::from_secs(90)),
            )
            .unwrap();
        let long = pm
            .submit(
                &mut e,
                PilotDescription::new("localhost", 2, SimDuration::from_secs(7200)),
            )
            .unwrap();
        let mut um = UnitManager::new(&session, UmScheduler::Direct);
        um.add_pilot(&short);
        um.add_pilot(&long);
        arm_leases(&um, &mut e);
        // 300 s of sleep cannot fit in ~85 s of remaining walltime
        // (test-profile drain margin 5 s): the short pilot's scheduler
        // must hand them back instead of letting the walltime kill them.
        let units = um.submit_units(
            &mut e,
            (0..3).map(|i| sleep_unit(&format!("u{i}"), 300)).collect(),
        );
        while units.iter().any(|u| !u.state().is_final()) {
            assert!(e.step(), "stalled with live units");
        }
        assert!(
            units.iter().all(|u| u.state() == UnitState::Done),
            "{:?}",
            units.iter().map(|u| u.state()).collect::<Vec<_>>()
        );
        assert!(units.iter().all(|u| u.pilot() == Some(long.id())));
        assert!(um.rebinds() >= 3);
        // Drained, not killed: one re-bind each, no retry attempts burned.
        assert!(units.iter().all(|u| u.attempts() <= 1));
    }

    #[test]
    fn lease_expiry_detects_silent_agent_death() {
        let mut e = Engine::new(27);
        let session = Session::new(SessionConfig::test_profile());
        let pm = PilotManager::new(&session);
        let p0 = pm
            .submit(
                &mut e,
                PilotDescription::new("localhost", 2, SimDuration::from_secs(7200)),
            )
            .unwrap();
        let p1 = pm
            .submit(
                &mut e,
                PilotDescription::new("localhost", 2, SimDuration::from_secs(7200)),
            )
            .unwrap();
        let mut um = UnitManager::new(&session, UmScheduler::Direct);
        um.add_pilot(&p0);
        um.add_pilot(&p1);
        arm_leases(&um, &mut e);
        let units = um.submit_units(
            &mut e,
            (0..4).map(|i| sleep_unit(&format!("u{i}"), 120)).collect(),
        );
        // The agent dies silently: no terminal state, no returned units —
        // only the lease it stops renewing gives it away.
        let victim = p0.clone();
        e.schedule_in(SimDuration::from_secs(40), move |eng| {
            victim.agent().unwrap().hang(eng);
        });
        while units.iter().any(|u| !u.state().is_final()) {
            assert!(e.step(), "stalled with live units");
        }
        assert!(
            units.iter().all(|u| u.state() == UnitState::Done),
            "{:?}",
            units.iter().map(|u| u.state()).collect::<Vec<_>>()
        );
        assert!(units.iter().all(|u| u.pilot() == Some(p1.id())));
        // The batch job is still burning walltime — only the agent died.
        assert_eq!(p0.state(), PilotState::Active);
        // The monitor revoked the expired lease before re-binding: grant
        // (epoch 1), then the revoke's bump.
        assert!(session.store().lease_epoch(p0.id()).epoch() >= 2);
    }

    #[test]
    fn delayed_heartbeats_do_not_trigger_spurious_rebind() {
        // Delivery jitter of up to 24 s on a 10 s heartbeat. Liveness is
        // the lease, renewed at the store on every tick whatever the
        // transport does to the beat, so leases tolerate delayed beats by
        // construction: no pilot is declared dead and nothing is fenced.
        let mut e = Engine::new(31);
        let mut cfg = SessionConfig::test_profile();
        cfg.coordination.loss = crate::coordination::LossProfile {
            drop_p: 0.0,
            dup_p: 0.0,
            delay_jitter_ms: 24_000.0,
            seed: 7,
        };
        let session = Session::new(cfg);
        let pm = PilotManager::new(&session);
        let p0 = pm
            .submit(
                &mut e,
                PilotDescription::new("localhost", 2, SimDuration::from_secs(7200)),
            )
            .unwrap();
        let p1 = pm
            .submit(
                &mut e,
                PilotDescription::new("localhost", 2, SimDuration::from_secs(7200)),
            )
            .unwrap();
        let mut um = UnitManager::new(&session, UmScheduler::Direct);
        um.add_pilot(&p0);
        um.add_pilot(&p1);
        arm_leases(&um, &mut e);
        let units = um.submit_units(
            &mut e,
            (0..4).map(|i| sleep_unit(&format!("u{i}"), 120)).collect(),
        );
        while units.iter().any(|u| !u.state().is_final()) {
            assert!(e.step(), "stalled with live units");
        }
        assert!(
            units.iter().all(|u| u.state() == UnitState::Done),
            "{:?}",
            units.iter().map(|u| u.state()).collect::<Vec<_>>()
        );
        assert_eq!(um.rebinds(), 0, "delayed heartbeat mistaken for death");
        assert_eq!(session.store().fence_rejections(), 0);
        assert!(units.iter().all(|u| u.attempts() <= 1));
    }

    #[test]
    fn lease_expiry_fences_partitioned_pilot_and_rebinds() {
        let mut e = Engine::new(33);
        let session = Session::new(SessionConfig::test_profile());
        let pm = PilotManager::new(&session);
        let p0 = pm
            .submit(
                &mut e,
                PilotDescription::new("localhost", 2, SimDuration::from_secs(7200)),
            )
            .unwrap();
        let p1 = pm
            .submit(
                &mut e,
                PilotDescription::new("localhost", 2, SimDuration::from_secs(7200)),
            )
            .unwrap();
        let mut um = UnitManager::new(&session, UmScheduler::RoundRobin);
        um.add_pilot(&p0);
        um.add_pilot(&p1);
        arm_leases(&um, &mut e);
        // 60 s units: the first completions land while p0 is partitioned
        // but not yet self-fenced, so their roundtrips are sent at the old
        // epoch and held by the partition window.
        let units = um.submit_units(
            &mut e,
            (0..6).map(|i| sleep_unit(&format!("u{i}"), 60)).collect(),
        );
        // Cut p0's agent off from the store mid-run: renewals fail, its
        // lease expires, it self-fences; the UM revokes (bumping the
        // fencing epoch) and re-binds. After the heal the zombie's held
        // completions arrive under the stale epoch and must be rejected.
        let store = session.store();
        let victim = p0.id();
        e.schedule_in(SimDuration::from_secs(30), move |eng| {
            store.partition_pilot(eng, victim, SimDuration::from_secs(600), false);
        });
        while units.iter().any(|u| !u.state().is_final()) {
            assert!(e.step(), "stalled with live units");
        }
        // Drain past the heal so held zombie messages get delivered (and
        // fenced) rather than left in the queue.
        while e.step() {}
        assert!(
            units.iter().all(|u| u.state() == UnitState::Done),
            "{:?}",
            units
                .iter()
                .map(|u| (u.state(), u.failure()))
                .collect::<Vec<_>>()
        );
        let store = session.store();
        assert!(um.rebinds() > 0, "lease expiry must trigger re-binding");
        assert!(
            store.fence_rejections() > 0,
            "healed zombie's stale-epoch writes must be rejected"
        );
        // Grant (1), revoke on loss (2), post-heal re-acquire (3): the
        // fencing epoch is strictly monotone across ownership changes.
        assert!(store.lease_epoch(p0.id()).epoch() >= 2);
        // Exactly-once: every unit ran to Done exactly once per attempt —
        // no zombie completion double-counted (Done is terminal; a stale
        // apply would panic the state machine or inflate attempts).
        assert!(units.iter().all(|u| u.attempts() >= 1));
    }

    #[test]
    fn cancel_before_launch_cancels_cleanly() {
        let mut e = Engine::new(6);
        let session = Session::new(SessionConfig::test_profile());
        let pm = PilotManager::new(&session);
        // Fill the machine so the second pilot queues.
        let _p1 = pm
            .submit(
                &mut e,
                PilotDescription::new("localhost", 4, SimDuration::from_secs(600)),
            )
            .unwrap();
        e.run_until(SimTime::from_secs_f64(5.0));
        let p2 = pm
            .submit(
                &mut e,
                PilotDescription::new("localhost", 4, SimDuration::from_secs(600)),
            )
            .unwrap();
        e.run_until(SimTime::from_secs_f64(10.0));
        assert_eq!(p2.state(), PilotState::PendingLaunch);
        pm.cancel(&mut e, &p2);
        e.run_until(SimTime::from_secs_f64(20.0));
        assert_eq!(p2.state(), PilotState::Canceled);
    }
}
