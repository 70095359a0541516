//! Compute-Unit runtime records and handles.

use std::cell::{Ref, RefCell};
use std::rc::Rc;

use rp_hpc::NodeId;
use rp_sim::{Engine, Message, OpenSpan, SimDuration, SimTime, SpanId, Trace};

use crate::description::ComputeUnitDescription;
use crate::states::{Guarded, PilotState, UnitState};

/// Identifier of a Compute-Unit within a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UnitId(pub u64);

impl UnitId {
    /// Trace record of this unit entering `next`; renders as
    /// `"{self:?} -> {next:?}"`.
    pub fn transition(self, next: UnitState) -> Message {
        Message::Transition {
            subject: "UnitId",
            id: self.0,
            to: next.name(),
        }
    }
}

/// Identifier of a Pilot within a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PilotId(pub u64);

impl PilotId {
    /// Trace record of this pilot entering `next`; renders as
    /// `"{self:?} -> {next:?}"`.
    pub fn transition(self, next: PilotState) -> Message {
        Message::Transition {
            subject: "PilotId",
            id: self.0,
            to: next.name(),
        }
    }
}

/// Milestones of a unit's life (all virtual time), used by the Fig. 5
/// startup study.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitTimestamps {
    pub submitted: Option<SimTime>,
    /// Execution slot granted; work launched (U.6).
    pub exec_start: Option<SimTime>,
    pub exec_end: Option<SimTime>,
    pub done: Option<SimTime>,
}

impl UnitTimestamps {
    /// Submission → execution start: the paper's "Compute-Unit startup".
    pub fn startup_time(&self) -> Option<SimDuration> {
        Some(self.exec_start?.since(self.submitted?))
    }

    pub fn total_time(&self) -> Option<SimDuration> {
        Some(self.done?.since(self.submitted?))
    }

    pub fn execution_time(&self) -> Option<SimDuration> {
        Some(self.exec_end?.since(self.exec_start?))
    }
}

type DoneFn = Box<dyn FnOnce(&mut Engine)>;

pub(crate) struct UnitRecord {
    pub id: UnitId,
    pub descr: ComputeUnitDescription,
    pub state: Guarded<UnitState>,
    pub times: UnitTimestamps,
    pub pilot: Option<PilotId>,
    pub exec_nodes: Vec<NodeId>,
    pub failure: Option<String>,
    /// Stats of the MapReduce job, for `WorkSpec::MapReduce` units.
    pub mr_stats: Option<rp_mapreduce::MrJobStats>,
    /// Execution attempts started so far (1 on first launch; incremented
    /// on every fault-triggered retry).
    pub attempts: u32,
    /// Cross-pilot re-binds so far (0 for units that never left their
    /// first pilot); capped by `descr.max_rebinds`.
    pub rebinds: u32,
    /// Root lifecycle span ("unit.run"): its id, kept after the run for
    /// the profilers, and the open span until the final state. Then the
    /// currently open phase span. All `NONE` when tracing is disabled.
    pub span_root: SpanId,
    pub span_run: OpenSpan,
    pub span_open: OpenSpan,
    waiters: Vec<DoneFn>,
}

impl UnitRecord {
    /// Close the open phase span and open `next` (if any) under the root.
    fn next_phase(&mut self, trace: &mut Trace, now: SimTime, next: Option<&str>) {
        trace.span_end(now, std::mem::take(&mut self.span_open));
        if let Some(name) = next {
            self.span_open = trace.span_begin(now, "unit", name, self.span_root);
        }
    }
}

/// Shared handle to a Compute-Unit. Cheap to clone.
#[derive(Clone)]
pub struct UnitHandle {
    pub(crate) rec: Rc<RefCell<UnitRecord>>,
}

impl UnitHandle {
    pub(crate) fn new(id: UnitId, descr: ComputeUnitDescription) -> UnitHandle {
        UnitHandle {
            rec: Rc::new(RefCell::new(UnitRecord {
                id,
                descr,
                state: Guarded::<UnitState>::new(),
                times: UnitTimestamps::default(),
                pilot: None,
                exec_nodes: Vec::new(),
                failure: None,
                mr_stats: None,
                attempts: 0,
                rebinds: 0,
                span_root: SpanId::NONE,
                span_run: OpenSpan::NONE,
                span_open: OpenSpan::NONE,
                waiters: Vec::new(),
            })),
        }
    }

    pub fn id(&self) -> UnitId {
        self.rec.borrow().id
    }

    pub fn name(&self) -> String {
        self.rec.borrow().descr.name.clone()
    }

    pub fn state(&self) -> UnitState {
        self.rec.borrow().state.get()
    }

    pub fn pilot(&self) -> Option<PilotId> {
        self.rec.borrow().pilot
    }

    pub fn times(&self) -> UnitTimestamps {
        self.rec.borrow().times
    }

    /// Nodes the unit executed on (set once running).
    pub fn exec_nodes(&self) -> Vec<NodeId> {
        self.rec.borrow().exec_nodes.clone()
    }

    /// Failure message, if the unit failed.
    pub fn failure(&self) -> Option<String> {
        self.rec.borrow().failure.clone()
    }

    /// MapReduce job statistics (for `WorkSpec::MapReduce` units).
    pub fn mr_stats(&self) -> Option<rp_mapreduce::MrJobStats> {
        self.rec.borrow().mr_stats.clone()
    }

    /// Execution attempts started so far (>1 ⇒ the unit was retried after
    /// an injected fault).
    pub fn attempts(&self) -> u32 {
        self.rec.borrow().attempts
    }

    /// Cross-pilot re-binds so far (>0 ⇒ the unit survived a pilot loss
    /// or a walltime drain and was re-scheduled onto another pilot).
    pub fn rebinds(&self) -> u32 {
        self.rec.borrow().rebinds
    }

    pub fn description(&self) -> ComputeUnitDescription {
        self.rec.borrow().descr.clone()
    }

    /// Borrow the description in place, for the agent and UM hot paths
    /// that only read a few fields. Keep the borrow scoped: `advance` and
    /// `fail` borrow the record mutably and panic while it is held.
    pub(crate) fn descr(&self) -> Ref<'_, ComputeUnitDescription> {
        Ref::map(self.rec.borrow(), |r| &r.descr)
    }

    /// Root lifecycle span ("unit.run"), for the phase profiler.
    pub fn root_span(&self) -> SpanId {
        self.rec.borrow().span_root
    }

    /// Currently open phase span (e.g. "unit.exec" while Executing).
    pub(crate) fn open_span(&self) -> SpanId {
        self.rec.borrow().span_open.id()
    }

    /// Close the open phase span early (e.g. when input staging finishes
    /// before the execution slot is granted — the gap shows up as
    /// allocation or overhead, not staging).
    pub(crate) fn end_open_span(&self, engine: &mut Engine) {
        let open = std::mem::take(&mut self.rec.borrow_mut().span_open);
        engine.trace.span_end(engine.now(), open);
    }

    /// Register a callback for when the unit reaches a final state (fires
    /// immediately if already final).
    pub fn on_done(&self, engine: &mut Engine, cb: impl FnOnce(&mut Engine) + 'static) {
        let mut rec = self.rec.borrow_mut();
        if rec.state.get().is_final() {
            drop(rec);
            engine.schedule_now(cb);
        } else {
            rec.waiters.push(Box::new(cb));
        }
    }

    pub(crate) fn advance(&self, engine: &mut Engine, next: UnitState) {
        let waiters = {
            let mut rec = self.rec.borrow_mut();
            rec.state.advance(next);
            let now = engine.now();
            // Span lifecycle: the root "unit.run" span covers submission to
            // final state; exactly one phase child is open at a time, and a
            // requeue (→ AgentScheduling) starts a fresh "unit.scheduling"
            // span, so retried attempts show up as sequential phases.
            match next {
                UnitState::UmScheduling => {
                    if rec.times.submitted.is_none() {
                        // First submission: open the root lifecycle span.
                        rec.times.submitted = Some(now);
                        let root = engine
                            .trace
                            .span_begin(now, "unit", "unit.run", SpanId::NONE);
                        rec.span_root = root.id();
                        rec.span_run = root;
                        engine
                            .trace
                            .span_attr(rec.span_root, "unit", rec.id.0.to_string());
                        engine
                            .trace
                            .span_attr(rec.span_root, "name", &rec.descr.name);
                    }
                    // On a cross-pilot re-bind the root span stays open; the
                    // interrupted phase closes and a fresh scheduling phase
                    // begins on the surviving pilot.
                    rec.next_phase(&mut engine.trace, now, Some("unit.scheduling"));
                }
                UnitState::AgentScheduling => {
                    rec.next_phase(&mut engine.trace, now, Some("unit.scheduling"));
                }
                UnitState::StagingInput => {
                    rec.next_phase(&mut engine.trace, now, Some("unit.stage_in"));
                }
                UnitState::Executing => {
                    rec.times.exec_start = Some(now);
                    rec.next_phase(&mut engine.trace, now, Some("unit.exec"));
                }
                UnitState::StagingOutput => {
                    rec.times.exec_end = Some(now);
                    rec.next_phase(&mut engine.trace, now, Some("unit.stage_out"));
                }
                UnitState::Done | UnitState::Canceled | UnitState::Failed => {
                    rec.times.done = Some(now);
                    if rec.times.exec_end.is_none() {
                        rec.times.exec_end = rec.times.done;
                    }
                    rec.next_phase(&mut engine.trace, now, None);
                    if next == UnitState::Failed {
                        engine.trace.span_attr(rec.span_root, "failed", "true");
                    }
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
            .record(engine.now(), "unit", self.id().transition(next));
        for w in waiters {
            w(engine);
        }
    }

    pub(crate) fn fail(&self, engine: &mut Engine, reason: impl Into<String>) {
        self.rec.borrow_mut().failure = Some(reason.into());
        self.advance(engine, UnitState::Failed);
    }
}

/// Fire `cb` once every unit in `units` reaches a final state.
pub fn when_all_done(
    engine: &mut Engine,
    units: &[UnitHandle],
    cb: impl FnOnce(&mut Engine) + 'static,
) {
    let remaining = Rc::new(RefCell::new(units.len()));
    let cb = Rc::new(RefCell::new(Some(cb)));
    if units.is_empty() {
        let cb = cb
            .borrow_mut()
            .take()
            .expect("when_all_done callback taken twice on empty unit set");
        engine.schedule_now(cb);
        return;
    }
    for u in units {
        let remaining = remaining.clone();
        let cb = cb.clone();
        u.on_done(engine, move |eng| {
            let mut r = remaining.borrow_mut();
            *r -= 1;
            if *r == 0 {
                drop(r);
                let cb = cb.borrow_mut().take().expect("when_all_done raced");
                cb(eng);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::description::WorkSpec;

    fn handle(id: u64) -> UnitHandle {
        UnitHandle::new(
            UnitId(id),
            ComputeUnitDescription::new("t", 1, WorkSpec::Sleep(SimDuration::from_secs(1))),
        )
    }

    #[test]
    fn timestamps_follow_transitions() {
        let mut e = Engine::new(1);
        let u = handle(0);
        u.advance(&mut e, UnitState::UmScheduling);
        e.run_until(SimTime::from_secs_f64(2.0));
        u.advance(&mut e, UnitState::AgentScheduling);
        u.advance(&mut e, UnitState::StagingInput);
        e.run_until(SimTime::from_secs_f64(3.0));
        u.advance(&mut e, UnitState::Executing);
        e.run_until(SimTime::from_secs_f64(10.0));
        u.advance(&mut e, UnitState::StagingOutput);
        u.advance(&mut e, UnitState::Done);
        let t = u.times();
        assert_eq!(t.startup_time().unwrap().as_secs_f64(), 3.0);
        assert_eq!(t.execution_time().unwrap().as_secs_f64(), 7.0);
        assert_eq!(t.total_time().unwrap().as_secs_f64(), 10.0);
    }

    #[test]
    fn on_done_fires_at_final_state() {
        let mut e = Engine::new(1);
        let u = handle(1);
        let hit = Rc::new(RefCell::new(false));
        let h = hit.clone();
        u.on_done(&mut e, move |_| *h.borrow_mut() = true);
        u.advance(&mut e, UnitState::UmScheduling);
        assert!(!*hit.borrow());
        u.fail(&mut e, "boom");
        assert!(*hit.borrow());
        assert_eq!(u.failure().as_deref(), Some("boom"));
    }

    #[test]
    fn on_done_after_final_fires_immediately() {
        let mut e = Engine::new(1);
        let u = handle(2);
        u.advance(&mut e, UnitState::Canceled);
        let hit = Rc::new(RefCell::new(false));
        let h = hit.clone();
        u.on_done(&mut e, move |_| *h.borrow_mut() = true);
        e.run();
        assert!(*hit.borrow());
    }

    #[test]
    fn when_all_done_waits_for_every_unit() {
        let mut e = Engine::new(1);
        let us: Vec<UnitHandle> = (0..3).map(handle).collect();
        let hit = Rc::new(RefCell::new(false));
        let h = hit.clone();
        when_all_done(&mut e, &us, move |_| *h.borrow_mut() = true);
        for (i, u) in us.iter().enumerate() {
            assert!(!*hit.borrow(), "fired early at {i}");
            u.advance(&mut e, UnitState::Canceled);
        }
        assert!(*hit.borrow());
    }

    #[test]
    fn static_transition_labels_match_the_formatted_ones() {
        for &s in UnitState::ALL {
            let label = format!("{s:?}");
            assert_eq!(s.name(), label);
            assert_eq!(
                s.transition_key(),
                rp_sim::metric_key("unit.transitions", &[("state", &label)])
            );
            for id in [UnitId(0), UnitId(7), UnitId(u64::MAX)] {
                assert_eq!(id.transition(s).to_string(), format!("{id:?} -> {s:?}"));
            }
        }
        for &s in PilotState::ALL {
            let label = format!("{s:?}");
            assert_eq!(s.name(), label);
            assert_eq!(
                s.transition_key(),
                rp_sim::metric_key("pilot.transitions", &[("state", &label)])
            );
            for id in [PilotId(0), PilotId(3), PilotId(u64::MAX)] {
                assert_eq!(id.transition(s).to_string(), format!("{id:?} -> {s:?}"));
            }
        }
        assert_eq!(UnitState::ALL.len(), 9);
        assert_eq!(PilotState::ALL.len(), 7);
    }

    #[test]
    fn advance_records_typed_transition_and_static_counter() {
        let mut e = Engine::with_trace(1);
        let u = handle(42);
        u.advance(&mut e, UnitState::UmScheduling);
        u.advance(&mut e, UnitState::Canceled);
        let lines: Vec<String> = e
            .trace
            .in_category("unit")
            .map(|ev| ev.message.to_string())
            .collect();
        assert_eq!(
            lines,
            ["UnitId(42) -> UmScheduling", "UnitId(42) -> Canceled"]
        );
        assert_eq!(e.metrics.counter("unit.transitions{state=Canceled}"), 1);
        assert!(e.trace.find("-> Canceled").is_some());
    }

    #[test]
    fn when_all_done_empty_fires() {
        let mut e = Engine::new(1);
        let hit = Rc::new(RefCell::new(false));
        let h = hit.clone();
        when_all_done(&mut e, &[], move |_| *h.borrow_mut() = true);
        e.run();
        assert!(*hit.borrow());
    }
}
