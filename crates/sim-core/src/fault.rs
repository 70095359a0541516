//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a pre-computed schedule of failure events — node
//! crashes, slowdowns, container kills, link degradations and staging
//! errors — generated from its **own** seeded [`SimRng`] so that installing
//! an empty plan leaves every other random stream in the run untouched
//! (a zero-fault run is bit-identical to a run without the injector).
//!
//! The [`FaultInjector`] walks the plan through the [`Engine`], records
//! each injection in the trace under the `"fault"` category, and hands the
//! event to whatever handler the embedding layer registered (the Pilot
//! agent, in this workspace). The injector itself knows nothing about
//! pilots or clusters; it is a pure schedule driver so the core stays
//! dependency-free.

use std::cell::RefCell;
use std::rc::Rc;

use crate::engine::Engine;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// One kind of injected failure. Node indices are *logical* (position in
/// the target's node list); the handler maps them onto real node ids so a
/// plan is portable across cluster sizes.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Permanently kill a node: running work is lost, the scheduler must
    /// requeue it elsewhere, storage replicas on the node are gone.
    NodeCrash { node: usize },
    /// Degrade a node's compute speed by `factor` (>1 ⇒ slower) for
    /// `duration`, then restore it.
    NodeSlowdown {
        node: usize,
        factor: f64,
        duration: SimDuration,
    },
    /// Kill up to `count` running containers/executions (preemption-style:
    /// the work restarts, the node survives).
    ContainerKill { count: usize },
    /// Scale the shared-filesystem link capacity by `factor` (<1 ⇒ slower)
    /// for `duration`, then restore it.
    LinkDegrade { factor: f64, duration: SimDuration },
    /// Fail the next staging directive once; the transfer is retried after
    /// backoff.
    StagingError,
    /// Kill an entire pilot allocation (queue kill / hardware loss): the
    /// batch job fails, the agent dies, and every unfinished unit on the
    /// pilot must be failed over or failed. The index is logical
    /// (position in the installer's pilot list).
    PilotKill { pilot: usize },
    /// Network partition between one pilot's agent and the coordination
    /// store, healing after `duration`. The agent stays alive and keeps
    /// executing — the split-brain case PilotKill can't produce. With
    /// `symmetric` both directions are cut; otherwise only the
    /// agent→store direction is (the agent still receives unit batches
    /// but its heartbeats, lease renewals and completions are held).
    Partition {
        pilot: usize,
        duration: SimDuration,
        symmetric: bool,
    },
}

/// A fault at a point in virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    pub at: SimTime,
    pub kind: FaultKind,
}

/// A generator's extra fault kind: how many slots of the kind draw it
/// takes, and how to draw one.
type ExtraKind<'a> = (usize, &'a dyn Fn(&mut SimRng) -> FaultKind);

/// A deterministic schedule of faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: installing it injects nothing and perturbs nothing.
    pub fn none() -> Self {
        FaultPlan { events: Vec::new() }
    }

    /// Generate a random plan over `[0, horizon)` against a target with
    /// `nodes` nodes. `intensity` is the expected number of faults (the
    /// plan draws exactly `intensity` events, so two plans with the same
    /// seed and intensity are identical). Uses a private RNG stream: the
    /// engine's RNG is never touched.
    pub fn generate(seed: u64, horizon: SimDuration, nodes: usize, intensity: usize) -> Self {
        Self::draw(0xFA, None, seed, horizon, nodes, intensity)
    }

    /// Generate a mixed plan that may also kill whole pilots. Same
    /// contract as [`FaultPlan::generate`] (private RNG stream, exactly
    /// `intensity` events, sorted) but the kind distribution includes
    /// [`FaultKind::PilotKill`] against `pilots` logical pilot indices.
    /// A separate stream from `generate`, so existing schedules are
    /// untouched.
    pub fn generate_mixed(
        seed: u64,
        horizon: SimDuration,
        nodes: usize,
        pilots: usize,
        intensity: usize,
    ) -> Self {
        let kill = |rng: &mut SimRng| FaultKind::PilotKill {
            pilot: rng.index(pilots.max(1)),
        };
        Self::draw(0xFB, Some((1, &kill)), seed, horizon, nodes, intensity)
    }

    /// Generate a plan that additionally partitions agents from the
    /// coordination store. Same contract as [`FaultPlan::generate_mixed`]
    /// (private RNG stream, exactly `intensity` events, sorted) but the
    /// kind distribution includes [`FaultKind::Partition`] windows with a
    /// timed heal, and excludes [`FaultKind::PilotKill`] so a partitioned
    /// zombie always has a surviving pilot to race against. A separate
    /// stream from both older generators, so their schedules stay
    /// bit-identical.
    pub fn generate_partitioned(
        seed: u64,
        horizon: SimDuration,
        nodes: usize,
        pilots: usize,
        intensity: usize,
    ) -> Self {
        let partition = |rng: &mut SimRng| FaultKind::Partition {
            pilot: rng.index(pilots.max(1)),
            duration: SimDuration::from_secs(rng.uniform_u64(60, 240)),
            symmetric: rng.chance(0.5),
        };
        Self::draw(0xFC, Some((2, &partition)), seed, horizon, nodes, intensity)
    }

    /// The one generator body. Each event draws its time, then a kind:
    /// one of the five node, link and staging kinds, or the optional
    /// extra kind, which takes `slots` of the draw. The salt and the slot
    /// count fix a generator's schedules; `tests/fault_plan_golden.rs`
    /// pins them.
    fn draw(
        salt: u64,
        extra: Option<ExtraKind>,
        seed: u64,
        horizon: SimDuration,
        nodes: usize,
        intensity: usize,
    ) -> Self {
        let mut rng = SimRng::new(seed ^ salt.rotate_left(56));
        let kinds = 5 + extra.map_or(0, |(slots, _)| slots);
        let mut events: Vec<FaultEvent> = (0..intensity)
            .map(|_| {
                let at = SimTime(rng.uniform_u64(0, horizon.0.saturating_sub(1).max(1)));
                let kind = match (rng.index(kinds), extra) {
                    (0, _) => FaultKind::NodeCrash {
                        node: rng.index(nodes.max(1)),
                    },
                    (1, _) => FaultKind::NodeSlowdown {
                        node: rng.index(nodes.max(1)),
                        factor: rng.uniform(1.5, 4.0),
                        duration: SimDuration::from_secs(rng.uniform_u64(30, 300)),
                    },
                    (2, _) => FaultKind::ContainerKill {
                        count: rng.uniform_u64(1, 3) as usize,
                    },
                    (3, _) => FaultKind::LinkDegrade {
                        factor: rng.uniform(0.1, 0.6),
                        duration: SimDuration::from_secs(rng.uniform_u64(30, 300)),
                    },
                    (4, _) | (_, None) => FaultKind::StagingError,
                    (_, Some((_, extra))) => extra(&mut rng),
                };
                FaultEvent { at, kind }
            })
            .collect();
        events.sort_by_key(|e| e.at);
        FaultPlan { events }
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of pilot kills in the plan.
    pub fn pilot_kill_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::PilotKill { .. }))
            .count()
    }

    /// Number of partition windows in the plan.
    pub fn partition_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::Partition { .. }))
            .count()
    }
}

type FaultHandler = Box<dyn FnMut(&mut Engine, &FaultKind)>;

struct InjectorInner {
    handlers: Vec<FaultHandler>,
    injected: usize,
}

/// Drives a [`FaultPlan`] through the engine and dispatches each event to
/// the registered handlers. Cheap to clone (shared handle).
#[derive(Clone)]
pub struct FaultInjector {
    inner: Rc<RefCell<InjectorInner>>,
}

impl Default for FaultInjector {
    fn default() -> Self {
        Self::new()
    }
}

impl FaultInjector {
    pub fn new() -> Self {
        FaultInjector {
            inner: Rc::new(RefCell::new(InjectorInner {
                handlers: Vec::new(),
                injected: 0,
            })),
        }
    }

    /// Register a handler invoked for every injected fault, in registration
    /// order.
    pub fn on_fault(&self, handler: impl FnMut(&mut Engine, &FaultKind) + 'static) {
        self.inner.borrow_mut().handlers.push(Box::new(handler));
    }

    /// Schedule every event of `plan`. Installing an empty plan schedules
    /// nothing at all.
    pub fn install(&self, engine: &mut Engine, plan: &FaultPlan) {
        for ev in &plan.events {
            let this = self.clone();
            let kind = ev.kind.clone();
            engine.schedule_at(ev.at, move |eng| this.fire(eng, &kind));
        }
    }

    /// Inject a single fault right now (also used by the scheduled events).
    pub fn fire(&self, engine: &mut Engine, kind: &FaultKind) {
        engine
            .trace
            .record(engine.now(), "fault", format!("inject {kind:?}"));
        self.inner.borrow_mut().injected += 1;
        // Handlers are moved out while running so a handler may re-enter the
        // injector (e.g. schedule a follow-up restore through `fire`).
        let mut handlers = std::mem::take(&mut self.inner.borrow_mut().handlers);
        for h in handlers.iter_mut() {
            h(engine, kind);
        }
        let mut inner = self.inner.borrow_mut();
        // Preserve handlers registered during dispatch.
        let added = std::mem::take(&mut inner.handlers);
        inner.handlers = handlers;
        inner.handlers.extend(added);
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> usize {
        self.inner.borrow().injected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_deterministic_and_sorted() {
        let a = FaultPlan::generate(7, SimDuration::from_secs(600), 4, 12);
        let b = FaultPlan::generate(7, SimDuration::from_secs(600), 4, 12);
        assert_eq!(a, b);
        assert_eq!(a.len(), 12);
        for w in a.events.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        let c = FaultPlan::generate(8, SimDuration::from_secs(600), 4, 12);
        assert_ne!(a, c, "different seeds should give different plans");
    }

    #[test]
    fn generate_does_not_touch_engine_rng() {
        let mut e = Engine::new(42);
        let before = e.rng.next_u64();
        let mut e2 = Engine::new(42);
        let _plan = FaultPlan::generate(7, SimDuration::from_secs(600), 4, 50);
        let after = e2.rng.next_u64();
        assert_eq!(before, after);
    }

    #[test]
    fn generate_mixed_is_deterministic_and_includes_pilot_kills() {
        let a = FaultPlan::generate_mixed(7, SimDuration::from_secs(600), 4, 2, 60);
        let b = FaultPlan::generate_mixed(7, SimDuration::from_secs(600), 4, 2, 60);
        assert_eq!(a, b);
        assert_eq!(a.len(), 60);
        assert!(a.pilot_kill_count() > 0, "60 draws over 6 kinds");
        for ev in &a.events {
            if let FaultKind::PilotKill { pilot } = ev.kind {
                assert!(pilot < 2);
            }
        }
        // Distinct stream from `generate`: existing schedules unchanged.
        let legacy = FaultPlan::generate(7, SimDuration::from_secs(600), 4, 12);
        assert_eq!(legacy.pilot_kill_count(), 0);
    }

    #[test]
    fn generate_partitioned_is_deterministic_and_includes_partitions() {
        let a = FaultPlan::generate_partitioned(7, SimDuration::from_secs(600), 4, 2, 60);
        let b = FaultPlan::generate_partitioned(7, SimDuration::from_secs(600), 4, 2, 60);
        assert_eq!(a, b);
        assert_eq!(a.len(), 60);
        assert!(a.partition_count() > 0, "60 draws over 7 kinds");
        // No whole-pilot kills: a partitioned zombie must always have a
        // live peer to race against.
        assert_eq!(a.pilot_kill_count(), 0);
        let mut saw_symmetric = false;
        let mut saw_asymmetric = false;
        for ev in &a.events {
            if let FaultKind::Partition {
                pilot,
                duration,
                symmetric,
            } = ev.kind
            {
                assert!(pilot < 2);
                assert!(duration >= SimDuration::from_secs(60));
                assert!(duration <= SimDuration::from_secs(240));
                if symmetric {
                    saw_symmetric = true;
                } else {
                    saw_asymmetric = true;
                }
            }
        }
        assert!(saw_symmetric && saw_asymmetric, "both directions covered");
        // Distinct stream: the older generators stay bit-identical.
        let legacy = FaultPlan::generate(7, SimDuration::from_secs(600), 4, 12);
        assert_eq!(legacy.partition_count(), 0);
        let mixed = FaultPlan::generate_mixed(7, SimDuration::from_secs(600), 4, 2, 60);
        assert_eq!(mixed.partition_count(), 0);
    }

    #[test]
    fn injector_dispatches_in_order_and_counts() {
        let mut e = Engine::new(1);
        let inj = FaultInjector::new();
        let seen = Rc::new(RefCell::new(Vec::new()));
        let s = seen.clone();
        inj.on_fault(move |eng, kind| s.borrow_mut().push((eng.now(), kind.clone())));
        let plan = FaultPlan {
            events: vec![
                FaultEvent {
                    at: SimTime::from_secs_f64(5.0),
                    kind: FaultKind::NodeCrash { node: 1 },
                },
                FaultEvent {
                    at: SimTime::from_secs_f64(2.0),
                    kind: FaultKind::StagingError,
                },
            ],
        };
        inj.install(&mut e, &plan);
        e.run();
        let seen = seen.borrow();
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].0, SimTime::from_secs_f64(2.0));
        assert_eq!(seen[1].1, FaultKind::NodeCrash { node: 1 });
        assert_eq!(inj.injected(), 2);
    }

    #[test]
    fn empty_plan_schedules_nothing() {
        let mut e = Engine::new(1);
        let inj = FaultInjector::new();
        inj.on_fault(|_, _| panic!("no faults expected"));
        inj.install(&mut e, &FaultPlan::none());
        assert_eq!(e.pending(), 0);
        e.run();
        assert_eq!(inj.injected(), 0);
    }

    #[test]
    fn faults_are_traced() {
        let mut e = Engine::with_trace(1);
        let inj = FaultInjector::new();
        inj.install(
            &mut e,
            &FaultPlan {
                events: vec![FaultEvent {
                    at: SimTime::from_secs_f64(1.0),
                    kind: FaultKind::ContainerKill { count: 2 },
                }],
            },
        );
        e.run();
        assert_eq!(e.trace.in_category("fault").count(), 1);
    }
}
