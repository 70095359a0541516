//! The discrete-event engine.
//!
//! The engine is an event loop over virtual time. Events are arbitrary
//! `FnOnce(&mut Engine)` closures; components live in `Rc<RefCell<_>>`
//! handles captured by those closures. Ties in time are broken by a
//! monotonically increasing sequence number, so a run is fully
//! deterministic given the same schedule of events and RNG seed.
//!
//! ## Slab-backed queue
//!
//! Closures live in a slab (`Vec<Slot>` + LIFO free list); the binary heap
//! orders small `Copy` entries `(time, seq, slot)`. Scheduling reuses a
//! freed slot instead of growing, so a steady-state run touches a bounded
//! working set no matter how many events it executes. Invariants:
//!
//! * exactly one heap entry exists per occupied slot — a slot is occupied
//!   by `schedule_*` and freed only when its heap entry pops;
//! * cancellation tombstones the slot's payload (`payload = None`) without
//!   freeing it, so a slot can never be re-used while its heap entry is
//!   still pending — an [`EventId`]'s `(slot, seq)` pair therefore never
//!   aliases a different live event;
//! * the free list is a `Vec` (LIFO), so slot assignment is a pure
//!   function of the event sequence — replays are bit-identical.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::metrics::MetricsRegistry;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::Trace;

/// Identifier of a scheduled event, usable for cancellation. Generational:
/// the `(slot, seq)` pair identifies one scheduling, so cancelling after
/// the slot was recycled is a detectable no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    slot: u32,
    seq: u64,
}

type EventFn = Box<dyn FnOnce(&mut Engine)>;

/// Slab cell: the generation (`seq`) of the event occupying it and its
/// closure. `payload == None` on an occupied slot means cancelled.
struct Slot {
    seq: u64,
    payload: Option<EventFn>,
}

/// Heap entry: ordering key plus the slab slot holding the payload.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Entry {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Deterministic discrete-event simulation engine.
///
/// Also carries the run-wide seeded RNG and the event trace so that
/// components only ever need an `&mut Engine` to advance the world.
///
/// `Engine` is not `Send` (its events are non-`Send` closures), so no
/// simulation state can reach a worker thread of the [`crate::par`]
/// helpers and results cannot depend on thread scheduling:
///
/// ```compile_fail
/// fn send<T: Send>() {}
/// send::<rp_sim::Engine>();
/// ```
///
/// ```no_run
/// fn send<T: Send>() {}
/// send::<rp_sim::SimTime>();
/// ```
pub struct Engine {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Entry>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    executed: u64,
    /// Seeded random source shared by all stochastic models in the run.
    pub rng: SimRng,
    /// Structured event trace (cheap no-op unless enabled).
    pub trace: Trace,
    /// Run-wide metrics registry (cheap no-op unless enabled).
    pub metrics: MetricsRegistry,
}

impl Engine {
    /// New engine at t=0 with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            executed: 0,
            rng: SimRng::new(seed),
            trace: Trace::disabled(),
            metrics: MetricsRegistry::disabled(),
        }
    }

    /// Engine with observability (trace + metrics) enabled — handy in
    /// tests, examples and the experiment harness. Instrumentation is pure
    /// recording, so a run behaves identically either way.
    pub fn with_trace(seed: u64) -> Self {
        let mut e = Engine::new(seed);
        e.trace = Trace::enabled();
        e.metrics = MetricsRegistry::enabled();
        e
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events currently pending (including tombstoned ones).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Total slab slots ever allocated. With free-list reuse this is the
    /// peak number of simultaneously pending events, not the number of
    /// events scheduled — the scale gate asserts it stays bounded.
    pub fn slab_len(&self) -> usize {
        self.slots.len()
    }

    /// Schedule an event at an absolute time (must not be in the past).
    pub fn schedule_at(&mut self, time: SimTime, f: impl FnOnce(&mut Engine) + 'static) -> EventId {
        assert!(
            time >= self.now,
            "cannot schedule into the past: {time} < {}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        let slot_val = Slot {
            seq,
            payload: Some(Box::new(f)),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = slot_val;
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("event slab overflow");
                self.slots.push(slot_val);
                slot
            }
        };
        self.queue.push(Entry { time, seq, slot });
        EventId { slot, seq }
    }

    /// Schedule an event after a relative delay.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        f: impl FnOnce(&mut Engine) + 'static,
    ) -> EventId {
        self.schedule_at(self.now + delay, f)
    }

    /// Schedule at the current instant (runs after all already-queued events
    /// for this instant — FIFO within a timestamp).
    pub fn schedule_now(&mut self, f: impl FnOnce(&mut Engine) + 'static) -> EventId {
        self.schedule_at(self.now, f)
    }

    /// Cancel a previously scheduled event. Cancelling an event that already
    /// ran (or was already cancelled) is a no-op.
    pub fn cancel(&mut self, id: EventId) {
        // The generation check makes stale ids harmless: once the event
        // ran, its slot is free (or re-occupied under a different seq).
        if let Some(slot) = self.slots.get_mut(id.slot as usize) {
            if slot.seq == id.seq {
                slot.payload = None;
            }
        }
    }

    /// Free `entry`'s slab slot and return its payload (`None` if the
    /// event was cancelled).
    fn release(&mut self, entry: Entry) -> Option<EventFn> {
        let slot = &mut self.slots[entry.slot as usize];
        debug_assert_eq!(slot.seq, entry.seq, "heap entry aliases a recycled slot");
        let payload = slot.payload.take();
        self.free.push(entry.slot);
        payload
    }

    /// Execute the next event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        while let Some(entry) = self.queue.pop() {
            let Some(payload) = self.release(entry) else {
                continue; // cancelled
            };
            debug_assert!(entry.time >= self.now, "event queue went backwards");
            self.now = entry.time;
            self.executed += 1;
            payload(self);
            return true;
        }
        false
    }

    /// Run until no events remain; returns the final virtual time.
    pub fn run(&mut self) -> SimTime {
        while self.step() {}
        self.now
    }

    /// Run events with `time <= until`, then advance the clock to `until`.
    pub fn run_until(&mut self, until: SimTime) {
        loop {
            let next = loop {
                match self.queue.peek().copied() {
                    Some(e) if self.slots[e.slot as usize].payload.is_none() => {
                        // Cancelled: drop it and free the slot.
                        self.queue.pop();
                        self.release(e);
                    }
                    Some(e) => break Some(e.time),
                    None => break None,
                }
            };
            match next {
                Some(t) if t <= until => {
                    self.step();
                }
                _ => break,
            }
        }
        if until > self.now {
            self.now = until;
        }
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("executed", &self.executed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_fire_in_time_order() {
        let mut e = Engine::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        for (t, tag) in [(3u64, 'c'), (1, 'a'), (2, 'b')] {
            let log = log.clone();
            e.schedule_at(SimTime(t), move |_| log.borrow_mut().push(tag));
        }
        e.run();
        assert_eq!(*log.borrow(), vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut e = Engine::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        for tag in 0..5 {
            let log = log.clone();
            e.schedule_at(SimTime(10), move |_| log.borrow_mut().push(tag));
        }
        e.run();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn nested_scheduling_advances_clock() {
        let mut e = Engine::new(1);
        let hits = Rc::new(RefCell::new(Vec::new()));
        let h = hits.clone();
        e.schedule_in(SimDuration::from_secs(1), move |eng| {
            h.borrow_mut().push(eng.now());
            let h2 = h.clone();
            eng.schedule_in(SimDuration::from_secs(2), move |eng| {
                h2.borrow_mut().push(eng.now());
            });
        });
        let end = e.run();
        assert_eq!(
            *hits.borrow(),
            vec![SimTime::from_secs_f64(1.0), SimTime::from_secs_f64(3.0)]
        );
        assert_eq!(end, SimTime::from_secs_f64(3.0));
    }

    #[test]
    fn cancelled_events_do_not_fire() {
        let mut e = Engine::new(1);
        let hit = Rc::new(RefCell::new(false));
        let h = hit.clone();
        let id = e.schedule_in(SimDuration::from_secs(1), move |_| {
            *h.borrow_mut() = true;
        });
        e.cancel(id);
        e.run();
        assert!(!*hit.borrow());
        assert_eq!(e.events_executed(), 0);
    }

    #[test]
    fn run_until_stops_at_boundary() {
        let mut e = Engine::new(1);
        let count = Rc::new(RefCell::new(0));
        for t in 1..=10u64 {
            let c = count.clone();
            e.schedule_at(SimTime::from_secs_f64(t as f64), move |_| {
                *c.borrow_mut() += 1;
            });
        }
        e.run_until(SimTime::from_secs_f64(5.0));
        assert_eq!(*count.borrow(), 5);
        assert_eq!(e.now(), SimTime::from_secs_f64(5.0));
        e.run();
        assert_eq!(*count.borrow(), 10);
    }

    #[test]
    #[should_panic]
    fn scheduling_into_past_panics() {
        let mut e = Engine::new(1);
        e.schedule_at(SimTime::from_secs_f64(5.0), |_| {});
        e.run();
        e.schedule_at(SimTime::from_secs_f64(1.0), |_| {});
    }

    #[test]
    fn schedule_now_is_fifo_at_instant() {
        let mut e = Engine::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        let l1 = log.clone();
        let l0 = log.clone();
        e.schedule_now(move |eng| {
            l0.borrow_mut().push(0);
            let l = l1.clone();
            eng.schedule_now(move |_| l.borrow_mut().push(2));
        });
        let l = log.clone();
        e.schedule_now(move |_| l.borrow_mut().push(1));
        e.run();
        assert_eq!(*log.borrow(), vec![0, 1, 2]);
    }
}
