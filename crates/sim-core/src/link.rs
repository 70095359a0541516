//! Max–min fair-shared bandwidth resource.
//!
//! `FairLink` models any contended byte-pipe in the system: a Lustre
//! parallel-filesystem backend, a node-local disk, a NIC, or the cluster
//! fabric. Concurrent flows share the capacity max–min fairly, each flow
//! optionally capped (e.g. a single client cannot exceed its NIC rate even
//! if the fabric is idle).
//!
//! The model is *progress-based*: whenever the flow set changes, the
//! progress of all flows is advanced under the previous rates, rates are
//! recomputed, and the next completion event is (re)scheduled. Stale
//! completion events are invalidated with a generation counter.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::engine::{Engine, EventId};
use crate::time::{SimDuration, SimTime};

/// Identifier of an in-flight flow (usable for cancellation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowId(u64);

type DoneFn = Box<dyn FnOnce(&mut Engine)>;

struct Flow {
    remaining: f64, // bytes
    cap: f64,       // bytes/sec, may be INFINITY
    rate: f64,      // current assigned rate
    done: Option<DoneFn>,
}

struct Inner {
    name: String,
    capacity: f64, // bytes/sec, may be INFINITY
    flows: BTreeMap<u64, Flow>,
    next_id: u64,
    last_advance: SimTime,
    generation: u64,
    pending: Option<EventId>,
    total_bytes: f64,
    busy_time: SimDuration,
}

/// A shared, max–min fair bandwidth link. Cheap to clone (shared handle).
#[derive(Clone)]
pub struct FairLink {
    inner: Rc<RefCell<Inner>>,
}

/// Bytes below which a flow counts as finished (absorbs f64 rounding).
const EPS_BYTES: f64 = 1e-3;

impl FairLink {
    /// A link with the given aggregate capacity in bytes/second.
    /// `f64::INFINITY` gives an uncontended link (flows run at their cap).
    pub fn new(name: impl Into<String>, capacity_bytes_per_sec: f64) -> Self {
        assert!(
            capacity_bytes_per_sec > 0.0,
            "link capacity must be positive"
        );
        FairLink {
            inner: Rc::new(RefCell::new(Inner {
                name: name.into(),
                capacity: capacity_bytes_per_sec,
                flows: BTreeMap::new(),
                next_id: 0,
                last_advance: SimTime::ZERO,
                generation: 0,
                pending: None,
                total_bytes: 0.0,
                busy_time: SimDuration::ZERO,
            })),
        }
    }

    pub fn name(&self) -> String {
        self.inner.borrow().name.clone()
    }

    pub fn capacity(&self) -> f64 {
        self.inner.borrow().capacity
    }

    /// Total bytes fully delivered so far.
    pub fn total_bytes(&self) -> f64 {
        self.inner.borrow().total_bytes
    }

    /// Virtual time during which at least one flow was active.
    pub fn busy_time(&self) -> SimDuration {
        self.inner.borrow().busy_time
    }

    /// Start a transfer of `bytes`; `done` fires when the last byte lands.
    /// `per_flow_cap` bounds this flow's rate (bytes/sec); pass
    /// `f64::INFINITY` for no cap. Zero-byte transfers complete immediately.
    pub fn transfer(
        &self,
        engine: &mut Engine,
        bytes: f64,
        per_flow_cap: f64,
        done: impl FnOnce(&mut Engine) + 'static,
    ) -> FlowId {
        assert!(
            bytes >= 0.0 && bytes.is_finite(),
            "invalid transfer size {bytes}"
        );
        assert!(per_flow_cap > 0.0, "per-flow cap must be positive");
        let now = engine.now();
        let id;
        {
            let mut inner = self.inner.borrow_mut();
            inner.advance(now);
            id = inner.next_id;
            inner.next_id += 1;
            inner.flows.insert(
                id,
                Flow {
                    remaining: bytes.max(0.0),
                    cap: per_flow_cap,
                    rate: 0.0,
                    done: Some(Box::new(done)),
                },
            );
            inner.recompute_rates();
        }
        self.fire_finished_and_reschedule(engine);
        FlowId(id)
    }

    /// Cancel an in-flight flow; its completion callback never fires.
    /// Cancelling an already-finished flow is a no-op.
    pub fn cancel(&self, engine: &mut Engine, id: FlowId) {
        let now = engine.now();
        {
            let mut inner = self.inner.borrow_mut();
            inner.advance(now);
            if inner.flows.remove(&id.0).is_none() {
                return;
            }
            inner.recompute_rates();
        }
        self.fire_finished_and_reschedule(engine);
    }

    /// Change the aggregate capacity mid-flight (fault injection: link
    /// degradation and recovery). Progress under the old rates is applied
    /// first, then rates and the next completion event are recomputed.
    pub fn set_capacity(&self, engine: &mut Engine, capacity_bytes_per_sec: f64) {
        assert!(
            capacity_bytes_per_sec > 0.0,
            "link capacity must be positive"
        );
        let now = engine.now();
        {
            let mut inner = self.inner.borrow_mut();
            inner.advance(now);
            inner.capacity = capacity_bytes_per_sec;
            inner.recompute_rates();
        }
        self.fire_finished_and_reschedule(engine);
    }

    /// Advance progress, pop finished flows, recompute rates, reschedule the
    /// next completion event, then run finished callbacks (in flow order).
    fn fire_finished_and_reschedule(&self, engine: &mut Engine) {
        let mut finished: Vec<DoneFn> = Vec::new();
        {
            let mut inner = self.inner.borrow_mut();
            inner.advance(engine.now());
            let done_ids: Vec<u64> = inner
                .flows
                .iter()
                .filter(|(_, f)| f.remaining <= EPS_BYTES)
                .map(|(&id, _)| id)
                .collect();
            for id in done_ids {
                let mut flow = inner.flows.remove(&id).expect("flow vanished");
                if let Some(cb) = flow.done.take() {
                    finished.push(cb);
                }
            }
            inner.recompute_rates();

            // Re-arm the next completion event.
            inner.generation += 1;
            let gen = inner.generation;
            if let Some(ev) = inner.pending.take() {
                engine.cancel(ev);
            }
            if let Some(ttc) = inner.next_completion() {
                let handle = self.clone();
                inner.pending = Some(engine.schedule_in(ttc, move |eng| {
                    if handle.inner.borrow().generation == gen {
                        handle.inner.borrow_mut().pending = None;
                        handle.fire_finished_and_reschedule(eng);
                    }
                }));
            }
        }
        for cb in finished {
            cb(engine);
        }
    }
}

impl Inner {
    /// Apply progress under the current rates up to `now`.
    fn advance(&mut self, now: SimTime) {
        let elapsed = now.saturating_since(self.last_advance);
        self.last_advance = now;
        if elapsed.is_zero() || self.flows.is_empty() {
            return;
        }
        self.busy_time += elapsed;
        let secs = elapsed.as_secs_f64();
        for flow in self.flows.values_mut() {
            let moved = (flow.rate * secs).min(flow.remaining);
            flow.remaining -= moved;
            self.total_bytes += moved;
        }
    }

    /// Max–min fair allocation with per-flow caps (water-filling).
    fn recompute_rates(&mut self) {
        let n = self.flows.len();
        if n == 0 {
            return;
        }
        // Sort flow ids by cap ascending; capped flows lock in first, the
        // remainder is split among the rest.
        let mut ids: Vec<u64> = self.flows.keys().copied().collect();
        ids.sort_by(|a, b| {
            let ca = self.flows[a].cap;
            let cb = self.flows[b].cap;
            ca.total_cmp(&cb).then(a.cmp(b))
        });
        let mut remaining_cap = self.capacity;
        let mut remaining_flows = n;
        for id in ids {
            let share = if remaining_cap.is_finite() {
                remaining_cap / remaining_flows as f64
            } else {
                f64::INFINITY
            };
            let flow = self
                .flows
                .get_mut(&id)
                .expect("id was read from the flow table");
            let rate = flow.cap.min(share);
            flow.rate = rate;
            if remaining_cap.is_finite() {
                remaining_cap = (remaining_cap - rate).max(0.0);
            }
            remaining_flows -= 1;
        }
    }

    /// Time until the next flow completes under current rates.
    #[allow(clippy::type_complexity)]
    fn next_completion(&self) -> Option<SimDuration> {
        let mut best: Option<f64> = None;
        for flow in self.flows.values() {
            let secs = if flow.remaining <= EPS_BYTES || flow.rate.is_infinite() {
                0.0
            } else if flow.rate <= 0.0 {
                continue; // starved flow: cannot finish until rates change
            } else {
                flow.remaining / flow.rate
            };
            best = Some(best.map_or(secs, |b: f64| b.min(secs)));
        }
        // Round *up* to the next microsecond so remaining <= EPS at fire time.
        best.map(|secs| SimDuration((secs * 1e6).ceil() as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[allow(clippy::type_complexity)]
    fn done_log() -> (
        Rc<RefCell<Vec<(u32, SimTime)>>>,
        impl Fn(u32) -> DoneFn + Clone,
    ) {
        let log: Rc<RefCell<Vec<(u32, SimTime)>>> = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        let mk = move |tag: u32| -> DoneFn {
            let l = l.clone();
            Box::new(move |eng: &mut Engine| l.borrow_mut().push((tag, eng.now())))
        };
        (log, mk)
    }

    #[test]
    fn single_flow_runs_at_capacity() {
        let mut e = Engine::new(1);
        let link = FairLink::new("disk", 100.0); // 100 B/s
        let (log, mk) = done_log();
        link.transfer(&mut e, 1000.0, f64::INFINITY, mk(0));
        e.run();
        assert_eq!(log.borrow()[0], (0, SimTime::from_secs_f64(10.0)));
        assert!((link.total_bytes() - 1000.0).abs() < 1.0);
    }

    #[test]
    fn two_equal_flows_halve_throughput() {
        let mut e = Engine::new(1);
        let link = FairLink::new("disk", 100.0);
        let (log, mk) = done_log();
        link.transfer(&mut e, 1000.0, f64::INFINITY, mk(0));
        link.transfer(&mut e, 1000.0, f64::INFINITY, mk(1));
        e.run();
        // Both share 50 B/s → both finish at 20 s.
        for &(_, t) in log.borrow().iter() {
            assert!((t.as_secs_f64() - 20.0).abs() < 0.01, "{t}");
        }
    }

    #[test]
    fn short_flow_finishes_then_long_flow_speeds_up() {
        let mut e = Engine::new(1);
        let link = FairLink::new("disk", 100.0);
        let (log, mk) = done_log();
        link.transfer(&mut e, 2000.0, f64::INFINITY, mk(0));
        link.transfer(&mut e, 500.0, f64::INFINITY, mk(1));
        e.run();
        let log = log.borrow();
        // Short flow: 500 B at 50 B/s → 10 s.
        // Long flow: 500 B done at t=10 (50 B/s), remaining 1500 at 100 B/s
        // → finishes at 10 + 15 = 25 s.
        let t_short = log.iter().find(|x| x.0 == 1).unwrap().1;
        let t_long = log.iter().find(|x| x.0 == 0).unwrap().1;
        assert!((t_short.as_secs_f64() - 10.0).abs() < 0.01, "{t_short}");
        assert!((t_long.as_secs_f64() - 25.0).abs() < 0.01, "{t_long}");
    }

    #[test]
    fn per_flow_cap_limits_rate() {
        let mut e = Engine::new(1);
        let link = FairLink::new("fabric", 1000.0);
        let (log, mk) = done_log();
        link.transfer(&mut e, 100.0, 10.0, mk(0)); // capped at 10 B/s
        e.run();
        assert!((log.borrow()[0].1.as_secs_f64() - 10.0).abs() < 0.01);
    }

    #[test]
    fn capped_flow_leaves_bandwidth_to_others() {
        let mut e = Engine::new(1);
        let link = FairLink::new("fabric", 100.0);
        let (log, mk) = done_log();
        // Flow 0 capped at 20 B/s, flow 1 uncapped: max-min gives 20 + 80.
        link.transfer(&mut e, 200.0, 20.0, mk(0)); // 10 s
        link.transfer(&mut e, 800.0, f64::INFINITY, mk(1)); // 10 s
        e.run();
        let log = log.borrow();
        for &(_, t) in log.iter() {
            assert!((t.as_secs_f64() - 10.0).abs() < 0.01, "{t}");
        }
    }

    #[test]
    fn late_joiner_slows_existing_flow() {
        let mut e = Engine::new(1);
        let link = FairLink::new("disk", 100.0);
        let (log, mk) = done_log();
        link.transfer(&mut e, 1000.0, f64::INFINITY, mk(0));
        let link2 = link.clone();
        let mk2 = mk.clone();
        e.schedule_in(SimDuration::from_secs(5), move |eng| {
            link2.transfer(eng, 250.0, f64::INFINITY, mk2(1));
        });
        e.run();
        let log = log.borrow();
        // Flow 0: 500 B in first 5 s, then 50 B/s. Flow 1 finishes 250 B at
        // 50 B/s at t=10; flow 0 then has 250 B left at 100 B/s → t=12.5.
        let t1 = log.iter().find(|x| x.0 == 1).unwrap().1;
        let t0 = log.iter().find(|x| x.0 == 0).unwrap().1;
        assert!((t1.as_secs_f64() - 10.0).abs() < 0.01, "{t1}");
        assert!((t0.as_secs_f64() - 12.5).abs() < 0.01, "{t0}");
    }

    #[test]
    fn zero_byte_transfer_completes_immediately() {
        let mut e = Engine::new(1);
        let link = FairLink::new("disk", 100.0);
        let (log, mk) = done_log();
        link.transfer(&mut e, 0.0, f64::INFINITY, mk(0));
        e.run();
        assert_eq!(log.borrow()[0].1, SimTime::ZERO);
    }

    #[test]
    fn cancel_suppresses_callback_and_frees_bandwidth() {
        let mut e = Engine::new(1);
        let link = FairLink::new("disk", 100.0);
        let (log, mk) = done_log();
        let id = link.transfer(&mut e, 10_000.0, f64::INFINITY, mk(0));
        link.transfer(&mut e, 500.0, f64::INFINITY, mk(1));
        let link2 = link.clone();
        e.schedule_in(SimDuration::from_secs(1), move |eng| {
            link2.cancel(eng, id);
        });
        e.run();
        let log = log.borrow();
        assert_eq!(log.len(), 1);
        // Flow 1: 50 B in first second, then full 100 B/s for 450 B → t=5.5.
        assert!((log[0].1.as_secs_f64() - 5.5).abs() < 0.01, "{}", log[0].1);
    }

    #[test]
    fn infinite_capacity_runs_at_flow_cap() {
        let mut e = Engine::new(1);
        let link = FairLink::new("ideal", f64::INFINITY);
        let (log, mk) = done_log();
        link.transfer(&mut e, 100.0, 10.0, mk(0));
        link.transfer(&mut e, 100.0, 50.0, mk(1));
        e.run();
        let log = log.borrow();
        let t0 = log.iter().find(|x| x.0 == 0).unwrap().1;
        let t1 = log.iter().find(|x| x.0 == 1).unwrap().1;
        assert!((t0.as_secs_f64() - 10.0).abs() < 0.01);
        assert!((t1.as_secs_f64() - 2.0).abs() < 0.01);
    }

    #[test]
    fn busy_time_tracks_active_periods() {
        let mut e = Engine::new(1);
        let link = FairLink::new("disk", 100.0);
        let (_, mk) = done_log();
        link.transfer(&mut e, 500.0, f64::INFINITY, mk(0)); // busy 0..5
        let l2 = link.clone();
        let mk2 = mk.clone();
        e.schedule_in(SimDuration::from_secs(10), move |eng| {
            l2.transfer(eng, 200.0, f64::INFINITY, mk2(1)); // busy 10..12
        });
        e.run();
        assert!((link.busy_time().as_secs_f64() - 7.0).abs() < 0.01);
    }

    #[test]
    fn set_capacity_degrades_and_restores_mid_flight() {
        let mut e = Engine::new(1);
        let link = FairLink::new("disk", 100.0);
        let (log, mk) = done_log();
        link.transfer(&mut e, 1000.0, f64::INFINITY, mk(0));
        let l2 = link.clone();
        e.schedule_in(SimDuration::from_secs(2), move |eng| {
            l2.set_capacity(eng, 25.0); // 200 B done, 800 left at 25 B/s
        });
        let l3 = link.clone();
        e.schedule_in(SimDuration::from_secs(10), move |eng| {
            l3.set_capacity(eng, 100.0); // 600 left at 100 B/s → t = 16
        });
        e.run();
        let log = log.borrow();
        assert!((log[0].1.as_secs_f64() - 16.0).abs() < 0.01, "{}", log[0].1);
        assert!((link.capacity() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn many_flows_conserve_bytes() {
        let mut e = Engine::new(1);
        let link = FairLink::new("disk", 123.0);
        let (log, mk) = done_log();
        let mut expected = 0.0;
        for i in 0..20u32 {
            let bytes = 100.0 + 37.0 * i as f64;
            expected += bytes;
            link.transfer(&mut e, bytes, f64::INFINITY, mk(i));
        }
        e.run();
        assert_eq!(log.borrow().len(), 20);
        assert!(
            (link.total_bytes() - expected).abs() < 1.0,
            "{} vs {}",
            link.total_bytes(),
            expected
        );
    }
}
