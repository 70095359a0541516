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
//! recomputed, and the next completion event is (re)scheduled. Each
//! re-arm cancels the pending completion event, so a stale one never runs.

use std::cell::RefCell;
use std::rc::Rc;

use crate::engine::{Engine, EventId};
use crate::time::{SimDuration, SimTime};

type DoneFn = Box<dyn FnOnce(&mut Engine)>;

struct Flow {
    remaining: f64, // bytes
    cap: f64,       // bytes/sec, may be INFINITY
    rate: f64,      // current assigned rate
    done: DoneFn,
}

struct Inner {
    name: String,
    capacity: f64, // bytes/sec, may be INFINITY
    /// Active flows in start order. Progress, completion callbacks and
    /// water-filling ties all follow this order.
    flows: Vec<Flow>,
    /// Water-filling order (indices into `flows`), reused across calls.
    order: Vec<usize>,
    last_advance: SimTime,
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
                flows: Vec::new(),
                order: Vec::new(),
                last_advance: SimTime::ZERO,
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
    ) {
        assert!(
            bytes >= 0.0 && bytes.is_finite(),
            "invalid transfer size {bytes}"
        );
        assert!(per_flow_cap > 0.0, "per-flow cap must be positive");
        {
            let mut inner = self.inner.borrow_mut();
            inner.advance(engine.now());
            inner.flows.push(Flow {
                remaining: bytes.max(0.0),
                cap: per_flow_cap,
                rate: 0.0,
                done: Box::new(done),
            });
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
        {
            let mut inner = self.inner.borrow_mut();
            inner.advance(engine.now());
            inner.capacity = capacity_bytes_per_sec;
        }
        self.fire_finished_and_reschedule(engine);
    }

    /// Advance progress, pop finished flows, recompute rates, reschedule the
    /// next completion event, then run finished callbacks (in start order).
    fn fire_finished_and_reschedule(&self, engine: &mut Engine) {
        let finished: Vec<Flow> = {
            let mut inner = self.inner.borrow_mut();
            inner.advance(engine.now());
            let Inner {
                flows, total_bytes, ..
            } = &mut *inner;
            let finished = flows
                .extract_if(.., |f| {
                    // An infinite rate moves no bytes over zero time, so
                    // the flow lands in the event that finds it.
                    if f.rate == f64::INFINITY {
                        *total_bytes += f.remaining;
                        f.remaining = 0.0;
                    }
                    f.remaining <= EPS_BYTES
                })
                .collect();
            inner.recompute_rates();

            // Re-arm the next completion event.
            if let Some(ev) = inner.pending.take() {
                engine.cancel(ev);
            }
            if let Some(ttc) = inner.next_completion() {
                let handle = self.clone();
                inner.pending = Some(engine.schedule_in(ttc, move |eng| {
                    handle.inner.borrow_mut().pending = None;
                    handle.fire_finished_and_reschedule(eng);
                }));
            }
            finished
        };
        for flow in finished {
            (flow.done)(engine);
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
        for flow in &mut self.flows {
            let moved = (flow.rate * secs).min(flow.remaining);
            flow.remaining -= moved;
            self.total_bytes += moved;
        }
    }

    /// Max–min fair allocation with per-flow caps (water-filling).
    fn recompute_rates(&mut self) {
        let Inner {
            flows,
            order,
            capacity,
            ..
        } = self;
        // Visit flows by cap ascending, ties in start order (the sort is
        // stable); capped flows lock in first, the remainder is split
        // among the rest.
        order.clear();
        order.extend(0..flows.len());
        order.sort_by(|&a, &b| flows[a].cap.total_cmp(&flows[b].cap));
        let mut remaining_cap = *capacity;
        let mut remaining_flows = flows.len();
        for &i in order.iter() {
            let share = if remaining_cap.is_finite() {
                remaining_cap / remaining_flows as f64
            } else {
                f64::INFINITY
            };
            let flow = &mut flows[i];
            let rate = flow.cap.min(share);
            flow.rate = rate;
            if remaining_cap.is_finite() {
                remaining_cap = (remaining_cap - rate).max(0.0);
            }
            remaining_flows -= 1;
        }
    }

    /// Time until the next flow completes under current rates.
    fn next_completion(&self) -> Option<SimDuration> {
        let mut best: Option<f64> = None;
        for flow in &self.flows {
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

    #[expect(
        clippy::type_complexity,
        reason = "a test helper returning the log and its callback factory"
    )]
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

    #[test]
    fn same_instant_completions_fire_in_start_order() {
        let mut e = Engine::new(1);
        let link = FairLink::new("disk", 100.0);
        let (log, mk) = done_log();
        // Equal sizes and rates: all three land at t = 3 s.
        for tag in [7, 3, 5] {
            link.transfer(&mut e, 100.0, f64::INFINITY, mk(tag));
        }
        e.run();
        let at = SimTime::from_secs_f64(3.0);
        assert_eq!(*log.borrow(), vec![(7, at), (3, at), (5, at)]);
    }

    #[test]
    fn done_callback_may_start_a_transfer_on_the_same_link() {
        let mut e = Engine::new(1);
        let link = FairLink::new("disk", 100.0);
        let (log, mk) = done_log();
        // A and B share 50 B/s; A (500 B) lands at 10 s with 500 B of B
        // left. A's callback starts C (250 B): B and C share 50 B/s, C
        // lands at 15 s, then B runs alone at 100 B/s for its last
        // 250 B and lands at 17.5 s.
        let (l2, mk2) = (link.clone(), mk.clone());
        link.transfer(&mut e, 500.0, f64::INFINITY, move |eng| {
            mk2(0)(eng);
            l2.transfer(eng, 250.0, f64::INFINITY, mk2(2));
        });
        link.transfer(&mut e, 1000.0, f64::INFINITY, mk(1));
        e.run();
        let t = SimTime::from_secs_f64;
        assert_eq!(
            *log.borrow(),
            vec![(0, t(10.0)), (2, t(15.0)), (1, t(17.5))]
        );
        assert_eq!(link.total_bytes(), 1750.0);
    }

    #[test]
    fn set_capacity_on_an_idle_link_schedules_nothing() {
        let mut e = Engine::new(1);
        let link = FairLink::new("disk", 100.0);
        link.set_capacity(&mut e, 25.0);
        assert_eq!(e.pending(), 0);
        assert_eq!(link.capacity(), 25.0);
    }

    /// An uncapped flow on an infinite link gets an infinite rate; it
    /// lands in the event that finds it, at the instant it started, both
    /// on an infinite link and after `set_capacity(∞)` lifts a finite
    /// one. Steps are bounded, so a spin at one instant fails here
    /// instead of hanging.
    #[test]
    fn infinite_rate_flow_completes_at_once() {
        let mut e = Engine::new(1);
        let ideal = FairLink::new("ideal", f64::INFINITY);
        let lifted = FairLink::new("disk", 100.0);
        let (log, mk) = done_log();
        ideal.transfer(&mut e, 500.0, f64::INFINITY, mk(0));
        lifted.transfer(&mut e, 1000.0, f64::INFINITY, mk(1));
        e.schedule_in(SimDuration::from_secs(4), move |eng| {
            lifted.set_capacity(eng, f64::INFINITY)
        });
        let mut steps = 0;
        while e.step() {
            steps += 1;
            assert!(steps < 100, "the link spins at {}", e.now());
        }
        let t = SimTime::from_secs_f64;
        assert_eq!(*log.borrow(), vec![(0, t(0.0)), (1, t(4.0))]);
        assert_eq!(ideal.total_bytes(), 500.0);
    }

    /// The flow-table `FairLink` this one replaced, kept verbatim in its
    /// arithmetic: flows in a `BTreeMap` by id, water-filling over ids
    /// sorted by `(cap, id)`, rates computed once more before every
    /// re-arm, and a generation counter on the completion event.
    mod oracle {
        use super::*;
        use std::collections::BTreeMap;

        struct Inner {
            capacity: f64,
            flows: BTreeMap<u64, Flow>,
            next_id: u64,
            last_advance: SimTime,
            generation: u64,
            pending: Option<EventId>,
            total_bytes: f64,
        }

        #[derive(Clone)]
        pub struct OracleLink {
            inner: Rc<RefCell<Inner>>,
        }

        impl OracleLink {
            pub fn new(capacity: f64) -> Self {
                OracleLink {
                    inner: Rc::new(RefCell::new(Inner {
                        capacity,
                        flows: BTreeMap::new(),
                        next_id: 0,
                        last_advance: SimTime::ZERO,
                        generation: 0,
                        pending: None,
                        total_bytes: 0.0,
                    })),
                }
            }

            pub fn rates(&self) -> Vec<u64> {
                let inner = self.inner.borrow();
                inner.flows.values().map(|f| f.rate.to_bits()).collect()
            }

            pub fn total_bytes(&self) -> f64 {
                self.inner.borrow().total_bytes
            }

            pub fn transfer(&self, engine: &mut Engine, bytes: f64, cap: f64, done: DoneFn) {
                let now = engine.now();
                {
                    let mut inner = self.inner.borrow_mut();
                    inner.advance(now);
                    let id = inner.next_id;
                    inner.next_id += 1;
                    inner.flows.insert(
                        id,
                        Flow {
                            remaining: bytes.max(0.0),
                            cap,
                            rate: 0.0,
                            done,
                        },
                    );
                    inner.recompute_rates();
                }
                self.fire_finished_and_reschedule(engine);
            }

            pub fn set_capacity(&self, engine: &mut Engine, capacity: f64) {
                let now = engine.now();
                {
                    let mut inner = self.inner.borrow_mut();
                    inner.advance(now);
                    inner.capacity = capacity;
                    inner.recompute_rates();
                }
                self.fire_finished_and_reschedule(engine);
            }

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
                        let flow = inner.flows.remove(&id).unwrap();
                        finished.push(flow.done);
                    }
                    inner.recompute_rates();
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
            fn advance(&mut self, now: SimTime) {
                let elapsed = now.saturating_since(self.last_advance);
                self.last_advance = now;
                if elapsed.is_zero() || self.flows.is_empty() {
                    return;
                }
                let secs = elapsed.as_secs_f64();
                for flow in self.flows.values_mut() {
                    let moved = (flow.rate * secs).min(flow.remaining);
                    flow.remaining -= moved;
                    self.total_bytes += moved;
                }
            }

            fn recompute_rates(&mut self) {
                let n = self.flows.len();
                if n == 0 {
                    return;
                }
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
                    let flow = self.flows.get_mut(&id).unwrap();
                    let rate = flow.cap.min(share);
                    flow.rate = rate;
                    if remaining_cap.is_finite() {
                        remaining_cap = (remaining_cap - rate).max(0.0);
                    }
                    remaining_flows -= 1;
                }
            }

            fn next_completion(&self) -> Option<SimDuration> {
                let mut best: Option<f64> = None;
                for flow in self.flows.values() {
                    let secs = if flow.remaining <= EPS_BYTES || flow.rate.is_infinite() {
                        0.0
                    } else if flow.rate <= 0.0 {
                        continue;
                    } else {
                        flow.remaining / flow.rate
                    };
                    best = Some(best.map_or(secs, |b: f64| b.min(secs)));
                }
                best.map(|secs| SimDuration((secs * 1e6).ceil() as u64))
            }
        }
    }

    /// One step of a replayed link workload.
    #[derive(Clone, Copy)]
    enum Step {
        Start { tag: u32, bytes: f64, cap: f64 },
        SetCapacity(f64),
    }

    /// One replayed event: its time, its tag (`u32::MAX` for a step) and
    /// the rate bits after it.
    type Observation = (SimTime, u32, Vec<u64>);

    /// What a replay observed: every event, then the final `total_bytes`.
    type Replay = (Vec<Observation>, u64);

    /// Run `script` against one link implementation on a fresh engine.
    fn replay<L: Clone + 'static>(
        link: L,
        script: &[(SimTime, Step)],
        transfer: fn(&L, &mut Engine, f64, f64, DoneFn),
        set_capacity: fn(&L, &mut Engine, f64),
        rates: fn(&L) -> Vec<u64>,
        total_bytes: fn(&L) -> f64,
    ) -> Replay {
        let mut e = Engine::new(1);
        let log: Rc<RefCell<Vec<Observation>>> = Rc::default();
        for &(at, step) in script {
            let (link, log) = (link.clone(), log.clone());
            e.schedule_at(at, move |eng| {
                match step {
                    Step::Start { tag, bytes, cap } => {
                        let (l2, log2) = (link.clone(), log.clone());
                        let done: DoneFn = Box::new(move |eng: &mut Engine| {
                            log2.borrow_mut().push((eng.now(), tag, rates(&l2)));
                        });
                        transfer(&link, eng, bytes, cap, done);
                    }
                    Step::SetCapacity(c) => set_capacity(&link, eng, c),
                }
                log.borrow_mut().push((eng.now(), u32::MAX, rates(&link)));
            });
        }
        e.run();
        let events = log.borrow().clone();
        (events, total_bytes(&link).to_bits())
    }

    #[test]
    fn water_fill_matches_the_flow_table_oracle_bit_for_bit() {
        const CAPS: [f64; 4] = [10.0, 50.0, 100.0, f64::INFINITY];
        let mut rng = crate::SimRng::new(0x5eed);
        for case in 0..200 {
            // An uncapped flow on an infinite link never finishes (its
            // rate is infinite but no time passes), so infinite links
            // carry capped flows only, and only they return to infinity.
            let infinite = case % 3 == 0;
            let (capacity, caps) = if infinite {
                (f64::INFINITY, &CAPS[..3])
            } else {
                (rng.uniform(40.0, 400.0), &CAPS[..])
            };
            let mut script: Vec<(SimTime, Step)> = (0..rng.uniform_u64(2, 40) as u32)
                .map(|tag| {
                    let at = SimTime(rng.uniform_u64(0, 30_000_000));
                    let bytes = if rng.chance(0.05) {
                        0.0
                    } else {
                        rng.uniform(1.0, 2_000.0)
                    };
                    let cap = caps[rng.index(caps.len())];
                    (at, Step::Start { tag, bytes, cap })
                })
                .collect();
            for _ in 0..rng.uniform_u64(0, 4) {
                let at = SimTime(rng.uniform_u64(0, 30_000_000));
                let c = if infinite && rng.chance(0.3) {
                    f64::INFINITY
                } else {
                    rng.uniform(20.0, 500.0)
                };
                script.push((at, Step::SetCapacity(c)));
            }
            // Some steps share an instant with a completion or each other.
            if let Some(&(at, _)) = script.first() {
                let n = script.len();
                script[n / 2].0 = at;
            }
            let got = replay(
                FairLink::new("new", capacity),
                &script,
                |l, e, b, c, d| l.transfer(e, b, c, d),
                |l, e, c| l.set_capacity(e, c),
                |l| {
                    l.inner
                        .borrow()
                        .flows
                        .iter()
                        .map(|f| f.rate.to_bits())
                        .collect()
                },
                FairLink::total_bytes,
            );
            let want = replay(
                oracle::OracleLink::new(capacity),
                &script,
                |l, e, b, c, d| l.transfer(e, b, c, d),
                |l, e, c| l.set_capacity(e, c),
                oracle::OracleLink::rates,
                oracle::OracleLink::total_bytes,
            );
            assert_eq!(got, want, "case {case}");
        }
    }
}
