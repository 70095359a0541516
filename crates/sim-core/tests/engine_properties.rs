//! Property-style tests of the simulation core: event-ordering/cancellation
//! invariants, fair-link capacity/cap laws, and token accounting. Cases are
//! generated deterministically from fixed `SimRng` seeds.

use std::cell::RefCell;
use std::rc::Rc;

use rp_sim::{Engine, FairLink, SimRng, SimTime};

/// Cancelled events never fire; everything else fires exactly once.
#[test]
fn cancellation_is_exact() {
    let mut rng = SimRng::new(0xCA9CE1);
    for case in 0..64 {
        let n = rng.uniform_u64(1, 99) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.uniform_u64(0, 1_000_000)).collect();
        let cancel_mask: Vec<bool> = (0..n).map(|_| rng.chance(0.5)).collect();
        let mut e = Engine::new(1);
        let fired = Rc::new(RefCell::new(vec![false; n]));
        let mut ids = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            let fired = fired.clone();
            ids.push(e.schedule_at(SimTime(t), move |_| {
                fired.borrow_mut()[i] = true;
            }));
        }
        for (&id, &c) in ids.iter().zip(&cancel_mask) {
            if c {
                e.cancel(id);
            }
        }
        e.run();
        for (i, (&f, &c)) in fired.borrow().iter().zip(&cancel_mask).enumerate() {
            assert_eq!(f, !c, "case {case} event {i}");
        }
    }
}

/// A per-flow cap bounds each flow's completion from below by bytes/cap,
/// and a capped flow never beats an uncapped one of the same size started
/// at the same time.
#[test]
fn per_flow_caps_are_respected() {
    let mut rng = SimRng::new(0xF10CA9);
    for case in 0..64 {
        let bytes = rng.uniform(1e3, 1e7);
        let cap = rng.uniform(10.0, 1e5);
        let capacity = rng.uniform(1e5, 1e8);
        let mut e = Engine::new(1);
        let link = FairLink::new("p", capacity);
        let t_capped = Rc::new(RefCell::new(0.0));
        let t_free = Rc::new(RefCell::new(0.0));
        let tc = t_capped.clone();
        let tf = t_free.clone();
        link.transfer(&mut e, bytes, cap, move |eng| {
            *tc.borrow_mut() = eng.now().as_secs_f64();
        });
        link.transfer(&mut e, bytes, f64::INFINITY, move |eng| {
            *tf.borrow_mut() = eng.now().as_secs_f64();
        });
        e.run();
        let capped = *t_capped.borrow();
        let free = *t_free.borrow();
        assert!(
            capped + 1e-6 >= bytes / cap.min(capacity),
            "case {case}: capped too fast: {capped}"
        );
        assert!(
            free <= capped + 1e-6,
            "case {case}: uncapped {free} slower than capped {capped}"
        );
    }
}

/// Makespan of N equal concurrent flows equals N·bytes/capacity when
/// uncapped (perfect fair sharing wastes nothing).
#[test]
fn fair_sharing_wastes_no_bandwidth() {
    let mut rng = SimRng::new(0x5A1212);
    for case in 0..64 {
        let n = rng.uniform_u64(1, 31) as usize;
        let bytes = rng.uniform(1e4, 1e6);
        let capacity = rng.uniform(1e4, 1e7);
        let mut e = Engine::new(1);
        let link = FairLink::new("p", capacity);
        for _ in 0..n {
            link.transfer(&mut e, bytes, f64::INFINITY, |_| {});
        }
        let end = e.run().as_secs_f64();
        let ideal = n as f64 * bytes / capacity;
        assert!(
            (end - ideal).abs() < ideal * 1e-3 + 1e-5,
            "case {case}: end {end} ideal {ideal}"
        );
    }
}

/// run_until never executes events beyond the horizon, and a later run()
/// picks up exactly the rest.
#[test]
fn run_until_partitions_execution() {
    let mut rng = SimRng::new(0x9A2717);
    for case in 0..64 {
        let n = rng.uniform_u64(1, 79) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.uniform_u64(0, 1_000_000)).collect();
        let horizon = rng.uniform_u64(0, 1_000_000);
        let mut e = Engine::new(1);
        let early = Rc::new(RefCell::new(0usize));
        let late = Rc::new(RefCell::new(0usize));
        for &t in &times {
            let early = early.clone();
            let late = late.clone();
            let h = horizon;
            e.schedule_at(SimTime(t), move |eng| {
                if eng.now() <= SimTime(h) {
                    *early.borrow_mut() += 1;
                } else {
                    *late.borrow_mut() += 1;
                }
            });
        }
        e.run_until(SimTime(horizon));
        let expected_early = times.iter().filter(|&&t| t <= horizon).count();
        assert_eq!(*early.borrow(), expected_early, "case {case}");
        assert_eq!(*late.borrow(), 0, "case {case}");
        e.run();
        assert_eq!(*early.borrow() + *late.borrow(), times.len(), "case {case}");
    }
}
