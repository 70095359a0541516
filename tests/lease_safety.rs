//! Lease-safety property tier.
//!
//! Seeded property tests over the coordination store's lease table. Two
//! invariants carry the whole split-brain design:
//!
//! * **Two-owner invariant** — a pilot is never granted a lease while an
//!   unexpired one is still held; ownership holds are disjoint in time.
//! * **Fencing-epoch monotonicity** — grants and revocations bump the
//!   epoch by exactly one, renewals never move it, so a zombie stamped
//!   with an old epoch can never match the table again.
//!
//! The first tier fuzzes 128 raw grant/renew/revoke/partition
//! interleavings directly against the store (including deliberately
//! stale renewals under real, superseded fences) and audits what each
//! lease call returned; the second steps full split-brain simulations
//! with lease-owned Unit-Managers by hand and watches every pilot's
//! lease epoch and expiry after each event.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use hadoop_hpc::pilot::*;
use hadoop_hpc::sim::{Engine, FaultEvent, FaultKind, FaultPlan, SimDuration, SimRng, SimTime};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LeaseOp {
    Grant,
    Renew,
    Revoke,
}

/// One successful lease call as the caller saw it: the operation, which
/// pilot's lease, the fencing epoch after the operation, when it
/// happened and (for grants/renewals) when the lease expires.
#[derive(Debug, Clone, Copy)]
struct AuditEntry {
    op: LeaseOp,
    pilot: PilotId,
    epoch: u64,
    at: SimTime,
    expires: SimTime,
}

type Audit = Rc<RefCell<Vec<AuditEntry>>>;

/// Replay the audit log through a per-pilot lease state machine,
/// asserting both invariants on every entry; returns each pilot's final
/// fencing epoch for cross-checking against the live table.
fn check_audit(label: &str, entries: &[AuditEntry]) -> BTreeMap<PilotId, u64> {
    let mut state: BTreeMap<PilotId, (bool, SimTime, u64)> = BTreeMap::new();
    let mut last_at = SimTime::ZERO;
    for a in entries {
        assert!(a.at >= last_at, "{label}: audit log runs backwards in time");
        last_at = a.at;
        let (held, expires, epoch) = state.entry(a.pilot).or_insert((false, SimTime::ZERO, 0u64));
        match a.op {
            LeaseOp::Grant => {
                assert!(
                    !*held || a.at >= *expires,
                    "{label}: {:?} re-granted at {:?} while an unexpired lease \
                     (expires {:?}) was held — two owners",
                    a.pilot,
                    a.at,
                    *expires
                );
                assert_eq!(
                    a.epoch,
                    *epoch + 1,
                    "{label}: {:?} grant did not bump the fencing epoch by exactly one",
                    a.pilot
                );
                assert!(
                    a.expires > a.at,
                    "{label}: {:?} was granted an already-expired lease",
                    a.pilot
                );
                *held = true;
                *expires = a.expires;
                *epoch = a.epoch;
            }
            LeaseOp::Renew => {
                assert!(
                    *held,
                    "{label}: {:?} renewal recorded without a held lease",
                    a.pilot
                );
                assert_eq!(
                    a.epoch, *epoch,
                    "{label}: {:?} renewal moved the fencing epoch",
                    a.pilot
                );
                assert!(
                    a.expires >= *expires,
                    "{label}: {:?} renewal shortened the lease",
                    a.pilot
                );
                *expires = a.expires;
            }
            LeaseOp::Revoke => {
                assert_eq!(
                    a.epoch,
                    *epoch + 1,
                    "{label}: {:?} revoke did not bump the fencing epoch by exactly one",
                    a.pilot
                );
                *held = false;
                *epoch = a.epoch;
            }
        }
    }
    state.into_iter().map(|(p, (_, _, e))| (p, e)).collect()
}

/// Cross-check the replayed final state against the live store: the
/// table's epoch must equal the audit replay's, and the renewal counter
/// must equal the number of successful renewals recorded.
fn check_store_agrees(label: &str, store: &CoordinationStore, audit: &[AuditEntry]) {
    for (pilot, epoch) in check_audit(label, audit) {
        assert_eq!(
            store.lease_epoch(pilot).epoch(),
            epoch,
            "{label}: replayed epoch diverges from the lease table for {pilot:?}"
        );
    }
    let renews = audit.iter().filter(|a| a.op == LeaseOp::Renew).count() as u64;
    assert_eq!(
        store.lease_renewals(),
        renews,
        "{label}: renewal counter disagrees with the successful renewals"
    );
}

/// Record a successful lease call in the test-side audit.
fn log(audit: &Audit, op: LeaseOp, pilot: PilotId, epoch: u64, at: SimTime, expires: SimTime) {
    audit.borrow_mut().push(AuditEntry {
        op,
        pilot,
        epoch,
        at,
        expires,
    });
}

/// Renew under `fence`, recording the renewal if the store granted it.
fn renew(s: &CoordinationStore, audit: &Audit, eng: &mut Engine, pilot: PilotId, fence: Fence) {
    if let Some(expires) = s.renew_lease(eng, pilot, fence) {
        let epoch = fence.epoch();
        log(audit, LeaseOp::Renew, pilot, epoch, eng.now(), expires);
    }
}

#[test]
fn random_op_interleavings_uphold_lease_invariants() {
    let mut total_grants = 0u64;
    let mut total_rejections = 0u64;
    for seed in 0..128u64 {
        let mut e = Engine::new(seed);
        let session = Session::new(SessionConfig::test_profile());
        let store = session.store();
        let mut rng = SimRng::new(0xA11CE ^ seed);
        store.enable_leases(
            SimDuration::from_secs(rng.uniform_u64(20, 90)),
            |_, _, _, _| {},
        );
        let audit: Audit = Rc::default();
        let pilots = 1 + rng.index(3);
        // Pre-schedule a random interleaving of lease ops and partition
        // windows at strictly increasing times; the engine executes them
        // in time order. Renewals come in three flavours: the fence read
        // at execution time (a live owner), the pilot's fence from before
        // its epoch last moved (a zombie replaying a fenced lease), and
        // the fence read before any grant (never granted). Grants and
        // revokes record the superseded fence whenever the epoch moves.
        let never_granted = store.lease_epoch(PilotId(0));
        let previous: Rc<RefCell<BTreeMap<PilotId, Fence>>> = Rc::default();
        let mut at = 0u64;
        for _ in 0..60 {
            at += rng.uniform_u64(1, 40);
            let delay = SimDuration::from_secs(at);
            let pilot = PilotId(rng.index(pilots) as u64);
            let s = store.clone();
            let prev = previous.clone();
            let audit = audit.clone();
            match rng.index(9) {
                0..=2 => {
                    e.schedule_in(delay, move |eng| {
                        let before = s.lease_epoch(pilot);
                        if let Some((fence, expires)) = s.try_acquire_lease(eng, pilot) {
                            prev.borrow_mut().insert(pilot, before);
                            let epoch = fence.epoch();
                            log(&audit, LeaseOp::Grant, pilot, epoch, eng.now(), expires);
                        }
                    });
                }
                3 | 4 => {
                    e.schedule_in(delay, move |eng| {
                        let fence = s.lease_epoch(pilot);
                        renew(&s, &audit, eng, pilot, fence);
                    });
                }
                5 => {
                    e.schedule_in(delay, move |eng| {
                        let stale = prev.borrow().get(&pilot).copied();
                        renew(&s, &audit, eng, pilot, stale.unwrap_or(never_granted));
                    });
                }
                6 => {
                    e.schedule_in(delay, move |eng| {
                        renew(&s, &audit, eng, pilot, never_granted);
                    });
                }
                7 => {
                    e.schedule_in(delay, move |eng| {
                        let before = s.lease_epoch(pilot);
                        let revoked = s.revoke_lease(eng, pilot);
                        assert_eq!(revoked.pilot(), pilot);
                        prev.borrow_mut().insert(pilot, before);
                        let epoch = s.lease_epoch(pilot).epoch();
                        log(&audit, LeaseOp::Revoke, pilot, epoch, eng.now(), eng.now());
                    });
                }
                _ => {
                    let dur = SimDuration::from_secs(rng.uniform_u64(10, 120));
                    let symmetric = rng.chance(0.5);
                    e.schedule_in(delay, move |eng| {
                        s.partition_pilot(eng, pilot, dur, symmetric);
                    });
                }
            }
        }
        e.run();
        let audit = audit.borrow();
        check_store_agrees(&format!("seed {seed}"), &store, &audit);
        total_grants += audit.iter().filter(|a| a.op == LeaseOp::Grant).count() as u64;
        total_rejections += store.fence_rejections();
    }
    // The fuzz must actually exercise both sides of the fence. The
    // totals are pinned: a rewrite that forges fewer stale renewals or
    // grants less often shows up here, not just one that stops entirely.
    assert_eq!(total_grants, 1490, "grants across the whole fuzz");
    assert_eq!(
        total_rejections, 1827,
        "stale renewals rejected across the whole fuzz"
    );
}

/// What the sim tier last saw of one pilot's lease.
#[derive(Clone, Copy, Default)]
struct Seen {
    epoch: u64,
    expiry: Option<SimTime>,
}

/// Compare every pilot's lease after one engine event with what was
/// seen before it. Returns the number of revocations the event made.
fn watch_leases(label: &str, store: &CoordinationStore, seen: &mut [Seen], now: SimTime) -> u64 {
    let mut revokes = 0;
    for (i, last) in seen.iter_mut().enumerate() {
        let pilot = PilotId(i as u64);
        let epoch = store.lease_epoch(pilot).epoch();
        let expiry = store.lease_expiry(pilot);
        assert!(
            epoch >= last.epoch,
            "{label}: {pilot:?} fencing epoch went down ({} -> {epoch}) at {now:?}",
            last.epoch
        );
        let moved = epoch - last.epoch;
        // Two grants in one event are impossible (the first is unexpired),
        // so a move by two or more, or a move that leaves no lease held,
        // includes a revocation.
        if moved >= 2 || (moved == 1 && expiry.is_none()) {
            revokes += 1;
        }
        if moved == 1 {
            if let Some(expires) = expiry {
                assert!(
                    last.expiry.is_none_or(|held| now >= held),
                    "{label}: {pilot:?} re-granted at {now:?} while an unexpired lease \
                     (expires {:?}) was held — two owners",
                    last.expiry
                );
                assert!(expires > now, "{label}: {pilot:?} granted an expired lease");
            }
        }
        if moved == 0 {
            if let (Some(before), Some(after)) = (last.expiry, expiry) {
                assert!(
                    after >= before,
                    "{label}: {pilot:?} renewal shortened the lease ({before:?} -> {after:?})"
                );
            }
        }
        *last = Seen { epoch, expiry };
    }
    revokes
}

#[test]
fn split_brain_runs_uphold_lease_invariants() {
    let mut total_revokes = 0u64;
    for seed in 0..16u64 {
        let mut e = Engine::new(seed);
        let session = Session::new(SessionConfig::test_profile());
        let store = session.store();
        let pm = PilotManager::new(&session);
        let pilots: Vec<PilotHandle> = (0..2)
            .map(|_| {
                pm.submit(
                    &mut e,
                    PilotDescription::new("xsede.stampede", 3, SimDuration::from_secs(14_400)),
                )
                .unwrap()
            })
            .collect();
        assert_eq!(
            pilots.iter().map(|p| p.id()).collect::<Vec<_>>(),
            [PilotId(0), PilotId(1)]
        );
        let mut um = UnitManager::new(&session, UmScheduler::RoundRobin);
        for p in &pilots {
            um.add_pilot(p);
        }
        um.enable_leases(
            &mut e,
            SimDuration::from_secs(60),
            SimDuration::from_secs(30),
        );
        let mut plan = FaultPlan::generate_partitioned(
            seed,
            SimDuration::from_secs(1_800),
            3,
            pilots.len(),
            4,
        );
        // One guaranteed long partition past lease + grace, so every seed
        // exercises self-fencing, revocation and post-heal rejection.
        plan.events.push(FaultEvent {
            at: SimTime::from_secs_f64(50.0),
            kind: FaultKind::Partition {
                pilot: (seed as usize) % 2,
                duration: SimDuration::from_secs(300),
                symmetric: seed.is_multiple_of(2),
            },
        });
        install_faults_multi(&mut e, &plan, &pilots);
        let units = um.submit_units(
            &mut e,
            (0..8)
                .map(|i| {
                    ComputeUnitDescription::new(
                        format!("c{i}"),
                        1,
                        WorkSpec::Sleep(SimDuration::from_secs(15 + (i as u64 % 4) * 10)),
                    )
                })
                .collect(),
        );
        let label = format!("sim seed {seed}");
        let horizon = SimTime::from_secs_f64(20_000.0);
        let mut seen = [Seen::default(); 2];
        loop {
            let live = units.iter().any(|u| !u.state().is_final());
            if !e.step() {
                assert!(!live, "seed {seed}: sim wedged with live units");
                break;
            }
            assert!(
                !live || e.now() < horizon,
                "seed {seed}: past the walltime backstop"
            );
            total_revokes += watch_leases(&label, &store, &mut seen, e.now());
        }
        assert!(
            seen.iter().any(|s| s.epoch > 0),
            "seed {seed}: no lease was ever granted"
        );
    }
    assert!(
        total_revokes > 0,
        "no lease was ever revoked across the split-brain runs"
    );
}
