//! Model-based test of the coordination store.
//!
//! Each seed draws a transport loss profile (lossless included), a lease
//! duration, one to three pilots and a timed mix of operations, and runs
//! them against the store through its public API only. A small reference
//! table of leases and partition windows lives in the test; every lease
//! call is checked against it as it happens, and every message against
//! it at quiescence:
//!
//! * each grant, renewal and revoke returns what the model returns, and
//!   `lease_epoch`/`lease_expiry` agree with the model after every call;
//! * a message callback runs at most once, and only while its fence
//!   matches `lease_epoch` (the callback reads it itself);
//! * a message whose fence was still current at quiescence applied; one
//!   sent under an already superseded fence never did;
//! * applied + fenced == sent, with renewals rejected as stale counted
//!   apart;
//! * each pushed unit reaches its pilot's consumer exactly once;
//! * every duplicated delivery was suppressed, and the dedup backlog is
//!   empty.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use rp_pilot::*;
use rp_sim::{Engine, SimDuration, SimRng, SimTime};

const SEEDS: u64 = 128;
const OPS: usize = 60;

/// The reference lease record and partition heal time of one pilot.
#[derive(Clone, Copy, Default)]
struct PilotModel {
    epoch: u64,
    held: bool,
    expires: SimTime,
    /// The pilot cannot reach the store before this instant.
    cut_until: SimTime,
}

struct Model {
    leases_on: bool,
    duration: SimDuration,
    pilots: Vec<PilotModel>,
    renewals: u64,
    stale_renewals: u64,
}

impl Model {
    fn acquire(&mut self, p: usize, now: SimTime) -> Option<(u64, SimTime)> {
        let duration = self.duration;
        let m = &mut self.pilots[p];
        if !self.leases_on || now < m.cut_until || (m.held && now < m.expires) {
            return None;
        }
        m.epoch += 1;
        m.held = true;
        m.expires = now + duration;
        Some((m.epoch, m.expires))
    }

    fn renew(&mut self, p: usize, fence: u64, now: SimTime) -> Option<SimTime> {
        let duration = self.duration;
        let m = &mut self.pilots[p];
        if !self.leases_on || now < m.cut_until {
            return None;
        }
        if m.held && m.epoch == fence {
            m.expires = now + duration;
            self.renewals += 1;
            return Some(m.expires);
        }
        self.stale_renewals += 1;
        None
    }

    fn revoke(&mut self, p: usize) {
        if self.leases_on {
            let m = &mut self.pilots[p];
            m.held = false;
            m.epoch += 1;
        }
    }

    fn partition(&mut self, p: usize, until: SimTime) {
        let m = &mut self.pilots[p];
        m.cut_until = m.cut_until.max(until);
    }
}

/// One `roundtrip_from` message and what became of it.
struct Msg {
    pilot: PilotId,
    fence: u64,
    /// The pilot's epoch had already moved past `fence` when it was sent.
    stale_at_send: bool,
    runs: u32,
}

/// Which fence an operation writes under.
#[derive(Clone, Copy, Debug)]
enum FenceKind {
    /// The pilot's fence as the store reports it right now.
    Current,
    /// A fence the pilot held before its epoch last moved (the
    /// never-granted fence if it has none yet).
    Superseded,
    /// The fence read before any grant.
    NeverGranted,
}

struct World {
    store: CoordinationStore,
    model: RefCell<Model>,
    /// Fences each pilot held before its epoch moved, oldest first.
    history: RefCell<Vec<Vec<Fence>>>,
    never_granted: Fence,
    msgs: RefCell<Vec<Msg>>,
    /// Pushed unit id → (pilot pushed to, deliveries seen).
    pushed: RefCell<BTreeMap<UnitId, (PilotId, u32)>>,
    label: String,
}

impl World {
    fn fence(&self, p: usize, kind: FenceKind, pick: usize) -> Fence {
        let current = self.store.lease_epoch(PilotId(p as u64));
        match kind {
            FenceKind::Current => current,
            FenceKind::NeverGranted => self.never_granted,
            FenceKind::Superseded => {
                let history = self.history.borrow();
                let old: Vec<Fence> = history[p]
                    .iter()
                    .copied()
                    .filter(|f| f.epoch() < current.epoch())
                    .collect();
                if old.is_empty() {
                    self.never_granted
                } else {
                    old[pick % old.len()]
                }
            }
        }
    }

    /// The live lease table must equal the model for every pilot.
    fn check_table(&self, what: &str, now: SimTime) {
        let model = self.model.borrow();
        for (i, m) in model.pilots.iter().enumerate() {
            let pilot = PilotId(i as u64);
            assert_eq!(
                self.store.lease_epoch(pilot).epoch(),
                m.epoch,
                "{}: {pilot:?} epoch after {what} at {now:?}",
                self.label
            );
            assert_eq!(
                self.store.lease_expiry(pilot),
                m.held.then_some(m.expires),
                "{}: {pilot:?} expiry after {what} at {now:?}",
                self.label
            );
        }
    }

    fn send(self: &Rc<Self>, eng: &mut Engine, p: usize, kind: FenceKind, pick: usize) {
        let pilot = PilotId(p as u64);
        let fence = self.fence(p, kind, pick);
        let epoch_now = self.store.lease_epoch(pilot).epoch();
        let id = {
            let mut msgs = self.msgs.borrow_mut();
            msgs.push(Msg {
                pilot,
                fence: fence.epoch(),
                stale_at_send: fence.epoch() < epoch_now,
                runs: 0,
            });
            msgs.len() - 1
        };
        let w = self.clone();
        self.store.roundtrip_from(eng, pilot, fence, move |eng| {
            let current = w.store.lease_epoch(pilot);
            assert_eq!(
                current,
                fence,
                "{}: message {id} ({kind:?} fence) applied at {:?} under a stale fence",
                w.label,
                eng.now()
            );
            let mut msgs = w.msgs.borrow_mut();
            msgs[id].runs += 1;
            assert_eq!(
                msgs[id].runs, 1,
                "{}: message {id} callback ran twice",
                w.label
            );
        });
    }

    fn acquire(&self, eng: &mut Engine, p: usize) {
        let pilot = PilotId(p as u64);
        let before = self.store.lease_epoch(pilot);
        let got = self.store.try_acquire_lease(eng, pilot);
        let want = self.model.borrow_mut().acquire(p, eng.now());
        assert_eq!(
            got.map(|(f, expires)| (f.epoch(), expires)),
            want,
            "{}: {pilot:?} grant at {:?}",
            self.label,
            eng.now()
        );
        if got.is_some() {
            self.history.borrow_mut()[p].push(before);
        }
        self.check_table("a grant", eng.now());
    }

    fn renew(&self, eng: &mut Engine, p: usize, kind: FenceKind, pick: usize) {
        let pilot = PilotId(p as u64);
        let fence = self.fence(p, kind, pick);
        let got = self.store.renew_lease(eng, pilot, fence);
        let want = self.model.borrow_mut().renew(p, fence.epoch(), eng.now());
        assert_eq!(
            got,
            want,
            "{}: {pilot:?} renewal under the {kind:?} fence (epoch {}) at {:?}",
            self.label,
            fence.epoch(),
            eng.now()
        );
        self.check_table("a renewal", eng.now());
    }

    fn revoke(&self, eng: &mut Engine, p: usize) {
        let pilot = PilotId(p as u64);
        let before = self.store.lease_epoch(pilot);
        let revoked = self.store.revoke_lease(eng, pilot);
        assert_eq!(revoked.pilot(), pilot);
        self.model.borrow_mut().revoke(p);
        self.history.borrow_mut()[p].push(before);
        self.check_table("a revoke", eng.now());
    }

    fn partition(&self, eng: &mut Engine, p: usize, duration: SimDuration, symmetric: bool) {
        let pilot = PilotId(p as u64);
        self.store.partition_pilot(eng, pilot, duration, symmetric);
        self.model.borrow_mut().partition(p, eng.now() + duration);
    }

    fn push(&self, eng: &mut Engine, p: usize, units: Vec<UnitHandle>) {
        let pilot = PilotId(p as u64);
        let mut pushed = self.pushed.borrow_mut();
        for u in &units {
            assert!(pushed.insert(u.id(), (pilot, 0)).is_none());
        }
        drop(pushed);
        self.store.push_units(eng, pilot, units);
    }
}

/// Unit handles to push. Units are minted only by a Unit-Manager, so a
/// throwaway session submits them on an engine that never runs; the
/// store under test never sees that session.
fn mint_units(n: usize) -> Vec<UnitHandle> {
    let mut e = Engine::new(0);
    let session = Session::new(SessionConfig::test_profile());
    let pm = PilotManager::new(&session);
    let pilot = pm
        .submit(
            &mut e,
            PilotDescription::new("localhost", 1, SimDuration::from_secs(60)),
        )
        .expect("pilot submits");
    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);
    let descrs = (0..n)
        .map(|i| {
            ComputeUnitDescription::new(
                format!("m{i}"),
                1,
                WorkSpec::Sleep(SimDuration::from_secs(1)),
            )
        })
        .collect();
    um.submit_units(&mut e, descrs)
}

fn draw_loss(rng: &mut SimRng, seed: u64) -> LossProfile {
    if rng.index(4) == 0 {
        return LossProfile::NONE;
    }
    LossProfile {
        drop_p: rng.uniform(0.0, 0.4),
        dup_p: rng.uniform(0.0, 0.3),
        delay_jitter_ms: rng.uniform(0.0, 80.0),
        seed,
    }
}

/// Totals across one seed, for the coverage check.
#[derive(Default)]
struct Tally {
    applied: u64,
    fenced: u64,
    epoch_moves: u64,
    stale_renewals: u64,
    duplicated: u64,
    dropped: u64,
    holds: u64,
    delivered_units: u64,
}

fn run_seed(seed: u64) -> Tally {
    let mut rng = SimRng::new(0x5703E ^ seed);
    let loss = draw_loss(&mut rng, seed);
    let leases_on = rng.index(8) != 0;
    let duration = SimDuration::from_millis(rng.uniform_u64(2_000, 30_000));
    let pilots = 1 + rng.index(3);
    let store = CoordinationStore::new(CoordinationConfig {
        loss,
        ..CoordinationConfig::default()
    });
    if leases_on {
        store.enable_leases(duration, |_, _, _, _| {});
    }
    let world = Rc::new(World {
        never_granted: store.lease_epoch(PilotId(0)),
        store,
        model: RefCell::new(Model {
            leases_on,
            duration,
            pilots: vec![PilotModel::default(); pilots],
            renewals: 0,
            stale_renewals: 0,
        }),
        history: RefCell::new(vec![Vec::new(); pilots]),
        msgs: RefCell::new(Vec::new()),
        pushed: RefCell::new(BTreeMap::new()),
        label: format!("seed {seed} ({pilots} pilots, leases {leases_on}, {loss:?})"),
    });
    let mut e = Engine::new(seed);
    // Each pilot's consumer registers at a drawn time, so some pushes
    // queue before any agent polls for them.
    for p in 0..pilots {
        let w = world.clone();
        let at = SimDuration::from_millis(rng.uniform_u64(0, 10_000));
        e.schedule_in(at, move |eng| {
            let pilot = PilotId(p as u64);
            let w2 = w.clone();
            w.store.register_agent(eng, pilot, move |_, batch| {
                let mut pushed = w2.pushed.borrow_mut();
                for u in batch {
                    let (to, seen) = pushed.get_mut(&u.id()).expect("a pushed unit");
                    assert_eq!(*to, pilot, "{}: unit delivered to another pilot", w2.label);
                    *seen += 1;
                }
            });
        });
    }
    let mut units = mint_units(3 * OPS).into_iter();
    let kinds = [
        FenceKind::Current,
        FenceKind::Superseded,
        FenceKind::NeverGranted,
    ];
    let mut at = 0u64;
    for _ in 0..OPS {
        at += rng.uniform_u64(0, 4_000);
        let delay = SimDuration::from_millis(at);
        let p = rng.index(pilots);
        let w = world.clone();
        match rng.index(11) {
            0..=2 => {
                let kind = kinds[rng.index(3)];
                let pick = rng.index(1 << 16);
                e.schedule_in(delay, move |eng| w.send(eng, p, kind, pick));
            }
            3 | 4 => {
                let batch: Vec<UnitHandle> = units.by_ref().take(1 + rng.index(3)).collect();
                e.schedule_in(delay, move |eng| w.push(eng, p, batch));
            }
            5 | 6 => {
                e.schedule_in(delay, move |eng| w.acquire(eng, p));
            }
            7 | 8 => {
                let kind = kinds[rng.index(3)];
                let pick = rng.index(1 << 16);
                e.schedule_in(delay, move |eng| w.renew(eng, p, kind, pick));
            }
            9 => {
                e.schedule_in(delay, move |eng| w.revoke(eng, p));
            }
            _ => {
                let duration = SimDuration::from_millis(rng.uniform_u64(500, 15_000));
                let symmetric = rng.chance(0.5);
                e.schedule_in(delay, move |eng| w.partition(eng, p, duration, symmetric));
            }
        }
    }
    e.run();

    let w = &world;
    let store = &w.store;
    let model = w.model.borrow();
    let msgs = w.msgs.borrow();
    for (id, m) in msgs.iter().enumerate() {
        let last = model.pilots[m.pilot.0 as usize].epoch;
        if m.fence == last {
            assert_eq!(
                m.runs, 1,
                "{}: message {id} under the still-current epoch {} never applied",
                w.label, m.fence
            );
        }
        if m.stale_at_send && model.leases_on {
            assert_eq!(
                m.runs, 0,
                "{}: message {id} sent under superseded epoch {} applied",
                w.label, m.fence
            );
        }
    }
    let applied = msgs.iter().filter(|m| m.runs == 1).count() as u64;
    let fenced = store.fence_rejections() - model.stale_renewals;
    assert_eq!(
        applied + fenced,
        msgs.len() as u64,
        "{}: applied ({applied}) + fenced ({fenced}) != sent",
        w.label
    );
    assert_eq!(store.lease_renewals(), model.renewals, "{}", w.label);
    let pushed = w.pushed.borrow();
    for (unit, (pilot, seen)) in pushed.iter() {
        assert_eq!(
            *seen, 1,
            "{}: {unit:?} pushed to {pilot:?} delivered {seen} times",
            w.label
        );
    }
    assert_eq!(
        store.dup_applies_ignored(),
        store.msgs_duplicated(),
        "{}: a duplicated delivery was applied",
        w.label
    );
    assert_eq!(store.dedup_backlog(), 0, "{}", w.label);
    if loss.is_lossless() {
        assert_eq!(store.msgs_dropped() + store.msgs_duplicated(), 0);
    }
    Tally {
        applied,
        fenced,
        epoch_moves: model.pilots.iter().map(|m| m.epoch).sum(),
        stale_renewals: model.stale_renewals,
        duplicated: store.msgs_duplicated(),
        dropped: store.msgs_dropped(),
        holds: store.partition_holds(),
        delivered_units: pushed.len() as u64,
    }
}

#[test]
fn store_matches_the_reference_model() {
    let mut total = Tally::default();
    for seed in 0..SEEDS {
        let t = run_seed(seed);
        total.applied += t.applied;
        total.fenced += t.fenced;
        total.epoch_moves += t.epoch_moves;
        total.stale_renewals += t.stale_renewals;
        total.duplicated += t.duplicated;
        total.dropped += t.dropped;
        total.holds += t.holds;
        total.delivered_units += t.delivered_units;
    }
    // The draws must reach every behaviour the model checks: applied and
    // fenced messages, lease moves and stale renewals, drops, duplicates,
    // partition holds and unit deliveries.
    for (what, n) in [
        ("applied messages", total.applied),
        ("fenced messages", total.fenced),
        ("epoch moves", total.epoch_moves),
        ("stale renewals", total.stale_renewals),
        ("duplicated deliveries", total.duplicated),
        ("dropped deliveries", total.dropped),
        ("partition holds", total.holds),
        ("delivered units", total.delivered_units),
    ] {
        assert!(n > 0, "no seed produced any {what}");
    }
}
