//! The coordination store — the paper's shared MongoDB instance.
//!
//! Unit-Managers queue Compute-Unit documents here (U.2); agents poll for
//! new documents (U.3) and push state updates back. The store models the
//! three latencies that matter: document write, agent poll cadence, and
//! state-update round trips. Poll events are armed only while documents
//! are pending, so an idle session drains the event queue.
//!
//! Delivery is **at-least-once**: with a lossy [`LossProfile`] a message
//! may be dropped (it is retransmitted after a poll interval), delayed, or
//! delivered twice. Every message carries a sequence number and receivers
//! ignore sequences they already applied, so the visible effect of each
//! logical message happens exactly once. With the default lossless
//! profile the store never touches its private RNG and the event schedule
//! is bit-identical to the ideal exactly-once store.
//!
//! Scaling: same-instant `push_units` calls for one pilot coalesce into a
//! single sequence-numbered envelope (one transport message, one delivery
//! event) before the write latency is paid — delivery times are unchanged,
//! but a 100k-unit submission burst no longer schedules 100k store events.
//! The receiver-side dedup state is watermark-compacted: a low-water mark
//! covers the dense prefix of applied sequences and only the (bounded,
//! transient) out-of-order tail is kept as a set, so dedup memory does not
//! grow with run length.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use rp_sim::{Engine, SimDuration, SimRng, SimTime};

use crate::unit::{PilotId, UnitHandle};

/// Message-loss model of the store's transport. All-zero (the default)
/// means exact delivery; the store's private RNG is then never consumed,
/// so enabling the fields later cannot perturb existing runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossProfile {
    /// Probability a delivery attempt is dropped. Dropped messages are
    /// retransmitted after one poll interval (at-least-once), except
    /// heartbeats, which are fire-and-forget.
    pub drop_p: f64,
    /// Probability a delivered message arrives twice (duplicate apply is
    /// suppressed by sequence-number dedup).
    pub dup_p: f64,
    /// Extra uniform delivery delay in `[0, delay_jitter_ms)` per copy.
    pub delay_jitter_ms: f64,
    /// Seed of the store's private RNG stream (kept apart from the
    /// engine's so traces without loss stay bit-identical).
    pub seed: u64,
}

impl LossProfile {
    pub const NONE: LossProfile = LossProfile {
        drop_p: 0.0,
        dup_p: 0.0,
        delay_jitter_ms: 0.0,
        seed: 0,
    };

    pub fn is_lossless(&self) -> bool {
        self.drop_p <= 0.0 && self.dup_p <= 0.0 && self.delay_jitter_ms <= 0.0
    }
}

impl Default for LossProfile {
    fn default() -> Self {
        LossProfile::NONE
    }
}

/// Latency model of the store.
#[derive(Debug, Clone)]
pub struct CoordinationConfig {
    /// Unit-Manager → store document write (ms).
    pub write_ms: f64,
    /// State-update round trip (agent → store → client visibility) (ms).
    pub update_ms: f64,
    /// Agent poll interval (ms). Pickup delay ≈ write + U(0, poll).
    pub poll_ms: u64,
    /// Transport loss model (lossless by default).
    pub loss: LossProfile,
}

impl Default for CoordinationConfig {
    fn default() -> Self {
        CoordinationConfig {
            write_ms: 60.0,
            update_ms: 60.0,
            poll_ms: 1_000,
            loss: LossProfile::NONE,
        }
    }
}

type BatchFn = Rc<dyn Fn(&mut Engine, Vec<UnitHandle>)>;

struct PilotQueue {
    pending: Vec<UnitHandle>,
    consumer: Option<AgentRegistration>,
}

struct AgentRegistration {
    on_batch: BatchFn,
    /// Poll phase anchor: polls land at `start + k·poll`.
    start: SimTime,
    poll_armed: bool,
}

type ClientFn = Rc<dyn Fn(&mut Engine, PilotId, Vec<UnitHandle>, &str)>;
type ApplyFn = Box<dyn FnOnce(&mut Engine)>;

/// A fencing token: the epoch of one pilot's lease as the store handed
/// it out. Only the store mints fences ([`CoordinationStore::try_acquire_lease`]
/// and [`CoordinationStore::lease_epoch`]), and every pilot-side write
/// carries one, so a write the store cannot fence does not compile.
///
/// An unfenced emission does not compile, because the store has no
/// public send without a fence:
///
/// ```compile_fail
/// use rp_pilot::{CoordinationConfig, CoordinationStore, PilotId};
/// let mut engine = rp_sim::Engine::new(1);
/// let store = CoordinationStore::new(CoordinationConfig::default());
/// let pilot = PilotId(0);
/// let fence = store.lease_epoch(pilot);
/// store.roundtrip(&mut engine, |_| {});
/// ```
///
/// ```no_run
/// use rp_pilot::{CoordinationConfig, CoordinationStore, PilotId};
/// let mut engine = rp_sim::Engine::new(1);
/// let store = CoordinationStore::new(CoordinationConfig::default());
/// let pilot = PilotId(0);
/// let fence = store.lease_epoch(pilot);
/// store.roundtrip_from(&mut engine, pilot, fence, |_| {});
/// ```
///
/// Nor does a forged fence, because the epoch field is private:
///
/// ```compile_fail
/// use rp_pilot::{CoordinationConfig, CoordinationStore, Fence, PilotId};
/// let mut engine = rp_sim::Engine::new(1);
/// let store = CoordinationStore::new(CoordinationConfig::default());
/// let pilot = PilotId(0);
/// let fence: Fence = store.lease_epoch(pilot);
/// store.roundtrip_from(&mut engine, pilot, Fence { epoch: 0 }, |_| {});
/// ```
///
/// ```no_run
/// use rp_pilot::{CoordinationConfig, CoordinationStore, Fence, PilotId};
/// let mut engine = rp_sim::Engine::new(1);
/// let store = CoordinationStore::new(CoordinationConfig::default());
/// let pilot = PilotId(0);
/// let fence: Fence = store.lease_epoch(pilot);
/// store.roundtrip_from(&mut engine, pilot, fence, |_| {});
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fence {
    epoch: u64,
}

impl Fence {
    /// The fencing epoch this token carries (0 before any grant).
    pub fn epoch(self) -> u64 {
        self.epoch
    }
}

/// Proof that `pilot`'s lease was revoked: only
/// [`CoordinationStore::revoke_lease`] returns one, so a caller that
/// needs it (the Unit-Manager's lease-loss path) cannot re-bind a
/// pilot's units before the epoch bump has fenced the old owner.
///
/// A revocation built outside the store does not compile:
///
/// ```compile_fail
/// use rp_pilot::{CoordinationConfig, CoordinationStore, PilotId, Revoked};
/// let mut engine = rp_sim::Engine::new(1);
/// let store = CoordinationStore::new(CoordinationConfig::default());
/// let pilot = PilotId(0);
/// let revoked: Revoked = Revoked { pilot };
/// ```
///
/// ```no_run
/// use rp_pilot::{CoordinationConfig, CoordinationStore, PilotId, Revoked};
/// let mut engine = rp_sim::Engine::new(1);
/// let store = CoordinationStore::new(CoordinationConfig::default());
/// let pilot = PilotId(0);
/// let revoked: Revoked = store.revoke_lease(&mut engine, pilot);
/// ```
#[derive(Debug)]
pub struct Revoked {
    pilot: PilotId,
}

impl Revoked {
    /// The pilot whose lease was revoked.
    pub fn pilot(&self) -> PilotId {
        self.pilot
    }
}

/// A topology-aware reachability window: until `until`, the pilot's
/// agent cannot reach the store (and, when `symmetric`, the store cannot
/// reach the agent either). Expiry is passive — windows are checked
/// against the current virtual time at each use, never via scheduled
/// events, so an expired window costs nothing and heals exactly on time.
#[derive(Debug, Clone, Copy)]
struct PartitionWindow {
    until: SimTime,
    symmetric: bool,
}

/// Per-pilot lease record. `epoch` is the fencing epoch: it increments
/// on every grant *and* every revoke, so a write stamped under an old
/// lease can never match the table again once ownership moved on.
#[derive(Debug, Clone, Copy, Default)]
struct LeaseState {
    epoch: u64,
    expires: SimTime,
    held: bool,
}

struct StoreInner {
    config: CoordinationConfig,
    queues: BTreeMap<PilotId, PilotQueue>,
    docs_written: u64,
    polls: u64,
    /// Private RNG of the lossy transport; `None` for lossless profiles
    /// (never constructed, never consumed).
    rng: Option<SimRng>,
    /// Sequence counter stamped on every message.
    next_seq: u64,
    /// All sequences `<= applied_watermark` have been applied.
    applied_watermark: u64,
    /// Applied sequences above the watermark (out-of-order arrivals only;
    /// compacted back into the watermark as the gap fills).
    applied_above: BTreeSet<u64>,
    /// Same-instant push staging: units accumulated for a pilot whose
    /// flush event is already scheduled at the current instant.
    staged_pushes: BTreeMap<PilotId, Vec<UnitHandle>>,
    /// The Unit-Manager-side client that accepts units an agent hands
    /// back (pilot loss, walltime draining); set with the lease duration.
    client: Option<ClientFn>,
    msgs_dropped: u64,
    msgs_duplicated: u64,
    dup_applies_ignored: u64,
    /// Active partition reachability windows per pilot.
    partitions: BTreeMap<PilotId, PartitionWindow>,
    /// Lease duration; `Some` iff lease-based ownership is enabled.
    lease_duration: Option<SimDuration>,
    /// Lease table keyed by pilot.
    leases: BTreeMap<PilotId, LeaseState>,
    partition_windows: u64,
    partition_holds: u64,
    lease_renewals: u64,
    fence_rejections: u64,
}

impl StoreInner {
    /// Receiver-side idempotency check: returns `true` the first time a
    /// sequence is seen, `false` on duplicates. Compacts the dense prefix
    /// into the watermark so dedup state stays bounded.
    fn mark_applied(&mut self, seq: u64) -> bool {
        if seq <= self.applied_watermark || !self.applied_above.insert(seq) {
            return false;
        }
        while self.applied_above.remove(&(self.applied_watermark + 1)) {
            self.applied_watermark += 1;
        }
        true
    }

    /// Whether the agent→store direction is cut for `pilot` at `now`
    /// (any active window, symmetric or not).
    fn blocked_out(&self, pilot: PilotId, now: SimTime) -> bool {
        self.partitions.get(&pilot).is_some_and(|w| now < w.until)
    }

    /// Whether the store→agent direction is cut for `pilot` at `now`
    /// (symmetric windows only — an asymmetric window leaves polls open).
    fn blocked_in(&self, pilot: PilotId, now: SimTime) -> bool {
        self.partitions
            .get(&pilot)
            .is_some_and(|w| w.symmetric && now < w.until)
    }

    /// The current fencing epoch of `pilot`'s lease (0 before any grant).
    fn current_epoch(&self, pilot: PilotId) -> u64 {
        self.leases.get(&pilot).map(|l| l.epoch).unwrap_or(0)
    }
}

/// Shared handle to the session's coordination store.
#[derive(Clone)]
pub struct CoordinationStore {
    inner: Rc<RefCell<StoreInner>>,
}

impl CoordinationStore {
    pub fn new(config: CoordinationConfig) -> CoordinationStore {
        let rng = if config.loss.is_lossless() {
            None
        } else {
            Some(SimRng::new(config.loss.seed ^ 0xC0_u64.rotate_left(56)))
        };
        CoordinationStore {
            inner: Rc::new(RefCell::new(StoreInner {
                config,
                queues: BTreeMap::new(),
                docs_written: 0,
                polls: 0,
                rng,
                next_seq: 0,
                applied_watermark: 0,
                applied_above: BTreeSet::new(),
                staged_pushes: BTreeMap::new(),
                client: None,
                msgs_dropped: 0,
                msgs_duplicated: 0,
                dup_applies_ignored: 0,
                partitions: BTreeMap::new(),
                lease_duration: None,
                leases: BTreeMap::new(),
                partition_windows: 0,
                partition_holds: 0,
                lease_renewals: 0,
                fence_rejections: 0,
            })),
        }
    }

    pub fn config(&self) -> CoordinationConfig {
        self.inner.borrow().config.clone()
    }

    /// Documents written so far (metrics).
    pub fn docs_written(&self) -> u64 {
        self.inner.borrow().docs_written
    }

    /// Poll round trips performed so far (metrics).
    pub fn polls(&self) -> u64 {
        self.inner.borrow().polls
    }

    /// Messages the lossy transport dropped (each was retransmitted).
    pub fn msgs_dropped(&self) -> u64 {
        self.inner.borrow().msgs_dropped
    }

    /// Messages the lossy transport delivered twice.
    pub fn msgs_duplicated(&self) -> u64 {
        self.inner.borrow().msgs_duplicated
    }

    /// Duplicate applies suppressed by sequence-number dedup.
    pub fn dup_applies_ignored(&self) -> u64 {
        self.inner.borrow().dup_applies_ignored
    }

    /// Out-of-order dedup entries currently held above the applied
    /// watermark. Bounded by in-flight reordering, not run length — the
    /// scale gate asserts it returns to zero at quiescence.
    pub fn dedup_backlog(&self) -> usize {
        self.inner.borrow().applied_above.len()
    }

    /// Stamp a fresh sequence number and hand the message to the
    /// transport. `apply` runs exactly once even though the transport may
    /// drop (→ retransmit after a poll interval) or duplicate deliveries.
    fn send(
        &self,
        engine: &mut Engine,
        latency: SimDuration,
        label: &'static str,
        apply: impl FnOnce(&mut Engine) + 'static,
    ) {
        self.send_from(engine, None, latency, label, apply);
    }

    /// [`CoordinationStore::send`] with a message origin: the sending
    /// pilot (partition windows hold the message until heal) and its
    /// fence (a stale epoch at apply time rejects the effect).
    fn send_from(
        &self,
        engine: &mut Engine,
        origin: Option<(PilotId, Fence)>,
        latency: SimDuration,
        label: &'static str,
        apply: impl FnOnce(&mut Engine) + 'static,
    ) {
        let seq = {
            let mut inner = self.inner.borrow_mut();
            inner.next_seq += 1;
            inner.next_seq
        };
        let apply: Rc<RefCell<Option<ApplyFn>>> = Rc::new(RefCell::new(Some(Box::new(apply))));
        self.transmit(engine, seq, origin, latency, label, apply);
    }

    /// One delivery attempt of message `seq` (re-entered on retransmit).
    fn transmit(
        &self,
        engine: &mut Engine,
        seq: u64,
        origin: Option<(PilotId, Fence)>,
        latency: SimDuration,
        label: &'static str,
        apply: Rc<RefCell<Option<ApplyFn>>>,
    ) {
        // Partition windows are checked before any RNG draw: a held
        // message consumes no randomness, so a partition-free run's RNG
        // stream is bit-identical to one without partition plumbing.
        if let Some((pilot, _)) = origin {
            let (held, retry_after) = {
                let inner = self.inner.borrow();
                let poll = SimDuration(inner.config.poll_ms * 1_000);
                match inner.partitions.get(&pilot) {
                    // Retry at the heal, not on a poll-interval spin: the
                    // window end is known, and the window is half-open
                    // (healed exactly at `until`). A later overlapping
                    // partition just holds the message once more.
                    Some(w) if engine.now() < w.until => {
                        (true, w.until.since(engine.now()).max(poll))
                    }
                    _ => (false, poll),
                }
            };
            if held {
                self.inner.borrow_mut().partition_holds += 1;
                engine.metrics.incr("coordination.partition_holds");
                if engine.trace.is_enabled() {
                    engine.trace.record(
                        engine.now(),
                        "store",
                        format!("{label} #{seq} held by partition; retry in {retry_after}"),
                    );
                }
                let this = self.clone();
                engine.schedule_in(latency + retry_after, move |eng| {
                    this.transmit(eng, seq, origin, latency, label, apply);
                });
                return;
            }
        }
        let (dropped, duplicated, retry_after) = {
            let mut inner = self.inner.borrow_mut();
            let loss = inner.config.loss;
            let poll = SimDuration(inner.config.poll_ms * 1_000);
            match inner.rng.as_mut() {
                None => (false, false, poll),
                Some(rng) => (rng.chance(loss.drop_p), rng.chance(loss.dup_p), poll),
            }
        };
        if dropped {
            self.inner.borrow_mut().msgs_dropped += 1;
            engine.metrics.incr("coordination.msgs_dropped");
            if engine.trace.is_enabled() {
                engine.trace.record(
                    engine.now(),
                    "store",
                    format!("{label} #{seq} dropped; retransmit in {retry_after}"),
                );
            }
            let this = self.clone();
            engine.schedule_in(latency + retry_after, move |eng| {
                this.transmit(eng, seq, origin, latency, label, apply);
            });
            return;
        }
        let copies = if duplicated {
            self.inner.borrow_mut().msgs_duplicated += 1;
            engine.metrics.incr("coordination.msgs_duplicated");
            if engine.trace.is_enabled() {
                engine.trace.record(
                    engine.now(),
                    "store",
                    format!("{label} #{seq} duplicated in flight"),
                );
            }
            2
        } else {
            1
        };
        for _ in 0..copies {
            let jitter = {
                let mut inner = self.inner.borrow_mut();
                let jitter_ms = inner.config.loss.delay_jitter_ms;
                match inner.rng.as_mut() {
                    Some(rng) if jitter_ms > 0.0 => {
                        SimDuration::from_secs_f64(rng.uniform(0.0, jitter_ms) / 1e3)
                    }
                    _ => SimDuration(0),
                }
            };
            let this = self.clone();
            let apply = apply.clone();
            engine.schedule_in(latency + jitter, move |eng| {
                if !this.inner.borrow_mut().mark_applied(seq) {
                    this.inner.borrow_mut().dup_applies_ignored += 1;
                    eng.metrics.incr("coordination.dup_applies_ignored");
                    return;
                }
                // Fencing: a message stamped under an epoch the lease
                // table has moved past is a zombie's write — reject it
                // (its callback never runs). The sequence was
                // still marked applied above, so a duplicate of a
                // rejected message counts as a dup, not a second
                // rejection.
                if let Some((pilot, fence)) = origin {
                    let stale = {
                        let inner = this.inner.borrow();
                        inner.lease_duration.is_some() && inner.current_epoch(pilot) != fence.epoch
                    };
                    if stale {
                        this.inner.borrow_mut().fence_rejections += 1;
                        eng.metrics.incr("coordination.fence_rejections");
                        eng.trace.record(
                            eng.now(),
                            "store",
                            format!(
                                "{label} #{seq} rejected: stale fencing epoch {}",
                                fence.epoch
                            ),
                        );
                        return;
                    }
                }
                if let Some(f) = apply.borrow_mut().take() {
                    f(eng);
                }
            });
        }
    }

    /// Queue unit documents for a pilot (U.2). The write latency is paid
    /// before the documents become visible to the agent's polls.
    ///
    /// Same-instant calls for one pilot coalesce into a single envelope:
    /// the first call stages the units and schedules a flush at the
    /// current instant; later calls in the same instant append to the
    /// stage. One sequence number, one write, one delivery event — the
    /// delivery time is identical to sending each call separately.
    pub fn push_units(&self, engine: &mut Engine, pilot: PilotId, units: Vec<UnitHandle>) {
        if units.is_empty() {
            return;
        }
        let flush_needed = {
            let mut inner = self.inner.borrow_mut();
            match inner.staged_pushes.get_mut(&pilot) {
                Some(staged) => {
                    staged.extend(units);
                    false
                }
                None => {
                    inner.staged_pushes.insert(pilot, units);
                    true
                }
            }
        };
        if !flush_needed {
            return;
        }
        let this = self.clone();
        engine.schedule_now(move |eng| {
            let staged = this
                .inner
                .borrow_mut()
                .staged_pushes
                .remove(&pilot)
                .unwrap_or_default();
            this.flush_push(eng, pilot, staged);
        });
    }

    /// Send one coalesced `push_units` envelope.
    fn flush_push(&self, engine: &mut Engine, pilot: PilotId, units: Vec<UnitHandle>) {
        if units.is_empty() {
            return;
        }
        let write = SimDuration::from_secs_f64(self.inner.borrow().config.write_ms / 1e3);
        let this = self.clone();
        self.send(engine, write, "push_units", move |eng| {
            {
                let mut inner = this.inner.borrow_mut();
                inner.docs_written += units.len() as u64;
                eng.metrics
                    .add("coordination.docs_written", units.len() as u64);
                inner
                    .queues
                    .entry(pilot)
                    .or_insert_with(|| PilotQueue {
                        pending: Vec::new(),
                        consumer: None,
                    })
                    .pending
                    .extend(units);
            }
            this.arm_poll(eng, pilot);
        });
    }

    /// Agent-side registration (on pilot activation): `on_batch` runs at
    /// each poll that finds documents.
    pub fn register_agent(
        &self,
        engine: &mut Engine,
        pilot: PilotId,
        on_batch: impl Fn(&mut Engine, Vec<UnitHandle>) + 'static,
    ) {
        {
            let mut inner = self.inner.borrow_mut();
            let q = inner.queues.entry(pilot).or_insert_with(|| PilotQueue {
                pending: Vec::new(),
                consumer: None,
            });
            assert!(q.consumer.is_none(), "agent registered twice for {pilot:?}");
            q.consumer = Some(AgentRegistration {
                on_batch: Rc::new(on_batch),
                start: engine.now(),
                poll_armed: false,
            });
        }
        self.arm_poll(engine, pilot);
    }

    /// Agent deregistration (pilot teardown). Pending documents stay queued
    /// (a Unit-Manager may re-schedule them elsewhere).
    pub fn deregister_agent(&self, pilot: PilotId) {
        if let Some(q) = self.inner.borrow_mut().queues.get_mut(&pilot) {
            q.consumer = None;
        }
    }

    /// Drain documents that were never picked up (used on pilot teardown).
    pub fn take_pending(&self, pilot: PilotId) -> Vec<UnitHandle> {
        self.inner
            .borrow_mut()
            .queues
            .get_mut(&pilot)
            .map(|q| std::mem::take(&mut q.pending))
            .unwrap_or_default()
    }

    /// Pay the state-update round trip, then run `cb` (client
    /// visibility). The update is stamped with the sending pilot and its
    /// fence: it is held while the pilot is partitioned and rejected at
    /// apply time if the fence went stale (agents route their completion
    /// updates through this).
    pub fn roundtrip_from(
        &self,
        engine: &mut Engine,
        pilot: PilotId,
        fence: Fence,
        cb: impl FnOnce(&mut Engine) + 'static,
    ) {
        let update = SimDuration::from_secs_f64(self.inner.borrow().config.update_ms / 1e3);
        self.send_from(engine, Some((pilot, fence)), update, "update", cb);
    }

    /// Agent → Unit-Manager: report units this pilot can no longer run
    /// (walltime drain) or finish (pilot death), stamped with the
    /// sending pilot's fence (held by partitions, fenced when stale).
    /// Travels the lossy transport like any state update; the receiving
    /// Unit-Manager's re-bind is idempotent, so duplicates and stale
    /// arrivals are safe.
    pub fn return_units_from(
        &self,
        engine: &mut Engine,
        pilot: PilotId,
        fence: Fence,
        units: Vec<UnitHandle>,
        cause: impl Into<String>,
    ) {
        if units.is_empty() {
            return;
        }
        let update = SimDuration::from_secs_f64(self.inner.borrow().config.update_ms / 1e3);
        let cause = cause.into();
        let this = self.clone();
        engine
            .metrics
            .add("coordination.units_returned", units.len() as u64);
        let origin = Some((pilot, fence));
        self.send_from(engine, origin, update, "return_units", move |eng| {
            let client = this.inner.borrow().client.clone();
            if let Some(cb) = client {
                cb(eng, pilot, units, &cause);
            }
        });
    }

    /// Send an agent heartbeat. Heartbeats are fire-and-forget and
    /// nothing records them: liveness is the lease, renewed on the same
    /// tick. A partition window swallows the beat before any RNG draw.
    pub fn report_heartbeat(&self, engine: &mut Engine, pilot: PilotId) {
        let now = engine.now();
        let mut inner = self.inner.borrow_mut();
        if inner.blocked_out(pilot, now) {
            return;
        }
        // The beat's loss and jitter draws are taken although nothing
        // uses them: each advances the lossy transport's RNG, which
        // decides every later message's fate, so lossy runs (and the
        // benchmark fingerprints) depend on them.
        let loss = inner.config.loss;
        if let Some(rng) = inner.rng.as_mut() {
            let dropped = loss.drop_p > 0.0 && rng.chance(loss.drop_p);
            if !dropped && loss.delay_jitter_ms > 0.0 {
                rng.uniform(0.0, loss.delay_jitter_ms);
            }
        }
    }

    // ---- partitions ----

    /// Open (or extend) a partition reachability window against `pilot`:
    /// until `duration` elapses, the pilot's agent cannot reach the store
    /// — heartbeats vanish, lease operations fail, and fenced messages
    /// are held for retransmit after heal. When `symmetric`, the store's
    /// polls to the agent are cut too; otherwise the agent keeps
    /// receiving batches while its own writes are silenced (the richest
    /// split-brain: a zombie that keeps taking work). A window opened
    /// while another is live merges with it conservatively (latest heal
    /// time, symmetric if either was); one opened after the earlier
    /// window healed replaces it.
    pub fn partition_pilot(
        &self,
        engine: &mut Engine,
        pilot: PilotId,
        duration: SimDuration,
        symmetric: bool,
    ) {
        let now = engine.now();
        let until = now + duration;
        {
            let mut inner = self.inner.borrow_mut();
            let window = PartitionWindow { until, symmetric };
            let w = inner.partitions.entry(pilot).or_insert(window);
            if now >= w.until {
                // The earlier window has healed: this one replaces it.
                *w = window;
            } else {
                w.until = w.until.max(until);
                w.symmetric |= symmetric;
            }
            inner.partition_windows += 1;
        }
        engine.metrics.incr("coordination.partition_windows");
        let kind = if symmetric { "symmetric" } else { "asymmetric" };
        engine.trace.record(
            now,
            "store",
            format!("{pilot:?} partitioned ({kind}) until {until:?}"),
        );
    }

    /// Partition windows opened so far.
    pub fn partition_windows(&self) -> u64 {
        self.inner.borrow().partition_windows
    }

    /// Messages held (and re-queued) by partition windows so far.
    pub fn partition_holds(&self) -> u64 {
        self.inner.borrow().partition_holds
    }

    // ---- leases & fencing ----

    /// Turn on lease-based ownership and register the Unit-Manager-side
    /// client that accepts units an agent hands back (pilot loss,
    /// walltime draining). Grants and renewals last `duration`, and every
    /// fenced message is checked against the lease table's fencing epoch
    /// at apply time. Off by default: lease-free sessions carry no lease
    /// state, never reject anything, and their agents cancel queued units
    /// on teardown instead of returning them.
    pub fn enable_leases(
        &self,
        duration: SimDuration,
        on_returned: impl Fn(&mut Engine, PilotId, Vec<UnitHandle>, &str) + 'static,
    ) {
        let mut inner = self.inner.borrow_mut();
        inner.lease_duration = Some(duration);
        inner.client = Some(Rc::new(on_returned));
    }

    /// Whether lease-based ownership (and with it unit return) is on.
    pub fn leases_enabled(&self) -> bool {
        self.inner.borrow().lease_duration.is_some()
    }

    /// The configured lease duration, if leases are enabled.
    pub fn lease_duration(&self) -> Option<SimDuration> {
        self.inner.borrow().lease_duration
    }

    /// Try to acquire the ownership lease for `pilot`. Fails (`None`)
    /// when leases are disabled, the pilot is partitioned from the store,
    /// or an unexpired lease is still held — the two-owner invariant is
    /// enforced right here. On success the fencing epoch increments and
    /// the new `(fence, expires)` pair is returned.
    pub fn try_acquire_lease(
        &self,
        engine: &mut Engine,
        pilot: PilotId,
    ) -> Option<(Fence, SimTime)> {
        let now = engine.now();
        let granted = {
            let mut inner = self.inner.borrow_mut();
            let duration = inner.lease_duration?;
            if inner.blocked_out(pilot, now) {
                return None;
            }
            let lease = inner.leases.entry(pilot).or_default();
            if lease.held && now < lease.expires {
                return None;
            }
            lease.epoch += 1;
            lease.expires = now + duration;
            lease.held = true;
            (Fence { epoch: lease.epoch }, lease.expires)
        };
        engine.metrics.incr("coordination.lease_grants");
        engine.trace.record(
            now,
            "store",
            format!(
                "{pilot:?} lease granted (epoch {}, expires {:?})",
                granted.0.epoch, granted.1
            ),
        );
        Some(granted)
    }

    /// Renew `pilot`'s lease under `fence`. Fails (`None`) when leases
    /// are disabled, the pilot is partitioned (the renewal — or its ack —
    /// cannot cross the cut), or the fence is stale (which also counts as
    /// a fence rejection: the zombie tried to write). On success returns
    /// the new expiry.
    pub fn renew_lease(
        &self,
        engine: &mut Engine,
        pilot: PilotId,
        fence: Fence,
    ) -> Option<SimTime> {
        let now = engine.now();
        let stale = {
            let mut inner = self.inner.borrow_mut();
            let duration = inner.lease_duration?;
            if inner.blocked_out(pilot, now) {
                return None;
            }
            let lease = inner.leases.entry(pilot).or_default();
            if lease.held && lease.epoch == fence.epoch {
                lease.expires = now + duration;
                let expires = lease.expires;
                inner.lease_renewals += 1;
                drop(inner);
                engine.metrics.incr("coordination.lease_renewals");
                return Some(expires);
            }
            inner.fence_rejections += 1;
            true
        };
        if stale {
            engine.metrics.incr("coordination.fence_rejections");
            engine.trace.record(
                now,
                "store",
                format!(
                    "{pilot:?} lease renewal rejected: stale epoch {}",
                    fence.epoch
                ),
            );
        }
        None
    }

    /// Revoke `pilot`'s lease (the Unit-Manager calls this at expiry +
    /// grace, before re-binding). Bumps the fencing epoch so every
    /// message still stamped with the old lease is rejected on arrival,
    /// no matter when the partition heals. The returned proof is what
    /// the Unit-Manager's lease-loss path takes; with leases off there is
    /// no lease to revoke and the proof is vacuous.
    pub fn revoke_lease(&self, engine: &mut Engine, pilot: PilotId) -> Revoked {
        let now = engine.now();
        {
            let mut inner = self.inner.borrow_mut();
            if inner.lease_duration.is_none() {
                return Revoked { pilot };
            }
            let lease = inner.leases.entry(pilot).or_default();
            lease.held = false;
            lease.epoch += 1;
        }
        engine.metrics.incr("coordination.lease_revocations");
        engine
            .trace
            .record(now, "store", format!("{pilot:?} lease revoked"));
        Revoked { pilot }
    }

    /// The fence of `pilot`'s current lease epoch (epoch 0 before any
    /// grant, which is the fence a lease-free agent writes under).
    pub fn lease_epoch(&self, pilot: PilotId) -> Fence {
        Fence {
            epoch: self.inner.borrow().current_epoch(pilot),
        }
    }

    /// When `pilot`'s currently-held lease expires, if one is held.
    pub fn lease_expiry(&self, pilot: PilotId) -> Option<SimTime> {
        self.inner
            .borrow()
            .leases
            .get(&pilot)
            .filter(|l| l.held)
            .map(|l| l.expires)
    }

    /// Lease renewals performed so far.
    pub fn lease_renewals(&self) -> u64 {
        self.inner.borrow().lease_renewals
    }

    /// Stale-epoch effects rejected so far (fenced messages and stale
    /// renewals).
    pub fn fence_rejections(&self) -> u64 {
        self.inner.borrow().fence_rejections
    }

    /// Arm the next poll for `pilot` if documents are pending, a consumer
    /// exists, and no poll is already armed.
    fn arm_poll(&self, engine: &mut Engine, pilot: PilotId) {
        let next_at = {
            let mut inner = self.inner.borrow_mut();
            let poll_us = inner.config.poll_ms * 1_000;
            let q = match inner.queues.get_mut(&pilot) {
                Some(q) => q,
                None => return,
            };
            if q.pending.is_empty() {
                return;
            }
            let reg = match q.consumer.as_mut() {
                Some(r) => r,
                None => return,
            };
            if reg.poll_armed {
                return;
            }
            reg.poll_armed = true;
            let elapsed = engine.now().since(reg.start).0;
            let k = elapsed / poll_us + 1;
            reg.start + SimDuration(k * poll_us)
        };
        let this = self.clone();
        engine.schedule_at(next_at, move |eng| {
            let (batch, cb) = {
                let mut inner = this.inner.borrow_mut();
                inner.polls += 1;
                eng.metrics.incr("coordination.polls");
                // A symmetric partition cuts the store→agent direction:
                // the poll fires but delivers nothing; re-arming below
                // retries every poll interval until the window heals.
                let blocked = inner.blocked_in(pilot, eng.now());
                let q = match inner.queues.get_mut(&pilot) {
                    Some(q) => q,
                    None => return,
                };
                let reg = match q.consumer.as_mut() {
                    Some(r) => r,
                    None => return, // agent went away while poll in flight
                };
                reg.poll_armed = false;
                if blocked {
                    (Vec::new(), reg.on_batch.clone())
                } else {
                    (std::mem::take(&mut q.pending), reg.on_batch.clone())
                }
            };
            if !batch.is_empty() {
                cb(eng, batch);
            }
            // More documents may have arrived while the batch processed.
            this.arm_poll(eng, pilot);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::description::{ComputeUnitDescription, WorkSpec};
    use crate::unit::UnitId;

    fn unit(id: u64) -> UnitHandle {
        UnitHandle::new(
            UnitId(id),
            ComputeUnitDescription::new("u", 1, WorkSpec::Sleep(SimDuration::from_secs(1))),
        )
    }

    fn store() -> CoordinationStore {
        CoordinationStore::new(CoordinationConfig::default())
    }

    #[test]
    fn units_delivered_after_write_and_poll() {
        let mut e = Engine::new(1);
        let s = store();
        let got: Rc<RefCell<Vec<(SimTime, usize)>>> = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        s.register_agent(&mut e, PilotId(0), move |eng, batch| {
            g.borrow_mut().push((eng.now(), batch.len()));
        });
        s.push_units(&mut e, PilotId(0), vec![unit(0), unit(1)]);
        e.run();
        let got = got.borrow();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, 2);
        // write 60 ms → first poll boundary at 1.0 s.
        assert_eq!(got[0].0, SimTime::from_secs_f64(1.0));
        assert_eq!(s.docs_written(), 2);
        assert!(s.polls() >= 1);
    }

    #[test]
    fn docs_queue_until_agent_registers() {
        let mut e = Engine::new(1);
        let s = store();
        s.push_units(&mut e, PilotId(7), vec![unit(0)]);
        e.run();
        let got = Rc::new(RefCell::new(0usize));
        let g = got.clone();
        s.register_agent(&mut e, PilotId(7), move |_, batch| {
            *g.borrow_mut() += batch.len();
        });
        e.run();
        assert_eq!(*got.borrow(), 1);
    }

    #[test]
    fn batches_coalesce_within_a_poll() {
        let mut e = Engine::new(1);
        let s = store();
        let batches = Rc::new(RefCell::new(Vec::new()));
        let b = batches.clone();
        s.register_agent(&mut e, PilotId(0), move |_, batch| {
            b.borrow_mut().push(batch.len());
        });
        // Three pushes well inside one poll window.
        for i in 0..3 {
            s.push_units(&mut e, PilotId(0), vec![unit(i)]);
        }
        e.run();
        assert_eq!(*batches.borrow(), vec![3]);
    }

    #[test]
    fn deregistered_agent_receives_nothing() {
        let mut e = Engine::new(1);
        let s = store();
        let got = Rc::new(RefCell::new(0usize));
        let g = got.clone();
        s.register_agent(&mut e, PilotId(0), move |_, batch| {
            *g.borrow_mut() += batch.len();
        });
        s.deregister_agent(PilotId(0));
        s.push_units(&mut e, PilotId(0), vec![unit(0)]);
        e.run();
        assert_eq!(*got.borrow(), 0);
        assert_eq!(s.take_pending(PilotId(0)).len(), 1);
    }

    #[test]
    fn roundtrip_pays_update_latency() {
        let mut e = Engine::new(1);
        let s = store();
        let at = Rc::new(RefCell::new(SimTime::ZERO));
        let a = at.clone();
        let fence = s.lease_epoch(PilotId(0));
        s.roundtrip_from(&mut e, PilotId(0), fence, move |eng| {
            *a.borrow_mut() = eng.now()
        });
        e.run();
        assert_eq!(*at.borrow(), SimTime::from_secs_f64(0.06));
    }

    #[test]
    fn empty_push_is_noop() {
        let mut e = Engine::new(1);
        let s = store();
        s.push_units(&mut e, PilotId(0), vec![]);
        e.run();
        assert_eq!(s.docs_written(), 0);
    }

    fn lossy_store(drop_p: f64, dup_p: f64, seed: u64) -> CoordinationStore {
        CoordinationStore::new(CoordinationConfig {
            loss: LossProfile {
                drop_p,
                dup_p,
                delay_jitter_ms: 20.0,
                seed,
            },
            ..CoordinationConfig::default()
        })
    }

    #[test]
    fn dropped_messages_are_retransmitted_until_delivered() {
        let mut e = Engine::new(1);
        let s = lossy_store(0.7, 0.0, 9);
        let got = Rc::new(RefCell::new(0usize));
        let g = got.clone();
        s.register_agent(&mut e, PilotId(0), move |_, batch| {
            *g.borrow_mut() += batch.len();
        });
        for i in 0..20 {
            s.push_units(&mut e, PilotId(0), vec![unit(i)]);
        }
        e.run();
        // At-least-once: every push eventually lands despite 70% drops.
        assert_eq!(*got.borrow(), 20);
        assert!(s.msgs_dropped() > 0, "with p=0.7 some of 20 writes drop");
    }

    #[test]
    fn duplicated_deliveries_apply_once() {
        let mut e = Engine::new(1);
        let s = lossy_store(0.0, 1.0, 3);
        let applies = Rc::new(RefCell::new(0usize));
        let fence = s.lease_epoch(PilotId(0));
        for _ in 0..5 {
            let a = applies.clone();
            s.roundtrip_from(&mut e, PilotId(0), fence, move |_| *a.borrow_mut() += 1);
        }
        e.run();
        assert_eq!(*applies.borrow(), 5, "dup deliveries must not re-apply");
        assert_eq!(s.msgs_duplicated(), 5);
        assert_eq!(s.dup_applies_ignored(), 5);
    }

    #[test]
    fn lossless_store_schedule_is_unchanged_by_loss_plumbing() {
        // Same seed, one store lossless, one with all-zero loss profile
        // explicitly: delivery times must be identical to the legacy
        // exactly-once behavior (write 60 ms → poll boundary at 1 s).
        let mut e = Engine::new(1);
        let s = store();
        let at = Rc::new(RefCell::new(SimTime::ZERO));
        let a = at.clone();
        s.register_agent(&mut e, PilotId(0), move |eng, _| {
            *a.borrow_mut() = eng.now();
        });
        s.push_units(&mut e, PilotId(0), vec![unit(0)]);
        e.run();
        assert_eq!(*at.borrow(), SimTime::from_secs_f64(1.0));
        assert_eq!(s.msgs_dropped(), 0);
        assert_eq!(s.msgs_duplicated(), 0);
    }

    #[test]
    fn returned_units_reach_registered_client() {
        let mut e = Engine::new(1);
        let s = store();
        assert!(!s.leases_enabled());
        let got: Rc<RefCell<Vec<(PilotId, usize, String)>>> = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        s.enable_leases(SimDuration::from_secs(60), move |_, pilot, units, cause| {
            g.borrow_mut().push((pilot, units.len(), cause.to_string()));
        });
        assert!(s.leases_enabled());
        let fence = s.lease_epoch(PilotId(3));
        s.return_units_from(
            &mut e,
            PilotId(3),
            fence,
            vec![unit(0), unit(1)],
            "walltime",
        );
        // Empty returns are no-ops.
        s.return_units_from(&mut e, PilotId(3), fence, vec![], "walltime");
        e.run();
        let got = got.borrow();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0], (PilotId(3), 2, "walltime".to_string()));
    }

    #[test]
    fn partition_holds_fenced_messages_until_heal() {
        let mut e = Engine::new(1);
        let s = store();
        s.partition_pilot(&mut e, PilotId(0), SimDuration::from_secs(5), false);
        assert!(s.inner.borrow().blocked_out(PilotId(0), e.now()));
        assert_eq!(s.partition_windows(), 1);
        // A fenced update is held until the window heals, then applies
        // exactly once.
        let applies: Rc<RefCell<Vec<SimTime>>> = Rc::new(RefCell::new(Vec::new()));
        let a = applies.clone();
        let fence = s.lease_epoch(PilotId(0));
        s.roundtrip_from(&mut e, PilotId(0), fence, move |eng| {
            a.borrow_mut().push(eng.now());
        });
        // An unfenced message (no origin) is unaffected by the window.
        let free_at = Rc::new(RefCell::new(SimTime::ZERO));
        let f = free_at.clone();
        s.send(&mut e, SimDuration::from_millis(60), "update", move |eng| {
            *f.borrow_mut() = eng.now()
        });
        e.run();
        assert_eq!(*free_at.borrow(), SimTime::from_secs_f64(0.06));
        let applies = applies.borrow();
        assert_eq!(applies.len(), 1, "held message applies exactly once");
        assert!(
            applies[0] >= SimTime::from_secs_f64(5.0),
            "held until heal, applied at {:?}",
            applies[0]
        );
        assert!(s.partition_holds() > 0);
        // After heal the window is inert.
        assert!(!s.inner.borrow().blocked_out(PilotId(0), e.now()));
    }

    #[test]
    fn symmetric_partition_blocks_polls_until_heal() {
        let mut e = Engine::new(1);
        let s = store();
        let got: Rc<RefCell<Vec<SimTime>>> = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        s.register_agent(&mut e, PilotId(0), move |eng, batch| {
            g.borrow_mut().push(eng.now());
            assert_eq!(batch.len(), 1);
        });
        s.partition_pilot(&mut e, PilotId(0), SimDuration::from_secs(4), true);
        s.push_units(&mut e, PilotId(0), vec![unit(0)]);
        e.run();
        let got = got.borrow();
        assert_eq!(got.len(), 1);
        // Without the partition the batch lands at the 1 s poll boundary;
        // the symmetric window defers it to the first boundary at/after
        // the heal instant (the window is half-open: healed at t=4).
        assert_eq!(got[0], SimTime::from_secs_f64(4.0));
    }

    #[test]
    fn asymmetric_partition_still_delivers_polls() {
        let mut e = Engine::new(1);
        let s = store();
        let got: Rc<RefCell<Vec<SimTime>>> = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        s.register_agent(&mut e, PilotId(0), move |eng, _| {
            g.borrow_mut().push(eng.now());
        });
        s.partition_pilot(&mut e, PilotId(0), SimDuration::from_secs(4), false);
        s.push_units(&mut e, PilotId(0), vec![unit(0)]);
        e.run();
        assert_eq!(*got.borrow(), vec![SimTime::from_secs_f64(1.0)]);
    }

    #[test]
    fn healed_symmetric_window_does_not_cut_a_later_asymmetric_one() {
        let mut e = Engine::new(1);
        let s = store();
        let got: Rc<RefCell<Vec<SimTime>>> = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        s.register_agent(&mut e, PilotId(0), move |eng, _| {
            g.borrow_mut().push(eng.now());
        });
        s.partition_pilot(&mut e, PilotId(0), SimDuration::from_secs(1), true);
        let s2 = s.clone();
        e.schedule_at(SimTime::from_secs_f64(10.0), move |eng| {
            s2.partition_pilot(eng, PilotId(0), SimDuration::from_secs(4), false);
            s2.push_units(eng, PilotId(0), vec![unit(0)]);
        });
        e.run();
        // The symmetric window healed at t=1, so the asymmetric one
        // leaves polls open: the push lands at the next boundary, not at
        // the asymmetric heal (t=14).
        assert_eq!(*got.borrow(), vec![SimTime::from_secs_f64(11.0)]);
        assert_eq!(s.partition_windows(), 2);
    }

    #[test]
    fn lease_grant_renew_revoke_and_two_owner_refusal() {
        let mut e = Engine::new(1);
        let s = store();
        // Disabled: every operation is a no-op failure.
        assert!(!s.leases_enabled());
        assert_eq!(s.try_acquire_lease(&mut e, PilotId(0)), None);
        s.enable_leases(SimDuration::from_secs(60), |_, _, _, _| {});
        assert!(s.leases_enabled());
        let (fence, expires) = s.try_acquire_lease(&mut e, PilotId(0)).expect("grant");
        assert_eq!(fence.epoch(), 1);
        assert_eq!(expires, SimTime::from_secs_f64(60.0));
        assert_eq!(s.lease_epoch(PilotId(0)), fence);
        // A second owner cannot acquire while the lease is unexpired.
        assert_eq!(s.try_acquire_lease(&mut e, PilotId(0)), None);
        // Renewal under the held epoch extends; a stale epoch is fenced.
        let renewed = s.renew_lease(&mut e, PilotId(0), fence).expect("renew");
        assert_eq!(renewed, SimTime::from_secs_f64(60.0));
        assert_eq!(s.lease_renewals(), 1);
        let forged = Fence { epoch: 6 };
        assert_eq!(s.renew_lease(&mut e, PilotId(0), forged), None);
        assert_eq!(s.fence_rejections(), 1);
        // Revocation frees the lease and bumps the fencing epoch, so the
        // next grant is strictly newer.
        assert_eq!(s.revoke_lease(&mut e, PilotId(0)).pilot(), PilotId(0));
        assert_eq!(s.lease_epoch(PilotId(0)).epoch(), 2);
        assert_eq!(s.lease_expiry(PilotId(0)), None);
        assert_eq!(s.renew_lease(&mut e, PilotId(0), fence), None);
        let (fence2, _) = s.try_acquire_lease(&mut e, PilotId(0)).expect("re-grant");
        assert_eq!(fence2.epoch(), 3);
    }

    #[test]
    fn stale_epoch_messages_are_rejected_not_applied() {
        let mut e = Engine::new(1);
        let s = store();
        s.enable_leases(SimDuration::from_secs(60), |_, _, _, _| {});
        let (fence, _) = s.try_acquire_lease(&mut e, PilotId(0)).expect("grant");
        let applied = Rc::new(RefCell::new(0usize));
        let a = applied.clone();
        s.roundtrip_from(&mut e, PilotId(0), fence, move |_| *a.borrow_mut() += 1);
        // Ownership moves on before the second message lands.
        s.revoke_lease(&mut e, PilotId(0));
        let a2 = applied.clone();
        s.roundtrip_from(&mut e, PilotId(0), fence, move |_| *a2.borrow_mut() += 1);
        e.run();
        // First update raced the revoke: it was sent before but lands
        // after, so it is fenced too — both writes are zombie writes.
        assert_eq!(*applied.borrow(), 0, "rejected effects must never apply");
        assert_eq!(s.fence_rejections(), 2);
        // A current-epoch write still lands.
        let (fence2, _) = s.try_acquire_lease(&mut e, PilotId(0)).expect("re-grant");
        let a3 = applied.clone();
        s.roundtrip_from(&mut e, PilotId(0), fence2, move |_| *a3.borrow_mut() += 1);
        e.run();
        assert_eq!(*applied.borrow(), 1);
    }

    #[test]
    fn partitioned_pilot_cannot_touch_its_lease() {
        let mut e = Engine::new(1);
        let s = store();
        s.enable_leases(SimDuration::from_secs(60), |_, _, _, _| {});
        let (fence, _) = s.try_acquire_lease(&mut e, PilotId(0)).expect("grant");
        s.partition_pilot(&mut e, PilotId(0), SimDuration::from_secs(10), false);
        // The cut renewal neither extends nor counts, and is no fence
        // rejection: the write never reached the store.
        assert_eq!(s.renew_lease(&mut e, PilotId(0), fence), None);
        assert_eq!(s.lease_renewals(), 0);
        assert_eq!(s.fence_rejections(), 0);
        assert_eq!(s.lease_epoch(PilotId(0)), fence);
        assert_eq!(
            s.lease_expiry(PilotId(0)),
            Some(SimTime::from_secs_f64(60.0))
        );
        // Another pilot's lease is unaffected by the window.
        assert_eq!(
            s.try_acquire_lease(&mut e, PilotId(1)),
            Some((Fence { epoch: 1 }, SimTime::from_secs_f64(60.0)))
        );
    }
}
