//! ResourceManager, NodeManagers and the ApplicationMaster protocol.
//!
//! Container allocation is **heartbeat-driven**: the scheduler only places
//! pending requests on periodic ticks (the NM heartbeat cadence), which is
//! what makes YARN Compute-Unit startup so much slower than a plain fork —
//! the effect measured in Fig. 5's inset. Each application goes through the
//! two-stage allocation of Fig. 4: first the AM container, then (driven by
//! the AM) its task containers.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

use rp_hpc::{Cluster, NodeId};
use rp_sim::{Engine, SimDuration, SimTime};

use crate::config::{ContainerRuntime, YarnConfig};

/// YARN application id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AppId(pub u64);

/// YARN container id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContainerId(pub u64);

/// A (vcores, memory) resource vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resource {
    pub vcores: u32,
    pub mem_mb: u64,
}

impl Resource {
    pub fn new(vcores: u32, mem_mb: u64) -> Resource {
        Resource { vcores, mem_mb }
    }

    pub fn fits_in(&self, other: &Resource) -> bool {
        self.vcores <= other.vcores && self.mem_mb <= other.mem_mb
    }

    pub fn sub(&mut self, other: &Resource) {
        self.vcores -= other.vcores;
        self.mem_mb -= other.mem_mb;
    }

    pub fn add(&mut self, other: &Resource) {
        self.vcores += other.vcores;
        self.mem_mb += other.mem_mb;
    }
}

/// A request for one container.
#[derive(Debug, Clone)]
pub struct ResourceRequest {
    pub resource: Resource,
    /// Node-local placement preference (data locality). The scheduler holds
    /// the request for `locality_delay_ticks` ticks before relaxing it.
    pub preferred_node: Option<NodeId>,
}

impl ResourceRequest {
    pub fn new(vcores: u32, mem_mb: u64) -> Self {
        ResourceRequest {
            resource: Resource::new(vcores, mem_mb),
            preferred_node: None,
        }
    }

    pub fn on_node(mut self, node: NodeId) -> Self {
        self.preferred_node = Some(node);
        self
    }
}

/// A granted, running container.
#[derive(Debug, Clone)]
pub struct Container {
    pub id: ContainerId,
    pub app: AppId,
    pub node: NodeId,
    pub resource: Resource,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppState {
    /// Accepted; AM container pending.
    Accepted,
    /// AM is up and may request containers.
    Running,
    Finished,
    Killed,
}

/// Point-in-time cluster metrics — the stand-in for the RM REST API the
/// paper's agent scheduler polls.
#[derive(Debug, Clone)]
pub struct ClusterState {
    pub total: Resource,
    pub available: Resource,
    pub apps_running: u32,
    pub containers_running: u32,
    pub per_node: Vec<(NodeId, Resource, Resource)>, // (node, total, free)
}

type AmStartFn = Box<dyn FnOnce(&mut Engine, AmHandle)>;
type PreemptFn = Rc<dyn Fn(&mut Engine, Container)>;
type AllocFn = Box<dyn FnOnce(&mut Engine, Container)>;

enum ReqKind {
    Am(AmStartFn),
    Task(AllocFn),
}

struct Pending {
    app: AppId,
    kind: ReqKind,
    resource: Resource,
    preferred: Option<NodeId>,
    waited_ticks: u32,
}

struct NmState {
    node: NodeId,
    total: Resource,
    free: Resource,
}

struct App {
    state: AppState,
    am_container: Option<ContainerId>,
    containers: BTreeSet<ContainerId>,
    submit_time: SimTime,
    am_start_time: Option<SimTime>,
}

struct RmInner {
    config: YarnConfig,
    nms: Vec<NmState>,
    /// Nodes that already hold the container image (Docker runtime).
    image_cached: BTreeSet<NodeId>,
    /// Per-container preemption handlers (preemptible requests only).
    preempt_handlers: BTreeMap<ContainerId, PreemptFn>,
    apps: BTreeMap<AppId, App>,
    containers: BTreeMap<ContainerId, Container>,
    /// Vcores of the AM containers that non-final apps hold: the
    /// maxAMShare numerator, kept as a running count so a placement does
    /// not walk `apps` (every app ever submitted).
    am_vcores_held: u32,
    pending: VecDeque<Pending>,
    next_app: u64,
    next_container: u64,
    rr_cursor: usize,
    start_time: SimTime,
    tick_scheduled: bool,
    stopped: bool,
}

/// A running YARN cluster (RM + NMs). Cheap to clone (shared handle).
#[derive(Clone)]
pub struct YarnCluster {
    inner: Rc<RefCell<RmInner>>,
}

/// Handle the ApplicationMaster logic uses to talk to the RM.
#[derive(Clone)]
pub struct AmHandle {
    app: AppId,
    yarn: YarnCluster,
}

impl YarnCluster {
    /// Create a cluster over `nodes` of `cluster` and start its scheduler
    /// immediately (daemons assumed up — bootstrap timing lives in
    /// [`crate::bootstrap`]).
    pub fn start(
        engine: &mut Engine,
        cluster: &Cluster,
        nodes: &[NodeId],
        config: YarnConfig,
    ) -> YarnCluster {
        assert!(!nodes.is_empty(), "YARN cluster needs nodes");
        let spec = cluster.spec();
        let nm_mem = (spec.mem_per_node_mb as f64 * config.nm_mem_fraction) as u64;
        let nms = nodes
            .iter()
            .map(|&n| NmState {
                node: n,
                total: Resource::new(spec.cores_per_node, nm_mem),
                free: Resource::new(spec.cores_per_node, nm_mem),
            })
            .collect();
        YarnCluster {
            inner: Rc::new(RefCell::new(RmInner {
                config,
                nms,
                image_cached: BTreeSet::new(),
                preempt_handlers: BTreeMap::new(),
                apps: BTreeMap::new(),
                containers: BTreeMap::new(),
                am_vcores_held: 0,
                pending: VecDeque::new(),
                next_app: 0,
                next_container: 0,
                rr_cursor: 0,
                start_time: engine.now(),
                tick_scheduled: false,
                stopped: false,
            })),
        }
    }

    /// Submit an application. After the client round trip and AM container
    /// allocation + launch, `am_logic` runs with an [`AmHandle`].
    pub fn submit_app(
        &self,
        engine: &mut Engine,
        name: impl Into<String>,
        am_request: ResourceRequest,
        am_logic: impl FnOnce(&mut Engine, AmHandle) + 'static,
    ) -> AppId {
        let name = name.into();
        let (sub_mean, sub_std) = self.inner.borrow().config.app_submit_s;
        let submit_delay =
            SimDuration::from_secs_f64(engine.rng.normal_min(sub_mean, sub_std, 0.01));
        let id = {
            let mut inner = self.inner.borrow_mut();
            assert!(!inner.stopped, "submit_app on a stopped YARN cluster");
            let id = AppId(inner.next_app);
            inner.next_app += 1;
            inner.apps.insert(
                id,
                App {
                    state: AppState::Accepted,
                    am_container: None,
                    containers: BTreeSet::new(),
                    submit_time: engine.now(),
                    am_start_time: None,
                },
            );
            id
        };
        engine
            .trace
            .record(engine.now(), "yarn", format!("submit {name} as {id:?}"));
        engine.metrics.incr("yarn.apps_submitted");
        let this = self.clone();
        let resource = am_request.resource;
        let rounded = this.round_up(resource);
        engine.schedule_in(submit_delay, move |eng| {
            {
                let mut inner = this.inner.borrow_mut();
                if inner.apps[&id].state != AppState::Accepted {
                    return; // killed before the AM request landed
                }
                inner.pending.push_back(Pending {
                    app: id,
                    kind: ReqKind::Am(Box::new(am_logic)),
                    resource: rounded,
                    preferred: am_request.preferred_node,
                    waited_ticks: 0,
                });
            }
            this.ensure_tick(eng);
        });
        id
    }

    pub fn app_state(&self, id: AppId) -> AppState {
        self.inner.borrow().apps[&id].state
    }

    /// Time from submission to AM start (the first stage of Fig. 4).
    pub fn am_startup_time(&self, id: AppId) -> Option<SimDuration> {
        let inner = self.inner.borrow();
        let app = &inner.apps[&id];
        app.am_start_time.map(|t| t.since(app.submit_time))
    }

    /// Free resources summed over the NodeManagers: `cluster_state().available`
    /// without the allocation or the app walk. O(NodeManagers); this is the
    /// read for scheduling hot paths.
    pub fn available(&self) -> Resource {
        let inner = self.inner.borrow();
        let mut available = Resource::new(0, 0);
        for nm in &inner.nms {
            available.add(&nm.free);
        }
        available
    }

    /// RM REST-style cluster metrics snapshot. O(apps ever submitted) — it
    /// walks the app table to count running apps and allocates the
    /// per-node list — so it is for reports and tests, not hot paths; use
    /// [`YarnCluster::available`] there.
    pub fn cluster_state(&self) -> ClusterState {
        let inner = self.inner.borrow();
        let mut total = Resource::new(0, 0);
        let mut available = Resource::new(0, 0);
        let mut per_node = Vec::with_capacity(inner.nms.len());
        for nm in &inner.nms {
            total.add(&nm.total);
            available.add(&nm.free);
            per_node.push((nm.node, nm.total, nm.free));
        }
        let apps_running = inner
            .apps
            .values()
            .filter(|a| a.state == AppState::Running)
            .count() as u32;
        ClusterState {
            total,
            available,
            apps_running,
            containers_running: inner.containers.len() as u32,
            per_node,
        }
    }

    /// Reclaim up to `n` task containers (newest first, AMs never), as
    /// the RM does under load. Preemptible containers get their handler
    /// invoked; non-preemptible ones are reclaimed silently (the app sees
    /// its work vanish — exactly the hazard the paper warns about).
    /// Returns the preempted containers.
    pub fn preempt(&self, engine: &mut Engine, n: usize) -> Vec<Container> {
        let mut notified = Vec::new();
        {
            let mut inner = self.inner.borrow_mut();
            // Every held container that is not an AM is a task container
            // of exactly one live app: final apps hold none.
            let victims: Vec<ContainerId> = inner
                .containers
                .values()
                .rev() // newest container ids first
                .filter(|c| inner.apps[&c.app].am_container != Some(c.id))
                .map(|c| c.id)
                .take(n)
                .collect();
            for cid in victims {
                let container = inner.containers[&cid].clone();
                if let Some(app) = inner.apps.get_mut(&container.app) {
                    app.containers.remove(&cid);
                }
                let handler = inner.preempt_handlers.remove(&cid);
                inner.free_container(cid);
                notified.push((container, handler));
            }
        }
        let mut out = Vec::new();
        for (container, handler) in notified {
            engine.trace.record(
                engine.now(),
                "yarn",
                format!("preempted {:?} of {:?}", container.id, container.app),
            );
            engine.metrics.incr("yarn.preemptions");
            if let Some(h) = handler {
                h(engine, container.clone());
            }
            out.push(container);
        }
        self.ensure_tick(engine);
        out
    }

    /// Fail a NodeManager (node crash): the NM stops offering resources,
    /// its task containers are lost (preemption handlers fire so AMs can
    /// re-request elsewhere), and applications whose **AM** lived on the
    /// node are killed (single-attempt AMs, as in the paper's era before
    /// AM restart became routine). Returns the lost task containers.
    pub fn fail_node(&self, engine: &mut Engine, node: NodeId) -> Vec<Container> {
        let mut lost_tasks = Vec::new();
        let mut dead_apps = Vec::new();
        {
            let mut inner = self.inner.borrow_mut();
            inner.nms.retain(|nm| nm.node != node);
            let on_node: Vec<Container> = inner
                .containers
                .values()
                .filter(|c| c.node == node)
                .cloned()
                .collect();
            for c in &on_node {
                let is_am =
                    inner.apps.get(&c.app).map(|a| a.am_container == Some(c.id)) == Some(true);
                if is_am {
                    dead_apps.push(c.app);
                } else {
                    lost_tasks.push(c.clone());
                }
            }
        }
        engine.trace.record(
            engine.now(),
            "yarn",
            format!(
                "node {node} failed: {} task containers lost, {} apps dead",
                lost_tasks.len(),
                dead_apps.len()
            ),
        );
        engine.metrics.incr("yarn.node_failures");
        engine
            .metrics
            .add("yarn.containers_lost", lost_tasks.len() as u64);
        let mut notified = Vec::new();
        for c in lost_tasks {
            let handler = {
                let mut inner = self.inner.borrow_mut();
                if let Some(app) = inner.apps.get_mut(&c.app) {
                    app.containers.remove(&c.id);
                }
                let h = inner.preempt_handlers.remove(&c.id);
                // NM is gone; just drop the bookkeeping (no resources to
                // return to a dead node).
                inner.containers.remove(&c.id);
                h
            };
            if let Some(h) = handler {
                h(engine, c.clone());
            }
            notified.push(c);
        }
        for app in dead_apps {
            self.finish_app(engine, app, AppState::Killed);
        }
        self.ensure_tick(engine);
        notified
    }

    /// Stop the scheduler (agent teardown). Running containers are dropped.
    pub fn shutdown(&self, engine: &mut Engine) {
        let mut inner = self.inner.borrow_mut();
        inner.stopped = true;
        inner.pending.clear();
        engine.trace.record(engine.now(), "yarn", "shutdown");
    }

    pub fn is_stopped(&self) -> bool {
        self.inner.borrow().stopped
    }

    pub fn nodes(&self) -> Vec<NodeId> {
        self.inner.borrow().nms.iter().map(|n| n.node).collect()
    }

    // ---- internals ----

    fn round_up(&self, mut r: Resource) -> Resource {
        let min = self.inner.borrow().config.min_allocation_mb;
        r.mem_mb = r.mem_mb.max(min).div_ceil(min) * min;
        r.vcores = r.vcores.max(1);
        r
    }

    /// Make sure a scheduler tick is armed for the next heartbeat boundary.
    fn ensure_tick(&self, engine: &mut Engine) {
        let next_at = {
            let mut inner = self.inner.borrow_mut();
            if inner.tick_scheduled || inner.stopped || inner.pending.is_empty() {
                return;
            }
            inner.tick_scheduled = true;
            let hb = inner.config.nm_heartbeat_ms * 1_000; // µs
            let elapsed = engine.now().since(inner.start_time).0;
            let k = elapsed / hb + 1;
            inner.start_time + SimDuration(k * hb)
        };
        let this = self.clone();
        engine.schedule_at(next_at, move |eng| {
            this.inner.borrow_mut().tick_scheduled = false;
            this.tick(eng);
        });
    }

    /// One heartbeat round: walk pending requests FIFO and place what fits.
    /// Each placement resumes the scan where the last one stopped, so a
    /// round costs O(pending) plus O(NodeManagers) per placement. Exact:
    /// nothing frees capacity during a round (free space and the AM-vcore
    /// count only shrink, `launch` only schedules), so a request passed
    /// over earlier in the round still does not fit.
    fn tick(&self, engine: &mut Engine) {
        let mut from = 0;
        loop {
            // Pop the next placeable request; hold the borrow only briefly.
            let placed = {
                let mut inner = self.inner.borrow_mut();
                if inner.stopped {
                    return;
                }
                inner.place_one(from)
            };
            match placed {
                Some((at, pending, container)) => {
                    from = at;
                    self.launch(engine, pending, container);
                }
                None => break,
            }
        }
        // Age non-placeable locality requests and re-arm.
        {
            let mut inner = self.inner.borrow_mut();
            for p in inner.pending.iter_mut() {
                p.waited_ticks += 1;
            }
        }
        self.ensure_tick(engine);
    }

    /// Launch a granted container: pay the launch latency (plus a Docker
    /// image pull on a node's first container), then hand it to the
    /// requester (AM logic or task callback).
    fn launch(&self, engine: &mut Engine, pending: Pending, container: Container) {
        let (mean, std, is_am, extra) = {
            let mut inner = self.inner.borrow_mut();
            let (m, s) = match pending.kind {
                ReqKind::Am(_) => inner.config.am_launch_s,
                ReqKind::Task(_) => inner.config.container_launch_s,
            };
            let is_am = matches!(pending.kind, ReqKind::Am(_));
            let extra = match inner.config.container_runtime {
                ContainerRuntime::Process => 0.0,
                ContainerRuntime::Docker {
                    image_pull_s,
                    start_overhead_s,
                } => {
                    let pull = if inner.image_cached.insert(container.node) {
                        engine.rng.normal_min(image_pull_s.0, image_pull_s.1, 0.1)
                    } else {
                        0.0
                    };
                    pull + start_overhead_s
                }
            };
            (m, s, is_am, extra)
        };
        let delay = SimDuration::from_secs_f64(engine.rng.normal_min(mean, std, 0.05) + extra);
        engine.trace.record(
            engine.now(),
            "yarn",
            format!(
                "allocate {:?} for {:?} on {} ({})",
                container.id,
                container.app,
                container.node,
                if is_am { "AM" } else { "task" }
            ),
        );
        engine.metrics.incr_labeled(
            "yarn.containers_allocated",
            &[("kind", if is_am { "am" } else { "task" })],
        );
        let this = self.clone();
        engine.schedule_in(delay, move |eng| {
            // The app may have been killed while the container launched.
            let alive = {
                let inner = this.inner.borrow();
                inner.containers.contains_key(&container.id)
                    && !inner.apps[&container.app].state.is_final()
            };
            if !alive {
                return;
            }
            match pending.kind {
                ReqKind::Am(am_logic) => {
                    if let Some(app) = this.inner.borrow_mut().apps.get_mut(&container.app) {
                        app.state = AppState::Running;
                        app.am_start_time = Some(eng.now());
                    }
                    am_logic(
                        eng,
                        AmHandle {
                            app: container.app,
                            yarn: this.clone(),
                        },
                    );
                }
                ReqKind::Task(cb) => cb(eng, container),
            }
        });
    }

    fn finish_app(&self, engine: &mut Engine, id: AppId, state: AppState) {
        {
            let mut inner = self.inner.borrow_mut();
            let app = match inner.apps.get_mut(&id) {
                Some(a) if !a.state.is_final() => a,
                _ => return,
            };
            app.state = state;
            let to_free = std::mem::take(&mut app.containers);
            let am = app.am_container.take();
            for cid in to_free {
                inner.free_container(cid);
            }
            if let Some(am) = am.and_then(|cid| inner.free_container(cid)) {
                inner.am_vcores_held -= am.resource.vcores;
            }
            // Drop pending requests of this app.
            inner.pending.retain(|p| p.app != id);
        }
        engine
            .trace
            .record(engine.now(), "yarn", format!("{id:?} -> {state:?}"));
        engine.metrics.incr_labeled(
            "yarn.apps_finished",
            &[("state", &format!("{state:?}").to_lowercase())],
        );
        self.ensure_tick(engine);
    }
}

impl AppState {
    pub fn is_final(self) -> bool {
        matches!(self, AppState::Finished | AppState::Killed)
    }
}

impl RmInner {
    /// Find and reserve a placement for the first satisfiable pending
    /// request at or after index `from` (FIFO with locality delay).
    /// Returns its index, the request and the container. Cost:
    /// O(NodeManagers) to read the largest free vcores and memory, then
    /// O(1) per request skipped because it fits no node or would break
    /// maxAMShare, and O(NodeManagers) per request that fits some node.
    fn place_one(&mut self, from: usize) -> Option<(usize, Pending, Container)> {
        // A request larger than every node's free space fits nowhere. Every
        // request holds at least one vcore (`round_up`), so with no free
        // vcore anywhere nothing is placeable.
        let max_vcores = self.nms.iter().map(|nm| nm.free.vcores).max().unwrap_or(0);
        let max_mem = self.nms.iter().map(|nm| nm.free.mem_mb).max().unwrap_or(0);
        if max_vcores == 0 {
            return None;
        }
        // maxAMShare: refuse AM placements that would let AMs starve task
        // containers of every vcore (the AM-deadlock guard).
        let total_vcores: u32 = self.nms.iter().map(|nm| nm.total.vcores).sum();
        let am_vcores_held = self.am_vcores_held;
        let am_share_ok = |p: &Pending| {
            if !matches!(p.kind, ReqKind::Am(_)) {
                return true;
            }
            (am_vcores_held + p.resource.vcores) as f64
                <= self.config.max_am_share * total_vcores as f64
        };

        let locality_delay = self.config.locality_delay_ticks;
        let n = self.nms.len();
        let mut chosen: Option<(usize, usize)> = None; // (pending idx, nm idx)
        'scan: for (pi, p) in (from..).zip(self.pending.range(from..)) {
            if p.resource.vcores > max_vcores || p.resource.mem_mb > max_mem || !am_share_ok(p) {
                continue;
            }
            // Preferred node first.
            if let Some(pref) = p.preferred {
                if let Some(ni) = self.nms.iter().position(|nm| nm.node == pref) {
                    if p.resource.fits_in(&self.nms[ni].free) {
                        chosen = Some((pi, ni));
                        break;
                    }
                }
                if p.waited_ticks < locality_delay {
                    continue; // keep waiting for locality
                }
            }
            // Any node, round-robin from the cursor for spread.
            for k in 0..n {
                let ni = (self.rr_cursor + k) % n;
                if p.resource.fits_in(&self.nms[ni].free) {
                    chosen = Some((pi, ni));
                    break 'scan;
                }
            }
        }
        let (pi, ni) = chosen?;
        let pending = self.pending.remove(pi)?;
        self.rr_cursor = (ni + 1) % n;
        self.nms[ni].free.sub(&pending.resource);
        let cid = ContainerId(self.next_container);
        self.next_container += 1;
        let container = Container {
            id: cid,
            app: pending.app,
            node: self.nms[ni].node,
            resource: pending.resource,
        };
        self.containers.insert(cid, container.clone());
        if let Some(app) = self.apps.get_mut(&pending.app) {
            match pending.kind {
                ReqKind::Task(_) => {
                    app.containers.insert(cid);
                }
                ReqKind::Am(_) => {
                    app.am_container = Some(cid);
                    if !app.state.is_final() {
                        self.am_vcores_held += pending.resource.vcores;
                    }
                }
            }
        }
        Some((pi, pending, container))
    }

    /// Drop a container and return its resources to its NodeManager (if
    /// that is still alive). Returns the container if it was held.
    fn free_container(&mut self, id: ContainerId) -> Option<Container> {
        self.preempt_handlers.remove(&id);
        let c = self.containers.remove(&id)?;
        if let Some(nm) = self.nms.iter_mut().find(|nm| nm.node == c.node) {
            nm.free.add(&c.resource);
        }
        Some(c)
    }

    /// `am_vcores_held` recomputed by walking every app: the definition
    /// the running count must match.
    #[cfg(test)]
    fn am_vcores_walk(&self) -> u32 {
        self.apps
            .values()
            .filter(|a| !a.state.is_final())
            .filter_map(|a| a.am_container)
            .filter_map(|cid| self.containers.get(&cid))
            .map(|c| c.resource.vcores)
            .sum()
    }
}

impl AmHandle {
    pub fn app_id(&self) -> AppId {
        self.app
    }

    /// Like [`AmHandle::request_container`] but preemptible: if the RM
    /// later reclaims the container (high-load situations, paper §III-B:
    /// "YARN e.g. can preempt containers"), `on_preempt` fires and the
    /// application must re-request.
    pub fn request_container_preemptible(
        &self,
        engine: &mut Engine,
        req: ResourceRequest,
        on_preempt: impl Fn(&mut Engine, Container) + 'static,
        on_alloc: impl FnOnce(&mut Engine, Container) + 'static,
    ) {
        let yarn = self.yarn.clone();
        let handler: PreemptFn = Rc::new(on_preempt);
        self.request_container(engine, req, move |eng, container| {
            yarn.inner
                .borrow_mut()
                .preempt_handlers
                .insert(container.id, handler);
            on_alloc(eng, container);
        });
    }

    /// Ask the RM for a task container; `on_alloc` runs once it is up.
    pub fn request_container(
        &self,
        engine: &mut Engine,
        req: ResourceRequest,
        on_alloc: impl FnOnce(&mut Engine, Container) + 'static,
    ) {
        let rounded = self.yarn.round_up(req.resource);
        {
            let mut inner = self.yarn.inner.borrow_mut();
            let biggest = inner
                .nms
                .iter()
                .map(|nm| nm.total)
                .max_by_key(|r| (r.vcores, r.mem_mb))
                .expect("cluster has NMs");
            assert!(
                rounded.fits_in(&biggest),
                "request {rounded:?} larger than any NodeManager ({biggest:?})"
            );
            assert!(
                !inner.apps[&self.app].state.is_final(),
                "request_container on finished app"
            );
            inner.pending.push_back(Pending {
                app: self.app,
                kind: ReqKind::Task(Box::new(on_alloc)),
                resource: rounded,
                preferred: req.preferred_node,
                waited_ticks: 0,
            });
        }
        self.yarn.ensure_tick(engine);
    }

    /// Return one task container to the RM.
    pub fn release_container(&self, engine: &mut Engine, id: ContainerId) {
        {
            let mut inner = self.yarn.inner.borrow_mut();
            let mut is_am = false;
            if let Some(app) = inner.apps.get_mut(&self.app) {
                app.containers.remove(&id);
                is_am = app.am_container == Some(id);
            }
            let freed = inner.free_container(id);
            if let Some(am) = freed.filter(|_| is_am) {
                inner.am_vcores_held -= am.resource.vcores;
            }
        }
        self.yarn.ensure_tick(engine);
    }

    /// Unregister the AM: the application finishes, everything is freed.
    pub fn finish(&self, engine: &mut Engine) {
        self.yarn.finish_app(engine, self.app, AppState::Finished);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_hpc::MachineSpec;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn test_cluster(engine: &mut Engine) -> (Cluster, YarnCluster) {
        let cluster = Cluster::new(MachineSpec::localhost());
        let nodes: Vec<NodeId> = cluster.node_ids().collect();
        let yarn = YarnCluster::start(engine, &cluster, &nodes, YarnConfig::test_profile());
        (cluster, yarn)
    }

    #[test]
    fn app_reaches_running_after_am_allocation() {
        let mut e = Engine::new(1);
        let (_c, yarn) = test_cluster(&mut e);
        let started = Rc::new(RefCell::new(None));
        let s = started.clone();
        let id = yarn.submit_app(
            &mut e,
            "app",
            ResourceRequest::new(1, 1024),
            move |eng, am| {
                *s.borrow_mut() = Some(eng.now());
                am.finish(eng);
            },
        );
        e.run();
        assert!(started.borrow().is_some());
        assert_eq!(yarn.app_state(id), AppState::Finished);
        // submit (0.05) + heartbeat wait (≤0.1) + AM launch (0.2)
        let am_t = yarn.am_startup_time(id).unwrap().as_secs_f64();
        assert!(am_t > 0.2 && am_t < 1.0, "{am_t}");
    }

    #[test]
    fn two_stage_allocation_for_task_containers() {
        let mut e = Engine::new(1);
        let (_c, yarn) = test_cluster(&mut e);
        let task_node = Rc::new(RefCell::new(None));
        let tn = task_node.clone();
        yarn.submit_app(
            &mut e,
            "mr",
            ResourceRequest::new(1, 1024),
            move |eng, am| {
                let tn = tn.clone();
                let am2 = am.clone();
                am.request_container(eng, ResourceRequest::new(2, 2048), move |eng, c| {
                    *tn.borrow_mut() = Some(c.node);
                    am2.release_container(eng, c.id);
                    am2.finish(eng);
                });
            },
        );
        e.run();
        assert!(task_node.borrow().is_some());
        let state = yarn.cluster_state();
        assert_eq!(state.containers_running, 0);
        assert_eq!(state.available.vcores, state.total.vcores);
    }

    #[test]
    fn memory_rounds_up_to_min_allocation() {
        let mut e = Engine::new(1);
        let (_c, yarn) = test_cluster(&mut e);
        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        yarn.submit_app(
            &mut e,
            "round",
            ResourceRequest::new(1, 1500),
            move |eng, am| {
                let g = g.clone();
                let am2 = am.clone();
                am.request_container(eng, ResourceRequest::new(1, 100), move |eng, c| {
                    *g.borrow_mut() = Some(c.resource);
                    am2.finish(eng);
                });
            },
        );
        e.run();
        let r = got.borrow().unwrap();
        assert_eq!(r.mem_mb, 1024); // rounded up from 100
    }

    #[test]
    fn locality_preference_honoured_when_free() {
        let mut e = Engine::new(1);
        let (_c, yarn) = test_cluster(&mut e);
        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        yarn.submit_app(
            &mut e,
            "local",
            ResourceRequest::new(1, 1024),
            move |eng, am| {
                let g = g.clone();
                let am2 = am.clone();
                am.request_container(
                    eng,
                    ResourceRequest::new(1, 1024).on_node(NodeId(2)),
                    move |eng, c| {
                        *g.borrow_mut() = Some(c.node);
                        am2.finish(eng);
                    },
                );
            },
        );
        e.run();
        assert_eq!(got.borrow().unwrap(), NodeId(2));
    }

    #[test]
    fn locality_relaxes_after_delay() {
        let mut e = Engine::new(1);
        let cluster = Cluster::new(MachineSpec::localhost());
        let nodes: Vec<NodeId> = cluster.node_ids().collect();
        let yarn = YarnCluster::start(&mut e, &cluster, &nodes, YarnConfig::test_profile());
        // Fill node 0 completely with a blocker app.
        let blocker_done = Rc::new(RefCell::new(None));
        let bd = blocker_done.clone();
        yarn.submit_app(
            &mut e,
            "blocker",
            ResourceRequest::new(1, 1024),
            move |eng, am| {
                let bd = bd.clone();
                let am2 = am.clone();
                am.request_container(
                    eng,
                    ResourceRequest::new(7, 12 * 1024).on_node(NodeId(0)),
                    move |_, c| {
                        *bd.borrow_mut() = Some((am2, c));
                    },
                );
            },
        );
        e.run();
        assert!(blocker_done.borrow().is_some());
        // Now request node 0 again: full → after locality_delay ticks the
        // request relaxes to another node.
        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        yarn.submit_app(
            &mut e,
            "wants0",
            ResourceRequest::new(1, 1024),
            move |eng, am| {
                let g = g.clone();
                let am2 = am.clone();
                am.request_container(
                    eng,
                    ResourceRequest::new(7, 12 * 1024).on_node(NodeId(0)),
                    move |eng, c| {
                        *g.borrow_mut() = Some(c.node);
                        am2.finish(eng);
                    },
                );
            },
        );
        e.run();
        let node = got.borrow().unwrap();
        assert_ne!(node, NodeId(0), "must have relaxed off the full node");
    }

    #[test]
    fn requests_queue_until_capacity_frees() {
        let mut e = Engine::new(1);
        let (_c, yarn) = test_cluster(&mut e);
        // One app grabs all vcores of all 4 nodes (8 each), then releases.
        let order = Rc::new(RefCell::new(Vec::new()));
        let o = order.clone();
        yarn.submit_app(
            &mut e,
            "hog",
            ResourceRequest::new(1, 1024),
            move |eng, am| {
                let held = Rc::new(RefCell::new(Vec::new()));
                for _ in 0..4 {
                    let held = held.clone();
                    let o = o.clone();
                    let am2 = am.clone();
                    am.request_container(eng, ResourceRequest::new(7, 1024), move |eng, c| {
                        o.borrow_mut().push(format!("hog:{}", c.node));
                        held.borrow_mut().push(c.id);
                        if held.borrow().len() == 4 {
                            // Release everything after 5 s.
                            let am3 = am2.clone();
                            let held2 = held.clone();
                            eng.schedule_in(SimDuration::from_secs(5), move |eng| {
                                for id in held2.borrow().iter() {
                                    am3.release_container(eng, *id);
                                }
                                am3.finish(eng);
                            });
                        }
                    });
                }
            },
        );
        e.run_until(SimTime::from_secs_f64(2.0));
        // Competitor needs 7 vcores: blocked while hog holds them.
        let got_at = Rc::new(RefCell::new(None));
        let g = got_at.clone();
        yarn.submit_app(
            &mut e,
            "late",
            ResourceRequest::new(1, 1024),
            move |eng, am| {
                let g = g.clone();
                let am2 = am.clone();
                am.request_container(eng, ResourceRequest::new(7, 1024), move |eng, _c| {
                    *g.borrow_mut() = Some(eng.now());
                    am2.finish(eng);
                });
            },
        );
        e.run();
        let t = got_at.borrow().unwrap().as_secs_f64();
        assert!(t > 5.0, "late container should wait for the release: {t}");
    }

    #[test]
    fn cluster_state_reflects_usage() {
        let mut e = Engine::new(1);
        let (_c, yarn) = test_cluster(&mut e);
        let s0 = yarn.cluster_state();
        assert_eq!(s0.total.vcores, 32);
        assert_eq!(yarn.available(), s0.total);
        assert_eq!(s0.containers_running, 0);
        let held = Rc::new(RefCell::new(None));
        let h = held.clone();
        yarn.submit_app(
            &mut e,
            "x",
            ResourceRequest::new(1, 1024),
            move |eng, am| {
                let h = h.clone();
                let am2 = am.clone();
                am.request_container(eng, ResourceRequest::new(3, 2048), move |_, c| {
                    *h.borrow_mut() = Some((am2, c));
                });
            },
        );
        e.run();
        let s1 = yarn.cluster_state();
        // AM (1 vcore) + task (3 vcores) in flight.
        assert_eq!(s1.available.vcores, 32 - 4);
        assert_eq!(yarn.available(), s1.available);
        assert_eq!(s1.containers_running, 2);
        assert_eq!(s1.apps_running, 1);
    }

    #[test]
    #[should_panic]
    fn oversized_container_request_panics() {
        let mut e = Engine::new(1);
        let (_c, yarn) = test_cluster(&mut e);
        yarn.submit_app(
            &mut e,
            "huge",
            ResourceRequest::new(1, 1024),
            move |eng, am| {
                am.request_container(eng, ResourceRequest::new(64, 1024), |_, _| {});
            },
        );
        e.run();
    }

    #[test]
    fn heartbeat_quantises_allocation_times() {
        let mut e = Engine::new(1);
        let cluster = Cluster::new(MachineSpec::localhost());
        let nodes: Vec<NodeId> = cluster.node_ids().collect();
        let mut cfg = YarnConfig::test_profile();
        cfg.nm_heartbeat_ms = 1_000; // restore realistic cadence
        cfg.app_submit_s = (0.0, 0.0);
        cfg.am_launch_s = (0.0, 0.0);
        let yarn = YarnCluster::start(&mut e, &cluster, &nodes, cfg);
        let t_am = Rc::new(RefCell::new(None));
        let t = t_am.clone();
        yarn.submit_app(
            &mut e,
            "q",
            ResourceRequest::new(1, 1024),
            move |eng, am| {
                *t.borrow_mut() = Some(eng.now());
                am.finish(eng);
            },
        );
        e.run();
        // Submitted at t≈0 → allocated on the first heartbeat at t=1 s.
        let t = t_am.borrow().unwrap().as_secs_f64();
        assert!((t - 1.0).abs() < 0.15, "{t}");
    }

    #[test]
    fn docker_runtime_pays_pull_once_per_node() {
        use crate::config::ContainerRuntime;
        let mut e = Engine::new(1);
        let cluster = Cluster::new(MachineSpec::localhost());
        let nodes: Vec<NodeId> = cluster.node_ids().take(1).collect();
        let mut cfg = YarnConfig::test_profile();
        cfg.container_runtime = ContainerRuntime::Docker {
            image_pull_s: (10.0, 0.0),
            start_overhead_s: 0.5,
        };
        let yarn = YarnCluster::start(&mut e, &cluster, &nodes, cfg);
        let times = Rc::new(RefCell::new(Vec::new()));
        let t = times.clone();
        yarn.submit_app(
            &mut e,
            "docker",
            ResourceRequest::new(1, 1024),
            move |eng, am| {
                // AM pays the pull (first container on the node); two task
                // containers after it only pay the start overhead.
                let am2 = am.clone();
                let t2 = t.clone();
                am.request_container(eng, ResourceRequest::new(1, 1024), move |eng, c1| {
                    t2.borrow_mut().push(eng.now());
                    let am3 = am2.clone();
                    let t3 = t2.clone();
                    am2.request_container(eng, ResourceRequest::new(1, 1024), move |eng, c2| {
                        t3.borrow_mut().push(eng.now());
                        am3.release_container(eng, c1.id);
                        am3.release_container(eng, c2.id);
                        am3.finish(eng);
                    });
                });
            },
        );
        e.run();
        let times = times.borrow();
        // First container (the AM) absorbed the 10 s pull; the gap between
        // the two task containers is heartbeat + launch + overhead ≪ 10 s.
        let first = times[0].as_secs_f64();
        let gap = times[1].since(times[0]).as_secs_f64();
        assert!(first > 10.0, "AM pull should delay everything: {first}");
        assert!(gap < 2.0, "second task container must not re-pull: {gap}");
    }

    #[test]
    fn preemption_notifies_and_frees_resources() {
        let mut e = Engine::new(1);
        let (_c, yarn) = test_cluster(&mut e);
        let preempted = Rc::new(RefCell::new(Vec::new()));
        let granted = Rc::new(RefCell::new(0usize));
        let p = preempted.clone();
        let g = granted.clone();
        yarn.submit_app(
            &mut e,
            "victim",
            ResourceRequest::new(1, 1024),
            move |eng, am| {
                for _ in 0..3 {
                    let p = p.clone();
                    let g = g.clone();
                    am.request_container_preemptible(
                        eng,
                        ResourceRequest::new(2, 2048),
                        move |_, c| p.borrow_mut().push(c.id),
                        move |_, _c| *g.borrow_mut() += 1,
                    );
                }
            },
        );
        e.run();
        assert_eq!(*granted.borrow(), 3);
        let before = yarn.cluster_state();
        let victims = yarn.preempt(&mut e, 2);
        e.run();
        assert_eq!(victims.len(), 2);
        assert_eq!(preempted.borrow().len(), 2);
        let after = yarn.cluster_state();
        assert_eq!(after.available.vcores, before.available.vcores + 4);
        // Newest containers go first.
        assert!(victims[0].id > victims[1].id || victims.len() < 2);
    }

    #[test]
    fn preemption_skips_finished_apps_and_ams() {
        let mut e = Engine::new(1);
        let (_c, yarn) = test_cluster(&mut e);
        // Finished apps stay in the app table: one released its task
        // container, one left it for `finish` to free.
        for release in [true, false] {
            yarn.submit_app(
                &mut e,
                "done",
                ResourceRequest::new(1, 1024),
                move |eng, am| {
                    let am2 = am.clone();
                    am.request_container(eng, ResourceRequest::new(1, 1024), move |eng, c| {
                        if release {
                            am2.release_container(eng, c.id);
                        }
                        am2.finish(eng);
                    });
                },
            );
            e.run();
        }
        // Two live apps hold task containers; the newest ids go first.
        let granted = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..2 {
            let g = granted.clone();
            yarn.submit_app(
                &mut e,
                "live",
                ResourceRequest::new(1, 1024),
                move |eng, am| {
                    for _ in 0..2 {
                        let g = g.clone();
                        am.request_container(eng, ResourceRequest::new(1, 1024), move |_, c| {
                            g.borrow_mut().push(c.id)
                        });
                    }
                },
            );
            e.run();
        }
        let before = yarn.cluster_state();
        assert_eq!(before.containers_running, 6, "2 AMs + 4 tasks");
        let victims: Vec<ContainerId> = yarn.preempt(&mut e, 3).iter().map(|c| c.id).collect();
        let mut newest = granted.borrow().clone();
        newest.sort();
        newest.reverse();
        assert_eq!(victims, newest[..3]);
        let after = yarn.cluster_state();
        assert_eq!(after.available.vcores, before.available.vcores + 3);
        assert_eq!(after.apps_running, 2);
        // Only one task container is left: a larger ask takes just it.
        assert_eq!(yarn.preempt(&mut e, 5).len(), 1);
    }

    #[test]
    fn preempt_never_touches_am_containers() {
        let mut e = Engine::new(1);
        let (_c, yarn) = test_cluster(&mut e);
        let id = yarn.submit_app(&mut e, "amonly", ResourceRequest::new(1, 1024), |_, _| {});
        e.run();
        let victims = yarn.preempt(&mut e, 5);
        assert!(victims.is_empty(), "only an AM exists; nothing preemptible");
        assert_eq!(yarn.app_state(id), AppState::Running);
    }

    #[test]
    fn max_am_share_prevents_am_deadlock() {
        // 64 apps, each AM then one task container, on 32 vcores: without
        // maxAMShare the AMs fill the cluster and nothing ever finishes.
        let mut e = Engine::new(1);
        let (_c, yarn) = test_cluster(&mut e);
        let finished = Rc::new(RefCell::new(0usize));
        for i in 0..64 {
            let f = finished.clone();
            yarn.submit_app(
                &mut e,
                format!("a{i}"),
                ResourceRequest::new(1, 1024),
                move |eng, am| {
                    let am2 = am.clone();
                    let f = f.clone();
                    am.request_container(eng, ResourceRequest::new(1, 1024), move |eng, cont| {
                        am2.release_container(eng, cont.id);
                        am2.finish(eng);
                        *f.borrow_mut() += 1;
                    });
                },
            );
        }
        // A bounded drive: the engine must drain (no eternal ticks).
        let mut steps = 0u64;
        while e.step() {
            steps += 1;
            assert!(steps < 2_000_000, "AM deadlock: engine never drains");
        }
        assert_eq!(*finished.borrow(), 64);
    }

    #[test]
    fn fifo_gives_free_containers_to_the_first_app() {
        let mut e = Engine::new(1);
        let cluster = Cluster::new(MachineSpec::localhost());
        let nodes: Vec<NodeId> = cluster.node_ids().take(1).collect(); // 8 vcores
        let yarn = YarnCluster::start(&mut e, &cluster, &nodes, YarnConfig::test_profile());
        // Two apps, each wanting 6 containers on an 8-vcore node
        // (2 vcores go to the AMs): grants follow request order.
        let grants: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        for app in 0..2u64 {
            let g = grants.clone();
            yarn.submit_app(
                &mut e,
                format!("a{app}"),
                ResourceRequest::new(1, 1024),
                move |eng, am| {
                    for _ in 0..6 {
                        let g = g.clone();
                        am.request_container(eng, ResourceRequest::new(1, 1024), move |_, _| {
                            g.borrow_mut().push(app);
                        });
                    }
                },
            );
        }
        e.run_until(rp_sim::SimTime::from_secs_f64(30.0));
        // Only 6 task containers fit (8 - 2 AMs); FIFO gives them all to
        // the first app.
        assert_eq!(*grants.borrow(), vec![0; 6], "FIFO starves the second app");
    }

    #[test]
    fn node_failure_loses_containers_and_notifies() {
        let mut e = Engine::new(1);
        let (_c, yarn) = test_cluster(&mut e);
        let state = Rc::new(RefCell::new((None, Vec::new()))); // (task node, preempted)
        let st = state.clone();
        yarn.submit_app(
            &mut e,
            "victim",
            ResourceRequest::new(1, 1024),
            move |eng, am| {
                let st = st.clone();
                am.request_container_preemptible(
                    eng,
                    ResourceRequest::new(2, 2048),
                    {
                        let st = st.clone();
                        move |_, c| st.borrow_mut().1.push(c.id)
                    },
                    move |_, c| st.borrow_mut().0 = Some(c.node),
                );
            },
        );
        e.run();
        let task_node = state.borrow().0.expect("task placed");
        let before = yarn.cluster_state();
        let lost = yarn.fail_node(&mut e, task_node);
        e.run();
        assert_eq!(lost.len(), 1);
        assert_eq!(state.borrow().1.len(), 1, "preempt handler fired");
        let after = yarn.cluster_state();
        assert_eq!(after.per_node.len(), before.per_node.len() - 1);
    }

    #[test]
    fn am_node_failure_kills_app() {
        let mut e = Engine::new(2);
        let cluster = Cluster::new(MachineSpec::localhost());
        let nodes: Vec<NodeId> = cluster.node_ids().collect();
        let yarn = YarnCluster::start(&mut e, &cluster, &nodes, YarnConfig::test_profile());
        let am_node = Rc::new(RefCell::new(None));
        let an = am_node.clone();
        // Learn the AM's node via a task container on the same app: the
        // AM itself reports through am_container bookkeeping; place and
        // inspect cluster state instead.
        let id = yarn.submit_app(&mut e, "app", ResourceRequest::new(1, 1024), move |_, _| {
            *an.borrow_mut() = Some(());
        });
        e.run();
        assert!(am_node.borrow().is_some());
        // Find the AM's node: the only NM with used vcores.
        let s = yarn.cluster_state();
        let node = s
            .per_node
            .iter()
            .find(|(_, total, free)| total.vcores != free.vcores)
            .map(|&(n, _, _)| n)
            .expect("AM somewhere");
        yarn.fail_node(&mut e, node);
        e.run();
        assert_eq!(yarn.app_state(id), AppState::Killed);
        let s = yarn.cluster_state();
        assert_eq!(s.available.vcores, s.total.vcores);
    }

    #[test]
    fn engine_drains_with_no_pending_work() {
        // The tick loop must not keep the event queue alive forever.
        let mut e = Engine::new(1);
        let (_c, yarn) = test_cluster(&mut e);
        let id = yarn.submit_app(&mut e, "one", ResourceRequest::new(1, 1024), |eng, am| {
            am.finish(eng);
        });
        let end = e.run(); // would hang/never return if ticks self-perpetuated
        assert!(end.as_secs_f64() < 5.0);
        assert_eq!(yarn.app_state(id), AppState::Finished);
    }

    /// Seeded app mixes through task and AM node failures, preemption,
    /// `finish` and an AM releasing its own container: after every event,
    /// heartbeat ticks included, the running AM-vcore count equals the
    /// full walk over the app table.
    #[test]
    fn am_vcore_count_matches_the_full_walk() {
        use rp_sim::SimRng;
        let kills = Rc::new(std::cell::Cell::new((0, 0))); // (AM nodes, task nodes)
        let mut peak = 0;
        for seed in 1..=6 {
            let mut e = Engine::new(seed);
            let (_c, yarn) = test_cluster(&mut e);
            let mut rng = SimRng::new(seed);
            for i in 0..48 {
                let am_vcores = 1 + rng.index(2) as u32;
                let tasks = rng.index(4) as u32;
                let hold = SimDuration::from_secs_f64(rng.uniform(0.5, 15.0));
                let release_am = rng.chance(0.1);
                let at = SimDuration::from_secs_f64(rng.uniform(0.0, 40.0));
                let y = yarn.clone();
                e.schedule_in(at, move |eng| {
                    let y2 = y.clone();
                    // AMs prefer nodes 0 and 1, tasks node 3, so some
                    // nodes hold only task containers.
                    let req = ResourceRequest::new(am_vcores, 1024).on_node(NodeId(i % 2));
                    y.submit_app(eng, format!("a{i}"), req, move |eng, am| {
                        for t in 0..tasks {
                            let req = ResourceRequest::new(1 + t % 3, 1024 * (1 + t as u64 % 2))
                                .on_node(NodeId(3));
                            if t % 2 == 0 {
                                am.request_container_preemptible(eng, req, |_, _| {}, |_, _| {});
                            } else {
                                am.request_container(eng, req, |_, _| {});
                            }
                        }
                        if release_am {
                            let own = y2.inner.borrow().apps[&am.app_id()].am_container;
                            am.release_container(eng, own.expect("AM is running"));
                        }
                        let am2 = am.clone();
                        eng.schedule_in(hold, move |eng| am2.finish(eng));
                    });
                });
            }
            // A preemption every 3 s; at 12 s and 30 s a node holding an
            // AM fails, at 20 s a node holding only task containers.
            for k in 1..20 {
                let y = yarn.clone();
                let n = 1 + k as usize % 3;
                e.schedule_in(SimDuration::from_secs(3 * k), move |eng| {
                    y.preempt(eng, n);
                });
            }
            for (at, on_am_node) in [(12, true), (20, false), (30, true)] {
                let y = yarn.clone();
                let kills = kills.clone();
                e.schedule_in(SimDuration::from_secs(at), move |eng| {
                    let victim = {
                        let inner = y.inner.borrow();
                        let am_of = |c: &Container| inner.apps[&c.app].am_container == Some(c.id);
                        let hosts_am =
                            |n: NodeId| inner.containers.values().any(|c| c.node == n && am_of(c));
                        let hosts_task =
                            |n: NodeId| inner.containers.values().any(|c| c.node == n && !am_of(c));
                        inner.nms.iter().map(|nm| nm.node).find(|&n| {
                            if on_am_node {
                                hosts_am(n)
                            } else {
                                hosts_task(n) && !hosts_am(n)
                            }
                        })
                    };
                    if let Some(node) = victim {
                        y.fail_node(eng, node);
                        let (a, t) = kills.get();
                        kills.set(if on_am_node { (a + 1, t) } else { (a, t + 1) });
                    }
                });
            }
            let end = SimTime::from_secs_f64(90.0);
            while e.now() < end && e.step() {
                let inner = yarn.inner.borrow();
                assert_eq!(
                    inner.am_vcores_held,
                    inner.am_vcores_walk(),
                    "seed {seed} at {:?}",
                    e.now()
                );
                peak = peak.max(inner.am_vcores_held);
            }
        }
        // The mixes reach the maxAMShare limit (half of 32 vcores) and
        // fail both kinds of node.
        assert_eq!(peak, 16);
        let (am_nodes, task_nodes) = kills.get();
        assert!(am_nodes == 12 && task_nodes > 0, "{am_nodes} {task_nodes}");
    }
}
