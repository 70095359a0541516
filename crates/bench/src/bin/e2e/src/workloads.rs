//! The four workloads. Each is a batch: one client submits and waits, so
//! it is a closed loop with one client. Every input — unit durations,
//! HDFS file sizes, datasets — is drawn from the seed; the program only
//! ever sees the generated inputs.
//!
//! An iteration is `setup` (engine, session, pilots up to Active, inputs)
//! followed by `execute` (submit, run until every unit is final, reduce).
//! Correctness checks run after the timed region.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use rp_analytics::{
    gaussian_blobs, kmeans_mapreduce, kmeans_rdd, lloyd, lloyd_sequential, md_trajectory, pca,
    rmsd_series, Frame, Point3,
};
use rp_hdfs::StoragePolicy;
use rp_mapreduce::{MrCostModel, MrJobSpec, ShuffleBackend};
use rp_pilot::{
    install_faults_multi, when_all_done, AccessMode, ComputeUnitDescription, LossProfile,
    PilotDescription, PilotHandle, PilotManager, PilotState, Session, SessionConfig, UmScheduler,
    UnitHandle, UnitIoTarget, UnitManager, UnitState, WorkSpec,
};
use rp_sim::{
    aggregate_roots, critical_path_run, Engine, FaultEvent, FaultInjector, FaultKind, FaultPlan,
    SimDuration, SimRng, SimTime,
};
use rp_yarn::Resource;

use crate::record::Recorder;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    BagPlain,
    ModeIMapReduce,
    LeaseFailover,
    CoupledAnalytics,
}

pub const KINDS: [Kind; 4] = [
    Kind::BagPlain,
    Kind::ModeIMapReduce,
    Kind::LeaseFailover,
    Kind::CoupledAnalytics,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::BagPlain => "bag_plain",
            Kind::ModeIMapReduce => "modei_mapreduce",
            Kind::LeaseFailover => "lease_failover",
            Kind::CoupledAnalytics => "coupled_analytics",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        KINDS.into_iter().find(|k| k.name() == name)
    }

    /// Units per batch for the simulator workloads; points in the K-Means
    /// dataset for `coupled_analytics`.
    pub fn default_size(self) -> usize {
        match self {
            Kind::BagPlain => 100_000,
            Kind::ModeIMapReduce => 1_000,
            Kind::LeaseFailover => 8_000,
            Kind::CoupledAnalytics => 500_000,
        }
    }

    /// Smallest size at which the workload still does what it is for
    /// (for `lease_failover`: faults land mid-run).
    pub fn min_size(self) -> usize {
        match self {
            Kind::BagPlain | Kind::ModeIMapReduce => 1,
            Kind::LeaseFailover => 1_000,
            Kind::CoupledAnalytics => 5 * K,
        }
    }

    /// Virtual results repeat exactly for a seed. `coupled_analytics` is
    /// the exception: a `Native` unit's virtual duration is its measured
    /// host time.
    pub fn deterministic(self) -> bool {
        self != Kind::CoupledAnalytics
    }

    /// Whether the workload's host time is spent on the kernels' worker
    /// threads rather than on the simulator's one thread.
    pub fn multithreaded(self) -> bool {
        self == Kind::CoupledAnalytics
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    pub size: usize,
}

/// Per-layer counts of one iteration, keyed by metric name.
pub type Layer = BTreeMap<&'static str, f64>;

/// What one iteration produced.
pub struct Outcome {
    pub units: usize,
    pub done: usize,
    pub layer: Layer,
    /// Hash of every unit's final state and done time plus the makespan,
    /// for the workloads whose virtual results repeat exactly.
    pub fingerprint: Option<String>,
    pub failures: Vec<String>,
}

/// A simulation with its pilots submitted.
struct Sim {
    engine: Engine,
    session: Session,
    pm: PilotManager,
    um: UnitManager,
    pilots: Vec<PilotHandle>,
}

impl Sim {
    fn start(
        mut engine: Engine,
        config: SessionConfig,
        pilots: &[PilotDescription],
        scheduler: UmScheduler,
    ) -> Result<Sim, String> {
        let session = Session::new(config);
        let pm = PilotManager::new(&session);
        let mut um = UnitManager::new(&session, scheduler);
        let mut handles = Vec::with_capacity(pilots.len());
        for d in pilots {
            let p = pm
                .submit(&mut engine, d.clone())
                .map_err(|e| format!("pilot submission failed: {e}"))?;
            um.add_pilot(&p);
            handles.push(p);
        }
        Ok(Sim {
            engine,
            session,
            pm,
            um,
            pilots: handles,
        })
    }

    fn wait_active(&mut self) -> Result<(), String> {
        while self.pilots.iter().any(|p| p.state() != PilotState::Active) {
            if self.pilots.iter().any(|p| p.state().is_final()) {
                return Err("a pilot ended before becoming active".into());
            }
            if !self.engine.step() {
                return Err("simulation drained before the pilots became active".into());
            }
        }
        Ok(())
    }

    /// Step until every unit in `units` is final; after the last batch,
    /// cancel the surviving pilots and drain the simulation.
    fn run_until_final(&mut self, units: &[UnitHandle], last: bool) -> Result<(), String> {
        let finished = Rc::new(Cell::new(false));
        let flag = finished.clone();
        when_all_done(&mut self.engine, units, move |_| flag.set(true));
        while !finished.get() {
            if !self.engine.step() {
                return Err("simulation drained with live units".into());
            }
        }
        if last {
            for p in &self.pilots {
                if !p.state().is_final() {
                    self.pm.cancel(&mut self.engine, p);
                }
            }
            self.engine.run();
        }
        Ok(())
    }
}

/// Everything `execute` needs, built by `setup`.
pub struct Ready {
    kind: Kind,
    sim: Sim,
    /// Submitted one after another, each once the previous one is final.
    batches: Vec<Vec<ComputeUnitDescription>>,
    faults: Option<FaultInjector>,
    analysis: Option<Analysis>,
}

// ---- inputs ----

const BAG_NODES: u32 = 32;
const MR_NODES: u32 = 8;
const MR_INPUTS: usize = 4;
const MR_MAPS: u64 = 16;
const MR_REDUCERS: usize = 4;
const LEASE_PILOTS: usize = 4;
const MAX_REBINDS: u32 = 8;
const STAMPEDE_CORES: usize = 16;
const SLEEP_S: (u64, u64) = (60, 240);

/// Sleep durations for a bag, drawn from the seed.
fn sleep_units(seed: u64, n: usize) -> Vec<ComputeUnitDescription> {
    let mut rng = SimRng::new(seed ^ 0x05EE_DBA6);
    (0..n)
        .map(|i| {
            let secs = rng.uniform_u64(SLEEP_S.0, SLEEP_S.1);
            ComputeUnitDescription::new(
                format!("u{i}"),
                1,
                WorkSpec::Sleep(SimDuration::from_secs(secs)),
            )
        })
        .collect()
}

/// A walltime that comfortably outlasts `units` sleeps on `cores`, so no
/// unit is ever cut off by the batch system.
fn walltime(units: usize, cores: usize) -> SimDuration {
    let waves = units.div_ceil(cores.max(1)) as u64;
    SimDuration::from_secs(4 * waves * SLEEP_S.1 + 14_400)
}

/// Nodes per pilot for `lease_failover`: scaled with the bag so every
/// size runs the same number of waves (~31), and the partition (600 s)
/// and the kill (1,200 s) always land mid-run.
fn lease_nodes(units: usize) -> u32 {
    (units / 2_000).clamp(1, 8) as u32
}

pub fn setup(kind: Kind, p: &Params, rec: &Recorder) -> Result<Ready, String> {
    rec.phase("setup", || match kind {
        Kind::BagPlain => setup_bag(p),
        Kind::ModeIMapReduce => setup_mapreduce(p),
        Kind::LeaseFailover => setup_lease(p),
        Kind::CoupledAnalytics => setup_coupled(p, rec),
    })
}

fn setup_bag(p: &Params) -> Result<Ready, String> {
    let pilot = PilotDescription::new(
        "xsede.stampede",
        BAG_NODES,
        walltime(p.size, BAG_NODES as usize * STAMPEDE_CORES),
    );
    let mut sim = Sim::start(
        Engine::with_trace(p.seed),
        SessionConfig::test_profile(),
        &[pilot],
        UmScheduler::Direct,
    )?;
    sim.wait_active()?;
    Ok(Ready {
        kind: Kind::BagPlain,
        sim,
        batches: vec![sleep_units(p.seed, p.size)],
        faults: None,
        analysis: None,
    })
}

fn setup_mapreduce(p: &Params) -> Result<Ready, String> {
    let pilot = PilotDescription::new(
        "xsede.stampede",
        MR_NODES,
        SimDuration::from_secs(90 * 86_400),
    )
    .with_access(AccessMode::YarnModeI { with_hdfs: true });
    let mut sim = Sim::start(
        Engine::with_trace(p.seed),
        SessionConfig::default(),
        &[pilot],
        UmScheduler::Direct,
    )?;
    sim.wait_active()?;
    let hdfs = sim
        .pilots
        .first()
        .and_then(PilotHandle::agent)
        .and_then(|a| a.hadoop_env())
        .and_then(|env| env.hdfs)
        .ok_or("Mode I pilot came up without HDFS")?;
    // The inputs go through the HDFS write pipeline, each from another
    // datanode: MR_MAPS blocks per file (one map per block), the last one
    // partial, of a size drawn from the seed.
    let block = hdfs.block_size_bytes();
    let clients = hdfs.datanodes();
    let mut rng = SimRng::new(p.seed ^ 0x4D52);
    let written: Rc<RefCell<Vec<Result<(), String>>>> = Rc::default();
    let mut inputs = Vec::with_capacity(MR_INPUTS);
    for i in 0..MR_INPUTS {
        let path = format!("/e2e/input{i}");
        let bytes = (MR_MAPS - 1) * block + rng.uniform_u64(1, block);
        let client = *clients
            .get(i % clients.len().max(1))
            .ok_or("Mode I HDFS has no datanodes")?;
        let written = written.clone();
        hdfs.write_file(
            &mut sim.engine,
            client,
            &path,
            bytes,
            StoragePolicy::Default,
            move |_, r| {
                written
                    .borrow_mut()
                    .push(r.map(drop).map_err(|e| e.to_string()))
            },
        );
        inputs.push(path);
    }
    while written.borrow().len() < MR_INPUTS {
        if !sim.engine.step() {
            return Err("simulation drained while writing the HDFS input".into());
        }
    }
    if let Some(Err(e)) = written.borrow().iter().find(|r| r.is_err()) {
        return Err(format!("HDFS input: {e}"));
    }
    let units = (0..p.size)
        .map(|i| {
            ComputeUnitDescription::new(
                format!("mr{i}"),
                1,
                WorkSpec::MapReduce(MrJobSpec {
                    name: format!("mr{i}"),
                    input_path: inputs[i % MR_INPUTS].clone(),
                    num_reducers: MR_REDUCERS,
                    container: Resource::new(1, 1_024),
                    shuffle: ShuffleBackend::LocalDisk,
                    cost: MrCostModel::default(),
                }),
            )
        })
        .collect();
    Ok(Ready {
        kind: Kind::ModeIMapReduce,
        sim,
        batches: vec![units],
        faults: None,
        analysis: None,
    })
}

fn setup_lease(p: &Params) -> Result<Ready, String> {
    let mut config = SessionConfig::test_profile();
    config.coordination.loss = LossProfile {
        drop_p: 0.05,
        dup_p: 0.05,
        delay_jitter_ms: 25.0,
        seed: p.seed,
    };
    let nodes = lease_nodes(p.size);
    let cores = LEASE_PILOTS * nodes as usize * STAMPEDE_CORES;
    let pilot = PilotDescription::new("xsede.stampede", nodes, walltime(p.size, cores / 2));
    let mut sim = Sim::start(
        Engine::new(p.seed),
        config,
        &vec![pilot; LEASE_PILOTS],
        UmScheduler::RoundRobin,
    )?;
    sim.um.enable_leases(
        &mut sim.engine,
        SimDuration::from_secs(60),
        SimDuration::from_secs(30),
    );
    // Asymmetric split-brain on pilot 0: its renewals and completions are
    // held, its lease lapses, it self-fences, and its held writes are
    // rejected at a stale epoch after the heal. Pilot 1 is lost outright.
    let plan = FaultPlan {
        events: vec![
            FaultEvent {
                at: SimTime::from_secs_f64(600.0),
                kind: FaultKind::Partition {
                    pilot: 0,
                    duration: SimDuration::from_secs(900),
                    symmetric: false,
                },
            },
            FaultEvent {
                at: SimTime::from_secs_f64(1_200.0),
                kind: FaultKind::PilotKill { pilot: 1 },
            },
        ],
    };
    let faults = install_faults_multi(&mut sim.engine, &plan, &sim.pilots);
    sim.wait_active()?;
    let units = sleep_units(p.seed, p.size)
        .into_iter()
        .map(|d| d.with_max_rebinds(MAX_REBINDS))
        .collect();
    Ok(Ready {
        kind: Kind::LeaseFailover,
        sim,
        batches: vec![units],
        faults: Some(faults),
        analysis: None,
    })
}

// ---- coupled simulate → analyse ----

pub const K: usize = 32;
pub const LLOYD_ITERS: u32 = 5;
const MR_ITERS: u32 = 3;
const RDD_PARTITIONS: usize = 2;
const MR_MAP_TASKS: usize = 8;
const MR_KMEANS_REDUCERS: usize = 4;
const GENERATIONS: usize = 3;
const MD_UNITS: usize = 16;
const MD_NODES: u32 = 4;
const ATOMS: usize = 1_000;

/// The analysis inputs of `coupled_analytics`, generated from the seed.
pub struct Datasets {
    points: Vec<Point3>,
    /// The MapReduce formulation runs on this prefix of `points`.
    mr_len: usize,
    /// One trajectory per generation: the "simulation output" analysed.
    trajectories: Vec<Vec<Frame>>,
}

impl Datasets {
    pub fn generate(seed: u64, points: usize) -> Datasets {
        let frames = (points / 1_000).clamp(10, 500);
        Datasets {
            points: gaussian_blobs(points, K, 2.0, seed),
            mr_len: (points / 5).max(K),
            trajectories: (0..GENERATIONS as u64)
                .map(|g| md_trajectory(ATOMS, frames, 0.05, seed.wrapping_add(g)))
                .collect(),
        }
    }

    fn mr_points(&self) -> &[Point3] {
        &self.points[..self.mr_len]
    }

    /// Frames per trajectory.
    fn frames(&self) -> usize {
        self.trajectories.first().map_or(0, Vec::len)
    }
}

/// What one analysis unit computed.
pub struct KernelOutputs {
    lloyd: Vec<Point3>,
    rdd: Vec<Point3>,
    mapreduce: Vec<Point3>,
    rmsd: Vec<f64>,
    eigenvalues: [f64; 3],
}

/// The analysis unit's work: every kernel call is timed as a detail span
/// of `rec`, whose name is the per-layer metric it feeds.
pub fn analyse(data: &Datasets, generation: usize, rec: &Recorder) -> KernelOutputs {
    let lloyd_c = rec.detail("kernel.lloyd", || lloyd(&data.points, K, LLOYD_ITERS));
    let owned = data.points.clone();
    let rdd_c = rec.detail("kernel.rdd", || {
        kmeans_rdd(owned, K, LLOYD_ITERS, RDD_PARTITIONS)
    });
    let mr_c = rec.detail("kernel.mapreduce", || {
        kmeans_mapreduce(
            data.mr_points(),
            K,
            MR_ITERS,
            MR_MAP_TASKS,
            MR_KMEANS_REDUCERS,
        )
    });
    let traj = &data.trajectories[generation % data.trajectories.len()];
    let (rmsd, p) = rec.detail("kernel.trajectory", || (rmsd_series(traj, 0), pca(traj)));
    KernelOutputs {
        lloyd: lloyd_c.centroids,
        rdd: rdd_c.centroids,
        mapreduce: mr_c.centroids,
        rmsd,
        eigenvalues: p.eigenvalues,
    }
}

/// Sequential-Lloyd centroids the parallel formulations must match.
pub struct Reference {
    full: Vec<Point3>,
    mr: Vec<Point3>,
}

struct Analysis {
    data: Rc<Datasets>,
    outputs: Rc<RefCell<Vec<KernelOutputs>>>,
}

fn setup_coupled(p: &Params, rec: &Recorder) -> Result<Ready, String> {
    let pilot = PilotDescription::new(
        "xsede.wrangler",
        MD_NODES,
        SimDuration::from_secs(30 * 86_400),
    );
    let mut sim = Sim::start(
        Engine::new(p.seed),
        SessionConfig::default(),
        &[pilot],
        UmScheduler::Direct,
    )?;
    sim.wait_active()?;
    let data = Rc::new(Datasets::generate(p.seed, p.size));
    let outputs = Rc::new(RefCell::new(Vec::new()));
    let mut rng = SimRng::new(p.seed ^ 0x3D);
    let mut batches = Vec::with_capacity(2 * GENERATIONS);
    for g in 0..GENERATIONS {
        batches.push(
            (0..MD_UNITS)
                .map(|r| {
                    ComputeUnitDescription::new(
                        format!("md-g{g}-r{r}"),
                        16,
                        WorkSpec::Compute {
                            core_seconds: rng.uniform(2_400.0, 4_000.0),
                            read_mb: 50.0,
                            write_mb: 400.0,
                            io: UnitIoTarget::Lustre,
                        },
                    )
                    .with_mpi()
                })
                .collect(),
        );
        let (data, outputs, rec) = (data.clone(), outputs.clone(), rec.clone());
        batches.push(vec![ComputeUnitDescription::new(
            format!("analysis-g{g}"),
            8,
            WorkSpec::Native(Rc::new(move || {
                let out = analyse(&data, g, &rec);
                outputs.borrow_mut().push(out);
            })),
        )]);
    }
    Ok(Ready {
        kind: Kind::CoupledAnalytics,
        sim,
        batches,
        faults: None,
        analysis: Some(Analysis { data, outputs }),
    })
}

// ---- execution ----

/// Submit every batch, run each to completion, and reduce: gather every
/// unit's final state and done time, plus — when the in-program trace is
/// on — the Fig. 5 reduction (phase breakdown and critical path).
pub fn execute(ready: Ready, rec: &Recorder, reference: &mut Option<Reference>) -> Outcome {
    let Ready {
        kind,
        mut sim,
        batches,
        faults,
        analysis,
    } = ready;
    let mut failures = Vec::new();
    let mut units: Vec<UnitHandle> = Vec::new();
    let last = batches.len().saturating_sub(1);
    for (i, batch) in batches.into_iter().enumerate() {
        let submitted = rec.phase("submit", || sim.um.submit_units(&mut sim.engine, batch));
        let ran = rec.phase("run", || sim.run_until_final(&submitted, i == last));
        units.extend(submitted);
        if let Err(e) = ran {
            failures.push(e);
            break;
        }
    }
    let (finals, critical) = rec.phase("reduce", || {
        let finals: Vec<(UnitState, Option<SimTime>)> =
            units.iter().map(|u| (u.state(), u.times().done)).collect();
        let critical = sim.engine.trace.is_enabled().then(|| {
            let phases = aggregate_roots(&sim.engine.trace, "unit.run");
            let path = critical_path_run(&sim.engine.trace);
            (phases.total_secs(), path.map(|c| c.makespan_secs()))
        });
        (finals, critical)
    });

    // Checks, after the timed region.
    let done = finals.iter().filter(|(s, _)| *s == UnitState::Done).count();
    if done != units.len() {
        failures.push(format!(
            "{} of {} units not Done",
            units.len() - done,
            units.len()
        ));
    }
    let completed: u64 = sim
        .pilots
        .iter()
        .filter_map(PilotHandle::agent)
        .map(|a| a.units_completed())
        .sum();
    if completed != units.len() as u64 {
        failures.push(format!(
            "agents completed {completed} units, expected {}",
            units.len()
        ));
    }
    if let Some((phase_total, path)) = critical {
        match path {
            Some(makespan) if makespan > 0.0 && phase_total > 0.0 => {}
            _ => failures.push("Fig. 5 reduction found no critical path".into()),
        }
    }
    let store = sim.session.store();
    let rebinds = sim.um.rebinds();
    if kind == Kind::LeaseFailover {
        if store.dup_applies_ignored() != store.msgs_duplicated() {
            failures.push(format!(
                "{} duplicate applies ignored but {} messages duplicated",
                store.dup_applies_ignored(),
                store.msgs_duplicated()
            ));
        }
        if store.fence_rejections() == 0 {
            failures.push("the partitioned pilot was never fenced".into());
        }
        if rebinds == 0 {
            failures.push("no unit was re-bound".into());
        }
        if faults.as_ref().map(FaultInjector::injected) != Some(2) {
            failures.push("the partition and the kill did not both fire".into());
        }
    }
    if let Some(a) = &analysis {
        check_analysis(a, reference, &mut failures);
    }

    let n = units.len().max(1) as f64;
    let e = &sim.engine;
    let attempts: u64 = units.iter().map(|u| u64::from(u.attempts())).sum();
    let layer: Layer = [
        ("engine.events", e.events_executed() as f64),
        ("engine.slab_slots", e.slab_len() as f64),
        ("trace.spans", e.trace.span_count() as f64),
        ("trace.peak_live_spans", e.trace.peak_live_spans() as f64),
        ("store.docs_written", store.docs_written() as f64),
        ("store.polls", store.polls() as f64),
        ("store.msgs_dropped", store.msgs_dropped() as f64),
        ("store.msgs_duplicated", store.msgs_duplicated() as f64),
        (
            "store.dup_applies_ignored",
            store.dup_applies_ignored() as f64,
        ),
        ("store.lease_renewals", store.lease_renewals() as f64),
        ("store.fence_rejections", store.fence_rejections() as f64),
        ("store.partition_holds", store.partition_holds() as f64),
        ("store.dedup_backlog", store.dedup_backlog() as f64),
        ("um.rebinds", rebinds as f64),
        ("um.rebind_ratio", rebinds as f64 / n),
        ("agent.units_completed", completed as f64),
        ("agent.attempts_per_unit", attempts as f64 / n),
        (
            "yarn.apps_submitted",
            e.metrics.counter("yarn.apps_submitted") as f64,
        ),
        ("mr.map_tasks", e.metrics.counter("mr.map_tasks") as f64),
        (
            "mr.shuffle_bytes",
            e.metrics.counter("mr.shuffle_bytes") as f64,
        ),
        (
            "hdfs.blocks_written",
            e.metrics.counter("hdfs.blocks_written") as f64,
        ),
    ]
    .into_iter()
    .collect();

    Outcome {
        units: units.len(),
        done,
        layer,
        fingerprint: kind.deterministic().then(|| fingerprint(&finals)),
        failures,
    }
}

/// FNV-1a over every unit's final state and done time (µs), in
/// submission order, then the makespan.
fn fingerprint(finals: &[(UnitState, Option<SimTime>)]) -> String {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    let mut makespan = 0;
    for (state, done) in finals {
        let t = done.map_or(u64::MAX, |t| t.0);
        makespan = makespan.max(done.map_or(0, |t| t.0));
        eat(&[*state as u8]);
        eat(&t.to_le_bytes());
    }
    eat(&makespan.to_le_bytes());
    format!("{h:016x}:{makespan}")
}

fn check_analysis(a: &Analysis, reference: &mut Option<Reference>, failures: &mut Vec<String>) {
    let data = &a.data;
    let r = reference.get_or_insert_with(|| Reference {
        full: lloyd_sequential(&data.points, K, LLOYD_ITERS).centroids,
        mr: lloyd_sequential(data.mr_points(), K, MR_ITERS).centroids,
    });
    let outputs = a.outputs.borrow();
    if outputs.len() != GENERATIONS {
        failures.push(format!(
            "{} of {GENERATIONS} analysis units ran",
            outputs.len()
        ));
    }
    for (g, out) in outputs.iter().enumerate() {
        for (label, got, want) in [
            ("lloyd", &out.lloyd, &r.full),
            ("rdd", &out.rdd, &r.full),
            ("mapreduce", &out.mapreduce, &r.mr),
        ] {
            if !centroids_match(got, want) {
                failures.push(format!(
                    "generation {g}: {label} centroids differ from lloyd_sequential"
                ));
            }
        }
        if out.rmsd.len() != data.frames() || out.rmsd.first() != Some(&0.0) {
            failures.push(format!("generation {g}: malformed RMSD series"));
        }
        if !out.eigenvalues.iter().all(|v| v.is_finite() && *v >= 0.0) {
            failures.push(format!("generation {g}: PCA eigenvalues not finite"));
        }
    }
}

/// Equal within 1e-9 relative, coordinate by coordinate.
fn centroids_match(got: &[Point3], want: &[Point3]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(a, b)| {
            a.iter()
                .zip(b)
                .all(|(x, y)| (x - y).abs() <= 1e-9 * x.abs().max(y.abs()))
        })
}
