//! Benchmark harness: fixed-seed scenario runners emitting schema-versioned
//! `BENCH_<scenario>.json` artifacts, plus the exact-diff regression gate
//! that `bench_compare` applies against checked-in baselines.
//!
//! Each scenario runs a deterministic simulation under tracing and reduces
//! it to a *virtual* result — a [`RunReport`] (phase breakdown +
//! critical-path attribution), the metrics counters, and a makespan scalar
//! — repeated `reps` times with the self-timed pattern for *host*
//! wall-clock statistics. The virtual part is bit-reproducible, so the
//! gate compares it exactly; host time is hardware-dependent, so it is
//! only bounded by a generous factor.

use std::collections::BTreeMap;
use std::time::Instant;

use rp_analytics::{fig6_session_config, run_rp_kmeans, run_rp_yarn_kmeans, KMeansCalibration};
use rp_pilot::{
    install_faults, install_faults_multi, when_all_done, ComputeUnitDescription, PilotDescription,
    PilotManager, PilotState, Session, SessionConfig, UmScheduler, UnitManager, UnitState,
    WorkSpec,
};
use rp_sim::stats::percentile;
use rp_sim::{
    aggregate_roots, critical_path_run, json, Engine, FaultEvent, FaultKind, FaultPlan,
    MetricsSnapshot, RunReport, SimDuration, SimTime,
};

use crate::{run_pilot_startup, run_unit_startup, Variant};

/// Bumped whenever the artifact layout changes; `bench_compare` refuses to
/// diff mismatched schemas.
pub const SCHEMA_VERSION: u32 = 1;

/// The scenarios of the suite, in run order. The `scale_*` family measures
/// raw engine/agent/coordination throughput (events per second, peak live
/// spans) on large plain-pilot bags; `scale_10k` is skipped under
/// `bench_suite --quick`.
pub const SCENARIO_NAMES: [&str; 8] = [
    "fig5_startup",
    "fig5_unit_startup",
    "fig6_kmeans",
    "fault_matrix",
    "pilot_loss",
    "partition_heal",
    "scale_1k",
    "scale_10k",
];

/// `BENCH_<scenario>.json`.
pub fn artifact_file_name(scenario: &str) -> String {
    format!("BENCH_{scenario}.json")
}

/// The deterministic reduction of one scenario run.
pub struct VirtualResult {
    pub report: RunReport,
    pub counters: BTreeMap<String, u64>,
    /// Sum of the per-case critical-path makespans (one scalar that moves
    /// whenever any case's end-to-end virtual time moves).
    pub makespan_s: f64,
}

impl VirtualResult {
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"makespan_s\":{:.6},\"counters\":{{", self.makespan_s);
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", rp_sim::trace::escape_json(k)));
        }
        out.push_str(&format!("}},\"report\":{}}}", self.report.to_json()));
        out
    }
}

fn merge_counters(into: &mut BTreeMap<String, u64>, snap: &MetricsSnapshot) {
    for (k, v) in &snap.counters {
        *into.entry(k.clone()).or_insert(0) += v;
    }
}

/// Fold one traced engine into the accumulating virtual result: a phase
/// row, a critical-path summary, and the counters.
fn absorb_run(out: &mut VirtualResult, label: &str, e: &Engine, breakdown_root: &str) {
    out.report
        .push(label, aggregate_roots(&e.trace, breakdown_root));
    let cp = critical_path_run(&e.trace).expect("completed roots");
    out.makespan_s += cp.makespan_secs();
    out.report.push_critical(label, &cp);
    merge_counters(&mut out.counters, &e.metrics.snapshot());
}

fn new_result(title: &str) -> VirtualResult {
    VirtualResult {
        report: RunReport::new(title),
        counters: BTreeMap::new(),
        makespan_s: 0.0,
    }
}

/// Fig. 5 (main): pilot startup across the paper's five machine × variant
/// cases, one fixed-seed run each.
pub fn run_fig5_startup() -> VirtualResult {
    let mut out = new_result("fig5_startup: pilot startup, seed 1000, 1 node");
    let cases: [(&str, Variant); 5] = [
        ("xsede.stampede", Variant::Rp),
        ("xsede.stampede", Variant::RpYarnModeI),
        ("xsede.wrangler", Variant::Rp),
        ("xsede.wrangler", Variant::RpYarnModeI),
        ("xsede.wrangler", Variant::RpYarnModeII),
    ];
    for (machine, variant) in cases {
        let (e, _) = run_pilot_startup(machine, variant, 1, 1000, SessionConfig::default());
        absorb_run(
            &mut out,
            &format!("{machine} {}", variant.label()),
            &e,
            "pilot.run",
        );
    }
    out
}

/// Fig. 5 (inset): Compute-Unit startup on Stampede, plain vs Mode I.
pub fn run_fig5_unit_startup() -> VirtualResult {
    let mut out = new_result("fig5_unit_startup: CU startup on stampede, seed 1000");
    for variant in [Variant::Rp, Variant::RpYarnModeI] {
        let (e, _) = run_unit_startup("xsede.stampede", variant, 1000, SessionConfig::default());
        absorb_run(&mut out, variant.label(), &e, "unit.run");
    }
    out
}

/// Fig. 6: one representative K-means cell (10k points, 8 tasks, Stampede)
/// for both systems.
pub fn run_fig6_kmeans() -> VirtualResult {
    let mut out = new_result("fig6_kmeans: 10k pts / 5k clusters, 8 tasks, stampede");
    let cal = KMeansCalibration::default();
    let scenario = rp_analytics::SCENARIOS[0];
    let seed = 10_000 + 8;
    let mut e = Engine::with_trace(seed);
    let session = Session::new(fig6_session_config());
    run_rp_kmeans(&mut e, &session, "xsede.stampede", 8, scenario, &cal);
    absorb_run(&mut out, "RADICAL-Pilot", &e, "unit.run");
    let mut e = Engine::with_trace(seed + 1);
    let session = Session::new(fig6_session_config());
    run_rp_yarn_kmeans(&mut e, &session, "xsede.stampede", 8, scenario, &cal);
    absorb_run(&mut out, "RP-YARN", &e, "unit.run");
    out
}

/// Parameters of the fault-matrix scenario (exposed so tests can perturb
/// one and assert the regression gate trips).
#[derive(Debug, Clone, Copy)]
pub struct FaultMatrixParams {
    pub seed: u64,
    pub units: usize,
    pub sleep_s: u64,
    pub intensity: usize,
}

impl Default for FaultMatrixParams {
    fn default() -> Self {
        FaultMatrixParams {
            seed: 1,
            units: 12,
            sleep_s: 600,
            intensity: 6,
        }
    }
}

/// Fault matrix: a 4-node sleep workload under a generated fault plan;
/// recovery must still complete every unit.
pub fn run_fault_matrix(params: FaultMatrixParams) -> VirtualResult {
    let mut out = new_result(&format!(
        "fault_matrix: {} sleep units, seed {}, intensity {}",
        params.units, params.seed, params.intensity
    ));
    let mut e = Engine::with_trace(params.seed);
    let session = Session::new(SessionConfig::test_profile());
    let pm = PilotManager::new(&session);
    let pilot = pm
        .submit(
            &mut e,
            PilotDescription::new("xsede.stampede", 4, SimDuration::from_secs(14_400)),
        )
        .expect("pilot submits");
    let plan = FaultPlan::generate(
        params.seed,
        SimDuration::from_secs(1800),
        4,
        params.intensity,
    );
    let injector = install_faults(&mut e, &plan, &pilot);
    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);
    let units = um.submit_units(
        &mut e,
        (0..params.units)
            .map(|i| {
                ComputeUnitDescription::new(
                    format!("u{i}"),
                    1,
                    WorkSpec::Sleep(SimDuration::from_secs(params.sleep_s)),
                )
            })
            .collect(),
    );
    while units.iter().any(|u| !u.state().is_final()) {
        assert!(e.step(), "simulation stalled with live units");
    }
    pm.cancel(&mut e, &pilot);
    e.run();
    assert!(
        units.iter().all(|u| u.state() == UnitState::Done),
        "under-budget fault plan must not lose units"
    );
    out.counters
        .insert("bench.faults_injected".into(), injector.injected() as u64);
    absorb_run(&mut out, "stampede 4-node sleep", &e, "unit.run");
    out
}

// The pilot-loss scenario: seed, unit count, per-unit sleep, and when
// the first pilot's batch job is killed (kill variant only).
const PILOT_LOSS_SEED: u64 = 1;
const PILOT_LOSS_UNITS: usize = 16;
const PILOT_LOSS_SLEEP_S: u64 = 300;
const PILOT_LOSS_KILL_AT_S: u64 = 180;

/// One pilot-loss case: 2 three-node pilots with cross-pilot failover,
/// optionally killing the first pilot mid-run. Returns the traced engine
/// and the workload makespan.
fn pilot_loss_case(kill: bool) -> (Engine, f64, u64) {
    let mut e = Engine::with_trace(PILOT_LOSS_SEED);
    let session = Session::new(SessionConfig::test_profile());
    let pm = PilotManager::new(&session);
    let pilots: Vec<_> = (0..2)
        .map(|_| {
            pm.submit(
                &mut e,
                PilotDescription::new("xsede.stampede", 3, SimDuration::from_secs(14_400)),
            )
            .expect("pilot submits")
        })
        .collect();
    let mut um = UnitManager::new(&session, UmScheduler::RoundRobin);
    for p in &pilots {
        um.add_pilot(p);
    }
    um.enable_leases(
        &mut e,
        SimDuration::from_secs(60),
        SimDuration::from_secs(30),
    );
    if kill {
        let victim = pilots[0].clone();
        e.schedule_in(SimDuration::from_secs(PILOT_LOSS_KILL_AT_S), move |eng| {
            victim.kill(eng)
        });
    }
    let units = um.submit_units(
        &mut e,
        (0..PILOT_LOSS_UNITS)
            .map(|i| {
                ComputeUnitDescription::new(
                    format!("u{i}"),
                    1,
                    WorkSpec::Sleep(SimDuration::from_secs(PILOT_LOSS_SLEEP_S)),
                )
            })
            .collect(),
    );
    while units.iter().any(|u| !u.state().is_final()) {
        assert!(e.step(), "simulation stalled with live units");
    }
    assert!(
        units.iter().all(|u| u.state() == UnitState::Done),
        "every unit must fail over to the surviving pilot"
    );
    if kill {
        assert_eq!(pilots[0].state(), PilotState::Failed);
        assert!(
            units.iter().all(|u| u.pilot() == Some(pilots[1].id())),
            "survivors must all land on the surviving pilot"
        );
        assert!(um.rebinds() > 0, "the kill must force re-binds");
    }
    for p in &pilots {
        if !p.state().is_final() {
            pm.cancel(&mut e, p);
        }
    }
    e.run();
    let makespan = units
        .iter()
        .map(|u| u.times().done.expect("unit finished"))
        .max()
        .expect("the scenario submits units")
        .as_secs_f64();
    (e, makespan, um.rebinds())
}

/// Pilot loss: the same 2-pilot workload with and without a mid-run
/// pilot kill. The kill variant must still complete every unit (on the
/// survivor) and its makespan overhead is the price of failover.
pub fn run_pilot_loss() -> VirtualResult {
    let mut out = new_result(&format!(
        "pilot_loss: {PILOT_LOSS_UNITS} sleep units on 2 pilots, \
         kill at {PILOT_LOSS_KILL_AT_S}s, seed {PILOT_LOSS_SEED}"
    ));
    let (e, baseline_s, _) = pilot_loss_case(false);
    absorb_run(&mut out, "2 pilots, no loss", &e, "unit.run");
    let (e, kill_s, rebinds) = pilot_loss_case(true);
    absorb_run(&mut out, "pilot 0 killed mid-run", &e, "unit.run");
    assert!(
        kill_s > baseline_s,
        "failover must cost makespan ({kill_s} vs {baseline_s})"
    );
    out.counters
        .insert("bench.pilot_loss_rebinds".into(), rebinds);
    out.counters.insert(
        "bench.failover_overhead_ms".into(),
        ((kill_s - baseline_s) * 1e3).round() as u64,
    );
    out
}

// The partition-heal scenario: seed, unit count, when pilot 0 is
// partitioned from the coordination store and for how long, the lease
// duration granted to agents, and the re-bind grace on top of lease
// expiry (it must exceed the heartbeat period so a live agent always
// self-fences before re-binding).
const PARTITION_HEAL_SEED: u64 = 1;
const PARTITION_HEAL_UNITS: usize = 16;
const PARTITION_AT_S: u64 = 50;
const PARTITION_S: u64 = 300;
const PARTITION_LEASE_S: u64 = 60;
const PARTITION_GRACE_S: u64 = 30;

/// One partition-heal case: 2 three-node pilots under lease-based
/// ownership, optionally partitioning pilot 0 from the coordination store
/// mid-run. Returns the traced engine, the workload makespan, the re-bind
/// count and the stale-epoch rejection count.
fn partition_heal_case(partition: bool) -> (Engine, f64, u64, u64) {
    let mut e = Engine::with_trace(PARTITION_HEAL_SEED);
    let session = Session::new(SessionConfig::test_profile());
    let pm = PilotManager::new(&session);
    let pilots: Vec<_> = (0..2)
        .map(|_| {
            pm.submit(
                &mut e,
                PilotDescription::new("xsede.stampede", 3, SimDuration::from_secs(14_400)),
            )
            .expect("pilot submits")
        })
        .collect();
    let mut um = UnitManager::new(&session, UmScheduler::RoundRobin);
    for p in &pilots {
        um.add_pilot(p);
    }
    um.enable_leases(
        &mut e,
        SimDuration::from_secs(PARTITION_LEASE_S),
        SimDuration::from_secs(PARTITION_GRACE_S),
    );
    let injector = if partition {
        // Asymmetric split-brain: the agent keeps receiving batches but
        // its renewals and completions are held, so its lease lapses, it
        // self-fences, and its held writes are rejected post-heal at a
        // stale fencing epoch. `PARTITION_AT_S` must be past agent
        // bootstrap (Active by ~47 s on the test profile) or the event is
        // dropped.
        let plan = FaultPlan {
            events: vec![FaultEvent {
                at: SimTime::from_secs_f64(PARTITION_AT_S as f64),
                kind: FaultKind::Partition {
                    pilot: 0,
                    duration: SimDuration::from_secs(PARTITION_S),
                    symmetric: false,
                },
            }],
        };
        Some(install_faults_multi(&mut e, &plan, &pilots))
    } else {
        None
    };
    // Staggered short sleeps: the first wave completes inside the
    // partition-to-fence window so its completions are held.
    let units = um.submit_units(
        &mut e,
        (0..PARTITION_HEAL_UNITS)
            .map(|i| {
                ComputeUnitDescription::new(
                    format!("u{i}"),
                    1,
                    WorkSpec::Sleep(SimDuration::from_secs(15 + (i as u64 % 4) * 10)),
                )
            })
            .collect(),
    );
    while units.iter().any(|u| !u.state().is_final()) {
        assert!(e.step(), "simulation stalled with live units");
    }
    for p in &pilots {
        if !p.state().is_final() {
            pm.cancel(&mut e, p);
        }
    }
    // Drain past the heal: the zombie's held completions must be
    // delivered (and fenced), not left pending.
    e.run();
    if let Some(injector) = injector {
        assert_eq!(injector.injected(), 1, "the partition must inject");
    }
    assert!(
        units.iter().all(|u| u.state() == UnitState::Done),
        "every unit must survive the partition"
    );
    let makespan = units
        .iter()
        .map(|u| u.times().done.expect("unit finished"))
        .max()
        .expect("the scenario submits units")
        .as_secs_f64();
    let fence_rejections = session.store().fence_rejections();
    (e, makespan, um.rebinds(), fence_rejections)
}

/// Partition heal: the same 2-pilot lease-owned workload with and without
/// an asymmetric mid-run partition of pilot 0. The partitioned variant
/// must re-bind the victim's units, reject every stale-epoch write from
/// the healed zombie, and still complete every unit; its makespan
/// overhead is the price of split-brain recovery.
pub fn run_partition_heal() -> VirtualResult {
    let mut out = new_result(&format!(
        "partition_heal: {PARTITION_HEAL_UNITS} sleep units on 2 lease-owned pilots, \
         partition at {PARTITION_AT_S}s for {PARTITION_S}s, seed {PARTITION_HEAL_SEED}"
    ));
    let (e, baseline_s, baseline_rebinds, baseline_fences) = partition_heal_case(false);
    absorb_run(&mut out, "2 pilots, no partition", &e, "unit.run");
    assert_eq!(baseline_rebinds, 0, "quiet leases must not re-bind");
    assert_eq!(baseline_fences, 0, "quiet leases must not fence");
    let (e, healed_s, rebinds, fence_rejections) = partition_heal_case(true);
    absorb_run(&mut out, "pilot 0 partitioned mid-run", &e, "unit.run");
    assert!(rebinds > 0, "the partition must force re-binds");
    assert!(
        fence_rejections > 0,
        "the healed zombie must be fenced at a stale epoch"
    );
    assert!(
        healed_s > baseline_s,
        "split-brain recovery must cost makespan ({healed_s} vs {baseline_s})"
    );
    out.counters
        .insert("bench.partition_rebinds".into(), rebinds);
    out.counters
        .insert("bench.fence_rejections".into(), fence_rejections);
    out.counters.insert(
        "bench.partition_overhead_ms".into(),
        ((healed_s - baseline_s) * 1e3).round() as u64,
    );
    out
}

/// Parameters of the scale scenario family.
#[derive(Debug, Clone, Copy)]
pub struct ScaleParams {
    pub seed: u64,
    pub units: usize,
    pub nodes: u32,
}

impl ScaleParams {
    pub fn scale_1k() -> Self {
        ScaleParams {
            seed: 7,
            units: 1_000,
            nodes: 16,
        }
    }

    pub fn scale_10k() -> Self {
        ScaleParams {
            seed: 7,
            units: 10_000,
            nodes: 32,
        }
    }
}

/// Scale: a large bag of one-core sleep units through a plain pilot,
/// exercising the slab event queue, the dense agent slots, the batched
/// coordination store and the chunked trace sink at volume. Beyond the
/// usual phase/critical-path reduction, the virtual counters pin the
/// event count, peak live (unended) spans and the event-slab high-water
/// mark, so a structural regression (span leak, event-queue growth) trips
/// the exact-diff gate even if virtual time is unchanged.
pub fn run_scale(params: ScaleParams) -> VirtualResult {
    let mut out = new_result(&format!(
        "scale: {} one-core sleep units on a plain {}-node pilot, seed {}",
        params.units, params.nodes, params.seed
    ));
    let mut e = Engine::with_trace(params.seed);
    let session = Session::new(SessionConfig::test_profile());
    let pm = PilotManager::new(&session);
    let pilot = pm
        .submit(
            &mut e,
            PilotDescription::new(
                "xsede.stampede",
                params.nodes,
                SimDuration::from_secs(14_400),
            ),
        )
        .expect("pilot submits");
    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);
    let units = um.submit_units(
        &mut e,
        (0..params.units)
            .map(|i| {
                ComputeUnitDescription::new(
                    format!("u{i}"),
                    1,
                    WorkSpec::Sleep(SimDuration::from_secs(60 + (i as u64 % 13) * 15)),
                )
            })
            .collect(),
    );
    // Event-driven completion: polling the unit vector per step would
    // itself be O(units × events) and dominate the measurement.
    let sess = session.clone();
    let p = pilot.clone();
    when_all_done(&mut e, &units, move |eng| {
        PilotManager::new(&sess).cancel(eng, &p);
    });
    e.run();
    assert!(
        units.iter().all(|u| u.state() == UnitState::Done),
        "scale run must complete every unit"
    );
    out.counters
        .insert("scale.units".into(), params.units as u64);
    out.counters
        .insert("scale.events_executed".into(), e.events_executed());
    out.counters.insert(
        "scale.peak_live_spans".into(),
        e.trace.peak_live_spans() as u64,
    );
    out.counters
        .insert("scale.event_slab_slots".into(), e.slab_len() as u64);
    absorb_run(
        &mut out,
        &format!("{} sleep units", params.units),
        &e,
        "unit.run",
    );
    out
}

/// Run the named scenario once.
pub fn run_scenario(name: &str) -> VirtualResult {
    match name {
        "fig5_startup" => run_fig5_startup(),
        "fig5_unit_startup" => run_fig5_unit_startup(),
        "fig6_kmeans" => run_fig6_kmeans(),
        "fault_matrix" => run_fault_matrix(FaultMatrixParams::default()),
        "pilot_loss" => run_pilot_loss(),
        "partition_heal" => run_partition_heal(),
        "scale_1k" => run_scale(ScaleParams::scale_1k()),
        "scale_10k" => run_scale(ScaleParams::scale_10k()),
        other => panic!("unknown scenario {other:?} (expected one of {SCENARIO_NAMES:?})"),
    }
}

/// One emitted benchmark artifact.
pub struct BenchArtifact {
    pub scenario: String,
    pub reps: u64,
    /// JSON of the (rep-invariant) virtual result.
    pub virtual_json: String,
    /// Host wall-clock per repetition, milliseconds.
    pub host_ms: Vec<f64>,
    /// Virtual events executed per repetition (rep-invariant), when the
    /// scenario reports a `scale.events_executed` counter. Turns the host
    /// median into an events-per-second throughput figure.
    pub virtual_events: Option<u64>,
    /// Markdown rendering of the report (for PR descriptions).
    pub markdown: String,
}

impl BenchArtifact {
    pub fn median_ms(&self) -> f64 {
        percentile(&self.host_ms, 50.0)
    }

    /// Virtual events divided by the median host wall-clock, when the
    /// scenario reports an event count. Host-dependent, so it lives in the
    /// artifact's `host` section (informational, not exact-diffed).
    pub fn events_per_sec(&self) -> Option<f64> {
        self.virtual_events
            .map(|n| n as f64 / (self.median_ms() / 1e3).max(1e-9))
    }

    /// The full schema-versioned artifact document.
    pub fn to_json(&self) -> String {
        let mut throughput = self
            .events_per_sec()
            .map(|eps| format!(",\"events_per_sec\":{eps:.1}"))
            .unwrap_or_default();
        // The host's core count, recorded so timings from different
        // machines are read against the hardware that produced them.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        throughput.push_str(&format!(",\"cores\":{cores}"));
        format!(
            "{{\"schema\":{SCHEMA_VERSION},\"scenario\":\"{}\",\"virtual\":{},\
             \"host\":{{\"reps\":{},\"median_ms\":{:.3},\"p95_ms\":{:.3},\"min_ms\":{:.3},\"max_ms\":{:.3}{throughput}}}}}",
            rp_sim::trace::escape_json(&self.scenario),
            self.virtual_json,
            self.reps,
            self.median_ms(),
            percentile(&self.host_ms, 95.0),
            self.host_ms.iter().cloned().fold(f64::INFINITY, f64::min),
            self.host_ms.iter().cloned().fold(0.0_f64, f64::max),
        )
    }
}

/// Time `run` over `reps` repetitions. The virtual result must be
/// bit-identical across repetitions (the sim is deterministic); the host
/// clock is the only thing allowed to vary.
#[expect(
    clippy::disallowed_methods,
    reason = "the harness measures host time per repetition"
)]
pub fn bench_with(scenario: &str, reps: u64, run: impl Fn() -> VirtualResult) -> BenchArtifact {
    assert!(reps >= 1);
    let mut host_ms = Vec::with_capacity(reps as usize);
    let mut virtual_json: Option<String> = None;
    let mut virtual_events = None;
    let mut markdown = String::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        let v = run();
        host_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let vj = v.to_json();
        match &virtual_json {
            None => {
                markdown = v.report.to_markdown();
                virtual_events = v.counters.get("scale.events_executed").copied();
                virtual_json = Some(vj);
            }
            Some(prev) => assert_eq!(
                prev, &vj,
                "{scenario}: virtual result drifted between repetitions"
            ),
        }
    }
    BenchArtifact {
        scenario: scenario.to_string(),
        reps,
        virtual_json: virtual_json.expect("reps >= 1, so one repetition ran"),
        host_ms,
        virtual_events,
        markdown,
    }
}

/// Run + time the named scenario.
pub fn bench_scenario(name: &str, reps: u64) -> BenchArtifact {
    bench_with(name, reps, || run_scenario(name))
}

/// Absolute host-time allowance on top of the factor, so sub-millisecond
/// baselines don't flake.
pub const HOST_SLACK_MS: f64 = 250.0;

/// Diff a candidate artifact against a baseline. The `schema`, `scenario`
/// and entire `virtual` subtree must match *exactly* (the sim is
/// deterministic); the candidate's host median may not exceed
/// `baseline × host_factor + HOST_SLACK_MS`. Returns every difference
/// found, so a drift report names all moved fields at once.
pub fn compare_artifacts(
    baseline: &str,
    candidate: &str,
    host_factor: f64,
) -> Result<(), Vec<String>> {
    let b = json::parse(baseline).map_err(|e| vec![format!("baseline does not parse: {e}")])?;
    let c = json::parse(candidate).map_err(|e| vec![format!("candidate does not parse: {e}")])?;
    let mut errs = Vec::new();
    for key in ["schema", "scenario"] {
        match (b.get(key), c.get(key)) {
            (Some(x), Some(y)) if x == y => {}
            (x, y) => errs.push(format!(
                "{key}: baseline {} != candidate {}",
                brief_opt(x),
                brief_opt(y)
            )),
        }
    }
    match (b.get("virtual"), c.get("virtual")) {
        (Some(vb), Some(vc)) => diff_values("virtual", vb, vc, &mut errs),
        (x, y) => errs.push(format!(
            "virtual: baseline {} / candidate {}",
            brief_opt(x),
            brief_opt(y)
        )),
    }
    let median = |v: &json::Value| {
        v.get("host")
            .and_then(|h| h.get("median_ms"))
            .and_then(json::Value::as_f64)
    };
    match (median(&b), median(&c)) {
        (Some(bm), Some(cm)) => {
            let limit = bm * host_factor + HOST_SLACK_MS;
            if cm > limit {
                errs.push(format!(
                    "host.median_ms: {cm:.1} exceeds limit {limit:.1} \
                     (baseline {bm:.1} × {host_factor} + {HOST_SLACK_MS})"
                ));
            }
        }
        (x, y) => errs.push(format!(
            "host.median_ms missing (baseline {x:?}, candidate {y:?})"
        )),
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

/// Recursive exact diff of two JSON values, reporting dotted paths.
fn diff_values(path: &str, a: &json::Value, b: &json::Value, out: &mut Vec<String>) {
    use json::Value;
    match (a, b) {
        (Value::Object(fa), Value::Object(fb)) => {
            for (k, va) in fa {
                match b.get(k) {
                    Some(vb) => diff_values(&format!("{path}.{k}"), va, vb, out),
                    None => out.push(format!("{path}.{k}: missing in candidate")),
                }
            }
            for (k, _) in fb {
                if a.get(k).is_none() {
                    out.push(format!("{path}.{k}: unexpected in candidate"));
                }
            }
        }
        (Value::Array(xa), Value::Array(xb)) => {
            if xa.len() != xb.len() {
                out.push(format!(
                    "{path}: length {} != {} in candidate",
                    xa.len(),
                    xb.len()
                ));
            }
            for (i, (va, vb)) in xa.iter().zip(xb).enumerate() {
                diff_values(&format!("{path}[{i}]"), va, vb, out);
            }
        }
        _ if a == b => {}
        _ => out.push(format!("{path}: expected {}, got {}", brief(a), brief(b))),
    }
}

fn brief(v: &json::Value) -> String {
    use json::Value;
    match v {
        Value::Null => "null".into(),
        Value::Bool(b) => b.to_string(),
        Value::Number(n) => format!("{n}"),
        Value::String(s) => format!("{s:?}"),
        Value::Array(items) => format!("[{} items]", items.len()),
        Value::Object(fields) => format!("{{{} fields}}", fields.len()),
    }
}

fn brief_opt(v: Option<&json::Value>) -> String {
    v.map(brief).unwrap_or_else(|| "<absent>".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> FaultMatrixParams {
        FaultMatrixParams {
            seed: 3,
            units: 4,
            sleep_s: 300,
            intensity: 2,
        }
    }

    #[test]
    fn artifact_has_schema_and_parses() {
        let art = bench_with("fault_matrix", 2, || run_fault_matrix(small_params()));
        let doc = art.to_json();
        let v = json::parse(&doc).expect("artifact parses");
        assert_eq!(v.get("schema").and_then(json::Value::as_f64), Some(1.0));
        assert_eq!(
            v.get("scenario").and_then(json::Value::as_str),
            Some("fault_matrix")
        );
        let virt = v.get("virtual").expect("virtual section");
        assert!(
            virt.get("makespan_s")
                .and_then(json::Value::as_f64)
                .unwrap()
                > 0.0
        );
        assert!(virt
            .get("counters")
            .and_then(json::Value::as_object)
            .is_some());
        let report = virt.get("report").expect("report");
        assert!(!report
            .get("critical")
            .and_then(|c| c.as_array())
            .unwrap()
            .is_empty());
        let host = v.get("host").expect("host section");
        assert_eq!(host.get("reps").and_then(json::Value::as_f64), Some(2.0));
        // trace_diff and bench_compare read these keys by name; pin the
        // exact set so a renamed or added host field is a visible change.
        let keys: Vec<&str> = host
            .as_object()
            .expect("host object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            ["reps", "median_ms", "p95_ms", "min_ms", "max_ms", "cores"]
        );
        assert!(host
            .get("median_ms")
            .and_then(json::Value::as_f64)
            .is_some());
        assert!(art.markdown.contains("| case |"));
    }

    #[test]
    fn gate_accepts_identical_run_and_trips_on_perturbed_parameter() {
        let baseline = bench_with("fault_matrix", 1, || run_fault_matrix(small_params()));
        // Same parameters, fresh run: virtual part is bit-identical.
        let same = bench_with("fault_matrix", 1, || run_fault_matrix(small_params()));
        compare_artifacts(&baseline.to_json(), &same.to_json(), 1000.0)
            .expect("identical virtual results must pass the gate");
        // Perturb one scenario parameter: longer sleeps move phase totals
        // and the critical-path length, so the gate must trip.
        let perturbed = bench_with("fault_matrix", 1, || {
            run_fault_matrix(FaultMatrixParams {
                sleep_s: 330,
                ..small_params()
            })
        });
        let errs = compare_artifacts(&baseline.to_json(), &perturbed.to_json(), 1000.0)
            .expect_err("virtual drift must fail the gate");
        assert!(
            errs.iter().any(|e| e.starts_with("virtual.")),
            "drift must be attributed to the virtual subtree: {errs:?}"
        );
        assert!(
            errs.iter()
                .any(|e| e.contains("makespan_s") || e.contains("report")),
            "{errs:?}"
        );
    }

    #[test]
    fn gate_trips_on_host_regression() {
        let art = bench_with("fault_matrix", 1, || run_fault_matrix(small_params()));
        let baseline = art.to_json();
        // A candidate identical except for a pathological host median.
        let candidate = {
            let median = art.median_ms();
            baseline.replace(
                &format!("\"median_ms\":{median:.3}"),
                &format!("\"median_ms\":{:.3}", median * 10.0 + 10_000.0),
            )
        };
        assert_ne!(baseline, candidate);
        let errs = compare_artifacts(&baseline, &candidate, 4.0)
            .expect_err("host regression must fail the gate");
        assert!(
            errs.iter().any(|e| e.contains("host.median_ms")),
            "{errs:?}"
        );
    }

    #[test]
    fn compare_rejects_malformed_and_mismatched_documents() {
        assert!(compare_artifacts("not json", "{}", 4.0).is_err());
        let a =
            r#"{"schema":1,"scenario":"x","virtual":{"makespan_s":1.0},"host":{"median_ms":1.0}}"#;
        let b =
            r#"{"schema":2,"scenario":"x","virtual":{"makespan_s":1.0},"host":{"median_ms":1.0}}"#;
        let errs = compare_artifacts(a, b, 4.0).unwrap_err();
        assert!(errs.iter().any(|e| e.starts_with("schema")), "{errs:?}");
    }
}
