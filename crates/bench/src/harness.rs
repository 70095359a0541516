//! Benchmark harness: fixed-seed scenario runners emitting schema-versioned
//! `BENCH_<scenario>.json` artifacts, plus the host gate that
//! `bench_compare` applies against checked-in baselines.
//!
//! Each scenario runs a deterministic simulation under tracing and reduces
//! it to a *virtual* result — a [`RunReport`] (phase breakdown +
//! critical-path attribution), the metrics counters, and a makespan scalar
//! — repeated `reps` times with the self-timed pattern for *host*
//! wall-clock statistics. The virtual part is bit-reproducible, so
//! `tests/fixed_point.rs` compares it exactly with the checked-in
//! artifacts; host time is hardware-dependent, so [`compare_artifacts`]
//! only bounds it by a generous factor.

use std::collections::BTreeMap;
use std::time::Instant;

use rp_analytics::{fig6_session_config, run_rp_kmeans, run_rp_yarn_kmeans, KMeansCalibration};
use rp_pilot::{
    ComputeUnitDescription, PilotDescription, PilotState, Session, SessionConfig, UmScheduler,
    UnitHandle, UnitState,
};
use rp_sim::stats::percentile;
use rp_sim::{
    aggregate_roots, critical_path_run, json, Engine, FaultEvent, FaultKind, FaultPlan,
    MetricsSnapshot, RunReport, SimDuration, SimTime,
};

use crate::scenario::{self, sleep_units, Run, Scenario};
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
/// one and check what the attribution names).
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

/// A Stampede pilot of `nodes` plain nodes with a 4 h walltime.
fn stampede(nodes: u32) -> PilotDescription {
    PilotDescription::new("xsede.stampede", nodes, SimDuration::from_secs(14_400))
}

/// When the last unit finished, in virtual seconds.
fn makespan_s(units: &[UnitHandle]) -> f64 {
    units
        .iter()
        .map(|u| u.times().done.expect("unit finished"))
        .max()
        .expect("the scenario submits units")
        .as_secs_f64()
}

/// Fault matrix: a 4-node sleep workload under a generated fault plan;
/// recovery must still complete every unit.
pub fn run_fault_matrix(params: FaultMatrixParams) -> VirtualResult {
    let mut out = new_result(&format!(
        "fault_matrix: {} sleep units, seed {}, intensity {}",
        params.units, params.seed, params.intensity
    ));
    let scenario = Scenario {
        config: SessionConfig::test_profile(),
        pilots: vec![stampede(4)],
        scheduler: UmScheduler::Direct,
        leases: None,
        faults: Some(FaultPlan::generate(
            params.seed,
            SimDuration::from_secs(1800),
            4,
            params.intensity,
        )),
        units: sleep_units(params.units, "u", |_| params.sleep_s),
    };
    let run = scenario::run(&scenario, Engine::with_trace(params.seed)).expect("fault matrix");
    assert!(
        run.units.iter().all(|u| u.state() == UnitState::Done),
        "under-budget fault plan must not lose units"
    );
    let injected = run
        .injector
        .as_ref()
        .expect("the plan is installed")
        .injected();
    out.counters
        .insert("bench.faults_injected".into(), injected as u64);
    absorb_run(&mut out, "stampede 4-node sleep", &run.engine, "unit.run");
    out
}

// The pilot-loss scenario: seed, unit count, per-unit sleep, and when
// the first pilot's batch job is killed (kill variant only).
const PILOT_LOSS_SEED: u64 = 1;
const PILOT_LOSS_UNITS: usize = 16;
const PILOT_LOSS_SLEEP_S: u64 = 300;
const PILOT_LOSS_KILL_AT_S: u64 = 180;

/// The set-up `pilot_loss` and `partition_heal` share: 2 three-node
/// Stampede pilots on the test profile, RoundRobin placement and
/// lease-based failover (`lease_s`, `grace_s`), with the one `fault`, if
/// any, installed before the units are submitted. The run
/// cancels the pilots still live, then drains the engine, so a healed
/// zombie's held completions are delivered (and fenced), not left
/// pending. Every unit must end `Done`.
fn lease_case(
    seed: u64,
    lease_s: u64,
    grace_s: u64,
    units: Vec<ComputeUnitDescription>,
    fault: Option<FaultEvent>,
) -> Run {
    let scenario = Scenario {
        config: SessionConfig::test_profile(),
        pilots: vec![stampede(3); 2],
        scheduler: UmScheduler::RoundRobin,
        leases: Some((
            SimDuration::from_secs(lease_s),
            SimDuration::from_secs(grace_s),
        )),
        faults: fault.map(|ev| FaultPlan { events: vec![ev] }),
        units,
    };
    let run = scenario::run(&scenario, Engine::with_trace(seed)).expect("lease case");
    assert!(
        run.units.iter().all(|u| u.state() == UnitState::Done),
        "every unit must end Done"
    );
    if let Some(injector) = &run.injector {
        assert_eq!(injector.injected(), 1, "the fault must inject");
    }
    run
}

/// One pilot-loss case: the two-pilot lease set-up, optionally killing
/// the first pilot mid-run.
fn pilot_loss_case(kill: bool) -> Run {
    let kill = kill.then(|| FaultEvent {
        at: SimTime::from_secs_f64(PILOT_LOSS_KILL_AT_S as f64),
        kind: FaultKind::PilotKill { pilot: 0 },
    });
    lease_case(
        PILOT_LOSS_SEED,
        60,
        30,
        sleep_units(PILOT_LOSS_UNITS, "u", |_| PILOT_LOSS_SLEEP_S),
        kill,
    )
}

/// Pilot loss: the same 2-pilot workload with and without a mid-run
/// pilot kill. The kill variant must still complete every unit (on the
/// survivor) and its makespan overhead is the price of failover.
pub fn run_pilot_loss() -> VirtualResult {
    let mut out = new_result(&format!(
        "pilot_loss: {PILOT_LOSS_UNITS} sleep units on 2 pilots, \
         kill at {PILOT_LOSS_KILL_AT_S}s, seed {PILOT_LOSS_SEED}"
    ));
    let base = pilot_loss_case(false);
    absorb_run(&mut out, "2 pilots, no loss", &base.engine, "unit.run");
    let kill = pilot_loss_case(true);
    absorb_run(&mut out, "pilot 0 killed mid-run", &kill.engine, "unit.run");
    assert_eq!(kill.pilots[0].state(), PilotState::Failed);
    assert!(
        kill.units
            .iter()
            .all(|u| u.pilot() == Some(kill.pilots[1].id())),
        "survivors must all land on the surviving pilot"
    );
    let rebinds = kill.um.rebinds();
    assert!(rebinds > 0, "the kill must force re-binds");
    let (baseline_s, kill_s) = (makespan_s(&base.units), makespan_s(&kill.units));
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

/// One partition-heal case: the two-pilot lease set-up, optionally
/// partitioning pilot 0 from the coordination store mid-run.
fn partition_heal_case(partition: bool) -> Run {
    // Asymmetric split-brain: the agent keeps receiving batches but its
    // renewals and completions are held, so its lease lapses, it
    // self-fences, and its held writes are rejected post-heal at a stale
    // fencing epoch. `PARTITION_AT_S` must be past agent bootstrap
    // (Active by ~47 s on the test profile) or the event is dropped.
    let partition = partition.then(|| FaultEvent {
        at: SimTime::from_secs_f64(PARTITION_AT_S as f64),
        kind: FaultKind::Partition {
            pilot: 0,
            duration: SimDuration::from_secs(PARTITION_S),
            symmetric: false,
        },
    });
    // Staggered short sleeps: the first wave completes inside the
    // partition-to-fence window so its completions are held.
    lease_case(
        PARTITION_HEAL_SEED,
        PARTITION_LEASE_S,
        PARTITION_GRACE_S,
        sleep_units(PARTITION_HEAL_UNITS, "u", |i| 15 + (i as u64 % 4) * 10),
        partition,
    )
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
    let base = partition_heal_case(false);
    absorb_run(&mut out, "2 pilots, no partition", &base.engine, "unit.run");
    assert_eq!(base.um.rebinds(), 0, "quiet leases must not re-bind");
    assert_eq!(
        base.session.store().fence_rejections(),
        0,
        "quiet leases must not fence"
    );
    let healed = partition_heal_case(true);
    absorb_run(
        &mut out,
        "pilot 0 partitioned mid-run",
        &healed.engine,
        "unit.run",
    );
    let (rebinds, fence_rejections) = (
        healed.um.rebinds(),
        healed.session.store().fence_rejections(),
    );
    assert!(rebinds > 0, "the partition must force re-binds");
    assert!(
        fence_rejections > 0,
        "the healed zombie must be fenced at a stale epoch"
    );
    let (baseline_s, healed_s) = (makespan_s(&base.units), makespan_s(&healed.units));
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
/// mark, so a structural regression (span leak, event-queue growth) fails
/// the fixed-point test even if virtual time is unchanged.
pub fn run_scale(params: ScaleParams) -> VirtualResult {
    let mut out = new_result(&format!(
        "scale: {} one-core sleep units on a plain {}-node pilot, seed {}",
        params.units, params.nodes, params.seed
    ));
    let scenario = Scenario {
        config: SessionConfig::test_profile(),
        pilots: vec![stampede(params.nodes)],
        scheduler: UmScheduler::Direct,
        leases: None,
        faults: None,
        units: sleep_units(params.units, "u", |i| 60 + (i as u64 % 13) * 15),
    };
    let run = scenario::run(&scenario, Engine::with_trace(params.seed)).expect("scale run");
    assert!(
        run.units.iter().all(|u| u.state() == UnitState::Done),
        "scale run must complete every unit"
    );
    let e = &run.engine;
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
        e,
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
}

impl BenchArtifact {
    pub fn median_ms(&self) -> f64 {
        percentile(&self.host_ms, 50.0)
    }

    /// Virtual events divided by the median host wall-clock, when the
    /// scenario reports an event count. Host-dependent, so it lives in the
    /// artifact's `host` section (informational, not compared exactly).
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
    for _ in 0..reps {
        let t0 = Instant::now();
        let v = run();
        host_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let vj = v.to_json();
        match &virtual_json {
            None => {
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
    }
}

/// Run + time the named scenario.
pub fn bench_scenario(name: &str, reps: u64) -> BenchArtifact {
    bench_with(name, reps, || run_scenario(name))
}

/// The candidate's host median may exceed the baseline's by this factor,
/// plus [`HOST_SLACK_MS`], before the gate trips: loose enough for a
/// different machine, tight enough for a 10× slowdown.
pub const HOST_FACTOR: f64 = 4.0;

/// Absolute host-time allowance on top of the factor, so sub-millisecond
/// baselines don't flake.
pub const HOST_SLACK_MS: f64 = 250.0;

/// The host gate: the candidate artifact must have the baseline's
/// `schema` and `scenario`, and its host median may not exceed
/// `baseline × HOST_FACTOR + HOST_SLACK_MS`. The `virtual` subtree is not
/// compared here: `tests/fixed_point.rs` pins it exactly. Returns every
/// failure found.
pub fn compare_artifacts(baseline: &str, candidate: &str) -> Result<(), Vec<String>> {
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
    let median = |v: &json::Value| {
        v.get("host")
            .and_then(|h| h.get("median_ms"))
            .and_then(json::Value::as_f64)
    };
    match (median(&b), median(&c)) {
        (Some(bm), Some(cm)) => {
            let limit = bm * HOST_FACTOR + HOST_SLACK_MS;
            if cm > limit {
                errs.push(format!(
                    "host.median_ms: {cm:.1} exceeds limit {limit:.1} \
                     (baseline {bm:.1} × {HOST_FACTOR} + {HOST_SLACK_MS})"
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

fn brief_opt(v: Option<&json::Value>) -> String {
    v.map(crate::diff::brief)
        .unwrap_or_else(|| "<absent>".into())
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
    }

    #[test]
    fn gate_accepts_identical_run_and_trips_on_perturbed_parameter() {
        let virt = |art: &BenchArtifact| {
            json::parse(&art.to_json())
                .expect("artifact parses")
                .get("virtual")
                .cloned()
                .expect("virtual section")
        };
        let baseline = bench_with("fault_matrix", 1, || run_fault_matrix(small_params()));
        // Same parameters, fresh run: the host gate passes and the virtual
        // part is bit-identical.
        let same = bench_with("fault_matrix", 1, || run_fault_matrix(small_params()));
        compare_artifacts(&baseline.to_json(), &same.to_json())
            .expect("an identical run passes the host gate");
        let mut moved = Vec::new();
        crate::diff::diff_values("virtual", &virt(&baseline), &virt(&same), &mut moved);
        assert!(moved.is_empty(), "{moved:?}");
        // Perturb one scenario parameter: longer sleeps move phase totals
        // and the critical-path length, so the exact virtual comparison
        // the fixed-point test applies must name the moved paths.
        let perturbed = bench_with("fault_matrix", 1, || {
            run_fault_matrix(FaultMatrixParams {
                sleep_s: 330,
                ..small_params()
            })
        });
        crate::diff::diff_values("virtual", &virt(&baseline), &virt(&perturbed), &mut moved);
        assert!(moved.iter().all(|e| e.starts_with("virtual.")), "{moved:?}");
        assert!(
            moved
                .iter()
                .any(|e| e.contains("makespan_s") || e.contains("report")),
            "{moved:?}"
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
        let errs = compare_artifacts(&baseline, &candidate)
            .expect_err("host regression must fail the gate");
        assert!(
            errs.iter().any(|e| e.contains("host.median_ms")),
            "{errs:?}"
        );
    }

    #[test]
    fn compare_rejects_malformed_and_mismatched_documents() {
        assert!(compare_artifacts("not json", "{}").is_err());
        let a =
            r#"{"schema":1,"scenario":"x","virtual":{"makespan_s":1.0},"host":{"median_ms":1.0}}"#;
        let b =
            r#"{"schema":2,"scenario":"x","virtual":{"makespan_s":1.0},"host":{"median_ms":1.0}}"#;
        let errs = compare_artifacts(a, b).unwrap_err();
        assert!(errs.iter().any(|e| e.starts_with("schema")), "{errs:?}");
    }
}
