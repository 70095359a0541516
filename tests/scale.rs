//! Scale tier: a 10k-unit fixed-seed bag through a plain 32-node pilot,
//! asserting the properties the scaling work (interned labels, chunked
//! trace sink, slab event queue, batched coordination traffic) must hold
//! at volume:
//!
//!   1. every unit reaches a terminal state (all `Done` — no faults);
//!   2. side effects are exactly-once: one attempt, one `unit.exec` span
//!      and one completion count per unit;
//!   3. a re-run with the same seed is bit-identical (spans, metrics,
//!      event count, final clock);
//!   4. peak live (unended) spans, the event-slab high-water mark and the
//!      coordination dedup backlog stay bounded — the O(1)-per-event
//!      working-set guarantees.
//!
//! `SCALE_UNITS` overrides the unit count, and `CI_SCALE=1` drives a
//! 100k-unit run through the same assertions (see ci.sh).
//!
//! A second tier runs a MapReduce bag through a Mode I (YARN + HDFS)
//! pilot, where every unit is admitted against the ResourceManager's
//! capacity and submitted as its own YARN application. It runs a tenth
//! of `SCALE_UNITS` (200 by default): each unit is a whole MapReduce job.

use hadoop_hpc::pilot::*;
use hadoop_hpc::sim::{Engine, SimDuration, SimTime};
use hadoop_hpc::{hdfs, mapreduce, yarn};
use rp_bench::scenario::{run, sleep_units, Scenario};

fn scale_units_env() -> Option<usize> {
    std::env::var("SCALE_UNITS")
        .ok()
        .and_then(|v| v.parse().ok())
}

fn scale_units() -> usize {
    scale_units_env().unwrap_or(10_000)
}

/// Same seed, same everything: spans, metrics, event count, final clock
/// and every unit's done time.
fn assert_replay_identical(e1: &Engine, units1: &[UnitHandle], e2: &Engine, units2: &[UnitHandle]) {
    assert!(
        e1.trace.iter_spans().eq(e2.trace.iter_spans()),
        "span streams must be bit-identical across replays"
    );
    assert_eq!(e1.metrics.snapshot(), e2.metrics.snapshot());
    assert_eq!(e1.events_executed(), e2.events_executed());
    assert_eq!(e1.now(), e2.now());
    let done_times =
        |us: &[UnitHandle]| -> Vec<Option<SimTime>> { us.iter().map(|u| u.times().done).collect() };
    assert_eq!(done_times(units1), done_times(units2));
}

const NODES: u32 = 32;
const CORES_PER_NODE: usize = 16; // xsede.stampede

/// Run `n` one-core sleep units of mixed durations to completion on a
/// plain pilot. Returns the drained engine, the units, and the
/// coordination store's dedup backlog at quiescence.
fn scale_run(seed: u64, n: usize) -> (Engine, Vec<UnitHandle>, usize) {
    // Walltime sized to the workload so draining never kicks in: n units
    // averaging 150 core-seconds over 512 cores, plus generous startup.
    let walltime = 7_200 + (n as u64 * 300) / (NODES as u64 * CORES_PER_NODE as u64);
    let scenario = Scenario {
        config: SessionConfig::test_profile(),
        pilots: vec![PilotDescription::new(
            "xsede.stampede",
            NODES,
            SimDuration::from_secs(walltime),
        )],
        scheduler: UmScheduler::Direct,
        leases: None,
        faults: None,
        units: sleep_units(n, "u", |i| 60 + (i as u64 % 13) * 15),
    };
    let run = run(&scenario, Engine::with_trace(seed)).expect("the scale run completes");
    let backlog = run.session.store().dedup_backlog();
    (run.engine, run.units, backlog)
}

#[test]
fn scale_run_completes_bounded_and_replays_bit_identically() {
    let n = scale_units();
    let seed = 0x5CA1E;
    let (e1, units, backlog) = scale_run(seed, n);

    // (1) All-terminal completion: a fault-free run finishes everything.
    assert!(
        units.iter().all(|u| u.state() == UnitState::Done),
        "every unit must reach Done"
    );

    // (2) Exactly-once side effects: one attempt, one recorded completion
    // and one exec span per unit; nothing leaks past quiescence.
    assert!(
        units.iter().all(|u| u.attempts() == 1),
        "fault-free run must not retry"
    );
    assert_eq!(e1.metrics.counter("agent.units_completed"), n as u64);
    let tr = &e1.trace;
    let execs = tr
        .iter_spans()
        .filter(|s| tr.span_name(s) == "unit.exec")
        .count();
    assert_eq!(execs, n, "exactly one unit.exec span per unit");
    assert_eq!(tr.live_spans(), 0, "no span left open at quiescence");

    // (4) Bounded working set. Every submitted-but-unfinished unit holds
    // its root + one phase span open, so the peak tracks 2×units plus the
    // executing window — but never more. The event slab must stay near
    // the concurrency level (free-list reuse), orders of magnitude below
    // the events executed; the batched coordination store must end fully
    // watermark-compacted.
    let cores = NODES as usize * CORES_PER_NODE;
    let peak = tr.peak_live_spans();
    assert!(
        peak <= 2 * n + 4 * cores + 64,
        "peak live spans {peak} exceeds cap for {n} units"
    );
    let slab = e1.slab_len();
    assert!(
        slab <= 8 * cores + 256,
        "event slab grew to {slab} slots — free-list reuse broken?"
    );
    // The slab tracks concurrency (≈ core count), not history — but only
    // runs well past the core count make that ratio meaningful; the 1k
    // smoke executes ~5k events against ~512 slots.
    if n >= 10_000 {
        assert!(
            (slab as u64) < e1.events_executed() / 10,
            "slab {slab} not far below {} events executed",
            e1.events_executed()
        );
    }
    assert_eq!(backlog, 0, "dedup set must compact into the watermark");

    // (3) Bit-identical replay: same seed, same everything.
    let (e2, units2, _) = scale_run(seed, n);
    assert_replay_identical(&e1, &units, &e2, &units2);
}

const MR_NODES: u32 = 8;
const MR_INPUTS: usize = 4;

fn mode_i_units() -> usize {
    scale_units_env().map_or(200, |n| n / 10)
}

/// Run `n` MapReduce units (4 maps, 2 reducers each) to completion on an
/// 8-node Mode I pilot with HDFS.
fn mode_i_run(seed: u64, n: usize) -> (Engine, Vec<UnitHandle>) {
    let mut e = Engine::with_trace(seed);
    let session = Session::new(SessionConfig::test_profile());
    let pm = PilotManager::new(&session);
    let pilot = pm
        .submit(
            &mut e,
            PilotDescription::new(
                "xsede.stampede",
                MR_NODES,
                SimDuration::from_secs(30 * 86_400),
            )
            .with_access(AccessMode::YarnModeI { with_hdfs: true }),
        )
        .expect("pilot submits");
    while pilot.state() != PilotState::Active {
        assert!(e.step(), "Mode I pilot never became active");
    }
    let fs = pilot
        .agent()
        .and_then(|a| a.hadoop_env())
        .and_then(|env| env.hdfs)
        .expect("Mode I pilot runs HDFS");
    for i in 0..MR_INPUTS {
        fs.create_synthetic(
            &format!("/scale/in{i}"),
            512 * 1024 * 1024,
            hdfs::StoragePolicy::Default,
        )
        .expect("input fits HDFS");
    }
    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);
    let units = um.submit_units(
        &mut e,
        (0..n)
            .map(|i| {
                ComputeUnitDescription::new(
                    format!("mr{i}"),
                    1,
                    WorkSpec::MapReduce(mapreduce::MrJobSpec {
                        name: format!("mr{i}"),
                        input_path: format!("/scale/in{}", i % MR_INPUTS),
                        num_reducers: 2,
                        container: yarn::Resource::new(1, 1_024),
                        shuffle: mapreduce::ShuffleBackend::LocalDisk,
                        cost: mapreduce::MrCostModel::default(),
                    }),
                )
            })
            .collect(),
    );
    let sess = session.clone();
    let p = pilot.clone();
    when_all_done(&mut e, &units, move |eng| {
        PilotManager::new(&sess).cancel(eng, &p);
    });
    e.run();
    (e, units)
}

#[test]
fn mode_i_mapreduce_bag_completes_and_replays_bit_identically() {
    let n = mode_i_units();
    let seed = 0x40DE1;
    let (e1, units) = mode_i_run(seed, n);
    assert!(
        units.iter().all(|u| u.state() == UnitState::Done),
        "every MapReduce unit must reach Done"
    );
    assert!(
        units.iter().all(|u| u.attempts() == 1),
        "fault-free run must not retry"
    );
    assert_eq!(e1.metrics.counter("yarn.apps_submitted"), n as u64);
    assert_eq!(e1.metrics.counter("agent.units_completed"), n as u64);

    let (e2, units2) = mode_i_run(seed, n);
    assert_replay_identical(&e1, &units, &e2, &units2);
}
