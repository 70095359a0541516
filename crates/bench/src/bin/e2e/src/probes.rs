//! Per-layer probes: small fixed loops against one layer's public API,
//! each timed on its own, so a layer's cost per operation is visible even
//! on a workload where that layer does little. Every probe runs `REPS`
//! times and reports the median.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use rp_hpc::{Cluster, MachineSpec, NodeId};
use rp_pilot::{CoordinationConfig, CoordinationStore, PilotId};
use rp_sim::{Engine, FairLink, MetricsRegistry, SimDuration, SimTime, SpanId, Trace};
use rp_yarn::{ResourceRequest, YarnCluster, YarnConfig};

use crate::record::{median, Recorder};
use crate::workloads::{analyse, Datasets};

const REPS: usize = 5;

/// Points in the dataset of the kernel probe (run on the workloads that
/// have no analysis unit of their own).
pub const KERNEL_PROBE_POINTS: usize = 50_000;

/// One probe value per per-layer probe metric, by name.
pub fn run() -> Result<Vec<(&'static str, f64)>, String> {
    Ok(vec![
        ("engine.probe_ns_per_event", repeat(engine_ns_per_event)?),
        ("trace.probe_ns_per_span", repeat(trace_ns_per_span)?),
        (
            "metrics.probe_ns_per_labeled_incr",
            repeat(metrics_ns_per_labeled_incr)?,
        ),
        (
            "store.probe_ns_per_roundtrip",
            repeat(store_ns_per_roundtrip)?,
        ),
        ("yarn.probe_us_per_app", repeat(yarn_us_per_app)?),
        ("link.probe_us_per_flow", repeat(link_us_per_flow)?),
    ])
}

fn repeat(probe: fn() -> Result<f64, String>) -> Result<f64, String> {
    let samples = (0..REPS).map(|_| probe()).collect::<Result<Vec<_>, _>>()?;
    Ok(median(&samples))
}

/// `schedule_in` + `step` with 512 events pending.
fn engine_ns_per_event() -> Result<f64, String> {
    const PENDING: u64 = 512;
    const EVENTS: u64 = 200_000;
    fn tick(e: &mut Engine) {
        e.schedule_in(SimDuration::from_micros(PENDING), tick);
    }
    let mut e = Engine::new(1);
    for i in 0..PENDING {
        e.schedule_in(SimDuration::from_micros(i), tick);
    }
    let t0 = Instant::now();
    for _ in 0..EVENTS {
        if !e.step() {
            return Err("engine probe drained".into());
        }
    }
    Ok(t0.elapsed().as_secs_f64() * 1e9 / EVENTS as f64)
}

/// One span begun and ended.
fn trace_ns_per_span() -> Result<f64, String> {
    const SPANS: u64 = 100_000;
    let mut trace = Trace::enabled();
    let t0 = Instant::now();
    for i in 0..SPANS {
        let t = SimTime(i);
        let id = trace.span_begin(t, "probe", "probe.span", SpanId::NONE);
        trace.span_end(t, id);
    }
    let ns = t0.elapsed().as_secs_f64() * 1e9 / SPANS as f64;
    if trace.span_count() as u64 != SPANS {
        return Err("trace probe lost spans".into());
    }
    Ok(ns)
}

/// One labelled counter increment, cycling through the unit states.
fn metrics_ns_per_labeled_incr() -> Result<f64, String> {
    const INCRS: usize = 200_000;
    const STATES: [&str; 8] = [
        "New",
        "UmScheduling",
        "StagingInput",
        "AgentScheduling",
        "Executing",
        "StagingOutput",
        "Done",
        "Failed",
    ];
    let mut m = MetricsRegistry::enabled();
    let t0 = Instant::now();
    for i in 0..INCRS {
        m.incr_labeled("unit.transitions", &[("state", STATES[i % STATES.len()])]);
    }
    let ns = t0.elapsed().as_secs_f64() * 1e9 / INCRS as f64;
    if m.counter("unit.transitions{state=Done}") != (INCRS / STATES.len()) as u64 {
        return Err("metrics probe miscounted".into());
    }
    Ok(ns)
}

/// One fenced state-update round trip through the coordination store,
/// from send to applied.
fn store_ns_per_roundtrip() -> Result<f64, String> {
    const TRIPS: u64 = 20_000;
    let mut e = Engine::new(1);
    let store = CoordinationStore::new(CoordinationConfig::default());
    let pilot = PilotId(0);
    let applied = Rc::new(Cell::new(0u64));
    let t0 = Instant::now();
    for _ in 0..TRIPS {
        let applied = applied.clone();
        let epoch = store.lease_epoch(pilot);
        store.roundtrip_from(&mut e, pilot, epoch, move |_| {
            applied.set(applied.get() + 1)
        });
    }
    e.run();
    let ns = t0.elapsed().as_secs_f64() * 1e9 / TRIPS as f64;
    if applied.get() != TRIPS {
        return Err("store probe lost round trips".into());
    }
    Ok(ns)
}

/// The 64-app YARN cycle of `benches/micro.rs`: submit, AM up, one
/// container requested, released, app finished.
fn yarn_us_per_app() -> Result<f64, String> {
    const APPS: u32 = 64;
    let t0 = Instant::now();
    let mut e = Engine::new(1);
    let cluster = Cluster::new(MachineSpec::localhost());
    let nodes: Vec<NodeId> = cluster.node_ids().collect();
    let yarn = YarnCluster::start(&mut e, &cluster, &nodes, YarnConfig::test_profile());
    let finished = Rc::new(Cell::new(0u32));
    for i in 0..APPS {
        let finished = finished.clone();
        yarn.submit_app(
            &mut e,
            format!("a{i}"),
            ResourceRequest::new(1, 1024),
            move |eng, am| {
                let am2 = am.clone();
                am.request_container(eng, ResourceRequest::new(1, 1024), move |eng, cont| {
                    am2.release_container(eng, cont.id);
                    am2.finish(eng);
                    finished.set(finished.get() + 1);
                });
            },
        );
    }
    e.run();
    let us = t0.elapsed().as_secs_f64() * 1e6 / f64::from(APPS);
    if finished.get() != APPS {
        return Err("YARN probe apps did not all finish".into());
    }
    Ok(us)
}

/// 200 concurrent flows on one max–min fair link.
fn link_us_per_flow() -> Result<f64, String> {
    const FLOWS: u32 = 200;
    let t0 = Instant::now();
    let mut e = Engine::new(1);
    let link = FairLink::new("probe", 1e9);
    let done = Rc::new(Cell::new(0u32));
    for i in 0..FLOWS {
        let done = done.clone();
        link.transfer(&mut e, 1e6 + f64::from(i) * 1e4, f64::INFINITY, move |_| {
            done.set(done.get() + 1)
        });
    }
    e.run();
    let us = t0.elapsed().as_secs_f64() * 1e6 / f64::from(FLOWS);
    if done.get() != FLOWS {
        return Err("link probe flows did not all finish".into());
    }
    Ok(us)
}

/// The analysis unit's kernels at probe size, called directly (not
/// through the simulator), timed as detail spans of `rec`.
pub fn kernels(seed: u64, rec: &Recorder) {
    let data = Datasets::generate(seed, KERNEL_PROBE_POINTS);
    for g in 0..REPS {
        analyse(&data, g, rec);
    }
}
