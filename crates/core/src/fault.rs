//! Bridge between the sim-core fault injector and the Pilot layer.
//!
//! [`install_faults_multi`] wires a [`FaultPlan`] to a set of pilots:
//! every scheduled fault is dispatched to a pilot's agent (once it is
//! Active), which owns the recovery paths — dead-node detection via the
//! Heartbeat Monitor, retry with capped exponential backoff, YARN/HDFS
//! failure propagation for Mode I pilots.

use std::cell::Cell;

use rp_sim::{Engine, FaultInjector, FaultKind, FaultPlan};

use crate::manager::PilotHandle;

/// Install `plan` against a set of pilots and return the injector (for
/// fault counting or registering extra handlers). Faults that fire
/// before a pilot's agent is up are dropped — a fault plan normally
/// targets the workload phase, not bootstrap. [`FaultKind::PilotKill`] kills
/// `pilots[pilot % len]` outright (batch-job loss);
/// [`FaultKind::Partition`] cuts `pilots[pilot % len]`'s agent off from
/// the coordination store for the window's duration; every other fault
/// kind targets one pilot's agent, rotating round-robin so a multi-pilot
/// session degrades evenly.
pub fn install_faults_multi(
    engine: &mut Engine,
    plan: &FaultPlan,
    pilots: &[PilotHandle],
) -> FaultInjector {
    assert!(!pilots.is_empty(), "install_faults_multi needs a pilot");
    let injector = FaultInjector::new();
    let pilots: Vec<PilotHandle> = pilots.to_vec();
    let cursor = Cell::new(0usize);
    injector.on_fault(move |eng, kind| {
        if let FaultKind::PilotKill { pilot } = kind {
            pilots[pilot % pilots.len()].kill(eng);
            return;
        }
        if let FaultKind::Partition { pilot, .. } = kind {
            // Targeted, not round-robin: the plan names the victim so a
            // grid can guarantee heal-after-rebind zombie scenarios.
            if let Some(agent) = pilots[pilot % pilots.len()].agent() {
                agent.apply_fault(eng, kind);
            }
            return;
        }
        let i = cursor.get();
        cursor.set((i + 1) % pilots.len());
        if let Some(agent) = pilots[i % pilots.len()].agent() {
            agent.apply_fault(eng, kind);
        }
    });
    injector.install(engine, plan);
    injector
}
