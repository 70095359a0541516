//! A session as a value: the pilots, the Unit-Manager policy, leases,
//! faults and the workload of one run, and the one loop that drives it.
//!
//! [`run`] submits the pilots and adds them to one Unit-Manager, arms the
//! leases, installs the fault plan, submits the units, steps until every
//! unit is final, then cancels the pilots still live and drains the
//! engine. Runs that must act between pilot activation and unit
//! submission (HDFS inputs, unit waves, per-step watchers) stay
//! hand-written.

use std::cell::Cell;
use std::rc::Rc;

use rp_pilot::{
    install_faults_multi, ComputeUnitDescription, PilotDescription, PilotHandle, PilotManager,
    Session, SessionConfig, UmScheduler, UnitHandle, UnitManager, WorkSpec,
};
use rp_sim::{Engine, FaultInjector, FaultPlan, SimDuration, SimTime};

/// How far past the latest pilot walltime a run may go before [`run`]
/// gives up on it. Walltime expiry ends every pilot, so a run still live
/// this late is wedged; 14,400 s walltimes give a 20,000 s bound.
const WALLTIME_MARGIN_S: u64 = 5_600;

/// One run's pilots and workload.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The session profile, loss profile included.
    pub config: SessionConfig,
    pub pilots: Vec<PilotDescription>,
    pub scheduler: UmScheduler,
    /// Lease duration and re-bind grace; `None` leaves leases off.
    pub leases: Option<(SimDuration, SimDuration)>,
    /// `None` installs no injector; `Some(FaultPlan::none())` installs
    /// one with an empty plan.
    pub faults: Option<FaultPlan>,
    pub units: Vec<ComputeUnitDescription>,
}

/// A drained run of a [`Scenario`].
pub struct Run {
    pub engine: Engine,
    pub session: Session,
    pub pilots: Vec<PilotHandle>,
    pub units: Vec<UnitHandle>,
    pub um: UnitManager,
    pub injector: Option<FaultInjector>,
}

/// Drive `scenario` on `engine` until every unit is final, then cancel
/// the pilots still live and drain. Fails if the engine runs dry with
/// units live, or if units are live past the latest pilot walltime plus
/// a fixed margin.
pub fn run(scenario: &Scenario, mut engine: Engine) -> Result<Run, String> {
    let session = Session::new(scenario.config.clone());
    let pm = PilotManager::new(&session);
    let pilots: Vec<PilotHandle> = scenario
        .pilots
        .iter()
        .map(|d| {
            pm.submit(&mut engine, d.clone())
                .map_err(|err| format!("pilot on {}: {err}", d.resource))
        })
        .collect::<Result<_, _>>()?;
    let mut um = UnitManager::new(&session, scenario.scheduler);
    for p in &pilots {
        um.add_pilot(p);
    }
    if let Some((lease, grace)) = scenario.leases {
        um.enable_leases(&mut engine, lease, grace);
    }
    let injector = scenario
        .faults
        .as_ref()
        .map(|plan| install_faults_multi(&mut engine, plan, &pilots));
    let units = um.submit_units(&mut engine, scenario.units.clone());
    // Counted down by completion callbacks: polling every unit after
    // every step would cost O(units × events).
    let live = Rc::new(Cell::new(units.len()));
    for u in &units {
        let live = live.clone();
        u.on_done(&mut engine, move |_| live.set(live.get() - 1));
    }
    let latest_walltime = scenario.pilots.iter().map(|d| d.runtime).max();
    let horizon = SimTime::ZERO
        + latest_walltime.unwrap_or(SimDuration::ZERO)
        + SimDuration::from_secs(WALLTIME_MARGIN_S);
    while live.get() > 0 {
        if !engine.step() {
            return Err(format!(
                "the engine stalled at {} with {} units live",
                engine.now(),
                live.get()
            ));
        }
        if engine.now() >= horizon {
            return Err(format!(
                "{} units still live at {}, past the walltime backstop",
                live.get(),
                engine.now()
            ));
        }
    }
    for p in &pilots {
        if !p.state().is_final() {
            pm.cancel(&mut engine, p);
        }
    }
    engine.run();
    Ok(Run {
        engine,
        session,
        pilots,
        units,
        um,
        injector,
    })
}

/// `n` one-core sleep units named `{prefix}{i}`, unit `i` sleeping
/// `secs(i)` seconds.
pub fn sleep_units(
    n: usize,
    prefix: &str,
    secs: impl Fn(usize) -> u64,
) -> Vec<ComputeUnitDescription> {
    (0..n)
        .map(|i| {
            ComputeUnitDescription::new(
                format!("{prefix}{i}"),
                1,
                WorkSpec::Sleep(SimDuration::from_secs(secs(i))),
            )
        })
        .collect()
}
