//! The pilot and unit lifecycle tables, checked against runs.
//!
//! `Guarded::advance` asserts every transition a run makes, so an illegal
//! edge panics wherever it happens. This test checks the other direction:
//! every edge the `can_transition_to` tables allow is taken by at least one
//! of the runs below. It replays each run's `Transition` trace records per
//! `(subject, id)` from `New`. A destination that every non-final state
//! may reach (`Canceled`, `Failed`) is drawn as one wildcard edge, and one
//! taken edge into it covers it.
//!
//! It also renders both tables as Graphviz DOT and compares the result
//! with `docs/lifecycles/`. Regenerate those (only for an intended table
//! change) with:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test -p rp-pilot --test lifecycles
//! ```

use std::collections::{BTreeMap, BTreeSet};

use rp_pilot::*;
use rp_sim::{Engine, FaultEvent, FaultKind, FaultPlan, Message, SimDuration};

/// A lifecycle table, seen through the public state API.
trait Lifecycle: Copy + Eq + std::fmt::Debug + 'static {
    /// The trace subject of this machine's `Transition` records.
    const SUBJECT: &'static str;
    /// The graph name in the DOT rendering.
    const GRAPH: &'static str;
    fn all() -> &'static [Self];
    fn name(self) -> &'static str;
    fn is_final(self) -> bool;
    fn can_transition_to(self, next: Self) -> bool;
}

impl Lifecycle for PilotState {
    const SUBJECT: &'static str = "PilotId";
    const GRAPH: &'static str = "PilotState";
    fn all() -> &'static [Self] {
        PilotState::ALL
    }
    fn name(self) -> &'static str {
        PilotState::name(self)
    }
    fn is_final(self) -> bool {
        PilotState::is_final(self)
    }
    fn can_transition_to(self, next: Self) -> bool {
        PilotState::can_transition_to(self, next)
    }
}

impl Lifecycle for UnitState {
    const SUBJECT: &'static str = "UnitId";
    const GRAPH: &'static str = "UnitState";
    fn all() -> &'static [Self] {
        UnitState::ALL
    }
    fn name(self) -> &'static str {
        UnitState::name(self)
    }
    fn is_final(self) -> bool {
        UnitState::is_final(self)
    }
    fn can_transition_to(self, next: Self) -> bool {
        UnitState::can_transition_to(self, next)
    }
}

/// Destinations every non-final state may reach.
fn wildcard_targets<S: Lifecycle>() -> Vec<S> {
    let all = S::all();
    all.iter()
        .copied()
        .filter(|&dst| {
            all.iter()
                .filter(|s| !s.is_final())
                .all(|s| s.can_transition_to(dst))
        })
        .collect()
}

/// Every allowed edge that is not into a wildcard target, by name.
fn explicit_edges<S: Lifecycle>() -> BTreeSet<(&'static str, &'static str)> {
    let wild = wildcard_targets::<S>();
    let all = S::all();
    all.iter()
        .flat_map(|&a| all.iter().map(move |&b| (a, b)))
        .filter(|&(a, b)| a.can_transition_to(b) && !wild.contains(&b))
        .map(|(a, b)| (a.name(), b.name()))
        .collect()
}

/// `(subject, from, to)` of every transition in `engine`'s trace.
fn taken_edges(engine: &Engine) -> BTreeSet<(&'static str, &'static str, &'static str)> {
    let mut state: BTreeMap<(&'static str, u64), &'static str> = BTreeMap::new();
    let mut taken = BTreeSet::new();
    for ev in engine.trace.events() {
        if let Message::Transition { subject, id, to } = ev.message {
            let from = state.insert((subject, id), to).unwrap_or("New");
            taken.insert((subject, from, to));
        }
    }
    taken
}

/// The names of the table edges no run took: explicit edges by
/// `Src -> Dst`, wildcard targets by `* -> Dst`.
fn untaken<S: Lifecycle>(taken: &BTreeSet<(&str, &str, &str)>) -> Vec<String> {
    let mut missing: Vec<String> = explicit_edges::<S>()
        .into_iter()
        .filter(|&(a, b)| !taken.contains(&(S::SUBJECT, a, b)))
        .map(|(a, b)| format!("{} {a} -> {b}", S::GRAPH))
        .collect();
    for dst in wildcard_targets::<S>() {
        if !taken
            .iter()
            .any(|&(subject, _, to)| subject == S::SUBJECT && to == dst.name())
        {
            missing.push(format!("{} * -> {}", S::GRAPH, dst.name()));
        }
    }
    missing
}

fn remote(mb: f64) -> StagingDirective {
    StagingDirective {
        bytes: mb * 1e6,
        from: StageEndpoint::Remote {
            bandwidth_mbps: 1.0,
        },
        to: StageEndpoint::Lustre,
    }
}

/// A whole-node unit that stages 10 MB in from a 1 MB/s remote site,
/// sleeps, and stages 10 MB out, so each staging phase lasts ~10 s.
fn staged_unit(i: usize) -> ComputeUnitDescription {
    ComputeUnitDescription::new(
        format!("u{i}"),
        16,
        WorkSpec::Sleep(SimDuration::from_secs(300)),
    )
    .stage_in(remote(10.0))
    .stage_out(remote(10.0))
}

fn submit(pm: &PilotManager, e: &mut Engine, nodes: u32, walltime_s: u64) -> PilotHandle {
    pm.submit(
        e,
        PilotDescription::new("xsede.stampede", nodes, SimDuration::from_secs(walltime_s)),
    )
    .expect("stampede accepts the pilot")
}

fn step_until(e: &mut Engine, label: &str, done: impl Fn() -> bool) {
    while !done() {
        assert!(e.step(), "{label}: the run ended first");
    }
}

/// Two staged units run to `Done` on a two-node pilot that then reaches
/// its walltime. A third waits in the agent queue and is cancelled there;
/// a fourth is wider than the pilot, and the agent fails it.
fn completed_run() -> Engine {
    use UnitState::*;
    let mut e = Engine::with_trace(1);
    let session = Session::new(SessionConfig::test_profile());
    let pm = PilotManager::new(&session);
    let pilot = submit(&pm, &mut e, 2, 3600);
    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);
    let mut descrs: Vec<_> = (0..3).map(staged_unit).collect();
    descrs.push(ComputeUnitDescription::new(
        "too_wide",
        1024,
        WorkSpec::Sleep(SimDuration::from_secs(1)),
    ));
    let units = um.submit_units(&mut e, descrs);
    step_until(&mut e, "completed run", || {
        units[2].state() == AgentScheduling
    });
    um.cancel_unit(&mut e, &units[2]);
    e.run();
    assert_eq!(pilot.state(), PilotState::Done, "walltime ends the pilot");
    let states: Vec<UnitState> = units.iter().map(|u| u.state()).collect();
    assert_eq!(states, [Done, Done, Canceled, Failed]);
    e
}

/// A node crash while the unit occupies `phase`: the agent requeues the
/// unit, which then completes on the other node.
fn node_crash_in(phase: UnitState) -> Engine {
    let label = format!("node crash in {phase:?}");
    let mut e = Engine::with_trace(2);
    let session = Session::new(SessionConfig::test_profile());
    let pm = PilotManager::new(&session);
    let pilot = submit(&pm, &mut e, 2, 7200);
    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);
    let units = um.submit_units(&mut e, vec![staged_unit(0)]);
    step_until(&mut e, &label, || units[0].state() == phase);
    let plan = FaultPlan {
        events: vec![FaultEvent {
            at: e.now(),
            kind: FaultKind::NodeCrash { node: 0 },
        }],
    };
    install_faults(&mut e, &plan, &pilot);
    step_until(&mut e, &label, || units[0].state().is_final());
    assert_eq!(units[0].state(), UnitState::Done, "{label}");
    assert_eq!(units[0].attempts(), 2, "{label}: one retry");
    pm.cancel(&mut e, &pilot);
    e.run();
    e
}

/// With leases armed, a pilot killed while a unit occupies `phase`
/// returns its units, and the Unit-Manager re-binds them to a survivor.
fn pilot_kill_in(phase: UnitState) -> Engine {
    let label = format!("pilot kill in {phase:?}");
    let mut e = Engine::with_trace(3);
    let session = Session::new(SessionConfig::test_profile());
    let pm = PilotManager::new(&session);
    let victim = submit(&pm, &mut e, 1, 7200);
    let survivor = submit(&pm, &mut e, 1, 7200);
    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&victim);
    um.add_pilot(&survivor);
    um.enable_leases(
        &mut e,
        SimDuration::from_secs(60),
        SimDuration::from_secs(30),
    );
    // Two whole-node units on a one-node pilot: one waits in the agent
    // queue while the other stages and runs.
    let units = um.submit_units(&mut e, (0..2).map(staged_unit).collect());
    step_until(&mut e, &label, || units.iter().any(|u| u.state() == phase));
    victim.kill(&mut e);
    step_until(&mut e, &label, || {
        units.iter().all(|u| u.state().is_final())
    });
    assert_eq!(victim.state(), PilotState::Failed, "{label}");
    assert!(
        units.iter().all(|u| u.state() == UnitState::Done),
        "{label}: the survivor finishes every unit"
    );
    assert!(um.rebinds() >= 1, "{label}: the kill forces a re-bind");
    pm.cancel(&mut e, &survivor);
    e.run();
    e
}

#[test]
fn every_table_edge_is_taken_by_a_run() {
    use UnitState::*;
    let mut runs = vec![completed_run()];
    runs.extend([StagingInput, Executing].map(node_crash_in));
    runs.extend([AgentScheduling, StagingInput, Executing, StagingOutput].map(pilot_kill_in));
    let taken: BTreeSet<_> = runs.iter().flat_map(taken_edges).collect();
    let mut missing = untaken::<PilotState>(&taken);
    missing.extend(untaken::<UnitState>(&taken));
    assert!(
        missing.is_empty(),
        "table edges no run takes:\n  {}",
        missing.join("\n  ")
    );
}

/// Graphviz rendering of a lifecycle table: states and explicit edges in
/// name order, finals double-bordered, wildcard targets as dashed edges
/// from one "any non-final" node.
fn render_dot<S: Lifecycle>() -> String {
    let mut out = format!(
        "// Rendered from {}::can_transition_to by crates/core/tests/lifecycles.rs — do not edit by hand.\n",
        S::GRAPH
    );
    out += &format!("digraph {} {{\n", S::GRAPH);
    out += "    rankdir=LR;\n    node [shape=box, style=rounded];\n";
    let states: BTreeMap<&str, S> = S::all().iter().map(|&s| (s.name(), s)).collect();
    for (name, s) in &states {
        if s.is_final() {
            out += &format!("    {name} [peripheries=2];\n");
        } else {
            out += &format!("    {name};\n");
        }
    }
    for (a, b) in explicit_edges::<S>() {
        out += &format!("    {a} -> {b};\n");
    }
    let wild: BTreeSet<&str> = wildcard_targets::<S>().iter().map(|s| s.name()).collect();
    if !wild.is_empty() {
        out += "    any_live [label=\"any non-final\", shape=plaintext];\n";
        for dst in wild {
            out += &format!("    any_live -> {dst} [style=dashed];\n");
        }
    }
    out += "}\n";
    out
}

fn check_dot(file: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../docs/lifecycles")
        .join(file);
    if std::env::var("REGEN_GOLDEN").is_ok() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expect = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} (run with REGEN_GOLDEN=1 to create)",
            path.display()
        )
    });
    assert_eq!(
        actual, expect,
        "docs/lifecycles/{file} is stale (run with REGEN_GOLDEN=1 to regenerate)"
    );
}

#[test]
fn lifecycle_dot_files_match_the_tables() {
    check_dot("pilot_states.dot", &render_dot::<PilotState>());
    check_dot("unit_states.dot", &render_dot::<UnitState>());
}
