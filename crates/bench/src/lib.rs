//! Paper-evaluation harness: the [`experiments`] registry behind the
//! `paper` binary, the BENCH artifact [`harness`] and its [`diff`], the
//! [`scenario`] value and drive loop the harness and the tests share, and
//! the shared pieces they use — traced startup runners, a plain-text
//! table formatter that renders the same rows/series the paper's figures
//! report, and the shape-check collector.

pub mod diff;
pub mod experiments;
pub mod harness;
pub mod scenario;

use rp_pilot::{
    AccessMode, ComputeUnitDescription, PilotDescription, PilotManager, PilotState, Session,
    SessionConfig, UmScheduler, UnitManager, UnitState, WorkSpec,
};
use rp_sim::{profile_span, Engine, Phase, PhaseBreakdown, SimDuration, SpanId, Summary};

/// Aligned plain-text table.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Table {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for i in 0..ncols {
                line.push_str(&format!("{:<w$}", cells[i], w = widths[i] + 2));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Format a Summary as `mean ± std`.
pub fn mean_std(s: &Summary) -> String {
    format!("{:7.1} ± {:4.1}", s.mean, s.std)
}

/// Which pilot variant a startup measurement exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Rp,
    RpYarnModeI,
    RpYarnModeII,
}

impl Variant {
    pub fn label(self) -> &'static str {
        match self {
            Variant::Rp => "RADICAL-Pilot",
            Variant::RpYarnModeI => "RP-YARN (Mode I)",
            Variant::RpYarnModeII => "RP-YARN (Mode II)",
        }
    }

    pub fn access(self) -> AccessMode {
        match self {
            Variant::Rp => AccessMode::Plain,
            Variant::RpYarnModeI => AccessMode::YarnModeI { with_hdfs: true },
            Variant::RpYarnModeII => AccessMode::YarnModeII,
        }
    }
}

/// One profiled pilot-startup run. All values are derived from the span
/// stream by the phase profiler — no bespoke timers.
pub struct StartupProfile {
    /// Submission → Active (end of the `pilot.bootstrap` span relative to
    /// the `pilot.run` root begin): the Fig. 5 "Pilot startup time".
    pub startup_s: f64,
    /// YARN + HDFS daemon startup (the `yarn_startup`/`hdfs_startup`
    /// phases; 0 for plain pilots).
    pub framework_bootstrap_s: f64,
    /// Full phase breakdown of the pilot's lifecycle span.
    pub phases: PhaseBreakdown,
}

/// Run one traced pilot to Active, cancel it and drain the engine.
/// Returns the finished engine and the pilot's `pilot.run` span.
pub(crate) fn run_pilot_startup(
    resource: &str,
    variant: Variant,
    nodes: u32,
    seed: u64,
    config: SessionConfig,
) -> (Engine, SpanId) {
    let mut e = Engine::with_trace(seed);
    let session = Session::new(config);
    let pm = PilotManager::new(&session);
    let pilot = pm
        .submit(
            &mut e,
            PilotDescription::new(resource, nodes, SimDuration::from_secs(3600))
                .with_access(variant.access()),
        )
        .unwrap_or_else(|err| panic!("{}: {err}", variant.label()));
    while pilot.state() != PilotState::Active {
        assert!(e.step(), "engine drained before pilot became active");
    }
    pm.cancel(&mut e, &pilot);
    e.run();
    (e, pilot.root_span())
}

/// Run one pilot to Active under tracing and profile its lifecycle span.
pub fn profile_pilot_startup(
    resource: &str,
    variant: Variant,
    nodes: u32,
    seed: u64,
    config: SessionConfig,
) -> StartupProfile {
    let (e, root) = run_pilot_startup(resource, variant, nodes, seed, config);
    let root_begin = e.trace.span(root).expect("pilot.run span").begin;
    let phases = profile_span(&e.trace, root);
    let bootstrap = e.trace.symbol("pilot.bootstrap");
    let startup_s = e
        .trace
        .iter_spans()
        .find(|s| s.parent == Some(root) && Some(s.name) == bootstrap)
        .and_then(|s| s.end)
        .map(|t| t.since(root_begin).as_secs_f64())
        .expect("pilot.bootstrap span");
    StartupProfile {
        startup_s,
        framework_bootstrap_s: phases.sum_secs(&[Phase::YarnStartup, Phase::HdfsStartup]),
        phases,
    }
}

/// One profiled Compute-Unit run (submission → Done) on a fresh pilot.
pub struct UnitProfile {
    /// Submission → Executing (begin of the `unit.exec` span relative to
    /// the `unit.run` root): the Fig. 5 inset "CU startup time".
    pub startup_s: f64,
    /// Full phase breakdown of the unit's lifecycle span.
    pub phases: PhaseBreakdown,
}

/// Run one traced 10 s probe unit to Done on a fresh 1-node pilot, cancel
/// the pilot and drain the engine. Returns the finished engine and the
/// unit's `unit.run` span.
pub(crate) fn run_unit_startup(
    resource: &str,
    variant: Variant,
    seed: u64,
    config: SessionConfig,
) -> (Engine, SpanId) {
    let mut e = Engine::with_trace(seed);
    let session = Session::new(config);
    let pm = PilotManager::new(&session);
    let pilot = pm
        .submit(
            &mut e,
            PilotDescription::new(resource, 1, SimDuration::from_secs(3600))
                .with_access(variant.access()),
        )
        .unwrap_or_else(|err| panic!("{}: {err}", variant.label()));
    while pilot.state() != PilotState::Active {
        assert!(e.step(), "engine drained before pilot became active");
    }
    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);
    let units = um.submit_units(
        &mut e,
        vec![ComputeUnitDescription::new(
            "probe",
            1,
            WorkSpec::Sleep(SimDuration::from_secs(10)),
        )],
    );
    while !units[0].state().is_final() {
        assert!(e.step(), "engine drained before unit finished");
    }
    assert_eq!(
        units[0].state(),
        UnitState::Done,
        "{:?}",
        units[0].failure()
    );
    pm.cancel(&mut e, &pilot);
    e.run();
    (e, units[0].root_span())
}

/// Run one probe unit to completion under tracing and profile its
/// lifecycle span.
pub fn profile_unit_startup(
    resource: &str,
    variant: Variant,
    seed: u64,
    config: SessionConfig,
) -> UnitProfile {
    let (e, root) = run_unit_startup(resource, variant, seed, config);
    let root_begin = e.trace.span(root).expect("unit.run span").begin;
    let phases = profile_span(&e.trace, root);
    let exec = e.trace.symbol("unit.exec");
    let startup_s = e
        .trace
        .iter_spans()
        .find(|s| s.parent == Some(root) && Some(s.name) == exec)
        .map(|s| s.begin.since(root_begin).as_secs_f64())
        .expect("unit.exec span");
    UnitProfile { startup_s, phases }
}

/// Run a closure over `reps` seeds and summarise.
pub fn repeat(reps: u64, mut f: impl FnMut(u64) -> f64) -> Summary {
    let samples: Vec<f64> = (0..reps).map(|i| f(1000 + i * 7919)).collect();
    Summary::of(&samples)
}

/// Collects the pass/fail shape assertions an experiment makes against
/// the paper's claims.
#[derive(Default)]
pub struct ShapeChecks {
    results: Vec<(String, bool)>,
}

impl ShapeChecks {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn check(&mut self, label: impl Into<String>, ok: bool) {
        self.results.push((label.into(), ok));
    }

    /// Every `(label, held)` pair, in the order checked.
    pub fn results(&self) -> &[(String, bool)] {
        &self.results
    }

    pub fn all_hold(&self) -> bool {
        self.results.iter().all(|(_, ok)| *ok)
    }

    /// `[ok]`/`[VIOLATED]` lines under a blank line and a heading.
    pub fn render(&self) -> String {
        let mut out = String::from("\nShape checks (paper-vs-measured):\n");
        for (label, ok) in &self.results {
            out.push_str(&format!(
                "  [{}] {label}\n",
                if *ok { "ok" } else { "VIOLATED" }
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["a", "bb"]);
        t.row(vec!["1", "2"]);
        t.row(vec!["333", "4"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a"));
        assert!(lines[2].starts_with("1"));
    }

    #[test]
    #[should_panic]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only one"]);
    }

    #[test]
    fn startup_measurement_works_on_localhost() {
        let p = profile_pilot_startup(
            "localhost",
            Variant::Rp,
            1,
            1,
            SessionConfig::test_profile(),
        );
        assert!(p.startup_s > 0.0 && p.startup_s < 10.0);
        assert_eq!(p.framework_bootstrap_s, 0.0);
    }

    #[test]
    fn unit_startup_measurement_works() {
        let t = profile_unit_startup("localhost", Variant::Rp, 2, SessionConfig::test_profile())
            .startup_s;
        assert!(t > 0.0 && t < 5.0, "{t}");
    }

    #[test]
    fn repeat_summarises() {
        let s = repeat(5, |seed| seed as f64);
        assert_eq!(s.n, 5);
    }

    #[test]
    fn shape_checks_track_failures() {
        let mut c = ShapeChecks::new();
        c.check("good", true);
        assert!(c.all_hold());
        c.check("bad", false);
        assert!(!c.all_hold());
        assert_eq!(
            c.render(),
            "\nShape checks (paper-vs-measured):\n  [ok] good\n  [VIOLATED] bad\n"
        );
    }
}
