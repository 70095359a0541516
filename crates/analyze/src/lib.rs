//! rp-analyze: offline static-analysis pass over the workspace source.
//!
//! Three rule families guard invariants the type system cannot express:
//!
//! 1. **state-machine** — every literal lifecycle transition the workspace
//!    exercises must be legal per the `can_transition_to` tables, and every
//!    table edge must be exercised somewhere (no dead contract).
//! 2. **determinism hazards** — `hash-iter` (HashMap/HashSet iteration
//!    order leaking into traces), `wallclock` (host-time reads in
//!    virtual-time code), `unwrap-ratchet` (panic budget per file against
//!    `lint_baseline.toml`).
//! 3. **stale-waiver** — inline waivers that no longer suppress anything
//!    are reported (info) so the exception inventory stays honest.
//!
//! Everything is lexical: a hand-rolled token scanner (`lexer`), no
//! external dependencies, no proc macros. Findings can be waived inline
//! with `// rp-lint: allow(<rule>, ...): <reason>`. What a type can state
//! is not a lint: the coordination store's `Fence` and `Revoked` make
//! fencing misuse a compile error, the trace's `OpenSpan` makes a
//! discarded or twice-ended span one, and `Engine` is `!Send`, so
//! simulation state cannot reach the `par` worker threads.

pub mod baseline;
pub mod hazards;
pub mod lexer;
pub mod report;
pub mod scan;
pub mod states;
pub mod waivers;

use std::path::{Path, PathBuf};
// The lint pass may time itself: per-rule wall time is host-side
// tooling cost, not simulation state (crates/analyze is on the
// wallclock allow-list for the same reason crates/bench is).
use std::time::Instant;

use report::{Finding, Report};

/// How many lifecycle state machines the workspace is expected to define
/// (PilotState and UnitState). Parsing fewer means the analyzer lost track
/// of the tables — fail loudly rather than silently passing.
pub const EXPECTED_MACHINES: usize = 2;

#[derive(Debug, Default, Clone)]
pub struct Options {
    /// Rewrite `lint_baseline.toml` from the current tree instead of
    /// checking against it.
    pub bless: bool,
    /// Write lifecycle DOT graphs into this directory.
    pub emit_dot: Option<PathBuf>,
    /// Record per-rule wall time in `Pass::timings`.
    pub timings: bool,
}

/// Outcome of a full pass.
pub struct Pass {
    pub report: Report,
    /// Parsed machines (name -> DOT source), for artifact checks.
    pub dots: Vec<(String, String)>,
    /// Per-rule wall time in seconds (empty unless `Options::timings`).
    pub timings: Vec<(&'static str, f64)>,
}

/// Run every rule over the workspace rooted at `root`.
pub fn run_pass(root: &Path, opts: &Options) -> std::io::Result<Pass> {
    let files = scan::load_workspace(root)?;
    let mut report = Report::default();
    let mut timings: Vec<(&'static str, f64)> = Vec::new();
    macro_rules! timed {
        ($name:literal, $body:expr) => {{
            let t0 = opts.timings.then(Instant::now);
            let out = $body;
            if let Some(t0) = t0 {
                timings.push(($name, t0.elapsed().as_secs_f64()));
            }
            out
        }};
    }

    // Family 1: state-machine conformance.
    let machines = timed!("state-machine", {
        let machines = states::parse_machines(&files);
        if machines.len() < EXPECTED_MACHINES {
            report.push(Finding::new(
                "state-machine",
                "crates/core/src/states.rs",
                0,
                format!(
                    "expected {} lifecycle tables (PilotState, UnitState) but parsed {} — \
                     the analyzer no longer recognizes the can_transition_to tables",
                    EXPECTED_MACHINES,
                    machines.len()
                ),
            ));
        }
        states::check(&files, &machines, &mut report);
        machines
    });

    // Family 2: determinism hazards.
    timed!("wallclock", hazards::check_wallclock(&files, &mut report));
    timed!("hash-iter", hazards::check_hash_iter(&files, &mut report));
    timed!(
        "unwrap-ratchet",
        hazards::check_unwrap_ratchet(&files, root, opts.bless, &mut report)?
    );

    // Family 3: waiver hygiene — after every producing rule has run.
    timed!("stale-waiver", waivers::check_stale(&files, &mut report));

    report.sort();

    let mut dots = Vec::new();
    for m in &machines {
        dots.push((snake(&m.name), states::emit_dot(m)));
    }
    if let Some(dir) = &opts.emit_dot {
        std::fs::create_dir_all(dir)?;
        for (name, dot) in &dots {
            std::fs::write(dir.join(format!("{name}.dot")), dot)?;
        }
    }

    Ok(Pass {
        report,
        dots,
        timings,
    })
}

/// `PilotState` -> `pilot_states` (file-name style for DOT artifacts).
fn snake(name: &str) -> String {
    let mut out = String::new();
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.push(c.to_ascii_lowercase());
        } else {
            out.push(c);
        }
    }
    // `pilot_state` reads better pluralized in the artifact name.
    format!("{out}s")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snake_names_match_artifacts() {
        assert_eq!(snake("PilotState"), "pilot_states");
        assert_eq!(snake("UnitState"), "unit_states");
    }
}
