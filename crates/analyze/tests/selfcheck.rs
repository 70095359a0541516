//! Self-check: the shipped workspace must be lint-clean.
//!
//! This is the contract the CI stage enforces; running it as a test too
//! means `cargo test` alone catches a regression (new hash iteration, an
//! unwrap over budget, a host clock read) without needing ci.sh.

use std::path::PathBuf;

use rp_analyze::{report, run_pass, Options, EXPECTED_MACHINES};

fn workspace_root() -> PathBuf {
    // crates/analyze -> crates -> workspace root
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root above crates/analyze")
        .to_path_buf()
}

#[test]
fn shipped_workspace_is_lint_clean() {
    let pass = run_pass(&workspace_root(), &Options::default()).expect("pass runs");
    let fatal: Vec<_> = pass.report.findings.iter().filter(|f| f.fatal).collect();
    assert!(
        fatal.is_empty(),
        "workspace must be lint-clean; fix or waive:\n{}",
        pass.report.render_text()
    );
}

#[test]
fn both_lifecycles_are_parsed_and_rendered() {
    let pass = run_pass(&workspace_root(), &Options::default()).expect("pass runs");
    assert_eq!(pass.dots.len(), EXPECTED_MACHINES);
    let names: Vec<&str> = pass.dots.iter().map(|(n, _)| n.as_str()).collect();
    assert!(names.contains(&"pilot_states"));
    assert!(names.contains(&"unit_states"));
    for (name, dot) in &pass.dots {
        assert!(dot.starts_with("// Generated by rp_lint"), "{name}");
        assert!(dot.contains("digraph"), "{name}");
        // Both machines share the wildcard failure edges.
        assert!(dot.contains("any_live -> Failed"), "{name}");
    }
}

#[test]
fn checked_in_dot_artifacts_are_fresh() {
    let root = workspace_root();
    let pass = run_pass(&root, &Options::default()).expect("pass runs");
    for (name, dot) in &pass.dots {
        let path = root.join("docs/lifecycles").join(format!("{name}.dot"));
        let on_disk = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing artifact {}: {e}", path.display()));
        assert_eq!(
            &on_disk,
            dot,
            "{} is stale; regenerate with `cargo run -p rp-analyze --bin rp_lint -- \
             --emit-dot docs/lifecycles`",
            path.display()
        );
    }
}

#[test]
fn the_real_lifecycle_tables_leave_no_dead_transitions() {
    // Stronger than lint-clean: explicitly assert the dead-transition
    // detector found evidence for every edge of both real tables.
    let pass = run_pass(&workspace_root(), &Options::default()).expect("pass runs");
    let dead: Vec<_> = pass
        .report
        .findings
        .iter()
        .filter(|f| f.message.contains("dead transition"))
        .collect();
    assert!(
        dead.is_empty(),
        "every table edge should be exercised by code or tests:\n{:?}",
        dead
    );
}

#[test]
fn full_pass_reports_timings_and_stays_under_budget() {
    // The five rules take ~6 ms in total on a 2-vCPU Xeon host (median
    // of 10 `rp_lint --timings` runs). 5 s is ~800x that: tripping it
    // means a rule went accidentally super-linear, not that the
    // workspace grew.
    let opts = Options {
        timings: true,
        ..Options::default()
    };
    let pass = run_pass(&workspace_root(), &opts).expect("pass runs");
    // Every rule `--explain` lists runs, and every rule that runs is
    // listed: a rule missing from either side fails here.
    let mut timed: Vec<&str> = pass.timings.iter().map(|(r, _)| *r).collect();
    let mut listed: Vec<&str> = report::RULES.to_vec();
    timed.sort_unstable();
    listed.sort_unstable();
    assert_eq!(timed, listed, "timed rules differ from report::RULES");
    let total: f64 = pass.timings.iter().map(|(_, s)| s).sum();
    assert!(
        total < 5.0,
        "full lint pass took {total:.2}s (budget 5s); a rule went super-linear"
    );
}
