//! Equivalence gate for the streamed-chunk profiler and critical-path
//! walker: their rendered output on the golden Mode I / Mode II traces is
//! pinned byte-for-byte against the legacy fully-materialized in-memory
//! walk (captured before the chunked rework and stored under
//! `tests/golden/`). Any divergence — a phase total, a path segment, a
//! slack figure — fails here before it can drift a bench baseline.
//!
//! The Chrome exports of the same runs, and of a plain pilot running the
//! same units, are pinned byte-for-byte too. A mismatch prints the
//! `trace_diff` report, which names the first divergent span record with
//! its ancestor chain, its unit and its pilot.
//!
//! Regenerate the goldens (only for an *intended* behavior change) with:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test --test stream_equivalence
//! ```

use hadoop_hpc::pilot::*;
use hadoop_hpc::sim::{aggregate_roots, critical_path_run, profile_span, Engine, RunReport};
use rp_bench::diff::diff_documents;

mod common;
use common::traced_mixed;

/// Render everything the bench artifacts derive from a trace: the phase
/// report (pilot root + unit aggregate), its JSON form, and the full
/// critical-path rendering including off-path slack.
fn render_all(e: &Engine, title: &str) -> String {
    let pilot_root = e
        .trace
        .roots_named("pilot.run")
        .next()
        .expect("pilot root")
        .id;
    let mut report = RunReport::new(title);
    report.push("pilot.run", profile_span(&e.trace, pilot_root));
    report.push("units (aggregate)", aggregate_roots(&e.trace, "unit.run"));
    let cp = critical_path_run(&e.trace).expect("critical path");
    report.push_critical("run", &cp);
    format!(
        "{}\n{}\n{}",
        report.render_table(),
        report.to_json(),
        cp.render()
    )
}

fn check(golden_path: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(golden_path);
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
    if golden_path.ends_with(".json") && actual != expect {
        let report = diff_documents(&expect, actual).map_or_else(|err| err, |d| d.render_table());
        panic!("{golden_path}: the Chrome export moved off the golden\n{report}");
    }
    assert_eq!(
        actual, expect,
        "streamed walk diverged from the legacy in-memory walk ({golden_path})"
    );
}

#[test]
fn mode_i_profiler_and_critpath_match_legacy_walk() {
    let e = traced_mixed(
        42,
        "xsede.stampede",
        AccessMode::YarnModeI { with_hdfs: true },
    );
    check("chrome_mode_i.json", &e.trace.to_chrome_json());
    check(
        "equiv_mode_i.txt",
        &render_all(&e, "mode I (legacy-pinned)"),
    );
}

#[test]
fn mode_ii_profiler_and_critpath_match_legacy_walk() {
    let e = traced_mixed(42, "xsede.wrangler", AccessMode::YarnModeII);
    check("chrome_mode_ii.json", &e.trace.to_chrome_json());
    check(
        "equiv_mode_ii.txt",
        &render_all(&e, "mode II (legacy-pinned)"),
    );
}

#[test]
fn plain_chrome_export_matches_golden() {
    let e = traced_mixed(42, "xsede.stampede", AccessMode::Plain);
    check("chrome_plain.json", &e.trace.to_chrome_json());
}
