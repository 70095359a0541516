//! Integration tier for `trace_diff` attribution: a perturbed bench run
//! must be attributed to the phase that actually moved, a repeat run must
//! diff clean, and the Chrome-trace reduction must agree with the
//! engine-side [`Trace::name_totals`] aggregation it claims to mirror.

use rp_bench::diff::{diff_documents, Change};
use rp_bench::harness::{bench_with, run_fault_matrix, FaultMatrixParams};
use rp_sim::trace::{SpanId, Trace};
use rp_sim::{SimDuration, SimTime};

fn small_params() -> FaultMatrixParams {
    FaultMatrixParams {
        seed: 3,
        units: 4,
        sleep_s: 300,
        intensity: 2,
    }
}

#[test]
fn repeat_run_diffs_clean_and_perturbation_names_the_compute_phase() {
    let baseline = bench_with("fault_matrix", 1, || run_fault_matrix(small_params()));
    // A fresh run of identical parameters differs only in host timings,
    // which attribution reports but never counts as movement.
    let same = bench_with("fault_matrix", 1, || run_fault_matrix(small_params()));
    let d = diff_documents(&baseline.to_json(), &same.to_json()).expect("diff");
    assert!(d.is_clean(), "{}", d.render_table());

    // Longer sleeps: the regression must land on the compute phase, and
    // the headline must say so.
    let perturbed = bench_with("fault_matrix", 1, || {
        run_fault_matrix(FaultMatrixParams {
            sleep_s: 330,
            ..small_params()
        })
    });
    let d = diff_documents(&baseline.to_json(), &perturbed.to_json()).expect("diff");
    assert!(!d.is_clean());
    let (section, top) = d.top_mover().expect("a mover");
    assert_eq!(section, "phase totals", "top mover section");
    assert!(
        top.label.ends_with("/compute"),
        "expected the compute phase to lead the attribution, got {:?}",
        top.label
    );
    assert_eq!(top.change(), Change::Regressed);
    assert!(top.delta() > 0.0);
    let headline = d.headline();
    assert!(
        headline.contains("compute") && headline.contains("regressed"),
        "headline {headline:?}"
    );
    // The critical path moved with it: sleep time is on-path.
    let crit = d
        .sections
        .iter()
        .find(|s| s.title == "critical path")
        .expect("critical section");
    assert!(
        crit.entries
            .iter()
            .any(|e| e.label.ends_with("/compute") && e.change() == Change::Regressed),
        "critical path must attribute the same phase"
    );
    // Reversed operands classify the same movement as an improvement.
    let rev = diff_documents(&perturbed.to_json(), &baseline.to_json()).expect("diff");
    let (_, top) = rev.top_mover().expect("a mover");
    assert_eq!(top.change(), Change::Improved);
}

/// Build a toy trace: `n` spans named `unit.run` of `secs` seconds each,
/// plus one fixed `setup` span.
fn toy_trace(n: u64, secs: u64) -> Trace {
    let mut tr = Trace::enabled();
    let s = tr.span_begin(SimTime(0), "setup", "setup", SpanId::NONE);
    tr.span_end(SimTime(1_000_000), s);
    for i in 0..n {
        let begin = SimTime(1_000_000 * (i + 1));
        let id = tr.span_begin(begin, "unit", "unit.run", SpanId::NONE);
        tr.span_end(SimTime(begin.0 + secs * 1_000_000), id);
    }
    tr
}

#[test]
fn chrome_diff_agrees_with_engine_side_name_totals() {
    let base = toy_trace(3, 10);
    let cand = toy_trace(3, 14);
    let d = diff_documents(&base.to_chrome_json(), &cand.to_chrome_json()).expect("diff");
    assert_eq!(d.kind, "chrome");
    let (section, top) = d.top_mover().expect("a mover");
    assert_eq!(section, "span totals");
    assert_eq!(top.label, "unit.run");

    // Cross-check the reduction against Trace::name_totals on both sides:
    // the diff's per-name totals must equal the engine-side aggregation.
    let totals = |tr: &Trace, name: &str| -> (u64, SimDuration) {
        tr.name_totals()
            .into_iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, c, d)| (c, d))
            .expect("name present")
    };
    let (bc, bd) = totals(&base, "unit.run");
    let (cc, cd) = totals(&cand, "unit.run");
    assert_eq!(top.base, Some(bd.0 as f64 / 1e6));
    assert_eq!(top.cand, Some(cd.0 as f64 / 1e6));
    let counts = d
        .sections
        .iter()
        .find(|s| s.title == "span counts")
        .expect("counts section");
    let unit = counts
        .entries
        .iter()
        .find(|e| e.label == "unit.run")
        .expect("unit.run counts");
    assert_eq!(unit.base, Some(bc as f64));
    assert_eq!(unit.cand, Some(cc as f64));
    assert_eq!(unit.change(), Change::Unchanged);

    // Identical traces diff clean.
    let same = diff_documents(&base.to_chrome_json(), &base.to_chrome_json()).expect("diff");
    assert!(same.is_clean());
}
