//! The fixed point: each bench scenario's `virtual` result equals the
//! `virtual` subtree of its checked-in `BENCH_<scenario>.json` exactly. A
//! mismatch names the scenario, every moved dotted path and the
//! `trace_diff` attribution. The artifacts are never rewritten here:
//! re-baseline with `bench_suite --out-dir .` (EXPERIMENTS.md).

use std::path::Path;

use hadoop_hpc::sim::json::{self, Value};
use rp_bench::diff::{diff_artifacts, diff_values};
use rp_bench::harness::{artifact_file_name, run_scenario, SCENARIO_NAMES};

/// `{"virtual": v}`: the part of an artifact that `diff_artifacts` reads
/// for attribution, without host timings.
fn virtual_doc(v: Value) -> Value {
    Value::Object(vec![("virtual".to_string(), v)])
}

#[test]
fn every_bench_virtual_subtree_matches_its_artifact() {
    let mut drift = Vec::new();
    for name in SCENARIO_NAMES {
        let file = artifact_file_name(name);
        let text = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(&file))
            .unwrap_or_else(|e| panic!("{file}: {e}"));
        let expected = json::parse(&text)
            .unwrap_or_else(|e| panic!("{file}: {e}"))
            .get("virtual")
            .cloned()
            .unwrap_or_else(|| panic!("{file}: no `virtual` subtree"));
        let actual = json::parse(&run_scenario(name).to_json()).expect("virtual JSON parses");
        let mut moved = Vec::new();
        diff_values("virtual", &expected, &actual, &mut moved);
        if moved.is_empty() {
            continue;
        }
        let attribution = diff_artifacts(&virtual_doc(expected), &virtual_doc(actual))
            .map_or_else(|e| e, |d| d.render_table());
        drift.push(format!(
            "{name}: {} path(s) moved off {file}\n  {}\n{attribution}",
            moved.len(),
            moved.join("\n  ")
        ));
    }
    assert!(
        drift.is_empty(),
        "virtual results moved (re-baseline only for an intended change):\n{}",
        drift.join("\n")
    );
}
