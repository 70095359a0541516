//! Run the benchmark suite and emit schema-versioned `BENCH_<scenario>.json`
//! artifacts (virtual phase totals + critical-path breakdown + counters +
//! host wall-clock stats).
//!
//! ```text
//! cargo run -p rp-bench --release --bin bench_suite -- \
//!     [--quick] [--out-dir DIR] [--scenario NAME]... [--markdown]
//! ```
//!
//! `--quick` runs 1 repetition per scenario (CI); the default is 5 for
//! meaningful median/p95 host statistics. `--scenario` limits the run to
//! the named scenario(s); `--markdown` also prints each report as a
//! GitHub table for pasting into PR descriptions.

use std::path::PathBuf;

use rp_bench::harness::{artifact_file_name, bench_scenario, SCENARIO_NAMES};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let markdown = args.iter().any(|a| a == "--markdown");
    let out_dir: PathBuf = args
        .iter()
        .position(|a| a == "--out-dir")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    let mut scenarios: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| *a == "--scenario")
        .filter_map(|(i, _)| args.get(i + 1).cloned())
        .collect();
    if scenarios.is_empty() {
        scenarios = SCENARIO_NAMES
            .iter()
            // The 10k-unit scale run is the one deliberately slow scenario;
            // quick (CI) runs cover the family via scale_1k only. Request
            // it explicitly with --scenario scale_10k.
            .filter(|s| !(quick && **s == "scale_10k"))
            .map(|s| s.to_string())
            .collect();
    }
    for s in &scenarios {
        assert!(
            SCENARIO_NAMES.contains(&s.as_str()),
            "unknown scenario {s:?} (expected one of {SCENARIO_NAMES:?})"
        );
    }
    let reps = if quick { 1 } else { 5 };

    std::fs::create_dir_all(&out_dir).expect("create out dir");
    println!(
        "== bench suite: {} scenario(s), {reps} rep(s) ==",
        scenarios.len()
    );
    for name in &scenarios {
        let art = bench_scenario(name, reps);
        let path = out_dir.join(artifact_file_name(name));
        std::fs::write(&path, art.to_json()).expect("write artifact");
        let throughput = art
            .events_per_sec()
            .map(|eps| format!("  ({eps:.0} events/s)"))
            .unwrap_or_default();
        println!(
            "  {name:<18} median {:8.1} ms over {reps} rep(s){throughput}  -> {}",
            art.median_ms(),
            path.display()
        );
        if markdown {
            println!("\n{}", art.markdown);
        }
    }
}
