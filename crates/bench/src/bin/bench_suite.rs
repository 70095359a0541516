//! Run the benchmark suite and emit schema-versioned `BENCH_<scenario>.json`
//! artifacts (virtual phase totals + critical-path breakdown + counters +
//! host wall-clock stats).
//!
//! ```text
//! cargo run -p rp-bench --release --bin bench_suite -- \
//!     [--quick] [--out-dir DIR] [--scenario NAME]...
//! ```
//!
//! `--quick` runs 1 repetition per scenario (CI); the default is 5 for
//! meaningful median/p95 host statistics. `--scenario` limits the run to
//! the named scenario(s). An unknown argument, an unknown scenario or a
//! flag without its value exits 2 with the usage on stderr, before any
//! scenario runs or any artifact is written.

use std::path::PathBuf;

use rp_bench::harness::{artifact_file_name, bench_scenario, SCENARIO_NAMES};

fn usage() -> ! {
    eprintln!(
        "usage: bench_suite [--quick] [--out-dir DIR] [--scenario NAME]...\n  scenarios: {}",
        SCENARIO_NAMES.join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut out_dir = PathBuf::from(".");
    let mut scenarios: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        // A flag's value may not itself look like a flag.
        let mut value = || {
            args.next()
                .filter(|v| !v.starts_with("--"))
                .unwrap_or_else(|| usage())
        };
        match arg.as_str() {
            "--quick" => quick = true,
            "--out-dir" => out_dir = PathBuf::from(value()),
            "--scenario" => {
                let name = value();
                if !SCENARIO_NAMES.contains(&name.as_str()) {
                    usage();
                }
                scenarios.push(name);
            }
            _ => usage(),
        }
    }
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
    }
}
