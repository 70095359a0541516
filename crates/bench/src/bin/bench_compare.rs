//! Host gate: check freshly produced `BENCH_<scenario>.json` artifacts
//! against checked-in baselines. Each candidate must have the baseline's
//! schema and scenario, and its host median may not exceed
//! `baseline × HOST_FACTOR + HOST_SLACK_MS` (4× plus 250 ms). The
//! `virtual` subtrees are pinned exactly by `tests/fixed_point.rs`, not
//! here.
//!
//! ```text
//! cargo run -p rp-bench --release --bin bench_compare -- \
//!     --baseline DIR --candidate DIR [--scenario NAME]...
//! ```
//!
//! Exits 1 on any failure, listing each one. An unknown argument, an
//! unknown scenario, a missing `--baseline` or `--candidate`, or a flag
//! without its value exits 2 with the usage on stderr, before any
//! artifact is read.

use std::path::{Path, PathBuf};

use rp_bench::harness::{artifact_file_name, compare_artifacts, SCENARIO_NAMES};

fn usage() -> ! {
    eprintln!(
        "usage: bench_compare --baseline DIR --candidate DIR [--scenario NAME]...\n  scenarios: {}",
        SCENARIO_NAMES.join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let mut baseline_dir = None;
    let mut candidate_dir = None;
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
            "--baseline" => baseline_dir = Some(PathBuf::from(value())),
            "--candidate" => candidate_dir = Some(PathBuf::from(value())),
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
    let (Some(baseline_dir), Some(candidate_dir)) = (baseline_dir, candidate_dir) else {
        usage();
    };
    if scenarios.is_empty() {
        scenarios = SCENARIO_NAMES.iter().map(|s| s.to_string()).collect();
    }

    let read = |dir: &Path, name: &str| -> Result<String, String> {
        let path = dir.join(artifact_file_name(name));
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };

    let mut failed = false;
    for name in &scenarios {
        let errs = match (read(&baseline_dir, name), read(&candidate_dir, name)) {
            (Ok(b), Ok(c)) => compare_artifacts(&b, &c).err().unwrap_or_default(),
            (b, c) => [b, c].into_iter().filter_map(Result::err).collect(),
        };
        if errs.is_empty() {
            println!("  {name:<18} OK");
            continue;
        }
        failed = true;
        println!("  {name:<18} FAILED");
        for e in errs {
            println!("      {e}");
        }
    }
    if failed {
        println!("bench_compare: FAILED (see above)");
        std::process::exit(1);
    }
    println!("bench_compare: every scenario is within the host bound");
}
