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
//! Exits non-zero on any failure, listing each one.

use std::path::{Path, PathBuf};

use rp_bench::harness::{artifact_file_name, compare_artifacts, SCENARIO_NAMES};

fn dir_arg(args: &[String], flag: &str) -> PathBuf {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            eprintln!("usage: bench_compare --baseline DIR --candidate DIR [--scenario NAME]...");
            std::process::exit(2);
        })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let baseline_dir = dir_arg(&args, "--baseline");
    let candidate_dir = dir_arg(&args, "--candidate");
    let mut scenarios: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| *a == "--scenario")
        .filter_map(|(i, _)| args.get(i + 1).cloned())
        .collect();
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
