//! Regenerate the paper's evaluation: Fig. 5, Fig. 6, the ablations and
//! the RP-Spark extension. Each experiment prints its tables and then
//! machine-checks the paper's qualitative claims.
//!
//! ```text
//! cargo run -p rp-bench --release --bin paper                     # every experiment
//! cargo run -p rp-bench --release --bin paper -- --only fig6_kmeans
//! ```
//!
//! Exit status: 0 when every check holds, 1 when a check is violated, 2
//! on a usage error.

use rp_bench::experiments::{find, Experiment, REGISTRY};

fn usage() -> ! {
    let names: Vec<&str> = REGISTRY.iter().map(|x| x.name).collect();
    eprintln!(
        "usage: paper [--only <name>]\n  names: {}",
        names.join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<&Experiment> = match args.as_slice() {
        [] => REGISTRY.iter().collect(),
        [flag, name] if flag == "--only" => vec![find(name).unwrap_or_else(|| usage())],
        _ => usage(),
    };
    let mut all_hold = true;
    for x in selected {
        let outcome = (x.run)();
        print!("{}", outcome.text);
        all_hold &= outcome.checks.all_hold();
    }
    std::process::exit(if all_hold { 0 } else { 1 });
}
