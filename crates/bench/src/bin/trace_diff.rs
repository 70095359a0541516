//! Attribute the difference between two runs: diff two `BENCH_*.json`
//! artifacts or two Chrome traces and name the phases / critical-path
//! segments / spans that moved (regressed, improved, new, vanished).
//!
//! ```text
//! cargo run -p rp-bench --release --bin trace_diff -- BASELINE.json CANDIDATE.json
//! ```
//!
//! Both files must be the same kind — either two artifacts written by
//! `bench_suite` or two Chrome traces written by
//! [`rp_sim::trace::Trace::write_chrome_json`] (e.g. the quickstart's
//! `--trace-out`); the kind is sniffed from the document shape. Exit
//! status: 0 when no virtual-time quantity moved beyond
//! [`rp_bench::diff::EPS`] (1e-6; host timings never count), 1 when
//! something did, 2 on usage or unreadable/malformed input.

use rp_bench::diff::diff_documents;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [base_path, cand_path] = args.as_slice() else {
        eprintln!("usage: trace_diff BASELINE.json CANDIDATE.json");
        std::process::exit(2);
    };
    let read = |path: &str| -> String {
        match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("trace_diff: cannot read {path}: {e}");
                std::process::exit(2);
            }
        }
    };
    let (base, cand) = (read(base_path), read(cand_path));
    let report = match diff_documents(&base, &cand) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("trace_diff: {e}");
            std::process::exit(2);
        }
    };
    print!("{}", report.render_table());
    std::process::exit(if report.is_clean() { 0 } else { 1 });
}
