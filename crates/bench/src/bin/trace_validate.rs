//! Validate a Chrome/Perfetto trace JSON file produced by
//! `Trace::to_chrome_json` (e.g. the quickstart's `--trace-out` artifact):
//! reads the document and checks that every async-nestable begin (`"b"`)
//! has a matching end (`"e"`) on the same id.
//!
//! ```text
//! cargo run -p rp-bench --bin trace_validate -- trace.json
//! ```
//!
//! Exits 0 and prints the event counts on success; exits 1 with the
//! offending reason otherwise; exits 2 with the usage unless given exactly
//! one path, or if the file cannot be read.

use rp_sim::validate_chrome_json;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [path] = args.as_slice() else {
        eprintln!("usage: trace_validate <trace.json>");
        std::process::exit(2);
    };
    let doc = match std::fs::read_to_string(path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(2);
        }
    };
    match validate_chrome_json(&doc) {
        Ok(stats) => {
            println!(
                "{path}: ok — {} objects, {} instants, {} span begin/end pairs",
                stats.objects, stats.instants, stats.begins
            );
        }
        Err(e) => {
            eprintln!("{path}: INVALID — {e}");
            std::process::exit(1);
        }
    }
}
