//! rp_lint — run the workspace static-analysis pass.
//!
//! Usage:
//!   rp_lint [--json] [--root DIR] [--bless] [--emit-dot DIR] [--explain RULE]
//!           [--timings] [--waivers]
//!
//! Exit code 1 when any unwaived fatal finding remains (or on usage error),
//! 0 otherwise.

use std::path::PathBuf;
use std::process::ExitCode;

use rp_analyze::{report, run_pass, scan, waivers, Options};

const USAGE: &str = "\
rp_lint: workspace static-analysis pass (rp-analyze)

USAGE:
    rp_lint [OPTIONS]

OPTIONS:
    --json            Emit findings as JSON on stdout
    --root DIR        Workspace root (default: nearest [workspace] Cargo.toml)
    --bless           Rewrite lint_baseline.toml from the current tree
                      instead of checking against it
    --emit-dot DIR    Write lifecycle DOT graphs into DIR
    --explain RULE    Print the long description of one rule and exit
                      (or list all rules when RULE is omitted)
    --timings         Print per-rule wall time to stderr after the pass
    --waivers         List every inline waiver (file, line, rules, reason)
                      and exit without running the rules
    -h, --help        Show this help
";

fn main() -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut opts = Options::default();
    let mut explain: Option<Option<String>> = None;
    let mut list_waivers = false;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json = true,
            "--bless" => opts.bless = true,
            "--timings" => opts.timings = true,
            "--waivers" => list_waivers = true,
            "--root" => match args.next() {
                Some(d) => root = Some(PathBuf::from(d)),
                None => return usage_error("--root needs a directory"),
            },
            "--emit-dot" => match args.next() {
                Some(d) => opts.emit_dot = Some(PathBuf::from(d)),
                None => return usage_error("--emit-dot needs a directory"),
            },
            "--explain" => explain = Some(args.next()),
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    if let Some(rule) = explain {
        return match rule {
            Some(r) => match report::explain(&r) {
                Some(doc) => {
                    println!("{doc}");
                    ExitCode::SUCCESS
                }
                None => usage_error(&format!(
                    "unknown rule `{r}`; rules: {}",
                    report::RULES.join(", ")
                )),
            },
            None => {
                println!("rules: {}", report::RULES.join(", "));
                println!("run `rp_lint --explain <rule>` for details");
                ExitCode::SUCCESS
            }
        };
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match scan::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("rp_lint: no [workspace] Cargo.toml above {}", cwd.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    if list_waivers {
        return match scan::load_workspace(&root) {
            Ok(files) => {
                print!("{}", waivers::render(&waivers::collect(&files)));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("rp_lint: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let pass = match run_pass(&root, &opts) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("rp_lint: {e}");
            return ExitCode::FAILURE;
        }
    };

    if opts.bless {
        eprintln!("rp_lint: blessed lint_baseline.toml");
    }
    if json {
        print!("{}", pass.report.render_json());
    } else {
        print!("{}", pass.report.render_text());
    }
    if opts.timings {
        let total: f64 = pass.timings.iter().map(|(_, s)| s).sum();
        for (rule, secs) in &pass.timings {
            eprintln!("rp_lint: {rule:<20} {:8.2} ms", secs * 1e3);
        }
        eprintln!("rp_lint: {:<20} {:8.2} ms", "total", total * 1e3);
    }

    if pass.report.fatal_count() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("rp_lint: {msg}\n\n{USAGE}");
    ExitCode::FAILURE
}
