//! End-to-end benchmark of the pilot system.
//!
//! ```text
//! e2e --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--size <n>]
//! ```
//!
//! One invocation runs one named workload, at one seed, in one process,
//! in the default serial engine. It repeats set-up + run until `--seconds`
//! have passed, checks every iteration's outputs, and prints two JSON
//! lines: a record of the host and the sample statistics, then the
//! result, whose `metrics` are the end-to-end metrics (`--trace 0`) or
//! the per-layer metrics (`--trace 1`). A traced run alternates untraced
//! and traced iterations, so it can also report the tracing overhead.
//! Exit code 0 when every check passed, 1 when one failed, 2 on bad
//! arguments. See README.md in this directory.

mod host;
mod probes;
mod record;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use host::{Host, Speed};
use record::{lower_quartile, median, quartiles, Recorder};
use workloads::{Kind, Params, Reference, KINDS};

/// End-to-end metrics, as in `BENCHMARK.json`: `(name, unit)`.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("units_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, as in `BENCHMARK.json`: `(name, unit)`.
const PER_LAYER: [(&str, &str); 38] = [
    ("phase.setup_s", "s"),
    ("phase.submit_s", "s"),
    ("phase.run_s", "s"),
    ("phase.reduce_s", "s"),
    ("engine.events", "count"),
    ("engine.events_per_s", "1/s"),
    ("engine.slab_slots", "count"),
    ("engine.probe_ns_per_event", "ns"),
    ("trace.spans", "count"),
    ("trace.peak_live_spans", "count"),
    ("trace.probe_ns_per_span", "ns"),
    ("metrics.probe_ns_per_labeled_incr", "ns"),
    ("store.docs_written", "count"),
    ("store.polls", "count"),
    ("store.msgs_dropped", "count"),
    ("store.msgs_duplicated", "count"),
    ("store.dup_applies_ignored", "count"),
    ("store.lease_renewals", "count"),
    ("store.fence_rejections", "count"),
    ("store.partition_holds", "count"),
    ("store.dedup_backlog", "count"),
    ("store.probe_ns_per_roundtrip", "ns"),
    ("um.rebinds", "count"),
    ("um.rebind_ratio", "ratio"),
    ("agent.units_completed", "count"),
    ("agent.attempts_per_unit", "ratio"),
    ("yarn.apps_submitted", "count"),
    ("mr.map_tasks", "count"),
    ("mr.shuffle_bytes", "bytes"),
    ("hdfs.blocks_written", "count"),
    ("yarn.probe_us_per_app", "us"),
    ("link.probe_us_per_flow", "us"),
    ("kernel.lloyd_s", "s"),
    ("kernel.rdd_s", "s"),
    ("kernel.mapreduce_s", "s"),
    ("kernel.trajectory_s", "s"),
    ("kernel.lloyd_pairs_per_s", "1/s"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// Set-ups per run: `setup_s` is their lower quartile. After the measured
/// iterations, set-up alone repeats until there are `MIN_SETUPS` samples
/// and `SETUP_BUDGET_S` of them, or `MAX_SETUPS` (finished simulations
/// are not all freed, so memory grows with every set-up).
const MIN_SETUPS: usize = 5;
const SETUP_BUDGET_S: f64 = 0.3;
const MAX_SETUPS: usize = 100;

/// Kernel threads: two, or fewer on a smaller host.
const MAX_THREADS: usize = 2;

/// Virtual fingerprints of the deterministic workloads, by
/// `workload seed size`.
const FINGERPRINTS: &str = include_str!("../fingerprints.txt");

const USAGE: &str =
    "usage: e2e --workload <bag_plain|modei_mapreduce|lease_failover|coupled_analytics> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>] [--size <n>]";

struct Args {
    kind: Kind,
    params: Params,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut kind = None;
    let (mut seed, mut seconds, mut trace, mut size) = (1u64, 20.0f64, false, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("expected seconds ≥ 0"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--size" => size = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    let size = size.unwrap_or(kind.default_size());
    if size < kind.min_size() {
        return Err(format!(
            "--size: {} needs at least {}",
            kind.name(),
            kind.min_size()
        ));
    }
    Ok(Args {
        kind,
        params: Params { seed, size },
        seconds,
        trace,
    })
}

/// Samples of one run, by metric name. Host times are stored already
/// scaled to the reference host's speed.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    fn median(&self, name: &str) -> f64 {
        median(self.get(name))
    }
}

struct Run {
    attempted: usize,
    done: usize,
    failures: Vec<String>,
    untraced: Samples,
    traced: Samples,
    fingerprints: Vec<String>,
    speed: Speed,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

/// Run the workload for `args.seconds`; `threads` is the kernels' worker
/// thread count.
fn measure(args: &Args, threads: usize) -> Run {
    let mut run = Run {
        attempted: 0,
        done: 0,
        failures: Vec::new(),
        untraced: Samples::default(),
        traced: Samples::default(),
        fingerprints: Vec::new(),
        speed: Speed::start(if args.kind.multithreaded() {
            threads
        } else {
            1
        }),
        metrics: Vec::new(),
    };
    let mut reference: Option<Reference> = None;
    let mut setups = Vec::new();
    // Read after the first iteration: finished simulations are not all
    // freed, so a later reading would grow with the iteration count.
    let mut rss = None;
    let mut iterations = (0usize, 0usize);
    let start = Instant::now();
    loop {
        let traced = args.trace && iterations.0 > iterations.1;
        let rec = Recorder::new(traced);
        let outcome = workloads::setup(args.kind, &args.params, &rec)
            .map(|ready| workloads::execute(ready, &rec, &mut reference));
        let scale = run.speed.factor();
        setups.push(rec.total("setup") * scale);
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                run.failures.push(e);
                break;
            }
        };
        if rss.is_none() {
            rss = host::peak_rss_mb();
        }
        run.attempted += outcome.units;
        run.done += outcome.done;
        run.failures.extend(outcome.failures);
        run.fingerprints.extend(outcome.fingerprint);
        let wall = rec.between("submit", "reduce").unwrap_or(0.0) * scale;
        let samples = if traced {
            iterations.1 += 1;
            &mut run.traced
        } else {
            iterations.0 += 1;
            &mut run.untraced
        };
        samples.push("wall_s", wall);
        samples.push("units_per_s", outcome.units as f64 / wall.max(1e-9));
        if traced {
            for (name, value) in outcome.layer {
                samples.push(name, value);
            }
            let events = samples.get("engine.events").last().copied().unwrap_or(0.0);
            samples.push("engine.events_per_s", events / wall.max(1e-9));
            let selfs = rec.self_times();
            for (metric, span) in [
                ("phase.setup_s", "setup"),
                ("phase.submit_s", "submit"),
                ("phase.run_s", "run"),
                ("phase.reduce_s", "reduce"),
            ] {
                samples.push(metric, selfs.get(span).copied().unwrap_or(0.0) * scale);
            }
            push_kernel_calls(samples, &rec, scale);
        }
        let enough = iterations.0 >= 1 && (!args.trace || iterations.1 >= 1);
        if !run.failures.is_empty() || (enough && start.elapsed().as_secs_f64() >= args.seconds) {
            break;
        }
    }
    if !args.trace && run.failures.is_empty() {
        let mut extra = Vec::new();
        while setups.len() + extra.len() < MIN_SETUPS
            || (setups.iter().chain(&extra).sum::<f64>() < SETUP_BUDGET_S
                && setups.len() + extra.len() < MAX_SETUPS)
        {
            let rec = Recorder::new(false);
            if let Err(e) = workloads::setup(args.kind, &args.params, &rec) {
                run.failures.push(e);
                break;
            }
            extra.push(rec.total("setup"));
        }
        let scale = run.speed.factor();
        setups.extend(extra.into_iter().map(|s| s * scale));
    }
    let key = format!(
        "{} {} {}",
        args.kind.name(),
        args.params.seed,
        args.params.size
    );
    let mismatches = check_fingerprints(&key, FINGERPRINTS, &run.fingerprints);
    run.failures.extend(mismatches);

    if args.trace {
        run.metrics = per_layer(args, &mut run);
    } else {
        let rss = rss.unwrap_or_else(|| {
            run.failures.push("cannot read VmHWM".into());
            0.0
        });
        let wall = lower_quartile(run.untraced.get("wall_s"));
        let units = run.attempted as f64 / iterations.0.max(1) as f64;
        let values = [wall, units / wall.max(1e-9), lower_quartile(&setups), rss];
        run.metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect();
        for s in setups {
            run.untraced.push("setup_s", s);
        }
        run.untraced.push("peak_rss_mb", rss);
    }
    run
}

/// Durations of the kernel calls recorded as detail spans.
fn push_kernel_calls(samples: &mut Samples, rec: &Recorder, scale: f64) {
    for (name, d) in rec.durations() {
        let metric = match name {
            "kernel.lloyd" => "kernel.lloyd_s",
            "kernel.rdd" => "kernel.rdd_s",
            "kernel.mapreduce" => "kernel.mapreduce_s",
            "kernel.trajectory" => "kernel.trajectory_s",
            _ => continue,
        };
        samples.push(metric, d * scale);
    }
}

fn per_layer(args: &Args, run: &mut Run) -> Vec<(&'static str, &'static str, f64)> {
    match probes::run() {
        Ok(values) => {
            let scale = run.speed.factor();
            for (name, v) in values {
                run.traced.push(name, v * scale);
            }
        }
        Err(e) => run.failures.push(e),
    }
    // Workloads without an analysis unit time the same kernels at probe
    // size, so every kernel metric is a measured time on every workload.
    let mut points = args.params.size;
    if run.traced.get("kernel.lloyd_s").is_empty() {
        let rec = Recorder::new(true);
        probes::kernels(args.params.seed, &rec);
        let scale = run.speed.factor();
        push_kernel_calls(&mut run.traced, &rec, scale);
        points = probes::KERNEL_PROBE_POINTS;
    }
    let lloyd_s = run.traced.median("kernel.lloyd_s");
    let pairs = (points * workloads::K) as f64 * f64::from(workloads::LLOYD_ITERS);
    run.traced
        .push("kernel.lloyd_pairs_per_s", pairs / lloyd_s.max(1e-12));
    let overhead = lower_quartile(run.traced.get("wall_s"))
        / lower_quartile(run.untraced.get("wall_s")).max(1e-12)
        - 1.0;
    run.traced.push("bench.trace_overhead_frac", overhead);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, run.traced.median(name)))
        .collect()
}

/// Deterministic workloads must replay bit-identically across the
/// iterations of a run, and match the recorded fingerprint when one is
/// kept for this workload, seed and size.
fn check_fingerprints(key: &str, table: &str, fingerprints: &[String]) -> Vec<String> {
    let mut failures = Vec::new();
    let Some(first) = fingerprints.first() else {
        return failures;
    };
    if fingerprints.iter().any(|f| f != first) {
        failures.push("virtual results differ between iterations".into());
    }
    let recorded = table.lines().find_map(|l| {
        l.trim()
            .strip_prefix(key)
            .and_then(|rest| rest.strip_prefix(' '))
            .map(str::trim)
    });
    if let Some(want) = recorded {
        if want != first {
            failures.push(format!(
                "virtual fingerprint {first} differs from the recorded {want}"
            ));
        }
    }
    failures
}

/// A JSON number with all its digits (Rust's shortest round-trip form
/// never uses an exponent). Non-finite values cannot occur by
/// construction; they print as 0 and fail the run.
fn num(v: f64, failures: &mut Vec<String>, name: &str) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        failures.push(format!("{name} is not finite"));
        "0".into()
    }
}

fn stats_json(v: &[f64]) -> String {
    let (q1, med, q3) = quartiles(v);
    format!(
        "{{\"n\":{},\"q1\":{q1},\"median\":{med},\"q3\":{q3}}}",
        v.len()
    )
}

fn info_line(args: &Args, host: &Host, allocator_fixed: bool, run: &Run) -> String {
    let samples = if args.trace {
        &run.traced
    } else {
        &run.untraced
    };
    let stats: Vec<String> = run
        .metrics
        .iter()
        .map(|&(name, _, _)| format!("\"{name}\":{}", stats_json(samples.get(name))))
        .collect();
    let failures: Vec<String> = run
        .failures
        .iter()
        .map(|f| format!("\"{}\"", rp_sim::escape_json(f)))
        .collect();
    format!(
        "{{\"info\":{{\"workload\":\"{}\",\"seed\":{},\"size\":{},\"trace\":{},\"nproc\":{},\
         \"rp_threads\":{},\"cpu\":\"{}\",\"git_rev\":\"{}\",\"mmap_threshold_fixed\":{},\
         \"reference_s\":{},\"calibration_s\":{},\"fingerprint\":\"{}\",\
         \"samples\":{{{}}},\"failures\":[{}]}}}}",
        args.kind.name(),
        args.params.seed,
        args.params.size,
        u8::from(args.trace),
        host.nproc,
        host.threads,
        rp_sim::escape_json(&host.cpu),
        rp_sim::escape_json(&host.git_rev),
        allocator_fixed,
        host::REFERENCE_S,
        stats_json(&run.speed.samples),
        run.fingerprints.first().map_or("", String::as_str),
        stats.join(","),
        failures.join(","),
    )
}

fn result_line(run: &mut Run) -> String {
    let mut failures = Vec::new();
    let metrics: Vec<String> = run
        .metrics
        .iter()
        .map(|&(name, unit, v)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                num(v, &mut failures, name)
            )
        })
        .collect();
    run.failures.extend(failures);
    let correct = run.failures.is_empty() && run.attempted > 0;
    // A failed check marks every unit of the run as failed.
    let attempted = run.attempted.max(1);
    let failed = if correct {
        attempted - run.done
    } else {
        attempted
    };
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}\nworkloads: {:?}", KINDS.map(Kind::name));
            return ExitCode::from(2);
        }
    };
    let allocator_fixed = host::fix_mmap_threshold();
    let host = Host::detect(MAX_THREADS);
    // Pinned before any kernel runs (the thread count is read once per
    // process), and the engine mode left to its serial default.
    std::env::set_var("RP_THREADS", host.threads.to_string());
    std::env::remove_var("RP_ENGINE_MODE");
    std::env::remove_var("RP_TELEMETRY");

    let mut run = measure(&args, host.threads);
    let result = result_line(&mut run);
    println!("{}", info_line(&args, &host, allocator_fixed, &run));
    println!("{result}");
    if run.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for f in &run.failures {
            eprintln!("e2e: check failed: {f}");
        }
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() -> Result<(), String> {
        let a = args("--workload lease_failover --seed 7 --seconds 10 --trace 1")?;
        assert_eq!(a.kind, Kind::LeaseFailover);
        assert_eq!((a.params.seed, a.params.size), (7, 8_000));
        assert_eq!((a.seconds, a.trace), (10.0, true));
        assert_eq!(args("--workload bag_plain --size 5")?.params.size, 5);
        for bad in [
            "",
            "--workload",
            "--workload nope",
            "--workload bag_plain --seconds -1",
            "--workload bag_plain --trace yes",
            "--workload bag_plain --frobnicate 1",
            "--workload coupled_analytics --size 10",
        ] {
            assert!(args(bad).is_err(), "{bad:?} parsed");
        }
        Ok(())
    }

    #[test]
    fn fingerprint_check_catches_drift_and_mismatch() {
        let table = "# comment\nbag_plain 1 2000 aa:10\nbag_plain 1 20000 bb:20\n";
        let fp = |s: &str| vec![s.to_string(), s.to_string()];
        assert!(check_fingerprints("bag_plain 1 2000", table, &fp("aa:10")).is_empty());
        assert_eq!(
            check_fingerprints("bag_plain 1 2000", table, &fp("bb:20")).len(),
            1
        );
        // No recorded line for this key: only replay consistency counts.
        assert!(check_fingerprints("bag_plain 2 2000", table, &fp("cc:1")).is_empty());
        let drift = vec!["aa:10".to_string(), "aa:11".to_string()];
        assert_eq!(
            check_fingerprints("bag_plain 3 2000", table, &drift).len(),
            1
        );
        assert!(check_fingerprints("bag_plain 1 2000", table, &[]).is_empty());
    }

    #[test]
    fn metric_lists_use_well_formed_names() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name.len() <= 64 && !unit.is_empty() && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
    }
}
