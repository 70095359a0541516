//! Smoke runs of the benchmark binary: every workload at a small size with
//! all its checks, one workload at a second seed, and the printed metric
//! names and units checked against the repository's `BENCHMARK.json`.

use std::process::Command;

use rp_sim::json::{self, Value};

const BIN: &str = env!("CARGO_BIN_EXE_e2e");
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");

/// Small sizes at which every workload still exercises what it is for.
const SMOKE: [(&str, &str); 4] = [
    ("bag_plain", "2000"),
    ("modei_mapreduce", "20"),
    ("lease_failover", "2000"),
    ("coupled_analytics", "20000"),
];

struct Run {
    code: Option<i32>,
    info: Value,
    result: Value,
}

fn run(workload: &str, size: &str, seed: &str, trace: &str) -> Result<Run, String> {
    let out = Command::new(BIN)
        .args(["--workload", workload, "--size", size, "--seed", seed])
        .args(["--seconds", "0", "--trace", trace])
        .output()
        .map_err(|e| format!("cannot run {BIN}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    let [.., info, result] = lines.as_slice() else {
        return Err(format!(
            "{workload}: expected two output lines, got {stdout:?}; stderr {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    };
    Ok(Run {
        code: out.status.code(),
        info: json::parse(info)?,
        result: json::parse(result)?,
    })
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` section.
fn declared(section: &str) -> Result<Vec<(String, String)>, String> {
    let text =
        std::fs::read_to_string(BENCHMARK_JSON).map_err(|e| format!("{BENCHMARK_JSON}: {e}"))?;
    let doc = json::parse(&text)?;
    let items = doc
        .get(section)
        .and_then(Value::as_array)
        .ok_or(format!("BENCHMARK.json has no {section} list"))?;
    items
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or(format!("{section} entry without {k}"))
            };
            Ok((field("name")?, field("unit")?))
        })
        .collect()
}

/// `(name, unit, value)` of every metric in a result line.
fn printed(result: &Value) -> Result<Vec<(String, String, f64)>, String> {
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result without metrics")?;
    metrics
        .iter()
        .map(|(name, m)| {
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .ok_or("metric without unit")?;
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or("metric without value")?;
            Ok((name.clone(), unit.to_string(), value))
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The run passed every check and printed exactly the `section` metrics.
fn assert_passed(
    run: &Run,
    section: &str,
    what: &str,
) -> Result<Vec<(String, String, f64)>, String> {
    let r = &run.result;
    let failures = run.info.get("info").and_then(|i| i.get("failures"));
    assert_eq!(
        run.code,
        Some(0),
        "{what}: exit code, failures {failures:?}"
    );
    assert_eq!(
        r.get("correct"),
        Some(&Value::Bool(true)),
        "{what}: {failures:?}"
    );
    assert_eq!(r.get("failed").and_then(Value::as_f64), Some(0.0), "{what}");
    let attempted = r.get("attempted").and_then(Value::as_f64).unwrap_or(0.0);
    assert!(attempted >= 1.0, "{what}: attempted {attempted}");
    let got = printed(r)?;
    let names: Vec<(String, String)> = got.iter().map(|(n, u, _)| (n.clone(), u.clone())).collect();
    assert_eq!(
        names,
        declared(section)?,
        "{what}: metrics differ from BENCHMARK.json"
    );
    for (name, _, value) in &got {
        assert!(well_formed(name), "{what}: malformed metric name {name:?}");
        assert!(value.is_finite(), "{what}: {name} = {value}");
    }
    Ok(got)
}

#[test]
fn every_workload_passes_its_checks() -> Result<(), String> {
    for (workload, size) in SMOKE {
        let run = run(workload, size, "1", "0")?;
        let metrics = assert_passed(&run, "end_to_end", workload)?;
        for (name, _, value) in metrics {
            assert!(value > 0.0, "{workload}: end-to-end {name} = {value}");
        }
        let info = run.info.get("info").ok_or("no info object")?;
        for key in ["nproc", "rp_threads", "cpu", "git_rev"] {
            assert!(info.get(key).is_some(), "{workload}: info lacks {key}");
        }
    }
    Ok(())
}

#[test]
fn traced_run_prints_every_per_layer_metric() -> Result<(), String> {
    let run = run("lease_failover", "2000", "1", "1")?;
    let metrics = assert_passed(&run, "per_layer", "traced lease_failover")?;
    let value = |name: &str| {
        metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, v)| *v)
            .unwrap_or(f64::NAN)
    };
    // Layers this workload drives carry work; the ones it bypasses none.
    for name in ["store.fence_rejections", "um.rebinds", "engine.events"] {
        assert!(value(name) > 0.0, "{name} = {}", value(name));
    }
    for name in ["yarn.apps_submitted", "hdfs.blocks_written", "trace.spans"] {
        assert_eq!(value(name), 0.0, "{name}");
    }
    for name in ["engine.probe_ns_per_event", "kernel.lloyd_s", "phase.run_s"] {
        assert!(value(name) > 0.0, "{name} = {}", value(name));
    }
    Ok(())
}

#[test]
fn second_seed_gives_other_inputs_and_passes() -> Result<(), String> {
    let fingerprint = |run: &Run| {
        run.info
            .get("info")
            .and_then(|i| i.get("fingerprint"))
            .and_then(Value::as_str)
            .map(str::to_string)
            .unwrap_or_default()
    };
    let first = run("modei_mapreduce", "20", "1", "0")?;
    let second = run("modei_mapreduce", "20", "2", "0")?;
    assert_passed(&second, "end_to_end", "modei_mapreduce seed 2")?;
    assert!(!fingerprint(&first).is_empty());
    assert_ne!(fingerprint(&first), fingerprint(&second));
    Ok(())
}

#[test]
fn declared_names_are_well_formed_and_unique() -> Result<(), String> {
    let mut names: Vec<String> = Vec::new();
    for section in ["end_to_end", "per_layer"] {
        names.extend(declared(section)?.into_iter().map(|(n, _)| n));
    }
    for n in &names {
        assert!(well_formed(n), "{n:?}");
    }
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "duplicate metric names");
    Ok(())
}

#[test]
fn bad_arguments_exit_2_without_a_result() -> Result<(), String> {
    for args in [
        vec!["--workload", "no_such_workload"],
        vec!["--seed", "1"],
        vec!["--workload", "bag_plain", "--trace", "2"],
        vec!["--workload", "lease_failover", "--size", "10"],
    ] {
        let out = Command::new(BIN)
            .args(&args)
            .output()
            .map_err(|e| e.to_string())?;
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
    Ok(())
}
