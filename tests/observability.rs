//! Golden-trace suite: pins the span stream emitted by fixed-seed runs so
//! any change to instrumentation, span taxonomy, or scheduling order shows
//! up as a diff here — the observability counterpart of `determinism.rs`.
//!
//! Three layers:
//!   1. structural invariants every exported stream must satisfy (stable
//!      sequential ids, monotone begins, `end >= begin`, well-nestedness);
//!   2. golden name-census + pinned prefix of the fixed-seed Mode I and
//!      Mode II mixed runs;
//!   3. a 3×3 seed/intensity fault matrix proving the invariants survive
//!      crash-requeue (retried attempts append `unit.scheduling` spans,
//!      abandoned open spans never reach the Chrome export);
//!   4. span balance on clean Spark, MapReduce and pooled-AM runs, which
//!      reach the `span_begin` sites the mixed runs do not.

use std::collections::BTreeMap;

use hadoop_hpc::pilot::*;
use hadoop_hpc::sim::{validate_chrome_json, Engine, FaultPlan, SimDuration, Span, SpanId, Trace};

mod common;
use common::traced_mixed;
use rp_bench::scenario::{run, sleep_units, Scenario};

fn name_counts(tr: &Trace) -> BTreeMap<&str, usize> {
    let mut counts = BTreeMap::new();
    for s in tr.iter_spans() {
        *counts.entry(tr.span_name(s)).or_insert(0) += 1;
    }
    counts
}

/// Direct children of `root`, in id order.
fn children(tr: &Trace, root: SpanId) -> Vec<&Span> {
    tr.iter_spans().filter(|s| s.parent == Some(root)).collect()
}

/// Structural invariants every exported span stream must satisfy.
fn assert_span_invariants(tr: &Trace) {
    let spans: Vec<&Span> = tr.iter_spans().collect();
    for (i, s) in spans.iter().enumerate() {
        let name = tr.span_name(s);
        // Ids are assigned sequentially from 1 in begin order.
        assert_eq!(s.id.0, i as u64 + 1, "non-sequential id for {name:?}");
        if i > 0 {
            assert!(
                spans[i - 1].begin <= s.begin,
                "begin times must be monotone in id order: {:?} then {:?}",
                tr.span_name(spans[i - 1]),
                name
            );
        }
        if let Some(end) = s.end {
            assert!(end >= s.begin, "{name:?} ends before it begins");
        }
        if let Some(p) = s.parent {
            assert!(p.0 >= 1 && p.0 < s.id.0, "{name:?}: parent after child");
            let parent = spans[p.0 as usize - 1];
            assert!(
                parent.begin <= s.begin,
                "{:?} begins before its parent {:?}",
                name,
                tr.span_name(parent)
            );
            if let (Some(ce), Some(pe)) = (s.end, parent.end) {
                assert!(
                    ce <= pe,
                    "{:?} outlives its parent {:?} ({} > {})",
                    name,
                    tr.span_name(parent),
                    ce,
                    pe
                );
            }
        }
    }
}

/// Per-unit taxonomy: every `unit.run` root owns the canonical phase
/// children, and the single `unit.compute` sits inside the `unit.exec`
/// interval.
fn assert_unit_taxonomy(tr: &Trace, min_scheduling: usize) {
    let roots: Vec<&Span> = tr
        .iter_spans()
        .filter(|s| tr.span_name(s) == "unit.run" && s.parent.is_none())
        .collect();
    assert!(!roots.is_empty());
    for root in roots {
        let kids = children(tr, root.id);
        let count = |n: &str| kids.iter().filter(|s| tr.span_name(s) == n).count();
        assert!(
            count("unit.scheduling") >= min_scheduling,
            "unit {:?}: expected >= {min_scheduling} scheduling spans, got {}",
            root.attrs,
            count("unit.scheduling")
        );
        assert_eq!(count("unit.stage_in"), 1, "unit {:?}", root.attrs);
        assert_eq!(count("unit.stage_out"), 1, "unit {:?}", root.attrs);
        assert_eq!(count("unit.exec"), 1, "unit {:?}", root.attrs);
        let exec = kids
            .iter()
            .find(|s| tr.span_name(s) == "unit.exec")
            .unwrap();
        let computes = children(tr, exec.id);
        assert_eq!(computes.len(), 1, "unit {:?}", root.attrs);
        assert_eq!(tr.span_name(computes[0]), "unit.compute");
        assert!(computes[0].begin >= exec.begin);
        assert!(computes[0].end.unwrap() <= exec.end.unwrap());
    }
}

#[test]
fn mode_i_golden_span_stream() {
    let e = traced_mixed(
        42,
        "xsede.stampede",
        AccessMode::YarnModeI { with_hdfs: true },
    );
    let tr = &e.trace;
    assert_span_invariants(tr);

    // Census: the full stream of the fixed-seed run, by span name.
    let expected: BTreeMap<&str, usize> = [
        ("hdfs.startup", 1),
        ("pilot.bootstrap", 1),
        ("pilot.queue_wait", 1),
        ("pilot.run", 1),
        ("unit.compute", 12),
        ("unit.exec", 12),
        ("unit.run", 12),
        ("unit.scheduling", 24), // UM hand-off + agent scheduling, no retries
        ("unit.stage_in", 12),
        ("unit.stage_out", 12),
        ("yarn.am_allocation", 12),
        ("yarn.container_allocation", 12),
        ("yarn.startup", 1),
    ]
    .into_iter()
    .collect();
    assert_eq!(name_counts(tr), expected);
    assert_eq!(tr.span_count(), 113);

    // Pinned prefix: the pilot root opens the stream, every unit.run root
    // immediately opens its first scheduling child.
    let prefix: Vec<&str> = tr.iter_spans().take(6).map(|s| tr.span_name(s)).collect();
    assert_eq!(
        prefix,
        [
            "pilot.run",
            "pilot.queue_wait",
            "unit.run",
            "unit.scheduling",
            "unit.run",
            "unit.scheduling",
        ]
    );

    // Mode I nests the framework bootstrap: yarn.startup under
    // pilot.bootstrap, hdfs.startup under yarn.startup.
    let find = |n: &str| tr.iter_spans().find(|s| tr.span_name(s) == n).unwrap();
    let bootstrap = find("pilot.bootstrap");
    let yarn = find("yarn.startup");
    let hdfs = find("hdfs.startup");
    assert_eq!(yarn.parent, Some(bootstrap.id));
    assert_eq!(hdfs.parent, Some(yarn.id));

    // A clean run abandons nothing: the export carries every span.
    assert_eq!(tr.live_spans(), 0);
    assert_unit_taxonomy(tr, 2);
    let stats = validate_chrome_json(&tr.to_chrome_json()).unwrap();
    assert_eq!(stats.begins, tr.span_count());
    assert_eq!(stats.ends, tr.span_count());
}

#[test]
fn mode_ii_golden_span_stream() {
    let e = traced_mixed(42, "xsede.wrangler", AccessMode::YarnModeII);
    let tr = &e.trace;
    assert_span_invariants(tr);

    // Mode II connects to the dedicated cluster's YARN: same census as
    // Mode I minus the HDFS deployment.
    let counts = name_counts(tr);
    assert_eq!(counts.get("hdfs.startup"), None);
    assert_eq!(counts["yarn.startup"], 1);
    assert_eq!(counts["pilot.run"], 1);
    assert_eq!(counts["unit.run"], 12);
    assert_eq!(counts["unit.compute"], 12);
    assert_eq!(counts["yarn.am_allocation"], 12);
    assert_eq!(counts["yarn.container_allocation"], 12);
    assert_eq!(tr.span_count(), 112);

    assert_eq!(tr.live_spans(), 0);
    assert_unit_taxonomy(tr, 2);
    let stats = validate_chrome_json(&tr.to_chrome_json()).unwrap();
    assert_eq!(stats.begins, tr.span_count());
}

/// The ci.sh smoke matrix, traced: 3 seeds × 3 fault intensities through a
/// plain 4-node pilot running 8 sleep units. Crash-requeue must never
/// corrupt the span stream — retried attempts append scheduling spans,
/// killed attempts leave their spans open, and the Chrome export stays
/// balanced because open spans are excluded.
#[test]
fn fault_matrix_span_invariants_survive_crash_requeue() {
    let mut saw_retry = false;
    let mut saw_abandoned = false;
    for seed in [1u64, 2, 3] {
        for intensity in [2usize, 6, 12] {
            let scenario = Scenario {
                config: SessionConfig::test_profile(),
                pilots: vec![PilotDescription::new(
                    "xsede.stampede",
                    4,
                    SimDuration::from_secs(14_400),
                )],
                scheduler: UmScheduler::Direct,
                leases: None,
                faults: Some(FaultPlan::generate(
                    seed,
                    SimDuration::from_secs(1800),
                    4,
                    intensity,
                )),
                units: sleep_units(8, "u", |_| 150),
            };
            let run = run(&scenario, Engine::with_trace(seed))
                .unwrap_or_else(|err| panic!("seed={seed} intensity={intensity}: {err}"));
            let (e, units) = (run.engine, run.units);

            let tr = &e.trace;
            assert_span_invariants(tr);

            // Every retried unit's extra attempts show up as extra
            // scheduling spans under its unchanged root.
            for u in &units {
                let unit_id = u.id().0.to_string();
                let root = tr
                    .iter_spans()
                    .find(|s| tr.span_name(s) == "unit.run" && tr.attr(s, "unit") == Some(&unit_id))
                    .expect("every unit has a root span");
                let sched = children(tr, root.id)
                    .iter()
                    .filter(|s| tr.span_name(s) == "unit.scheduling")
                    .count();
                assert_eq!(
                    sched,
                    1 + u.attempts() as usize,
                    "seed={seed} intensity={intensity} {:?}: attempts={}",
                    u.id(),
                    u.attempts()
                );
                if u.attempts() > 1 {
                    saw_retry = true;
                }
            }

            // Abandoned (still-open) spans never reach the export: the
            // Chrome document stays parseable and balanced.
            let open = tr.live_spans();
            if open > 0 {
                saw_abandoned = true;
            }
            let stats = validate_chrome_json(&tr.to_chrome_json())
                .unwrap_or_else(|err| panic!("seed={seed} intensity={intensity}: {err}"));
            assert_eq!(stats.begins, tr.span_count() - open);
            assert_eq!(stats.ends, tr.span_count() - open);
        }
    }
    assert!(saw_retry, "matrix must exercise at least one crash-requeue");
    assert!(
        saw_abandoned,
        "matrix must exercise at least one abandoned span"
    );
}

/// A traced clean run on a 2-node pilot: once the pilot is active,
/// `prepare` sees it (to stage input), each wave of units runs to
/// completion before the next is submitted, and the pilot is then
/// canceled so every lifecycle span closes.
fn traced_waves(
    seed: u64,
    cfg: SessionConfig,
    access: AccessMode,
    prepare: impl FnOnce(&PilotHandle),
    waves: Vec<Vec<ComputeUnitDescription>>,
) -> (Engine, Vec<UnitHandle>) {
    let mut e = Engine::with_trace(seed);
    let session = Session::new(cfg);
    let pm = PilotManager::new(&session);
    let pilot = pm
        .submit(
            &mut e,
            PilotDescription::new("xsede.stampede", 2, SimDuration::from_secs(7200))
                .with_access(access),
        )
        .unwrap();
    while pilot.state() != PilotState::Active {
        assert!(
            e.step(),
            "simulation stalled before the pilot became active"
        );
    }
    prepare(&pilot);
    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);
    let mut all = Vec::new();
    for wave in waves {
        let units = um.submit_units(&mut e, wave);
        while units.iter().any(|u| !u.state().is_final()) {
            assert!(e.step(), "simulation stalled with live units");
        }
        all.extend(units);
    }
    pm.cancel(&mut e, &pilot);
    e.run();
    (e, all)
}

/// `OpenSpan` makes a discarded or twice-ended span a compile error; what
/// the type cannot see is a span that is bound, given attributes and
/// dropped. Each row drives `span_begin` sites the mixed runs miss (the
/// Spark compute span, the MapReduce phase spans, the pooled-AM path) and
/// checks that a clean run leaves no span open.
#[test]
fn clean_framework_runs_close_every_span() {
    let sleep = |name: String| {
        ComputeUnitDescription::new(name, 1, WorkSpec::Sleep(SimDuration::from_secs(30)))
    };
    // Sleep units on a Spark pilot run as one-stage apps and open the
    // Spark compute span.
    let spark_units = (0..4)
        .map(|i| {
            ComputeUnitDescription::new(
                format!("spark{i}"),
                2,
                WorkSpec::Sleep(SimDuration::from_secs_f64(10.0 + f64::from(i) / 2.0)),
            )
        })
        .collect();
    let mr_unit = ComputeUnitDescription::new(
        "analysis",
        1,
        WorkSpec::MapReduce(hadoop_hpc::mapreduce::MrJobSpec {
            name: "span-balance".into(),
            input_path: "/data/in".into(),
            num_reducers: 2,
            container: hadoop_hpc::yarn::Resource::new(1, 1024),
            shuffle: hadoop_hpc::mapreduce::ShuffleBackend::LocalDisk,
            cost: hadoop_hpc::mapreduce::MrCostModel::default(),
        }),
    );
    let stage_input = |pilot: &PilotHandle| {
        let env = pilot.agent().unwrap().hadoop_env().unwrap();
        env.hdfs
            .clone()
            .unwrap()
            .create_synthetic(
                "/data/in",
                256 * 1024 * 1024,
                hadoop_hpc::hdfs::StoragePolicy::Default,
            )
            .unwrap();
    };
    let mut reuse = SessionConfig::test_profile();
    reuse.am_reuse = true;

    let (e, units) = traced_waves(
        51,
        SessionConfig::test_profile(),
        AccessMode::SparkModeI,
        |_| {},
        vec![spark_units],
    );
    assert_closes_every_span("spark", &e, &units, &["unit.compute"]);

    let (e, units) = traced_waves(
        52,
        SessionConfig::test_profile(),
        AccessMode::YarnModeI { with_hdfs: true },
        stage_input,
        vec![vec![mr_unit]],
    );
    assert_closes_every_span(
        "mapreduce",
        &e,
        &units,
        &["yarn.am_allocation", "mr.map", "mr.shuffle", "mr.reduce"],
    );

    let (e, units) = traced_waves(
        53,
        reuse,
        AccessMode::YarnModeI { with_hdfs: false },
        |_| {},
        vec![
            (0..3).map(|i| sleep(format!("a{i}"))).collect(),
            (0..3).map(|i| sleep(format!("b{i}"))).collect(),
        ],
    );
    assert!(e.metrics.counter("agent.am_reused") > 0, "no AM was reused");
    assert_closes_every_span(
        "am_reuse",
        &e,
        &units,
        &["yarn.am_allocation", "yarn.container_allocation"],
    );
}

/// Every unit finished, every `names` span was recorded, and none is left
/// open: the Chrome export carries them all.
fn assert_closes_every_span(row: &str, e: &Engine, units: &[UnitHandle], names: &[&str]) {
    for u in units {
        assert_eq!(u.state(), UnitState::Done, "{row}: {:?}", u.failure());
    }
    let tr = &e.trace;
    assert_span_invariants(tr);
    let counts = name_counts(tr);
    for name in names {
        assert!(counts.contains_key(name), "{row}: no {name} span");
    }
    assert_eq!(tr.live_spans(), 0, "{row}: spans left open");
    let stats = validate_chrome_json(&tr.to_chrome_json()).unwrap();
    assert_eq!(stats.begins, tr.span_count(), "{row}");
    assert_eq!(stats.ends, tr.span_count(), "{row}");
}
