//! Ablations of the design choices and future-work directions the paper
//! argues for: AM reuse, Docker containers, the coordination poll
//! interval, the shuffle backend, the Spark deployment mode, speculative
//! execution and HPC↔analytics stage coupling.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use rp_hdfs::{Hdfs, HdfsConfig, StoragePolicy};
use rp_hpc::{Cluster, MachineSpec, NodeId};
use rp_mapreduce::{run_on_yarn, MrCostModel, MrJobSpec, MrJobStats, ShuffleBackend};
use rp_pilot::{
    AccessMode, ComputeUnitDescription, PilotDescription, PilotManager, PilotState, Session,
    SessionConfig, UmScheduler, UnitManager, UnitState, WorkSpec,
};
use rp_saga::{stream, transfer, Endpoint};
use rp_sim::{Engine, SimDuration, SpanId, MB};
use rp_spark::{submit_spark_on_yarn, SparkCluster, SparkConfig};
use rp_yarn::{bootstrap_mode_i, ContainerRuntime, Resource, YarnCluster, YarnConfig};

use super::Outcome;
use crate::{mean_std, repeat, ShapeChecks, Table};

/// Startup time of each of `n` one-core sleep-5 s units, run one after
/// another on a 1-node Stampede Mode I pilot without HDFS.
fn sequential_unit_startups(config: SessionConfig, n: usize) -> Vec<f64> {
    let mut e = Engine::new(42);
    let session = Session::new(config);
    let pm = PilotManager::new(&session);
    let pilot = pm
        .submit(
            &mut e,
            PilotDescription::new("xsede.stampede", 1, SimDuration::from_secs(4 * 3600))
                .with_access(AccessMode::YarnModeI { with_hdfs: false }),
        )
        .expect("1-node Stampede pilot submits");
    while pilot.state() != PilotState::Active {
        assert!(e.step(), "engine drained before pilot became active");
    }
    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);
    let mut startups = Vec::new();
    for i in 0..n {
        let units = um.submit_units(
            &mut e,
            vec![ComputeUnitDescription::new(
                format!("u{i}"),
                1,
                WorkSpec::Sleep(SimDuration::from_secs(5)),
            )],
        );
        while !units[0].state().is_final() {
            assert!(e.step(), "engine drained before unit finished");
        }
        assert_eq!(
            units[0].state(),
            UnitState::Done,
            "{:?}",
            units[0].failure()
        );
        startups.push(
            units[0]
                .times()
                .startup_time()
                .expect("a Done unit has started")
                .as_secs_f64(),
        );
    }
    pm.cancel(&mut e, &pilot);
    e.run();
    startups
}

/// Ablation A — AM/container reuse (§III-C future work: "In the future,
/// we will further optimize the implementation by providing support for
/// Application Master and container re-use"). 16 sequential CUs with and
/// without the AM-reuse pool: startup of the first unit (cold) and the
/// mean over the rest (warm).
pub fn am_reuse() -> Outcome {
    const UNITS: usize = 16;
    let mut out = format!(
        "== Ablation A: RADICAL-Pilot YARN Application Master reuse ==\n   \
         ({UNITS} sequential CUs on a Mode I pilot, Stampede)\n\n"
    );
    let mut table = Table::new(vec![
        "configuration",
        "first-unit startup (s)",
        "subsequent units (s)",
    ]);
    let cold_warm = |reuse: bool| {
        let s = sequential_unit_startups(
            SessionConfig {
                am_reuse: reuse,
                ..SessionConfig::default()
            },
            UNITS,
        );
        (s[0], s[1..].iter().sum::<f64>() / (UNITS - 1) as f64)
    };
    let (cold_off, warm_off) = cold_warm(false);
    let (cold_on, warm_on) = cold_warm(true);
    table.row(vec![
        "per-unit AM (baseline)".to_string(),
        format!("{cold_off:6.1}"),
        format!("{warm_off:6.1}"),
    ]);
    table.row(vec![
        "AM reuse pool".to_string(),
        format!("{cold_on:6.1}"),
        format!("{warm_on:6.1}"),
    ]);
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nwarm-unit startup reduction: {:.0}%\n",
        (1.0 - warm_on / warm_off) * 100.0
    ));

    let mut checks = ShapeChecks::new();
    checks.check(
        format!("first unit pays the full AM path either way ({cold_on:.1}s vs {cold_off:.1}s)"),
        (cold_on - cold_off).abs() < 8.0,
    );
    checks.check(
        format!("reuse cuts warm startup by >50% ({warm_on:.1}s vs {warm_off:.1}s)"),
        warm_on < warm_off * 0.5,
    );
    Outcome::new(out, checks)
}

/// Ablation D — Docker container runtime on YARN (§V future work:
/// "container-based virtualization (based on Docker) … is increasingly
/// used in cloud environments and also supported by YARN"). CU startup
/// with process containers vs Docker containers, cold image (first unit)
/// vs node-cached image (fifth unit).
pub fn docker() -> Outcome {
    let mut out = String::from(
        "== Ablation D: Docker container runtime on YARN ==\n   \
         (5 sequential CUs, Mode I pilot, Stampede, 1 node)\n\n",
    );
    let mut table = Table::new(vec![
        "runtime",
        "first CU startup (s)",
        "fifth CU startup (s)",
    ]);
    let first_fifth = |runtime: ContainerRuntime| {
        let mut cfg = SessionConfig::default();
        cfg.yarn.container_runtime = runtime;
        let s = sequential_unit_startups(cfg, 5);
        (s[0], s[4])
    };
    let (proc_first, proc_warm) = first_fifth(ContainerRuntime::Process);
    let (dock_first, dock_warm) = first_fifth(ContainerRuntime::Docker {
        image_pull_s: (45.0, 5.0), // RP wrapper image over the campus mirror
        start_overhead_s: 1.0,
    });
    table.row(vec![
        "process".to_string(),
        format!("{proc_first:6.1}"),
        format!("{proc_warm:6.1}"),
    ]);
    table.row(vec![
        "docker".to_string(),
        format!("{dock_first:6.1}"),
        format!("{dock_warm:6.1}"),
    ]);
    out.push_str(&table.render());

    let mut checks = ShapeChecks::new();
    checks.check(
        format!("cold Docker unit pays the image pull ({dock_first:.1}s vs {proc_first:.1}s)"),
        dock_first > proc_first + 30.0,
    );
    checks.check(
        format!("warm Docker units only pay start overhead ({dock_warm:.1}s vs {proc_warm:.1}s)"),
        (dock_warm - proc_warm) < 8.0,
    );
    Outcome::new(out, checks)
}

/// Ablation C — coordination-store poll interval. The Unit-Manager →
/// store → agent path (U.2–U.3) gates every unit on the agent's poll
/// cadence; this sweep measures the makespan of 64 small CUs under
/// different poll intervals — the trade-off between store load and unit
/// turnaround the paper's architecture implies.
pub fn polling() -> Outcome {
    const UNITS: usize = 64;
    const INTERVALS_MS: [u64; 4] = [100, 500, 1_000, 5_000];

    // Makespan (first submission → last unit done) and store poll count.
    let run = |poll_ms: u64| -> (f64, u64) {
        let mut e = Engine::new(11);
        let mut cfg = SessionConfig::default();
        cfg.coordination.poll_ms = poll_ms;
        cfg.exec_prep_s = (0.2, 0.02); // fast spawner so polling dominates
        let session = Session::new(cfg);
        let pm = PilotManager::new(&session);
        let pilot = pm
            .submit(
                &mut e,
                PilotDescription::new("xsede.stampede", 2, SimDuration::from_secs(4 * 3600)),
            )
            .expect("2-node Stampede pilot submits");
        while pilot.state() != PilotState::Active {
            assert!(e.step(), "engine drained before pilot became active");
        }
        let mut um = UnitManager::new(&session, UmScheduler::Direct);
        um.add_pilot(&pilot);
        let t0 = e.now();
        // Submit in 8 waves of 8 so later waves actually wait on fresh polls.
        let mut last_done = t0;
        for wave in 0..8 {
            let units = um.submit_units(
                &mut e,
                (0..UNITS / 8)
                    .map(|i| {
                        ComputeUnitDescription::new(
                            format!("w{wave}u{i}"),
                            1,
                            WorkSpec::Sleep(SimDuration::from_secs(2)),
                        )
                    })
                    .collect(),
            );
            while units.iter().any(|u| !u.state().is_final()) {
                assert!(e.step(), "engine drained with live units");
            }
            assert!(units.iter().all(|u| u.state() == UnitState::Done));
            last_done = e.now();
        }
        let makespan = last_done.since(t0).as_secs_f64();
        let polls = session.store().polls();
        pm.cancel(&mut e, &pilot);
        e.run();
        (makespan, polls)
    };

    let mut out = format!(
        "== Ablation C: coordination-store poll interval ==\n   \
         ({UNITS} sleep-2s CUs in 8 waves, Stampede, 2 nodes)\n\n"
    );
    let mut table = Table::new(vec!["poll interval (ms)", "makespan (s)", "store polls"]);
    let mut spans = Vec::new();
    for &ms in &INTERVALS_MS {
        let (makespan, polls) = run(ms);
        table.row(vec![
            ms.to_string(),
            format!("{makespan:7.1}"),
            polls.to_string(),
        ]);
        spans.push(makespan);
    }
    out.push_str(&table.render());

    let mut checks = ShapeChecks::new();
    checks.check(
        format!(
            "makespan grows with the poll interval ({:.1}s → {:.1}s)",
            spans[0],
            spans[spans.len() - 1]
        ),
        spans.windows(2).all(|w| w[0] <= w[1] + 0.5) && spans[spans.len() - 1] > spans[0] + 5.0,
    );
    Outcome::new(out, checks)
}

/// Run one MapReduce job over a synthetic 32-block `/in` of `input_bytes`
/// on a fresh YARN + HDFS cluster spanning the first 3 nodes of `machine`.
fn run_mr_job(
    machine: MachineSpec,
    input_bytes: u64,
    name: &str,
    shuffle: ShuffleBackend,
    cost: MrCostModel,
    seed: u64,
) -> MrJobStats {
    let mut e = Engine::new(seed);
    let cluster = Cluster::new(machine);
    let nodes: Vec<NodeId> = cluster.node_ids().take(3).collect();
    let yarn = YarnCluster::start(&mut e, &cluster, &nodes, YarnConfig::default());
    let hdfs = Hdfs::attach(cluster.clone(), nodes, HdfsConfig::default());
    hdfs.create_synthetic_with_blocks("/in", input_bytes, StoragePolicy::Default, 32)
        .expect("fresh HDFS has room for the input");
    let spec = MrJobSpec {
        name: name.into(),
        input_path: "/in".into(),
        num_reducers: 4,
        container: Resource::new(1, 2048),
        shuffle,
        cost,
    };
    let out = Rc::new(RefCell::new(None));
    let o = out.clone();
    run_on_yarn(
        &mut e,
        &cluster,
        &yarn,
        &hdfs,
        spec,
        SpanId::NONE,
        move |_, stats| {
            *o.borrow_mut() = Some(stats);
        },
    )
    .expect("the input was just created");
    e.run();
    let stats = out.borrow_mut().take().expect("job finished");
    stats
}

/// Ablation B — shuffle backend: node-local disk vs Lustre (the
/// Hadoop-on-HPC storage choice discussed in §II and §V). The 1M-point
/// K-Means MapReduce job (32 maps) runs directly on a YARN cluster with
/// each backend, on both machines.
pub fn shuffle_backend() -> Outcome {
    const POINTS: u64 = 1_000_000;
    const CLUSTERS: f64 = 50.0;
    const RECORD_BYTES: f64 = 600.0;
    const INPUT_BYTES_PER_POINT: f64 = 30.0;
    let points_per_mb = MB / INPUT_BYTES_PER_POINT;
    let cost = MrCostModel {
        map_core_s_per_input_mb: points_per_mb * CLUSTERS * 1.2e-4,
        map_fixed_s: 1.5,
        map_output_ratio: RECORD_BYTES / INPUT_BYTES_PER_POINT,
        reduce_core_s_per_shuffle_mb: (MB / RECORD_BYTES) * 4.0e-5,
        reduce_fixed_s: 1.5,
        reduce_output_ratio: 0.01,
        task_jitter_sigma: 0.08,
        speculative_threshold: 0.0,
    };

    let mut out =
        String::from("== Ablation B: shuffle backend (K-Means 1M pts, 32 maps, 4 reducers) ==\n\n");
    let mut table = Table::new(vec![
        "machine",
        "backend",
        "total (s)",
        "map (s)",
        "shuffle (s)",
        "reduce (s)",
    ]);
    let mut totals = BTreeMap::new();
    for (mname, machine) in [
        ("stampede", MachineSpec::stampede()),
        ("wrangler", MachineSpec::wrangler()),
    ] {
        for (bname, backend) in [
            ("local-disk", ShuffleBackend::LocalDisk),
            ("lustre", ShuffleBackend::Lustre),
            ("in-memory", ShuffleBackend::InMemory),
        ] {
            let input = (POINTS as f64 * INPUT_BYTES_PER_POINT) as u64;
            let s = run_mr_job(
                machine.clone(),
                input,
                "kmeans-iter",
                backend,
                cost.clone(),
                7,
            );
            table.row(vec![
                mname.to_string(),
                bname.to_string(),
                format!("{:7.1}", s.total.as_secs_f64()),
                format!("{:6.1}", s.map_phase.as_secs_f64()),
                format!("{:6.1}", s.shuffle_phase.as_secs_f64()),
                format!("{:6.1}", s.reduce_phase.as_secs_f64()),
            ]);
            totals.insert((mname, bname), s.total.as_secs_f64());
        }
    }
    out.push_str(&table.render());

    let mut checks = ShapeChecks::new();
    checks.check(
        format!(
            "local-disk shuffle beats Lustre on Stampede ({:.1}s vs {:.1}s)",
            totals[&("stampede", "local-disk")],
            totals[&("stampede", "lustre")]
        ),
        totals[&("stampede", "local-disk")] < totals[&("stampede", "lustre")],
    );
    checks.check(
        format!(
            "wrangler is less sensitive to the backend (Δ {:.1}s vs Δ {:.1}s)",
            totals[&("wrangler", "lustre")] - totals[&("wrangler", "local-disk")],
            totals[&("stampede", "lustre")] - totals[&("stampede", "local-disk")]
        ),
        (totals[&("wrangler", "lustre")] - totals[&("wrangler", "local-disk")])
            <= (totals[&("stampede", "lustre")] - totals[&("stampede", "local-disk")]),
    );
    checks.check(
        format!(
            "in-memory shuffle (Tachyon-style, §V) is fastest on Stampede ({:.1}s)",
            totals[&("stampede", "in-memory")]
        ),
        totals[&("stampede", "in-memory")] <= totals[&("stampede", "local-disk")],
    );
    Outcome::new(out, checks)
}

/// The completion callback a [`stampede_completion_s`] run hands out.
type Done = Box<dyn FnOnce(&mut Engine)>;

/// Virtual time, in seconds, at which the work `start` launches on a
/// fresh Stampede cluster calls the completion callback it is given.
fn stampede_completion_s(seed: u64, start: impl FnOnce(&mut Engine, &Cluster, Done)) -> f64 {
    let mut e = Engine::new(seed);
    let cluster = Cluster::new(MachineSpec::stampede());
    let t = Rc::new(Cell::new(0.0));
    let t2 = t.clone();
    start(
        &mut e,
        &cluster,
        Box::new(move |eng| t2.set(eng.now().as_secs_f64())),
    );
    e.run();
    t.get()
}

/// Ablation F — Spark deployment mode: standalone vs on-YARN (§III-D:
/// RADICAL-Pilot deploys Spark standalone because running it on YARN
/// means "two instead of one framework need to be configured and run"
/// with no multi-tenancy benefit in a single-user pilot). Time from
/// allocation to a Spark application with 12 executor cores being ready
/// on 3 Stampede nodes: (a) standalone — Spark bootstrap + app
/// submission; (b) on-YARN — YARN (HDFS-less) bootstrap + Spark driver AM
/// + executor containers through the YARN allocation pipeline.
pub fn spark_deploy() -> Outcome {
    const EXECUTORS: u32 = 6;
    const CORES_PER_EXECUTOR: u32 = 2;
    let standalone = |seed| {
        stampede_completion_s(seed, |e, cluster, done| {
            let nodes: Vec<NodeId> = cluster.node_ids().take(3).collect();
            SparkCluster::bootstrap(
                e,
                cluster,
                nodes,
                SparkConfig::default(),
                move |eng, sc, _| {
                    sc.submit_app(eng, EXECUTORS * CORES_PER_EXECUTOR, move |eng, res| {
                        res.expect("cores available");
                        done(eng);
                    });
                },
            );
        })
    };
    let on_yarn = |seed| {
        stampede_completion_s(seed, |e, cluster, done| {
            let nodes: Vec<NodeId> = cluster.node_ids().take(3).collect();
            bootstrap_mode_i(
                e,
                cluster.clone(),
                nodes,
                YarnConfig::default(),
                false,
                SpanId::NONE,
                move |eng, env| {
                    submit_spark_on_yarn(
                        eng,
                        &env.yarn,
                        "spark-pi",
                        EXECUTORS,
                        CORES_PER_EXECUTOR,
                        4096,
                        move |eng, app| {
                            done(eng);
                            app.finish(eng);
                        },
                    );
                },
            );
        })
    };

    let mut out = format!("== Ablation F: Spark deployment mode (Stampede, 3 nodes, {EXECUTORS}×{CORES_PER_EXECUTOR} cores) ==\n\n");
    let mut table = Table::new(vec!["deployment", "allocation → app ready (s)"]);
    let sa = repeat(8, standalone);
    let oy = repeat(8, on_yarn);
    table.row(vec![
        "standalone (paper's choice)".to_string(),
        mean_std(&sa),
    ]);
    table.row(vec!["on YARN".to_string(), mean_std(&oy)]);
    out.push_str(&table.render());
    out.push_str(&format!(
        "\non-YARN overhead: +{:.0}s ({:.1}×) — two frameworks bootstrapped,\n\
         executors through heartbeat-gated container allocation\n",
        oy.mean - sa.mean,
        oy.mean / sa.mean
    ));

    let mut checks = ShapeChecks::new();
    checks.check(
        format!(
            "standalone is substantially faster ({:.0}s vs {:.0}s)",
            sa.mean, oy.mean
        ),
        oy.mean > sa.mean * 1.3,
    );
    Outcome::new(out, checks)
}

/// Ablation G — Hadoop speculative execution under stragglers. The MR map
/// phase waits for its slowest task; with heavy per-task jitter (OS
/// noise, slow disks — endemic on the paper's multi-tenant Lustre
/// machines) the tail dominates. Speculative execution launches backup
/// attempts past a threshold and takes the earlier finisher.
pub fn speculative() -> Outcome {
    let map_phase = |jitter_sigma: f64, speculative: f64, seed: u64| {
        let cost = MrCostModel {
            map_core_s_per_input_mb: 1.0,
            map_fixed_s: 2.0,
            map_output_ratio: 0.05,
            reduce_core_s_per_shuffle_mb: 0.1,
            reduce_fixed_s: 1.5,
            reduce_output_ratio: 0.1,
            task_jitter_sigma: jitter_sigma,
            speculative_threshold: speculative,
        };
        let input = 3 * 1024 * 1024 * 1024;
        let stats = run_mr_job(
            MachineSpec::stampede(),
            input,
            "straggly",
            ShuffleBackend::LocalDisk,
            cost,
            seed,
        );
        stats.map_phase.as_secs_f64()
    };

    let mut out =
        String::from("== Ablation G: speculative execution (32 maps, Stampede, 3 nodes) ==\n\n");
    let mut table = Table::new(vec!["jitter σ", "speculation", "map phase (s)"]);
    let mut gains = Vec::new();
    for sigma in [0.1, 0.4, 0.8] {
        let [off, on] = [("off", 0.0), ("1.3× threshold", 1.3)].map(|(label, thr)| {
            let s = repeat(6, |seed| map_phase(sigma, thr, seed));
            table.row(vec![format!("{sigma}"), label.to_string(), mean_std(&s)]);
            s.mean
        });
        gains.push((off - on) / off);
    }
    out.push_str(&table.render());

    let mut checks = ShapeChecks::new();
    checks.check(
        format!(
            "speculation gains grow with jitter ({:.0}% at σ=0.1 → {:.0}% at σ=0.8)",
            gains[0] * 100.0,
            gains[2] * 100.0
        ),
        gains[2] > gains[0] && gains[2] > 0.05,
    );
    Outcome::new(out, checks)
}

/// Ablation E — coupling HPC and analytics stages: persist-to-filesystem
/// vs direct streaming (§V: "most importantly data needs to be moved,
/// which involves persisting files and re-reading them … In the future it
/// can be expected that data can be directly streamed between these two
/// environments"). A producer node hands a trajectory to a consumer node,
/// for growing data sizes, via (a) Lustre persist + re-read, (b)
/// node-local persist + fabric + node-local write, (c) direct streaming.
pub fn stage_coupling() -> Outcome {
    let persist_lustre = |bytes: f64| {
        stampede_completion_s(1, |e, cluster, done| {
            let c2 = cluster.clone();
            transfer(
                e,
                cluster,
                Endpoint::Local(NodeId(0)),
                Endpoint::Lustre,
                bytes,
                move |eng| {
                    transfer(
                        eng,
                        &c2,
                        Endpoint::Lustre,
                        Endpoint::Local(NodeId(1)),
                        bytes,
                        done,
                    );
                },
            );
        })
    };
    let local_hop = |bytes: f64| {
        stampede_completion_s(1, |e, cluster, done| {
            transfer(
                e,
                cluster,
                Endpoint::Local(NodeId(0)),
                Endpoint::Local(NodeId(1)),
                bytes,
                done,
            );
        })
    };
    let direct_stream = |bytes: f64| {
        stampede_completion_s(1, |e, cluster, done| {
            stream(e, cluster, NodeId(0), NodeId(1), bytes, done);
        })
    };

    let mut out =
        String::from("== Ablation E: stage coupling — persist vs stream (Stampede) ==\n\n");
    let mut table = Table::new(vec![
        "payload (MB)",
        "Lustre persist+reload (s)",
        "local persist+hop (s)",
        "direct stream (s)",
    ]);
    let mut last = (0.0, 0.0);
    for mb in [100.0, 1_000.0, 10_000.0] {
        let bytes = mb * MB;
        let lustre = persist_lustre(bytes);
        let local = local_hop(bytes);
        let streamed = direct_stream(bytes);
        table.row(vec![
            format!("{mb:.0}"),
            format!("{lustre:8.2}"),
            format!("{local:8.2}"),
            format!("{streamed:8.2}"),
        ]);
        last = (lustre, streamed);
    }
    out.push_str(&table.render());

    let mut checks = ShapeChecks::new();
    checks.check(
        format!(
            "streaming beats persist+reload by >3x at 10 GB ({:.1}s vs {:.1}s)",
            last.1, last.0
        ),
        last.1 * 3.0 < last.0,
    );
    Outcome::new(out, checks)
}
