//! The paper's K-Means evaluation scenarios (Fig. 6) and their
//! pilot-orchestrated runners.
//!
//! Three scenarios with constant compute (points × clusters = 5·10⁷) and
//! shuffle volume growing with the number of points:
//!
//! | scenario | points    | clusters |
//! |----------|-----------|----------|
//! | S1       | 10 000    | 5 000    |
//! | S2       | 100 000   | 500      |
//! | S3       | 1 000 000 | 50       |
//!
//! Two execution paths, exactly as in §IV-B:
//!
//! * **RADICAL-Pilot (plain)** — each iteration fans out `tasks`
//!   Compute-Units that read their partition, compute assignments and
//!   write intermediate records to **Lustre**; an aggregation unit merges
//!   them into new centroids. Runtime is measured from pilot activation
//!   (cluster provisioning excluded).
//! * **RADICAL-Pilot-YARN (Mode I)** — each iteration is one MapReduce
//!   job on the pilot's YARN cluster, shuffling through **node-local
//!   disks**; runtime *includes* the YARN cluster download/startup, as in
//!   the paper.

use rp_hdfs::StoragePolicy;
use rp_mapreduce::{MrCostModel, MrJobSpec, ShuffleBackend};
use rp_pilot::{
    AccessMode, ComputeUnitDescription, PilotDescription, PilotManager, PilotState, Session,
    UmScheduler, UnitHandle, UnitIoTarget, UnitManager, UnitState, WorkSpec,
};
use rp_sim::{Engine, SimDuration, MB};
use rp_yarn::Resource;

/// One Fig. 6 scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KMeansScenario {
    pub label: &'static str,
    pub points: u64,
    pub clusters: u64,
}

/// The three scenarios of §IV-B.
pub const SCENARIOS: [KMeansScenario; 3] = [
    KMeansScenario {
        label: "10,000 points / 5,000 clusters",
        points: 10_000,
        clusters: 5_000,
    },
    KMeansScenario {
        label: "100,000 points / 500 clusters",
        points: 100_000,
        clusters: 500,
    },
    KMeansScenario {
        label: "1,000,000 points / 50 clusters",
        points: 1_000_000,
        clusters: 50,
    },
];

/// Calibrated workload constants. Values are chosen so absolute runtimes
/// land in Fig. 6's range (hundreds to ~2000 s) for the Python/Hadoop-era
/// implementations the paper measured; every constant is documented.
#[derive(Debug, Clone)]
pub struct KMeansCalibration {
    /// Core-seconds per (point × cluster) distance evaluation on a
    /// reference core. 1.2e-4 reflects the paper's interpreted-language
    /// K-Means (≈8 000 point-cluster evaluations/s/core).
    pub core_s_per_pair: f64,
    /// Bytes per input point (3 doubles + framing).
    pub input_bytes_per_point: f64,
    /// Bytes per intermediate (cluster-id, point, count) record emitted
    /// per point into the shuffle / Lustre exchange (text serialization).
    pub record_bytes: f64,
    /// Core-seconds to merge one intermediate record on the reduce side.
    pub reduce_core_s_per_record: f64,
    /// Reducers per MapReduce job (Hadoop K-Means uses a small fixed
    /// count; reduce work is therefore an Amdahl term that grows with
    /// points — the paper's "decline of the speedup" with I/O).
    pub mr_reducers: usize,
    /// Memory demand per task container (JVM/Python heap), MB.
    pub task_mem_mb: u64,
    pub iterations: u32,
}

impl Default for KMeansCalibration {
    fn default() -> Self {
        KMeansCalibration {
            core_s_per_pair: 1.2e-4,
            input_bytes_per_point: 30.0,
            record_bytes: 600.0,
            reduce_core_s_per_record: 4.0e-5,
            mr_reducers: 4,
            task_mem_mb: 2_048,
            iterations: 2,
        }
    }
}

impl KMeansScenario {
    /// Total compute per iteration in reference core-seconds.
    pub fn compute_core_s(&self, cal: &KMeansCalibration) -> f64 {
        self.points as f64 * self.clusters as f64 * cal.core_s_per_pair
    }

    pub fn input_bytes(&self, cal: &KMeansCalibration) -> f64 {
        self.points as f64 * cal.input_bytes_per_point
    }

    pub fn shuffle_bytes(&self, cal: &KMeansCalibration) -> f64 {
        self.points as f64 * cal.record_bytes
    }
}

/// Outcome of one K-Means run through the pilot stack.
#[derive(Debug, Clone)]
pub struct KMeansRunStats {
    /// Time-to-completion as the paper reports it (see module docs for
    /// what each path includes).
    pub time_to_completion: f64,
    /// Framework bootstrap portion (YARN path only; 0 for plain RP).
    pub bootstrap_s: f64,
    pub tasks: u32,
    pub nodes: u32,
    pub iterations: u32,
}

/// Session configuration the Fig. 6 harness uses: production-like
/// latencies plus the serial Python-agent spawn rate of 2015-era
/// RADICAL-Pilot (~0.3 units/s), which is what limits plain-RP scaling
/// at 32 tasks (see EXPERIMENTS.md for the calibration argument).
pub fn fig6_session_config() -> rp_pilot::SessionConfig {
    rp_pilot::SessionConfig {
        exec_prep_s: (4.0, 0.5),
        ..rp_pilot::SessionConfig::default()
    }
}

/// Paper's task→node mapping: 8 tasks on 1 node, 16 on 2, 32 on 3.
pub fn nodes_for_tasks(tasks: u32) -> u32 {
    match tasks {
        0..=8 => 1,
        9..=16 => 2,
        _ => 3,
    }
}

/// Run K-Means through a **plain** RADICAL-Pilot (Lustre data exchange).
pub fn run_rp_kmeans(
    engine: &mut Engine,
    session: &Session,
    resource: &str,
    tasks: u32,
    scenario: KMeansScenario,
    cal: &KMeansCalibration,
) -> KMeansRunStats {
    let nodes = nodes_for_tasks(tasks);
    let pm = PilotManager::new(session);
    let pilot = pm
        .submit(
            engine,
            PilotDescription::new(resource, nodes, SimDuration::from_secs(4 * 3600)),
        )
        .unwrap_or_else(|e| panic!("pilot submit failed: {e}"));
    let mut um = UnitManager::new(session, UmScheduler::Direct);
    um.add_pilot(&pilot);

    // Wait for activation.
    run_while(engine, |_| pilot.state() != PilotState::Active);
    assert_eq!(pilot.state(), PilotState::Active, "pilot failed to start");
    let t0 = engine.now();

    let compute = scenario.compute_core_s(cal);
    let per_task_read = scenario.input_bytes(cal) / tasks as f64 / MB;
    let per_task_write = scenario.shuffle_bytes(cal) / tasks as f64 / MB;
    for _ in 0..cal.iterations {
        // Fan-out: `tasks` assignment units.
        let descrs: Vec<ComputeUnitDescription> = (0..tasks)
            .map(|i| {
                ComputeUnitDescription::new(
                    format!("kmeans-task-{i}"),
                    1,
                    WorkSpec::Compute {
                        core_seconds: compute / tasks as f64,
                        read_mb: per_task_read,
                        write_mb: per_task_write,
                        io: UnitIoTarget::Lustre,
                    },
                )
                .with_memory(cal.task_mem_mb)
            })
            .collect();
        let units = um.submit_units(engine, descrs);
        wait_done(engine, &units);

        // Aggregation unit: read every intermediate record back from
        // Lustre and merge into the new centroids (serial).
        let agg = um.submit_units(
            engine,
            vec![ComputeUnitDescription::new(
                "kmeans-aggregate",
                1,
                WorkSpec::Compute {
                    core_seconds: scenario.points as f64 * cal.reduce_core_s_per_record,
                    read_mb: scenario.shuffle_bytes(cal) / MB,
                    write_mb: (scenario.clusters as f64 * 24.0) / MB,
                    io: UnitIoTarget::Lustre,
                },
            )],
        );
        wait_done(engine, &agg);
    }
    let elapsed = engine.now().since(t0).as_secs_f64();
    pm.cancel(engine, &pilot);
    engine.run();
    KMeansRunStats {
        time_to_completion: elapsed,
        bootstrap_s: 0.0,
        tasks,
        nodes,
        iterations: cal.iterations,
    }
}

/// Run K-Means through a **Mode I RADICAL-Pilot-YARN** pilot (MapReduce
/// with node-local shuffle; bootstrap included in the reported time).
pub fn run_rp_yarn_kmeans(
    engine: &mut Engine,
    session: &Session,
    resource: &str,
    tasks: u32,
    scenario: KMeansScenario,
    cal: &KMeansCalibration,
) -> KMeansRunStats {
    let nodes = nodes_for_tasks(tasks);
    let pm = PilotManager::new(session);
    let pilot = pm
        .submit(
            engine,
            PilotDescription::new(resource, nodes, SimDuration::from_secs(4 * 3600))
                .with_access(AccessMode::YarnModeI { with_hdfs: true }),
        )
        .unwrap_or_else(|e| panic!("pilot submit failed: {e}"));
    let mut um = UnitManager::new(session, UmScheduler::Direct);
    um.add_pilot(&pilot);

    run_while(engine, |_| pilot.state() != PilotState::Active);
    assert_eq!(pilot.state(), PilotState::Active, "pilot failed to start");
    let agent = pilot.agent().expect("active pilot has agent");
    let bootstrap = agent.framework_bootstrap_time().as_secs_f64();
    // Paper: "the runtimes include the time required to download and
    // start the YARN cluster" → measure from agent launch.
    let t0 = pilot.times().launched.expect("launched");

    // Load the input into HDFS with a block size that yields exactly
    // `tasks` map tasks.
    let env = agent.hadoop_env().expect("mode I pilot has hadoop");
    let hdfs = env.hdfs.clone().expect("with_hdfs");
    let input_bytes = scenario.input_bytes(cal).ceil() as u64;
    // Pre-split into exactly `tasks` blocks → `tasks` map tasks.
    hdfs.create_synthetic_with_blocks("/kmeans/input", input_bytes, StoragePolicy::Default, tasks)
        .expect("a fresh pilot's HDFS has no /kmeans/input yet");

    let points_per_mb = MB / cal.input_bytes_per_point;
    let cost = MrCostModel {
        map_core_s_per_input_mb: points_per_mb * scenario.clusters as f64 * cal.core_s_per_pair,
        map_fixed_s: 1.5,
        map_output_ratio: cal.record_bytes / cal.input_bytes_per_point,
        reduce_core_s_per_shuffle_mb: (MB / cal.record_bytes) * cal.reduce_core_s_per_record,
        reduce_fixed_s: 1.5,
        reduce_output_ratio: (scenario.clusters as f64 * 24.0) / scenario.shuffle_bytes(cal),
        task_jitter_sigma: 0.08,
        speculative_threshold: 0.0,
    };
    for iter in 0..cal.iterations {
        let units = um.submit_units(
            engine,
            vec![ComputeUnitDescription::new(
                format!("kmeans-mr-iter{iter}"),
                1,
                WorkSpec::MapReduce(MrJobSpec {
                    name: format!("kmeans-{}-it{iter}", scenario.points),
                    input_path: "/kmeans/input".into(),
                    num_reducers: cal.mr_reducers.min(tasks as usize).max(1),
                    container: Resource::new(1, cal.task_mem_mb),
                    shuffle: ShuffleBackend::LocalDisk,
                    cost: cost.clone(),
                }),
            )],
        );
        wait_done(engine, &units);
        assert_eq!(
            units[0].state(),
            UnitState::Done,
            "MR iteration failed: {:?}",
            units[0].failure()
        );
    }
    let elapsed = engine.now().since(t0).as_secs_f64();
    pm.cancel(engine, &pilot);
    engine.run();
    KMeansRunStats {
        time_to_completion: elapsed,
        bootstrap_s: bootstrap,
        tasks,
        nodes,
        iterations: cal.iterations,
    }
}

/// Run K-Means through an **RP-Spark (Mode I)** pilot: the agent deploys
/// a standalone Spark cluster; each run is ONE Spark application whose
/// stages are the K-Means iterations over a **cached** RDD — only the
/// first stage reads the input, and shuffles are map-side-combined
/// (clusters × executors records, not points). This is the paper's §V
/// in-memory future work, measurable against the RP and RP-YARN paths.
/// Runtime includes the Spark cluster bootstrap (as the YARN path
/// includes its bootstrap).
pub fn run_rp_spark_kmeans(
    engine: &mut Engine,
    session: &Session,
    resource: &str,
    tasks: u32,
    scenario: KMeansScenario,
    cal: &KMeansCalibration,
) -> KMeansRunStats {
    let nodes = nodes_for_tasks(tasks);
    let pm = PilotManager::new(session);
    let pilot = pm
        .submit(
            engine,
            PilotDescription::new(resource, nodes, SimDuration::from_secs(4 * 3600))
                .with_access(AccessMode::SparkModeI),
        )
        .unwrap_or_else(|e| panic!("pilot submit failed: {e}"));
    let mut um = UnitManager::new(session, UmScheduler::Direct);
    um.add_pilot(&pilot);

    run_while(engine, |_| pilot.state() != PilotState::Active);
    assert_eq!(pilot.state(), PilotState::Active, "pilot failed to start");
    let agent = pilot.agent().expect("active pilot has agent");
    let bootstrap = agent.framework_bootstrap_time().as_secs_f64();
    let t0 = pilot.times().launched.expect("launched");

    // Map-side combine: shuffle is per-executor partial sums, ∝ clusters.
    let shuffle_mb = (scenario.clusters as f64 * tasks as f64 * 32.0) / MB;
    let stages = (0..cal.iterations)
        .map(|i| rp_spark::SparkStage {
            name: format!("iter{i}"),
            compute_core_s: scenario.compute_core_s(cal),
            input_read_mb: if i == 0 {
                scenario.input_bytes(cal) / MB
            } else {
                0.0 // cached RDD
            },
            shuffle_mb,
        })
        .collect();
    let units = um.submit_units(
        engine,
        vec![ComputeUnitDescription::new(
            "kmeans-spark",
            tasks,
            WorkSpec::SparkJob(rp_spark::SparkJobSpec {
                name: format!("kmeans-{}", scenario.points),
                executor_cores: tasks,
                stages,
                jitter_sigma: 0.08,
            }),
        )],
    );
    wait_done(engine, &units);
    let elapsed = engine.now().since(t0).as_secs_f64();
    pm.cancel(engine, &pilot);
    engine.run();
    KMeansRunStats {
        time_to_completion: elapsed,
        bootstrap_s: bootstrap,
        tasks,
        nodes,
        iterations: cal.iterations,
    }
}

/// Drive the engine until `cond` goes false (or the event queue drains).
fn run_while(engine: &mut Engine, cond: impl Fn(&Engine) -> bool) {
    while cond(engine) {
        if !engine.step() {
            break;
        }
    }
}

/// Drive the engine until all units are final.
fn wait_done(engine: &mut Engine, units: &[UnitHandle]) {
    run_while(engine, |_| units.iter().any(|u| !u.state().is_final()));
    for u in units {
        assert_eq!(
            u.state(),
            UnitState::Done,
            "{} failed: {:?}",
            u.name(),
            u.failure()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig6_session() -> Session {
        Session::new(fig6_session_config())
    }

    fn quick_cal() -> KMeansCalibration {
        KMeansCalibration {
            // Shrink compute 50× so tests stay fast; ratios preserved.
            core_s_per_pair: 2.4e-6,
            ..KMeansCalibration::default()
        }
    }

    #[test]
    fn rp_runtime_decreases_with_tasks() {
        let scenario = SCENARIOS[2];
        // Shrink compute only 10× here so it still dominates the serial
        // spawner at 32 tasks (as in the full-size Fig. 6 runs).
        let cal = KMeansCalibration {
            core_s_per_pair: 1.2e-5,
            ..KMeansCalibration::default()
        };
        let mut times = Vec::new();
        for &tasks in &[8u32, 32] {
            let mut e = Engine::new(100 + tasks as u64);
            let session = Session::new(rp_pilot::SessionConfig::default());
            let stats = run_rp_kmeans(&mut e, &session, "xsede.stampede", tasks, scenario, &cal);
            times.push(stats.time_to_completion);
        }
        assert!(
            times[1] < times[0],
            "32 tasks ({}) should beat 8 tasks ({})",
            times[1],
            times[0]
        );
    }

    #[test]
    fn yarn_includes_bootstrap() {
        let scenario = SCENARIOS[0];
        let cal = quick_cal();
        let mut e = Engine::new(7);
        let session = fig6_session();
        let stats = run_rp_yarn_kmeans(&mut e, &session, "xsede.stampede", 8, scenario, &cal);
        assert!(stats.bootstrap_s > 40.0, "bootstrap {}", stats.bootstrap_s);
        assert!(stats.time_to_completion > stats.bootstrap_s);
    }

    #[test]
    fn yarn_wins_at_scale_loses_at_8_tasks() {
        // The headline Fig. 6 shape, on a reduced-size problem.
        let scenario = SCENARIOS[2];
        let cal = quick_cal();
        let run = |yarn: bool, tasks: u32| {
            let mut e = Engine::new(300 + tasks as u64);
            let session = fig6_session();
            if yarn {
                run_rp_yarn_kmeans(&mut e, &session, "xsede.wrangler", tasks, scenario, &cal)
                    .time_to_completion
            } else {
                run_rp_kmeans(&mut e, &session, "xsede.wrangler", tasks, scenario, &cal)
                    .time_to_completion
            }
        };
        let rp8 = run(false, 8);
        let yarn8 = run(true, 8);
        let rp32 = run(false, 32);
        let yarn32 = run(true, 32);
        // At 8 tasks the YARN bootstrap dominates the small problem.
        assert!(yarn8 > rp8, "yarn8 {yarn8} rp8 {rp8}");
        // At 32 tasks YARN's in-framework fan-out beats serial CU spawning.
        assert!(yarn32 < rp32, "yarn32 {yarn32} rp32 {rp32}");
    }

    #[test]
    fn wrangler_outperforms_stampede() {
        let scenario = SCENARIOS[1];
        let cal = quick_cal();
        let time = |resource: &str| {
            let mut e = Engine::new(55);
            let session = fig6_session();
            run_rp_kmeans(&mut e, &session, resource, 16, scenario, &cal).time_to_completion
        };
        let stampede = time("xsede.stampede");
        let wrangler = time("xsede.wrangler");
        assert!(
            wrangler < stampede,
            "wrangler {wrangler} stampede {stampede}"
        );
    }

    #[test]
    fn spark_path_completes_and_caching_helps() {
        let cal = quick_cal();
        let scenario = SCENARIOS[2];
        let mut e = Engine::new(71);
        let session = fig6_session();
        let spark = run_rp_spark_kmeans(&mut e, &session, "xsede.wrangler", 32, scenario, &cal);
        assert!(
            spark.bootstrap_s > 10.0,
            "spark bootstrap {}",
            spark.bootstrap_s
        );
        assert!(spark.time_to_completion > spark.bootstrap_s);
        // The cached-RDD Spark path beats RP-YARN (which re-reads input and
        // pays MR AM + container overheads every iteration).
        let mut e = Engine::new(71);
        let session = fig6_session();
        let yarn = run_rp_yarn_kmeans(&mut e, &session, "xsede.wrangler", 32, scenario, &cal);
        assert!(
            spark.time_to_completion < yarn.time_to_completion,
            "spark {} vs yarn {}",
            spark.time_to_completion,
            yarn.time_to_completion
        );
    }

    #[test]
    fn scenario_invariants() {
        let cal = KMeansCalibration::default();
        // Constant compute across scenarios.
        let c: Vec<f64> = SCENARIOS.iter().map(|s| s.compute_core_s(&cal)).collect();
        assert_eq!(c[0], c[1]);
        assert_eq!(c[1], c[2]);
        // Shuffle grows with points.
        let sh: Vec<f64> = SCENARIOS.iter().map(|s| s.shuffle_bytes(&cal)).collect();
        assert!(sh[0] < sh[1] && sh[1] < sh[2]);
    }

    #[test]
    fn node_mapping_matches_paper() {
        assert_eq!(nodes_for_tasks(8), 1);
        assert_eq!(nodes_for_tasks(16), 2);
        assert_eq!(nodes_for_tasks(32), 3);
    }
}
