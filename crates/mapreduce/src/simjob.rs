//! Simulated MapReduce job on YARN.
//!
//! Reproduces the execution shape of a Hadoop 2.x MR job inside the
//! discrete-event simulation: AM startup, locality-aware map containers
//! reading HDFS splits, map-output spills to the shuffle backend (node-
//! local disk or Lustre — the trade-off behind the paper's 13 % result),
//! all-to-all shuffle fetches over the fabric, reduce compute, and output
//! writes. Compute durations come from a calibrated per-workload cost
//! model; the *data volumes* are exact.

use std::cell::RefCell;
use std::rc::Rc;

use rp_hdfs::Hdfs;
use rp_hpc::{Cluster, IoKind, IoPattern, NodeId, StorageTarget};
use rp_sim::{Engine, OpenSpan, SimDuration, SimTime, SpanId, MB};
use rp_yarn::{Resource, ResourceRequest, YarnCluster};

/// Where map outputs spill and reducers fetch from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShuffleBackend {
    /// Node-local disks (stock Hadoop; what RP-YARN uses in the paper).
    LocalDisk,
    /// The shared parallel filesystem (Hadoop-over-Lustre deployments).
    Lustre,
    /// In-memory shuffle (Tachyon-style, the paper's future work §V:
    /// "utilizing in-memory filesystems and runtimes … for iterative
    /// algorithms"): spills are memory copies; fetches only cross the
    /// fabric. Costs container memory instead of disk (not enforced —
    /// callers size their containers accordingly).
    InMemory,
}

/// Calibrated cost model of one MapReduce workload.
///
/// Compute terms are in core-seconds on a reference core
/// (`MachineSpec::core_speed == 1.0`); data terms are exact ratios.
#[derive(Debug, Clone)]
pub struct MrCostModel {
    /// Map compute per MB of input.
    pub map_core_s_per_input_mb: f64,
    /// Fixed per-map-task overhead (task JVM setup inside the container).
    pub map_fixed_s: f64,
    /// Shuffle bytes produced per input byte.
    pub map_output_ratio: f64,
    /// Reduce compute per MB of shuffle input.
    pub reduce_core_s_per_shuffle_mb: f64,
    pub reduce_fixed_s: f64,
    /// Output bytes per shuffle byte.
    pub reduce_output_ratio: f64,
    /// Multiplicative per-task jitter (lognormal sigma; 0 disables).
    pub task_jitter_sigma: f64,
    /// Hadoop speculative execution: when a map runs past
    /// `speculative_threshold ×` its expected duration, a backup attempt
    /// is modelled and the task finishes at the earlier of the two
    /// (analytic tail-capping: backup duration = expected + container
    /// re-allocation overhead). 0 disables.
    pub speculative_threshold: f64,
}

impl Default for MrCostModel {
    fn default() -> Self {
        MrCostModel {
            map_core_s_per_input_mb: 0.5,
            map_fixed_s: 1.5,
            map_output_ratio: 1.0,
            reduce_core_s_per_shuffle_mb: 0.3,
            reduce_fixed_s: 1.5,
            reduce_output_ratio: 0.1,
            task_jitter_sigma: 0.04,
            speculative_threshold: 0.0,
        }
    }
}

/// A simulated MapReduce job description.
#[derive(Debug, Clone)]
pub struct MrJobSpec {
    pub name: String,
    /// HDFS input path; one map task per block.
    pub input_path: String,
    pub num_reducers: usize,
    /// Per-task container size.
    pub container: Resource,
    pub shuffle: ShuffleBackend,
    pub cost: MrCostModel,
}

/// Timings and volumes of a finished job.
#[derive(Debug, Clone)]
pub struct MrJobStats {
    pub total: SimDuration,
    /// Submission → AM running (stage one of Fig. 4).
    pub am_startup: SimDuration,
    /// AM running → last map task done.
    pub map_phase: SimDuration,
    /// Last map done → last shuffle fetch done.
    pub shuffle_phase: SimDuration,
    /// Last fetch done → job finished.
    pub reduce_phase: SimDuration,
    pub maps: usize,
    pub reducers: usize,
    pub input_bytes: f64,
    pub shuffle_bytes: f64,
    pub output_bytes: f64,
}

struct JobState {
    t_submit: SimTime,
    t_am: SimTime,
    t_maps_done: SimTime,
    t_shuffle_done: SimTime,
    maps_remaining: usize,
    fetches_remaining: usize,
    reducers_remaining: usize,
    /// (node, shuffle bytes) per finished map task.
    map_outputs: Vec<(NodeId, f64)>,
    input_bytes: f64,
    output_bytes: f64,
    /// Span parent for the job's phase spans (NONE when untraced).
    span_parent: SpanId,
    /// The currently open phase span (am alloc → map → shuffle → reduce).
    span_open: OpenSpan,
}

/// Close the open phase span and open the next one under the job's parent.
fn advance_phase_span(
    engine: &mut Engine,
    state: &Rc<RefCell<JobState>>,
    category: &'static str,
    name: &str,
) {
    let (open, parent) = {
        let mut st = state.borrow_mut();
        (std::mem::take(&mut st.span_open), st.span_parent)
    };
    engine.trace.span_end(engine.now(), open);
    let next = engine
        .trace
        .span_begin(engine.now(), category, name, parent);
    state.borrow_mut().span_open = next;
}

/// Run `spec` on a YARN cluster against `hdfs`. `done` receives the stats.
/// The job's phases are recorded as spans under `parent`:
/// `yarn.am_allocation` (submit → AM running), then `mr.map`, `mr.shuffle`
/// and `mr.reduce` back to back. Pass [`SpanId::NONE`] for an untraced job.
///
/// Panics if the input path does not exist (experiment setup bug) or if the
/// shuffle backend is `LocalDisk` on a machine without local disks.
pub fn run_on_yarn(
    engine: &mut Engine,
    cluster: &Cluster,
    yarn: &YarnCluster,
    hdfs: &Hdfs,
    spec: MrJobSpec,
    parent: SpanId,
    done: impl FnOnce(&mut Engine, MrJobStats) + 'static,
) {
    let blocks = hdfs
        .block_locations(&spec.input_path)
        .unwrap_or_else(|e| panic!("MR input missing: {e}"));
    assert!(!blocks.is_empty());
    if spec.shuffle == ShuffleBackend::LocalDisk {
        assert!(
            cluster.has_local_disk(),
            "LocalDisk shuffle on a machine without local disks"
        );
    }
    let n_maps = blocks.len();
    let am_span = engine
        .trace
        .span_begin(engine.now(), "yarn", "yarn.am_allocation", parent);
    let state = Rc::new(RefCell::new(JobState {
        t_submit: engine.now(),
        t_am: engine.now(),
        t_maps_done: engine.now(),
        t_shuffle_done: engine.now(),
        maps_remaining: n_maps,
        fetches_remaining: 0,
        reducers_remaining: spec.num_reducers,
        map_outputs: Vec::new(),
        input_bytes: blocks.iter().map(|b| b.size_bytes as f64).sum(),
        output_bytes: 0.0,
        span_parent: parent,
        span_open: am_span,
    }));
    let done: DoneSlot = Rc::new(RefCell::new(Some(Box::new(done) as _)));

    let cluster = cluster.clone();
    let hdfs = hdfs.clone();
    let spec = Rc::new(spec);
    let state2 = state.clone();
    let spec2 = spec.clone();
    let yarn2 = yarn.clone();
    engine.metrics.incr("mr.jobs_submitted");
    yarn.submit_app(
        engine,
        spec.name.clone(),
        ResourceRequest::new(1, 1536),
        move |eng, am| {
            state2.borrow_mut().t_am = eng.now();
            advance_phase_span(eng, &state2, "mr", "mr.map");
            // Request one container per map task, preferring the block's
            // first replica (data locality, relaxed by delay scheduling).
            for block in blocks {
                let spec = spec2.clone();
                let state = state2.clone();
                let cluster = cluster.clone();
                let hdfs = hdfs.clone();
                let am2 = am.clone();
                let done = done.clone();
                let yarn = yarn2.clone();
                let req = ResourceRequest {
                    resource: spec.container,
                    preferred_node: Some(block.replicas[0]),
                };
                am.request_container(eng, req, move |eng, container| {
                    run_map_task(
                        eng, cluster, hdfs, yarn, am2, spec, state, block, container, done,
                    );
                });
            }
        },
    );
}

#[allow(clippy::too_many_arguments)]
fn run_map_task(
    engine: &mut Engine,
    cluster: Cluster,
    hdfs: Hdfs,
    yarn: YarnCluster,
    am: rp_yarn::AmHandle,
    spec: Rc<MrJobSpec>,
    state: Rc<RefCell<JobState>>,
    block: rp_hdfs::BlockMeta,
    container: rp_yarn::Container,
    done: DoneSlot,
) {
    let node = container.node;
    let input_bytes = block.size_bytes as f64;
    let policy = hdfs
        .file_meta(&spec.input_path)
        .map(|f| f.policy)
        .unwrap_or_default();
    // 1. Read the split (node-local when placement succeeded).
    let cluster2 = cluster.clone();
    let spec2 = spec.clone();
    let state2 = state.clone();
    hdfs.read_block(engine, node, &block, policy, move |eng| {
        // 2. Map compute (with optional speculative-execution tail cap).
        let base = spec2.cost.map_fixed_s + spec2.cost.map_core_s_per_input_mb * (input_bytes / MB);
        let jitter = jitter(eng, spec2.cost.task_jitter_sigma);
        let mut effective = base * jitter;
        let threshold = spec2.cost.speculative_threshold;
        if threshold > 0.0 && effective > base * threshold {
            // Backup attempt launched at the threshold: it pays a fresh
            // container allocation (~2 heartbeats + launch) and runs at
            // its own jitter; the task ends at the earlier finisher.
            let backup_overhead = 2.0 + 4.0; // alloc + launch, seconds
            let backup = base * threshold
                + backup_overhead
                + base * jitter2(eng, spec2.cost.task_jitter_sigma);
            if backup < effective {
                eng.trace.record(
                    eng.now(),
                    "mr",
                    format!("speculative backup wins for a map on {node}"),
                );
                effective = backup;
            }
        }
        let dur = cluster2.compute_duration(effective);
        let cluster3 = cluster2.clone();
        eng.schedule_in(dur, move |eng| {
            // 3. Spill map output to the shuffle backend.
            let out_bytes = input_bytes * spec2.cost.map_output_ratio;
            let spec3 = spec2.clone();
            let state3 = state2.clone();
            let cluster4 = cluster3.clone();
            let after_spill = move |eng: &mut Engine| {
                am.release_container(eng, container.id);
                eng.metrics.incr("mr.map_tasks");
                eng.metrics.add("mr.shuffle_bytes", out_bytes as u64);
                let maps_done = {
                    let mut st = state3.borrow_mut();
                    st.map_outputs.push((node, out_bytes));
                    st.maps_remaining -= 1;
                    st.maps_remaining == 0
                };
                if maps_done {
                    state3.borrow_mut().t_maps_done = eng.now();
                    advance_phase_span(eng, &state3, "mr", "mr.shuffle");
                    start_reduce_phase(eng, cluster4, yarn, am, spec3, state3, done);
                }
            };
            match spec2.shuffle {
                ShuffleBackend::InMemory => {
                    // Memory copy into the shuffle store.
                    let dur = rp_sim::SimDuration::from_secs_f64(out_bytes / (4_000.0 * MB));
                    eng.schedule_in(dur, after_spill);
                }
                ShuffleBackend::LocalDisk => cluster3.storage_io_pattern(
                    eng,
                    StorageTarget::LocalDisk(node),
                    IoKind::Write,
                    IoPattern::Random,
                    out_bytes,
                    after_spill,
                ),
                ShuffleBackend::Lustre => cluster3.storage_io_pattern(
                    eng,
                    StorageTarget::Lustre,
                    IoKind::Write,
                    IoPattern::Random,
                    out_bytes,
                    after_spill,
                ),
            }
        });
    });
}

type DoneSlot = Rc<RefCell<Option<Box<dyn FnOnce(&mut Engine, MrJobStats)>>>>;

fn start_reduce_phase(
    engine: &mut Engine,
    cluster: Cluster,
    yarn: YarnCluster,
    am: rp_yarn::AmHandle,
    spec: Rc<MrJobSpec>,
    state: Rc<RefCell<JobState>>,
    done: DoneSlot,
) {
    let r = spec.num_reducers;
    {
        let mut st = state.borrow_mut();
        st.fetches_remaining = st.map_outputs.len() * r;
    }
    for _ in 0..r {
        let cluster = cluster.clone();
        let spec = spec.clone();
        let state = state.clone();
        let am2 = am.clone();
        let done = done.clone();
        let yarn2 = yarn.clone();
        am.request_container(
            engine,
            ResourceRequest {
                resource: spec.container,
                preferred_node: None,
            },
            move |eng, container| {
                run_reduce_task(eng, cluster, yarn2, am2, spec, state, container, done);
            },
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn run_reduce_task(
    engine: &mut Engine,
    cluster: Cluster,
    _yarn: YarnCluster,
    am: rp_yarn::AmHandle,
    spec: Rc<MrJobSpec>,
    state: Rc<RefCell<JobState>>,
    container: rp_yarn::Container,
    done: DoneSlot,
) {
    let node = container.node;
    let r = spec.num_reducers as f64;
    let map_outputs = state.borrow().map_outputs.clone();
    let my_share: f64 = map_outputs.iter().map(|&(_, b)| b / r).sum();
    let fetches = map_outputs.len();
    let fetched = Rc::new(RefCell::new(0usize));

    for (map_node, out_bytes) in map_outputs {
        let bytes = out_bytes / r;
        let cluster2 = cluster.clone();
        let cluster3 = cluster.clone();
        let fetched = fetched.clone();
        let spec2 = spec.clone();
        let state2 = state.clone();
        let am2 = am.clone();
        let done = done.clone();
        // Fetch = read the segment at the map node, then move it over the
        // fabric to the reduce node (loopback if co-located). In-memory
        // shuffles skip the storage read entirely.
        let after_read = move |eng: &mut Engine| {
            cluster2.net_transfer(eng, map_node, node, bytes, move |eng| {
                let all_fetched = {
                    let mut f = fetched.borrow_mut();
                    *f += 1;
                    *f == fetches
                };
                if !all_fetched {
                    return;
                }
                let shuffle_done = {
                    let mut st = state2.borrow_mut();
                    // Last fetch across *all* reducers wins; per-reducer
                    // compute starts from its own last fetch regardless.
                    st.fetches_remaining = st.fetches_remaining.saturating_sub(fetches);
                    if st.fetches_remaining == 0 {
                        st.t_shuffle_done = eng.now();
                        true
                    } else {
                        false
                    }
                };
                if shuffle_done {
                    advance_phase_span(eng, &state2, "mr", "mr.reduce");
                }
                // Reduce compute (sort/merge + user reduce).
                let base = spec2.cost.reduce_fixed_s
                    + spec2.cost.reduce_core_s_per_shuffle_mb * (my_share / MB);
                let jitter = jitter(eng, spec2.cost.task_jitter_sigma);
                let dur = cluster3.compute_duration(base * jitter);
                let cluster4 = cluster3.clone();
                eng.schedule_in(dur, move |eng| {
                    // Write final output (reducer-local; HDFS-style).
                    let out = my_share * spec2.cost.reduce_output_ratio;
                    let target = if cluster4.has_local_disk() {
                        StorageTarget::LocalDisk(node)
                    } else {
                        StorageTarget::Lustre
                    };
                    cluster4.storage_io(eng, target, IoKind::Write, out, move |eng| {
                        am2.release_container(eng, container.id);
                        let finished = {
                            let mut st = state2.borrow_mut();
                            st.output_bytes += out;
                            st.reducers_remaining -= 1;
                            st.reducers_remaining == 0
                        };
                        if finished {
                            am2.finish(eng);
                            eng.metrics.incr("mr.jobs_finished");
                            let open = std::mem::take(&mut state2.borrow_mut().span_open);
                            eng.trace.span_end(eng.now(), open);
                            let stats = {
                                let st = state2.borrow();
                                MrJobStats {
                                    total: eng.now().since(st.t_submit),
                                    am_startup: st.t_am.since(st.t_submit),
                                    map_phase: st.t_maps_done.since(st.t_am),
                                    shuffle_phase: st
                                        .t_shuffle_done
                                        .saturating_since(st.t_maps_done),
                                    reduce_phase: eng.now().saturating_since(st.t_shuffle_done),
                                    maps: st.map_outputs.len(),
                                    reducers: spec2.num_reducers,
                                    input_bytes: st.input_bytes,
                                    shuffle_bytes: st.map_outputs.iter().map(|&(_, b)| b).sum(),
                                    output_bytes: st.output_bytes,
                                }
                            };
                            let cb = done.borrow_mut().take().expect("MR job completed twice");
                            cb(eng, stats);
                        }
                    });
                });
            });
        };
        match spec.shuffle {
            ShuffleBackend::InMemory => {
                engine.schedule_now(after_read);
            }
            ShuffleBackend::LocalDisk => cluster.storage_io_pattern(
                engine,
                StorageTarget::LocalDisk(map_node),
                IoKind::Read,
                IoPattern::Random,
                bytes,
                after_read,
            ),
            ShuffleBackend::Lustre => cluster.storage_io_pattern(
                engine,
                StorageTarget::Lustre,
                IoKind::Read,
                IoPattern::Random,
                bytes,
                after_read,
            ),
        }
    }
}

fn jitter(engine: &mut Engine, sigma: f64) -> f64 {
    if sigma <= 0.0 {
        1.0
    } else {
        engine.rng.lognormal(0.0, sigma)
    }
}

/// A second, independent jitter draw (the backup attempt's own luck).
fn jitter2(engine: &mut Engine, sigma: f64) -> f64 {
    jitter(engine, sigma)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_hdfs::{HdfsConfig, StoragePolicy};
    use rp_hpc::MachineSpec;
    use rp_yarn::YarnConfig;

    fn setup(engine: &mut Engine) -> (Cluster, YarnCluster, Hdfs) {
        let cluster = Cluster::new(MachineSpec::localhost());
        let nodes: Vec<NodeId> = cluster.node_ids().collect();
        let yarn = YarnCluster::start(engine, &cluster, &nodes, YarnConfig::test_profile());
        let hdfs = Hdfs::attach(cluster.clone(), nodes, HdfsConfig::default());
        (cluster, yarn, hdfs)
    }

    fn spec(name: &str, shuffle: ShuffleBackend) -> MrJobSpec {
        MrJobSpec {
            name: name.into(),
            input_path: "/in".into(),
            num_reducers: 2,
            container: Resource::new(1, 1024),
            shuffle,
            cost: MrCostModel::default(),
        }
    }

    fn run(engine: &mut Engine, spec: MrJobSpec) -> MrJobStats {
        let (cluster, yarn, hdfs) = setup(engine);
        hdfs.create_synthetic("/in", 512 * 1024 * 1024, StoragePolicy::Default)
            .unwrap();
        let out = Rc::new(RefCell::new(None));
        let o = out.clone();
        run_on_yarn(
            engine,
            &cluster,
            &yarn,
            &hdfs,
            spec,
            SpanId::NONE,
            move |_, stats| {
                *o.borrow_mut() = Some(stats);
            },
        );
        engine.run();
        let got = out.borrow_mut().take().expect("job finished");
        got
    }

    #[test]
    fn job_completes_with_consistent_stats() {
        let mut e = Engine::new(1);
        let stats = run(&mut e, spec("wc", ShuffleBackend::LocalDisk));
        assert_eq!(stats.maps, 4); // 512 MB / 128 MB blocks
        assert_eq!(stats.reducers, 2);
        assert!((stats.input_bytes - 512.0 * MB).abs() < 1.0);
        assert!((stats.shuffle_bytes - stats.input_bytes).abs() < 1.0); // ratio 1.0
        assert!(stats.total.as_secs_f64() > 0.0);
        let phases = stats.am_startup.as_secs_f64()
            + stats.map_phase.as_secs_f64()
            + stats.shuffle_phase.as_secs_f64()
            + stats.reduce_phase.as_secs_f64();
        assert!(
            (phases - stats.total.as_secs_f64()).abs() < 1.0,
            "phases {phases} vs total {}",
            stats.total
        );
    }

    #[test]
    fn in_memory_shuffle_is_fastest() {
        let mut e1 = Engine::new(1);
        let disk = run(&mut e1, spec("d", ShuffleBackend::LocalDisk));
        let mut e2 = Engine::new(1);
        let mem = run(&mut e2, spec("m", ShuffleBackend::InMemory));
        assert!(
            mem.total < disk.total,
            "in-memory {} should beat disk {}",
            mem.total,
            disk.total
        );
        assert!(mem.shuffle_bytes > 0.0);
    }

    #[test]
    fn lustre_shuffle_slower_under_contention() {
        // Many concurrent streams on the shared Lustre link vs independent
        // local disks: local must win for shuffle-heavy jobs.
        let mut e1 = Engine::new(1);
        let local = run(&mut e1, spec("local", ShuffleBackend::LocalDisk));
        let mut e2 = Engine::new(1);
        let lustre = run(&mut e2, spec("lustre", ShuffleBackend::Lustre));
        assert!(
            lustre.total.as_secs_f64() > local.total.as_secs_f64(),
            "lustre {} should exceed local {}",
            lustre.total,
            local.total
        );
    }

    #[test]
    fn more_reducers_do_not_lose_data() {
        let mut e = Engine::new(3);
        let mut s = spec("r8", ShuffleBackend::LocalDisk);
        s.num_reducers = 8;
        let stats = run(&mut e, s);
        assert_eq!(stats.reducers, 8);
        assert!((stats.shuffle_bytes - stats.input_bytes).abs() < 1.0);
        // Output = shuffle × ratio.
        assert!((stats.output_bytes - stats.shuffle_bytes * 0.1).abs() < 1.0);
    }

    #[test]
    fn am_startup_reflects_two_stage_allocation() {
        let mut e = Engine::new(2);
        let stats = run(&mut e, spec("am", ShuffleBackend::LocalDisk));
        // Test profile: submit 0.05 + heartbeat ≤0.1 + am launch 0.2.
        let t = stats.am_startup.as_secs_f64();
        assert!((0.2..1.0).contains(&t), "{t}");
    }

    #[test]
    fn deterministic_across_identical_seeds() {
        let mut e1 = Engine::new(42);
        let a = run(&mut e1, spec("d", ShuffleBackend::LocalDisk));
        let mut e2 = Engine::new(42);
        let b = run(&mut e2, spec("d", ShuffleBackend::LocalDisk));
        assert_eq!(a.total, b.total);
        assert_eq!(a.map_phase, b.map_phase);
    }

    #[test]
    fn speculative_execution_caps_the_tail() {
        let heavy_jitter = |speculative: f64| {
            let mut e = Engine::new(9);
            let mut sp = spec("straggler", ShuffleBackend::LocalDisk);
            sp.cost.task_jitter_sigma = 0.6; // heavy stragglers
            sp.cost.speculative_threshold = speculative;
            run(&mut e, sp).map_phase.as_secs_f64()
        };
        let without = heavy_jitter(0.0);
        let with = heavy_jitter(1.3);
        assert!(
            with <= without,
            "speculation must not hurt: {with} vs {without}"
        );
    }

    #[test]
    #[should_panic]
    fn missing_input_panics() {
        let mut e = Engine::new(1);
        let (cluster, yarn, hdfs) = setup(&mut e);
        run_on_yarn(
            &mut e,
            &cluster,
            &yarn,
            &hdfs,
            spec("nope", ShuffleBackend::LocalDisk),
            SpanId::NONE,
            |_, _| {},
        );
    }
}
