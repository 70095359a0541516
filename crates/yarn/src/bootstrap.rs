//! Deployment of a YARN (+ optional HDFS) cluster inside an HPC allocation
//! (Mode I of the paper) and connection to an already-running dedicated
//! cluster (Mode II).
//!
//! The Mode I sequence mirrors what the RADICAL-Pilot LRM does on agent
//! start (paper §III-C): download the Hadoop distribution, generate the
//! `*-site.xml` / `slaves` / `master` files, start the HDFS NameNode +
//! DataNodes and the YARN ResourceManager + NodeManagers. The sum of these
//! stages is the 50–85 s Mode I overhead of Fig. 5.

use rp_hdfs::{Hdfs, HdfsConfig};
use rp_hpc::{Cluster, NodeId};
use rp_sim::{Engine, SimDuration, SpanId};

use crate::config::YarnConfig;
use crate::rm::YarnCluster;

/// A fully bootstrapped Hadoop environment (YARN plus optional HDFS).
#[derive(Clone)]
pub struct HadoopEnv {
    pub yarn: YarnCluster,
    pub hdfs: Option<Hdfs>,
    /// Wall-clock the bootstrap consumed (reported by Fig. 5's harness).
    pub bootstrap_time: SimDuration,
}

/// Mode I: spawn YARN (and HDFS when `with_hdfs`) on `nodes` of an HPC
/// allocation. `on_ready` fires once every daemon is up. The startup is
/// recorded as a `yarn.startup` span (child of `parent`); the overlapped
/// HDFS deploy gets its own nested `hdfs.startup` span. Pass
/// [`SpanId::NONE`] for an untraced bootstrap.
pub fn bootstrap_mode_i(
    engine: &mut Engine,
    cluster: Cluster,
    nodes: Vec<NodeId>,
    config: YarnConfig,
    with_hdfs: bool,
    parent: SpanId,
    on_ready: impl FnOnce(&mut Engine, HadoopEnv) + 'static,
) {
    assert!(!nodes.is_empty());
    let t0 = engine.now();
    let yarn_span = engine.trace.span_begin(t0, "yarn", "yarn.startup", parent);
    let yarn_id = yarn_span.id();
    engine.trace.span_attr(yarn_id, "mode", "I");
    engine
        .trace
        .span_attr(yarn_id, "nodes", nodes.len().to_string());

    // Stage 1: fetch the distribution (skipped when a shared install or
    // staged tarball exists).
    let download = if config.dist_cached {
        0.0
    } else {
        let base = config.dist_size_mb / config.download_mbps;
        engine.rng.normal_min(base, base * 0.08, 0.1)
    };
    let unpack = engine
        .rng
        .normal_min(config.unpack_s.0, config.unpack_s.1, 0.01);
    let confgen = engine
        .rng
        .normal_min(config.config_gen_s.0, config.config_gen_s.1, 0.01);
    let rm_start = engine
        .rng
        .normal_min(config.rm_start_s.0, config.rm_start_s.1, 0.01);
    let nm_start = (0..nodes.len())
        .map(|_| {
            engine
                .rng
                .normal_min(config.nm_start_s.0, config.nm_start_s.1, 0.01)
        })
        .fold(0.0f64, f64::max);
    let prep = SimDuration::from_secs_f64(download + unpack + confgen);
    let daemons = SimDuration::from_secs_f64(rm_start + nm_start);

    engine.trace.record(
        engine.now(),
        "yarn",
        format!(
            "mode-I bootstrap on {} nodes (download {:.1}s, daemons {:.1}s)",
            nodes.len(),
            prep.as_secs_f64(),
            daemons.as_secs_f64()
        ),
    );

    engine.schedule_in(prep, move |eng| {
        let cluster2 = cluster.clone();
        let nodes2 = nodes.clone();
        let after_daemons = move |eng: &mut Engine, hdfs: Option<Hdfs>| {
            let yarn = YarnCluster::start(eng, &cluster, &nodes, config.clone());
            let env = HadoopEnv {
                yarn,
                hdfs,
                bootstrap_time: eng.now().since(t0),
            };
            eng.trace.record(
                eng.now(),
                "yarn",
                format!("mode-I ready after {}", env.bootstrap_time),
            );
            eng.trace.span_end(eng.now(), yarn_span);
            on_ready(eng, env);
        };
        if with_hdfs {
            // HDFS daemons and YARN daemons start side by side: run the
            // HDFS deploy (whose latencies usually dominate) and add only
            // the residual YARN daemon time, i.e. max(YARN, HDFS) overall.
            let hdfs_cfg = HdfsConfig::default();
            let daemons2 = daemons;
            let hdfs_span = eng
                .trace
                .span_begin(eng.now(), "hdfs", "hdfs.startup", yarn_id);
            Hdfs::deploy(eng, cluster2, nodes2, hdfs_cfg, move |eng, hdfs| {
                eng.trace.span_end(eng.now(), hdfs_span);
                // Residual: YARN daemons may outlast HDFS's.
                let residual =
                    daemons2.saturating_sub(SimDuration::from_secs_f64(hdfs_deploy_estimate()));
                eng.schedule_in(residual, move |eng| after_daemons(eng, Some(hdfs)));
            });
        } else {
            eng.schedule_in(daemons, move |eng| after_daemons(eng, None));
        }
    });
}

/// Central estimate of an HDFS deploy (NameNode + DataNodes) used to
/// overlap the YARN and HDFS daemon phases in Mode I.
fn hdfs_deploy_estimate() -> f64 {
    let c = HdfsConfig::default();
    c.namenode_start_s.0 + c.datanode_start_s.0
}

/// Mode II: attach to a dedicated, already-running Hadoop environment
/// (e.g. Wrangler's data-portal reservation). Only the connect handshake
/// is paid; the cluster itself was provisioned out of band.
pub fn connect_mode_ii(
    engine: &mut Engine,
    env: HadoopEnv,
    config: &YarnConfig,
    on_ready: impl FnOnce(&mut Engine, HadoopEnv) + 'static,
) {
    let t0 = engine.now();
    let delay = SimDuration::from_secs_f64(engine.rng.normal_min(
        config.connect_s.0,
        config.connect_s.1,
        0.01,
    ));
    engine
        .trace
        .record(engine.now(), "yarn", "mode-II connect to dedicated cluster");
    engine.schedule_in(delay, move |eng| {
        let env = HadoopEnv {
            bootstrap_time: eng.now().since(t0),
            ..env
        };
        on_ready(eng, env);
    });
}

/// Provision a dedicated cluster instantly (out-of-band infrastructure,
/// like Wrangler's reservation system) for Mode II experiments and tests.
pub fn dedicated_cluster(
    engine: &mut Engine,
    cluster: &Cluster,
    nodes: &[NodeId],
    config: YarnConfig,
    with_hdfs: bool,
) -> HadoopEnv {
    let yarn = YarnCluster::start(engine, cluster, nodes, config);
    let hdfs =
        with_hdfs.then(|| Hdfs::attach(cluster.clone(), nodes.to_vec(), HdfsConfig::default()));
    HadoopEnv {
        yarn,
        hdfs,
        bootstrap_time: SimDuration::ZERO,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_hpc::MachineSpec;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn mode_i_bootstrap_in_paper_range() {
        let mut e = Engine::new(7);
        let cluster = Cluster::new(MachineSpec::stampede());
        let nodes: Vec<NodeId> = (0..1).map(NodeId).collect();
        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        bootstrap_mode_i(
            &mut e,
            cluster,
            nodes,
            YarnConfig::default(),
            true,
            SpanId::NONE,
            move |_, env| {
                *g.borrow_mut() = Some(env.bootstrap_time.as_secs_f64());
            },
        );
        e.run();
        let t = got.borrow().unwrap();
        // Paper: "for a single node YARN environment, the overhead for
        // Mode I is between 50-85 sec".
        assert!((45.0..95.0).contains(&t), "bootstrap {t}s outside range");
    }

    #[test]
    fn cached_dist_is_faster() {
        let run = |cached: bool| {
            let mut e = Engine::new(3);
            let cluster = Cluster::new(MachineSpec::stampede());
            let got = Rc::new(RefCell::new(None));
            let g = got.clone();
            let cfg = YarnConfig {
                dist_cached: cached,
                ..YarnConfig::default()
            };
            bootstrap_mode_i(
                &mut e,
                cluster,
                vec![NodeId(0)],
                cfg,
                false,
                SpanId::NONE,
                move |_, env| {
                    *g.borrow_mut() = Some(env.bootstrap_time.as_secs_f64());
                },
            );
            e.run();
            let t = got.borrow().unwrap();
            t
        };
        let cold = run(false);
        let warm = run(true);
        assert!(
            cold - warm > 10.0,
            "download should dominate: cold {cold} warm {warm}"
        );
    }

    #[test]
    fn mode_ii_connect_is_fast() {
        let mut e = Engine::new(5);
        let cluster = Cluster::new(MachineSpec::wrangler());
        let nodes: Vec<NodeId> = (0..2).map(NodeId).collect();
        let env = dedicated_cluster(&mut e, &cluster, &nodes, YarnConfig::default(), true);
        assert!(env.hdfs.is_some());
        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        let cfg = YarnConfig::default();
        connect_mode_ii(&mut e, env, &cfg, move |_, env| {
            *g.borrow_mut() = Some(env.bootstrap_time.as_secs_f64());
        });
        e.run();
        let t = got.borrow().unwrap();
        assert!(t < 5.0, "mode II connect should be seconds, got {t}");
    }

    #[test]
    fn bootstrapped_cluster_schedules_apps() {
        let mut e = Engine::new(2);
        let cluster = Cluster::new(MachineSpec::localhost());
        let nodes: Vec<NodeId> = cluster.node_ids().collect();
        let done = Rc::new(RefCell::new(false));
        let d = done.clone();
        bootstrap_mode_i(
            &mut e,
            cluster,
            nodes,
            YarnConfig::test_profile(),
            false,
            SpanId::NONE,
            move |eng, env| {
                let d = d.clone();
                env.yarn.submit_app(
                    eng,
                    "probe",
                    crate::rm::ResourceRequest::new(1, 1024),
                    move |eng, am| {
                        *d.borrow_mut() = true;
                        am.finish(eng);
                    },
                );
            },
        );
        e.run();
        assert!(*done.borrow());
    }
}
