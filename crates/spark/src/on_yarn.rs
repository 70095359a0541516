//! Spark **on YARN** deployment — the alternative the paper evaluated and
//! rejected (§III-D: "While it is possible to support Spark on top of
//! YARN, this approach is associated with significant complexity and
//! overhead as two instead of one framework need to be configured and
//! run"). Implemented so the trade-off can be measured (see
//! `paper --only ablation_spark_deploy`): the driver runs as a YARN AM
//! and every executor is a YARN container, so each one pays
//! heartbeat-gated allocation plus container launch.

use std::cell::RefCell;
use std::rc::Rc;

use rp_sim::{Engine, SimDuration, SimTime};
use rp_yarn::{AmHandle, Container, ResourceRequest, YarnCluster};

/// A Spark application running inside YARN.
#[derive(Clone)]
pub struct SparkOnYarnApp {
    am: AmHandle,
    executors: Rc<RefCell<Vec<Container>>>,
    ready_at: SimTime,
}

impl SparkOnYarnApp {
    pub fn executors(&self) -> Vec<Container> {
        self.executors.borrow().clone()
    }

    pub fn total_cores(&self) -> u32 {
        self.executors
            .borrow()
            .iter()
            .map(|c| c.resource.vcores)
            .sum()
    }

    pub fn ready_at(&self) -> SimTime {
        self.ready_at
    }

    /// Tear the application down (driver unregisters; YARN reclaims all
    /// executor containers).
    pub fn finish(&self, engine: &mut Engine) {
        self.am.finish(engine);
    }
}

/// Submit a Spark application to a YARN cluster: driver AM first, then
/// `executors` containers of `cores_per_executor`/`mem_mb_per_executor`.
/// `on_ready` fires once every executor has registered with the driver.
pub fn submit_spark_on_yarn(
    engine: &mut Engine,
    yarn: &YarnCluster,
    name: impl Into<String>,
    executors: u32,
    cores_per_executor: u32,
    mem_mb_per_executor: u64,
    on_ready: impl FnOnce(&mut Engine, SparkOnYarnApp) + 'static,
) {
    assert!(executors >= 1);
    let name = name.into();
    let on_ready = Rc::new(RefCell::new(Some(on_ready)));
    yarn.submit_app(
        engine,
        name,
        // The Spark driver AM is heavier than a plain AM (driver JVM +
        // scheduler state).
        ResourceRequest::new(1, 4096),
        move |eng, am| {
            let granted: Rc<RefCell<Vec<Container>>> = Rc::new(RefCell::new(Vec::new()));
            for _ in 0..executors {
                let granted = granted.clone();
                let on_ready = on_ready.clone();
                let am2 = am.clone();
                am.request_container(
                    eng,
                    ResourceRequest::new(cores_per_executor, mem_mb_per_executor),
                    move |eng, container| {
                        // Executor JVM start + driver registration.
                        let reg = SimDuration::from_secs_f64(eng.rng.normal_min(2.5, 0.4, 0.1));
                        let granted = granted.clone();
                        let on_ready = on_ready.clone();
                        let am3 = am2.clone();
                        eng.schedule_in(reg, move |eng| {
                            granted.borrow_mut().push(container);
                            if granted.borrow().len() == executors as usize {
                                let cb = on_ready
                                    .borrow_mut()
                                    .take()
                                    .expect("spark-on-yarn ready twice");
                                cb(
                                    eng,
                                    SparkOnYarnApp {
                                        am: am3,
                                        executors: granted.clone(),
                                        ready_at: eng.now(),
                                    },
                                );
                            }
                        });
                    },
                );
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_hpc::{Cluster, MachineSpec, NodeId};
    use rp_yarn::YarnConfig;

    fn yarn(engine: &mut Engine) -> YarnCluster {
        let cluster = Cluster::new(MachineSpec::localhost());
        let nodes: Vec<NodeId> = cluster.node_ids().collect();
        YarnCluster::start(engine, &cluster, &nodes, YarnConfig::test_profile())
    }

    #[test]
    fn all_executors_register_before_ready() {
        let mut e = Engine::new(1);
        let yarn = yarn(&mut e);
        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        submit_spark_on_yarn(&mut e, &yarn, "app", 4, 2, 2048, move |_, app| {
            *g.borrow_mut() = Some(app);
        });
        e.run();
        let app = got.borrow_mut().take().expect("app ready");
        assert_eq!(app.executors().len(), 4);
        assert_eq!(app.total_cores(), 8);
        // Cluster accounting: 4 executors × 2 + 1 AM vcore.
        let s = yarn.cluster_state();
        assert_eq!(s.total.vcores - s.available.vcores, 9);
        app.finish(&mut e);
        e.run();
        let s = yarn.cluster_state();
        assert_eq!(s.available.vcores, s.total.vcores);
    }

    #[test]
    fn on_yarn_slower_than_standalone_grant() {
        // Standalone grants executor cores in one submission round trip;
        // on-YARN pays AM + per-executor container allocation.
        let mut e = Engine::new(2);
        let cluster = Cluster::new(MachineSpec::localhost());
        let nodes: Vec<NodeId> = cluster.node_ids().collect();
        let mut cfg = YarnConfig::test_profile();
        cfg.nm_heartbeat_ms = 1_000;
        cfg.am_launch_s = (8.0, 0.0);
        cfg.container_launch_s = (2.0, 0.0);
        let yarn = YarnCluster::start(&mut e, &cluster, &nodes, cfg);
        let t = Rc::new(RefCell::new(0.0));
        let t2 = t.clone();
        submit_spark_on_yarn(&mut e, &yarn, "app", 4, 2, 2048, move |eng, app| {
            *t2.borrow_mut() = eng.now().as_secs_f64();
            app.finish(eng);
        });
        e.run();
        let on_yarn = *t.borrow();

        let mut e = Engine::new(2);
        let sc_slot = Rc::new(RefCell::new(None));
        let s2 = sc_slot.clone();
        crate::deploy::SparkCluster::bootstrap(
            &mut e,
            &cluster,
            cluster.node_ids().collect(),
            crate::deploy::SparkConfig::test_profile(),
            move |_, sc, _| *s2.borrow_mut() = Some(sc),
        );
        e.run();
        let sc = sc_slot.borrow_mut().take().unwrap();
        let t = Rc::new(RefCell::new(0.0));
        let t2 = t.clone();
        let t0 = e.now();
        sc.submit_app(&mut e, 8, move |eng, res| {
            res.unwrap();
            *t2.borrow_mut() = eng.now().since(t0).as_secs_f64();
        });
        e.run();
        let standalone = *t.borrow();
        assert!(
            on_yarn > standalone + 8.0,
            "on-yarn {on_yarn} should far exceed standalone {standalone}"
        );
    }
}
