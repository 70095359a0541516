//! SAGA-Hadoop: the light-weight Mode I tool (paper §III-A, Fig. 2).
//!
//! Spawns and controls Hadoop/Spark clusters inside an environment managed
//! by an HPC scheduler. The framework specifics live in plugins ("adaptors"
//! in the paper's wording): the YARN plugin launches ResourceManager +
//! NodeManager daemons, the Spark plugin Master + Workers. The lifecycle is
//! exactly the paper's figure: 1. start cluster → 2. submit application →
//! 3. poll status → 4. stop cluster.

use std::cell::RefCell;
use std::rc::Rc;

use rp_hpc::{Allocation, JobState};
use rp_sim::{Engine, SimDuration, SpanId};
use rp_spark::{SparkCluster, SparkConfig};
use rp_yarn::{bootstrap_mode_i, HadoopEnv, YarnConfig};

use crate::job::{JobDescription, JobService, SagaJob};

/// Which framework plugin to bootstrap.
#[derive(Debug, Clone)]
pub enum Framework {
    /// YARN (+ HDFS when `with_hdfs`).
    Yarn { config: YarnConfig, with_hdfs: bool },
    /// Spark standalone.
    Spark { config: SparkConfig },
}

/// A running framework cluster handed to the user once bootstrapped.
#[derive(Clone)]
pub enum FrameworkHandle {
    Yarn(HadoopEnv),
    Spark(SparkCluster),
}

/// A SAGA-Hadoop managed cluster: placeholder batch job + framework.
pub struct ManagedCluster {
    pub framework: FrameworkHandle,
    pub allocation: Allocation,
    job: SagaJob,
    /// Batch submission → framework ready.
    pub startup_time: SimDuration,
}

impl ManagedCluster {
    /// Stop the framework daemons and release the HPC allocation
    /// (step 4 of Fig. 2).
    pub fn stop(&self, engine: &mut Engine) {
        match &self.framework {
            FrameworkHandle::Yarn(env) => {
                env.yarn.shutdown(engine);
                self.job.complete(engine);
            }
            FrameworkHandle::Spark(spark) => {
                let job = self.job.clone();
                spark.shutdown(engine, move |eng| {
                    job.complete(eng);
                });
            }
        }
    }

    pub fn job_state(&self) -> JobState {
        self.job.state()
    }
}

/// Start a framework cluster on `nodes` nodes via the given job service
/// (step 1 of Fig. 2). `on_ready` receives the managed cluster.
pub fn start_cluster(
    engine: &mut Engine,
    service: &JobService,
    framework: Framework,
    nodes: u32,
    walltime: SimDuration,
    on_ready: impl FnOnce(&mut Engine, ManagedCluster) + 'static,
) {
    let t0 = engine.now();
    let cluster = service.batch().cluster().clone();
    let jd = JobDescription::new(
        match &framework {
            Framework::Yarn { .. } => "saga-hadoop-bootstrap-yarn",
            Framework::Spark { .. } => "saga-hadoop-bootstrap-spark",
        },
        nodes,
        walltime,
    );
    // The job handle only exists after submit returns; stash it for the
    // start callback (which always fires strictly later).
    let job_slot: Rc<RefCell<Option<SagaJob>>> = Rc::new(RefCell::new(None));
    let job_slot2 = job_slot.clone();
    let on_ready = Rc::new(RefCell::new(Some(on_ready)));
    let job = service.submit(
        engine,
        jd,
        move |eng, alloc| {
            let job = job_slot2
                .borrow_mut()
                .take()
                .expect("job handle set before start");
            match framework {
                Framework::Yarn { config, with_hdfs } => {
                    let on_ready = on_ready.clone();
                    let alloc2 = alloc.clone();
                    bootstrap_mode_i(
                        eng,
                        cluster,
                        alloc.nodes.clone(),
                        config,
                        with_hdfs,
                        SpanId::NONE,
                        move |eng, env| {
                            let cb = on_ready.borrow_mut().take().expect("ready fired twice");
                            cb(
                                eng,
                                ManagedCluster {
                                    framework: FrameworkHandle::Yarn(env),
                                    allocation: alloc2,
                                    job,
                                    startup_time: eng.now().since(t0),
                                },
                            );
                        },
                    );
                }
                Framework::Spark { config } => {
                    let on_ready = on_ready.clone();
                    let alloc2 = alloc.clone();
                    SparkCluster::bootstrap(
                        eng,
                        &cluster,
                        alloc.nodes.clone(),
                        config,
                        move |eng, spark, _boot| {
                            let cb = on_ready.borrow_mut().take().expect("ready fired twice");
                            cb(
                                eng,
                                ManagedCluster {
                                    framework: FrameworkHandle::Spark(spark),
                                    allocation: alloc2,
                                    job,
                                    startup_time: eng.now().since(t0),
                                },
                            );
                        },
                    );
                }
            }
        },
        |_, _| {},
    );
    *job_slot.borrow_mut() = Some(job);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::SagaUrl;
    use rp_hpc::{BatchSystem, Cluster, MachineSpec};
    use rp_yarn::ResourceRequest;

    fn service() -> JobService {
        let batch = BatchSystem::new(Cluster::new(MachineSpec::localhost()));
        JobService::connect(SagaUrl::parse("fork://localhost").unwrap(), batch).unwrap()
    }

    #[test]
    fn yarn_cluster_lifecycle() {
        let mut e = Engine::new(1);
        let svc = service();
        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        start_cluster(
            &mut e,
            &svc,
            Framework::Yarn {
                config: YarnConfig::test_profile(),
                with_hdfs: true,
            },
            2,
            SimDuration::from_secs(3600),
            move |_, mc| *g.borrow_mut() = Some(mc),
        );
        e.run_until(rp_sim::SimTime::from_secs_f64(60.0));
        let mc = got.borrow_mut().take().expect("cluster ready");
        assert_eq!(mc.allocation.nodes.len(), 2);
        assert_eq!(mc.job_state(), JobState::Running);
        assert!(mc.startup_time.as_secs_f64() < 10.0); // test profile

        // Step 2/3: submit an application and watch it finish.
        let done = Rc::new(RefCell::new(false));
        let d = done.clone();
        if let FrameworkHandle::Yarn(env) = &mc.framework {
            assert!(env.hdfs.is_some());
            env.yarn.submit_app(
                &mut e,
                "probe",
                ResourceRequest::new(1, 1024),
                move |eng, am| {
                    *d.borrow_mut() = true;
                    am.finish(eng);
                },
            );
        } else {
            panic!("expected yarn handle");
        }
        e.run_until(rp_sim::SimTime::from_secs_f64(120.0));
        assert!(*done.borrow());

        // Step 4: stop cluster → allocation released.
        mc.stop(&mut e);
        e.run();
        assert_eq!(mc.job_state(), JobState::Completed);
    }

    #[test]
    fn spark_cluster_lifecycle() {
        let mut e = Engine::new(2);
        let svc = service();
        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        start_cluster(
            &mut e,
            &svc,
            Framework::Spark {
                config: SparkConfig::test_profile(),
            },
            3,
            SimDuration::from_secs(3600),
            move |_, mc| *g.borrow_mut() = Some(mc),
        );
        e.run_until(rp_sim::SimTime::from_secs_f64(60.0));
        let mc = got.borrow_mut().take().expect("cluster ready");
        if let FrameworkHandle::Spark(spark) = &mc.framework {
            assert_eq!(spark.total_cores(), 3 * 8);
        } else {
            panic!("expected spark handle");
        }
        mc.stop(&mut e);
        e.run();
        assert_eq!(mc.job_state(), JobState::Completed);
    }

    #[test]
    fn walltime_expiry_ends_cluster_job() {
        let mut e = Engine::new(3);
        let svc = service();
        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        start_cluster(
            &mut e,
            &svc,
            Framework::Yarn {
                config: YarnConfig::test_profile(),
                with_hdfs: false,
            },
            1,
            SimDuration::from_secs(30),
            move |_, mc| *g.borrow_mut() = Some(mc),
        );
        e.run();
        let mc = got.borrow_mut().take().expect("ready before walltime");
        assert_eq!(mc.job_state(), JobState::TimedOut);
    }
}
