//! Task Spawner: the serial launcher and the three exec paths it hands
//! units to — agent-managed slots, the RADICAL-Pilot YARN application
//! (Fig. 4), and Spark executors.

use std::cell::Cell;
use std::rc::Rc;

use rp_hpc::{NodeId, StorageTarget};
use rp_sim::{Engine, OpenSpan, SimDuration};
use rp_spark::SparkCluster;
use rp_yarn::{AmHandle, HadoopEnv, ResourceRequest};

use super::lrm::{Runtime, AM_MEM_MB};
use super::scheduler::Placement;
use super::{note, ActiveRun, Agent};
use crate::description::{UnitIoTarget, WorkSpec};
use crate::launch::LaunchMethod;
use crate::states::UnitState;
use crate::unit::{PilotId, UnitHandle};

/// Open a unit's compute span under its exec span. The profiler's
/// utilization pass keys on the pilot/cores attributes. Attempts killed
/// mid-run abandon the span open, which excludes it.
fn open_compute_span(
    engine: &mut Engine,
    unit: &UnitHandle,
    pilot: PilotId,
    cores: u32,
) -> OpenSpan {
    let span = engine
        .trace
        .span_begin(engine.now(), "unit", "unit.compute", unit.open_span());
    engine
        .trace
        .span_attr(span.id(), "pilot", pilot.0.to_string());
    engine
        .trace
        .span_attr(span.id(), "cores", cores.to_string());
    span
}

impl Agent {
    /// The Task Spawner is a single serial worker (as in RADICAL-Pilot's
    /// agent): launches queue behind each other even though the launched
    /// work itself runs concurrently. With many concurrent units this
    /// serialization is a first-order scaling cost of the plain pilot —
    /// one of the effects behind Fig. 6.
    pub(super) fn enqueue_spawn(&self, engine: &mut Engine, run: ActiveRun) {
        self.inner.borrow_mut().spawn_queue.push_back(run);
        self.drain_spawner(engine);
    }

    fn drain_spawner(&self, engine: &mut Engine) {
        let next = {
            let mut inner = self.inner.borrow_mut();
            if inner.spawner_busy {
                return;
            }
            loop {
                match inner.spawn_queue.pop_front() {
                    // Attempts killed while queued are dropped unlaunched.
                    Some(run) if !run.alive.get() => continue,
                    Some(run) => {
                        inner.spawner_busy = true;
                        break run;
                    }
                    None => return,
                }
            }
        };
        self.launch_unit(engine, next);
    }

    /// Pay exec-prep + launch overhead, then run the work.
    fn launch_unit(&self, engine: &mut Engine, run: ActiveRun) {
        let (prep, method) = {
            let inner = self.inner.borrow();
            let (m, s) = inner.cfg.exec_prep_s;
            let mut prep = engine.rng.normal_min(m, s, 0.01);
            let d = run.unit.descr();
            let method = inner
                .runtime
                .launch_method(inner.machine.cluster.spec(), &d);
            prep += method.overhead_s();
            if d.mpi && method != LaunchMethod::Fork {
                let (mm, ms) = inner.cfg.mpi_launch_s;
                prep += engine.rng.normal_min(mm, ms, 0.01);
            }
            (SimDuration::from_secs_f64(prep), method)
        };
        engine.metrics.incr("agent.spawner_launches");
        if engine.trace.is_enabled() {
            note(
                engine,
                format!("{:?} launching via {method:?}", run.unit.id()),
            );
        }
        let this = self.clone();
        engine.schedule_in(prep, move |eng| {
            // Spawner done with this unit; next launch may proceed while
            // this unit's work executes.
            this.inner.borrow_mut().spawner_busy = false;
            this.drain_spawner(eng);
            if !run.alive.get() {
                // Killed during launch prep; the recovery path owns it.
                return;
            }
            if run.unit.state().is_final() {
                // Canceled while queued for the spawner or during prep:
                // never execute a final unit; just free its reservation.
                this.fail_and_release(eng, run.unit, run.placement, "canceled");
                return;
            }
            // The one exec dispatch: agent slots, or the pilot's framework.
            if let Placement::Nodes { .. } = run.placement {
                // A node that crashed under us is the heartbeat's to requeue.
                if !this.placement_lost(&run.placement) {
                    this.exec_on_nodes(eng, run);
                }
                return;
            }
            let runtime = this.inner.borrow().runtime.clone();
            match runtime {
                Runtime::Yarn { env, .. } => this.exec_on_yarn(eng, env, run),
                Runtime::Spark { cluster } => this.exec_on_spark(eng, cluster, run),
                Runtime::Plain => unreachable!("plain pilots place on slots"),
            }
        });
    }

    // ---- plain execution ----

    fn exec_on_nodes(&self, engine: &mut Engine, run: ActiveRun) {
        let nodes = run.placement.nodes().to_vec();
        run.unit.rec.borrow_mut().exec_nodes = nodes.iter().map(|&(n, _)| n).collect();
        run.unit.advance(engine, UnitState::Executing);
        let this = self.clone();
        let (unit, alive) = (run.unit.clone(), run.alive.clone());
        self.run_work(engine, &unit, &nodes, &alive, move |eng| {
            if !run.alive.get() {
                // Node crashed mid-run and the attempt was requeued; this
                // stale completion must not double-finish the unit.
                return;
            }
            this.complete_unit(eng, run.unit, run.placement);
        });
    }

    /// Execute a WorkSpec on agent-managed slots. `alive` is the attempt's
    /// kill flag: a stale completion for a killed attempt must leave the
    /// compute span abandoned (open) instead of ending it after the unit
    /// has already been requeued and its exec span closed.
    fn run_work(
        &self,
        engine: &mut Engine,
        unit: &UnitHandle,
        nodes: &[(NodeId, u32)],
        alive: &Rc<Cell<bool>>,
        done: impl FnOnce(&mut Engine) + 'static,
    ) {
        // Sleep, Compute and Native clone without allocating (Native is an
        // `Rc`); framework work never reaches plain slots.
        let work = unit.descr().work.clone();
        let inner = self.inner.borrow();
        let cluster = inner.machine.cluster.clone();
        let primary = nodes[0].0;
        let total_cores: u32 = nodes.iter().map(|&(_, c)| c).sum();
        // Memory-pressure factor: committed/capacity on the worst node
        // (models swapping/GC once the plain cores-only scheduler
        // oversubscribes memory — the Stampede 32 GB effect).
        // Framework-placed containers may land outside the agent's own
        // allocation (Mode II dedicated nodes): those are not tracked by
        // the plain scheduler, so they carry no committed memory.
        // Injected NodeSlowdown faults multiply in on top of pressure.
        let mem_mb = cluster.spec().mem_per_node_mb;
        let pressure = nodes
            .iter()
            .map(|&(n, _)| inner.slots.pressure(n, mem_mb))
            .fold(1.0f64, f64::max);
        let pilot_id = inner.pilot;
        drop(inner);

        let span = open_compute_span(engine, unit, pilot_id, total_cores);
        let alive = alive.clone();
        let done = move |eng: &mut Engine| {
            if alive.get() {
                eng.trace.span_end(eng.now(), span);
            }
            done(eng);
        };

        match work {
            WorkSpec::Sleep(dur) => {
                // The scale hot path: one completion event per unit.
                engine.schedule_in(dur, done);
            }
            WorkSpec::Native(f) => {
                // Native work runs a real closure and bills its measured host
                // runtime as sim time by design — this variant explicitly
                // trades determinism for realism (see WorkSpec::Native docs);
                // all other variants stay virtual.
                #[expect(
                    clippy::disallowed_methods,
                    reason = "host timing is the point of Native work"
                )]
                let t0 = std::time::Instant::now();
                f();
                let dur = SimDuration::from_secs_f64(t0.elapsed().as_secs_f64());
                engine.schedule_in(dur, done);
            }
            WorkSpec::Compute {
                core_seconds,
                read_mb,
                write_mb,
                io,
            } => {
                let target = match io {
                    UnitIoTarget::LocalDisk if cluster.has_local_disk() => {
                        StorageTarget::LocalDisk(primary)
                    }
                    _ => StorageTarget::Lustre,
                };
                let jitter = {
                    let sigma = self.inner.borrow().cfg.compute_jitter_sigma;
                    if sigma > 0.0 {
                        engine.rng.lognormal(0.0, sigma)
                    } else {
                        1.0
                    }
                };
                let compute = cluster
                    .compute_duration(core_seconds / total_cores as f64)
                    .mul_f64(pressure * jitter);
                let cluster2 = cluster.clone();
                cluster.storage_io(engine, target, read_mb * rp_sim::MB, move |eng| {
                    eng.schedule_in(compute, move |eng| {
                        cluster2.storage_io(eng, target, write_mb * rp_sim::MB, done);
                    });
                });
            }
            WorkSpec::MapReduce(_) | WorkSpec::SparkJob(_) => {
                unreachable!("validated: framework work never placed on plain slots")
            }
        }
    }

    // ---- YARN execution (the RADICAL-Pilot YARN application, Fig. 4) ----

    fn exec_on_yarn(&self, engine: &mut Engine, env: HadoopEnv, run: ActiveRun) {
        // `validate` rejected MapReduce units on YARN pilots without HDFS.
        let mr_job = match (&run.unit.descr().work, &env.hdfs) {
            (WorkSpec::MapReduce(spec), Some(hdfs)) => Some((spec.clone(), hdfs.clone())),
            _ => None,
        };
        if let Some((spec, hdfs)) = mr_job {
            // A full MapReduce job: the MR AM drives its own containers.
            run.unit.advance(engine, UnitState::Executing);
            let this = self.clone();
            let cluster = self.inner.borrow().machine.cluster.clone();
            let parent = run.unit.open_span();
            let (unit, placement) = (run.unit.clone(), run.placement.clone());
            let submitted = rp_mapreduce::run_on_yarn(
                engine,
                &cluster,
                &env.yarn,
                &hdfs,
                spec,
                parent,
                move |eng, stats| {
                    if !run.alive.get() {
                        // Pilot terminated mid-job; the UM owns the unit.
                        return;
                    }
                    run.unit.rec.borrow_mut().mr_stats = Some(stats);
                    this.complete_unit(eng, run.unit, run.placement);
                },
            );
            if let Err(e) = submitted {
                let reason = format!("mapreduce input unavailable: {e}");
                self.fail_and_release(engine, unit, placement, &reason);
            }
            return;
        }
        // Ordinary unit wrapped in the RADICAL-Pilot YARN app: allocate an
        // AM (or reuse a pooled one), then the task container. The pool
        // only fills under `SessionConfig::am_reuse`.
        let reuse_am = self.inner.borrow_mut().am_pool.pop();
        if let Some(am) = reuse_am {
            engine.metrics.incr("agent.am_reused");
            if engine.trace.is_enabled() {
                note(engine, format!("{:?} reusing pooled AM", run.unit.id()));
            }
            self.yarn_task_container(engine, am, run);
            return;
        }
        let name = format!("rp-yarn-app-{:?}", run.unit.id());
        let this = self.clone();
        // The two-stage CU startup of the Fig. 5 inset: first the AM, then
        // (below) the task container. The unit is still StagingInput
        // here, so the span hangs off the unit root.
        let span = engine.trace.span_begin(
            engine.now(),
            "yarn",
            "yarn.am_allocation",
            run.unit.root_span(),
        );
        let am_req = ResourceRequest::new(1, AM_MEM_MB);
        env.yarn.submit_app(engine, name, am_req, move |eng, am| {
            eng.trace.span_end(eng.now(), span);
            this.yarn_task_container(eng, am, run);
        });
    }

    /// Request the task container for a unit, run the work, and survive
    /// RM preemption: a preempted attempt re-requests a fresh container
    /// and re-runs the work from the start (the "dynamic set of
    /// resources" behaviour YARN applications must implement, §III-B).
    fn yarn_task_container(&self, engine: &mut Engine, am: AmHandle, run: ActiveRun) {
        // This container's own kill flag; `run.alive` is the attempt's.
        let container_alive = Rc::new(Cell::new(true));
        let retry = {
            let (this, am, run) = (self.clone(), am.clone(), run.clone());
            let container_alive = container_alive.clone();
            move |eng: &mut Engine, container: rp_yarn::Container| {
                container_alive.set(false);
                if !run.alive.get() {
                    // Pilot terminated; the UM owns this unit now.
                    return;
                }
                let policy = run.unit.descr().retry;
                let attempts = run.unit.attempts();
                if attempts >= policy.max_attempts {
                    am.finish(eng);
                    let (unit, placement) = (run.unit.clone(), run.placement.clone());
                    this.fail_and_release(
                        eng,
                        unit,
                        placement,
                        "container killed: no attempts left",
                    );
                    return;
                }
                run.unit.rec.borrow_mut().attempts += 1;
                eng.metrics.incr("agent.preemption_restarts");
                note(
                    eng,
                    format!(
                        "{:?} lost {:?} to preemption; re-requesting (attempt {})",
                        run.unit.id(),
                        container.id,
                        attempts + 1
                    ),
                );
                let (this, am, run) = (this.clone(), am.clone(), run.clone());
                eng.schedule_in(policy.backoff(attempts + 1), move |eng| {
                    this.yarn_task_container(eng, am, run);
                });
            }
        };
        // Second stage of the Fig. 5 inset decomposition. Parented to the
        // unit root: the stage_in span is already closed, and a preemption
        // restart opens a fresh allocation span per attempt.
        let alloc_span = engine.trace.span_begin(
            engine.now(),
            "yarn",
            "yarn.container_allocation",
            run.unit.root_span(),
        );
        let req = {
            let d = run.unit.descr();
            ResourceRequest::new(d.cores.max(1), d.mem_mb)
        };
        let (this, granted_am) = (self.clone(), am.clone());
        am.request_container_preemptible(engine, req, retry, move |eng, container| {
            eng.trace.span_end(eng.now(), alloc_span);
            let am = granted_am;
            if !run.alive.get() {
                // Granted after the pilot died; nothing to run any more.
                return;
            }
            if run.unit.state().is_final() {
                // Canceled while the container was allocated: free it all.
                am.release_container(eng, container.id);
                am.finish(eng);
                this.fail_and_release(eng, run.unit, run.placement, "canceled");
                return;
            }
            run.unit.rec.borrow_mut().exec_nodes = vec![container.node];
            // On a preemption restart the unit is already Executing.
            if run.unit.state() != UnitState::Executing {
                run.unit.advance(eng, UnitState::Executing);
            }
            let slot = [(container.node, container.resource.vcores)];
            let (this2, unit) = (this.clone(), run.unit.clone());
            this.run_work(eng, &unit, &slot, &container_alive.clone(), move |eng| {
                if !container_alive.get() || !run.alive.get() {
                    // This attempt was preempted mid-flight (the restart
                    // owns the unit) or the pilot died (the UM does).
                    return;
                }
                am.release_container(eng, container.id);
                let pool = {
                    let inner = this2.inner.borrow();
                    inner.cfg.am_reuse && !inner.stopping
                };
                if pool {
                    this2.inner.borrow_mut().am_pool.push(am);
                } else {
                    am.finish(eng);
                }
                this2.complete_unit(eng, run.unit, run.placement);
            });
        });
    }

    // ---- Spark execution ----

    fn exec_on_spark(&self, engine: &mut Engine, spark: SparkCluster, run: ActiveRun) {
        let cluster = self.inner.borrow().machine.cluster.clone();
        let this = self.clone();
        // Full stage-DAG jobs run through the simulated Spark app model.
        let spark_job = match &run.unit.descr().work {
            WorkSpec::SparkJob(spec) => Some(spec.clone()),
            _ => None,
        };
        if let Some(spec) = spark_job {
            run.unit.advance(engine, UnitState::Executing);
            rp_spark::run_simulated_app(engine, &cluster, &spark, spec, move |eng, res| {
                if !run.alive.get() {
                    // Pilot terminated mid-job; the UM owns the unit.
                    return;
                }
                match res {
                    Ok(stats) => {
                        run.unit.rec.borrow_mut().exec_nodes = stats.nodes;
                        this.complete_unit(eng, run.unit, run.placement);
                    }
                    Err(e) => {
                        let reason = format!("spark job failed: {e}");
                        this.fail_and_release(eng, run.unit, run.placement, &reason);
                    }
                }
            });
            return;
        }
        let (cores, core_seconds) = {
            let d = run.unit.descr();
            match d.work {
                // Sleep work runs as a trivial one-stage app.
                WorkSpec::Sleep(dur) => (d.cores.max(1), dur.as_secs_f64() * d.cores.max(1) as f64),
                // `Runtime::validate` admits no other kind on a Spark pilot.
                _ => (d.cores.max(1), 0.0),
            }
        };
        let pilot_id = self.inner.borrow().pilot;
        let spark_cb = spark.clone();
        spark.submit_app(engine, cores, move |eng, result| {
            if !run.alive.get() {
                // Granted (or refused) after the pilot died; nothing to run.
                return;
            }
            let (app_id, grants) = match result {
                Ok(granted) => granted,
                Err(e) => {
                    let reason = format!("spark submission failed: {e}");
                    this.fail_and_release(eng, run.unit, run.placement, &reason);
                    return;
                }
            };
            if run.unit.state().is_final() {
                // Canceled while waiting for executor cores.
                spark_cb.finish_app(eng, app_id);
                this.fail_and_release(eng, run.unit, run.placement, "canceled");
                return;
            }
            run.unit.rec.borrow_mut().exec_nodes = grants.iter().map(|g| g.node).collect();
            run.unit.advance(eng, UnitState::Executing);
            let span = open_compute_span(eng, &run.unit, pilot_id, cores);
            let dur = cluster.compute_duration(core_seconds / cores.max(1) as f64);
            eng.schedule_in(dur, move |eng| {
                if !run.alive.get() {
                    // Killed mid-run: abandon the compute span open (kill
                    // semantics) and leave the unit to the UM.
                    return;
                }
                eng.trace.span_end(eng.now(), span);
                spark_cb.finish_app(eng, app_id);
                this.complete_unit(eng, run.unit, run.placement);
            });
        });
    }
}
