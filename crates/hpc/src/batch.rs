//! System-level batch scheduler (SLURM/Torque/SGE-shaped): FCFS with EASY
//! backfilling over whole nodes.
//!
//! A Pilot-Job is exactly a batch job here — a placeholder allocation whose
//! `on_start` callback boots the RADICAL-Pilot agent. Jobs end when their
//! owner completes/cancels them or when the walltime expires.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use rp_sim::{Engine, EventId, SimDuration, SimTime};

use crate::cluster::{Cluster, NodeId};

/// Identifier of a batch job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Submitted; not yet eligible (submit latency).
    Submitted,
    /// In the scheduler queue, waiting for nodes.
    Queued,
    Running,
    Completed,
    Cancelled,
    TimedOut,
    /// Node/hardware failure killed the job (failure injection).
    Failed,
}

impl JobState {
    pub fn is_final(self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Cancelled | JobState::TimedOut | JobState::Failed
        )
    }
}

/// What a job asks the batch system for.
#[derive(Debug, Clone)]
pub struct JobRequest {
    pub name: String,
    pub nodes: u32,
    pub walltime: SimDuration,
}

/// The nodes granted to a running job.
#[derive(Debug, Clone)]
pub struct Allocation {
    pub job_id: JobId,
    pub nodes: Vec<NodeId>,
}

type StartFn = Box<dyn FnOnce(&mut Engine, Allocation)>;
type EndFn = Box<dyn FnOnce(&mut Engine, JobState)>;

struct Job {
    req: JobRequest,
    state: JobState,
    submit_time: SimTime,
    eligible_time: SimTime,
    start_time: Option<SimTime>,
    end_time: Option<SimTime>,
    assigned: Vec<NodeId>,
    on_start: Option<StartFn>,
    on_end: Option<EndFn>,
    walltime_event: Option<EventId>,
}

struct Inner {
    jobs: BTreeMap<JobId, Job>,
    /// Jobs in [`JobState::Queued`], FCFS by (eligible_time, id).
    queue: Vec<JobId>,
    free_nodes: BTreeSet<u32>,
    next_id: u64,
}

/// The batch system of one machine. Cheap to clone (shared handle).
#[derive(Clone)]
pub struct BatchSystem {
    cluster: Cluster,
    inner: Rc<RefCell<Inner>>,
}

impl BatchSystem {
    pub fn new(cluster: Cluster) -> BatchSystem {
        let free_nodes = (0..cluster.node_count()).collect();
        BatchSystem {
            cluster,
            inner: Rc::new(RefCell::new(Inner {
                jobs: BTreeMap::new(),
                queue: Vec::new(),
                free_nodes,
                next_id: 0,
            })),
        }
    }

    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Submit a job. `on_start` fires when nodes are granted; `on_end` (if
    /// set) fires once the job reaches a final state.
    pub fn submit(
        &self,
        engine: &mut Engine,
        req: JobRequest,
        on_start: impl FnOnce(&mut Engine, Allocation) + 'static,
    ) -> JobId {
        self.submit_with_end(engine, req, on_start, |_, _| {})
    }

    pub fn submit_with_end(
        &self,
        engine: &mut Engine,
        req: JobRequest,
        on_start: impl FnOnce(&mut Engine, Allocation) + 'static,
        on_end: impl FnOnce(&mut Engine, JobState) + 'static,
    ) -> JobId {
        assert!(req.nodes >= 1, "job must request at least one node");
        assert!(
            req.nodes <= self.cluster.node_count(),
            "job requests {} nodes but machine {} has {}",
            req.nodes,
            self.cluster.spec().name,
            self.cluster.node_count()
        );
        let spec = self.cluster.spec();
        let (sub_mean, sub_std) = spec.submit_latency_s;
        let submit_latency = engine.rng.normal_min(sub_mean, sub_std, 0.01);
        let eligible_in = SimDuration::from_secs_f64(submit_latency);

        let id;
        {
            let mut inner = self.inner.borrow_mut();
            id = JobId(inner.next_id);
            inner.next_id += 1;
            inner.jobs.insert(
                id,
                Job {
                    req,
                    state: JobState::Submitted,
                    submit_time: engine.now(),
                    eligible_time: engine.now() + eligible_in,
                    start_time: None,
                    end_time: None,
                    assigned: Vec::new(),
                    on_start: Some(Box::new(on_start)),
                    on_end: Some(Box::new(on_end)),
                    walltime_event: None,
                },
            );
        }
        engine.trace.record(
            engine.now(),
            "batch",
            format!("submit {id:?} ({} nodes)", self.nodes_of(id)),
        );
        let this = self.clone();
        engine.schedule_in(eligible_in, move |eng| {
            {
                let mut inner = this.inner.borrow_mut();
                let job = inner.jobs.get_mut(&id).expect("job vanished");
                if job.state != JobState::Submitted {
                    return; // cancelled before eligibility
                }
                job.state = JobState::Queued;
                inner.queue.push(id);
                let mut queue = std::mem::take(&mut inner.queue);
                queue.sort_by_key(|&j| (inner.jobs[&j].eligible_time, j));
                inner.queue = queue;
            }
            this.schedule_pass(eng);
        });
        id
    }

    pub fn state(&self, id: JobId) -> JobState {
        self.inner.borrow().jobs[&id].state
    }

    pub fn nodes_of(&self, id: JobId) -> u32 {
        self.inner.borrow().jobs[&id].req.nodes
    }

    /// Queue-wait experienced by a job (start − submit); None if not started.
    pub fn wait_time(&self, id: JobId) -> Option<SimDuration> {
        let inner = self.inner.borrow();
        let job = &inner.jobs[&id];
        job.start_time.map(|s| s.since(job.submit_time))
    }

    /// Hard end of a job's allocation (start + requested walltime); None
    /// until the job has started. Agents use this to drain work that can
    /// no longer finish before the allocation is reclaimed.
    pub fn deadline(&self, id: JobId) -> Option<SimTime> {
        let inner = self.inner.borrow();
        let job = inner.jobs.get(&id)?;
        job.start_time.map(|s| s + job.req.walltime)
    }

    pub fn free_node_count(&self) -> usize {
        self.inner.borrow().free_nodes.len()
    }

    /// Owner signals normal completion (pilot agent shut down).
    pub fn complete(&self, engine: &mut Engine, id: JobId) {
        self.finish(engine, id, JobState::Completed);
    }

    /// Cancel a job (queued jobs are removed; running jobs are torn down).
    pub fn cancel(&self, engine: &mut Engine, id: JobId) {
        self.finish(engine, id, JobState::Cancelled);
    }

    /// Failure injection: kill a job as a node/hardware fault would.
    pub fn fail_job(&self, engine: &mut Engine, id: JobId) {
        self.finish(engine, id, JobState::Failed);
    }

    fn finish(&self, engine: &mut Engine, id: JobId, state: JobState) {
        let end_cb: Option<EndFn>;
        {
            let mut inner = self.inner.borrow_mut();
            let job = match inner.jobs.get_mut(&id) {
                Some(j) => j,
                None => return,
            };
            if job.state.is_final() {
                return;
            }
            let was_running = job.state == JobState::Running;
            job.state = state;
            job.end_time = Some(engine.now());
            end_cb = job.on_end.take();
            if let Some(ev) = job.walltime_event.take() {
                engine.cancel(ev);
            }
            let assigned = std::mem::take(&mut job.assigned);
            if was_running {
                for n in assigned {
                    inner.free_nodes.insert(n.0);
                }
            } else {
                inner.queue.retain(|&j| j != id);
            }
        }
        engine
            .trace
            .record(engine.now(), "batch", format!("{id:?} -> {state:?}"));
        if let Some(cb) = end_cb {
            cb(engine, state);
        }
        self.schedule_pass(engine);
    }

    /// One scheduling pass: start the FCFS head while it fits, then EASY
    /// backfill behind a blocked head.
    fn schedule_pass(&self, engine: &mut Engine) {
        loop {
            let start_now: Option<JobId> = {
                let inner = self.inner.borrow();
                match inner.queue.first() {
                    Some(&head)
                        if inner.jobs[&head].req.nodes as usize <= inner.free_nodes.len() =>
                    {
                        Some(head)
                    }
                    _ => None,
                }
            };
            match start_now {
                Some(id) => self.start_job(engine, id),
                None => break,
            }
        }
        // Head (if any) is blocked: try EASY backfill.
        let candidates: Vec<JobId> = {
            let inner = self.inner.borrow();
            if inner.queue.len() < 2 {
                return;
            }
            let head = inner.queue[0];
            let head_nodes = inner.jobs[&head].req.nodes as usize;
            let (shadow_time, extra_nodes) = match self.shadow(&inner, head_nodes, engine.now()) {
                Some(x) => x,
                None => return,
            };
            inner.queue[1..]
                .iter()
                .copied()
                .filter(|&j| {
                    let job = &inner.jobs[&j];
                    let fits_now = job.req.nodes as usize <= inner.free_nodes.len();
                    let ends_before_shadow = engine.now() + job.req.walltime <= shadow_time;
                    let within_extra = (job.req.nodes as usize) <= extra_nodes;
                    fits_now && (ends_before_shadow || within_extra)
                })
                .collect()
        };
        for id in candidates {
            // Re-check fit: earlier backfills may have consumed nodes.
            let fits = {
                let inner = self.inner.borrow();
                inner.jobs[&id].req.nodes as usize <= inner.free_nodes.len()
            };
            if fits {
                self.start_job(engine, id);
            }
        }
    }

    /// EASY reservation for the blocked head: the time when enough nodes
    /// will be free (`shadow_time`) and how many currently-free nodes are
    /// NOT needed by the head at that time (`extra_nodes`).
    fn shadow(&self, inner: &Inner, head_nodes: usize, now: SimTime) -> Option<(SimTime, usize)> {
        let mut releases: Vec<(SimTime, usize)> = inner
            .jobs
            .values()
            .filter(|j| j.state == JobState::Running)
            .map(|j| {
                (
                    j.start_time.expect("running job has start") + j.req.walltime,
                    j.assigned.len(),
                )
            })
            .collect();
        releases.sort();
        let mut avail = inner.free_nodes.len();
        for (t, freed) in releases {
            if avail >= head_nodes {
                break;
            }
            avail += freed;
            if avail >= head_nodes {
                let extra = avail - head_nodes;
                return Some((t.max(now), extra.min(inner.free_nodes.len())));
            }
        }
        if avail >= head_nodes {
            // Head actually fits now; no backfill window needed.
            None
        } else {
            // Even with all running jobs done it never fits (can't happen:
            // submit() validates against machine size).
            None
        }
    }

    fn start_job(&self, engine: &mut Engine, id: JobId) {
        let (alloc, start_cb, walltime) = {
            let mut inner = self.inner.borrow_mut();
            inner.queue.retain(|&j| j != id);
            let n = inner.jobs[&id].req.nodes as usize;
            let picked: Vec<u32> = inner.free_nodes.iter().take(n).copied().collect();
            assert_eq!(picked.len(), n, "start_job without enough free nodes");
            for p in &picked {
                inner.free_nodes.remove(p);
            }
            let job = inner
                .jobs
                .get_mut(&id)
                .expect("queued job is in the job table");
            job.state = JobState::Running;
            job.start_time = Some(engine.now());
            job.assigned = picked.iter().map(|&p| NodeId(p)).collect();
            (
                Allocation {
                    job_id: id,
                    nodes: job.assigned.clone(),
                },
                job.on_start.take().expect("job started twice"),
                job.req.walltime,
            )
        };
        engine.trace.record(
            engine.now(),
            "batch",
            format!("start {id:?} on {} nodes", alloc.nodes.len()),
        );
        // Arm walltime expiry.
        let this = self.clone();
        let ev = engine.schedule_in(walltime, move |eng| {
            this.finish(eng, id, JobState::TimedOut);
        });
        self.inner
            .borrow_mut()
            .jobs
            .get_mut(&id)
            .expect("running job is in the job table")
            .walltime_event = Some(ev);
        start_cb(engine, alloc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineSpec;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn quiet_localhost() -> BatchSystem {
        // Deterministic submit latency for exact assertions.
        let mut spec = MachineSpec::localhost();
        spec.submit_latency_s = (0.0, 0.0);
        BatchSystem::new(Cluster::new(spec))
    }

    fn req(name: &str, nodes: u32, walltime_s: u64) -> JobRequest {
        JobRequest {
            name: name.into(),
            nodes,
            walltime: SimDuration::from_secs(walltime_s),
        }
    }

    #[test]
    fn job_starts_when_nodes_free() {
        let mut e = Engine::new(1);
        let b = quiet_localhost();
        let started = Rc::new(RefCell::new(None));
        let s = started.clone();
        let id = b.submit(&mut e, req("a", 2, 100), move |eng, alloc| {
            *s.borrow_mut() = Some((eng.now(), alloc.nodes.clone()));
        });
        e.run_until(SimTime::from_secs_f64(1.0));
        let got = started.borrow().clone().expect("job started");
        assert_eq!(got.1.len(), 2);
        assert_eq!(b.state(id), JobState::Running);
        assert_eq!(b.free_node_count(), 2);
    }

    #[test]
    fn fcfs_queues_when_full() {
        let mut e = Engine::new(1);
        let b = quiet_localhost();
        let order = Rc::new(RefCell::new(Vec::new()));
        let bc = b.clone();
        let o = order.clone();
        let first = b.submit(&mut e, req("big", 4, 50), move |_, _| {
            o.borrow_mut().push("big");
        });
        let o = order.clone();
        b.submit(&mut e, req("second", 4, 50), move |eng, _| {
            o.borrow_mut().push("second");
            assert!(eng.now() >= SimTime::from_secs_f64(50.0));
        });
        let b2 = b.clone();
        e.schedule_in(SimDuration::from_secs(50), move |eng| {
            // big's walltime will expire at ~50s anyway; make it explicit
            b2.complete(eng, first);
        });
        e.run();
        assert_eq!(*order.borrow(), vec!["big", "second"]);
        let _ = bc;
    }

    #[test]
    fn completion_frees_nodes_for_queue() {
        let mut e = Engine::new(1);
        let b = quiet_localhost();
        let id1 = b.submit(&mut e, req("one", 4, 1000), |_, _| {});
        let started2 = Rc::new(RefCell::new(None));
        let s = started2.clone();
        b.submit(&mut e, req("two", 1, 100), move |eng, _| {
            *s.borrow_mut() = Some(eng.now());
        });
        let b2 = b.clone();
        e.schedule_in(SimDuration::from_secs(10), move |eng| {
            b2.complete(eng, id1);
        });
        e.run();
        assert_eq!(started2.borrow().unwrap(), SimTime::from_secs_f64(10.0));
        assert_eq!(b.state(id1), JobState::Completed);
    }

    #[test]
    fn walltime_expiry_times_out_job() {
        let mut e = Engine::new(1);
        let b = quiet_localhost();
        let ended = Rc::new(RefCell::new(None));
        let en = ended.clone();
        let id = b.submit_with_end(
            &mut e,
            req("short", 1, 30),
            |_, _| {},
            move |eng, state| {
                *en.borrow_mut() = Some((eng.now(), state));
            },
        );
        e.run();
        let (t, state) = ended.borrow().unwrap();
        assert_eq!(state, JobState::TimedOut);
        // Walltime counts from job start (submit latency ≥ 10 ms).
        assert!((t.as_secs_f64() - 30.0).abs() < 0.1, "{t}");
        assert_eq!(b.state(id), JobState::TimedOut);
        assert_eq!(b.free_node_count(), 4);
    }

    #[test]
    fn easy_backfill_lets_small_job_jump() {
        let mut e = Engine::new(1);
        let b = quiet_localhost();
        // Fill the machine for 100 s.
        let _running = b.submit(&mut e, req("filler", 4, 100), |_, _| {});
        e.run_until(SimTime::from_secs_f64(1.0));
        // Head of queue: needs the whole machine (blocked until 100 s).
        b.submit(&mut e, req("head", 4, 100), |_, _| {});
        // Small job behind head: won't fit now (no free nodes) — once
        // filler ends early, scheduling is FCFS again. Instead check the
        // backfill window with a partially-free machine:
        e.run_until(SimTime::from_secs_f64(2.0));
        assert_eq!(b.free_node_count(), 0);
        e.run();
        // All jobs eventually terminate via walltime.
        assert_eq!(b.free_node_count(), 4);
    }

    #[test]
    fn backfill_fills_holes_without_delaying_head() {
        let mut e = Engine::new(1);
        let b = quiet_localhost();
        // Occupy 3 of 4 nodes for 100 s → 1 node free.
        b.submit(&mut e, req("base", 3, 100), |_, _| {});
        e.run_until(SimTime::from_secs_f64(1.0));
        // Head needs 2 nodes → blocked until t=100 (shadow time).
        let head_started = Rc::new(RefCell::new(None));
        let hs = head_started.clone();
        b.submit(&mut e, req("head", 2, 50), move |eng, _| {
            *hs.borrow_mut() = Some(eng.now());
        });
        // Backfill candidate: 1 node for 50 s — fits now and ends (t≈51)
        // before the shadow time (t≈100) → must start immediately.
        let bf_started = Rc::new(RefCell::new(None));
        let bs = bf_started.clone();
        b.submit(&mut e, req("small", 1, 50), move |eng, _| {
            *bs.borrow_mut() = Some(eng.now());
        });
        e.run_until(SimTime::from_secs_f64(2.0));
        assert!(
            bf_started.borrow().is_some(),
            "small job should have backfilled"
        );
        assert!(head_started.borrow().is_none());
        e.run();
        // Head starts once base releases its 3 nodes at t=100.
        let t = head_started.borrow().unwrap();
        assert!((t.as_secs_f64() - 100.0).abs() < 0.5, "{t}");
    }

    #[test]
    fn backfill_rejects_job_that_would_delay_head() {
        let mut e = Engine::new(1);
        let b = quiet_localhost();
        b.submit(&mut e, req("base", 3, 100), |_, _| {});
        e.run_until(SimTime::from_secs_f64(1.0));
        let head_started = Rc::new(RefCell::new(None));
        let hs = head_started.clone();
        b.submit(&mut e, req("head", 4, 10), move |eng, _| {
            *hs.borrow_mut() = Some(eng.now());
        });
        // Candidate fits in the free node but runs 500 s > shadow (t=100)
        // and extra_nodes = 0 (head needs all 4) → must NOT backfill.
        let bf_started = Rc::new(RefCell::new(false));
        let bs = bf_started.clone();
        b.submit(&mut e, req("long", 1, 500), move |_, _| {
            *bs.borrow_mut() = true;
        });
        e.run_until(SimTime::from_secs_f64(99.0));
        assert!(!*bf_started.borrow(), "long job must not delay the head");
        assert!(head_started.borrow().is_none());
        e.run();
        let t = head_started.borrow().unwrap();
        assert!((t.as_secs_f64() - 100.0).abs() < 0.5, "{t}");
    }

    #[test]
    fn cancel_queued_job_never_starts() {
        let mut e = Engine::new(1);
        let b = quiet_localhost();
        b.submit(&mut e, req("base", 4, 100), |_, _| {});
        e.run_until(SimTime::from_secs_f64(1.0));
        let started = Rc::new(RefCell::new(false));
        let s = started.clone();
        let id = b.submit(&mut e, req("victim", 1, 10), move |_, _| {
            *s.borrow_mut() = true;
        });
        let b2 = b.clone();
        e.schedule_in(SimDuration::from_secs(5), move |eng| b2.cancel(eng, id));
        e.run();
        assert!(!*started.borrow());
        assert_eq!(b.state(id), JobState::Cancelled);
    }

    #[test]
    fn injected_failure_frees_nodes_and_reports() {
        let mut e = Engine::new(1);
        let b = quiet_localhost();
        let ended = Rc::new(RefCell::new(None));
        let en = ended.clone();
        let id = b.submit_with_end(
            &mut e,
            req("doomed", 3, 1000),
            |_, _| {},
            move |_, st| *en.borrow_mut() = Some(st),
        );
        e.run_until(SimTime::from_secs_f64(5.0));
        b.fail_job(&mut e, id);
        e.run_until(SimTime::from_secs_f64(6.0));
        assert_eq!(ended.borrow().unwrap(), JobState::Failed);
        assert_eq!(b.free_node_count(), 4);
    }

    #[test]
    #[should_panic]
    fn oversized_request_panics() {
        let mut e = Engine::new(1);
        let b = quiet_localhost();
        b.submit(&mut e, req("huge", 5, 10), |_, _| {});
    }

    #[test]
    fn wait_time_measures_queue_delay() {
        let mut e = Engine::new(1);
        let b = quiet_localhost();
        let id1 = b.submit(&mut e, req("a", 4, 20), |_, _| {});
        let id2 = b.submit(&mut e, req("b", 4, 20), |_, _| {});
        e.run();
        assert!(b.wait_time(id1).unwrap().as_secs_f64() < 1.0);
        let w2 = b.wait_time(id2).unwrap().as_secs_f64();
        assert!((w2 - 20.0).abs() < 1.0, "{w2}");
    }
}
