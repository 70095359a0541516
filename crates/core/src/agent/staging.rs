//! Stage-In/Out workers: run a unit's staging directives in order, with
//! injected staging errors retried under the unit's retry policy.

use rp_hpc::NodeId;
use rp_saga::filetransfer::{transfer, Endpoint};
use rp_sim::Engine;

use super::{note, Agent};
use crate::description::{StageEndpoint, StagingDirective};
use crate::unit::UnitHandle;

/// Continuation of a staging phase: `ok == false` means an injected
/// staging error exhausted the unit's retry budget.
pub(super) type StagingDone = Box<dyn FnOnce(&mut Engine, bool)>;

impl Agent {
    /// Run staging directives sequentially. `done(engine, false)` fires if
    /// an injected staging error exhausted the unit's retry budget;
    /// otherwise each faulted directive is retried after capped
    /// exponential backoff.
    pub(super) fn run_staging(
        &self,
        engine: &mut Engine,
        mut directives: Vec<StagingDirective>,
        exec_node: Option<NodeId>,
        unit: UnitHandle,
        done: StagingDone,
    ) {
        if directives.is_empty() {
            engine.schedule_now(move |eng| done(eng, true));
            return;
        }
        let faulted = {
            let mut inner = self.inner.borrow_mut();
            let faulted = inner.staging_faults > 0;
            if faulted {
                inner.staging_faults -= 1;
                inner.degraded = true;
            }
            faulted
        };
        if faulted {
            let retry = unit.descr().retry;
            let attempts = unit.attempts();
            note(
                engine,
                format!(
                    "{:?} staging directive faulted (attempt {attempts})",
                    unit.id()
                ),
            );
            if attempts >= retry.max_attempts {
                engine.schedule_now(move |eng| done(eng, false));
                return;
            }
            engine.metrics.incr("agent.staging_retries");
            unit.rec.borrow_mut().attempts += 1;
            let backoff = retry.backoff(attempts + 1);
            let this = self.clone();
            engine.schedule_in(backoff, move |eng| {
                this.run_staging(eng, directives, exec_node, unit, done);
            });
            return;
        }
        let d = directives.remove(0);
        let cluster = self.inner.borrow().machine.cluster.clone();
        let from = self.resolve_endpoint(d.from, exec_node);
        let to = self.resolve_endpoint(d.to, exec_node);
        let this = self.clone();
        transfer(engine, &cluster, from, to, d.bytes, move |eng| {
            this.run_staging(eng, directives, exec_node, unit, done);
        });
    }

    fn resolve_endpoint(&self, e: StageEndpoint, exec_node: Option<NodeId>) -> Endpoint {
        let inner = self.inner.borrow();
        match e {
            StageEndpoint::Remote { bandwidth_mbps } => Endpoint::Remote { bandwidth_mbps },
            StageEndpoint::Lustre => Endpoint::Lustre,
            StageEndpoint::ExecNode => {
                match (exec_node, inner.machine.cluster.has_local_disk()) {
                    (Some(n), true) => Endpoint::Local(n),
                    // No local disk (or framework placement): the directive
                    // degrades to the shared filesystem.
                    _ => Endpoint::Lustre,
                }
            }
        }
    }
}
