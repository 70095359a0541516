//! SAGA file transfer: staging data between the shared parallel
//! filesystem and node-local storage.
//!
//! Compute-Unit `input_staging` / `output_staging` directives resolve to
//! these endpoint pairs; the Pilot agent's Stage-In/Stage-Out workers call
//! [`transfer`] for each directive.

use rp_hpc::{Cluster, NodeId, StorageTarget};
use rp_sim::Engine;

/// One end of a transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Endpoint {
    /// The machine's shared parallel filesystem.
    Lustre,
    /// A node's local disk.
    Local(NodeId),
}

/// Move `bytes` from `from` to `to`; `done` fires at completion. Each
/// leg goes through the storage/network models (and therefore contends
/// with everything else): read the source, cross the fabric between
/// two different nodes, write the target.
pub fn transfer(
    engine: &mut Engine,
    cluster: &Cluster,
    from: Endpoint,
    to: Endpoint,
    bytes: f64,
    done: impl FnOnce(&mut Engine) + 'static,
) {
    assert!(bytes >= 0.0 && bytes.is_finite());
    engine.metrics.incr("saga.transfers");
    engine.metrics.add("saga.transfer_bytes", bytes as u64);
    let cluster2 = cluster.clone();
    storage_io(engine, cluster, from, bytes, move |eng| match (from, to) {
        (Endpoint::Local(a), Endpoint::Local(b)) if a != b => {
            let c3 = cluster2.clone();
            cluster2.net_transfer(eng, a, b, bytes, move |eng| {
                storage_io(eng, &c3, to, bytes, done);
            });
        }
        _ => storage_io(eng, &cluster2, to, bytes, done),
    });
}

/// Direct node-to-node streaming (the paper's §V future work: "data can
/// be directly streamed between these two environments" instead of
/// persisting files and re-reading them). Only the fabric is traversed —
/// no filesystem round trip.
pub fn stream(
    engine: &mut Engine,
    cluster: &Cluster,
    from_node: NodeId,
    to_node: NodeId,
    bytes: f64,
    done: impl FnOnce(&mut Engine) + 'static,
) {
    cluster.net_transfer(engine, from_node, to_node, bytes, done);
}

fn storage_io(
    engine: &mut Engine,
    cluster: &Cluster,
    at: Endpoint,
    bytes: f64,
    done: impl FnOnce(&mut Engine) + 'static,
) {
    let target = match at {
        Endpoint::Lustre => StorageTarget::Lustre,
        Endpoint::Local(n) => StorageTarget::LocalDisk(n),
    };
    cluster.storage_io(engine, target, bytes, done);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_hpc::MachineSpec;
    use rp_sim::MB;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn finish_time(from: Endpoint, to: Endpoint, bytes_mb: f64) -> f64 {
        let mut e = Engine::new(1);
        let cluster = Cluster::new(MachineSpec::localhost());
        let t = Rc::new(RefCell::new(0.0));
        let t2 = t.clone();
        transfer(&mut e, &cluster, from, to, bytes_mb * MB, move |eng| {
            *t2.borrow_mut() = eng.now().as_secs_f64();
        });
        e.run();
        let out = *t.borrow();
        out
    }

    #[test]
    fn lustre_to_local_crosses_storage_only() {
        // 400 MB: Lustre read (0.8 s) + local write (1.0 s) ≈ 1.8 s.
        let t = finish_time(Endpoint::Lustre, Endpoint::Local(NodeId(1)), 400.0);
        assert!((1.5..2.3).contains(&t), "{t}");
    }

    #[test]
    fn local_to_local_includes_fabric_leg() {
        let same = finish_time(
            Endpoint::Local(NodeId(0)),
            Endpoint::Local(NodeId(0)),
            400.0,
        );
        let cross = finish_time(
            Endpoint::Local(NodeId(0)),
            Endpoint::Local(NodeId(1)),
            400.0,
        );
        assert!(cross > same, "cross {cross} vs same {same}");
    }

    #[test]
    fn streaming_beats_persist_and_reload() {
        let cluster = Cluster::new(MachineSpec::localhost());
        // Persist + reload: local → Lustre, then Lustre → other local.
        let mut e = Engine::new(1);
        let t_persist = Rc::new(RefCell::new(0.0));
        let tp = t_persist.clone();
        let c2 = cluster.clone();
        transfer(
            &mut e,
            &cluster,
            Endpoint::Local(NodeId(0)),
            Endpoint::Lustre,
            800.0 * MB,
            move |eng| {
                let tp = tp.clone();
                transfer(
                    eng,
                    &c2,
                    Endpoint::Lustre,
                    Endpoint::Local(NodeId(1)),
                    800.0 * MB,
                    move |eng| *tp.borrow_mut() = eng.now().as_secs_f64(),
                );
            },
        );
        e.run();
        // Direct stream over the fabric.
        let mut e = Engine::new(1);
        let t_stream = Rc::new(RefCell::new(0.0));
        let ts = t_stream.clone();
        stream(
            &mut e,
            &cluster,
            NodeId(0),
            NodeId(1),
            800.0 * MB,
            move |eng| {
                *ts.borrow_mut() = eng.now().as_secs_f64();
            },
        );
        e.run();
        assert!(
            *t_stream.borrow() < *t_persist.borrow() / 2.0,
            "stream {} vs persist {}",
            t_stream.borrow(),
            t_persist.borrow()
        );
    }

    #[test]
    fn zero_bytes_complete_fast() {
        let t = finish_time(Endpoint::Lustre, Endpoint::Local(NodeId(0)), 0.0);
        assert!(t < 0.01, "{t}");
    }
}
