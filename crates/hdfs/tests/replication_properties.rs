//! Property-style tests of HDFS replication invariants under random files
//! and datanode failures, generated deterministically from `SimRng` seeds.

use std::cell::RefCell;
use std::rc::Rc;

use rp_hdfs::{Hdfs, HdfsConfig, StoragePolicy};
use rp_hpc::{Cluster, MachineSpec, NodeId};
use rp_sim::{Engine, SimRng};

/// After any single datanode failure: no replica lives on the dead node,
/// every block that had ≥2 replicas is back at full replication (when a
/// target exists), and exactly the single-replica blocks on the dead node
/// are lost.
#[test]
fn failure_rereplication_invariants() {
    let mut rng = SimRng::new(0x2E91);
    for case in 0..48 {
        let n_files = rng.uniform_u64(1, 5) as usize;
        let sizes: Vec<u64> = (0..n_files)
            .map(|_| rng.uniform_u64(1, 2_000_000_000))
            .collect();
        let replication = rng.uniform_u64(1, 3) as u32;
        let victim_idx = rng.uniform_u64(0, 3) as usize;
        let mut e = Engine::new(1);
        let cluster = Cluster::new(MachineSpec::localhost()); // 4 nodes
        let nodes: Vec<NodeId> = cluster.node_ids().collect();
        let n_nodes = nodes.len() as u32;
        let fs = Hdfs::attach(
            cluster,
            nodes.clone(),
            HdfsConfig {
                replication,
                ..HdfsConfig::default()
            },
        );
        for (i, &size) in sizes.iter().enumerate() {
            fs.create_synthetic(&format!("/f{i}"), size, StoragePolicy::Default)
                .unwrap();
        }
        let victim = nodes[victim_idx];
        // Blocks whose ONLY replica is on the victim will be lost.
        let mut expect_lost = Vec::new();
        for i in 0..sizes.len() {
            for b in fs.block_locations(&format!("/f{i}")).unwrap() {
                if b.replicas == vec![victim] {
                    expect_lost.push(b.id);
                }
            }
        }
        let lost = Rc::new(RefCell::new(None));
        let l = lost.clone();
        fs.fail_datanode(&mut e, victim, move |_, lost_blocks| {
            *l.borrow_mut() = Some(lost_blocks);
        });
        e.run();
        let mut lost = lost.borrow().clone().expect("callback fired");
        lost.sort_unstable();
        expect_lost.sort_unstable();
        assert_eq!(lost, expect_lost, "case {case}");

        let effective = replication.min(n_nodes);
        for i in 0..sizes.len() {
            for b in fs.block_locations(&format!("/f{i}")).unwrap() {
                assert!(
                    !b.replicas.contains(&victim),
                    "case {case}: replica on dead node"
                );
                let mut r = b.replicas.clone();
                r.sort();
                r.dedup();
                assert_eq!(r.len(), b.replicas.len(), "case {case}: duplicate replicas");
                if !b.replicas.is_empty() {
                    // Re-replicated back to min(replication, survivors).
                    let want = effective.min(n_nodes - 1) as usize;
                    assert_eq!(b.replicas.len(), want, "case {case}: block {b:?}");
                }
            }
        }
    }
}

/// used_bytes equals the sum of replica bytes across the namespace,
/// before and after a datanode failure and its re-replication.
#[test]
fn used_bytes_accounting() {
    let mut rng = SimRng::new(0x05EDB);
    for case in 0..48 {
        let n_files = rng.uniform_u64(1, 7) as usize;
        let sizes: Vec<u64> = (0..n_files)
            .map(|_| rng.uniform_u64(1, 500_000_000))
            .collect();
        let victim_idx = rng.uniform_u64(0, 3) as usize;
        let mut e = Engine::new(1);
        let cluster = Cluster::new(MachineSpec::localhost());
        let nodes: Vec<NodeId> = cluster.node_ids().collect();
        let fs = Hdfs::attach(cluster, nodes.clone(), HdfsConfig::default());
        let replica_bytes = |fs: &Hdfs| -> u64 {
            (0..sizes.len())
                .flat_map(|i| fs.block_locations(&format!("/f{i}")).unwrap())
                .map(|b| b.size_bytes * b.replicas.len() as u64)
                .sum()
        };
        for (i, &size) in sizes.iter().enumerate() {
            fs.create_synthetic(&format!("/f{i}"), size, StoragePolicy::Default)
                .unwrap();
        }
        assert_eq!(fs.used_bytes(), replica_bytes(&fs), "case {case}");
        fs.fail_datanode(&mut e, nodes[victim_idx], |_, _| {});
        e.run();
        assert_eq!(fs.used_bytes(), replica_bytes(&fs), "case {case}");
    }
}
