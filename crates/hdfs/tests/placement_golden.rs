//! Replica placement of every HDFS create path, pinned as the `{:?}` of
//! the returned `FileMeta` (plus `used_bytes` after each call). Calls are
//! interleaved on one filesystem so the shared placement cursor carries
//! from one path into the next; a change that moves any replica, block id
//! or block size shows up here as a changed line.

use std::cell::RefCell;
use std::rc::Rc;

use rp_hdfs::{FileMeta, Hdfs, HdfsConfig, HdfsError, StoragePolicy};
use rp_hpc::{Cluster, MachineSpec, NodeId};
use rp_sim::Engine;

const MB: u64 = 1024 * 1024;

fn write(e: &mut Engine, fs: &Hdfs, client: NodeId, path: &str, size: u64) -> String {
    let out: Rc<RefCell<Option<Result<FileMeta, HdfsError>>>> = Rc::new(RefCell::new(None));
    let o = out.clone();
    fs.write_file(
        e,
        client,
        path,
        size,
        StoragePolicy::Default,
        move |_, r| {
            *o.borrow_mut() = Some(r);
        },
    );
    e.run();
    let r = out.borrow_mut().take().expect("write completed");
    format!("write_file {client} {path} {size}: {r:?}")
}

/// One deployment of `datanodes` nodes on Stampede (node 0 up); `outside`
/// is a client node that runs no datanode.
fn placements(datanodes: u32, outside: NodeId) -> String {
    let mut e = Engine::new(1);
    let cluster = Cluster::new(MachineSpec::stampede());
    let nodes: Vec<NodeId> = (0..datanodes).map(NodeId).collect();
    let inside = nodes[datanodes as usize / 2];
    let fs = Hdfs::attach(cluster, nodes, HdfsConfig::default());
    let mut lines = Vec::new();
    let mut log = |fs: &Hdfs, line: String| {
        lines.push(format!("{line} used={}", fs.used_bytes()));
    };
    let synth = |fs: &Hdfs, path: &str, size: u64, policy: StoragePolicy| {
        let r = fs.create_synthetic(path, size, policy);
        format!("create_synthetic {path} {size}: {r:?}")
    };
    let blocks = |fs: &Hdfs, path: &str, size: u64, n: u32| {
        let r = fs.create_synthetic_with_blocks(path, size, StoragePolicy::Default, n);
        format!("create_synthetic_with_blocks {path} {size} {n}: {r:?}")
    };
    log(&fs, synth(&fs, "/s0", 300 * MB, StoragePolicy::Default));
    log(&fs, write(&mut e, &fs, inside, "/w0", 200 * MB));
    log(&fs, blocks(&fs, "/b0", 100 * MB, 3));
    log(&fs, write(&mut e, &fs, outside, "/w1", 260 * MB));
    log(&fs, synth(&fs, "/s1", 0, StoragePolicy::AllSsd));
    log(&fs, blocks(&fs, "/b1", 2, 5));
    log(&fs, write(&mut e, &fs, inside, "/w2", 1));
    log(&fs, synth(&fs, "/s2", 128 * MB, StoragePolicy::Archive));
    log(&fs, blocks(&fs, "/b2", 1000 * MB, 7));
    log(&fs, write(&mut e, &fs, outside, "/w3", 128 * MB + 1));
    // Existing paths are refused by every create path and move no state.
    log(&fs, synth(&fs, "/w0", 1, StoragePolicy::Default));
    log(&fs, blocks(&fs, "/s0", 1, 1));
    log(&fs, write(&mut e, &fs, inside, "/b0", 1));
    log(&fs, synth(&fs, "/s3", 129 * MB, StoragePolicy::Default));
    lines
        .iter()
        .map(|l| format!("dn={datanodes} {l}\n"))
        .collect()
}

#[test]
fn placements_match_the_golden() {
    let got = placements(4, NodeId(9)) + &placements(8, NodeId(20));
    let want = include_str!("placements.golden.txt");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "placement line {} differs", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count());
}
