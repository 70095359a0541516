//! The simulated HDFS instance: deployment, writes through the replication
//! pipeline, locality-aware reads, and the block-location API that
//! MapReduce/YARN use for data-local scheduling.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use rp_hpc::{Cluster, NodeId, StorageTarget};
use rp_sim::{Engine, SimDuration};

use crate::meta::{split_blocks, BlockMeta, FileMeta, StoragePolicy};

/// Tunables of an HDFS deployment.
#[derive(Debug, Clone)]
pub struct HdfsConfig {
    pub block_size_mb: u64,
    pub replication: u32,
    /// NameNode format + daemon start (seconds, mean/std).
    pub namenode_start_s: (f64, f64),
    /// Per-DataNode daemon start (seconds, mean/std); nodes start in
    /// parallel so deployment pays the max, not the sum.
    pub datanode_start_s: (f64, f64),
}

impl Default for HdfsConfig {
    fn default() -> Self {
        HdfsConfig {
            block_size_mb: 128,
            replication: 3,
            namenode_start_s: (6.0, 1.0),
            datanode_start_s: (4.0, 0.8),
        }
    }
}

#[derive(Debug)]
struct Inner {
    config: HdfsConfig,
    namenode: NodeId,
    datanodes: Vec<NodeId>,
    files: BTreeMap<String, FileMeta>,
    next_block_id: u64,
    /// Rotates replica placement so synthetic data spreads evenly.
    placement_cursor: usize,
    used_bytes: u64,
}

/// A deployed (or deploying) HDFS filesystem. Cheap to clone.
#[derive(Clone)]
pub struct Hdfs {
    cluster: Cluster,
    inner: Rc<RefCell<Inner>>,
}

/// Errors from namespace operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HdfsError {
    AlreadyExists(String),
    NotFound(String),
}

impl std::fmt::Display for HdfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HdfsError::AlreadyExists(p) => write!(f, "path already exists: {p}"),
            HdfsError::NotFound(p) => write!(f, "path not found: {p}"),
        }
    }
}

impl std::error::Error for HdfsError {}

impl Hdfs {
    /// Deploy HDFS on `nodes` of `cluster`: the first node hosts the
    /// NameNode, all nodes run DataNodes. `on_ready` fires once every
    /// daemon is up. Requires the machine to have local disks (HDFS over
    /// Lustre is a different deployment the paper argues against; callers
    /// model that by using `Cluster::storage_io(Lustre, …)` directly).
    pub fn deploy(
        engine: &mut Engine,
        cluster: Cluster,
        nodes: Vec<NodeId>,
        config: HdfsConfig,
        on_ready: impl FnOnce(&mut Engine, Hdfs) + 'static,
    ) {
        let fs = Hdfs::attach(cluster, nodes, config);
        // NameNode start, then DataNodes in parallel: total = nn + max(dn).
        let (nn_mean, nn_std) = fs.inner.borrow().config.namenode_start_s;
        let nn_start = engine.rng.normal_min(nn_mean, nn_std, 0.1);
        let (dn_mean, dn_std) = fs.inner.borrow().config.datanode_start_s;
        let n_dn = fs.inner.borrow().datanodes.len();
        let dn_max = (0..n_dn)
            .map(|_| engine.rng.normal_min(dn_mean, dn_std, 0.1))
            .fold(0.0f64, f64::max);
        let total = SimDuration::from_secs_f64(nn_start + dn_max);
        engine
            .trace
            .record(engine.now(), "hdfs", format!("deploying on {n_dn} nodes"));
        engine.schedule_in(total, move |eng| {
            eng.trace.record(eng.now(), "hdfs", "ready");
            on_ready(eng, fs);
        });
    }

    /// Attach to an HDFS instance that already exists (dedicated Hadoop
    /// environments, Mode II): no daemon-start timing is simulated.
    pub fn attach(cluster: Cluster, nodes: Vec<NodeId>, config: HdfsConfig) -> Hdfs {
        assert!(!nodes.is_empty(), "HDFS needs at least one node");
        assert!(
            cluster.has_local_disk(),
            "HDFS requires node-local disks on {}",
            cluster.spec().name
        );
        let replication = config.replication.min(nodes.len() as u32).max(1);
        Hdfs {
            cluster,
            inner: Rc::new(RefCell::new(Inner {
                config: HdfsConfig {
                    replication,
                    ..config
                },
                namenode: nodes[0],
                datanodes: nodes,
                files: BTreeMap::new(),
                next_block_id: 0,
                placement_cursor: 0,
                used_bytes: 0,
            })),
        }
    }

    pub fn namenode(&self) -> NodeId {
        self.inner.borrow().namenode
    }

    pub fn datanodes(&self) -> Vec<NodeId> {
        self.inner.borrow().datanodes.clone()
    }

    pub fn replication(&self) -> u32 {
        self.inner.borrow().config.replication
    }

    pub fn block_size_bytes(&self) -> u64 {
        self.inner.borrow().config.block_size_mb * 1024 * 1024
    }

    pub fn exists(&self, path: &str) -> bool {
        self.inner.borrow().files.contains_key(path)
    }

    pub fn used_bytes(&self) -> u64 {
        self.inner.borrow().used_bytes
    }

    /// Block locations for locality-aware scheduling (the NameNode
    /// `getBlockLocations` RPC).
    pub fn block_locations(&self, path: &str) -> Result<Vec<BlockMeta>, HdfsError> {
        self.inner
            .borrow()
            .files
            .get(path)
            .map(|f| f.blocks.clone())
            .ok_or_else(|| HdfsError::NotFound(path.into()))
    }

    pub fn file_meta(&self, path: &str) -> Result<FileMeta, HdfsError> {
        self.inner
            .borrow()
            .files
            .get(path)
            .cloned()
            .ok_or_else(|| HdfsError::NotFound(path.into()))
    }

    /// Register a file without simulating the ingest (pre-loaded input data
    /// for experiments), split at the configured block size.
    pub fn create_synthetic(
        &self,
        path: &str,
        size_bytes: u64,
        policy: StoragePolicy,
    ) -> Result<FileMeta, HdfsError> {
        let block_size = self.block_size_bytes();
        self.create_preloaded(path, size_bytes, policy, block_size)
    }

    /// Create a synthetic file pre-split into exactly `blocks` blocks
    /// (how MR jobs pin their map-task count regardless of file size).
    pub fn create_synthetic_with_blocks(
        &self,
        path: &str,
        size_bytes: u64,
        policy: StoragePolicy,
        blocks: u32,
    ) -> Result<FileMeta, HdfsError> {
        assert!(blocks >= 1);
        let per = (size_bytes as f64 / blocks as f64).ceil().max(1.0) as u64;
        self.create_preloaded(path, size_bytes, policy, per)
    }

    /// The synthetic create path: check the namespace, place every block
    /// with no writer, and account the replicas.
    fn create_preloaded(
        &self,
        path: &str,
        size_bytes: u64,
        policy: StoragePolicy,
        block_size_bytes: u64,
    ) -> Result<FileMeta, HdfsError> {
        let mut inner = self.inner.borrow_mut();
        if inner.files.contains_key(path) {
            return Err(HdfsError::AlreadyExists(path.into()));
        }
        let meta = inner.place(path, size_bytes, policy, block_size_bytes, None);
        inner.insert(meta.clone());
        Ok(meta)
    }

    /// Write a file from `client` through the replication pipeline. Blocks
    /// are written sequentially (HDFS client behaviour); within a block the
    /// pipeline cost is dominated by the slowest stage, which we model as
    /// the parallel set {local write, per-replica transfer+write}.
    pub fn write_file(
        &self,
        engine: &mut Engine,
        client: NodeId,
        path: &str,
        size_bytes: u64,
        policy: StoragePolicy,
        done: impl FnOnce(&mut Engine, Result<FileMeta, HdfsError>) + 'static,
    ) {
        let block_size = self.block_size_bytes();
        let meta = {
            let mut inner = self.inner.borrow_mut();
            if inner.files.contains_key(path) {
                let p = path.to_string();
                engine.schedule_now(move |eng| done(eng, Err(HdfsError::AlreadyExists(p))));
                return;
            }
            inner.place(path, size_bytes, policy, block_size, Some(client))
        };
        let this = self.clone();
        self.write_block_chain(engine, client, meta.clone(), 0, move |eng| {
            this.inner.borrow_mut().insert(meta.clone());
            done(eng, Ok(meta));
        });
    }

    /// Recursively write block `idx` (fan-out over replicas), then the next.
    fn write_block_chain(
        &self,
        engine: &mut Engine,
        client: NodeId,
        meta: FileMeta,
        idx: usize,
        done: impl FnOnce(&mut Engine) + 'static,
    ) {
        if idx >= meta.blocks.len() {
            engine.schedule_now(done);
            return;
        }
        let block = meta.blocks[idx].clone();
        let factor = meta.policy.bandwidth_factor();
        let n = block.replicas.len();
        engine.metrics.incr("hdfs.blocks_written");
        engine
            .metrics
            .add("hdfs.replica_bytes_written", block.size_bytes * n as u64);
        let remaining = Rc::new(RefCell::new(n));
        let done = Rc::new(RefCell::new(Some(done)));
        for &replica in &block.replicas {
            let this = self.clone();
            let meta2 = meta.clone();
            let remaining = remaining.clone();
            let done = done.clone();
            let bytes = block.size_bytes as f64 / factor;
            let cluster = self.cluster.clone();
            let finish = move |eng: &mut Engine| {
                let mut r = remaining.borrow_mut();
                *r -= 1;
                if *r == 0 {
                    drop(r);
                    let cb = done.borrow_mut().take().expect("block completion raced");
                    this.write_block_chain(eng, client, meta2, idx + 1, cb);
                }
            };
            if replica == client {
                cluster.storage_io(engine, StorageTarget::LocalDisk(replica), bytes, finish);
            } else {
                let cluster2 = cluster.clone();
                cluster.net_transfer(engine, client, replica, bytes, move |eng| {
                    cluster2.storage_io(eng, StorageTarget::LocalDisk(replica), bytes, finish);
                });
            }
        }
    }

    /// Fail a datanode: every block with a replica there re-replicates
    /// from a surviving copy onto another node (NameNode behaviour on
    /// DataNode death). `done` fires when re-replication traffic ends;
    /// blocks whose only replica lived on the failed node are lost and
    /// reported in the result. The failed node stops hosting replicas.
    pub fn fail_datanode(
        &self,
        engine: &mut Engine,
        failed: NodeId,
        done: impl FnOnce(&mut Engine, Vec<u64>) + 'static,
    ) {
        let cluster = self.cluster.clone();
        // Plan: (block id, source replica, new target, bytes) + lost ids.
        let mut plan = Vec::new();
        let mut lost = Vec::new();
        {
            let mut inner = self.inner.borrow_mut();
            inner.datanodes.retain(|&n| n != failed);
            let survivors = inner.datanodes.clone();
            assert!(
                !survivors.is_empty(),
                "cannot fail the last datanode of an HDFS cluster"
            );
            let mut cursor = inner.placement_cursor;
            let mut freed = 0u64;
            for file in inner.files.values_mut() {
                for block in file.blocks.iter_mut() {
                    if !block.replicas.contains(&failed) {
                        continue;
                    }
                    block.replicas.retain(|&n| n != failed);
                    freed += block.size_bytes;
                    if block.replicas.is_empty() {
                        lost.push(block.id);
                        continue;
                    }
                    // Pick a survivor that doesn't already hold the block.
                    let mut target = None;
                    for _ in 0..survivors.len() {
                        let cand = survivors[cursor % survivors.len()];
                        cursor += 1;
                        if !block.replicas.contains(&cand) {
                            target = Some(cand);
                            break;
                        }
                    }
                    if let Some(t) = target {
                        let src = block.replicas[0];
                        block.replicas.push(t);
                        plan.push((src, t, block.size_bytes));
                    } else {
                        freed -= block.size_bytes; // stays under-replicated
                    }
                }
            }
            inner.placement_cursor = cursor;
            inner.used_bytes -= freed;
            // Re-replicated bytes are re-added below as copies complete.
        }
        engine.trace.record(
            engine.now(),
            "hdfs",
            format!(
                "datanode {failed} failed: {} blocks re-replicating, {} lost",
                plan.len(),
                lost.len()
            ),
        );
        engine.metrics.incr("hdfs.datanode_failures");
        engine
            .metrics
            .add("hdfs.blocks_rereplicated", plan.len() as u64);
        engine.metrics.add("hdfs.blocks_lost", lost.len() as u64);
        if plan.is_empty() {
            engine.schedule_now(move |eng| done(eng, lost));
            return;
        }
        let remaining = Rc::new(RefCell::new(plan.len()));
        let done = Rc::new(RefCell::new(Some(done)));
        let this = self.clone();
        for (src, dst, bytes) in plan {
            let remaining = remaining.clone();
            let done = done.clone();
            let cluster2 = cluster.clone();
            let this2 = this.clone();
            let lost2 = lost.clone();
            // Copy: read at source, ship over fabric, write at target.
            cluster.storage_io(
                engine,
                StorageTarget::LocalDisk(src),
                bytes as f64,
                move |eng| {
                    let cluster3 = cluster2.clone();
                    cluster2.net_transfer(eng, src, dst, bytes as f64, move |eng| {
                        cluster3.storage_io(
                            eng,
                            StorageTarget::LocalDisk(dst),
                            bytes as f64,
                            move |eng| {
                                this2.inner.borrow_mut().used_bytes += bytes;
                                let mut r = remaining.borrow_mut();
                                *r -= 1;
                                if *r == 0 {
                                    drop(r);
                                    let cb =
                                        done.borrow_mut().take().expect("re-replication raced");
                                    cb(eng, lost2);
                                }
                            },
                        );
                    });
                },
            );
        }
    }

    /// Read one block to `client` (used by MapReduce with per-split reads).
    pub fn read_block(
        &self,
        engine: &mut Engine,
        client: NodeId,
        block: &BlockMeta,
        policy: StoragePolicy,
        done: impl FnOnce(&mut Engine) + 'static,
    ) {
        let bytes = block.size_bytes as f64 / policy.bandwidth_factor();
        let source = if block.replicas.contains(&client) {
            client
        } else {
            block.replicas[0]
        };
        let cluster = self.cluster.clone();
        if source == client {
            cluster.storage_io(engine, StorageTarget::LocalDisk(source), bytes, done);
        } else {
            let cluster2 = cluster.clone();
            cluster.storage_io(
                engine,
                StorageTarget::LocalDisk(source),
                bytes,
                move |eng| {
                    cluster2.net_transfer(eng, source, client, bytes, done);
                },
            );
        }
    }
}

/// Bytes a file occupies across all its replicas.
fn replica_bytes(meta: &FileMeta) -> u64 {
    meta.blocks
        .iter()
        .map(|b| b.size_bytes * b.replicas.len() as u64)
        .sum()
}

impl Inner {
    /// Split a new file into blocks of `block_size_bytes` and place their
    /// replicas. HDFS puts the first replica on the writer's node when the
    /// writer is a datanode; the rest (all of them for pre-loaded files
    /// with no writer) spread round-robin from the shared cursor, so input
    /// data spreads over the datanodes the way a distributed ingest would
    /// leave it.
    fn place(
        &mut self,
        path: &str,
        size_bytes: u64,
        policy: StoragePolicy,
        block_size_bytes: u64,
        writer: Option<NodeId>,
    ) -> FileMeta {
        let replication = self.config.replication as usize;
        let first = writer.filter(|w| self.datanodes.contains(w));
        let blocks = split_blocks(size_bytes, block_size_bytes)
            .into_iter()
            .map(|size| {
                let id = self.next_block_id;
                self.next_block_id += 1;
                let mut replicas = Vec::with_capacity(replication);
                replicas.extend(first);
                while replicas.len() < replication {
                    let cand = self.datanodes[self.placement_cursor % self.datanodes.len()];
                    self.placement_cursor += 1;
                    if !replicas.contains(&cand) {
                        replicas.push(cand);
                    }
                }
                BlockMeta {
                    id,
                    size_bytes: size,
                    replicas,
                }
            })
            .collect();
        FileMeta {
            path: path.into(),
            size_bytes,
            policy,
            blocks,
        }
    }

    /// Enter a placed file into the namespace and account its replicas.
    fn insert(&mut self, meta: FileMeta) {
        self.used_bytes += replica_bytes(&meta);
        self.files.insert(meta.path.clone(), meta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_hpc::MachineSpec;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn deploy_localhost(engine: &mut Engine) -> Hdfs {
        let cluster = Cluster::new(MachineSpec::localhost());
        let nodes: Vec<NodeId> = cluster.node_ids().collect();
        let out = Rc::new(RefCell::new(None));
        let o = out.clone();
        Hdfs::deploy(
            engine,
            cluster,
            nodes,
            HdfsConfig::default(),
            move |_, fs| {
                *o.borrow_mut() = Some(fs);
            },
        );
        engine.run();
        let fs = out.borrow_mut().take().expect("hdfs deployed");
        fs
    }

    #[test]
    fn deploy_takes_daemon_start_time() {
        let mut e = Engine::new(1);
        let _fs = deploy_localhost(&mut e);
        let t = e.now().as_secs_f64();
        // nn (~6 s) + max of 4 dn (~4-6 s) → roughly 8-14 s.
        assert!(t > 6.0 && t < 20.0, "{t}");
    }

    #[test]
    fn replication_capped_by_node_count() {
        let mut e = Engine::new(1);
        let cluster = Cluster::new(MachineSpec::localhost());
        let out = Rc::new(RefCell::new(None));
        let o = out.clone();
        Hdfs::deploy(
            &mut e,
            cluster,
            vec![NodeId(0), NodeId(1)],
            HdfsConfig::default(),
            move |_, fs| *o.borrow_mut() = Some(fs),
        );
        e.run();
        assert_eq!(out.borrow().as_ref().unwrap().replication(), 2);
    }

    #[test]
    fn synthetic_file_has_correct_blocks_and_replicas() {
        let mut e = Engine::new(1);
        let fs = deploy_localhost(&mut e);
        let meta = fs
            .create_synthetic("/data/in", 300 * 1024 * 1024, StoragePolicy::Default)
            .unwrap();
        assert_eq!(meta.blocks.len(), 3); // 128 + 128 + 44
        for b in &meta.blocks {
            assert_eq!(b.replicas.len(), 3);
            let mut r = b.replicas.clone();
            r.sort();
            r.dedup();
            assert_eq!(r.len(), 3, "replicas must be distinct");
        }
        assert!(fs.exists("/data/in"));
        assert_eq!(fs.used_bytes(), 3 * 300 * 1024 * 1024);
    }

    #[test]
    fn duplicate_create_rejected() {
        let mut e = Engine::new(1);
        let fs = deploy_localhost(&mut e);
        fs.create_synthetic("/x", 10, StoragePolicy::Default)
            .unwrap();
        assert!(matches!(
            fs.create_synthetic("/x", 10, StoragePolicy::Default),
            Err(HdfsError::AlreadyExists(_))
        ));
    }

    #[test]
    fn write_file_lands_first_replica_on_client() {
        let mut e = Engine::new(1);
        let fs = deploy_localhost(&mut e);
        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        fs.write_file(
            &mut e,
            NodeId(2),
            "/out",
            64 * 1024 * 1024,
            StoragePolicy::Default,
            move |eng, res| {
                *g.borrow_mut() = Some((eng.now(), res.unwrap()));
            },
        );
        e.run();
        let (t, meta) = got.borrow_mut().take().unwrap();
        assert_eq!(meta.blocks[0].replicas[0], NodeId(2));
        // 64 MB at 400 MB/s local + pipeline transfers: sub-second but > 0.
        assert!(t.as_secs_f64() > 0.1, "{t}");
        assert!(fs.exists("/out"));
    }

    #[test]
    fn write_duplicate_path_fails_async() {
        let mut e = Engine::new(1);
        let fs = deploy_localhost(&mut e);
        fs.create_synthetic("/dup", 10, StoragePolicy::Default)
            .unwrap();
        let failed = Rc::new(RefCell::new(false));
        let f = failed.clone();
        fs.write_file(
            &mut e,
            NodeId(0),
            "/dup",
            10,
            StoragePolicy::Default,
            move |_, res| {
                *f.borrow_mut() = matches!(res, Err(HdfsError::AlreadyExists(_)));
            },
        );
        e.run();
        assert!(*failed.borrow());
    }

    /// Virtual seconds `fs.read_block` takes to bring `block` to `client`.
    fn read_block_secs(
        e: &mut Engine,
        fs: &Hdfs,
        client: NodeId,
        block: &BlockMeta,
        policy: StoragePolicy,
    ) -> f64 {
        let took = Rc::new(RefCell::new(None));
        let t = took.clone();
        let start = e.now();
        fs.read_block(e, client, block, policy, move |eng| {
            *t.borrow_mut() = Some(eng.now().since(start).as_secs_f64());
        });
        e.run();
        took.take().expect("read completes")
    }

    #[test]
    fn local_read_is_faster_than_remote() {
        let mut e = Engine::new(1);
        let fs = deploy_localhost(&mut e);
        let meta = fs
            .create_synthetic("/data", 128 * 1024 * 1024, StoragePolicy::Default)
            .unwrap();
        let block = &meta.blocks[0];
        let holder = block.replicas[0];
        let remote = fs
            .datanodes()
            .into_iter()
            .find(|n| !block.replicas.contains(n))
            .expect("4 datanodes, 3 replicas");
        let t_local = read_block_secs(&mut e, &fs, holder, block, meta.policy);
        let t_remote = read_block_secs(&mut e, &fs, remote, block, meta.policy);
        assert!(
            t_remote > t_local,
            "remote {t_remote} must exceed local {t_local}"
        );
    }

    #[test]
    fn ssd_policy_reads_faster() {
        let mut e = Engine::new(1);
        let fs = deploy_localhost(&mut e);
        let mut times = Vec::new();
        for (path, policy) in [
            ("/hot", StoragePolicy::AllSsd),
            ("/cold", StoragePolicy::Archive),
        ] {
            let meta = fs
                .create_synthetic(path, 256 * 1024 * 1024, policy)
                .unwrap();
            let block = &meta.blocks[0];
            times.push(read_block_secs(
                &mut e,
                &fs,
                block.replicas[0],
                block,
                policy,
            ));
        }
        assert!(
            times[0] < times[1],
            "ssd {} vs archive {}",
            times[0],
            times[1]
        );
    }

    #[test]
    fn read_missing_file_errors() {
        let mut e = Engine::new(1);
        let fs = deploy_localhost(&mut e);
        // A read starts from the path's block locations (MapReduce splits
        // its input by them), so a missing path fails there.
        assert!(matches!(
            fs.block_locations("/nope"),
            Err(HdfsError::NotFound(_))
        ));
        assert!(matches!(fs.file_meta("/nope"), Err(HdfsError::NotFound(_))));
    }

    #[test]
    fn datanode_failure_rereplicates_blocks() {
        let mut e = Engine::new(1);
        let fs = deploy_localhost(&mut e);
        fs.create_synthetic("/data", 512 * 1024 * 1024, StoragePolicy::Default)
            .unwrap();
        let victim = fs.datanodes()[1];
        let lost = Rc::new(RefCell::new(None));
        let l = lost.clone();
        fs.fail_datanode(&mut e, victim, move |_, lost_blocks| {
            *l.borrow_mut() = Some(lost_blocks);
        });
        e.run();
        assert_eq!(
            lost.borrow().clone().unwrap().len(),
            0,
            "replication 3 → no loss"
        );
        // Every block is back at full replication, none on the dead node.
        for b in fs.block_locations("/data").unwrap() {
            assert_eq!(b.replicas.len(), 3, "{b:?}");
            assert!(!b.replicas.contains(&victim));
            let mut r = b.replicas.clone();
            r.sort();
            r.dedup();
            assert_eq!(r.len(), 3, "distinct replicas");
        }
        assert!(!fs.datanodes().contains(&victim));
    }

    #[test]
    fn single_replica_blocks_are_lost_on_failure() {
        let mut e = Engine::new(1);
        let cluster = Cluster::new(MachineSpec::localhost());
        let nodes: Vec<NodeId> = cluster.node_ids().collect();
        let fs = Hdfs::attach(
            cluster,
            nodes,
            HdfsConfig {
                replication: 1,
                ..HdfsConfig::default()
            },
        );
        let meta = fs
            .create_synthetic("/fragile", 256 * 1024 * 1024, StoragePolicy::Default)
            .unwrap();
        let victim = meta.blocks[0].replicas[0];
        let lost = Rc::new(RefCell::new(None));
        let l = lost.clone();
        fs.fail_datanode(&mut e, victim, move |_, lost_blocks| {
            *l.borrow_mut() = Some(lost_blocks);
        });
        e.run();
        let lost = lost.borrow().clone().unwrap();
        assert!(lost.contains(&meta.blocks[0].id), "{lost:?}");
    }

    #[test]
    fn block_locations_expose_locality() {
        let mut e = Engine::new(1);
        let fs = deploy_localhost(&mut e);
        fs.create_synthetic("/in", 512 * 1024 * 1024, StoragePolicy::Default)
            .unwrap();
        let locs = fs.block_locations("/in").unwrap();
        assert_eq!(locs.len(), 4);
        // Round-robin placement spreads blocks over all 4 nodes.
        let firsts: std::collections::BTreeSet<NodeId> =
            locs.iter().map(|b| b.replicas[0]).collect();
        assert!(firsts.len() >= 2, "placement should spread: {firsts:?}");
    }
}
