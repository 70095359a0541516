//! Micro-benchmarks of the performance-critical pieces: the event engine,
//! the fair-share bandwidth model, YARN allocation, the K-Means kernel and
//! the mini-RDD engine.
//!
//! Self-timed (median of repeated runs after warmup) so the workspace
//! carries no external benchmark framework. Run with `cargo bench`.

use std::time::Instant;

use rp_analytics::dataset::gaussian_blobs;
use rp_analytics::kmeans::{kmeans_mapreduce, kmeans_rdd, lloyd};
use rp_hpc::{Cluster, MachineSpec, NodeId};
use rp_sim::{Engine, FairLink, SimDuration};
use rp_spark::SparkContext;
use rp_yarn::{ResourceRequest, YarnCluster, YarnConfig};

/// Run `f` a few times after warmup and report the median wall time.
#[expect(
    clippy::disallowed_methods,
    reason = "a micro-benchmark measures host time"
)]
fn bench(name: &str, mut f: impl FnMut()) {
    const WARMUP: usize = 2;
    const SAMPLES: usize = 9;
    for _ in 0..WARMUP {
        f();
    }
    let mut times: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = times[SAMPLES / 2];
    let (lo, hi) = (times[0], times[SAMPLES - 1]);
    println!(
        "{name:<36} {:>10.3} ms  (min {:.3} / max {:.3})",
        median * 1e3,
        lo * 1e3,
        hi * 1e3
    );
}

fn bench_engine() {
    bench("engine/10k_chained_events", || {
        let mut e = Engine::new(1);
        fn chain(e: &mut Engine, left: u32) {
            if left > 0 {
                e.schedule_in(SimDuration::from_micros(10), move |e| chain(e, left - 1));
            }
        }
        chain(&mut e, 10_000);
        e.run();
    });
    bench("engine/10k_interleaved_events", || {
        let mut e = Engine::new(1);
        for i in 0..10_000u64 {
            e.schedule_in(SimDuration::from_micros(i % 997), |_| {});
        }
        e.run();
    });
}

fn bench_fairlink() {
    bench("fairlink/200_concurrent_flows", || {
        let mut e = Engine::new(1);
        let link = FairLink::new("bench", 1e9);
        for i in 0..200 {
            link.transfer(&mut e, 1e6 + i as f64 * 1e4, f64::INFINITY, |_| {});
        }
        e.run();
    });
}

fn bench_yarn() {
    bench("yarn/64_container_apps", || {
        let mut e = Engine::new(1);
        let cluster = Cluster::new(MachineSpec::localhost());
        let nodes: Vec<NodeId> = cluster.node_ids().collect();
        let yarn = YarnCluster::start(&mut e, &cluster, &nodes, YarnConfig::test_profile());
        for i in 0..64 {
            yarn.submit_app(
                &mut e,
                format!("a{i}"),
                ResourceRequest::new(1, 1024),
                move |eng, am| {
                    let am2 = am.clone();
                    am.request_container(eng, ResourceRequest::new(1, 1024), move |eng, cont| {
                        am2.release_container(eng, cont.id);
                        am2.finish(eng);
                    });
                },
            );
        }
        e.run();
    });
}

fn bench_kmeans() {
    let pts = gaussian_blobs(20_000, 16, 2.0, 42);
    bench("kmeans/native_20k_k16_1iter", || {
        lloyd(&pts, 16, 1);
    });
    let small = gaussian_blobs(5_000, 8, 2.0, 42);
    bench("kmeans/mapreduce_5k_k8_1iter", || {
        kmeans_mapreduce(&small, 8, 1, 4, 2);
    });
    bench("kmeans/rdd_5k_k8_1iter", || {
        kmeans_rdd(small.clone(), 8, 1, 4);
    });
}

fn bench_rdd() {
    let data: Vec<(u64, u64)> = (0..100_000).map(|i| (i % 512, 1)).collect();
    bench("rdd/reduce_by_key_100k", || {
        let sc = SparkContext::new(8);
        sc.parallelize(data.clone(), 8)
            .reduce_by_key(|a, b| a + b)
            .collect()
            .len();
    });
}

fn main() {
    bench_engine();
    bench_fairlink();
    bench_yarn();
    bench_kmeans();
    bench_rdd();
}
