//! The native mini-RDD engine doing real analytics: word count and
//! K-Means — the Spark-side capabilities the Pilot layer provisions
//! (paper §III-D), here exercised directly.
//!
//! ```text
//! cargo run --release --example spark_rdd_analytics
//! ```

use hadoop_hpc::analytics::dataset::gaussian_blobs;
use hadoop_hpc::analytics::kmeans::kmeans_rdd;
use hadoop_hpc::spark::SparkContext;

/// Run `f` and return its result with the host time it took.
#[expect(
    clippy::disallowed_methods,
    reason = "the example reports host wall time"
)]
fn timed<T>(f: impl FnOnce() -> T) -> (T, std::time::Duration) {
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed())
}

fn main() {
    let sc = SparkContext::new(8);

    // ---- word count ----
    let corpus: Vec<&str> = vec![
        "the pilot abstraction unifies hpc and hadoop",
        "the yarn scheduler allocates containers",
        "the spark engine caches rdd partitions",
        "hadoop on hpc and hpc on hadoop",
    ];
    let counts = sc
        .parallelize(corpus, 4)
        .flat_map(|line| line.split(' ').map(str::to_owned).collect::<Vec<_>>())
        .map(|w| (w, 1u64))
        .reduce_by_key(|a, b| a + b)
        .collect_as_map();
    let mut top: Vec<(&String, &u64)> = counts.iter().collect();
    top.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    println!("word count (top 5 of {}):", counts.len());
    for (w, c) in top.iter().take(5) {
        println!("  {w:<10} {c}");
    }

    // ---- K-Means on the RDD engine ----
    let points = gaussian_blobs(50_000, 8, 1.5, 42);
    let (result, took) = timed(|| kmeans_rdd(points, 8, 5, 8));
    println!(
        "\nK-Means (50k pts, k=8, 5 iters on 8 partitions): cost {:.1} in {took:?}",
        result.cost
    );

    // ---- caching effect ----
    let big: Vec<u64> = (0..2_000_000).collect();
    let rdd = sc
        .parallelize(big, 8)
        .map(|x| {
            // Artificially expensive map.
            let mut h = x;
            for _ in 0..32 {
                h = h
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
            h
        })
        .cache();
    let sum = || rdd.fold(0u64, |a, x| a.wrapping_add(x), |a, b| a.wrapping_add(b));
    let (s1, cold) = timed(sum);
    let (s2, warm) = timed(sum);
    assert_eq!(s1, s2);
    println!("\ncache(): cold pass {cold:?}, warm pass {warm:?}");
}
