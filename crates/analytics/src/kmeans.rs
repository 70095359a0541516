//! K-Means: the paper's benchmark workload, in four shapes.
//!
//! This module holds the *native* parallel Lloyd kernel (real compute,
//! scoped threads) plus MapReduce and RDD formulations; the simulated
//! pilot-orchestrated variants used for Fig. 6 live in
//! [`crate::scenarios`].
//!
//! Every formulation assigns a point with [`nearest`]. Its tie rule: a
//! point equidistant from several centroids goes to the lowest-indexed
//! one, so all four shapes agree on every assignment.

use std::sync::Arc;

use rp_mapreduce::{run_local, Emitter, Mapper, Reducer};
use rp_sim::par::{default_threads, even_ranges, parallel_map};
use rp_spark::SparkContext;

use crate::dataset::Point3;

/// Squared Euclidean distance.
#[inline]
pub fn dist2(a: &Point3, b: &Point3) -> f64 {
    (a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)
}

/// Independent running minima in [`nearest`].
const LANES: usize = 4;

/// Index of the nearest centroid: the lowest index among those at the
/// minimum distance, and 0 when no distance is below infinity (an empty
/// slice, or only infinite or NaN distances).
///
/// Centroid `i` goes to lane `i % LANES`, and each lane keeps its own
/// minimum, so the compares do not form one serial chain. A lane keeps the
/// first index that reaches its minimum, and the merge breaks equal
/// distances by the lower index. The result is the one a single
/// `if d < best` scan from index 0 returns.
#[inline]
pub fn nearest(p: &Point3, centroids: &[Point3]) -> usize {
    let mut best_d = [f64::INFINITY; LANES];
    let mut best_i = [0usize; LANES];
    let blocks = centroids.chunks_exact(LANES);
    let tail = blocks.remainder();
    for (b, block) in blocks.enumerate() {
        for lane in 0..LANES {
            let d = dist2(p, &block[lane]);
            let lt = d < best_d[lane];
            best_d[lane] = if lt { d } else { best_d[lane] };
            best_i[lane] = if lt { b * LANES + lane } else { best_i[lane] };
        }
    }
    let base = centroids.len() - tail.len();
    for (lane, c) in tail.iter().enumerate() {
        let d = dist2(p, c);
        if d < best_d[lane] {
            best_d[lane] = d;
            best_i[lane] = base + lane;
        }
    }
    let (mut best, mut min) = (best_i[0], best_d[0]);
    for lane in 1..LANES {
        let (d, i) = (best_d[lane], best_i[lane]);
        if d < min || (d == min && i < best) {
            best = i;
            min = d;
        }
    }
    best
}

/// Result of a K-Means run.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    pub centroids: Vec<Point3>,
    /// Within-cluster sum of squares after the final iteration.
    pub cost: f64,
    pub iterations: u32,
}

/// Deterministic initial centroids: the first `k` points (the standard
/// Forgy-on-prefix choice; deterministic so every formulation agrees).
pub fn init_centroids(points: &[Point3], k: usize) -> Vec<Point3> {
    assert!(k >= 1 && k <= points.len(), "k={k} of {}", points.len());
    points[..k].to_vec()
}

/// Native parallel Lloyd iterations (the reference implementation).
pub fn lloyd(points: &[Point3], k: usize, iterations: u32) -> KMeansResult {
    let mut centroids = init_centroids(points, k);
    let threads = default_threads(points.len() / 4096 + 1);
    let chunks: Vec<&[Point3]> = points
        .chunks(points.len().div_ceil(threads).max(1))
        .collect();
    for _ in 0..iterations {
        // Assignment + partial sums per chunk, in parallel.
        let partials: Vec<(Vec<[f64; 4]>,)> = parallel_map(&chunks, threads, |chunk| {
            let mut acc = vec![[0.0f64; 4]; k];
            for p in chunk.iter() {
                let c = nearest(p, &centroids);
                acc[c][0] += p[0];
                acc[c][1] += p[1];
                acc[c][2] += p[2];
                acc[c][3] += 1.0;
            }
            (acc,)
        });
        // Merge and update.
        let mut acc = vec![[0.0f64; 4]; k];
        for (part,) in partials {
            for (a, b) in acc.iter_mut().zip(part) {
                a[0] += b[0];
                a[1] += b[1];
                a[2] += b[2];
                a[3] += b[3];
            }
        }
        for (c, a) in centroids.iter_mut().zip(&acc) {
            if a[3] > 0.0 {
                *c = [a[0] / a[3], a[1] / a[3], a[2] / a[3]];
            }
        }
    }
    let cost = cost_of(points, &centroids);
    KMeansResult {
        centroids,
        cost,
        iterations,
    }
}

/// Within-cluster sum of squares (parallel).
pub fn cost_of(points: &[Point3], centroids: &[Point3]) -> f64 {
    let threads = default_threads(points.len() / 4096 + 1);
    let chunks: Vec<&[Point3]> = points
        .chunks(points.len().div_ceil(threads).max(1))
        .collect();
    parallel_map(&chunks, threads, |chunk| {
        chunk
            .iter()
            .map(|p| dist2(p, &centroids[nearest(p, centroids)]))
            .sum::<f64>()
    })
    .into_iter()
    .sum()
}

// ---- MapReduce formulation ----

/// Map: emit (nearest-centroid, (sum, count)) per point. Emitting one pair
/// per point (no in-map aggregation) makes shuffle volume ∝ points, which
/// is exactly the property the paper's Fig. 6 scenarios vary.
pub struct KMeansMapper {
    pub centroids: Vec<Point3>,
}

impl Mapper<u64, Point3, usize, [f64; 4]> for KMeansMapper {
    fn map(&self, _k: u64, p: Point3, e: &mut Emitter<usize, [f64; 4]>) {
        let c = nearest(&p, &self.centroids);
        e.emit(c, [p[0], p[1], p[2], 1.0]);
    }
}

/// Reduce: average the partial sums into the new centroid.
pub struct KMeansReducer;

impl Reducer<usize, [f64; 4], (usize, Point3)> for KMeansReducer {
    fn reduce(&self, key: usize, values: Vec<[f64; 4]>, out: &mut Vec<(usize, Point3)>) {
        let mut acc = [0.0f64; 4];
        for v in values {
            acc[0] += v[0];
            acc[1] += v[1];
            acc[2] += v[2];
            acc[3] += v[3];
        }
        if acc[3] > 0.0 {
            out.push((key, [acc[0] / acc[3], acc[1] / acc[3], acc[2] / acc[3]]));
        }
    }
}

/// K-Means via the native MapReduce runner (`iterations` chained jobs).
pub fn kmeans_mapreduce(
    points: &[Point3],
    k: usize,
    iterations: u32,
    map_tasks: usize,
    reducers: usize,
) -> KMeansResult {
    let mut centroids = init_centroids(points, k);
    for _ in 0..iterations {
        let splits: Vec<Vec<(u64, Point3)>> = even_ranges(points.len(), map_tasks)
            .into_iter()
            .map(|r| r.map(|i| (i as u64, points[i])).collect())
            .collect();
        let mapper = KMeansMapper {
            centroids: centroids.clone(),
        };
        let out = run_local(splits, &mapper, None, &KMeansReducer, reducers);
        for (idx, c) in out.into_iter().flatten() {
            centroids[idx] = c;
        }
    }
    let cost = cost_of(points, &centroids);
    KMeansResult {
        centroids,
        cost,
        iterations,
    }
}

// ---- Spark RDD formulation ----

/// K-Means on the mini-RDD engine (cached input, `reduce_by_key` shuffle).
pub fn kmeans_rdd(
    points: Vec<Point3>,
    k: usize,
    iterations: u32,
    partitions: usize,
) -> KMeansResult {
    // The RDD shares `points` rather than copying them: the cost at the
    // end reads the same buffer.
    let points = Arc::new(points);
    let sc = SparkContext::new(partitions);
    let rdd = sc.parallelize_shared(points.clone(), partitions).cache();
    let mut centroids = init_centroids(&points, k);
    for _ in 0..iterations {
        let cents = centroids.clone();
        let sums = rdd
            .map(move |p| {
                let c = nearest(&p, &cents);
                (c, [p[0], p[1], p[2], 1.0f64])
            })
            .reduce_by_key(|a, b| [a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]])
            .collect_as_map();
        for (idx, acc) in sums {
            if acc[3] > 0.0 {
                centroids[idx] = [acc[0] / acc[3], acc[1] / acc[3], acc[2] / acc[3]];
            }
        }
    }
    let cost = cost_of(&points, &centroids);
    KMeansResult {
        centroids,
        cost,
        iterations,
    }
}

/// Sequential reference (oracle for the parallel formulations).
pub fn lloyd_sequential(points: &[Point3], k: usize, iterations: u32) -> KMeansResult {
    let mut centroids = init_centroids(points, k);
    for _ in 0..iterations {
        let mut acc = vec![[0.0f64; 4]; k];
        for p in points {
            let c = nearest(p, &centroids);
            acc[c][0] += p[0];
            acc[c][1] += p[1];
            acc[c][2] += p[2];
            acc[c][3] += 1.0;
        }
        for (c, a) in centroids.iter_mut().zip(&acc) {
            if a[3] > 0.0 {
                *c = [a[0] / a[3], a[1] / a[3], a[2] / a[3]];
            }
        }
    }
    let cost = points
        .iter()
        .map(|p| dist2(p, &centroids[nearest(p, &centroids)]))
        .sum();
    KMeansResult {
        centroids,
        cost,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::gaussian_blobs;
    use rp_sim::SimRng;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs()))
    }

    /// Equal within 1e-9 relative, coordinate by coordinate: the bound
    /// the end-to-end benchmark checks every formulation against.
    fn assert_centroids_match(got: &[Point3], want: &[Point3]) {
        assert_eq!(got.len(), want.len());
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            for d in 0..3 {
                let (x, y) = (a[d], b[d]);
                assert!(
                    (x - y).abs() <= 1e-9 * x.abs().max(y.abs()),
                    "centroid {i}: {a:?} vs {b:?}"
                );
            }
        }
    }

    /// The scan `nearest` must agree with: one serial chain from index 0.
    fn scalar_argmin(p: &Point3, centroids: &[Point3]) -> usize {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (i, c) in centroids.iter().enumerate() {
            let d = dist2(p, c);
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }

    #[test]
    fn nearest_matches_scalar_argmin() {
        // Small integer coordinates make exact ties common: equidistant
        // points, and (by the copy below) duplicate centroids. Half-integer
        // points sit midway between grid centroids.
        let mut rng = SimRng::new(0x4EA7);
        let grid = |rng: &mut SimRng, step: f64| -> Point3 {
            [0, 1, 2].map(|_| (rng.uniform_u64(0, 8) as f64 - 4.0) * step)
        };
        for k in [1, 2, 3, 4, 5, 31, 32, 33] {
            for case in 0..64 {
                let mut cs: Vec<Point3> = (0..k).map(|_| grid(&mut rng, 1.0)).collect();
                if k > 1 {
                    let from = rng.uniform_u64(0, k as u64 - 1) as usize;
                    let to = rng.uniform_u64(0, k as u64 - 1) as usize;
                    cs[to] = cs[from];
                }
                for _ in 0..32 {
                    let p = grid(&mut rng, 0.5);
                    assert_eq!(
                        nearest(&p, &cs),
                        scalar_argmin(&p, &cs),
                        "k {k} case {case} p {p:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn nearest_breaks_ties_by_the_lowest_index() {
        let far = [100.0, 100.0, 100.0];
        let near = [1.0, 0.0, 0.0];
        let origin = [0.0, 0.0, 0.0];
        // Index 5 (lane 1) and index 8 (lane 0) tie: the merge must pick
        // 5 although lane 0 is merged first.
        let mut cs = vec![far; 33];
        cs[5] = near;
        cs[8] = [0.0, -1.0, 0.0];
        assert_eq!(nearest(&origin, &cs), 5);
        // A tie inside one lane keeps the lane's first index; the tail
        // (index 32) ties too and loses.
        let mut cs = vec![far; 33];
        for i in [6, 10, 32] {
            cs[i] = near;
        }
        assert_eq!(nearest(&origin, &cs), 6);
        // All duplicates: index 0.
        assert_eq!(nearest(&origin, &[near; 7]), 0);
        // No distance below infinity: index 0, as the serial scan gives.
        assert_eq!(nearest(&origin, &[]), 0);
        let nan = [f64::NAN, 0.0, 0.0];
        assert_eq!(nearest(&nan, &[near; 5]), 0);
        assert_eq!(nearest(&origin, &[[f64::INFINITY, 0.0, 0.0]; 6]), 0);
    }

    #[test]
    fn parallel_matches_sequential() {
        let pts = gaussian_blobs(5_000, 7, 2.0, 42);
        let seq = lloyd_sequential(&pts, 7, 4);
        let par = lloyd(&pts, 7, 4);
        assert!(close(seq.cost, par.cost), "{} vs {}", seq.cost, par.cost);
        assert_centroids_match(&par.centroids, &seq.centroids);
    }

    #[test]
    fn mapreduce_matches_sequential() {
        let pts = gaussian_blobs(3_000, 5, 2.0, 7);
        let seq = lloyd_sequential(&pts, 5, 3);
        let mr = kmeans_mapreduce(&pts, 5, 3, 6, 3);
        assert!(close(seq.cost, mr.cost), "{} vs {}", seq.cost, mr.cost);
        assert_centroids_match(&mr.centroids, &seq.centroids);
    }

    #[test]
    fn rdd_matches_sequential() {
        let pts = gaussian_blobs(3_000, 5, 2.0, 9);
        let seq = lloyd_sequential(&pts, 5, 3);
        let rdd = kmeans_rdd(pts, 5, 3, 8);
        assert!(close(seq.cost, rdd.cost), "{} vs {}", seq.cost, rdd.cost);
        assert_centroids_match(&rdd.centroids, &seq.centroids);
    }

    #[test]
    fn cost_decreases_over_iterations() {
        let pts = gaussian_blobs(4_000, 6, 3.0, 11);
        let mut last = f64::INFINITY;
        for it in 1..=5 {
            let r = lloyd(&pts, 6, it);
            assert!(r.cost <= last + 1e-9, "iteration {it}: {} > {last}", r.cost);
            last = r.cost;
        }
    }

    #[test]
    fn well_separated_blobs_recovered() {
        let pts = gaussian_blobs(2_000, 4, 0.5, 13);
        let r = lloyd(&pts, 4, 10);
        // Mean within-cluster distance should be ~spread² × 3 dims.
        let mean_cost = r.cost / pts.len() as f64;
        assert!(mean_cost < 2.0, "{mean_cost}");
    }

    #[test]
    fn k_equals_one_gives_mean() {
        let pts = vec![[0.0, 0.0, 0.0], [2.0, 2.0, 2.0], [4.0, 4.0, 4.0]];
        let r = lloyd(&pts, 1, 3);
        for d in 0..3 {
            assert!(close(r.centroids[0][d], 2.0));
        }
    }

    #[test]
    #[should_panic]
    fn k_larger_than_points_panics() {
        let pts = vec![[0.0, 0.0, 0.0]];
        let _ = lloyd(&pts, 2, 1);
    }
}
