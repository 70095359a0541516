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
use rp_sim::par::{default_threads, even_ranges, parallel_map, parallel_map_mut};
use rp_spark::SparkContext;

use crate::dataset::Point3;

/// Squared Euclidean distance.
#[inline]
pub fn dist2(a: &Point3, b: &Point3) -> f64 {
    (a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)
}

/// Independent running minima in [`scan`].
const LANES: usize = 4;

/// Index of the nearest centroid: the lowest index among those at the
/// minimum distance, and 0 when no distance is below infinity (an empty
/// slice, or only infinite or NaN distances).
#[inline]
pub fn nearest(p: &Point3, centroids: &[Point3]) -> usize {
    scan::<false>(p, centroids).0
}

/// [`nearest`]'s index, its squared distance (infinite when no distance is
/// below infinity), and (when `RUNNER_UP`) the runner-up: the smallest
/// squared distance over every other index, so a duplicate of the winning
/// centroid makes it equal to the best. NaN distances never count, and no
/// other index leaves it infinite.
///
/// Centroid `i` goes to lane `i % LANES`, and each lane keeps its own
/// minimum, so the compares do not form one serial chain. A lane keeps the
/// first index that reaches its minimum, and the merge breaks equal
/// distances by the lower index. The result is the one a single
/// `if d < best` scan from index 0 returns.
#[inline(always)]
fn scan<const RUNNER_UP: bool>(p: &Point3, centroids: &[Point3]) -> (usize, f64, f64) {
    // `u32` indices keep the runner-up scan's selects in registers: on a
    // 2-vCPU x86-64 VM at k = 32 it costs ~1.15x `nearest`, ~1.5x with
    // `usize` indices.
    assert!(
        u32::try_from(centroids.len()).is_ok(),
        "more than u32::MAX centroids"
    );
    let mut best_d = [f64::INFINITY; LANES];
    let mut best_i = [0u32; LANES];
    // Each lane's smallest distance other than its own minimum's.
    let mut next_d = [f64::INFINITY; LANES];
    let mut visit = |lane: usize, i: usize, d: f64| {
        let i = i as u32;
        let lt = d < best_d[lane];
        if RUNNER_UP {
            // min(next, max(best, d)) as compare-selects: NaN never wins.
            let loser = if best_d[lane] > d { best_d[lane] } else { d };
            next_d[lane] = if loser < next_d[lane] {
                loser
            } else {
                next_d[lane]
            };
        }
        best_d[lane] = if lt { d } else { best_d[lane] };
        best_i[lane] = if lt { i } else { best_i[lane] };
    };
    let (blocks, tail) = centroids.as_chunks::<LANES>();
    for (b, block) in blocks.iter().enumerate() {
        for (lane, c) in block.iter().enumerate() {
            visit(lane, b * LANES + lane, dist2(p, c));
        }
    }
    let base = centroids.len() - tail.len();
    for (lane, c) in tail.iter().enumerate() {
        visit(lane, base + lane, dist2(p, c));
    }
    let (mut win, mut best, mut min) = (0, best_i[0], best_d[0]);
    for lane in 1..LANES {
        let (d, i) = (best_d[lane], best_i[lane]);
        if d < min || (d == min && i < best) {
            (win, best, min) = (lane, i, d);
        }
    }
    let mut runner_up = f64::INFINITY;
    if RUNNER_UP {
        for lane in 0..LANES {
            let d = if lane == win {
                next_d[lane]
            } else {
                best_d[lane]
            };
            runner_up = runner_up.min(d);
        }
    }
    (best as usize, min, runner_up)
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

/// Relative slack by which every bound update widens its bound, at the
/// scale of that update's own operands: far above the ≤ ~1e-15 relative
/// rounding of [`dist2`], `sqrt` and the update, so rounding (even the
/// cancellation in `lower - shift`) never makes a bound false, and a point
/// that passes [`Bound::nearest`]'s strict test is strictly nearer its
/// centroid than any other by the distances [`nearest`] computes.
const SLACK: f64 = 1e-9;

/// Absolute widening added to every bound update on top of [`SLACK`]. A
/// squared distance below `f64::MIN_POSITIVE` rounds with an absolute
/// error (up to a few times 5e-324), which is up to ~4e-162 in the
/// distance, and a shift below ~1.5e-162 computes as 0; this term covers
/// both with room to spare, and is far below any distance where it could
/// cost a rescan.
const ABS_SLACK: f64 = 1e-150;

/// One point's Hamerly bounds (Hamerly, "Making k-means even faster", SDM
/// 2010): its centroid, an upper bound on its distance to that centroid,
/// and a lower bound on its distance to every other one.
#[derive(Clone, Copy)]
struct Bound {
    upper: f64,
    lower: f64,
    centroid: u32,
}

impl Bound {
    /// Bounds that fail the test, so a point's first pass scans.
    const UNKNOWN: Bound = Bound {
        upper: f64::INFINITY,
        lower: 0.0,
        centroid: 0,
    };

    /// `p`'s centroid after the centroids moved by `shifts` (per centroid:
    /// its own shift, and the largest shift among the others): always
    /// [`nearest`]'s answer. The bounds widen by the shifts, by [`SLACK`]
    /// and by [`ABS_SLACK`]; the point keeps its centroid while its upper bound stays
    /// strictly below its lower bound, and is rescanned otherwise, which
    /// refreshes both bounds. A tie, a NaN or an infinite bound always
    /// fails the test.
    #[inline]
    fn nearest(&mut self, p: &Point3, centroids: &[Point3], shifts: &[[f64; 2]]) -> usize {
        let a = self.centroid as usize;
        let [own, other] = shifts[a];
        let upper = (self.upper + own) * (1.0 + SLACK) + ABS_SLACK;
        let lower = self.lower * (1.0 - SLACK) - other * (1.0 + SLACK) - ABS_SLACK;
        if upper < lower {
            (self.upper, self.lower) = (upper, lower);
            return a;
        }
        let (c, best, runner_up) = scan::<true>(p, centroids);
        *self = Bound {
            upper: best.sqrt() * (1.0 + SLACK) + ABS_SLACK,
            lower: runner_up.sqrt() * (1.0 - SLACK) - ABS_SLACK,
            centroid: c as u32,
        };
        c
    }
}

/// Per centroid, how far it moved from `old` to `new`, and the largest
/// move among the other centroids. A NaN move counts as infinite.
fn centroid_shifts(old: &[Point3], new: &[Point3]) -> Vec<[f64; 2]> {
    let moved: Vec<f64> = old
        .iter()
        .zip(new)
        .map(|(a, b)| {
            let d = dist2(a, b).sqrt();
            if d.is_nan() {
                f64::INFINITY
            } else {
                d
            }
        })
        .collect();
    // The two largest moves, and the index of the largest.
    let (mut first, mut second, mut arg) = (0.0, 0.0, usize::MAX);
    for (j, &d) in moved.iter().enumerate() {
        if d > first {
            (second, first, arg) = (first, d, j);
        } else if d > second {
            second = d;
        }
    }
    moved
        .iter()
        .enumerate()
        .map(|(j, &d)| [d, if j == arg { second } else { first }])
        .collect()
}

/// The worker count for `points`, and the length of the chunks [`lloyd`]
/// and [`cost_of`] cut them into, one chunk per worker.
fn chunking(points: &[Point3]) -> (usize, usize) {
    let threads = default_threads(points.len() / 4096 + 1);
    (threads, points.len().div_ceil(threads).max(1))
}

/// Native parallel Lloyd iterations (the reference implementation).
///
/// Each point keeps distance bounds across the iterations and the final
/// cost pass, so it is rescanned only when a centroid may have come closer
/// than its own. The result is bit-identical to a full scan per pass:
/// every point gets [`nearest`]'s centroid, and each chunk sums its points
/// in order, as [`cost_of`] does. The bounds take 24 bytes per point, in
/// one block that is freed at return.
pub fn lloyd(points: &[Point3], k: usize, iterations: u32) -> KMeansResult {
    let mut centroids = init_centroids(points, k);
    let (threads, len) = chunking(points);
    let mut bounds = vec![Bound::UNKNOWN; points.len()];
    let mut chunks: Vec<(&[Point3], &mut [Bound])> =
        points.chunks(len).zip(bounds.chunks_mut(len)).collect();
    let mut shifts = vec![[0.0; 2]; k];
    for _ in 0..iterations {
        // Assignment + partial sums per chunk, in parallel.
        let partials = parallel_map_mut(&mut chunks, threads, |(chunk, bounds)| {
            let mut acc = vec![[0.0f64; 4]; k];
            for (p, b) in chunk.iter().zip(bounds.iter_mut()) {
                let c = b.nearest(p, &centroids, &shifts);
                acc[c][0] += p[0];
                acc[c][1] += p[1];
                acc[c][2] += p[2];
                acc[c][3] += 1.0;
            }
            acc
        });
        // Merge and update.
        let mut acc = vec![[0.0f64; 4]; k];
        for part in partials {
            for (a, b) in acc.iter_mut().zip(part) {
                a[0] += b[0];
                a[1] += b[1];
                a[2] += b[2];
                a[3] += b[3];
            }
        }
        let old = centroids.clone();
        for (c, a) in centroids.iter_mut().zip(&acc) {
            if a[3] > 0.0 {
                *c = [a[0] / a[3], a[1] / a[3], a[2] / a[3]];
            }
        }
        shifts = centroid_shifts(&old, &centroids);
    }
    let cost = parallel_map_mut(&mut chunks, threads, |(chunk, bounds)| {
        chunk
            .iter()
            .zip(bounds.iter_mut())
            .map(|(p, b)| dist2(p, &centroids[b.nearest(p, &centroids, &shifts)]))
            .sum::<f64>()
    })
    .into_iter()
    .sum();
    KMeansResult {
        centroids,
        cost,
        iterations,
    }
}

/// Within-cluster sum of squares (parallel).
pub fn cost_of(points: &[Point3], centroids: &[Point3]) -> f64 {
    let (threads, len) = chunking(points);
    let chunks: Vec<&[Point3]> = points.chunks(len).collect();
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
        let out = run_local(splits, &mapper, &KMeansReducer, reducers);
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

    /// The runner-up [`scan`] must report: the smallest distance at any
    /// index but `scalar_argmin`'s, by the same `<` (so NaN never counts).
    fn scalar_runner_up(p: &Point3, centroids: &[Point3]) -> f64 {
        let win = scalar_argmin(p, centroids);
        let mut best_d = f64::INFINITY;
        for (i, c) in centroids.iter().enumerate() {
            let d = dist2(p, c);
            if i != win && d < best_d {
                best_d = d;
            }
        }
        best_d
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
                    let want = scalar_argmin(&p, &cs);
                    let (i, d, runner_up) = scan::<true>(&p, &cs);
                    assert_eq!(nearest(&p, &cs), want, "k {k} case {case} p {p:?}");
                    assert_eq!(i, want, "k {k} case {case} p {p:?}");
                    assert_eq!(d.to_bits(), dist2(&p, &cs[want]).to_bits());
                    assert_eq!(
                        runner_up.to_bits(),
                        scalar_runner_up(&p, &cs).to_bits(),
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
        // All duplicates: index 0, and a runner-up at the same distance.
        assert_eq!(nearest(&origin, &[near; 7]), 0);
        assert_eq!(scan::<true>(&origin, &[near; 7]), (0, 1.0, 1.0));
        // One centroid: no runner-up.
        assert_eq!(scan::<true>(&origin, &[near]), (0, 1.0, f64::INFINITY));
        // No distance below infinity: index 0, as the serial scan gives.
        assert_eq!(nearest(&origin, &[]), 0);
        let nan = [f64::NAN, 0.0, 0.0];
        assert_eq!(nearest(&nan, &[near; 5]), 0);
        assert_eq!(nearest(&origin, &[[f64::INFINITY, 0.0, 0.0]; 6]), 0);
        // A NaN centroid is never the runner-up.
        let (i, _, runner_up) = scan::<true>(&origin, &[near, [f64::NAN; 3], far]);
        assert_eq!((i, runner_up), (0, dist2(&origin, &far)));
    }

    /// [`lloyd`] without bounds: a full [`nearest`] scan of every point in
    /// every pass, over `lloyd`'s chunks and in its summation order.
    fn brute_lloyd(points: &[Point3], k: usize, iterations: u32) -> KMeansResult {
        let mut centroids = init_centroids(points, k);
        let (threads, len) = chunking(points);
        let chunks: Vec<&[Point3]> = points.chunks(len).collect();
        for _ in 0..iterations {
            let partials = parallel_map(&chunks, threads, |chunk| {
                let mut acc = vec![[0.0f64; 4]; k];
                for p in chunk.iter() {
                    let c = nearest(p, &centroids);
                    acc[c][0] += p[0];
                    acc[c][1] += p[1];
                    acc[c][2] += p[2];
                    acc[c][3] += 1.0;
                }
                acc
            });
            let mut acc = vec![[0.0f64; 4]; k];
            for part in partials {
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

    /// `lloyd` and [`brute_lloyd`] agree to the bit, and the brute-force
    /// result is returned for further checks.
    fn assert_bit_identical(
        points: &[Point3],
        k: usize,
        iterations: u32,
        what: &str,
    ) -> KMeansResult {
        let (got, want) = (
            lloyd(points, k, iterations),
            brute_lloyd(points, k, iterations),
        );
        let bits = |cs: &[Point3]| cs.iter().map(|c| c.map(f64::to_bits)).collect::<Vec<_>>();
        assert_eq!(
            bits(&got.centroids),
            bits(&want.centroids),
            "{what}: centroids"
        );
        assert_eq!(
            got.cost.to_bits(),
            want.cost.to_bits(),
            "{what}: cost {} vs {}",
            got.cost,
            want.cost
        );
        want
    }

    const KS: [usize; 8] = [1, 2, 3, 4, 5, 31, 32, 33];

    #[test]
    fn lloyd_is_bit_identical_to_brute_force_on_blobs() {
        // Blob centres are ~60–200 apart, so a spread of 100 overlaps
        // them and points switch clusters from one iteration to the next.
        for k in KS {
            for (spread, what) in [(0.5, "separated"), (100.0, "overlapping")] {
                let pts = gaussian_blobs(4_500, k, spread, 17 + k as u64);
                for iterations in [0, 5] {
                    assert_bit_identical(
                        &pts,
                        k,
                        iterations,
                        &format!("{what} k {k} it {iterations}"),
                    );
                }
            }
        }
    }

    #[test]
    fn lloyd_is_bit_identical_on_ties_duplicates_and_empty_clusters() {
        // Integer and half-integer grid points: exact ties everywhere, and
        // the first k points (the initial centroids) repeat grid values.
        let mut rng = SimRng::new(0x71E5);
        let mut pts: Vec<Point3> = (0..4_500)
            .map(|_| [0, 1, 2].map(|_| (rng.uniform_u64(0, 8) as f64 - 4.0) * 0.5))
            .collect();
        // Centroid 1 starts as a duplicate of centroid 0, so the first
        // iteration gives every one of its points to 0 and leaves cluster 1
        // empty.
        pts[1] = pts[0];
        for k in KS.into_iter().filter(|&k| k >= 2) {
            let first = assert_bit_identical(&pts, k, 1, &format!("grid k {k}"));
            assert_eq!(first.centroids[1], pts[1], "k {k}: cluster 1 is not empty");
            assert_bit_identical(&pts, k, 5, &format!("grid k {k}"));
        }
    }

    #[test]
    fn lloyd_is_bit_identical_with_nan_and_infinite_points() {
        let base = gaussian_blobs(4_500, 8, 2.0, 23);
        let inf = f64::INFINITY;
        let cases: [(&str, &[(usize, Point3)]); 4] = [
            ("nan", &[(3_001, [f64::NAN, 0.0, 0.0])]),
            ("inf", &[(2, [inf, 0.0, 0.0]), (4_400, [0.0, -inf, 1.0])]),
            (
                "+inf and -inf",
                &[(1_000, [inf, 0.0, 0.0]), (1_001, [-inf, 0.0, 0.0])],
            ),
            (
                "nan centroid",
                &[(0, [0.0, f64::NAN, 0.0]), (4_499, [inf; 3])],
            ),
        ];
        for (what, odd) in cases {
            let mut pts = base.clone();
            for &(i, p) in odd {
                pts[i] = p;
            }
            for k in [1, 3, 8] {
                assert_bit_identical(&pts, k, 4, &format!("{what} k {k}"));
            }
        }
        // Coordinates near 1e-162: squared distances are subnormal or
        // underflow, so their rounding error is absolute, and small
        // centroid moves compute as a zero shift.
        for (scale, spread) in [(1e-163, 100.0), (3e-164, 2.0)] {
            let tiny: Vec<Point3> = gaussian_blobs(4_500, 8, spread, 29)
                .iter()
                .map(|p| p.map(|x| x * scale))
                .collect();
            for k in [2, 3, 8] {
                assert_bit_identical(&tiny, k, 4, &format!("{scale:e} {spread} k {k}"));
            }
        }
    }

    #[test]
    fn bounds_keep_a_centroid_through_small_shifts_and_rescan_ties() {
        let cs = [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]];
        let still = [[0.0; 2]; 2];
        let p = [0.1, 0.0, 0.0];
        // The first pass scans: centroid 0, bounds 0.1 and 1.9.
        let mut b = Bound::UNKNOWN;
        assert_eq!(b.nearest(&p, &cs, &still), 0);
        // Small shifts keep centroid 0 without a scan: with centroid 1 now
        // at the point, a scan would answer 1.
        let small = [[0.01, 0.02], [0.02, 0.01]];
        let moved = [[0.01, 0.0, 0.0], [0.1, 0.0, 0.0]];
        assert_eq!(b.nearest(&p, &moved, &small), 0);
        // A shift of another centroid as large as the gap forces a scan.
        let large = [[0.0, 1.9], [1.9, 0.0]];
        assert_eq!(b.nearest(&p, &moved, &large), 1);
        // A centroid that moves straight at the point leaves its lower
        // bound tight, and `lower - shift` cancels to ~1e-8 while keeping
        // a rounding error near 1e-16. Centroid 1 ends ~1e-17 nearer than
        // centroid 0, so the point must rescan; a slack applied only to
        // the final test (1e-9 of 1e-8) would keep centroid 0.
        let (e0, e1) = (
            f64::from_bits(0x3e43_c044_e73f_6674),
            f64::from_bits(0x3e43_c044_e6d2_907e),
        );
        let old = [[-e0, 0.0, 0.0], [1.0, 0.0, 0.0]];
        let new = [[-e0, 0.0, 0.0], [e1, 0.0, 0.0]];
        let origin = [0.0; 3];
        let mut b = Bound::UNKNOWN;
        assert_eq!(b.nearest(&origin, &old, &still), 0);
        assert_eq!(nearest(&origin, &new), 1);
        assert_eq!(b.nearest(&origin, &new, &centroid_shifts(&old, &new)), 1);
        // Near 1e-162, both moves below compute as a zero shift, and both
        // new squared distances round to the same two subnormal ulps: the
        // point must rescan and take the lower index.
        let old = [[4.6e-162, 0.0, 0.0], [3.0e-162, 0.0, 0.0]];
        let new = [[3.5e-162, 0.0, 0.0], [3.3e-162, 0.0, 0.0]];
        assert_eq!(centroid_shifts(&old, &new), [[0.0; 2]; 2]);
        assert_eq!(dist2(&origin, &new[0]), dist2(&origin, &new[1]));
        let mut b = Bound::UNKNOWN;
        assert_eq!(b.nearest(&origin, &old, &still), 1);
        assert_eq!(b.nearest(&origin, &new, &centroid_shifts(&old, &new)), 0);
        // A point on the bisector of two centroids ties: however its
        // bounds stand, it rescans and goes to the lower index.
        let on_bisector = [1.0, 0.0, 0.0];
        for (upper, lower) in [
            (1.0, 1.0 + 1e-12),
            (0.0, 0.0),
            (f64::INFINITY, f64::INFINITY),
        ] {
            let mut b = Bound {
                upper,
                lower,
                centroid: 1,
            };
            let at = if upper == 0.0 { [on_bisector; 2] } else { cs };
            assert_eq!(
                b.nearest(&on_bisector, &at, &still),
                0,
                "bounds {upper} {lower}"
            );
        }
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
