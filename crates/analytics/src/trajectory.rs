//! Molecular-dynamics trajectory analysis — the paper's motivating
//! application domain (§I: trajectory data analysis with MDAnalysis /
//! CPPTraj-style tools, principal components, higher-order moments).
//!
//! Real parallel compute over synthetic trajectories.

use rp_sim::par::{default_threads, parallel_map};

use crate::dataset::{Frame, Point3};

/// Root-mean-square deviation between two frames (no alignment — the
/// synthetic trajectories have no global drift to remove).
pub fn rmsd(a: &Frame, b: &Frame) -> f64 {
    assert_eq!(a.positions.len(), b.positions.len(), "atom count mismatch");
    let n = a.positions.len() as f64;
    let ss: f64 = a
        .positions
        .iter()
        .zip(&b.positions)
        .map(|(p, q)| (p[0] - q[0]).powi(2) + (p[1] - q[1]).powi(2) + (p[2] - q[2]).powi(2))
        .sum();
    (ss / n).sqrt()
}

/// RMSD of every frame against a reference frame, in parallel.
pub fn rmsd_series(trajectory: &[Frame], reference: usize) -> Vec<f64> {
    let r = &trajectory[reference];
    parallel_map(trajectory, default_threads(trajectory.len()), |f| {
        rmsd(f, r)
    })
}

/// Per-dimension moments of all atom positions across the trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct Moments {
    pub mean: Point3,
    pub variance: Point3,
    pub skewness: Point3,
}

/// Higher-order moments over every atom position in every frame
/// (the "computing the higher order moments" analysis of §I).
pub fn moments(trajectory: &[Frame]) -> Moments {
    let threads = default_threads(trajectory.len());
    // (n, sum, sum2, sum3) per dimension.
    let partials = parallel_map(trajectory, threads, |f| {
        let mut acc = [[0.0f64; 3]; 3]; // [sum, sum2, sum3][dim]
        for p in &f.positions {
            for d in 0..3 {
                acc[0][d] += p[d];
                acc[1][d] += p[d] * p[d];
                acc[2][d] += p[d] * p[d] * p[d];
            }
        }
        (f.positions.len() as f64, acc)
    });
    let mut n = 0.0;
    let mut acc = [[0.0f64; 3]; 3];
    for (cnt, a) in partials {
        n += cnt;
        for i in 0..3 {
            for d in 0..3 {
                acc[i][d] += a[i][d];
            }
        }
    }
    assert!(n > 0.0, "empty trajectory");
    let mut mean = [0.0; 3];
    let mut var = [0.0; 3];
    let mut skew = [0.0; 3];
    for d in 0..3 {
        let m = acc[0][d] / n;
        let m2 = acc[1][d] / n - m * m;
        let m3 = acc[2][d] / n - 3.0 * m * m2 - m * m * m;
        mean[d] = m;
        var[d] = m2;
        skew[d] = if m2 > 1e-12 { m3 / m2.powf(1.5) } else { 0.0 };
    }
    Moments {
        mean,
        variance: var,
        skewness: skew,
    }
}

/// Principal axes of the atom-position distribution: eigenvectors of the
/// 3×3 covariance matrix, found by power iteration with deflation (the
/// PCA-based analysis of the paper's future work, ref \[10\]).
#[derive(Debug, Clone)]
pub struct Pca {
    /// Eigenvalues, descending.
    pub eigenvalues: [f64; 3],
    /// Matching unit eigenvectors.
    pub components: [Point3; 3],
}

pub fn pca(trajectory: &[Frame]) -> Pca {
    let threads = default_threads(trajectory.len());
    // Mean.
    let m = moments(trajectory).mean;
    // Covariance accumulation in parallel.
    let partials = parallel_map(trajectory, threads, |f| {
        let mut cov = [[0.0f64; 3]; 3];
        for p in &f.positions {
            let d = [p[0] - m[0], p[1] - m[1], p[2] - m[2]];
            for i in 0..3 {
                for j in 0..3 {
                    cov[i][j] += d[i] * d[j];
                }
            }
        }
        (f.positions.len() as f64, cov)
    });
    let mut n = 0.0;
    let mut cov = [[0.0f64; 3]; 3];
    for (cnt, c) in partials {
        n += cnt;
        for i in 0..3 {
            for j in 0..3 {
                cov[i][j] += c[i][j];
            }
        }
    }
    for row in cov.iter_mut() {
        for x in row.iter_mut() {
            *x /= n;
        }
    }

    let mut eigenvalues = [0.0; 3];
    let mut components = [[0.0; 3]; 3];
    let mut work = cov;
    for k in 0..3 {
        let (val, vec) = power_iteration(&work, 500, 1e-12, k as u64);
        eigenvalues[k] = val;
        components[k] = vec;
        // Deflate.
        for i in 0..3 {
            for j in 0..3 {
                work[i][j] -= val * vec[i] * vec[j];
            }
        }
    }
    Pca {
        eigenvalues,
        components,
    }
}

fn power_iteration(m: &[[f64; 3]; 3], iters: u32, tol: f64, seed: u64) -> (f64, Point3) {
    // Deterministic start vector, varied per deflation round.
    let mut v = [1.0, 0.7 + seed as f64 * 0.13, 0.3 + seed as f64 * 0.29];
    normalize(&mut v);
    let mut lambda = 0.0;
    for _ in 0..iters {
        let mut w = [0.0; 3];
        for i in 0..3 {
            for j in 0..3 {
                w[i] += m[i][j] * v[j];
            }
        }
        let norm = (w[0] * w[0] + w[1] * w[1] + w[2] * w[2]).sqrt();
        if norm < 1e-300 {
            return (0.0, v);
        }
        let next = [w[0] / norm, w[1] / norm, w[2] / norm];
        let delta = (next[0] - v[0]).abs() + (next[1] - v[1]).abs() + (next[2] - v[2]).abs();
        // Also handle sign flips (eigenvector defined up to sign).
        let delta_neg = (next[0] + v[0]).abs() + (next[1] + v[1]).abs() + (next[2] + v[2]).abs();
        v = next;
        lambda = norm;
        if delta.min(delta_neg) < tol {
            break;
        }
    }
    (lambda, v)
}

fn normalize(v: &mut Point3) {
    let n = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
    for x in v.iter_mut() {
        *x /= n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::md_trajectory;

    #[test]
    fn rmsd_zero_against_self() {
        let t = md_trajectory(20, 5, 0.1, 1);
        assert_eq!(rmsd(&t[0], &t[0]), 0.0);
    }

    #[test]
    fn rmsd_series_grows_for_random_walk() {
        let t = md_trajectory(100, 200, 0.3, 2);
        let series = rmsd_series(&t, 0);
        assert_eq!(series.len(), 200);
        assert_eq!(series[0], 0.0);
        // Averages over windows: late window much larger than early.
        let early: f64 = series[1..20].iter().sum::<f64>() / 19.0;
        let late: f64 = series[180..].iter().sum::<f64>() / 20.0;
        assert!(late > early * 2.0, "late {late} early {early}");
    }

    #[test]
    fn moments_of_known_distribution() {
        // Single frame with symmetric positions → zero mean & skew.
        let f = Frame {
            positions: vec![[1.0, 2.0, -3.0], [-1.0, -2.0, 3.0]],
        };
        let m = moments(&[f]);
        for d in 0..3 {
            assert!(m.mean[d].abs() < 1e-12);
            assert!(m.skewness[d].abs() < 1e-9);
        }
        assert!((m.variance[0] - 1.0).abs() < 1e-12);
        assert!((m.variance[1] - 4.0).abs() < 1e-12);
        assert!((m.variance[2] - 9.0).abs() < 1e-12);
    }

    #[test]
    fn pca_finds_dominant_axis() {
        // Positions stretched along x → first component ≈ ±x̂.
        let positions: Vec<_> = (0..200)
            .map(|i| {
                let t = (i as f64 - 100.0) / 10.0;
                [10.0 * t, 0.5 * (i % 3) as f64, 0.25 * (i % 2) as f64]
            })
            .collect();
        let p = pca(&[Frame { positions }]);
        assert!(p.eigenvalues[0] > 10.0 * p.eigenvalues[1].max(1e-9));
        assert!(p.components[0][0].abs() > 0.99, "{:?}", p.components[0]);
        // Eigenvalues descending.
        assert!(p.eigenvalues[0] >= p.eigenvalues[1]);
        assert!(p.eigenvalues[1] >= p.eigenvalues[2] - 1e-12);
    }

    #[test]
    #[should_panic]
    fn rmsd_mismatched_atoms_panics() {
        let a = Frame {
            positions: vec![[0.0; 3]],
        };
        let b = Frame {
            positions: vec![[0.0; 3], [1.0; 3]],
        };
        let _ = rmsd(&a, &b);
    }
}
