//! Seeded synthetic datasets for the analytics workloads.

use rp_sim::SimRng;

/// A point in 3-D space (the paper's K-Means operates on 3-D points).
pub type Point3 = [f64; 3];

/// Gaussian blobs: `n` points around `k` well-separated centers.
/// Deterministic for a given seed.
pub fn gaussian_blobs(n: usize, k: usize, spread: f64, seed: u64) -> Vec<Point3> {
    assert!(k >= 1 && n >= 1);
    let mut rng = SimRng::new(seed);
    let centers: Vec<Point3> = (0..k)
        .map(|_| {
            [
                rng.uniform(-100.0, 100.0),
                rng.uniform(-100.0, 100.0),
                rng.uniform(-100.0, 100.0),
            ]
        })
        .collect();
    (0..n)
        .map(|i| {
            let c = centers[i % k];
            [
                c[0] + normal(&mut rng) * spread,
                c[1] + normal(&mut rng) * spread,
                c[2] + normal(&mut rng) * spread,
            ]
        })
        .collect()
}

/// One frame of a synthetic molecular-dynamics trajectory: positions of
/// `atoms` atoms.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    pub positions: Vec<Point3>,
}

/// Random-walk trajectory: `frames` frames of `atoms` atoms, where each
/// frame perturbs the previous one (so RMSD grows with frame distance —
/// the property trajectory analyses depend on).
pub fn md_trajectory(atoms: usize, frames: usize, step: f64, seed: u64) -> Vec<Frame> {
    assert!(atoms >= 1 && frames >= 1);
    let mut rng = SimRng::new(seed);
    let mut current: Vec<Point3> = (0..atoms)
        .map(|_| {
            [
                rng.uniform(-10.0, 10.0),
                rng.uniform(-10.0, 10.0),
                rng.uniform(-10.0, 10.0),
            ]
        })
        .collect();
    let mut out = Vec::with_capacity(frames);
    out.push(Frame {
        positions: current.clone(),
    });
    for _ in 1..frames {
        for p in current.iter_mut() {
            for x in p.iter_mut() {
                *x += normal(&mut rng) * step;
            }
        }
        out.push(Frame {
            positions: current.clone(),
        });
    }
    out
}

fn normal(rng: &mut SimRng) -> f64 {
    rng.standard_normal()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blobs_are_deterministic_and_sized() {
        let a = gaussian_blobs(1000, 5, 1.0, 7);
        let b = gaussian_blobs(1000, 5, 1.0, 7);
        assert_eq!(a.len(), 1000);
        assert_eq!(a, b);
        let c = gaussian_blobs(1000, 5, 1.0, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn trajectory_drifts_over_time() {
        let t = md_trajectory(50, 100, 0.5, 3);
        assert_eq!(t.len(), 100);
        let d_near = frame_dist(&t[0], &t[1]);
        let d_far = frame_dist(&t[0], &t[99]);
        assert!(d_far > d_near * 2.0, "far {d_far} near {d_near}");
    }

    fn frame_dist(a: &Frame, b: &Frame) -> f64 {
        a.positions
            .iter()
            .zip(&b.positions)
            .map(|(p, q)| (p[0] - q[0]).powi(2) + (p[1] - q[1]).powi(2) + (p[2] - q[2]).powi(2))
            .sum::<f64>()
            .sqrt()
    }
}
