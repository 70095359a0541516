//! Small statistics helpers used by benches and experiment harnesses,
//! plus the mergeable log-bucketed [`Histogram`], the one distribution
//! type for host-side costs and virtual-time latencies.

/// Number of buckets in a [`Histogram`]: bucket 0 holds exact zeros,
/// bucket `b >= 1` holds values in `[2^(b-1), 2^b)` — enough for any
/// `u64` sample.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A mergeable log-bucketed histogram over `u64` samples (microsecond
/// host times, batch sizes, queue depths).
///
/// Bucket boundaries are *fixed* powers of two — bucket 0 is `{0}`,
/// bucket `b` covers `[2^(b-1), 2^b)` — so merging two histograms is
/// exact: counts add bucket-wise and the merge of merges is independent
/// of order (associative and commutative). Percentiles are estimated by
/// linear interpolation inside the covering bucket, clamped to the
/// observed min/max.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            counts: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index of a sample: 0 for 0, else `64 - leading_zeros` (so
    /// 1 → bucket 1, 2..3 → bucket 2, 4..7 → bucket 3, ...).
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Inclusive `(lo, hi)` value range of a bucket.
    pub fn bucket_bounds(b: usize) -> (u64, u64) {
        assert!(b < HISTOGRAM_BUCKETS, "bucket {b} out of range");
        if b == 0 {
            (0, 0)
        } else {
            let lo = 1u64 << (b - 1);
            let hi = if b == 64 { u64::MAX } else { (1u64 << b) - 1 };
            (lo, hi)
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u128 {
        self.sum
    }

    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of the recorded samples (exact: from the running sum).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Non-empty buckets as `(bucket, count)` pairs, in bucket order.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(b, &n)| (b, n))
            .collect()
    }

    /// Merge another histogram into this one. Exact: the result is
    /// indistinguishable from a histogram that recorded both sample
    /// streams directly.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Estimated percentile (0..=100): linear interpolation inside the
    /// bucket holding the target rank, clamped to observed min/max.
    /// `None` on an empty histogram.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p));
        if self.count == 0 {
            return None;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (b, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if cum + n >= target {
                let (lo, hi) = Self::bucket_bounds(b);
                let lo = lo.max(self.min) as f64;
                let hi = hi.min(self.max) as f64;
                let frac = (target - cum) as f64 / n as f64;
                return Some(lo + (hi - lo) * frac);
            }
            cum += n;
        }
        Some(self.max as f64)
    }

    /// JSON rendering: count/sum/min/max, the p50/p95/p99 estimates, and
    /// the non-empty buckets as `[bucket, count]` pairs. Stable key order.
    pub fn to_json(&self) -> String {
        let opt = |v: Option<f64>| match v {
            Some(x) => format!("{x:.1}"),
            None => "null".into(),
        };
        let optu = |v: Option<u64>| match v {
            Some(x) => x.to_string(),
            None => "null".into(),
        };
        let mut buckets = String::new();
        for (i, (b, n)) in self.nonzero_buckets().into_iter().enumerate() {
            if i > 0 {
                buckets.push(',');
            }
            buckets.push_str(&format!("[{b},{n}]"));
        }
        format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":[{buckets}]}}",
            self.count,
            self.sum,
            optu(self.min()),
            optu(self.max()),
            opt(self.percentile(50.0)),
            opt(self.percentile(95.0)),
            opt(self.percentile(99.0)),
        )
    }

    /// One-line human rendering for reports (`-` when empty).
    pub fn render_line(&self) -> String {
        if self.count == 0 {
            return "-".into();
        }
        format!(
            "n={} mean={:.1} p50={:.0} p95={:.0} p99={:.0} max={}",
            self.count,
            self.mean().unwrap_or(0.0),
            self.percentile(50.0).unwrap_or(0.0),
            self.percentile(95.0).unwrap_or(0.0),
            self.percentile(99.0).unwrap_or(0.0),
            self.max
        )
    }
}

/// Summary statistics over a sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub mean: f64,
    pub std: f64,
    pub min: f64,
    pub max: f64,
    pub median: f64,
}

impl Summary {
    /// Compute summary statistics. Panics on an empty sample.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "Summary::of: empty sample");
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
        Summary {
            n,
            mean,
            std: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            median: percentile_sorted(&sorted, 50.0),
        }
    }
}

/// Percentile (0..=100) of an already-sorted slice, linear interpolation.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty());
    assert!((0.0..=100.0).contains(&p));
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Percentile of an unsorted slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    percentile_sorted(&sorted, p)
}

/// Speedup series relative to the first element (the paper reports speedup
/// against the smallest task count).
pub fn speedups(times: &[f64]) -> Vec<f64> {
    assert!(!times.is_empty());
    let base = times[0];
    times.iter().map(|t| base / t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.n, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.median, 3.0);
        assert!((s.std - (2.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_single_sample() {
        let s = Summary::of(&[7.0]);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.median, 7.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&xs, 0.0), 10.0);
        assert_eq!(percentile(&xs, 100.0), 40.0);
        assert!((percentile(&xs, 50.0) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn speedup_series() {
        let s = speedups(&[100.0, 50.0, 25.0]);
        assert_eq!(s, vec![1.0, 2.0, 4.0]);
    }

    #[test]
    #[should_panic]
    fn empty_summary_panics() {
        let _ = Summary::of(&[]);
    }

    // -----------------------------------------------------------------
    // Histogram
    // -----------------------------------------------------------------

    #[test]
    fn histogram_bucket_edges() {
        // Bucket 0 is exactly {0}; bucket b covers [2^(b-1), 2^b).
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(7), 3);
        assert_eq!(Histogram::bucket_of(8), 4);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        // Every bucket's bounds round-trip through bucket_of.
        for b in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(b);
            assert_eq!(Histogram::bucket_of(lo), b, "lo of bucket {b}");
            assert_eq!(Histogram::bucket_of(hi), b, "hi of bucket {b}");
        }
        // Adjacent buckets are contiguous and non-overlapping.
        for b in 1..HISTOGRAM_BUCKETS {
            let (lo, _) = Histogram::bucket_bounds(b);
            let (_, prev_hi) = Histogram::bucket_bounds(b - 1);
            assert_eq!(lo, prev_hi + 1, "gap between buckets {} and {b}", b - 1);
        }
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.nonzero_buckets(), vec![]);
        assert_eq!(h.render_line(), "-");
        let j = h.to_json();
        assert!(j.contains("\"count\":0"));
        assert!(j.contains("\"p50\":null"));
    }

    #[test]
    fn histogram_single_sample() {
        let mut h = Histogram::new();
        h.record(42);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 42);
        assert_eq!(h.min(), Some(42));
        assert_eq!(h.max(), Some(42));
        // Interpolation clamps to observed min/max, so every percentile
        // of a single sample is the sample itself.
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), Some(42.0), "p{p}");
        }
    }

    #[test]
    fn histogram_zero_and_percentiles() {
        let mut h = Histogram::new();
        for v in [0u64, 0, 100, 100, 100, 100, 100, 100, 100, 100] {
            h.record(v);
        }
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(100));
        // p20 targets rank 2 → still in the zero bucket.
        assert_eq!(h.percentile(20.0), Some(0.0));
        // p95 targets rank 10 → the 100s bucket, clamped to max.
        let p95 = h.percentile(95.0).unwrap();
        assert!((64.0..=100.0).contains(&p95), "p95 = {p95}");
    }

    #[test]
    fn histogram_merge_associative_and_exact() {
        let streams: [&[u64]; 3] = [&[1, 5, 9, 120], &[0, 3, 3, 700_000], &[42, 64, 65]];
        let make = |xs: &[u64]| {
            let mut h = Histogram::new();
            for &x in xs {
                h.record(x);
            }
            h
        };
        let [a, b, c] = [make(streams[0]), make(streams[1]), make(streams[2])];
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right, "merge is associative");
        // c ⊕ b ⊕ a (commutes)
        let mut rev = c.clone();
        rev.merge(&b);
        rev.merge(&a);
        assert_eq!(left, rev, "merge is commutative");
        // Merge of merges ≡ direct recording of the concatenated stream.
        let mut direct = Histogram::new();
        for s in streams {
            for &x in s {
                direct.record(x);
            }
        }
        assert_eq!(left, direct, "merge is exact");
    }

    #[test]
    fn histogram_merge_with_empty_is_identity() {
        let mut h = Histogram::new();
        h.record(10);
        h.record(1000);
        let before = h.clone();
        h.merge(&Histogram::new());
        assert_eq!(h, before);
        let mut e = Histogram::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn histogram_json_shape() {
        let mut h = Histogram::new();
        h.record(3);
        h.record(5);
        let j = h.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        for key in ["count", "sum", "min", "max", "p50", "p95", "p99", "buckets"] {
            assert!(j.contains(&format!("\"{key}\":")), "missing {key} in {j}");
        }
        // 3 → bucket 2, 5 → bucket 3.
        assert!(j.contains("[2,1]") && j.contains("[3,1]"), "{j}");
    }
}
