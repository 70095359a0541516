//! Benchmark-side host-time spans, and the sample statistics the report
//! prints.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public API, never inside the program. Phase spans (`setup`,
//! `submit`, `run`, `reduce`) are always recorded, because the end-to-end
//! metrics are read from them; detail spans (one per kernel call) only in
//! a traced run.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: f64,
    end: Option<f64>,
}

struct Inner {
    detail: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Records host-time spans for one iteration. Cheap to clone; the clone
/// shares the span list, so a `Native` unit's closure can record the
/// kernels it calls under the enclosing `run` span.
#[derive(Clone)]
pub struct Recorder {
    inner: Rc<RefCell<Inner>>,
}

impl Recorder {
    pub fn new(detail: bool) -> Recorder {
        Recorder {
            inner: Rc::new(RefCell::new(Inner {
                detail,
                origin: Instant::now(),
                spans: Vec::new(),
                open: Vec::new(),
            })),
        }
    }

    /// Run `f` inside a phase span (always recorded).
    pub fn phase<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Run `f` inside a detail span (recorded only in a traced run).
    pub fn detail<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.inner.borrow().detail {
            return f();
        }
        self.phase(name, f)
    }

    fn begin(&self, name: &'static str) -> usize {
        let mut inner = self.inner.borrow_mut();
        let start = inner.origin.elapsed().as_secs_f64();
        let parent = inner.open.last().copied();
        inner.spans.push(Span {
            name,
            parent,
            start,
            end: None,
        });
        let id = inner.spans.len() - 1;
        inner.open.push(id);
        id
    }

    fn end(&self, id: usize) {
        let mut inner = self.inner.borrow_mut();
        let now = inner.origin.elapsed().as_secs_f64();
        inner.open.retain(|&o| o != id);
        if let Some(span) = inner.spans.get_mut(id) {
            span.end = Some(now);
        }
    }

    /// Closed spans as `(name, duration)`, in start order.
    pub fn durations(&self) -> Vec<(&'static str, f64)> {
        let inner = self.inner.borrow();
        inner
            .spans
            .iter()
            .filter_map(|s| s.end.map(|e| (s.name, e - s.start)))
            .collect()
    }

    /// Total duration of every closed span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations()
            .into_iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, d)| d)
            .sum()
    }

    /// Host time from the start of the first `from` span to the end of
    /// the last `to` span.
    pub fn between(&self, from: &str, to: &str) -> Option<f64> {
        let inner = self.inner.borrow();
        let start = inner.spans.iter().find(|s| s.name == from)?.start;
        let end = inner.spans.iter().rev().find(|s| s.name == to)?.end?;
        Some(end - start)
    }

    /// Self time per span name: each span's duration minus the part its
    /// child spans cover, summed over spans of the same name.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let inner = self.inner.borrow();
        let mut child_time = vec![0.0; inner.spans.len()];
        for s in &inner.spans {
            if let (Some(p), Some(end)) = (s.parent, s.end) {
                child_time[p] += end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in inner.spans.iter().zip(child_time) {
            if let Some(end) = s.end {
                *out.entry(s.name).or_insert(0.0) += end - s.start - children;
            }
        }
        out
    }
}

/// Median of `samples` (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples).1
}

/// Lower quartile of `samples` (0 for none): the run-level statistic of
/// every end-to-end time. On a host whose speed drifts with its
/// neighbours' load, a run's lower quartile tracks the program's own cost
/// while its median tracks the neighbours.
pub fn lower_quartile(samples: &[f64]) -> f64 {
    quartiles(samples).0
}

/// `(q1, median, q3)` by the exclusive method — the one Python's
/// `statistics.quantiles(values, n=4)` uses — so the spreads printed here
/// match the ones computed from a set of runs.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut v: Vec<f64> = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        n => {
            let m = n + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), q(2), q(3))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[4.0]), 4.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let rec = Recorder::new(true);
        rec.phase("run", || {
            rec.detail("kernel", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let selfs = rec.self_times();
        let run_total = rec.total("run");
        let kernel = rec.total("kernel");
        assert!(kernel >= 0.02);
        let run_self = selfs.get("run").copied().unwrap_or(f64::NAN);
        assert!((run_self - (run_total - kernel)).abs() < 1e-9);
    }

    #[test]
    fn untraced_recorder_skips_detail_spans() {
        let rec = Recorder::new(false);
        let x = rec.phase("run", || rec.detail("kernel", || 7));
        assert_eq!(x, 7);
        assert_eq!(rec.durations().len(), 1);
        assert!(rec.between("run", "run").is_some());
    }
}
