//! Virtual-time phase profiler.
//!
//! Walks a span tree recorded by [`crate::trace::Trace`] and attributes
//! every microsecond of a root span's wall-clock to one of the paper's
//! phases (Fig. 5's startup decomposition plus the MapReduce stages).
//!
//! Attribution rule: the root interval is swept over the elementary
//! intervals induced by all span boundaries in the subtree; each interval
//! is charged to the **deepest** span active over it (ties broken by later
//! begin, then higher id — so a span opened later wins over a still-open
//! sibling). The chosen span's phase is its own mapping, or the nearest
//! mapped ancestor's; intervals covered by no mapped span are charged to
//! [`Phase::Overhead`]. Because boundaries are exact integer microseconds
//! the per-phase durations always sum exactly to the root's wall-clock —
//! no phase is double-counted and nothing is lost.
//!
//! Open (never-ended) spans — e.g. attempts abandoned by an injected node
//! crash — are ignored.
//!
//! Scaling: a [`Profiler`] is built once per analysis — one O(n) pass over
//! the streamed chunks for the parent→children index
//! ([`crate::trace::SpanIndex`]) plus an O(#symbols) name→phase table —
//! after which each subtree profile touches only its own spans. The legacy
//! walk rescanned the whole materialized span list per frontier node,
//! which was quadratic on scale runs.

use crate::time::SimDuration;
use crate::trace::{Span, SpanId, SpanIndex, Trace};

/// The paper's timing phases (Fig. 5 / Fig. 5 inset / Fig. 6 stages).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Batch-queue wait of the pilot job, or a unit waiting to be scheduled.
    QueueWait,
    /// Pilot/agent bootstrap outside the framework startup proper.
    PilotBootstrap,
    /// Hadoop YARN daemon startup (Mode I) or cluster connect (Mode II).
    YarnStartup,
    /// HDFS format + daemon startup (Mode I only).
    HdfsStartup,
    /// YARN ApplicationMaster allocation (first stage of CU startup).
    AmAllocation,
    /// YARN task-container allocation (second stage of CU startup).
    ContainerAllocation,
    /// Input staging.
    StageIn,
    /// Task compute (includes MapReduce map and reduce work).
    Compute,
    /// MapReduce shuffle.
    Shuffle,
    /// Output staging.
    StageOut,
    /// Anything not covered by a mapped span (spawner waits, launch
    /// overheads, coordination latency, post-bootstrap idle...).
    Overhead,
}

impl Phase {
    pub const ALL: [Phase; 11] = [
        Phase::QueueWait,
        Phase::PilotBootstrap,
        Phase::YarnStartup,
        Phase::HdfsStartup,
        Phase::AmAllocation,
        Phase::ContainerAllocation,
        Phase::StageIn,
        Phase::Compute,
        Phase::Shuffle,
        Phase::StageOut,
        Phase::Overhead,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Phase::QueueWait => "queue_wait",
            Phase::PilotBootstrap => "pilot_bootstrap",
            Phase::YarnStartup => "yarn_startup",
            Phase::HdfsStartup => "hdfs_startup",
            Phase::AmAllocation => "am_allocation",
            Phase::ContainerAllocation => "container_allocation",
            Phase::StageIn => "stage_in",
            Phase::Compute => "compute",
            Phase::Shuffle => "shuffle",
            Phase::StageOut => "stage_out",
            Phase::Overhead => "overhead",
        }
    }

    /// Phase a span name maps to, if any. Unmapped spans inherit the
    /// nearest mapped ancestor's phase.
    pub fn of_span(name: &str) -> Option<Phase> {
        Some(match name {
            "pilot.queue_wait" | "unit.scheduling" => Phase::QueueWait,
            "pilot.bootstrap" => Phase::PilotBootstrap,
            "yarn.startup" => Phase::YarnStartup,
            "hdfs.startup" => Phase::HdfsStartup,
            "yarn.am_allocation" => Phase::AmAllocation,
            "yarn.container_allocation" => Phase::ContainerAllocation,
            "unit.stage_in" => Phase::StageIn,
            "unit.compute" | "mr.map" | "mr.reduce" => Phase::Compute,
            "mr.shuffle" => Phase::Shuffle,
            "unit.stage_out" => Phase::StageOut,
            _ => return None,
        })
    }

    fn index(self) -> usize {
        Phase::ALL.iter().position(|&p| p == self).unwrap()
    }
}

/// Wall-clock of one root span split by phase. `total` is the root span's
/// duration; the per-phase durations sum to it exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseBreakdown {
    pub total: SimDuration,
    durations: [SimDuration; 11],
}

impl PhaseBreakdown {
    pub fn get(&self, phase: Phase) -> SimDuration {
        self.durations[phase.index()]
    }

    pub fn secs(&self, phase: Phase) -> f64 {
        self.get(phase).as_secs_f64()
    }

    pub fn total_secs(&self) -> f64 {
        self.total.as_secs_f64()
    }

    /// Sum of a set of phases, in seconds.
    pub fn sum_secs(&self, phases: &[Phase]) -> f64 {
        phases.iter().map(|&p| self.secs(p)).sum()
    }

    /// Merge another breakdown into this one (for aggregating many units).
    pub fn merge(&mut self, other: &PhaseBreakdown) {
        self.total = SimDuration(self.total.0 + other.total.0);
        for i in 0..self.durations.len() {
            self.durations[i] = SimDuration(self.durations[i].0 + other.durations[i].0);
        }
    }

    pub(crate) fn charge(&mut self, phase: Phase, d: u64) {
        self.durations[phase.index()].0 += d;
        self.total.0 += d;
    }
}

/// Reusable analysis context over one trace: the CSR children index plus a
/// symbol-id → phase table, built in one pass each. Resolving a span's
/// phase is then an array lookup (integer symbol id), not a string match.
pub struct Profiler<'a> {
    trace: &'a Trace,
    index: SpanIndex,
    phase_of_sym: Vec<Option<Phase>>,
}

impl<'a> Profiler<'a> {
    pub fn new(trace: &'a Trace) -> Profiler<'a> {
        let index = SpanIndex::build(trace);
        let phase_of_sym = trace
            .symbols()
            .names()
            .iter()
            .map(|n| Phase::of_span(n))
            .collect();
        Profiler {
            trace,
            index,
            phase_of_sym,
        }
    }

    pub fn trace(&self) -> &'a Trace {
        self.trace
    }

    /// Direct (tree) children of `id`, in id order.
    pub fn children(&self, id: SpanId) -> &[SpanId] {
        self.index.children(id)
    }

    /// A span's own phase mapping, if any.
    pub fn span_phase(&self, span: &Span) -> Option<Phase> {
        self.phase_of_sym.get(span.name.index()).copied().flatten()
    }

    /// A span's own phase, or the nearest mapped ancestor's, or `Overhead`.
    pub fn effective_phase(&self, span: &Span) -> Phase {
        let mut cur = Some(span.id);
        while let Some(id) = cur {
            let Some(s) = self.trace.span(id) else { break };
            if let Some(p) = self.span_phase(s) {
                return p;
            }
            cur = s.parent;
        }
        Phase::Overhead
    }

    /// Profile the subtree rooted at `root`. Returns an empty breakdown if
    /// the root is missing or still open.
    pub fn profile(&self, root: SpanId) -> PhaseBreakdown {
        let mut out = PhaseBreakdown::default();
        let Some(root_span) = self.trace.span(root) else {
            return out;
        };
        let Some(root_end) = root_span.end else {
            return out;
        };
        // Collect the completed spans of the subtree, with their depth.
        let mut subtree: Vec<(&Span, u32)> = Vec::new();
        let mut frontier = vec![(root, 0u32)];
        while let Some((id, depth)) = frontier.pop() {
            for &cid in self.index.children(id) {
                let s = self.trace.span(cid).expect("indexed span exists");
                if s.end.is_some() {
                    subtree.push((s, depth + 1));
                }
                // Children of open spans still count (the parent link is
                // what places them in the subtree), so recurse regardless.
                frontier.push((cid, depth + 1));
            }
        }
        // Clamp to the root interval and build the elementary boundaries.
        let lo = root_span.begin;
        let hi = root_end;
        let mut bounds: Vec<u64> = vec![lo.0, hi.0];
        for (s, _) in &subtree {
            let b = s.begin.0.clamp(lo.0, hi.0);
            let e = s.end.unwrap().0.clamp(lo.0, hi.0);
            bounds.push(b);
            bounds.push(e);
        }
        bounds.sort_unstable();
        bounds.dedup();
        for w in bounds.windows(2) {
            let (a, b) = (w[0], w[1]);
            if b <= a || b > hi.0 || a < lo.0 {
                continue;
            }
            // Deepest span active over [a, b); ties: later begin, higher id.
            let active = subtree
                .iter()
                .filter(|(s, _)| s.begin.0 <= a && s.end.unwrap().0 >= b)
                .max_by_key(|(s, depth)| (*depth, s.begin.0, s.id.0));
            let phase = match active {
                Some((s, _)) => self.effective_phase(s),
                None => Phase::Overhead,
            };
            out.charge(phase, b - a);
        }
        out
    }
}

/// Profile the subtree rooted at `root` (one-shot convenience; for many
/// roots over one trace build a [`Profiler`] once or use
/// [`profile_roots`]).
pub fn profile_span(trace: &Trace, root: SpanId) -> PhaseBreakdown {
    Profiler::new(trace).profile(root)
}

/// Profile every completed root span with the given name, in id order.
pub fn profile_roots(trace: &Trace, name: &str) -> Vec<(SpanId, PhaseBreakdown)> {
    let profiler = Profiler::new(trace);
    trace
        .roots_named(name)
        .map(|s| (s.id, profiler.profile(s.id)))
        .collect()
}

/// Element-wise mean of several breakdowns (repeated measurements).
/// Sub-microsecond remainders truncate, so the phases of a mean may sum
/// to marginally less than its total.
pub fn mean_breakdown(items: &[PhaseBreakdown]) -> PhaseBreakdown {
    let mut out = PhaseBreakdown::default();
    if items.is_empty() {
        return out;
    }
    for b in items {
        out.merge(b);
    }
    let n = items.len() as u64;
    out.total = SimDuration(out.total.0 / n);
    for d in &mut out.durations {
        d.0 /= n;
    }
    out
}

/// Aggregate breakdown over every completed root span with the given name.
pub fn aggregate_roots(trace: &Trace, name: &str) -> PhaseBreakdown {
    let mut out = PhaseBreakdown::default();
    for (_, b) in profile_roots(trace, name) {
        out.merge(&b);
    }
    out
}

/// Core utilization of a pilot over its active window: compute
/// core-seconds of the pilot's units divided by `cores` × the window from
/// bootstrap end (or root begin) to root end. Compute spans are matched by
/// a `pilot` attribute equal to the root span's `pilot` attribute; their
/// core counts come from a `cores` attribute (default 1) and are clipped
/// to the window.
pub fn pilot_utilization(trace: &Trace, pilot_root: SpanId, cores: u32) -> f64 {
    let Some(root) = trace.span(pilot_root) else {
        return 0.0;
    };
    let Some(end) = root.end else { return 0.0 };
    let Some(pilot) = trace.attr(root, "pilot") else {
        return 0.0;
    };
    let bootstrap = trace.symbol("pilot.bootstrap");
    let compute = trace.symbol("unit.compute");
    let start = trace
        .iter_spans()
        .filter(|s| s.parent == Some(pilot_root) && Some(s.name) == bootstrap)
        .filter_map(|s| s.end)
        .max()
        .unwrap_or(root.begin);
    let window = end.0.saturating_sub(start.0);
    if window == 0 || cores == 0 {
        return 0.0;
    }
    let mut busy: u128 = 0;
    for s in trace.iter_spans() {
        if Some(s.name) != compute || trace.attr(s, "pilot") != Some(pilot) {
            continue;
        }
        let Some(e) = s.end else { continue };
        let b = s.begin.0.clamp(start.0, end.0);
        let e = e.0.clamp(start.0, end.0);
        let span_cores: u32 = trace
            .attr(s, "cores")
            .and_then(|c| c.parse().ok())
            .unwrap_or(1);
        busy += (e.saturating_sub(b)) as u128 * span_cores as u128;
    }
    busy as f64 / (window as u128 * cores as u128) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn t(secs: u64) -> SimTime {
        SimTime(secs * 1_000_000)
    }

    #[test]
    fn flat_pilot_tree_sums_exactly() {
        let mut tr = Trace::enabled();
        let root = tr.span_begin(t(0), "pilot", "pilot.run", SpanId::NONE);
        let root_id = root.id();
        let q = tr.span_begin(t(0), "pilot", "pilot.queue_wait", root_id);
        tr.span_end(t(10), q);
        let b = tr.span_begin(t(10), "pilot", "pilot.bootstrap", root_id);
        let y = tr.span_begin(t(15), "yarn", "yarn.startup", b.id());
        let h = tr.span_begin(t(30), "hdfs", "hdfs.startup", y.id());
        tr.span_end(t(50), h);
        tr.span_end(t(70), y);
        tr.span_end(t(70), b);
        tr.span_end(t(100), root);
        let p = profile_span(&tr, root_id);
        assert_eq!(p.secs(Phase::QueueWait), 10.0);
        assert_eq!(p.secs(Phase::PilotBootstrap), 5.0); // 10..15
        assert_eq!(p.secs(Phase::YarnStartup), 35.0); // 15..30 + 50..70
        assert_eq!(p.secs(Phase::HdfsStartup), 20.0); // 30..50
        assert_eq!(p.secs(Phase::Overhead), 30.0); // 70..100, no child
        assert_eq!(p.total_secs(), 100.0);
        let sum: f64 = Phase::ALL.iter().map(|&ph| p.secs(ph)).sum();
        assert_eq!(sum, p.total_secs());
    }

    #[test]
    fn overlapping_children_attribute_to_deepest_then_latest() {
        let mut tr = Trace::enabled();
        let root = tr.span_begin(t(0), "unit", "unit.run", SpanId::NONE);
        let root_id = root.id();
        // stage_in stays open past the start of a sibling allocation span:
        // the later-started sibling wins the overlap.
        let si = tr.span_begin(t(0), "unit", "unit.stage_in", root_id);
        let am = tr.span_begin(t(4), "yarn", "yarn.am_allocation", root_id);
        tr.span_end(t(8), am);
        tr.span_end(t(8), si);
        let ex = tr.span_begin(t(8), "unit", "unit.exec", root_id);
        let c = tr.span_begin(t(9), "unit", "unit.compute", ex.id());
        tr.span_end(t(19), c);
        tr.span_end(t(20), ex);
        tr.span_end(t(20), root);
        let p = profile_span(&tr, root_id);
        assert_eq!(p.secs(Phase::StageIn), 4.0); // 0..4
        assert_eq!(p.secs(Phase::AmAllocation), 4.0); // 4..8 (later begin wins)
        assert_eq!(p.secs(Phase::Compute), 10.0); // 9..19 (deepest wins)
        assert_eq!(p.secs(Phase::Overhead), 2.0); // 8..9 + 19..20 (unit.exec unmapped)
        assert_eq!(p.total_secs(), 20.0);
        let sum: f64 = Phase::ALL.iter().map(|&ph| p.secs(ph)).sum();
        assert_eq!(sum, p.total_secs());
    }

    #[test]
    fn requeued_attempts_charge_queue_wait_per_attempt() {
        let mut tr = Trace::enabled();
        let root = tr.span_begin(t(0), "unit", "unit.run", SpanId::NONE);
        let root_id = root.id();
        let s1 = tr.span_begin(t(0), "unit", "unit.scheduling", root_id);
        tr.span_end(t(2), s1);
        let e1 = tr.span_begin(t(2), "unit", "unit.exec", root_id);
        // Crash: the attempt's exec span is abandoned open and the unit is
        // requeued.
        let _abandoned = e1.id();
        let s2 = tr.span_begin(t(5), "unit", "unit.scheduling", root_id);
        tr.span_end(t(7), s2);
        let e2 = tr.span_begin(t(7), "unit", "unit.exec", root_id);
        let c = tr.span_begin(t(7), "unit", "unit.compute", e2.id());
        tr.span_end(t(12), c);
        tr.span_end(t(12), e2);
        tr.span_end(t(12), root);
        let p = profile_span(&tr, root_id);
        // Both scheduling spans count; the abandoned open exec span does not.
        assert_eq!(p.secs(Phase::QueueWait), 4.0); // 0..2 + 5..7
        assert_eq!(p.secs(Phase::Compute), 5.0); // 7..12
        assert_eq!(p.secs(Phase::Overhead), 3.0); // 2..5 uncovered
        assert_eq!(p.total_secs(), 12.0);
        let sum: f64 = Phase::ALL.iter().map(|&ph| p.secs(ph)).sum();
        assert_eq!(sum, p.total_secs());
    }

    #[test]
    fn unmapped_span_inherits_ancestor_phase() {
        let mut tr = Trace::enabled();
        let root = tr.span_begin(t(0), "unit", "unit.run", SpanId::NONE);
        let root_id = root.id();
        let si = tr.span_begin(t(0), "unit", "unit.stage_in", root_id);
        // An unmapped child of stage_in (e.g. a single transfer) inherits
        // StageIn rather than flipping to Overhead.
        let xfer = tr.span_begin(t(1), "saga", "saga.transfer", si.id());
        tr.span_end(t(3), xfer);
        tr.span_end(t(4), si);
        tr.span_end(t(4), root);
        let p = profile_span(&tr, root_id);
        assert_eq!(p.secs(Phase::StageIn), 4.0);
        assert_eq!(p.secs(Phase::Overhead), 0.0);
    }

    #[test]
    fn open_or_missing_root_is_empty() {
        let mut tr = Trace::enabled();
        let open = tr.span_begin(t(0), "x", "pilot.run", SpanId::NONE);
        assert_eq!(profile_span(&tr, open.id()), PhaseBreakdown::default());
        assert_eq!(profile_span(&tr, SpanId::NONE), PhaseBreakdown::default());
        assert_eq!(profile_span(&tr, SpanId(99)), PhaseBreakdown::default());
    }

    #[test]
    fn aggregate_merges_all_roots() {
        let mut tr = Trace::enabled();
        for i in 0..3u64 {
            let root = tr.span_begin(t(i * 10), "unit", "unit.run", SpanId::NONE);
            let c = tr.span_begin(t(i * 10 + 1), "unit", "unit.compute", root.id());
            tr.span_end(t(i * 10 + 5), c);
            tr.span_end(t(i * 10 + 6), root);
        }
        let agg = aggregate_roots(&tr, "unit.run");
        assert_eq!(agg.total_secs(), 18.0);
        assert_eq!(agg.secs(Phase::Compute), 12.0);
        assert_eq!(profile_roots(&tr, "unit.run").len(), 3);
    }

    #[test]
    fn utilization_counts_compute_core_seconds_in_window() {
        let mut tr = Trace::enabled();
        let root = tr.span_begin(t(0), "pilot", "pilot.run", SpanId::NONE);
        let root_id = root.id();
        tr.span_attr(root_id, "pilot", "0");
        let b = tr.span_begin(t(0), "pilot", "pilot.bootstrap", root_id);
        tr.span_end(t(10), b);
        // Two 2-core compute spans of 20 s each inside a 4-core, 100 s
        // active window -> 80 core-s / 400 core-s = 0.2.
        for start in [20u64, 60] {
            let u = tr.span_begin(t(start), "unit", "unit.compute", SpanId::NONE);
            tr.span_attr(u.id(), "pilot", "0");
            tr.span_attr(u.id(), "cores", "2");
            tr.span_end(t(start + 20), u);
        }
        // A compute span of a different pilot is ignored.
        let other = tr.span_begin(t(20), "unit", "unit.compute", SpanId::NONE);
        tr.span_attr(other.id(), "pilot", "1");
        tr.span_end(t(40), other);
        tr.span_end(t(110), root);
        let util = pilot_utilization(&tr, root_id, 4);
        assert!((util - 0.2).abs() < 1e-9, "util = {util}");
    }
}
