//! Critical-path analysis over the span tree plus cross-span causal edges.
//!
//! The phase profiler ([`crate::profile`]) answers "where did this span's
//! wall-clock go" by sweeping one root's timeline. This module answers a
//! different question: **which chain of activities determined the
//! makespan**, and how much could everything else have slipped. The two
//! disagree exactly where the run is parallel — eight concurrent map tasks
//! contribute 8× their duration to an aggregate sweep, but only the
//! last-finishing map sits on the critical path.
//!
//! ## Model
//!
//! Activities are completed spans. Dependencies come from three sources:
//!
//! 1. **Tree edges** — a parent's completion waits on its children
//!    (containment), and time-ordered siblings gate each other: the unit
//!    phase chain `unit.scheduling → yarn.am_allocation →
//!    yarn.container_allocation → unit.stage_in → unit.exec →
//!    unit.stage_out` and the MapReduce barrier chain `mr.map → mr.shuffle
//!    → mr.reduce` are sequential spans under one parent, so the
//!    last-finisher rule below walks them without extra bookkeeping.
//! 2. **Pilot → unit causal edges** — `unit.run` spans are trace roots,
//!    but a pilot only ends after its units complete, so every `unit.run`
//!    whose `pilot` attribute matches a `pilot.run` root is *adopted* as a
//!    causal child of that pilot span.
//! 3. **Unit → pilot-bootstrap causal edges** — a unit's first
//!    `unit.scheduling` span covers submission → agent pickup, which is
//!    gated on the pilot's queue wait and bootstrap. Those pilot children
//!    are adopted under the first scheduling span so the startup portion of
//!    the critical path decomposes into the paper's Fig. 5 phases
//!    (queue wait / bootstrap / YARN startup / HDFS startup) instead of
//!    reading as one opaque scheduling wait.
//!
//! ## Algorithm
//!
//! A backward walk (the classic "last finishing predecessor" rule): start
//! at the root's end; the activity that gated that instant is the causal
//! child with the latest end not after the cursor; the gap between that
//! child's end and the cursor is the current span's own time; recurse into
//! the child and continue from its begin. The result is a contiguous chain
//! of segments partitioning `[root.begin, root.end]` — so the per-phase
//! critical-path durations sum *exactly* to the makespan, the same
//! integer-microsecond guarantee the profiler gives.
//!
//! **Slack** is local slack: a completed off-path span could have run
//! until the end of the critical-path segment its own end falls inside
//! without displacing the activity that was actually gating the run. That
//! is a deterministic lower bound on scheduling headroom, reported per
//! span and summarised per phase.
//!
//! Scaling: the walk shares one [`Profiler`] per analysis — the CSR
//! children index replaces the per-node full-trace rescans the legacy
//! walk did, and causal-edge construction compares interned [`Symbol`]s
//! instead of strings. The rendered output is pinned byte-for-byte
//! against the legacy walk by `tests/stream_equivalence.rs`.

use std::collections::{BTreeMap, BTreeSet};

use crate::intern::Symbol;
use crate::profile::{Phase, PhaseBreakdown, Profiler};
use crate::time::{SimDuration, SimTime};
use crate::trace::{Span, SpanId, Trace};

/// One maximal interval of the critical path, charged to a single span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSegment {
    /// Span whose activity gated the run over this interval.
    pub span: SpanId,
    /// That span's name (resolved out of the intern table so segments can
    /// be rendered without a trace handle).
    pub name: String,
    /// Effective phase (own mapping or nearest mapped ancestor's).
    pub phase: Phase,
    pub begin: SimTime,
    pub end: SimTime,
}

impl PathSegment {
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.begin)
    }
}

/// Per-phase critical-path attribution: on-path time, off-path busy time,
/// and the tightest local slack of the phase's off-path spans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CritPhaseRow {
    pub phase: Phase,
    /// Seconds of the critical path charged to this phase.
    pub path_s: f64,
    /// Busy seconds of this phase on completed spans *off* the path
    /// (span durations clamped to the analysis window; concurrent spans
    /// count multiply — this is work, not wall-clock).
    pub off_path_s: f64,
    /// Minimum local slack over the phase's off-path spans (`None` when
    /// every span of the phase is on the path or the phase is absent).
    pub min_slack_s: Option<f64>,
}

/// Result of a critical-path walk.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    pub begin: SimTime,
    pub end: SimTime,
    /// Time-ordered, contiguous segments partitioning `[begin, end]`.
    pub segments: Vec<PathSegment>,
    /// Critical-path time per phase; `phases.total` equals the makespan.
    pub phases: PhaseBreakdown,
    /// Local slack of every completed off-path span in the analysis set,
    /// in span-id order.
    pub slack: Vec<(SpanId, SimDuration)>,
    /// Off-path busy time per phase (work that did not gate the makespan).
    off_path: [SimDuration; Phase::ALL.len()],
    /// Minimum local slack per phase over off-path spans.
    min_slack: [Option<SimDuration>; Phase::ALL.len()],
}

impl CriticalPath {
    pub fn makespan(&self) -> SimDuration {
        self.end.since(self.begin)
    }

    pub fn makespan_secs(&self) -> f64 {
        self.makespan().as_secs_f64()
    }

    /// Whether `id` owns at least one critical-path segment.
    pub fn on_path(&self, id: SpanId) -> bool {
        self.segments.iter().any(|s| s.span == id)
    }

    /// Per-phase rows for every phase that is non-zero somewhere, in
    /// [`Phase::ALL`] order.
    pub fn phase_rows(&self) -> Vec<CritPhaseRow> {
        Phase::ALL
            .iter()
            .enumerate()
            .filter_map(|(i, &phase)| {
                let row = CritPhaseRow {
                    phase,
                    path_s: self.phases.secs(phase),
                    off_path_s: self.off_path[i].as_secs_f64(),
                    min_slack_s: self.min_slack[i].map(|d| d.as_secs_f64()),
                };
                (row.path_s > 0.0 || row.off_path_s > 0.0).then_some(row)
            })
            .collect()
    }

    /// One line per segment (for goldens / debugging).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.segments {
            out.push_str(&format!(
                "{:>12}..{:<12} {:<22} {} (#{})\n",
                s.begin.0,
                s.end.0,
                s.phase.label(),
                s.name,
                s.span.0
            ));
        }
        out
    }
}

/// Extra finish-to-start causal edges: `parent span → adopted children`.
/// Built once per analysis from the `pilot` attributes (see module docs).
struct CausalEdges {
    adopted: BTreeMap<SpanId, Vec<SpanId>>,
}

impl CausalEdges {
    fn build(profiler: &Profiler) -> CausalEdges {
        let trace = profiler.trace();
        let mut adopted: BTreeMap<SpanId, Vec<SpanId>> = BTreeMap::new();
        let pilot_run = trace.symbol("pilot.run");
        let unit_run = trace.symbol("unit.run");
        let scheduling = trace.symbol("unit.scheduling");
        let queue_wait = trace.symbol("pilot.queue_wait");
        let bootstrap = trace.symbol("pilot.bootstrap");
        // pilot id -> pilot.run span id (completed roots only).
        let pilots: BTreeMap<&str, SpanId> = trace
            .iter_spans()
            .filter(|s| Some(s.name) == pilot_run && s.parent.is_none() && s.end.is_some())
            .filter_map(|s| trace.attr(s, "pilot").map(|p| (p, s.id)))
            .collect();
        for unit in trace
            .iter_spans()
            .filter(|s| Some(s.name) == unit_run && s.parent.is_none() && s.end.is_some())
        {
            let Some(&pilot_span) = trace.attr(unit, "pilot").and_then(|p| pilots.get(p)) else {
                continue;
            };
            // Edge 2: the pilot's completion causally waits on its units.
            adopted.entry(pilot_span).or_default().push(unit.id);
            // Edge 3: the unit's first scheduling span waits on the pilot's
            // queue wait + bootstrap.
            let Some(first_sched) = profiler
                .children(unit.id)
                .iter()
                .filter_map(|&c| trace.span(c))
                .find(|s| Some(s.name) == scheduling && s.end.is_some())
            else {
                continue;
            };
            let startup: Vec<SpanId> = profiler
                .children(pilot_span)
                .iter()
                .filter_map(|&c| trace.span(c))
                .filter(|s| {
                    (Some(s.name) == queue_wait || Some(s.name) == bootstrap) && s.end.is_some()
                })
                .map(|s| s.id)
                .collect();
            adopted.entry(first_sched.id).or_default().extend(startup);
        }
        CausalEdges { adopted }
    }

    fn children_of<'a>(&self, profiler: &Profiler<'a>, id: SpanId) -> Vec<&'a Span> {
        let trace = profiler.trace();
        let mut kids: Vec<&Span> = profiler
            .children(id)
            .iter()
            .filter_map(|&c| trace.span(c))
            .filter(|s| s.end.is_some())
            .collect();
        if let Some(extra) = self.adopted.get(&id) {
            kids.extend(extra.iter().filter_map(|&c| trace.span(c)));
        }
        kids
    }
}

/// Critical path of the subtree (plus causal adoptions) rooted at `root`.
/// Returns `None` if the root is missing or never ended.
pub fn critical_path(trace: &Trace, root: SpanId) -> Option<CriticalPath> {
    let root_span = trace.span(root)?;
    let end = root_span.end?;
    let profiler = Profiler::new(trace);
    let edges = CausalEdges::build(&profiler);
    let mut state = WalkState::new(&profiler, &edges, root_span.begin, end);
    state.descend(root_span, end);
    state.finish(root_span.begin, end)
}

/// Critical path of the whole run: a virtual root spanning the earliest
/// begin to the latest end of all completed root spans, whose children are
/// the completed roots not already adopted under a pilot. Returns `None`
/// on a trace with no completed root spans.
pub fn critical_path_run(trace: &Trace) -> Option<CriticalPath> {
    let profiler = Profiler::new(trace);
    let edges = CausalEdges::build(&profiler);
    let adopted_units: BTreeSet<SpanId> = edges.adopted.values().flatten().copied().collect();
    let tops: Vec<&Span> = trace
        .iter_spans()
        .filter(|s| s.parent.is_none() && s.end.is_some() && !adopted_units.contains(&s.id))
        .collect();
    let begin = tops.iter().map(|s| s.begin).min()?;
    let end = tops.iter().filter_map(|s| s.end).max()?;
    // Virtual root: walk the top-level roots as the children of an
    // unnamed containing activity charged to Overhead. `Symbol::NONE`
    // marks it; rendering special-cases it to "run".
    let virtual_root = Span {
        id: SpanId::NONE,
        parent: None,
        category: "run",
        name: Symbol::NONE,
        begin,
        end: Some(end),
        attrs: Vec::new(),
    };
    let mut state = WalkState::new(&profiler, &edges, begin, end);
    state.walk_children(&virtual_root, tops, end);
    state.finish(begin, end)
}

struct WalkState<'p, 'a> {
    profiler: &'p Profiler<'a>,
    edges: &'p CausalEdges,
    lo: SimTime,
    hi: SimTime,
    /// Segments in reverse time order while walking.
    segments: Vec<PathSegment>,
    /// Every span visited as a candidate set member (for slack).
    considered: Vec<SpanId>,
    /// Spans the walk descended into. A span fully covered by its gating
    /// child owns no segment but still lies on the path.
    visited: Vec<SpanId>,
}

impl<'p, 'a> WalkState<'p, 'a> {
    fn new(profiler: &'p Profiler<'a>, edges: &'p CausalEdges, lo: SimTime, hi: SimTime) -> Self {
        WalkState {
            profiler,
            edges,
            lo,
            hi,
            segments: Vec::new(),
            considered: Vec::new(),
            visited: Vec::new(),
        }
    }

    fn push(&mut self, span: &Span, begin: SimTime, end: SimTime) {
        let begin = SimTime(begin.0.max(self.lo.0));
        let end = SimTime(end.0.min(self.hi.0));
        if end <= begin {
            return;
        }
        let (name, phase) = if span.id.is_none() {
            ("run".to_string(), Phase::Overhead)
        } else {
            (
                self.profiler.trace().span_name(span).to_string(),
                self.profiler.effective_phase(span),
            )
        };
        self.segments.push(PathSegment {
            span: span.id,
            name,
            phase,
            begin,
            end,
        });
    }

    /// Charge `[span.begin, clamp_end]` of `span`, descending into the
    /// gating children.
    fn descend(&mut self, span: &Span, clamp_end: SimTime) {
        self.visited.push(span.id);
        let end = SimTime(
            span.end
                .expect("walk only visits completed spans")
                .0
                .min(clamp_end.0),
        );
        let kids = self.edges.children_of(self.profiler, span.id);
        self.walk_children_inner(span, kids, span.begin, end);
    }

    /// Like [`descend`] for the virtual run root (children supplied).
    fn walk_children(&mut self, span: &Span, kids: Vec<&'a Span>, end: SimTime) {
        self.walk_children_inner(span, kids, span.begin, end);
    }

    fn walk_children_inner(
        &mut self,
        span: &Span,
        kids: Vec<&Span>,
        span_begin: SimTime,
        span_end: SimTime,
    ) {
        for k in &kids {
            self.considered.push(k.id);
        }
        let mut t = span_end;
        while t > span_begin {
            // Gating child: the last finisher not after the cursor.
            // Zero-length spans carry no time and are skipped (also
            // guarantees the cursor strictly decreases). Ties broken by
            // later begin then higher id, matching the profiler sweep.
            let gate = kids
                .iter()
                .filter_map(|&c| Some((c, c.end?)))
                .filter(|&(c, ce)| ce <= t && ce > c.begin && ce > span_begin)
                .max_by_key(|&(c, ce)| (ce.0, c.begin.0, c.id.0));
            let Some((gate, gate_end)) = gate else {
                self.push(span, span_begin, t);
                break;
            };
            if gate_end < t {
                // Gap between the gating child's end and the cursor is the
                // parent's own time.
                self.push(span, gate_end, t);
            }
            self.descend(gate, gate_end);
            t = SimTime(gate.begin.0.max(span_begin.0));
        }
    }

    fn finish(mut self, lo: SimTime, hi: SimTime) -> Option<CriticalPath> {
        self.segments.reverse();
        // The walk emits segments back-to-front; adopted spans can overlap
        // tree spans at the boundaries, so clip any overlap in favour of
        // the earlier-emitted (later-time) segment to keep the chain a
        // partition.
        let mut clipped: Vec<PathSegment> = Vec::with_capacity(self.segments.len());
        let mut cursor = lo;
        for mut seg in std::mem::take(&mut self.segments) {
            if seg.begin < cursor {
                seg.begin = cursor;
            }
            if seg.end <= seg.begin {
                continue;
            }
            cursor = seg.end;
            clipped.push(seg);
        }
        let mut phases = PhaseBreakdown::default();
        for seg in &clipped {
            phases.charge(seg.phase, seg.end.0 - seg.begin.0);
        }
        // Uncovered tail/head intervals (an open gap can only appear if the
        // root itself was virtual) are charged to Overhead so the phase
        // total still equals the makespan.
        let covered: u64 = clipped.iter().map(|s| s.end.0 - s.begin.0).sum();
        let span_total = hi.0.saturating_sub(lo.0);
        if covered < span_total {
            phases.charge(Phase::Overhead, span_total - covered);
        }

        // Slack + off-path busy time over the considered set.
        let mut on_path: BTreeSet<SpanId> = clipped.iter().map(|s| s.span).collect();
        on_path.extend(self.visited.iter().copied());
        let mut considered: Vec<SpanId> = std::mem::take(&mut self.considered);
        considered.sort_unstable();
        considered.dedup();
        let mut slack = Vec::new();
        let mut off_path = [SimDuration(0); Phase::ALL.len()];
        let mut min_slack: [Option<SimDuration>; Phase::ALL.len()] = [None; Phase::ALL.len()];
        for id in considered {
            if on_path.contains(&id) {
                continue;
            }
            let Some(span) = self.profiler.trace().span(id) else {
                continue;
            };
            let Some(end) = span.end else { continue };
            let b = span.begin.0.clamp(lo.0, hi.0);
            let e = end.0.clamp(lo.0, hi.0);
            if e <= b {
                continue;
            }
            // Off-path busy time: profile the span's own subtree so nested
            // work lands on its real phases (a skipped `unit.run` shows up
            // as compute + staging, not as one opaque blob). The sweep
            // charges intervals with no active descendant to Overhead;
            // those are this span's self-time, so fold them back into its
            // own phase when it has one.
            let sub = self.profiler.profile(id);
            let phase = self.profiler.effective_phase(span);
            for (idx, &p) in Phase::ALL.iter().enumerate() {
                let mut d = sub.get(p).0;
                if phase != Phase::Overhead {
                    if p == Phase::Overhead {
                        d = 0;
                    } else if p == phase {
                        d += sub.get(Phase::Overhead).0;
                    }
                }
                off_path[idx].0 += d;
            }
            let idx = phase.index();
            // Local slack: distance from this span's end to the end of the
            // critical-path segment its end falls inside.
            let gate_end = clipped
                .iter()
                .find(|s| s.begin.0 < e && e <= s.end.0)
                .map(|s| s.end.0)
                .unwrap_or(e);
            let d = SimDuration(gate_end - e);
            slack.push((id, d));
            min_slack[idx] = Some(match min_slack[idx] {
                Some(cur) if cur <= d => cur,
                _ => d,
            });
        }

        Some(CriticalPath {
            begin: lo,
            end: hi,
            segments: clipped,
            phases,
            slack,
            off_path,
            min_slack,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime(secs * 1_000_000)
    }

    /// Serial chain: the critical path is the whole timeline and matches
    /// the profiler's attribution exactly.
    #[test]
    fn serial_chain_partitions_makespan() {
        let mut tr = Trace::enabled();
        let root = tr.span_begin(t(0), "unit", "unit.run", SpanId::NONE);
        let root_id = root.id();
        let s = tr.span_begin(t(0), "unit", "unit.scheduling", root_id);
        tr.span_end(t(5), s);
        let si = tr.span_begin(t(5), "unit", "unit.stage_in", root_id);
        tr.span_end(t(8), si);
        let ex = tr.span_begin(t(8), "unit", "unit.exec", root_id);
        let c = tr.span_begin(t(8), "unit", "unit.compute", ex.id());
        tr.span_end(t(20), c);
        tr.span_end(t(20), ex);
        let so = tr.span_begin(t(20), "unit", "unit.stage_out", root_id);
        tr.span_end(t(23), so);
        tr.span_end(t(23), root);
        let cp = critical_path(&tr, root_id).unwrap();
        assert_eq!(cp.makespan_secs(), 23.0);
        assert_eq!(cp.phases.total_secs(), 23.0);
        assert_eq!(cp.phases.secs(Phase::QueueWait), 5.0);
        assert_eq!(cp.phases.secs(Phase::StageIn), 3.0);
        assert_eq!(cp.phases.secs(Phase::Compute), 12.0);
        assert_eq!(cp.phases.secs(Phase::StageOut), 3.0);
        let p = crate::profile::profile_span(&tr, root_id);
        for ph in Phase::ALL {
            assert_eq!(cp.phases.secs(ph), p.secs(ph), "{ph:?}");
        }
        // Contiguity: segments tile [0, 23].
        let mut cursor = cp.begin;
        for seg in &cp.segments {
            assert_eq!(seg.begin, cursor);
            cursor = seg.end;
        }
        assert_eq!(cursor, cp.end);
        assert!(cp.slack.is_empty());
    }

    /// Parallel barrier: only the last-finishing map gates the shuffle;
    /// the others carry slack.
    #[test]
    fn barrier_picks_last_finisher_and_assigns_slack() {
        let mut tr = Trace::enabled();
        let job = tr.span_begin(t(0), "mr", "job", SpanId::NONE);
        let job_id = job.id();
        let m1 = tr.span_begin(t(10), "mr", "mr.map", job_id);
        let m1_id = m1.id();
        let m2 = tr.span_begin(t(10), "mr", "mr.map", job_id);
        let m2_id = m2.id();
        let m3 = tr.span_begin(t(10), "mr", "mr.map", job_id);
        let m3_id = m3.id();
        tr.span_end(t(50), m1);
        tr.span_end(t(40), m2);
        tr.span_end(t(20), m3);
        let sh = tr.span_begin(t(50), "mr", "mr.shuffle", job_id);
        tr.span_end(t(80), sh);
        let r = tr.span_begin(t(80), "mr", "mr.reduce", job_id);
        tr.span_end(t(100), r);
        tr.span_end(t(100), job);
        let cp = critical_path(&tr, job_id).unwrap();
        assert_eq!(cp.makespan_secs(), 100.0);
        // Path: job-self [0,10], m1 [10,50], shuffle [50,80], reduce [80,100].
        assert!(cp.on_path(m1_id));
        assert!(!cp.on_path(m2_id));
        assert!(!cp.on_path(m3_id));
        assert_eq!(cp.phases.secs(Phase::Compute), 60.0); // m1 + reduce
        assert_eq!(cp.phases.secs(Phase::Shuffle), 30.0);
        assert_eq!(cp.phases.secs(Phase::Overhead), 10.0);
        // Slack: m2 ends at 40 inside m1's [10,50] segment → 10 s; m3 → 30 s.
        let slack: BTreeMap<SpanId, u64> = cp
            .slack
            .iter()
            .map(|&(id, d)| (id, d.0 / 1_000_000))
            .collect();
        assert_eq!(slack[&m2_id], 10);
        assert_eq!(slack[&m3_id], 30);
        let rows = cp.phase_rows();
        let compute = rows.iter().find(|r| r.phase == Phase::Compute).unwrap();
        assert_eq!(compute.off_path_s, 40.0); // m2 (30) + m3 (10)
        assert_eq!(compute.min_slack_s, Some(10.0));
    }

    /// Pilot → unit adoption: the run-level walk descends from the pilot
    /// into the last-finishing unit, and the unit's first scheduling span
    /// decomposes into the pilot's startup phases.
    #[test]
    fn adoption_attributes_startup_phases_across_roots() {
        let mut tr = Trace::enabled();
        let pr = tr.span_begin(t(0), "pilot", "pilot.run", SpanId::NONE);
        tr.span_attr(pr.id(), "pilot", "0");
        let q = tr.span_begin(t(0), "pilot", "pilot.queue_wait", pr.id());
        tr.span_end(t(10), q);
        let b = tr.span_begin(t(10), "pilot", "pilot.bootstrap", pr.id());
        let y = tr.span_begin(t(12), "yarn", "yarn.startup", b.id());
        tr.span_end(t(40), y);
        tr.span_end(t(40), b);
        // Unit submitted at t=0, picked up once the pilot is active.
        let ur = tr.span_begin(t(0), "unit", "unit.run", SpanId::NONE);
        tr.span_attr(ur.id(), "pilot", "0");
        let s = tr.span_begin(t(0), "unit", "unit.scheduling", ur.id());
        tr.span_end(t(41), s);
        let ex = tr.span_begin(t(41), "unit", "unit.exec", ur.id());
        let c = tr.span_begin(t(41), "unit", "unit.compute", ex.id());
        tr.span_end(t(90), c);
        tr.span_end(t(90), ex);
        tr.span_end(t(90), ur);
        tr.span_end(t(95), pr);
        let cp = critical_path_run(&tr).unwrap();
        assert_eq!(cp.makespan_secs(), 95.0);
        assert_eq!(cp.phases.total_secs(), 95.0);
        // Startup decomposes through the causal edges instead of reading
        // as 41 s of queue wait.
        assert_eq!(cp.phases.secs(Phase::QueueWait), 11.0); // pilot queue 10 + pickup gap 1
        assert_eq!(cp.phases.secs(Phase::PilotBootstrap), 2.0); // 10..12
        assert_eq!(cp.phases.secs(Phase::YarnStartup), 28.0); // 12..40
        assert_eq!(cp.phases.secs(Phase::Compute), 49.0); // 41..90
        assert_eq!(cp.phases.secs(Phase::Overhead), 5.0); // pilot teardown 90..95
    }

    /// Open or missing roots yield no path; zero-length spans are skipped.
    #[test]
    fn degenerate_inputs() {
        let mut tr = Trace::enabled();
        assert!(critical_path_run(&tr).is_none());
        let open = tr.span_begin(t(0), "x", "pilot.run", SpanId::NONE);
        assert!(critical_path(&tr, open.id()).is_none());
        assert!(critical_path(&tr, SpanId(99)).is_none());
        // A root whose only child is zero-length: the whole interval is the
        // root's own time.
        let root = tr.span_begin(t(0), "unit", "unit.run", SpanId::NONE);
        let root_id = root.id();
        let z = tr.span_begin(t(5), "unit", "unit.stage_in", root_id);
        tr.span_end(t(5), z);
        tr.span_end(t(10), root);
        let cp = critical_path(&tr, root_id).unwrap();
        assert_eq!(cp.segments.len(), 1);
        assert_eq!(cp.phases.total_secs(), 10.0);
    }

    /// The run-level path over several independent roots follows the last
    /// finisher backwards across roots.
    #[test]
    fn run_level_walk_spans_multiple_roots() {
        let mut tr = Trace::enabled();
        for (b, e) in [(0u64, 30u64), (5, 60), (10, 45)] {
            let r = tr.span_begin(t(b), "unit", "unit.run", SpanId::NONE);
            let c = tr.span_begin(t(b), "unit", "unit.compute", r.id());
            tr.span_end(t(e), c);
            tr.span_end(t(e), r);
        }
        let cp = critical_path_run(&tr).unwrap();
        assert_eq!(cp.makespan_secs(), 60.0);
        // [5,60] is gated by the last-finishing unit; nothing *finished*
        // before t=5, so [0,5] has no known cause and reads as Overhead.
        assert_eq!(cp.phases.secs(Phase::Compute), 55.0);
        assert_eq!(cp.phases.secs(Phase::Overhead), 5.0);
        assert_eq!(cp.phases.total_secs(), 60.0);
        // The two skipped roots are off-path; their ends fall inside the
        // winner's [5,60] segment.
        let slack: BTreeMap<SpanId, u64> = cp
            .slack
            .iter()
            .map(|&(id, d)| (id, d.0 / 1_000_000))
            .collect();
        assert_eq!(slack.len(), 2);
        assert_eq!(slack[&SpanId(1)], 30); // ended at 30, gate runs to 60
        assert_eq!(slack[&SpanId(5)], 15); // ended at 45
                                           // Their compute time lands on the Compute phase via the subtree
                                           // profile, not on Overhead.
        let rows = cp.phase_rows();
        let compute = rows.iter().find(|r| r.phase == Phase::Compute).unwrap();
        assert_eq!(compute.off_path_s, 65.0); // 30 + 35
    }
}
