//! Uniform run reports: labelled phase breakdowns rendered as an aligned
//! table or as JSON. Benches and examples all emit their Fig. 5 / Fig. 6
//! style decompositions through this one type. A report can also carry a
//! critical-path section ([`RunReport::push_critical`]): the per-phase
//! on-path / off-path / slack attribution from [`crate::critpath`],
//! rendered alongside the wall-clock sweep in both formats.

use crate::critpath::{CritPhaseRow, CriticalPath};
use crate::profile::{Phase, PhaseBreakdown};
use crate::trace::escape_json;

/// One labelled critical-path attribution (see [`CriticalPath`]).
#[derive(Debug, Clone)]
pub struct CritSummary {
    pub label: String,
    pub makespan_s: f64,
    pub rows: Vec<CritPhaseRow>,
}

/// A set of labelled [`PhaseBreakdown`] rows (one per experiment case),
/// plus optional critical-path summaries.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    pub title: String,
    rows: Vec<(String, PhaseBreakdown)>,
    critical: Vec<CritSummary>,
}

impl RunReport {
    pub fn new(title: impl Into<String>) -> Self {
        RunReport {
            title: title.into(),
            rows: Vec::new(),
            critical: Vec::new(),
        }
    }

    pub fn push(&mut self, label: impl Into<String>, breakdown: PhaseBreakdown) {
        self.rows.push((label.into(), breakdown));
    }

    /// Attach a critical-path attribution for one case.
    pub fn push_critical(&mut self, label: impl Into<String>, cp: &CriticalPath) {
        self.critical.push(CritSummary {
            label: label.into(),
            makespan_s: cp.makespan_secs(),
            rows: cp.phase_rows(),
        });
    }

    pub fn rows(&self) -> &[(String, PhaseBreakdown)] {
        &self.rows
    }

    pub fn critical(&self) -> &[CritSummary] {
        &self.critical
    }

    /// Phases that are non-zero in at least one row (the table only
    /// carries these columns).
    fn active_phases(&self) -> Vec<Phase> {
        Phase::ALL
            .iter()
            .copied()
            .filter(|&p| self.rows.iter().any(|(_, b)| b.get(p).0 > 0))
            .collect()
    }

    /// Header + body cells of the phase table, in seconds to 0.1 s.
    fn phase_matrix(&self) -> (Vec<String>, Vec<Vec<String>>) {
        let phases = self.active_phases();
        let mut header: Vec<String> = vec!["case".into()];
        header.extend(phases.iter().map(|p| p.label().to_string()));
        header.push("total".into());
        let body = self
            .rows
            .iter()
            .map(|(label, b)| {
                let mut row = vec![label.clone()];
                row.extend(phases.iter().map(|&p| format!("{:.1}", b.secs(p))));
                row.push(format!("{:.1}", b.total_secs()));
                row
            })
            .collect();
        (header, body)
    }

    /// Header + body cells of the critical-path table, or `None` when no
    /// critical-path summaries were attached.
    fn crit_matrix(&self) -> Option<(Vec<String>, Vec<Vec<String>>)> {
        if self.critical.is_empty() {
            return None;
        }
        let header: Vec<String> = ["case", "phase", "path", "off_path", "min_slack"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut body = Vec::new();
        for c in &self.critical {
            for r in &c.rows {
                body.push(vec![
                    c.label.clone(),
                    r.phase.label().to_string(),
                    format!("{:.1}", r.path_s),
                    format!("{:.1}", r.off_path_s),
                    r.min_slack_s
                        .map(|s| format!("{s:.1}"))
                        .unwrap_or_else(|| "-".into()),
                ]);
            }
            body.push(vec![
                c.label.clone(),
                "total".into(),
                format!("{:.1}", c.makespan_s),
                format!("{:.1}", c.rows.iter().map(|r| r.off_path_s).sum::<f64>()),
                "-".into(),
            ]);
        }
        Some((header, body))
    }

    /// Aligned text table, durations in seconds.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("{}\n", self.title));
        }
        let (header, body) = self.phase_matrix();
        out.push_str(&render_aligned(&header, &body));
        if let Some((header, body)) = self.crit_matrix() {
            out.push_str("critical path (s on path / s off path / min slack)\n");
            out.push_str(&render_aligned(&header, &body));
        }
        out
    }

    /// JSON export: every phase (including zeros) per row, in seconds,
    /// plus the critical-path summaries (empty array when none).
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"title\":\"{}\",\"rows\":[", escape_json(&self.title));
        for (i, (label, b)) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"case\":\"{}\"", escape_json(label)));
            for p in Phase::ALL {
                out.push_str(&format!(",\"{}\":{:.6}", p.label(), b.secs(p)));
            }
            out.push_str(&format!(",\"total\":{:.6}}}", b.total_secs()));
        }
        out.push_str("],\"critical\":[");
        for (i, c) in self.critical.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"case\":\"{}\",\"makespan\":{:.6},\"phases\":[",
                escape_json(&c.label),
                c.makespan_s
            ));
            for (j, r) in c.rows.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let slack = match r.min_slack_s {
                    Some(s) => format!("{s:.6}"),
                    None => "null".into(),
                };
                out.push_str(&format!(
                    "{{\"phase\":\"{}\",\"path\":{:.6},\"off_path\":{:.6},\"min_slack\":{}}}",
                    r.phase.label(),
                    r.path_s,
                    r.off_path_s,
                    slack
                ));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

/// Render cells as an aligned text table: first column left-aligned, the
/// rest right-aligned, a dashed rule under the header.
fn render_aligned(header: &[String], body: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in body {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let render_row = |cells: &[String]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i == 0 {
                line.push_str(&format!("{cell:<width$}", width = widths[0]));
            } else {
                line.push_str(&format!("  {cell:>width$}", width = widths[i]));
            }
        }
        line.push('\n');
        line
    };
    let mut out = render_row(header);
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in body {
        out.push_str(&render_row(row));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use crate::trace::{SpanId, Trace};

    fn breakdown() -> PhaseBreakdown {
        let mut tr = Trace::enabled();
        let root = tr.span_begin(SimTime(0), "pilot", "pilot.run", SpanId::NONE);
        let root_id = root.id();
        let q = tr.span_begin(SimTime(0), "pilot", "pilot.queue_wait", root_id);
        tr.span_end(SimTime(10_000_000), q);
        tr.span_end(SimTime(25_000_000), root);
        crate::profile::profile_span(&tr, root_id)
    }

    fn crit_trace() -> (Trace, SpanId) {
        let mut tr = Trace::enabled();
        let job = tr.span_begin(SimTime(0), "mr", "job", SpanId::NONE);
        let job_id = job.id();
        let m1 = tr.span_begin(SimTime(0), "mr", "mr.map", job_id);
        let m2 = tr.span_begin(SimTime(0), "mr", "mr.map", job_id);
        tr.span_end(SimTime(50_000_000), m1);
        tr.span_end(SimTime(20_000_000), m2);
        let r = tr.span_begin(SimTime(50_000_000), "mr", "mr.reduce", job_id);
        tr.span_end(SimTime(80_000_000), r);
        tr.span_end(SimTime(80_000_000), job);
        (tr, job_id)
    }

    #[test]
    fn table_has_header_rule_and_rows() {
        let mut r = RunReport::new("fig5");
        r.push("stampede/mode-i", breakdown());
        r.push("comet/mode-ii", breakdown());
        let t = r.render_table();
        assert!(t.starts_with("fig5\n"));
        assert!(t.contains("queue_wait") && t.contains("overhead") && t.contains("total"));
        // Zero-everywhere phases are dropped from the table.
        assert!(!t.contains("shuffle"));
        assert_eq!(t.lines().count(), 5); // title + header + rule + 2 rows
        assert!(t.contains("stampede/mode-i"));
    }

    #[test]
    fn csv_and_json_are_consistent() {
        let mut r = RunReport::new("x");
        r.push("a,b", breakdown());
        let t = r.render_table();
        assert!(t.contains("case  queue_wait  overhead  total\n"));
        assert!(t.contains("a,b         10.0      15.0   25.0\n"));
        let json = r.to_json();
        assert!(json.contains("\"case\":\"a,b\""));
        assert!(json.contains("\"queue_wait\":10.000000"));
        assert!(json.contains("\"shuffle\":0.000000")); // JSON keeps zeros
        assert!(json.contains("\"total\":25.000000"));
        assert!(json.ends_with("\"critical\":[]}"));
        crate::json::parse(&json).expect("report JSON parses");
    }

    #[test]
    fn empty_report_renders() {
        let r = RunReport::new("");
        let t = r.render_table();
        assert_eq!(t, "case  total\n-----------\n");
    }

    #[test]
    fn critical_section_appears_in_all_formats() {
        let (tr, job) = crit_trace();
        let cp = crate::critpath::critical_path(&tr, job).unwrap();
        let mut r = RunReport::new("crit");
        r.push("mr", crate::profile::profile_span(&tr, job));
        r.push_critical("mr", &cp);
        assert_eq!(r.critical().len(), 1);
        assert_eq!(r.critical()[0].makespan_s, 80.0);

        let t = r.render_table();
        assert!(t.contains("critical path"));
        assert!(t.contains("min_slack"));
        // Compute: on-path m1 (50) + reduce (30); off-path m2 (20), slack 30.
        assert!(t.contains("mr    compute  80.0      20.0       30.0\n"));
        assert!(t.contains("mr      total  80.0      20.0          -\n"));

        let json = r.to_json();
        let v = crate::json::parse(&json).expect("report JSON parses");
        let crit = v.get("critical").and_then(|c| c.as_array()).unwrap();
        assert_eq!(crit.len(), 1);
        assert_eq!(crit[0].get("makespan").and_then(|m| m.as_f64()), Some(80.0));
        let phases = crit[0].get("phases").and_then(|p| p.as_array()).unwrap();
        let compute = phases
            .iter()
            .find(|p| p.get("phase").and_then(|n| n.as_str()) == Some("compute"))
            .unwrap();
        assert_eq!(compute.get("path").and_then(|x| x.as_f64()), Some(80.0));
        assert_eq!(compute.get("off_path").and_then(|x| x.as_f64()), Some(20.0));
        assert_eq!(
            compute.get("min_slack").and_then(|x| x.as_f64()),
            Some(30.0)
        );
    }
}
