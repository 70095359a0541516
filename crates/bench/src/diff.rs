//! Regression attribution between two bench artifacts or Chrome traces.
//!
//! The `trace_diff` binary and the fixed-point tests (on a mismatch) call
//! [`diff_documents`]: parse two JSON documents, sniff whether they are
//! `BENCH_*.json` artifacts or Chrome trace-event arrays, reduce each side
//! to comparable per-phase totals, and attribute the makespan /
//! throughput delta to the phases and critical-path segments that moved.
//! Two Chrome traces are also walked record by record, so the report
//! names the first span record where the runs part
//! ([`DiffReport::divergence`]);
//! [`diff_values`] lists every dotted path at which two JSON values
//! differ.
//!
//! Attribution is direction-aware: every compared quantity is classified
//! as regressed (candidate larger), improved (candidate smaller), new
//! (only in the candidate), or vanished (only in the baseline), and the
//! human rendering leads with the largest movers so "which phase did the
//! regression land in?" is the first line of output, not an exercise for
//! the reader.

use std::collections::BTreeMap;

use rp_sim::json::{self, Value};

/// Deltas no larger than this (seconds for durations, absolute units for
/// counters) are noise, not movement. `{:.6}` artifact formatting means
/// anything under a microsecond is a rounding artifact by construction.
pub const EPS: f64 = 1e-6;

/// Direction of one compared quantity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Change {
    Regressed,
    Improved,
    New,
    Vanished,
    Unchanged,
}

impl Change {
    pub fn label(self) -> &'static str {
        match self {
            Change::Regressed => "regressed",
            Change::Improved => "improved",
            Change::New => "new",
            Change::Vanished => "vanished",
            Change::Unchanged => "unchanged",
        }
    }
}

/// One compared quantity: a label plus the value on each side (`None`
/// when the label exists on only one side).
#[derive(Debug, Clone)]
pub struct Entry {
    pub label: String,
    pub base: Option<f64>,
    pub cand: Option<f64>,
}

impl Entry {
    /// Signed movement, treating a missing side as zero (a new span
    /// contributes its whole duration; a vanished one subtracts it).
    pub fn delta(&self) -> f64 {
        self.cand.unwrap_or(0.0) - self.base.unwrap_or(0.0)
    }

    /// Classification is [`EPS`]-gated across the board: a label present
    /// on only one side but worth 0.0 is layout noise (a phase column that
    /// happens to be empty), not a new or vanished quantity.
    pub fn change(&self) -> Change {
        if self.delta().abs() <= EPS {
            Change::Unchanged
        } else {
            match (self.base, self.cand) {
                (None, Some(_)) => Change::New,
                (Some(_), None) => Change::Vanished,
                _ if self.delta() > 0.0 => Change::Regressed,
                _ => Change::Improved,
            }
        }
    }
}

/// One comparison section: a titled list of entries measured in `unit`.
#[derive(Debug, Clone)]
pub struct Section {
    pub title: &'static str,
    pub unit: &'static str,
    pub entries: Vec<Entry>,
}

impl Section {
    fn changed(&self) -> Vec<&Entry> {
        let mut moved: Vec<&Entry> = self
            .entries
            .iter()
            .filter(|e| e.change() != Change::Unchanged)
            .collect();
        moved.sort_by(|a, b| {
            b.delta()
                .abs()
                .partial_cmp(&a.delta().abs())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.label.cmp(&b.label))
        });
        moved
    }
}

/// The full two-sided comparison. `host` sections are informational
/// (machine-dependent timings); everything else is virtual-time and so
/// should be empty of changes between runs of identical code.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// `"artifact"` or `"chrome"`.
    pub kind: &'static str,
    /// Virtual-time sections, in attribution priority order.
    pub sections: Vec<Section>,
    /// Host-side observations (medians, throughput): never part of
    /// [`DiffReport::is_clean`], rendered for context only.
    pub host: Section,
    /// Chrome traces only: the first span record (`ph` `b` or `e`) at
    /// which the runs part, with both traces in `(ts, export position)`
    /// order. Both runs are deterministic, so every record before it is
    /// identical. Each side is rendered with its ancestor span chain and
    /// the `unit` and `pilot` attributes of the nearest span that carries
    /// them, or as `end of trace`.
    pub divergence: Option<String>,
}

impl DiffReport {
    /// True when no virtual-time quantity moved beyond [`EPS`]. Host
    /// timings are excluded — they vary run to run by construction.
    pub fn is_clean(&self) -> bool {
        self.sections
            .iter()
            .all(|s| s.entries.iter().all(|e| e.change() == Change::Unchanged))
    }

    /// The single largest virtual-time mover (by |delta|), if any: the
    /// headline of the attribution. Searches sections in order, so phase
    /// totals outrank critical-path segments outrank counters.
    pub fn top_mover(&self) -> Option<(&'static str, &Entry)> {
        for s in &self.sections {
            if let Some(e) = s.changed().first() {
                return Some((s.title, e));
            }
        }
        None
    }

    /// One-line verdict naming the top mover, e.g.
    /// `phase totals: fault_matrix/compute regressed +120.000000s`.
    pub fn headline(&self) -> String {
        match self.top_mover() {
            Some((title, e)) => format!(
                "{title}: {} {} {:+.6}{}",
                e.label,
                e.change().label(),
                e.delta(),
                self.sections
                    .iter()
                    .find(|s| s.title == title)
                    .map(|s| s.unit)
                    .unwrap_or("")
            ),
            None => "no virtual-time differences".to_string(),
        }
    }

    /// Aligned human rendering: headline first, then every section's
    /// movers sorted by |delta|, then host context.
    pub fn render_table(&self) -> String {
        let mut out = format!("trace_diff ({}): {}\n", self.kind, self.headline());
        out.push_str(self.divergence.as_deref().unwrap_or(""));
        for s in &self.sections {
            let moved = s.changed();
            if moved.is_empty() {
                continue;
            }
            out.push_str(&format!("{} ({}):\n", s.title, s.unit));
            for e in moved {
                out.push_str(&format!(
                    "  {:<40} {:>14} -> {:<14} {:+.6} {}\n",
                    e.label,
                    fmt_side(e.base),
                    fmt_side(e.cand),
                    e.delta(),
                    e.change().label()
                ));
            }
        }
        if !self.host.entries.is_empty() {
            out.push_str(&format!(
                "{} ({}, informational):\n",
                self.host.title, self.host.unit
            ));
            for e in &self.host.entries {
                out.push_str(&format!(
                    "  {:<40} {:>14} -> {:<14} {:+.3}\n",
                    e.label,
                    fmt_side(e.base),
                    fmt_side(e.cand),
                    e.delta()
                ));
            }
        }
        out
    }
}

fn fmt_side(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.6}"),
        None => "-".to_string(),
    }
}

/// Two-sided label -> value accumulator (side 0 = baseline, 1 = candidate).
#[derive(Default)]
struct Pairs(BTreeMap<String, [Option<f64>; 2]>);

impl Pairs {
    fn add(&mut self, side: usize, label: impl Into<String>, v: f64) {
        let slot = &mut self.0.entry(label.into()).or_default()[side];
        *slot = Some(slot.unwrap_or(0.0) + v);
    }

    fn into_section(self, title: &'static str, unit: &'static str) -> Section {
        Section {
            title,
            unit,
            entries: self
                .0
                .into_iter()
                .map(|(label, [base, cand])| Entry { label, base, cand })
                .collect(),
        }
    }
}

/// Recursive exact diff of two JSON values: appends to `out` one line per
/// dotted path at which `b` (the candidate) differs from `a`.
pub fn diff_values(path: &str, a: &Value, b: &Value, out: &mut Vec<String>) {
    match (a, b) {
        (Value::Object(fa), Value::Object(fb)) => {
            for (k, va) in fa {
                match b.get(k) {
                    Some(vb) => diff_values(&format!("{path}.{k}"), va, vb, out),
                    None => out.push(format!("{path}.{k}: missing in candidate")),
                }
            }
            for (k, _) in fb {
                if a.get(k).is_none() {
                    out.push(format!("{path}.{k}: unexpected in candidate"));
                }
            }
        }
        (Value::Array(xa), Value::Array(xb)) => {
            if xa.len() != xb.len() {
                out.push(format!(
                    "{path}: length {} != {} in candidate",
                    xa.len(),
                    xb.len()
                ));
            }
            for (i, (va, vb)) in xa.iter().zip(xb).enumerate() {
                diff_values(&format!("{path}[{i}]"), va, vb, out);
            }
        }
        _ if a == b => {}
        _ => out.push(format!("{path}: expected {}, got {}", brief(a), brief(b))),
    }
}

/// A value in a few characters: scalars as written, containers by size.
pub fn brief(v: &Value) -> String {
    match v {
        Value::Null => "null".into(),
        Value::Bool(b) => b.to_string(),
        Value::Number(n) => format!("{n}"),
        Value::String(s) => format!("{s:?}"),
        Value::Array(items) => format!("[{} items]", items.len()),
        Value::Object(fields) => format!("{{{} fields}}", fields.len()),
    }
}

/// Parse both documents, sniff their kind, and diff. Errors on malformed
/// JSON or mismatched kinds (an artifact cannot be diffed against a
/// Chrome trace — the reductions are not comparable).
pub fn diff_documents(base: &str, cand: &str) -> Result<DiffReport, String> {
    let b = json::parse(base).map_err(|e| format!("baseline: {e}"))?;
    let c = json::parse(cand).map_err(|e| format!("candidate: {e}"))?;
    match (&b, &c) {
        (Value::Object(_), Value::Object(_)) => diff_artifacts(&b, &c),
        (Value::Array(_), Value::Array(_)) => diff_chrome(&b, &c),
        _ => Err(
            "kind mismatch: one side is a BENCH_*.json artifact (object), \
                  the other a Chrome trace (array)"
                .to_string(),
        ),
    }
}

fn num(v: &Value, path: &str) -> Result<f64, String> {
    v.as_f64()
        .ok_or_else(|| format!("{path}: expected a number"))
}

/// Diff two `BENCH_*.json` artifact documents: makespan, per-case phase
/// totals, critical-path segments, virtual counters, host medians.
pub fn diff_artifacts(base: &Value, cand: &Value) -> Result<DiffReport, String> {
    let mut makespan = Pairs::default();
    let mut phases = Pairs::default();
    let mut critical = Pairs::default();
    let mut counters = Pairs::default();
    let mut host = Pairs::default();
    for (side, doc) in [base, cand].into_iter().enumerate() {
        let virt = doc
            .get("virtual")
            .ok_or_else(|| format!("side {side}: missing `virtual` section"))?;
        if let Some(m) = virt.get("makespan_s") {
            makespan.add(side, "makespan", num(m, "virtual.makespan_s")?);
        }
        if let Some(rows) = virt
            .get("report")
            .and_then(|r| r.get("rows"))
            .and_then(Value::as_array)
        {
            for row in rows {
                let case = row.get("case").and_then(Value::as_str).unwrap_or("?");
                for (k, v) in row.as_object().into_iter().flatten() {
                    if k == "case" || k == "total" {
                        continue;
                    }
                    if let Some(secs) = v.as_f64() {
                        phases.add(side, format!("{case}/{k}"), secs);
                    }
                }
            }
        }
        if let Some(crit) = virt
            .get("report")
            .and_then(|r| r.get("critical"))
            .and_then(Value::as_array)
        {
            for c in crit {
                let case = c.get("case").and_then(Value::as_str).unwrap_or("?");
                for ph in c
                    .get("phases")
                    .and_then(Value::as_array)
                    .into_iter()
                    .flatten()
                {
                    let name = ph.get("phase").and_then(Value::as_str).unwrap_or("?");
                    if let Some(path_s) = ph.get("path").and_then(Value::as_f64) {
                        critical.add(side, format!("{case}/{name}"), path_s);
                    }
                }
            }
        }
        for (k, v) in virt
            .get("counters")
            .and_then(Value::as_object)
            .into_iter()
            .flatten()
        {
            if let Some(n) = v.as_f64() {
                counters.add(side, k.clone(), n);
            }
        }
        for key in ["median_ms", "p95_ms", "events_per_sec"] {
            if let Some(v) = doc
                .get("host")
                .and_then(|h| h.get(key))
                .and_then(Value::as_f64)
            {
                host.add(side, key, v);
            }
        }
    }
    Ok(DiffReport {
        kind: "artifact",
        sections: vec![
            phases.into_section("phase totals", "s"),
            critical.into_section("critical path", "s"),
            makespan.into_section("makespan", "s"),
            counters.into_section("counters", ""),
        ],
        host: host.into_section("host timings", "ms"),
        divergence: None,
    })
}

/// Diff two Chrome trace-event arrays. Spans are reconstructed by pairing
/// `ph:"b"` / `ph:"e"` events on their `id` (the export writes the pair
/// adjacently, but pairing by id tolerates any interleaving) and reduced
/// to per-name event counts and total duration — the same aggregation
/// [`rp_sim::trace::Trace::name_totals`] computes engine-side. The span
/// records are then compared one by one for [`DiffReport::divergence`].
pub fn diff_chrome(base: &Value, cand: &Value) -> Result<DiffReport, String> {
    let mut spans = Pairs::default();
    let mut counts = Pairs::default();
    let mut makespan = Pairs::default();
    let mut sides = Vec::with_capacity(2);
    for (side, doc) in [base, cand].into_iter().enumerate() {
        let mut records = SpanRecords::default();
        let mut open: BTreeMap<&str, (&str, f64)> = BTreeMap::new();
        let mut last_ts: f64 = 0.0;
        for (pos, ev) in doc.as_array().unwrap_or(&[]).iter().enumerate() {
            let ts = ev.get("ts").and_then(Value::as_f64).unwrap_or(0.0);
            let ph = field(ev, "ph");
            if matches!(ph, "b" | "e" | "i") {
                last_ts = last_ts.max(ts);
            }
            match ph {
                "b" => {
                    open.insert(field(ev, "id"), (field(ev, "name"), ts));
                    records.begins.insert(field(ev, "id"), ev);
                }
                "e" => {
                    if let Some((name, begin)) = open.remove(field(ev, "id")) {
                        spans.add(side, name, (ts - begin) / 1e6);
                        counts.add(side, name, 1.0);
                    }
                }
                _ => continue,
            }
            records.order.push((ts, pos, ev));
        }
        if !open.is_empty() {
            return Err(format!(
                "side {side}: {} span begin event(s) with no matching end",
                open.len()
            ));
        }
        makespan.add(side, "last_event", last_ts / 1e6);
        records
            .order
            .sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        sides.push(records);
    }
    let (b, c) = (&sides[0], &sides[1]);
    let len = b.order.len().max(c.order.len());
    let divergence = (0..len).find(|&i| b.record(i) != c.record(i)).map(|i| {
        format!(
            "first divergent span record (#{i} in ts order):\n  baseline:  {}\n  candidate: {}\n",
            b.describe(i),
            c.describe(i)
        )
    });
    Ok(DiffReport {
        kind: "chrome",
        sections: vec![
            spans.into_section("span totals", "s"),
            makespan.into_section("makespan", "s"),
            counts.into_section("span counts", ""),
        ],
        host: Section {
            title: "host timings",
            unit: "ms",
            entries: Vec::new(),
        },
        divergence,
    })
}

/// One Chrome trace's span records in `(ts, export position)` order, and
/// its begin records by span id for walking ancestor chains.
#[derive(Default)]
struct SpanRecords<'a> {
    order: Vec<(f64, usize, &'a Value)>,
    begins: BTreeMap<&'a str, &'a Value>,
}

impl SpanRecords<'_> {
    fn record(&self, i: usize) -> Option<&Value> {
        self.order.get(i).map(|r| r.2)
    }

    /// `e unit.exec 0x46 at 52.854137s; ancestors: unit.run 0xd; unit=5; pilot=0`.
    fn describe(&self, i: usize) -> String {
        let Some(&(ts, _, rec)) = self.order.get(i) else {
            return "end of trace".to_string();
        };
        let id = field(rec, "id");
        let mut tags = [("unit", ""), ("pilot", "")];
        let mut chain = Vec::new();
        let mut span = self.begins.get(id).copied();
        while let Some(begin) = span {
            let args = begin.get("args").unwrap_or(&Value::Null);
            for (key, tag) in &mut tags {
                if tag.is_empty() {
                    *tag = field(args, key);
                }
            }
            let parent = field(args, "parent");
            // The length bound stops a malformed parent cycle.
            if parent.is_empty() || chain.len() > self.begins.len() {
                break;
            }
            span = self.begins.get(parent).copied();
            chain.push(format!(
                "{} {parent}",
                span.map_or("?", |s| field(s, "name"))
            ));
        }
        let mut out = format!(
            "{} {} {id} at {:.6}s; ancestors: {}",
            field(rec, "ph"),
            field(rec, "name"),
            ts / 1e6,
            if chain.is_empty() {
                "none".to_string()
            } else {
                chain.join(" < ")
            }
        );
        for (key, tag) in tags {
            out.push_str(&format!(
                "; {key}={}",
                if tag.is_empty() { "-" } else { tag }
            ));
        }
        out
    }
}

/// The string field `key` of `v`, or `""`.
fn field<'v>(v: &'v Value, key: &str) -> &'v str {
    v.get(key).and_then(Value::as_str).unwrap_or("")
}

#[cfg(test)]
mod tests {
    use super::*;

    const ART: &str = r#"{"schema":1,"scenario":"x","virtual":{"makespan_s":10.0,
        "counters":{"a":2,"b":3},
        "report":{"title":"t","rows":[{"case":"c1","compute":6.0,"stage_in":4.0,"total":10.0}],
        "critical":[{"case":"c1","makespan":10.0,
        "phases":[{"phase":"compute","path":6.0,"off_path":0.0,"min_slack":null}]}]}},
        "host":{"reps":3,"median_ms":5.0,"p95_ms":6.0,"min_ms":4.0,"max_ms":7.0}}"#;

    fn perturbed() -> String {
        ART.replace("6.0", "8.5").replace("10.0", "12.5")
    }

    #[test]
    fn self_diff_is_clean() {
        let d = diff_documents(ART, ART).expect("diff");
        assert!(d.is_clean());
        assert_eq!(d.headline(), "no virtual-time differences");
    }

    #[test]
    fn artifact_diff_names_the_moved_phase() {
        let d = diff_documents(ART, &perturbed()).expect("diff");
        assert!(!d.is_clean());
        let (section, top) = d.top_mover().expect("a mover");
        assert_eq!(section, "phase totals");
        assert_eq!(top.label, "c1/compute");
        assert_eq!(top.change(), Change::Regressed);
        assert!((top.delta() - 2.5).abs() < 1e-9);
        assert!(d.headline().contains("c1/compute"));
        // Host medians are identical here and never count as movement.
        let rendered = d.render_table();
        assert!(rendered.contains("regressed"));
    }

    #[test]
    fn new_and_vanished_counters_are_classified() {
        let cand = ART.replace(r#""a":2,"b":3"#, r#""b":3,"c":9"#);
        let d = diff_documents(ART, &cand).expect("diff");
        let counters = d
            .sections
            .iter()
            .find(|s| s.title == "counters")
            .expect("counters section");
        let by_label = |l: &str| {
            counters
                .entries
                .iter()
                .find(|e| e.label == l)
                .expect("entry")
        };
        assert_eq!(by_label("a").change(), Change::Vanished);
        assert_eq!(by_label("c").change(), Change::New);
        assert_eq!(by_label("b").change(), Change::Unchanged);
    }

    #[test]
    fn chrome_diff_pairs_spans_by_id() {
        let base = r#"[{"name":"u","ph":"b","ts":0,"id":"0x1"},
                       {"name":"u","ph":"e","ts":2000000,"id":"0x1"}]"#;
        let cand = r#"[{"name":"u","ph":"b","ts":0,"id":"0x1"},
                       {"name":"u","ph":"e","ts":3000000,"id":"0x1"},
                       {"name":"v","ph":"b","ts":0,"id":"0x2"},
                       {"name":"v","ph":"e","ts":1000000,"id":"0x2"}]"#;
        let d = diff_documents(base, cand).expect("diff");
        assert_eq!(d.kind, "chrome");
        let (section, top) = d.top_mover().expect("mover");
        assert_eq!(section, "span totals");
        assert_eq!(top.label, "u");
        assert!((top.delta() - 1.0).abs() < 1e-9);
        let spans = &d.sections[0];
        let v = spans.entries.iter().find(|e| e.label == "v").expect("v");
        assert_eq!(v.change(), Change::New);
    }

    #[test]
    fn diff_values_names_every_moved_path() {
        let (a, b) = (
            json::parse(ART).unwrap(),
            json::parse(&perturbed()).unwrap(),
        );
        let mut moved = Vec::new();
        diff_values("doc", &a, &a, &mut moved);
        assert!(moved.is_empty(), "{moved:?}");
        diff_values(
            "doc",
            a.get("virtual").unwrap(),
            b.get("virtual").unwrap(),
            &mut moved,
        );
        assert_eq!(
            moved,
            [
                "doc.makespan_s: expected 10, got 12.5",
                "doc.report.rows[0].compute: expected 6, got 8.5",
                "doc.report.rows[0].total: expected 10, got 12.5",
                "doc.report.critical[0].makespan: expected 10, got 12.5",
                "doc.report.critical[0].phases[0].path: expected 6, got 8.5",
            ]
        );
    }

    #[test]
    fn chrome_diff_names_the_first_divergent_record_and_its_ancestors() {
        let trace = |exec_end: u64| {
            format!(
                r#"[{{"name":"pilot.run","ph":"b","ts":0,"id":"0x1","args":{{"pilot":"0"}}}},
                   {{"name":"pilot.run","ph":"e","ts":9000000,"id":"0x1"}},
                   {{"name":"unit.run","ph":"b","ts":0,"id":"0x2","args":{{"unit":"7","pilot":"0"}}}},
                   {{"name":"unit.run","ph":"e","ts":{},"id":"0x2"}},
                   {{"name":"unit.exec","ph":"b","ts":1000000,"id":"0x3","args":{{"parent":"0x2"}}}},
                   {{"name":"unit.exec","ph":"e","ts":{exec_end},"id":"0x3"}}]"#,
                exec_end + 1_000_000
            )
        };
        let same = diff_documents(&trace(4_000_000), &trace(4_000_000)).expect("diff");
        assert_eq!(same.divergence, None);
        let d = diff_documents(&trace(4_000_000), &trace(4_500_000)).expect("diff");
        // Record #3: the pilot and unit begins before it still match.
        let div = "first divergent span record (#3 in ts order):\n  \
            baseline:  e unit.exec 0x3 at 4.000000s; ancestors: unit.run 0x2; unit=7; pilot=0\n  \
            candidate: e unit.exec 0x3 at 4.500000s; ancestors: unit.run 0x2; unit=7; pilot=0\n";
        assert_eq!(d.divergence.as_deref(), Some(div));
        assert!(d.render_table().contains(div));
    }

    #[test]
    fn kind_mismatch_and_dangling_span_error() {
        assert!(diff_documents(ART, "[]").is_err());
        let dangling = r#"[{"name":"u","ph":"b","ts":0,"id":"0x1"}]"#;
        assert!(diff_documents(dangling, dangling).is_err());
    }
}
