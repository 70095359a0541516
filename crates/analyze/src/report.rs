//! Findings, text/JSON rendering, and the `--explain` rule catalog.

/// One lint finding. `fatal` findings fail the pass; waived or
/// informational findings are reported but do not affect the exit code.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
    pub waived: bool,
    pub fatal: bool,
}

impl Finding {
    pub fn new(rule: &'static str, file: &str, line: u32, message: impl Into<String>) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line,
            message: message.into(),
            waived: false,
            fatal: true,
        }
    }

    pub fn info(mut self) -> Finding {
        self.fatal = false;
        self
    }

    pub fn waived(mut self) -> Finding {
        self.waived = true;
        self.fatal = false;
        self
    }
}

#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
}

impl Report {
    pub fn push(&mut self, f: Finding) {
        self.findings.push(f);
    }

    pub fn fatal_count(&self) -> usize {
        self.findings.iter().filter(|f| f.fatal).count()
    }

    /// Sort for stable output: file, line, rule.
    pub fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    }

    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let tag = if f.waived {
                "waived"
            } else if f.fatal {
                "error"
            } else {
                "note"
            };
            out.push_str(&format!(
                "{tag}[{}] {}:{}: {}\n",
                f.rule, f.file, f.line, f.message
            ));
        }
        out.push_str(&format!(
            "rp_lint: {} finding(s), {} fatal, {} waived\n",
            self.findings.len(),
            self.fatal_count(),
            self.findings.iter().filter(|f| f.waived).count()
        ));
        out
    }

    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"version\": 1,\n  \"rules\": [");
        for (i, r) in RULES.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\"", escape(r)));
        }
        out.push_str("],\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\", \"waived\": {}, \"fatal\": {}}}",
                escape(f.rule),
                escape(&f.file),
                f.line,
                escape(&f.message),
                f.waived,
                f.fatal
            ));
        }
        out.push_str(&format!(
            "\n  ],\n  \"summary\": {{\"total\": {}, \"fatal\": {}, \"waived\": {}}}\n}}\n",
            self.findings.len(),
            self.fatal_count(),
            self.findings.iter().filter(|f| f.waived).count()
        ));
        out
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// All rule names, for `--explain` listing and waiver validation.
pub const RULES: &[&str] = &[
    "state-machine",
    "hash-iter",
    "wallclock",
    "unwrap-ratchet",
    "stale-waiver",
];

/// Long-form documentation shown by `--explain <rule>`.
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        "state-machine" => {
            "state-machine: CU/pilot lifecycle conformance.\n\
             Parses the `can_transition_to` tables in crates/core/src/states.rs\n\
             into the legal-edge set, then extracts every literal transition the\n\
             workspace exercises: consecutive `.advance(_, State::X)` calls on the\n\
             same receiver at the same block depth form source->target chains\n\
             (`Guarded::<S>::new()` seeds a chain at New), `for s in [A, B, ...]`\n\
             loops over state arrays chain their elements, and positive\n\
             `A.can_transition_to(B)` assertions count as exercised edges.\n\
             Errors: a chained pair the table forbids (illegal transition), and a\n\
             table edge no call site exercises (dead transition). The analysis is\n\
             lexical and approximate: it assumes statements between two advance\n\
             calls do not themselves advance the receiver. Waive a deliberate\n\
             exception with `// rp-lint: allow(state-machine)`.\n\
             `--emit-dot <dir>` renders both lifecycles as Graphviz."
        }
        "hash-iter" => {
            "hash-iter: trace-order nondeterminism from hash iteration.\n\
             HashMap/HashSet iteration order varies run to run; anything it feeds\n\
             (traces, metrics, reports, scheduling decisions) breaks the\n\
             same-seed => identical-trace contract. The rule tracks names declared\n\
             as HashMap/HashSet in each library file and flags `.iter()`,\n\
             `.keys()`, `.values()`, `.drain()`, `.into_iter()`, `.into_keys()`,\n\
             `.into_values()` and `for _ in &name` over them outside test code.\n\
             Fix by switching to BTreeMap/BTreeSet or sorting the drained items;\n\
             waive a provably order-insensitive use with\n\
             `// rp-lint: allow(hash-iter): <why order cannot escape>`."
        }
        "wallclock" => {
            "wallclock: host time read from virtual-time code.\n\
             `Instant::now()`, `SystemTime::now()` and `UNIX_EPOCH` in library\n\
             code make simulated results depend on host speed, violating\n\
             determinism. Allowed in crates/bench (host-side measurement is its\n\
             job), examples, tests and benches. Waive an intentional use with\n\
             `// rp-lint: allow(wallclock): <justification>`."
        }
        "unwrap-ratchet" => {
            "unwrap-ratchet: panic-prone `.unwrap()`/`.expect()` budget.\n\
             Counts unwrap/expect calls in non-test library code per file and\n\
             compares against lint_baseline.toml. A count above the baseline\n\
             fails (the budget only ratchets down); a count below it is reported\n\
             as a note — run `rp_lint --bless` to tighten the baseline after a\n\
             cleanup. Prefer expectful messages that state the violated\n\
             invariant, or real error paths where a fault can reach the call."
        }
        "stale-waiver" => {
            "stale-waiver: inline waivers must keep earning their place.\n\
             After every pass, each `// rp-lint: allow(...)` comment is checked\n\
             against the findings it actually suppressed. A waiver that matched\n\
             nothing (the excused code was fixed or moved) or that names an\n\
             unknown rule (typo — it never worked) is reported at info level so\n\
             the exception inventory stays honest. unwrap-ratchet waivers are\n\
             exempt: they suppress counting, not findings. List the full\n\
             inventory with `rp_lint --waivers`."
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_counts() {
        let mut r = Report::default();
        r.push(Finding::new("wallclock", "a\"b.rs", 3, "msg\nline"));
        r.push(Finding::new("hash-iter", "c.rs", 1, "ok").waived());
        let j = r.render_json();
        assert!(j.contains("a\\\"b.rs"));
        assert!(j.contains("msg\\nline"));
        assert!(j.contains("\"fatal\": 1"));
        assert!(j.contains("\"waived\": 1"));
        assert_eq!(r.fatal_count(), 1);
    }

    #[test]
    fn every_rule_has_an_explanation() {
        for r in RULES {
            assert!(explain(r).is_some(), "{r}");
        }
        assert!(explain("no-such-rule").is_none());
    }
}
