//! Rule `effect-origin`: coordination-store effects must carry a real
//! fencing origin, and re-bind paths must fence before re-dispatch.
//!
//! The partition-tolerance design (DESIGN.md §13) rejects a store write
//! whose `(PilotId, epoch)` origin is stale — but only if the sender
//! actually threads its origin. Three ways code silently opts out of
//! fencing, each checked lexically in `crates/core` library code:
//!
//!   1. **Origin-less emission** — calling the unfenced convenience
//!      variants `roundtrip(...)` / `return_units(...)` outside
//!      `coordination.rs`. Pilot-side senders must use the `_from`
//!      variants so a zombie's post-revocation write can be rejected.
//!      (UM-side authority writes such as `push_units` are exempt: the
//!      manager *is* the fencing authority.)
//!   2. **Fabricated origin** — constructing a literal
//!      `Some((PilotId(N), E))` or passing a numeric-literal epoch to a
//!      `_from` call outside the store. An epoch must come from the
//!      lease table, not be invented at the call site; a hard-coded
//!      epoch 0 defeats fencing exactly when it matters.
//!   3. **Re-dispatch before revocation** — in `manager.rs`, a function
//!      that both revokes a lease and re-dispatches orphaned units
//!      (`handle_pilot_loss` / `rebind`) must revoke first: the epoch
//!      bump is what fences the old owner's in-flight writes before new
//!      ownership exists.
//!
//! Waive a deliberate exception with
//! `// rp-lint: allow(effect-origin): <why fencing is not bypassed>`.

use crate::callgraph::{call_args, CallGraph};
use crate::lexer::TokKind;
use crate::report::{Finding, Report};
use crate::scan::SourceFile;

const SCOPE_PREFIX: &str = "crates/core/src/";
const STORE_FILE: &str = "crates/core/src/coordination.rs";
const MANAGER_FILE: &str = "crates/core/src/manager.rs";

/// Origin-less store emitters that have a fenced `_from` twin.
const UNFENCED_EMITTERS: &[&str] = &["roundtrip", "return_units"];

/// Fenced emitters whose epoch argument position is checked for
/// literals: (name, zero-based index of the epoch argument).
const FENCED_EMITTERS: &[(&str, usize)] = &[
    ("roundtrip_from", 2),
    ("return_units_from", 2),
    ("send_from", 1),
];

/// Calls that hand orphaned units to a new owner.
const REDISPATCH: &[&str] = &["handle_pilot_loss", "rebind"];

pub fn check(files: &[SourceFile], graph: &CallGraph, report: &mut Report) {
    for (fi, f) in files.iter().enumerate() {
        if !f.rel.starts_with(SCOPE_PREFIX) {
            continue;
        }
        if f.rel != STORE_FILE {
            check_emissions(f, report);
        }
        if f.rel == MANAGER_FILE {
            check_revoke_order(f, fi, graph, report);
        }
    }
}

fn check_emissions(f: &SourceFile, report: &mut Report) {
    let t = &f.lexed.toks;
    for i in 0..t.len() {
        if t[i].kind != TokKind::Ident
            || !t.get(i + 1).is_some_and(|x| x.is("("))
            || (i >= 1 && t[i - 1].is("fn"))
        {
            continue;
        }
        let line = t[i].line;
        if f.is_test_code(line) {
            continue;
        }
        let name = t[i].text.as_str();

        // 1. Origin-less emission: must be a method call (`store.roundtrip(`)
        // to avoid matching unrelated free fns of the same name.
        if UNFENCED_EMITTERS.contains(&name) && i >= 1 && t[i - 1].is(".") {
            push(
                report,
                f,
                line,
                format!(
                    "origin-less store effect `{name}(...)`: a pilot-side write \
                     without a (PilotId, epoch) origin can never be fence-rejected \
                     after lease revocation — use `{name}_from` and thread the \
                     pilot's current epoch"
                ),
            );
            continue;
        }

        // 2a. Literal epoch argument to a fenced emitter.
        if let Some(&(_, epoch_idx)) = FENCED_EMITTERS.iter().find(|(n, _)| *n == name) {
            let args = call_args(t, i + 1);
            // Method-call receiver is not part of `args`; the declared
            // index counts from the first argument after `engine`.
            // `roundtrip_from(engine, pilot, epoch, cb)` -> epoch at 2.
            if let Some(&(lo, hi)) = args.get(epoch_idx) {
                if lo == hi && t[lo].kind == TokKind::Lit && t[lo].str_content().is_none() {
                    push(
                        report,
                        f,
                        line,
                        format!(
                            "literal fencing epoch `{}` passed to `{name}(...)`: \
                             epochs must come from the lease table (the value \
                             current at send time), not be invented at the call \
                             site — a hard-coded epoch defeats fencing exactly \
                             when the lease has moved on",
                            t[lo].text
                        ),
                    );
                    continue;
                }
            }
        }

        // 2b. Fabricated origin tuple: `Some((PilotId(<lit>), <lit>))`.
        if name == "Some"
            && t.get(i + 2).is_some_and(|x| x.is("("))
            && t.get(i + 3).is_some_and(|x| x.is("PilotId"))
        {
            let inner = call_args(t, i + 2);
            let epoch_is_literal = inner
                .get(1)
                .is_some_and(|&(lo, hi)| lo == hi && t[lo].kind == TokKind::Lit);
            if epoch_is_literal {
                push(
                    report,
                    f,
                    line,
                    "fabricated origin `Some((PilotId(..), <literal>))` outside the \
                     store: construct origins from the lease table's current epoch, \
                     not literals"
                        .to_string(),
                );
            }
        }
    }
}

/// In every `manager.rs` fn that calls both `revoke_lease` and a
/// re-dispatch entry point, the first revocation must precede the first
/// re-dispatch — the epoch bump fences the old owner's writes before any
/// unit changes hands.
fn check_revoke_order(f: &SourceFile, file_idx: usize, graph: &CallGraph, report: &mut Report) {
    let t = &f.lexed.toks;
    for d in graph.fns.iter().filter(|d| d.file == file_idx) {
        let (lo, hi) = d.body;
        let mut first_revoke: Option<usize> = None;
        let mut first_redispatch: Option<(usize, &str)> = None;
        for i in lo..=hi.min(t.len() - 1) {
            if t[i].kind != TokKind::Ident || !t.get(i + 1).is_some_and(|x| x.is("(")) {
                continue;
            }
            let name = t[i].text.as_str();
            if name == "revoke_lease" && first_revoke.is_none() {
                first_revoke = Some(i);
            }
            if REDISPATCH.contains(&name) && first_redispatch.is_none() {
                first_redispatch = Some((i, t[i].text.as_str()));
            }
        }
        if let (Some(r), Some((rd, rd_name))) = (first_revoke, first_redispatch) {
            if rd < r {
                let line = t[rd].line;
                push(
                    report,
                    f,
                    line,
                    format!(
                        "`{rd_name}` re-dispatches units before `revoke_lease` in \
                         `{}`: the old owner's epoch is still live while new \
                         ownership is created, so its in-flight writes cannot be \
                         fence-rejected — revoke first",
                        d.name
                    ),
                );
            }
        }
    }
}

fn push(report: &mut Report, f: &SourceFile, line: u32, message: String) {
    let finding = Finding::new("effect-origin", &f.rel, line, message);
    report.push(if f.is_waived(line, "effect-origin") {
        finding.waived()
    } else {
        finding
    });
}
