//! Determinism-hazard rules: `wallclock`, `hash-iter`, `unwrap-ratchet`.
//!
//! The workspace's contract is same seed => bit-identical traces. Host
//! clocks and hash-iteration order are the two ways real code breaks that
//! silently; panic-prone unwraps are the way fault injection turns into
//! aborts instead of recoveries. All three rules apply to library code
//! only — tests, benches and examples are exempt.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::baseline;
use crate::lexer::TokKind;
use crate::report::{Finding, Report};
use crate::scan::SourceFile;

/// Crates allowed to read host time: bench measures the host by design,
/// the harness binaries time real subprocess work, and the lint pass
/// times its own rules (`--timings` — host-side tooling cost, not
/// simulation state).
const WALLCLOCK_ALLOWED_PREFIXES: &[&str] = &["crates/bench/", "crates/analyze/"];

/// Rule `wallclock`: flag host-time reads in library code.
pub fn check_wallclock(files: &[SourceFile], report: &mut Report) {
    for f in files {
        if WALLCLOCK_ALLOWED_PREFIXES
            .iter()
            .any(|p| f.rel.starts_with(p))
        {
            continue;
        }
        let t = &f.lexed.toks;
        for i in 0..t.len() {
            let hit = if t[i].is("now")
                && i >= 2
                && t[i - 1].is("::")
                && (t[i - 2].is("Instant") || t[i - 2].is("SystemTime"))
            {
                Some(format!("{}::now()", t[i - 2].text))
            } else if t[i].is("UNIX_EPOCH") && t[i].kind == TokKind::Ident {
                Some("UNIX_EPOCH".to_string())
            } else {
                None
            };
            let Some(what) = hit else { continue };
            let line = t[i].line;
            if f.is_test_code(line) {
                continue;
            }
            let finding = Finding::new(
                "wallclock",
                &f.rel,
                line,
                format!(
                    "{what} reads host time from virtual-time code; results will \
                     depend on host speed. Use SimTime, or waive with a \
                     justification if host timing is the point"
                ),
            );
            report.push(if f.is_waived(line, "wallclock") {
                finding.waived()
            } else {
                finding
            });
        }
    }
}

/// Iteration methods whose order leaks from a hash container.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Rule `hash-iter`: iteration over HashMap/HashSet in library code.
///
/// Tracks, per file, every identifier declared with a `HashMap`/`HashSet`
/// type (let annotations, struct fields, fn params) or initialized from
/// `HashMap::`/`HashSet::`, then flags order-leaking iteration over those
/// names outside test code.
pub fn check_hash_iter(files: &[SourceFile], report: &mut Report) {
    for f in files {
        let t = &f.lexed.toks;

        // Pass 1: names with hash-container types. Test-only declarations
        // are skipped — flagging happens only in library code, and a name
        // declared in a test module cannot be the container a library-side
        // use refers to (short names like `m` would otherwise collide).
        let mut hash_names: BTreeSet<String> = BTreeSet::new();
        for i in 0..t.len() {
            if !(t[i].is("HashMap") || t[i].is("HashSet")) {
                continue;
            }
            if f.is_test_code(t[i].line) {
                continue;
            }
            // Walk back over a `std :: collections ::` qualifying path so
            // `std::collections::HashMap` tracks like plain `HashMap`.
            let mut start = i;
            while start >= 2 && t[start - 1].is("::") && t[start - 2].kind == TokKind::Ident {
                start -= 2;
            }
            // `name : HashMap< ... >` (let annotation, field, or param),
            // also through `&`/`&mut` references.
            {
                let mut j = start;
                while j >= 1 && (t[j - 1].is("&") || t[j - 1].is("mut")) {
                    j -= 1;
                }
                if j >= 2 && t[j - 1].is(":") && t[j - 2].kind == TokKind::Ident {
                    hash_names.insert(t[j - 2].text.clone());
                }
            }
            // `let [mut] name = HashMap::new()` / `= HashMap::with_capacity`
            // / `= HashMap::from(...)`.
            if start >= 2 && t[start - 1].is("=") {
                let mut j = start - 1;
                while j > 0 && !(t[j].is(";") || t[j].is("{") || t[j].is("}")) {
                    j -= 1;
                }
                if let Some(p) = t[j..start].iter().position(|x| x.is("let")) {
                    if let Some(name) = t[j + p + 1..start]
                        .iter()
                        .find(|x| x.kind == TokKind::Ident && !x.is("mut"))
                    {
                        hash_names.insert(name.text.clone());
                    }
                }
            }
        }
        if hash_names.is_empty() {
            continue;
        }

        // Pass 2: order-leaking uses of those names.
        let mut flagged_lines: BTreeSet<u32> = BTreeSet::new();
        for i in 0..t.len() {
            let line = t[i].line;
            if f.is_test_code(line) {
                continue;
            }
            // `name.iter()` / `self.name.keys()` ... — method call whose
            // receiver's final segment is a tracked hash name.
            let is_iter_method = ITER_METHODS.contains(&t[i].text.as_str())
                && i >= 2
                && t[i - 1].is(".")
                && t.get(i + 1).is_some_and(|x| x.is("("))
                && t[i - 2].kind == TokKind::Ident
                && hash_names.contains(&t[i - 2].text);
            // `for x in &name {` / `for (k, v) in &mut self.name {`
            let is_for_iter = t[i].kind == TokKind::Ident
                && hash_names.contains(&t[i].text)
                && t.get(i + 1).is_some_and(|x| x.is("{"))
                && {
                    // Scan back past `&`, `mut`, `.`-chains to an `in`.
                    let mut j = i;
                    let mut found_in = false;
                    while j > 0 {
                        let p = &t[j - 1];
                        if p.is("in") {
                            found_in = true;
                            break;
                        }
                        if p.is("&") || p.is("mut") || p.is(".") || p.kind == TokKind::Ident {
                            j -= 1;
                        } else {
                            break;
                        }
                    }
                    found_in
                };
            if !(is_iter_method || is_for_iter) {
                continue;
            }
            if !flagged_lines.insert(line) {
                continue; // one finding per line is enough
            }
            let name = if is_iter_method {
                t[i - 2].text.clone()
            } else {
                t[i].text.clone()
            };
            let finding = Finding::new(
                "hash-iter",
                &f.rel,
                line,
                format!(
                    "iteration over hash container `{name}` has nondeterministic \
                     order; switch to BTreeMap/BTreeSet or sort before use"
                ),
            );
            report.push(if f.is_waived(line, "hash-iter") {
                finding.waived()
            } else {
                finding
            });
        }
    }
}

/// Rule `unwrap-ratchet`: per-file unwrap/expect budget against
/// `lint_baseline.toml`. With `bless`, rewrites the baseline instead.
pub fn check_unwrap_ratchet(
    files: &[SourceFile],
    root: &Path,
    bless: bool,
    report: &mut Report,
) -> std::io::Result<()> {
    // Count non-test, non-waived unwrap/expect call sites per file.
    let mut counts: BTreeMap<String, u32> = BTreeMap::new();
    let mut first_line: BTreeMap<String, u32> = BTreeMap::new();
    for f in files {
        if f.kind != crate::scan::FileKind::Lib {
            continue;
        }
        let t = &f.lexed.toks;
        let mut count = 0u32;
        for i in 0..t.len() {
            let is_call = (t[i].is("unwrap") || t[i].is("expect"))
                && i >= 2
                && t[i - 1].is(".")
                && t.get(i + 1).is_some_and(|x| x.is("("));
            if !is_call {
                continue;
            }
            let line = t[i].line;
            if f.is_test_code(line) || f.is_waived(line, "unwrap-ratchet") {
                continue;
            }
            count += 1;
            first_line.entry(f.rel.clone()).or_insert(line);
        }
        if count > 0 {
            counts.insert(f.rel.clone(), count);
        }
    }

    let path = root.join("lint_baseline.toml");
    if bless {
        return baseline::write_unwrap_baseline(&path, &counts);
    }
    let base = baseline::read_unwrap_baseline(&path)?;

    for (file, &count) in &counts {
        let allowed = base.get(file).copied().unwrap_or(0);
        let line = first_line.get(file).copied().unwrap_or(1);
        if count > allowed {
            report.push(Finding::new(
                "unwrap-ratchet",
                file,
                line,
                format!(
                    "{count} unwrap/expect call(s) in library code exceeds the \
                     baseline of {allowed}; convert to real error paths or \
                     expect() with an invariant message and re-bless"
                ),
            ));
        } else if count < allowed {
            report.push(
                Finding::new(
                    "unwrap-ratchet",
                    file,
                    line,
                    format!(
                        "{count} unwrap/expect call(s), below the baseline of \
                         {allowed} — run `rp_lint --bless` to ratchet down"
                    ),
                )
                .info(),
            );
        }
    }
    for (file, &allowed) in &base {
        if !counts.contains_key(file) && allowed > 0 {
            report.push(
                Finding::new(
                    "unwrap-ratchet",
                    file,
                    0,
                    format!(
                        "baseline allows {allowed} unwrap/expect call(s) but the file \
                         now has none — run `rp_lint --bless` to ratchet down"
                    ),
                )
                .info(),
            );
        }
    }
    Ok(())
}
