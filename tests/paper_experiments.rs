//! Every paper and ablation claim, asserted: runs each experiment of the
//! `rp_bench::experiments` registry (the same code the `paper` binary
//! prints) and fails naming the experiment and the check that broke. The
//! concatenated output, which is what `paper` prints, is pinned
//! byte-for-byte in `tests/golden/paper.txt`; after an intended change,
//! regenerate it with
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test --test paper_experiments
//! ```

use std::collections::BTreeSet;
use std::path::Path;

use rp_bench::experiments::REGISTRY;

/// Checks registered across all experiments. A check that disappears
/// from an experiment fails this pin instead of passing silently.
const TOTAL_CHECKS: usize = 27;

#[test]
fn registry_names_are_unique() {
    let names: BTreeSet<&str> = REGISTRY.iter().map(|x| x.name).collect();
    assert_eq!(names.len(), 11, "{names:?}");
}

#[test]
fn every_paper_and_ablation_check_holds() {
    let mut total = 0;
    let mut violated = Vec::new();
    let mut text = String::new();
    for x in &REGISTRY {
        let outcome = (x.run)();
        text.push_str(&outcome.text);
        assert!(
            outcome.text.ends_with(&outcome.checks.render()),
            "{}: the check report must close the rendered text",
            x.name
        );
        let results = outcome.checks.results();
        assert!(!results.is_empty(), "{} checks nothing", x.name);
        total += results.len();
        for (label, ok) in results {
            if !ok {
                violated.push(format!("{} ({}): {label}", x.name, x.section));
            }
        }
    }
    assert!(
        violated.is_empty(),
        "violated paper checks:\n  {}",
        violated.join("\n  ")
    );
    assert_eq!(total, TOTAL_CHECKS, "registered check count changed");
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/paper.txt");
    if std::env::var("REGEN_GOLDEN").is_ok() {
        std::fs::write(&golden, &text).unwrap();
        return;
    }
    let expect = std::fs::read_to_string(&golden).unwrap();
    if text != expect {
        let line = expect
            .lines()
            .zip(text.lines())
            .take_while(|(a, b)| a == b)
            .count();
        panic!(
            "paper output moved off tests/golden/paper.txt at line {}:\n  golden: {}\n  now:    {}",
            line + 1,
            expect.lines().nth(line).unwrap_or("<end>"),
            text.lines().nth(line).unwrap_or("<end>")
        );
    }
}
