//! The checked-in baseline `lint_baseline.toml` (per-file unwrap/expect
//! budget).
//!
//! Hand-rolled reader/writer for the tiny TOML subset we emit — the crate
//! is deliberately dependency-free. The file is regenerated by
//! `rp_lint --bless`, so the writer is the source of truth for the format.

use std::collections::BTreeMap;
use std::path::Path;

/// Strip a trailing line comment that is outside any quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// All double-quoted strings on a line (no escape handling — paths never
/// contain quotes).
fn quoted_strings(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(start) = rest.find('"') {
        let after = &rest[start + 1..];
        let Some(end) = after.find('"') else { break };
        out.push(after[..end].to_string());
        rest = &after[end + 1..];
    }
    out
}

/// Read `lint_baseline.toml`: lines of `"<path>" = <count>` under
/// `[unwrap]`. Missing file => empty baseline (any unwrap fails).
pub fn read_unwrap_baseline(path: &Path) -> std::io::Result<BTreeMap<String, u32>> {
    let mut out = BTreeMap::new();
    let Ok(src) = std::fs::read_to_string(path) else {
        return Ok(out);
    };
    for line in src.lines() {
        let line = strip_comment(line);
        let Some((key_part, val_part)) = line.split_once('=') else {
            continue;
        };
        let keys = quoted_strings(key_part);
        if keys.len() != 1 {
            continue;
        }
        if let Ok(v) = val_part.trim().parse::<u32>() {
            out.insert(keys[0].clone(), v);
        }
    }
    Ok(out)
}

pub fn write_unwrap_baseline(path: &Path, counts: &BTreeMap<String, u32>) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str(
        "# Per-file budget of `.unwrap()`/`.expect()` calls in non-test library\n\
         # code, maintained by `rp_lint --bless` (rule: unwrap-ratchet).\n\
         # Counts may only go down: exceeding a budget fails CI, dropping below\n\
         # it is a note suggesting a re-bless. Prefer real error paths where a\n\
         # fault can reach the call, or expect() messages naming the violated\n\
         # invariant.\n\n[unwrap]\n",
    );
    for (file, count) in counts {
        if *count > 0 {
            out.push_str(&format!("\"{file}\" = {count}\n"));
        }
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwrap_baseline_roundtrip_and_comments() {
        let dir = std::env::temp_dir().join("rp_analyze_baseline_test_unwrap");
        let _ = std::fs::create_dir_all(&dir);
        let p = dir.join("lint_baseline.toml");
        let mut counts = BTreeMap::new();
        counts.insert("crates/core/src/agent.rs".to_string(), 5u32);
        counts.insert("zero.rs".to_string(), 0u32); // dropped on write
        write_unwrap_baseline(&p, &counts).expect("write baseline");
        let read = read_unwrap_baseline(&p).expect("read baseline");
        assert_eq!(read.get("crates/core/src/agent.rs"), Some(&5));
        assert!(!read.contains_key("zero.rs"));
    }

    #[test]
    fn missing_files_read_as_empty() {
        let p = Path::new("/nonexistent/rp-analyze/never.toml");
        assert!(read_unwrap_baseline(p)
            .expect("missing baseline ok")
            .is_empty());
    }
}
