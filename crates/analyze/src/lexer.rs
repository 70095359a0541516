//! Minimal Rust token scanner — just enough structure for the lint rules.
//!
//! Produces a flat token stream (identifiers, punctuation, literals) with
//! line numbers, skipping comments and string/char literal *contents* so
//! rules never match inside them. Lifetimes are distinguished from char
//! literals, `::`/`=>`/`->` are fused into single punctuation tokens, and
//! `// rp-lint: allow(rule, ...)` waiver comments are collected per line.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    Ident,
    Punct,
    /// String/char/byte/numeric literal. The text of string-ish literals is
    /// replaced by a placeholder so rules cannot match literal contents.
    Lit,
    Lifetime,
}

#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

impl Tok {
    pub fn is(&self, s: &str) -> bool {
        self.text == s
    }
}

/// Lexed file: tokens plus waiver comments (`line -> waived rule names`)
/// and their justification text (`line -> reason`, for `--waivers`).
#[derive(Debug, Default)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    pub waivers: BTreeMap<u32, Vec<String>>,
    pub waiver_reasons: BTreeMap<u32, String>,
}

/// Parse the rule list (and trailing `: reason`) out of an
/// `rp-lint: allow(a, b): reason` comment body.
fn parse_waiver(body: &str) -> (Vec<String>, String) {
    let Some(idx) = body.find("rp-lint:") else {
        return (Vec::new(), String::new());
    };
    let rest = body[idx + "rp-lint:".len()..].trim_start();
    let Some(rest) = rest.strip_prefix("allow(") else {
        return (Vec::new(), String::new());
    };
    let Some(close) = rest.find(')') else {
        return (Vec::new(), String::new());
    };
    let rules = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    let reason = rest[close + 1..]
        .trim_start()
        .strip_prefix(':')
        .map(|r| r.trim().to_string())
        .unwrap_or_default();
    (rules, reason)
}

pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut waivers: BTreeMap<u32, Vec<String>> = BTreeMap::new();
    let mut waiver_reasons: BTreeMap<u32, String> = BTreeMap::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let n = b.len();

    let bump_lines = |s: &[u8]| s.iter().filter(|&&c| c == b'\n').count() as u32;

    while i < n {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if i + 1 < n && b[i + 1] == b'/' => {
                let end = src[i..].find('\n').map(|p| i + p).unwrap_or(n);
                let body = &src[i + 2..end];
                // Doc comments (`///`, `//!`) are documentation — text
                // that *mentions* the waiver syntax there must not become
                // a live waiver. Only plain `//` comments carry waivers.
                let is_doc = body.starts_with('/') || body.starts_with('!');
                let (rules, reason) = if is_doc {
                    (Vec::new(), String::new())
                } else {
                    parse_waiver(body)
                };
                if !rules.is_empty() {
                    waivers.entry(line).or_default().extend(rules);
                    waiver_reasons.entry(line).or_insert(reason);
                }
                i = end;
            }
            b'/' if i + 1 < n && b[i + 1] == b'*' => {
                // Nested block comments.
                let mut depth = 1;
                let mut j = i + 2;
                while j < n && depth > 0 {
                    if b[j] == b'/' && j + 1 < n && b[j + 1] == b'*' {
                        depth += 1;
                        j += 2;
                    } else if b[j] == b'*' && j + 1 < n && b[j + 1] == b'/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                line += bump_lines(&b[i..j]);
                i = j;
            }
            b'"' => {
                let j = scan_string(b, i);
                let start_line = line;
                line += bump_lines(&b[i..j]);
                // Keep the quoted source text: the quotes guarantee a
                // string token can never match an identifier pattern.
                toks.push(Tok {
                    kind: TokKind::Lit,
                    text: src[i..j].to_string(),
                    line: start_line,
                });
                i = j;
            }
            b'r' | b'b' if starts_raw_or_byte_string(b, i) => {
                let j = scan_raw_or_byte_string(b, i);
                line += bump_lines(&b[i..j]);
                toks.push(Tok {
                    kind: TokKind::Lit,
                    text: "\"\"".into(),
                    line,
                });
                i = j;
            }
            b'\'' => {
                // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                let (j, kind, text) = scan_quote(b, src, i);
                toks.push(Tok { kind, text, line });
                i = j;
            }
            c if c == b'_' || c.is_ascii_alphabetic() => {
                let mut j = i + 1;
                while j < n && (b[j] == b'_' || b[j].is_ascii_alphanumeric()) {
                    j += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text: src[i..j].to_string(),
                    line,
                });
                i = j;
            }
            c if c.is_ascii_digit() => {
                let mut j = i + 1;
                while j < n
                    && (b[j] == b'_'
                        || b[j] == b'.'
                        || b[j].is_ascii_alphanumeric()
                        || ((b[j] == b'+' || b[j] == b'-')
                            && matches!(b[j - 1], b'e' | b'E')
                            && j + 1 < n
                            && b[j + 1].is_ascii_digit()))
                {
                    // Don't swallow `..` range or a method call on a number.
                    if b[j] == b'.' && (j + 1 >= n || !b[j + 1].is_ascii_digit()) {
                        break;
                    }
                    j += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Lit,
                    text: src[i..j].to_string(),
                    line,
                });
                i = j;
            }
            _ => {
                // Fuse the few multi-char puncts the rules care about.
                let (text, len) = if i + 1 < n {
                    match (c, b[i + 1]) {
                        (b':', b':') => ("::", 2),
                        (b'=', b'>') => ("=>", 2),
                        (b'-', b'>') => ("->", 2),
                        _ => ("", 1),
                    }
                } else {
                    ("", 1)
                };
                let text = if len == 2 {
                    text.to_string()
                } else {
                    (c as char).to_string()
                };
                toks.push(Tok {
                    kind: TokKind::Punct,
                    text,
                    line,
                });
                i += len;
            }
        }
    }
    Lexed {
        toks,
        waivers,
        waiver_reasons,
    }
}

/// End index (exclusive) of a normal `"..."` string starting at `i`.
fn scan_string(b: &[u8], i: usize) -> usize {
    let n = b.len();
    let mut j = i + 1;
    while j < n {
        match b[j] {
            b'\\' => j += 2,
            b'"' => return j + 1,
            _ => j += 1,
        }
    }
    n
}

fn starts_raw_or_byte_string(b: &[u8], i: usize) -> bool {
    let n = b.len();
    match b[i] {
        b'r' => {
            let mut j = i + 1;
            while j < n && b[j] == b'#' {
                j += 1;
            }
            j < n && b[j] == b'"'
        }
        b'b' => {
            if i + 1 >= n {
                return false;
            }
            match b[i + 1] {
                b'"' | b'\'' => true,
                b'r' => {
                    let mut j = i + 2;
                    while j < n && b[j] == b'#' {
                        j += 1;
                    }
                    j < n && b[j] == b'"'
                }
                _ => false,
            }
        }
        _ => false,
    }
}

fn scan_raw_or_byte_string(b: &[u8], i: usize) -> usize {
    let n = b.len();
    let mut j = i;
    // Skip the `b`/`r`/`br` prefix.
    if b[j] == b'b' {
        j += 1;
    }
    if j < n && b[j] == b'\'' {
        // Byte char literal `b'x'`.
        j += 1;
        while j < n {
            match b[j] {
                b'\\' => j += 2,
                b'\'' => return j + 1,
                _ => j += 1,
            }
        }
        return n;
    }
    let raw = j < n && b[j] == b'r';
    if raw {
        j += 1;
    }
    let mut hashes = 0usize;
    while j < n && b[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    if j >= n || b[j] != b'"' {
        return j; // not actually a string; treat prefix as consumed
    }
    j += 1;
    if !raw {
        return scan_string(b, j - 1);
    }
    // Raw string: find `"` followed by `hashes` hashes.
    while j < n {
        if b[j] == b'"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while k < n && b[k] == b'#' && seen < hashes {
                k += 1;
                seen += 1;
            }
            if seen == hashes {
                return k;
            }
        }
        j += 1;
    }
    n
}

/// Scan from a `'`: returns (end, kind, text). Lifetimes keep their name.
fn scan_quote(b: &[u8], src: &str, i: usize) -> (usize, TokKind, String) {
    let n = b.len();
    // `'\...'` is always a char literal.
    if i + 1 < n && b[i + 1] == b'\\' {
        let mut j = i + 2;
        while j < n && b[j] != b'\'' {
            j += 1;
        }
        return (j.min(n - 1) + 1, TokKind::Lit, "''".into());
    }
    // `'x'` char literal: one char then closing quote.
    if i + 2 < n && b[i + 2] == b'\'' {
        return (i + 3, TokKind::Lit, "''".into());
    }
    // Otherwise a lifetime/label: `'ident`.
    let mut j = i + 1;
    while j < n && (b[j] == b'_' || b[j].is_ascii_alphanumeric()) {
        j += 1;
    }
    (j, TokKind::Lifetime, src[i..j].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).toks.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn idents_puncts_and_fused_ops() {
        assert_eq!(
            texts("a::b => c -> d"),
            vec!["a", "::", "b", "=>", "c", "->", "d"]
        );
    }

    #[test]
    fn strings_are_opaque() {
        // No `unwrap` identifier token may come from a string literal.
        let toks = lex(r#"let s = "x.unwrap()"; s"#).toks;
        assert!(!toks.iter().any(|t| t.text == "unwrap"));
        assert!(toks.iter().any(|t| t.kind == TokKind::Lit));
    }

    #[test]
    fn raw_strings_and_bytes_are_opaque() {
        let toks = lex(r###"let s = r#"Instant::now()"#; let b = b"SystemTime";"###).toks;
        assert!(!toks.iter().any(|t| t.text == "Instant"));
        assert!(!toks.iter().any(|t| t.text == "SystemTime"));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; let nl = '\\n'; }").toks;
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Lifetime).count(),
            2
        );
        assert_eq!(
            toks.iter()
                .filter(|t| t.kind == TokKind::Lit && t.text == "''")
                .count(),
            2
        );
    }

    #[test]
    fn comments_are_skipped_but_waivers_collected() {
        let l = lex("let a = 1; // rp-lint: allow(hash-iter, wallclock): reason\nlet b = 2;");
        assert!(!l.toks.iter().any(|t| t.text == "rp"));
        assert_eq!(
            l.waivers.get(&1).map(Vec::as_slice),
            Some(&["hash-iter".to_string(), "wallclock".to_string()][..])
        );
        assert_eq!(l.waiver_reasons.get(&1).map(String::as_str), Some("reason"));
    }

    #[test]
    fn waiver_without_reason_records_empty_reason() {
        let l = lex("// rp-lint: allow(wallclock)\nlet a = 1;");
        assert_eq!(l.waiver_reasons.get(&1).map(String::as_str), Some(""));
    }

    #[test]
    fn string_literals_never_match_idents() {
        let l = lex(r#"metric_key("store.write", labels)"#);
        // The quoted text cannot equal any identifier.
        assert!(!l.toks.iter().any(|t| t.is("store.write")));
    }

    #[test]
    fn line_numbers_track_multiline_constructs() {
        let l = lex("/* a\nb */\nfoo");
        assert_eq!(l.toks[0].text, "foo");
        assert_eq!(l.toks[0].line, 3);
    }

    #[test]
    fn numbers_lex_as_single_literals() {
        assert_eq!(
            texts("1_000.5e-3 0xFF 12u64"),
            vec!["1_000.5e-3", "0xFF", "12u64"]
        );
        // Ranges and method calls on numbers don't swallow the dot pair.
        assert_eq!(texts("0..n"), vec!["0", ".", ".", "n"]);
    }
}
