//! Structured event trace: instant events and duration spans.
//!
//! Components record instant `(time, category, message)` triples and
//! begin/end **spans** — intervals with stable ids, parent links and
//! key/value attributes. Tests and examples use the trace to assert on and
//! display causal timelines; the phase profiler ([`crate::profile`]) walks
//! the span tree to attribute wall-clock to the paper's phases. When
//! disabled (the default) every recording call is a no-op, so an
//! uninstrumented run stays bit-identical to an instrumented one.
//!
//! Scaling (DESIGN.md §11): span names and attributes are interned
//! [`Symbol`]s (4 bytes instead of an owned `String` each), and spans live
//! in fixed-size chunks (`Vec<Vec<Span>>`) — an append-only sink that
//! never reallocates or moves recorded spans, so a 100k-unit run appends
//! in O(1) and readers stream chunk-by-chunk ([`Trace::iter_spans`],
//! [`Trace::write_chrome_json`]) instead of demanding one contiguous
//! buffer. The trace also tracks the live (begun-but-unended) span count
//! and its high-water mark, which the scale gate caps.

use std::borrow::Cow;
use std::fmt;
use std::io;

pub use crate::intern::{Symbol, SymbolTable};
use crate::time::SimTime;

/// Spans per storage chunk. Chunks are never resized once full, so a
/// reader holding `&Span` across appends would stay valid (Rust's borrow
/// rules are stricter, but exports never pay a move/copy of the tail).
const CHUNK: usize = 1024;

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    pub time: SimTime,
    pub category: &'static str,
    pub message: Message,
}

/// The text of a [`TraceEvent`]. Lifecycle transitions, recorded for
/// every unit several times per run, are kept typed — two static strings
/// and an id, no heap — and rendered as `"{subject}({id}) -> {to}"` only
/// when the trace is read or exported. Everything else is `Text`.
///
/// Equality, `Debug` and `Display` all go through the rendered text, so a
/// `Transition` is indistinguishable from the `Text` it renders to.
#[derive(Clone)]
pub enum Message {
    Text(String),
    Transition {
        subject: &'static str,
        id: u64,
        to: &'static str,
    },
}

impl Message {
    /// The rendered text (borrowed for `Text`).
    pub fn text(&self) -> Cow<'_, str> {
        match self {
            Message::Text(s) => Cow::Borrowed(s),
            t => Cow::Owned(t.to_string()),
        }
    }

    pub fn contains(&self, needle: &str) -> bool {
        self.text().contains(needle)
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Message::Text(s) => f.write_str(s),
            Message::Transition { subject, id, to } => write!(f, "{subject}({id}) -> {to}"),
        }
    }
}

impl fmt::Debug for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.text(), f)
    }
}

impl PartialEq for Message {
    fn eq(&self, other: &Message) -> bool {
        self.text() == other.text()
    }
}

impl From<String> for Message {
    fn from(s: String) -> Message {
        Message::Text(s)
    }
}

impl From<&str> for Message {
    fn from(s: &str) -> Message {
        Message::Text(s.to_string())
    }
}

/// Identifier of a span. Ids are assigned sequentially from 1 in begin
/// order. `SpanId::NONE` (0) names no span: pass it as the parent of a
/// root span. An id is a plain name (parents, attributes, lookups after
/// the run); the right to end a span is its [`OpenSpan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    pub const NONE: SpanId = SpanId(0);

    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// An open span: [`Trace::span_begin`] returns one and
/// [`Trace::span_end`] consumes it, so a span is ended at most once and
/// a discarded begin is a `must_use` warning. `OpenSpan::NONE` (also the
/// `Default`) is the sentinel a disabled trace returns — every span
/// operation on it is a no-op, so call sites never branch on whether
/// observability is on, and `std::mem::take` empties a stored slot.
///
/// Dropping an `OpenSpan` abandons the span: it stays open in the trace
/// and exports skip it. Fault-killed attempts do this on purpose.
///
/// Only the trace mints one; building it from an id does not compile,
/// because the field is private:
///
/// ```compile_fail
/// use rp_sim::{OpenSpan, SimTime, SpanId, Trace};
/// let mut trace = Trace::enabled();
/// let span = trace.span_begin(SimTime(0), "x", "s", SpanId::NONE);
/// trace.span_end(SimTime(1), OpenSpan(span.id()));
/// ```
///
/// ```no_run
/// use rp_sim::{OpenSpan, SimTime, SpanId, Trace};
/// let mut trace = Trace::enabled();
/// let span = trace.span_begin(SimTime(0), "x", "s", SpanId::NONE);
/// trace.span_end(SimTime(1), span);
/// ```
#[must_use = "an open span must be ended with `Trace::span_end` or stored"]
#[derive(Debug, Default)]
pub struct OpenSpan(SpanId);

impl OpenSpan {
    pub const NONE: OpenSpan = OpenSpan(SpanId::NONE);

    /// The span's id, for parents and [`Trace::span_attr`].
    pub fn id(&self) -> SpanId {
        self.0
    }
}

/// A begin/end interval in virtual time. `end` is `None` while the span is
/// open (and stays `None` forever for spans abandoned by a fault-killed
/// attempt — exports and the profiler only consider completed spans).
///
/// `name` and `attrs` are [`Symbol`]s into the owning trace's intern
/// table; resolve with [`Trace::span_name`] / [`Trace::attr`].
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub category: &'static str,
    pub name: Symbol,
    pub begin: SimTime,
    pub end: Option<SimTime>,
    pub attrs: Vec<(Symbol, Symbol)>,
}

impl Span {
    /// Duration, if the span is complete.
    pub fn duration(&self) -> Option<crate::time::SimDuration> {
        Some(self.end?.since(self.begin))
    }
}

/// Append-only trace log with chunked span storage.
#[derive(Debug, Default)]
pub struct Trace {
    enabled: bool,
    events: Vec<TraceEvent>,
    chunks: Vec<Vec<Span>>,
    count: usize,
    open: usize,
    peak_open: usize,
    syms: SymbolTable,
}

impl Trace {
    pub fn disabled() -> Self {
        Trace::default()
    }

    pub fn enabled() -> Self {
        Trace {
            enabled: true,
            ..Trace::default()
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record an instant event (no-op when disabled). A `String` argument
    /// is built even when disabled: guard costly `format!`s on hot paths
    /// with [`Trace::is_enabled`], or pass a typed [`Message`].
    pub fn record(&mut self, time: SimTime, category: &'static str, message: impl Into<Message>) {
        if self.enabled {
            self.events.push(TraceEvent {
                time,
                category,
                message: message.into(),
            });
        }
    }

    /// Open a span. Returns `OpenSpan::NONE` when disabled; pass
    /// `SpanId::NONE` as `parent` for a root span.
    ///
    /// Discarding the result is an error under `deny(unused_must_use)`:
    ///
    /// ```compile_fail
    /// #![deny(unused_must_use)]
    /// use rp_sim::{SimTime, SpanId, Trace};
    /// let mut trace = Trace::enabled();
    /// trace.span_begin(SimTime(0), "x", "s", SpanId::NONE);
    /// ```
    ///
    /// ```no_run
    /// #![deny(unused_must_use)]
    /// use rp_sim::{SimTime, SpanId, Trace};
    /// let mut trace = Trace::enabled();
    /// let _span = trace.span_begin(SimTime(0), "x", "s", SpanId::NONE);
    /// ```
    pub fn span_begin(
        &mut self,
        time: SimTime,
        category: &'static str,
        name: &str,
        parent: SpanId,
    ) -> OpenSpan {
        if !self.enabled {
            return OpenSpan::NONE;
        }
        let id = SpanId(self.count as u64 + 1);
        let name = self.syms.intern(name);
        if self.chunks.last().is_none_or(|c| c.len() == CHUNK) {
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        let last = self.chunks.len() - 1;
        self.chunks[last].push(Span {
            id,
            parent: if parent.is_none() { None } else { Some(parent) },
            category,
            name,
            begin: time,
            end: None,
            attrs: Vec::new(),
        });
        self.count += 1;
        self.open += 1;
        self.peak_open = self.peak_open.max(self.open);
        OpenSpan(id)
    }

    /// Attach a key/value attribute to a span (no-op on `NONE`).
    pub fn span_attr(&mut self, id: SpanId, key: &str, value: impl AsRef<str>) {
        if id.is_none() {
            return;
        }
        let key = self.syms.intern(key);
        let value = self.syms.intern(value.as_ref());
        let span = self.span_mut(id);
        span.attrs.push((key, value));
    }

    /// Close a span (no-op on `OpenSpan::NONE`). Taking the `OpenSpan` by
    /// value means a span is ended at most once:
    ///
    /// ```compile_fail
    /// use rp_sim::{SimTime, SpanId, Trace};
    /// let mut trace = Trace::enabled();
    /// let span = trace.span_begin(SimTime(0), "x", "s", SpanId::NONE);
    /// trace.span_end(SimTime(1), span);
    /// trace.span_end(SimTime(2), span);
    /// ```
    ///
    /// ```no_run
    /// use rp_sim::{SimTime, SpanId, Trace};
    /// let mut trace = Trace::enabled();
    /// let span = trace.span_begin(SimTime(0), "x", "s", SpanId::NONE);
    /// trace.span_end(SimTime(1), span);
    /// ```
    pub fn span_end(&mut self, time: SimTime, span: OpenSpan) {
        if span.0.is_none() {
            return;
        }
        let span = self.span_mut(span.0);
        debug_assert!(span.end.is_none(), "span ended twice");
        debug_assert!(time >= span.begin, "span ends before it begins");
        span.end = Some(time);
        self.open -= 1;
    }

    fn span_mut(&mut self, id: SpanId) -> &mut Span {
        let idx = id.0 as usize - 1;
        &mut self.chunks[idx / CHUNK][idx % CHUNK]
    }

    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// All spans in begin (= id) order, streamed chunk-by-chunk (open
    /// spans included).
    pub fn iter_spans(&self) -> impl DoubleEndedIterator<Item = &Span> + Clone + '_ {
        self.chunks.iter().flatten()
    }

    /// Number of recorded spans.
    pub fn span_count(&self) -> usize {
        self.count
    }

    /// Spans currently open (begun but not ended).
    pub fn live_spans(&self) -> usize {
        self.open
    }

    /// High-water mark of [`Trace::live_spans`] over the run — the figure
    /// the scale gate caps (bounded live set ⇒ bounded resident memory
    /// for the mutable frontier of the trace).
    pub fn peak_live_spans(&self) -> usize {
        self.peak_open
    }

    /// Per-name aggregate over all *completed* spans: `(name, count,
    /// total duration)`, sorted by name. The same aggregation
    /// `trace_diff` reconstructs from an exported Chrome trace — tests
    /// use this to cross-check the export round trip.
    pub fn name_totals(&self) -> Vec<(String, u64, crate::time::SimDuration)> {
        let mut totals: std::collections::BTreeMap<&str, (u64, crate::time::SimDuration)> =
            std::collections::BTreeMap::new();
        for s in self.iter_spans() {
            if let Some(d) = s.duration() {
                let e = totals
                    .entry(self.syms.resolve(s.name))
                    .or_insert((0, crate::time::SimDuration(0)));
                e.0 += 1;
                e.1 += d;
            }
        }
        totals
            .into_iter()
            .map(|(name, (n, d))| (name.to_string(), n, d))
            .collect()
    }

    pub fn span(&self, id: SpanId) -> Option<&Span> {
        if id.is_none() || id.0 as usize > self.count {
            return None;
        }
        let idx = id.0 as usize - 1;
        Some(&self.chunks[idx / CHUNK][idx % CHUNK])
    }

    /// Resolve an interned symbol (empty string for `Symbol::NONE`).
    pub fn name(&self, sym: Symbol) -> &str {
        self.syms.resolve(sym)
    }

    /// Resolved name of a span.
    pub fn span_name(&self, span: &Span) -> &str {
        self.syms.resolve(span.name)
    }

    /// Look up the symbol for `s`, if it was ever recorded.
    pub fn symbol(&self, s: &str) -> Option<Symbol> {
        self.syms.lookup(s)
    }

    /// Intern a string in this trace's table (for building comparison
    /// symbols in tests/tools; recording paths intern implicitly).
    pub fn intern(&mut self, s: &str) -> Symbol {
        self.syms.intern(s)
    }

    /// The intern table (read-only; index side tables by `Symbol::index`).
    pub fn symbols(&self) -> &SymbolTable {
        &self.syms
    }

    /// Value of a span attribute, resolved.
    pub fn attr<'a>(&'a self, span: &Span, key: &str) -> Option<&'a str> {
        let key = self.syms.lookup(key)?;
        span.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| self.syms.resolve(v))
    }

    /// A span's attributes as resolved `(key, value)` pairs.
    pub fn attrs<'a>(&'a self, span: &'a Span) -> impl Iterator<Item = (&'a str, &'a str)> {
        span.attrs
            .iter()
            .map(|&(k, v)| (self.syms.resolve(k), self.syms.resolve(v)))
    }

    /// Completed root spans (no parent) with the given name, in id order.
    pub fn roots_named<'a>(&'a self, name: &str) -> impl Iterator<Item = &'a Span> + 'a {
        let sym = self.syms.lookup(name);
        self.iter_spans()
            .filter(move |s| s.parent.is_none() && Some(s.name) == sym && s.end.is_some())
    }

    /// Events in a given category.
    pub fn in_category<'a>(&'a self, category: &'a str) -> impl Iterator<Item = &'a TraceEvent> {
        self.events.iter().filter(move |e| e.category == category)
    }

    /// First event whose message contains `needle`.
    pub fn find(&self, needle: &str) -> Option<&TraceEvent> {
        self.events.iter().find(|e| e.message.contains(needle))
    }

    /// Export as Chrome tracing JSON (`chrome://tracing` / Perfetto):
    /// instant events as `"ph":"i"`, completed spans as async-nestable
    /// `"ph":"b"`/`"ph":"e"` pairs keyed by span id (no per-thread stack
    /// discipline required), grouped by category as thread names.
    ///
    /// Streams chunk-by-chunk into `w` — peak memory is one span's
    /// rendering, not the document, so scale-run traces export without
    /// materializing hundreds of MB. [`Trace::to_chrome_json`] wraps this
    /// for small traces.
    pub fn write_chrome_json<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        let mut cats: Vec<&'static str> = self
            .events
            .iter()
            .map(|e| e.category)
            .chain(self.iter_spans().map(|s| s.category))
            .collect();
        cats.sort_unstable();
        cats.dedup();
        let tid = |c: &str| cats.iter().position(|&x| x == c).unwrap_or(0) + 1;
        w.write_all(b"[")?;
        for (i, c) in cats.iter().enumerate() {
            if i > 0 {
                w.write_all(b",")?;
            }
            write!(
                w,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                tid(c),
                escape_json(c)
            )?;
        }
        for e in &self.events {
            write!(
                w,
                ",{{\"name\":\"{}\",\"ph\":\"i\",\"ts\":{},\"pid\":1,\"tid\":{},\"s\":\"t\"}}",
                escape_json(&e.message.text()),
                e.time.0,
                tid(e.category)
            )?;
        }
        for s in self.iter_spans() {
            let Some(end) = s.end else { continue };
            let mut args = String::new();
            if let Some(p) = s.parent {
                args.push_str(&format!("\"parent\":\"0x{:x}\"", p.0));
            }
            for (k, v) in &s.attrs {
                if !args.is_empty() {
                    args.push(',');
                }
                args.push_str(&format!(
                    "\"{}\":\"{}\"",
                    escape_json(self.syms.resolve(*k)),
                    escape_json(self.syms.resolve(*v))
                ));
            }
            let name = escape_json(self.syms.resolve(s.name));
            write!(
                w,
                ",{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"b\",\"ts\":{},\"pid\":1,\"tid\":{},\"id\":\"0x{:x}\",\"args\":{{{}}}}}",
                name,
                escape_json(s.category),
                s.begin.0,
                tid(s.category),
                s.id.0,
                args
            )?;
            write!(
                w,
                ",{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"e\",\"ts\":{},\"pid\":1,\"tid\":{},\"id\":\"0x{:x}\"}}",
                name,
                escape_json(s.category),
                end.0,
                tid(s.category),
                s.id.0
            )?;
        }
        w.write_all(b"]")?;
        Ok(())
    }

    /// [`Trace::write_chrome_json`] into a `String` (small traces,
    /// tests).
    pub fn to_chrome_json(&self) -> String {
        let mut out = Vec::new();
        self.write_chrome_json(&mut out).expect("write to Vec");
        String::from_utf8(out).expect("escaped JSON is UTF-8")
    }

    /// Render the trace as an aligned timeline (for examples / debugging).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&format!(
                "{:>12} [{:<10}] {}\n",
                format!("{}", e.time),
                e.category,
                e.message
            ));
        }
        out
    }

    /// Render the span list, one line per span (for goldens / debugging).
    pub fn render_spans(&self) -> String {
        let mut out = String::new();
        for s in self.iter_spans() {
            let end = match s.end {
                Some(t) => format!("{}", t.0),
                None => "open".into(),
            };
            let parent = match s.parent {
                Some(p) => format!("{}", p.0),
                None => "-".into(),
            };
            out.push_str(&format!(
                "#{} parent={} [{}] {} {}..{}\n",
                s.id.0,
                parent,
                s.category,
                self.syms.resolve(s.name),
                s.begin.0,
                end
            ));
        }
        out
    }
}

/// Parent → children adjacency over a trace, in CSR form: one O(n) build,
/// then `children(id)` is a slice lookup. Replaces the legacy full-scan
/// (`spans.iter().filter(|s| s.parent == id)`) that made the profiler and
/// critical-path walker O(n²) on scale runs. Children are listed in id
/// (= begin) order, matching the scan order the legacy walk produced.
#[derive(Debug)]
pub struct SpanIndex {
    off: Vec<u32>,
    kids: Vec<SpanId>,
}

impl SpanIndex {
    pub fn build(trace: &Trace) -> SpanIndex {
        let n = trace.span_count();
        let mut counts = vec![0u32; n + 2];
        for s in trace.iter_spans() {
            if let Some(p) = s.parent {
                counts[p.0 as usize] += 1;
            }
        }
        let mut off = vec![0u32; n + 2];
        for id in 1..=n {
            off[id + 1] = off[id] + counts[id];
        }
        let mut next = off.clone();
        let mut kids = vec![SpanId::NONE; off[n + 1] as usize];
        for s in trace.iter_spans() {
            if let Some(p) = s.parent {
                kids[next[p.0 as usize] as usize] = s.id;
                next[p.0 as usize] += 1;
            }
        }
        SpanIndex { off, kids }
    }

    /// Direct children of `id`, in id order.
    pub fn children(&self, id: SpanId) -> &[SpanId] {
        let i = id.0 as usize;
        if id.is_none() || i + 1 >= self.off.len() {
            return &[];
        }
        &self.kids[self.off[i] as usize..self.off[i + 1] as usize]
    }
}

/// JSON string escaping covering quotes, backslashes and all control
/// characters (newlines and tabs in messages used to produce invalid JSON).
pub fn escape_json(s: &str) -> String {
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

/// Summary of a validated Chrome trace (see [`validate_chrome_json`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChromeTraceStats {
    pub objects: usize,
    pub instants: usize,
    pub begins: usize,
    pub ends: usize,
}

/// Validate a Chrome tracing JSON document: it must parse as a JSON array
/// of objects, each with a `"ph"` field, and every async `"ph":"b"` must
/// have a matching `"ph":"e"` with the same id (balanced, never closing an
/// unopened id).
pub fn validate_chrome_json(s: &str) -> Result<ChromeTraceStats, String> {
    use crate::json;
    let value = json::parse(s)?;
    let json::Value::Array(items) = value else {
        return Err("top-level JSON value is not an array".into());
    };
    let mut stats = ChromeTraceStats {
        objects: items.len(),
        instants: 0,
        begins: 0,
        ends: 0,
    };
    let mut open: std::collections::BTreeMap<String, i64> = std::collections::BTreeMap::new();
    for (i, item) in items.iter().enumerate() {
        let json::Value::Object(fields) = item else {
            return Err(format!("array element {i} is not an object"));
        };
        let get = |key: &str| -> Option<&json::Value> {
            fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
        };
        let Some(json::Value::String(ph)) = get("ph") else {
            return Err(format!("array element {i} has no \"ph\" field"));
        };
        match ph.as_str() {
            "i" => stats.instants += 1,
            "b" | "e" => {
                let Some(json::Value::String(id)) = get("id") else {
                    return Err(format!("async event {i} has no \"id\" field"));
                };
                let n = open.entry(id.clone()).or_insert(0);
                if ph == "b" {
                    stats.begins += 1;
                    *n += 1;
                } else {
                    stats.ends += 1;
                    *n -= 1;
                    if *n < 0 {
                        return Err(format!("\"e\" for id {id} without a matching \"b\""));
                    }
                }
            }
            _ => {}
        }
    }
    if let Some((id, n)) = open.iter().find(|(_, &n)| n != 0) {
        return Err(format!("id {id} has {n} unclosed \"b\" event(s)"));
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.record(SimTime(5), "x", "hello");
        let span = t.span_begin(SimTime(5), "x", "s", SpanId::NONE);
        assert!(span.id().is_none());
        t.span_attr(span.id(), "k", "v");
        t.span_end(SimTime(9), span);
        assert!(t.events().is_empty());
        assert_eq!(t.span_count(), 0);
        assert_eq!(t.iter_spans().count(), 0);
    }

    #[test]
    fn enabled_trace_records_and_filters() {
        let mut t = Trace::enabled();
        t.record(SimTime(1), "pilot", "launch");
        t.record(SimTime(2), "yarn", "rm up");
        t.record(SimTime(3), "pilot", "active");
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.in_category("pilot").count(), 2);
        assert_eq!(t.find("rm up").unwrap().time, SimTime(2));
        assert!(t.find("nope").is_none());
    }

    #[test]
    fn spans_nest_and_complete() {
        let mut t = Trace::enabled();
        let root = t.span_begin(SimTime(0), "pilot", "pilot.run", SpanId::NONE);
        let child = t.span_begin(SimTime(10), "pilot", "pilot.bootstrap", root.id());
        let (root_id, child_id) = (root.id(), child.id());
        t.span_attr(child_id, "mode", "I");
        t.span_end(SimTime(50), child);
        t.span_end(SimTime(90), root);
        assert_eq!(root_id, SpanId(1));
        assert_eq!(child_id, SpanId(2));
        let c = t.span(child_id).unwrap();
        assert_eq!(c.parent, Some(root_id));
        assert_eq!(c.duration().unwrap().0, 40);
        assert_eq!(t.span_name(c), "pilot.bootstrap");
        assert_eq!(t.attr(c, "mode"), Some("I"));
        assert_eq!(t.attr(c, "nope"), None);
        assert_eq!(t.attrs(c).collect::<Vec<_>>(), vec![("mode", "I")],);
        assert_eq!(t.roots_named("pilot.run").count(), 1);
    }

    #[test]
    fn span_names_are_interned() {
        let mut t = Trace::enabled();
        let a = t.span_begin(SimTime(1), "x", "unit.run", SpanId::NONE);
        let b = t.span_begin(SimTime(2), "x", "unit.run", SpanId::NONE);
        let (a, b) = (a.id(), b.id());
        assert_eq!(t.span(a).unwrap().name, t.span(b).unwrap().name);
        assert_eq!(t.symbol("unit.run"), Some(t.span(a).unwrap().name));
        assert_eq!(t.symbol("never.recorded"), None);
    }

    #[test]
    fn live_span_accounting_tracks_peak() {
        let mut t = Trace::enabled();
        let mut a = t.span_begin(SimTime(1), "x", "a", SpanId::NONE);
        let b = t.span_begin(SimTime(2), "x", "b", a.id());
        assert_eq!(t.live_spans(), 2);
        t.span_end(SimTime(3), b);
        let c = t.span_begin(SimTime(4), "x", "c", a.id());
        t.span_end(SimTime(5), c);
        t.span_end(SimTime(6), std::mem::take(&mut a));
        assert_eq!(t.live_spans(), 0);
        assert_eq!(t.peak_live_spans(), 2);
        // Ending the emptied slot again must not underflow the live counter.
        t.span_end(SimTime(7), std::mem::take(&mut a));
        assert_eq!(t.live_spans(), 0);
    }

    #[test]
    fn chunked_storage_spans_multiple_chunks() {
        let mut t = Trace::enabled();
        let n = CHUNK * 2 + 7;
        for i in 0..n {
            let id = t.span_begin(SimTime(i as u64), "x", "s", SpanId::NONE);
            t.span_end(SimTime(i as u64 + 1), id);
        }
        assert_eq!(t.span_count(), n);
        assert_eq!(t.iter_spans().count(), n);
        // Ids remain sequential and addressable across chunk boundaries.
        for probe in [1u64, CHUNK as u64, CHUNK as u64 + 1, n as u64] {
            assert_eq!(t.span(SpanId(probe)).unwrap().id, SpanId(probe));
        }
        assert!(t.span(SpanId(n as u64 + 1)).is_none());
    }

    #[test]
    fn span_end_is_idempotent() {
        // Ending a stored span through `mem::take` is idempotent: the slot
        // holds `OpenSpan::NONE` after the first end, and ending NONE is a
        // no-op. (Ending the same `OpenSpan` twice does not compile.)
        let mut t = Trace::enabled();
        let mut slot = t.span_begin(SimTime(1), "x", "s", SpanId::NONE);
        let id = slot.id();
        t.span_end(SimTime(5), std::mem::take(&mut slot));
        t.span_end(SimTime(9), std::mem::take(&mut slot));
        assert_eq!(t.span(id).unwrap().end, Some(SimTime(5)));
        assert_eq!(t.live_spans(), 0);
    }

    #[test]
    fn chrome_json_is_well_formed() {
        let mut t = Trace::enabled();
        t.record(SimTime(1_000), "pilot", r#"launch "x""#);
        t.record(SimTime(2_000), "yarn", "rm up");
        let j = t.to_chrome_json();
        assert!(j.starts_with('[') && j.ends_with(']'));
        // Metadata rows for both categories + two instant events.
        assert_eq!(j.matches("thread_name").count(), 2);
        assert_eq!(j.matches("\"ph\":\"i\"").count(), 2);
        // Quotes in messages are escaped.
        assert!(j.contains("launch \\\"x\\\""));
        validate_chrome_json(&j).unwrap();
    }

    #[test]
    fn chrome_json_escapes_control_characters() {
        let mut t = Trace::enabled();
        t.record(SimTime(1), "x", "line1\nline2\tcol\rret\u{1}bell");
        let j = t.to_chrome_json();
        assert!(j.contains("line1\\nline2\\tcol\\rret\\u0001bell"));
        assert!(!j.contains('\n'));
        validate_chrome_json(&j).unwrap();
    }

    #[test]
    fn chrome_json_emits_balanced_span_pairs() {
        let mut t = Trace::enabled();
        let root = t.span_begin(SimTime(0), "unit", "unit.run", SpanId::NONE);
        let child = t.span_begin(SimTime(5), "unit", "unit.stage_in", root.id());
        t.span_attr(child.id(), "bytes", "1024");
        t.span_end(SimTime(9), child);
        t.span_end(SimTime(20), root);
        let open = t.span_begin(SimTime(21), "unit", "abandoned", SpanId::NONE);
        assert!(!open.id().is_none());
        let j = t.to_chrome_json();
        let stats = validate_chrome_json(&j).unwrap();
        // Only completed spans are exported; the open one is skipped.
        assert_eq!(stats.begins, 2);
        assert_eq!(stats.ends, 2);
        assert!(j.contains("\"bytes\":\"1024\""));
        assert!(j.contains("\"parent\":\"0x1\""));
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(validate_chrome_json("[").is_err());
        assert!(validate_chrome_json("{}").is_err());
        assert!(validate_chrome_json("[1]").is_err());
        // Unbalanced: a "b" with no matching "e".
        let unbalanced =
            r#"[{"name":"s","cat":"c","ph":"b","ts":1,"pid":1,"tid":1,"id":"0x1","args":{}}]"#;
        assert!(validate_chrome_json(unbalanced).is_err());
        // "e" before any "b" for that id.
        let inverted = r#"[{"name":"s","cat":"c","ph":"e","ts":1,"pid":1,"tid":1,"id":"0x1"}]"#;
        assert!(validate_chrome_json(inverted).is_err());
        // Raw newline inside a string is invalid JSON.
        assert!(validate_chrome_json("[{\"ph\":\"i\",\"name\":\"a\nb\"}]").is_err());
        // Empty and trailing array separators.
        assert!(validate_chrome_json("[,]").is_err());
        assert!(validate_chrome_json("[{\"ph\":\"i\"},]").is_err());
        // Whitespace around elements and separators is accepted.
        let spaced = " [ {\"ph\":\"i\"} , {\"ph\":\"i\"} ] ";
        assert_eq!(validate_chrome_json(spaced).unwrap().instants, 2);
        assert_eq!(validate_chrome_json("[]").unwrap().objects, 0);
    }

    #[test]
    fn span_index_matches_naive_children_scan() {
        let mut t = Trace::enabled();
        let root = t.span_begin(SimTime(0), "x", "root", SpanId::NONE).id();
        let a = t.span_begin(SimTime(1), "x", "a", root).id();
        let _b = t.span_begin(SimTime(2), "x", "b", root);
        let c = t.span_begin(SimTime(3), "x", "c", a).id();
        let idx = SpanIndex::build(&t);
        assert_eq!(idx.children(root).len(), 2);
        assert_eq!(idx.children(a), &[c]);
        assert_eq!(idx.children(c), &[] as &[SpanId]);
        assert_eq!(idx.children(SpanId::NONE), &[] as &[SpanId]);
        for s in t.iter_spans() {
            let naive: Vec<SpanId> = t
                .iter_spans()
                .filter(|k| k.parent == Some(s.id))
                .map(|k| k.id)
                .collect();
            assert_eq!(idx.children(s.id), &naive[..]);
        }
    }

    #[test]
    fn render_is_one_line_per_event() {
        let mut t = Trace::enabled();
        t.record(SimTime::from_secs_f64(1.0), "a", "m1");
        t.record(SimTime::from_secs_f64(2.0), "b", "m2");
        let s = t.render();
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains("m1") && s.contains("m2"));
    }

    #[test]
    fn typed_transition_renders_and_exports_like_its_text() {
        let record = |message: Message| {
            let mut t = Trace::enabled();
            t.record(SimTime(1), "unit", "UnitId(6) launching via Fork");
            t.record(SimTime(2), "unit", message);
            t
        };
        let typed = record(Message::Transition {
            subject: "UnitId",
            id: 7,
            to: "Done",
        });
        let text = record("UnitId(7) -> Done".into());
        assert_eq!(typed.render(), text.render());
        assert_eq!(typed.to_chrome_json(), text.to_chrome_json());
        assert_eq!(typed.events(), text.events());
        assert_eq!(
            format!("{:?}", typed.events()),
            format!("{:?}", text.events())
        );
        let hit = typed.find("-> Done").expect("typed record is searchable");
        assert_eq!(hit.time, SimTime(2));
        assert_eq!(hit.message.to_string(), "UnitId(7) -> Done");
        assert!(typed.find("-> Failed").is_none());
    }

    #[test]
    fn render_spans_shows_open_and_closed() {
        let mut t = Trace::enabled();
        let a = t.span_begin(SimTime(1), "x", "a", SpanId::NONE);
        let _b = t.span_begin(SimTime(2), "x", "b", a.id());
        t.span_end(SimTime(7), a);
        let s = t.render_spans();
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains("1..7"));
        assert!(s.contains("open"));
    }
}
