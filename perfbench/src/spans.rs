//! Outside-in span recorder for the traced pass.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! program's public functions: name, start, end and parent. They stay in
//! memory until the pass ends and are then written out as JSON lines.
//! A disabled recorder costs one branch per call, so the same loop code
//! runs the untraced and the traced pass.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Totals for all spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub calls: u64,
    pub total_ns: u64,
}

/// Span recorder; a disabled one records nothing.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span, returned by [`Spans::enter`].
#[must_use]
pub struct Open(Option<usize>);

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, parent, start_ns, end_ns: start_ns });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`Spans::enter`]; spans close innermost first.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let popped = self.open.pop();
        assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Calls and total time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for s in &self.spans {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += s.end_ns - s.start_ns;
        }
        out
    }

    /// The spans as JSON lines: `{"id","name","parent","start_ns","end_ns"}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 80);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_disabled_records_nothing() {
        let mut spans = Spans::new(true);
        spans.time("outer", || {});
        let outer = spans.enter("outer");
        spans.time("inner", || std::thread::sleep(std::time::Duration::from_millis(2)));
        spans.exit(outer);
        let t = spans.totals();
        assert_eq!(t["outer"].calls, 2);
        assert_eq!(t["inner"].calls, 1);
        assert!(t["inner"].total_ns >= 2_000_000);
        let jsonl = spans.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[2].contains("\"name\":\"inner\",\"parent\":1,"), "{}", lines[2]);

        let mut off = Spans::new(false);
        off.time("x", || {});
        assert!(off.to_jsonl().is_empty());
    }
}
