//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around the public calls the benchmark makes
//! into each layer. Every span records its name, start and end (ns since
//! the recorder was created), its parent (the span open when it began) and
//! the tick it belongs to. Nothing is written until the run ends, when
//! [`Tracer::write_json`] dumps every span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub tick: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

/// The span store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    tick: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            tick: 0,
        }
    }

    /// Sets the tick id stamped on spans opened from now on.
    pub fn set_tick(&mut self, tick: u64) {
        self.tick = tick;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span at the current time.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        let start = self.now_ns();
        self.begin_at(name, start)
    }

    /// Closes a span at the current time.
    pub fn end(&mut self, id: SpanId) {
        let end = self.now_ns();
        self.end_at(id, end);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// [`Tracer::span`] when `on`, otherwise just runs `f`.
    pub fn span_if<T>(&mut self, on: bool, name: &'static str, f: impl FnOnce() -> T) -> T {
        if on {
            self.span(name, f)
        } else {
            f()
        }
    }

    /// Opens a span at an explicit time (ns since the recorder's origin).
    pub fn begin_at(&mut self, name: &'static str, start_ns: u64) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            tick: self.tick,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes a span at an explicit time. Spans close innermost first.
    pub fn end_at(&mut self, id: SpanId, end_ns: u64) {
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.spans[id.0].end_ns = end_ns;
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span's self time: its duration minus the part of its
    /// interval covered by its direct children (overlapping children are
    /// counted once, and clipped to the parent).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = span.start_ns;
                for (start, end) in kids {
                    let start = start.clamp(reach, span.end_ns);
                    let end = end.min(span.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.duration_ns() - covered
            })
            .collect()
    }

    /// Durations (ns) of every closed span named `name`, in record order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Duration (ns) of the most recent span named `name`.
    pub fn last_ns(&self, name: &str) -> Option<f64> {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
    }

    /// Per-name `(count, total ns, self ns)`, sorted by name.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times_ns()) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.duration_ns();
            e.2 += own;
        }
        out
    }

    /// Every span as one JSON document: a `spans` array of
    /// `[name, start_ns, end_ns, parent, tick]` rows and a `totals` map.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "[\"{}\", {}, {}, {parent}, {}]{sep}",
                s.name, s.start_ns, s.end_ns, s.tick
            );
        }
        out.push_str("],\n\"totals\": {");
        for (i, (name, (count, total, own))) in self.totals().iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                out,
                "{sep}\n\"{name}\": {{\"count\": {count}, \"total_ns\": {total}, \"self_ns\": {own}}}"
            );
        }
        out.push_str("\n}}\n");
        out
    }

    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new();
        let tick = t.begin_at("tick", 0);
        let a = t.begin_at("score", 10);
        let inner = t.begin_at("forward", 12);
        t.end_at(inner, 40);
        t.end_at(a, 50);
        let b = t.begin_at("push", 60);
        t.end_at(b, 70);
        t.end_at(tick, 100);

        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, Some(1));
        // tick: 100 − (40 + 10) from its two direct children; score:
        // 40 − 28 from the nested forward.
        assert_eq!(t.self_times_ns(), vec![50, 12, 28, 10]);
        let totals = t.totals();
        assert_eq!(totals["tick"], (1, 100, 50));
        assert_eq!(totals["forward"], (1, 28, 28));
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let mut t = Tracer::new();
        let root = t.begin_at("root", 0);
        // Recorded children may overlap (e.g. replayed intervals); the
        // covered time is their union, clipped to the parent.
        t.spans.push(Span {
            name: "a",
            start_ns: 10,
            end_ns: 30,
            parent: Some(0),
            tick: 0,
        });
        t.spans.push(Span {
            name: "b",
            start_ns: 20,
            end_ns: 40,
            parent: Some(0),
            tick: 0,
        });
        t.spans.push(Span {
            name: "c",
            start_ns: 90,
            end_ns: 130,
            parent: Some(0),
            tick: 0,
        });
        t.end_at(root, 100);
        assert_eq!(t.self_times_ns()[0], 100 - 30 - 10);
    }

    #[test]
    fn spans_carry_the_tick_id_and_export() {
        let mut t = Tracer::new();
        t.set_tick(7);
        let s = t.begin_at("tick", 5);
        t.end_at(s, 9);
        assert_eq!(t.spans()[0].tick, 7);
        assert_eq!(t.durations_ns("tick"), vec![4.0]);
        let json = t.to_json();
        assert!(json.contains("[\"tick\", 5, 9, null, 7]"), "{json}");
        assert!(json.contains("\"tick\": {\"count\": 1, \"total_ns\": 4, \"self_ns\": 4}"));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn out_of_order_close_is_a_bug() {
        let mut t = Tracer::new();
        let a = t.begin_at("a", 0);
        let _b = t.begin_at("b", 1);
        t.end_at(a, 2);
    }
}
