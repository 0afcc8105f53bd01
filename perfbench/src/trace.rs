//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each layer
//! (the program itself is not instrumented): name, start, end, parent span
//! and a request or step id. They stay in memory while the workload runs
//! and are written out once, when the run ends.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;
use sthsl_obs::Json;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over every span with that name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Records spans on one thread. Nesting follows call structure: a span
/// opened while another is open becomes its child. It also times its own
/// bookkeeping, which is what tracing adds to the run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    cost_ns: Cell<u64>,
}

impl Tracer {
    /// A tracer; when `enabled` is false every call is a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            cost_ns: Cell::new(0),
        }
    }

    fn charge(&self, since: Instant) {
        let ns = u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.cost_ns.set(self.cost_ns.get().saturating_add(ns));
    }

    /// Milliseconds the tracer has spent recording spans: the time tracing
    /// added to the run, outside the work it traced.
    pub fn cost_ms(&self) -> f64 {
        self.cost_ns.get() as f64 / 1e6
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Nanoseconds from the tracer's epoch to `t` (0 if `t` is earlier).
    pub fn at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&self, name: &str, id: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let opened = Instant::now();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span { name: name.into(), id, parent, start_ns: self.now_ns(), end_ns: 0 });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        self.charge(opened);
        let out = f();
        let closing = Instant::now();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[idx].end_ns = end;
        self.charge(closing);
        out
    }

    /// Record an already-closed span (timestamps taken elsewhere, e.g. by a
    /// training hook or a client thread). Returns its index for use as a
    /// parent.
    pub fn record(
        &self,
        name: &str,
        id: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let t = Instant::now();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span { name: name.into(), id, parent, start_ns, end_ns });
        let idx = spans.len() - 1;
        drop(spans);
        self.charge(t);
        Some(idx)
    }

    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    #[cfg(test)]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Totals and self time per span name. Self time is a span's duration
    /// minus the part of it its children cover (children on one thread do
    /// not overlap, so that part is the union of their intervals clipped to
    /// the parent).
    pub fn totals(&self) -> BTreeMap<String, SpanTotals> {
        totals(&self.spans.borrow())
    }

    /// Write every span, one JSON object per line, then the per-name totals.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.borrow();
        let as_int = |v: u64| Json::Int(i64::try_from(v).unwrap_or(i64::MAX));
        let mut out = String::new();
        for (i, s) in spans.iter().enumerate() {
            let line = Json::Obj(vec![
                ("span".into(), as_int(i as u64)),
                ("name".into(), Json::Str(s.name.clone())),
                ("id".into(), as_int(s.id)),
                ("parent".into(), s.parent.map_or(Json::Null, |p| as_int(p as u64))),
                ("start_ns".into(), as_int(s.start_ns)),
                ("end_ns".into(), as_int(s.end_ns)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        for (name, t) in totals(&spans) {
            let line = Json::Obj(vec![
                ("totals".into(), Json::Str(name)),
                ("count".into(), as_int(t.count)),
                ("total_ns".into(), as_int(t.total_ns)),
                ("self_ns".into(), as_int(t.self_ns)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

fn totals(spans: &[Span]) -> BTreeMap<String, SpanTotals> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            children[p].push(i);
        }
    }
    let mut out: BTreeMap<String, SpanTotals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let mut covered: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| (spans[c].start_ns.max(s.start_ns), spans[c].end_ns.min(s.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        covered.sort_unstable();
        let mut union = 0u64;
        let mut cursor = s.start_ns;
        for (a, b) in covered {
            let a = a.max(cursor);
            if b > a {
                union += b - a;
                cursor = b;
            }
        }
        let t = out.entry(s.name.clone()).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(union);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name: name.into(), id: 0, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("step", None, 0, 100),
            span("forward", Some(0), 10, 40),
            span("backward", Some(0), 40, 90),
            span("kernel", Some(1), 15, 35),
        ];
        let t = totals(&spans);
        assert_eq!(t["step"], SpanTotals { count: 1, total_ns: 100, self_ns: 20 });
        assert_eq!(t["forward"], SpanTotals { count: 1, total_ns: 30, self_ns: 10 });
        assert_eq!(t["backward"].self_ns, 50);
        assert_eq!(t["kernel"].self_ns, 20);
    }

    #[test]
    fn overlapping_children_are_counted_as_their_union() {
        let spans = vec![
            span("request", None, 0, 100),
            span("a", Some(0), 10, 60),
            span("b", Some(0), 50, 70),
            span("c", Some(0), 90, 150),
        ];
        // Union clipped to the parent: [10,70) + [90,100) = 70.
        assert_eq!(totals(&spans)["request"].self_ns, 30);
    }

    #[test]
    fn nested_span_calls_record_parents_and_disabled_records_nothing() {
        let tracer = Tracer::new(true);
        tracer.span("outer", 1, || tracer.span("inner", 2, || ()));
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(tracer.cost_ms() > 0.0, "bookkeeping is timed");
        let off = Tracer::new(false);
        assert_eq!(off.span("x", 0, || 7), 7);
        assert_eq!(off.len(), 0);
        assert_eq!(off.cost_ms(), 0.0);
    }
}
