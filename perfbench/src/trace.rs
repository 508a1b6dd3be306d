//! In-memory spans for the traced run.
//!
//! Every span records its name, start, end, parent span and the id of
//! the request it belongs to. Spans stay in memory while the workload
//! runs and are written out as JSON lines when it ends. A span's self
//! time is its duration minus the part of its interval that its
//! children cover (overlapping children are counted once).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `serve.proto.parse`.
    pub name: &'static str,
    /// Start time.
    pub start: u64,
    /// End time (equal to `start` while the span is open).
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request (or instance) this span belongs to.
    pub req: u64,
}

/// A span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder whose clock starts at `origin`.
    #[must_use]
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        nanos(self.origin.elapsed())
    }

    /// Open a span.
    pub fn begin(&mut self, name: &'static str, req: u64, parent: Option<SpanId>) -> SpanId {
        let t = self.now();
        self.spans.push(Span {
            name,
            start: t,
            end: t,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end = self.now();
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, req, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Take the spans out, leaving the recorder empty.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// A duration in whole nanoseconds (saturating).
#[must_use]
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
#[must_use]
pub fn covered(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span: its duration minus what its children
/// cover.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| (s.end - s.start) - covered(s.start, s.end, kids))
        .collect()
}

/// Totals per span name: count, summed duration and summed self time
/// (nanoseconds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations.
    pub total: u64,
    /// Summed self times.
    pub self_total: u64,
}

/// Totals keyed by span name.
pub type Totals = BTreeMap<&'static str, NameTotals>;

/// Append `more` to `into`, rebasing parent links.
pub fn append(into: &mut Vec<Span>, more: Vec<Span>) {
    let offset = into.len();
    into.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + offset);
        s
    }));
}

/// Aggregate the spans that `keep` selects by name (self times are
/// computed over all spans).
#[must_use]
pub fn totals_by_name(spans: &[Span], keep: impl Fn(&Span) -> bool) -> Totals {
    let selfs = self_times(spans);
    let mut out = Totals::new();
    for (s, st) in spans.iter().zip(selfs).filter(|(s, _)| keep(s)) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total += s.end - s.start;
        e.self_total += st;
    }
    out
}

/// Write spans as JSON lines (one object per span).
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
            s.name, s.start, s.end, s.req
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once() {
        // root [0,100) > a [10,40) > a.inner [15,20); b [50,70)
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 20, Some(1)),
            span("b", 50, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 25, 5, 20]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Two concurrent children [10,60) and [40,90): union 80.
        let spans = vec![
            span("root", 0, 100, None),
            span("x", 10, 60, Some(0)),
            span("y", 40, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![
            span("root", 10, 50, None),
            span("early", 0, 20, Some(0)),
            span("late", 45, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 25);
        assert_eq!(covered(0, 10, &[(3, 3), (20, 30)]), 0);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = vec![
            span("root", 0, 10, None),
            span("leaf", 0, 4, Some(0)),
            span("root", 20, 30, None),
            span("leaf", 22, 24, Some(2)),
        ];
        let t = totals_by_name(&spans, |_| true);
        assert_eq!(
            t["root"],
            NameTotals {
                count: 2,
                total: 20,
                self_total: 14
            }
        );
        assert_eq!(t["leaf"].self_total, 6);
    }

    #[test]
    fn totals_can_select_by_request() {
        let mut spans = vec![span("root", 0, 10, None), span("root", 20, 30, None)];
        spans[1].req = 1;
        assert_eq!(totals_by_name(&spans, |s| s.req == 1)["root"].count, 1);
    }

    #[test]
    fn tracer_records_nesting() {
        let mut tr = Tracer::new(Instant::now());
        let root = tr.begin("root", 7, None);
        let v = tr.time("child", 7, Some(root), || 3);
        tr.end(root);
        assert_eq!(v, 3);
        let s = tr.take();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        assert_eq!(s[1].req, 7);
    }
}
