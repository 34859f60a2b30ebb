//! Spans recorded around the benchmark's calls into each layer.
//!
//! Each caller thread owns a [`Tracer`]; spans stay in memory and are
//! written out when the run ends. A disabled tracer records nothing, so
//! the untraced run pays one branch per call.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call: `[start, end)` in nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the same thread's list.
    pub parent: Option<u32>,
    pub op: u64,
}

/// Workload spans kept per thread; later ones are counted but not
/// stored. Probe spans are always kept (they are few).
pub const SPAN_CAP: usize = 200_000;

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    pub thread: u32,
    pub spans: Vec<Span>,
    pub dropped: u64,
    open: Vec<Option<u32>>,
    op: u64,
    /// Inside a probe root: keep spans past the cap.
    keep: bool,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant, thread: u32) -> Tracer {
        Tracer {
            enabled,
            epoch,
            thread,
            spans: Vec::new(),
            dropped: 0,
            open: Vec::new(),
            op: 0,
            keep: false,
        }
    }

    /// Starts a root span for workload operation `op`.
    pub fn root<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.op = op;
        self.span(name, f)
    }

    /// Starts a root span for probe `op`; it and its children are kept
    /// even past [`SPAN_CAP`].
    pub fn probe<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.keep = true;
        let out = self.root(name, op, f);
        self.keep = false;
        out
    }

    /// Records `f` as a span nested in the innermost open one.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let start = self.now();
        let slot = (self.keep || self.spans.len() < SPAN_CAP).then(|| {
            self.spans.push(Span {
                name,
                start,
                end: start,
                parent: self.open.last().copied().flatten(),
                op: self.op,
            });
            (self.spans.len() - 1) as u32
        });
        if slot.is_none() {
            self.dropped += 1;
        }
        self.open.push(slot);
        let out = f(self);
        self.open.pop();
        let end = self.now();
        if let Some(i) = slot {
            self.spans[i as usize].end = end;
        }
        out
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur) = (0, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cur), e.min(hi));
        if e > s {
            total += e - s;
            cur = e;
        }
    }
    total
}

/// Each span's self time: its duration minus the part of it that its
/// direct children cover (children may nest further or overlap each
/// other; overlap is counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| (s.end - s.start) - covered(s.start, s.end, kids))
        .collect()
}

/// Per span name: every duration and every self time, in nanoseconds.
#[derive(Default)]
pub struct NameTimes {
    pub total: Vec<u64>,
    pub selft: Vec<u64>,
}

pub fn by_name<'a>(
    threads: impl IntoIterator<Item = &'a Tracer>,
) -> BTreeMap<&'static str, NameTimes> {
    let mut out: BTreeMap<&'static str, NameTimes> = BTreeMap::new();
    for t in threads {
        for (s, st) in t.spans.iter().zip(self_times(&t.spans)) {
            let e = out.entry(s.name).or_default();
            e.total.push(s.end - s.start);
            e.selft.push(st);
        }
    }
    out
}

/// Writes every stored span as one JSON object per line.
pub fn write_jsonl<'a>(
    path: &std::path::Path,
    threads: impl IntoIterator<Item = &'a Tracer>,
) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for t in threads {
        for (i, s) in t.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"thread\":{},\"id\":{i},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                t.thread, s.op, s.name, s.start, s.end
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_overlapping_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            // Two children overlapping on [20, 30): together they cover
            // [10, 40), i.e. 30 ns of the root.
            span("a", 10, 30, Some(0)),
            span("b", 20, 40, Some(0)),
            // A grandchild counts against its parent `a`, not the root.
            span("a.inner", 12, 18, Some(1)),
            // A child sticking out past the root's end is clipped.
            span("late", 90, 120, Some(0)),
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![100 - 30 - 10, 20 - 6, 20, 6, 30]);
    }

    #[test]
    fn tracer_nests_spans_and_records_nothing_when_disabled() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch, 0);
        t.root("op", 7, |t| {
            t.span("child", |t| t.span("grandchild", |_| ()));
            t.span("child", |_| ());
        });
        let parents: Vec<_> = t.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(0)]);
        assert!(t.spans.iter().all(|s| s.op == 7 && s.end >= s.start));
        let names = by_name([&t]);
        assert_eq!(names["child"].total.len(), 2);

        let mut off = Tracer::new(false, epoch, 1);
        assert_eq!(off.root("op", 1, |t| t.span("child", |_| 5)), 5);
        assert!(off.spans.is_empty());
    }
}
