//! In-memory spans for the traced pass, written out when the run ends.

use std::io::Write;
use std::time::Instant;

/// One timed interval: a root `execute` call, a replay, or a layer call
/// inside a replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// The operation's position in the workload's sequence.
    pub op: usize,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One client's spans. Times are offsets from an origin shared by every
/// client of the run, so merged logs stay on one time axis.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(origin: Instant) -> SpanLog {
        SpanLog {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span whose end is set by [`SpanLog::close`], so that child
    /// spans can name it as their parent.
    pub fn open(&mut self, name: &'static str, op: usize) -> usize {
        let start_ns = self.now_ns();
        self.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: None,
            op,
        })
    }

    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span that is a child of `parent`.
    pub fn time<R>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let op = self.spans[parent].op;
        self.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            op,
        });
        out
    }

    /// Appends another client's log, re-basing its parent indices.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

/// Every span's self time: its duration minus the part of its interval
/// that its direct children cover (overlapping children are counted
/// once). One pass over the log, so a replay's hundred thousand spans
/// cost milliseconds.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                covered[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(span, mut covered)| {
            covered.sort_unstable();
            let mut total = 0;
            let mut reach = span.start_ns;
            for (a, b) in covered {
                let a = a.max(reach);
                if b > a {
                    total += b - a;
                    reach = b;
                }
            }
            span.duration_ns() - total
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("replay", 100, 200, None),
            span("a", 110, 130, Some(0)),
            // Overlaps `a`: the shared 120..130 is counted once.
            span("b", 120, 150, Some(0)),
            // Sticks out past the parent's end: clipped at 200.
            span("c", 190, 260, Some(0)),
            // A grandchild does not count against the root.
            span("d", 160, 180, Some(1)),
            // Another root's child does not either.
            span("other", 300, 400, None),
            span("e", 140, 170, Some(5)),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[0], 100 - 40 - 10);
        assert_eq!(selfs[1], 20);
        assert_eq!(selfs[5], 100);
        assert_eq!(selfs[6], 30);
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = SpanLog::new(origin);
        let root = a.open("replay", 1);
        a.time("child", root, || ());
        a.close(root);
        let mut b = SpanLog::new(origin);
        let root_b = b.open("replay", 2);
        b.time("child", root_b, || ());
        a.absorb(b);
        assert_eq!(a.spans[3].parent, Some(2));
        assert_eq!(a.spans[3].op, 2);
        assert!(self_times_ns(&a.spans)[0] <= a.spans[0].duration_ns());
    }
}
