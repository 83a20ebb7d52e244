//! In-memory spans for the traced run. The benchmark opens a span around
//! each call it makes into a layer's public functions; nothing inside the
//! program is instrumented. Spans are written out when the run ends.

use gplu_trace::json::JsonValue;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name (`preprocess`, `symbolic`, `queue`, ...).
    pub name: &'static str,
    /// The operation the span belongs to.
    pub op: u64,
    /// Index of the enclosing span in the same [`Tracer`].
    pub parent: Option<usize>,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder for one thread. Spans opened while another is open
/// become its children.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch` (share one epoch
    /// between the tracers of several threads).
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; its parent is the innermost open span.
    pub fn begin(&mut self, name: &'static str, op: u64) -> usize {
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span opened inside it and left open).
    pub fn end(&mut self, id: usize) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, op);
        let out = f();
        self.end(id);
        out
    }

    /// Records a finished interval known only by its bounds (service-side
    /// intervals reported in a job result), as a child of `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        self.spans.len() - 1
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another tracer's spans in (parents re-indexed).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span: its duration minus the part of it that
    /// its children cover (overlapping children count once).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                for (a, b) in kids {
                    let a = a.max(cursor);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                s.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Total self time per span name, ns.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.name).or_insert(0) += own;
        }
        out
    }

    /// The spans as a JSON document.
    pub fn to_json(&self) -> JsonValue {
        let own = self.self_ns();
        let spans = self
            .spans
            .iter()
            .zip(own)
            .map(|(s, own)| {
                JsonValue::obj()
                    .set("name", s.name)
                    .set("op", s.op)
                    .set("parent", s.parent.map(|p| p as u64))
                    .set("start_ns", s.start_ns)
                    .set("end_ns", s.end_ns)
                    .set("self_ns", own)
            })
            .collect();
        JsonValue::obj().set("spans", JsonValue::Arr(spans))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let mut t = Tracer::new(Instant::now());
        let op = t.record("op", 0, None, 0, 100);
        t.record("a", 0, Some(op), 10, 40);
        // Overlaps `a` by 10 ns: covered is 10..60, not 30 + 30.
        t.record("b", 0, Some(op), 30, 60);
        // Spills past the parent: only 90..100 counts against it.
        t.record("c", 0, Some(op), 90, 120);
        assert_eq!(t.self_ns(), vec![100 - 50 - 10, 30, 30, 30]);
        let by = t.self_by_name();
        assert_eq!(by["op"], 40);
        assert_eq!(by["c"], 30);
    }

    #[test]
    fn nested_begin_end_sets_parents() {
        let mut t = Tracer::new(Instant::now());
        let op = t.begin("op", 7);
        let inner = t.begin("inner", 7);
        t.end(inner);
        t.end(op);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[0].parent, None);
        assert!(s[0].end_ns >= s[1].end_ns);
        assert_eq!(s[1].op, 7);
    }

    #[test]
    fn absorb_reindexes_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        a.record("x", 0, None, 0, 10);
        let mut b = Tracer::new(epoch);
        let p = b.record("op", 1, None, 0, 10);
        b.record("child", 1, Some(p), 2, 3);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
