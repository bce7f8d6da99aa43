//! In-memory spans recorded by the harness around the calls it makes into
//! the program (the program itself carries no spans yet — that is the
//! later metrics-spine issue), self-time arithmetic, and the JSONL dump.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. Spans of one request share `request`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    pub request: u64,
}

/// A single-threaded span recorder: `enter`/`exit` nest through a stack,
/// so a span's parent is whatever was open when it started.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// All tracers of one run share `epoch`, so their spans share a clock.
    pub fn new(epoch: Instant) -> Self {
        Tracer { epoch, spans: Vec::new(), stack: Vec::new() }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the currently open one.
    pub fn enter(&mut self, name: &'static str, request: u64) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            request,
        });
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span, returning its index.
    pub fn exit(&mut self) -> u32 {
        let id = self.stack.pop().expect("exit without a matching enter");
        self.spans[id as usize].end_ns = self.now_ns();
        id
    }

    /// Records a closed child of span `parent` from a duration the program
    /// reported about itself (e.g. `ServeResponse::service`), ending at
    /// `end_ns`. The child is clipped to its parent.
    pub fn child_ending_at(&mut self, parent: u32, name: &'static str, end_ns: u64, dur_ns: u64) {
        let p = &self.spans[parent as usize];
        let end_ns = end_ns.min(p.end_ns);
        let start_ns = end_ns.saturating_sub(dur_ns).max(p.start_ns);
        let request = p.request;
        self.spans.push(Span { name, start_ns, end_ns, parent: Some(parent), request });
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its child spans cover (children may overlap each other; the union is
/// subtracted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Self times of the spans named `name`, in recording order.
pub fn self_times_of(spans: &[Span], selfs: &[u64], name: &str) -> Vec<u64> {
    spans.iter().zip(selfs).filter(|(s, _)| s.name == name).map(|(_, &t)| t).collect()
}

/// Durations of the spans named `name`, in recording order.
pub fn durations_of(spans: &[Span], name: &str) -> Vec<u64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).collect()
}

/// Writes one JSON object per span: `{name, start, end, parent, request_id}`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{id},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"request_id\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span { name, start_ns, end_ns, parent, request: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_once() {
        let spans = vec![
            span("request", 0, 100, None),
            span("queued", 10, 30, Some(0)),
            span("service", 30, 80, Some(0)),
            // Overlaps `service` on [70, 80) and sticks out of the parent.
            span("late", 70, 120, Some(0)),
            span("probe", 35, 45, Some(2)),
        ];
        let selfs = self_times(&spans);
        // request: 100 − |[10,30) ∪ [30,80) ∪ [70,100)| = 100 − 90.
        assert_eq!(selfs, vec![10, 20, 40, 50, 10]);
        assert_eq!(self_times_of(&spans, &selfs, "service"), vec![40]);
        assert_eq!(durations_of(&spans, "late"), vec![50]);
    }

    #[test]
    fn tracer_nests_and_synthesizes_reported_children() {
        let mut t = Tracer::new(Instant::now());
        let outer = t.enter("request", 7);
        let inner = t.enter("call", 7);
        assert_eq!(t.exit(), inner);
        assert_eq!(t.exit(), outer);
        assert_eq!(t.spans[inner as usize].parent, Some(outer));
        let end = t.spans[outer as usize].end_ns;
        // A reported duration longer than the parent is clipped to it.
        t.child_ending_at(outer, "service", end, u64::MAX / 2);
        let child = t.spans.last().unwrap();
        assert_eq!((child.start_ns, child.end_ns), (t.spans[outer as usize].start_ns, end));
        assert_eq!(child.request, 7);
    }
}
