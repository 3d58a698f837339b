//! In-memory spans recorded around calls into each layer.
//!
//! A span has a name, a start and end time, the span that caused it,
//! and the request (trace) it belongs to. Spans are kept in memory
//! while the run measures and written out once at the end.

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub trace: u64,
    pub name: String,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time `f` as a span named `name`; returns the span id with the
    /// result so children can point at it.
    pub fn span<T>(
        &self,
        trace: u64,
        parent: Option<usize>,
        name: &str,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let id = self.reserve();
        let start = self.now();
        let out = f(id);
        let end = self.now();
        self.record(id, parent, trace, name, start, end);
        out
    }

    /// Reserve an id for a span whose times are known only later.
    pub fn reserve(&self) -> usize {
        let mut spans = self.spans.lock().expect("tracer lock not poisoned");
        let id = spans.len();
        spans.push(Span {
            id,
            parent: None,
            trace: 0,
            name: String::new(),
            start: 0,
            end: 0,
        });
        id
    }

    pub fn record(
        &self,
        id: usize,
        parent: Option<usize>,
        trace: u64,
        name: &str,
        start: u64,
        end: u64,
    ) {
        let mut spans = self.spans.lock().expect("tracer lock not poisoned");
        spans[id] = Span {
            id,
            parent,
            trace,
            name: name.to_string(),
            start,
            end,
        };
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("tracer lock not poisoned")
    }
}

/// Per-span self time, nanoseconds: the span's duration minus the part
/// of its interval that its children cover (overlapping children are
/// counted once, and children are clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start;
            for (a, b) in kids {
                let a = a.max(cursor);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Write spans as one JSON object per line.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.trace, s.name, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            trace: 1,
            name: name.to_string(),
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) with children a [10,40) and b [50,90);
        // a has grandchild g [20,30).
        let spans = vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "a", 10, 40),
            span(2, Some(1), "g", 20, 30),
            span(3, Some(0), "b", 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "a", 10, 60),
            span(2, Some(0), "b", 40, 80),
            // Ends after the parent: clipped at 100.
            span(3, Some(0), "c", 90, 120),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn tracer_records_nested_spans_across_threads() {
        let tracer = Tracer::new();
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let tracer = &tracer;
                s.spawn(move || {
                    tracer.span(t, None, "root", |id| {
                        tracer.span(t, Some(id), "child", |_| ());
                    });
                });
            }
        });
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 4);
        for s in &spans {
            assert!(s.end >= s.start);
            if s.name == "child" {
                let p = &spans[s.parent.expect("child has a parent")];
                assert_eq!(p.name, "root");
                assert_eq!(p.trace, s.trace);
                assert!(p.start <= s.start && s.end <= p.end);
            }
        }
    }
}
