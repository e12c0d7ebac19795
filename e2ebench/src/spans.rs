//! Spans of the traced pass: one per layer call, kept in memory and
//! written out as JSON lines when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One layer call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer and call, e.g. `network.run_distributed_bc_profiled`.
    pub name: &'static str,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created (0 while open).
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The iteration or pass the span belongs to.
    pub run: u32,
}

/// A thread-safe in-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    /// An empty recorder; times count from now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn begin(&self, name: &'static str, parent: Option<usize>, run: u32) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            run,
        });
        spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&self, id: usize) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("span recorder poisoned")[id].end_ns = end_ns;
    }

    /// Records a finished span timed elsewhere (e.g. on another thread).
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<usize>,
        run: u32,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans
            .lock()
            .expect("span recorder poisoned")
            .push(Span {
                name,
                start_ns: ns(start),
                end_ns: ns(end),
                parent,
                run,
            });
    }

    /// A copy of every span recorded so far.
    pub fn all(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.all().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run
            )?;
        }
        out.flush()
    }
}

/// Runs `f` inside a span when a recorder is given; just runs it
/// otherwise. Returns `f`'s value and the span index.
pub fn traced<T>(
    spans: Option<&Spans>,
    name: &'static str,
    parent: Option<usize>,
    run: u32,
    f: impl FnOnce(Option<usize>) -> T,
) -> T {
    match spans {
        None => f(None),
        Some(s) => {
            let id = s.begin(name, parent, run);
            let out = f(Some(id));
            s.end(id);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close() {
        let s = Spans::new();
        traced(Some(&s), "outer", None, 3, |outer| {
            traced(Some(&s), "inner", outer, 3, |_| ());
        });
        let all = s.all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[1].parent, Some(0));
        assert!(all.iter().all(|x| x.run == 3 && x.end_ns >= x.start_ns));
        assert!(all[0].start_ns <= all[1].start_ns && all[1].end_ns <= all[0].end_ns);
    }
}
