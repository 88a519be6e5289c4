//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded around the benchmark's own calls into each
//! layer's public functions; nothing inside the program is
//! instrumented. Each span has a name, start, end, parent and trace id
//! (one per kernel job or service job). A layer's metric is its spans'
//! self time: duration minus the part covered by child spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times in nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, e.g. `batch.group`.
    pub name: &'static str,
    /// Job this span belongs to.
    pub trace: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
}

/// Records spans; a disabled recorder runs the closures untimed, so the
/// same re-drive code measures tracing overhead.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder that records when `enabled`.
    pub fn new(enabled: bool) -> Recorder {
        Recorder { epoch: Instant::now(), enabled, spans: Vec::new(), open: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside span `name` of job `trace`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        trace: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span { name, trace, parent, start, end: start });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.now();
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sum of self time (ns) per span name over spans at index `from`
    /// onwards.
    pub fn self_times(&self, from: usize) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans[from..] {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().skip(from) {
            *out.entry(s.name).or_insert(0) += (s.end - s.start).saturating_sub(child[i]);
        }
        out
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{i},"name":"{}","trace":{},"parent":{parent},"start_ns":{},"end_ns":{}}}"#,
                s.name, s.trace, s.start, s.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new(true);
        rec.span("root", 1, |rec| {
            rec.span("child", 1, |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let root = &rec.spans()[0];
        let child = &rec.spans()[1];
        assert_eq!(child.parent, Some(0));
        let times = rec.self_times(0);
        assert_eq!(times["child"], child.end - child.start);
        assert_eq!(times["root"], (root.end - root.start) - (child.end - child.start));
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span("root", 1, |_| 7), 7);
        assert!(rec.spans().is_empty());
    }
}
