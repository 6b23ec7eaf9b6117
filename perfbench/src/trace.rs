//! Spans around each call the benchmark makes into a layer.
//!
//! A traced run records one [`Span`] per public call (name, layer, start,
//! end, parent span, run id), keeps them in memory, and writes them out as
//! JSON lines when the run ends. A layer's self time is the time its spans
//! cover minus the part of that interval their child spans cover. An
//! untraced run pays one branch per call and allocates nothing.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called, e.g. `explore Paxos (R = 3, N = 2)`.
    pub name: String,
    /// The layer the call enters, e.g. `engine` or `refine`.
    pub layer: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation the span belongs to (0 = set-up, then 1, 2, ...).
    pub run: u64,
}

impl Span {
    /// Duration in seconds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Records spans while enabled; a no-op otherwise.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: Cell<bool>,
    run: Cell<u64>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A disabled tracer whose timestamps count from `origin`.
    #[must_use]
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            enabled: Cell::new(false),
            run: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Turns recording on or off for the calls that follow.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Tags the spans that follow with operation id `run`.
    pub fn set_run(&self, run: u64) {
        self.run.set(run);
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `body` inside a span named `name` on `layer`.
    pub fn span<T>(&self, layer: &'static str, name: &str, body: impl FnOnce() -> T) -> T {
        if !self.enabled.get() {
            return body();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name: name.to_owned(),
                layer,
                start_ns: 0,
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
                run: self.run.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let start = self.now_ns();
        let out = body();
        let end = self.now_ns();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[index].start_ns = start;
        spans[index].end_ns = end;
        out
    }

    /// Every span recorded so far, in opening order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// The distinct span names recorded so far.
    #[must_use]
    pub fn span_names(&self) -> BTreeSet<String> {
        self.spans.borrow().iter().map(|s| s.name.clone()).collect()
    }

    /// Self time per layer, in seconds, over the spans whose run id
    /// satisfies `keep`: each span's duration minus its children's.
    #[must_use]
    pub fn self_times(&self, keep: impl Fn(u64) -> bool) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, children) in spans.iter().zip(child_ns) {
            if keep(s.run) {
                let own = (s.end_ns - s.start_ns).saturating_sub(children);
                *out.entry(s.layer).or_default() += own as f64 / 1e9;
            }
        }
        out
    }

    /// Total seconds of the spans on `layer` named `name` in kept runs.
    #[must_use]
    pub fn total(&self, layer: &str, name: &str, keep: impl Fn(u64) -> bool) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.layer == layer && s.name == name && keep(s.run))
            .map(Span::seconds)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": {}, \"layer\": {}, \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"run\": {}}}",
                json_string(&s.name),
                json_string(s.layer),
                s.start_ns,
                s.end_ns,
                s.run
            )?;
        }
        out.flush()
    }
}

/// A JSON string literal.
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(Instant::now());
        t.set_enabled(true);
        t.set_run(1);
        t.span("outer", "a", || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            t.span("inner", "b", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let self_times = t.self_times(|run| run == 1);
        assert!(self_times["inner"] >= 0.02);
        assert!(self_times["outer"] < spans[0].seconds() - 0.019);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(Instant::now());
        assert_eq!(t.span("x", "y", || 7), 7);
        assert!(t.spans().is_empty());
    }
}
