//! Benchmark-side spans.
//!
//! The benchmark wraps each call into a layer's public function in a span.
//! Every span names the operation that caused it (a forward, a request, a
//! set-up pass): operations are root spans, layer calls are their
//! children. Spans are held in memory and written as a Chrome trace
//! (`chrome://tracing`, Perfetto) when the run ends. A disabled tracer
//! records nothing and only runs the wrapped call.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique span id; operation ids come from the same sequence.
    pub id: u64,
    /// The operation span this one belongs to (`None` for operations).
    pub parent: Option<u64>,
    /// Layer call or operation name, e.g. `runtime.attn` or `forward`.
    pub name: &'static str,
    /// Wall-clock start.
    pub start: Instant,
    /// Wall-clock end.
    pub end: Instant,
    /// Benchmark-local id of the recording thread.
    pub thread: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e3
    }
}

/// Collects spans in memory for one run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

fn thread_tag() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TAG: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TAG.with(|t| *t)
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Allocates the id of a new operation; record it with [`Self::finish_op`].
    pub fn op(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records operation `op` as a root span from `start` to now.
    pub fn finish_op(&self, op: u64, name: &'static str, start: Instant) {
        self.push(op, None, name, start, Instant::now());
    }

    /// Runs `f` inside a span named `name`, parented to operation `op`.
    pub fn time<T>(&self, op: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let id = self.op();
        self.push(id, Some(op), name, start, Instant::now());
        out
    }

    fn push(&self, id: u64, parent: Option<u64>, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id,
            parent,
            name,
            start,
            end,
            thread: thread_tag(),
        };
        self.spans
            .lock()
            .expect("span store poisoned by a panic")
            .push(span);
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span store poisoned by a panic")
            .clone()
    }

    /// Drops every span recorded so far (between phases of one run).
    pub fn clear(&self) {
        self.spans
            .lock()
            .expect("span store poisoned by a panic")
            .clear();
    }

    /// Total milliseconds of the spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// Durations in milliseconds of the spans named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span store poisoned by a panic")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Writes every span as a Chrome trace to `path`, creating its
    /// directory.
    ///
    /// # Errors
    /// Propagates file-system errors.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"traceEvents\": [")?;
        for (i, s) in spans.iter().enumerate() {
            let ts = s.start.duration_since(self.epoch).as_secs_f64() * 1e6;
            let dur = s.end.duration_since(s.start).as_secs_f64() * 1e6;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {ts:.3}, \
                 \"dur\": {dur:.3}, \"args\": {{\"id\": {}, \"parent\": {parent}}}}}{sep}",
                s.name, s.thread, s.id
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_are_parented_to_their_operation() {
        let t = Tracer::new(true);
        let op = t.op();
        let start = Instant::now();
        let v = t.time(op, "layer.a", || 7);
        t.time(op, "layer.b", || ());
        t.finish_op(op, "forward", start);
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans[..2].iter().all(|s| s.parent == Some(op)));
        assert_eq!(spans[2].id, op);
        assert_eq!(spans[2].parent, None);
        assert_eq!(t.durations_ms("layer.a").len(), 1);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let op = t.op();
        assert_eq!(t.time(op, "layer.a", || 3), 3);
        t.finish_op(op, "forward", Instant::now());
        assert!(t.spans().is_empty());
    }
}
