//! Spans recorded from the benchmark's own side of each layer boundary.
//!
//! A span is a name, a start and an end (ns since the tracer's epoch), the
//! span that caused it, and the id of the client request it belongs to.
//! Spans stay in memory until the run ends and are then written as one JSON
//! object per line. Nothing inside the program under test is instrumented;
//! child spans are synthesised from what its public API returns.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// 0 = a root span (one client op).
    pub parent: u64,
    pub request: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A per-thread buffer, so recording a span takes no shared lock.
    pub fn local(&self) -> LocalSpans<'_> {
        LocalSpans {
            tracer: self,
            buf: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.lock().len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // A span list is valid after every push, so a poisoned lock still
        // guards usable data.
        self.spans.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Per span name: how many, and their summed self time (duration minus
    /// the part their direct children cover).
    pub fn self_times(&self) -> HashMap<String, (u64, u64)> {
        let spans = self.lock();
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
        let mut out: HashMap<String, (u64, u64)> = HashMap::new();
        for s in spans.iter() {
            let own = (s.end_ns - s.start_ns).saturating_sub(*child_ns.get(&s.id).unwrap_or(&0));
            let e = out.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += own;
        }
        out
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.lock().iter() {
            writeln!(
                w,
                r#"{{"id":{},"parent":{},"request":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

pub struct LocalSpans<'a> {
    tracer: &'a Tracer,
    buf: Vec<Span>,
}

impl LocalSpans<'_> {
    pub fn now_ns(&self) -> u64 {
        self.tracer.now_ns()
    }

    /// Record a finished span; returns its id (the parent of its children).
    pub fn record(
        &mut self,
        name: &str,
        parent: u64,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
        self.buf.push(Span {
            id,
            parent,
            request,
            name: name.to_string(),
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Time `f` as a span of its own.
    pub fn time<T>(&mut self, name: &str, parent: u64, request: u64, f: impl FnOnce() -> T) -> T {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.record(name, parent, request, start, end);
        out
    }
}

impl Drop for LocalSpans<'_> {
    fn drop(&mut self) {
        self.tracer.lock().append(&mut self.buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let t = Tracer::new();
        {
            let mut l = t.local();
            let root = l.record("op.q1", 0, 1, 100, 1_100);
            l.record("hop", root, 1, 200, 500);
            l.record("hop", root, 1, 500, 900);
        }
        assert_eq!(t.len(), 3);
        let st = t.self_times();
        assert_eq!(st["op.q1"], (1, 300));
        assert_eq!(st["hop"], (2, 700));
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let t = Tracer::new();
        t.local().time("layer.call", 0, 7, || ());
        // Inside the benchmark's own (git-ignored) output directory.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-trace");
        let path = dir.join("t.jsonl");
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(text.lines().count(), 1);
        let j = a1_json::Json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(
            j.get("name").and_then(a1_json::Json::as_str),
            Some("layer.call")
        );
        assert_eq!(j.get("request").and_then(a1_json::Json::as_i64), Some(7));
    }
}
