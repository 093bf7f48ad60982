//! In-memory spans for the traced run.
//!
//! A span is recorded at each layer boundary from the benchmark's own
//! side of the call: name, start, end, the span that caused it, and
//! the request it belongs to. The buffer is allocated once, up front;
//! nothing is written until the run ends. Spans inside the program are
//! a later issue.

use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the buffer.
    pub parent: Option<u32>,
    /// Spans of one request share this id (0: not part of a request).
    pub request: u32,
}

pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// Spans that did not fit the buffer.
    pub dropped: u64,
}

impl Recorder {
    pub fn with_capacity(capacity: usize) -> Recorder {
        Recorder {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
            dropped: 0,
        }
    }

    /// A recorder that records nothing and reads no clock: the same
    /// code path with tracing off, for the overhead measurement.
    pub fn disabled() -> Recorder {
        Recorder {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            dropped: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; spans opened by `f` become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u32,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now();
        out
    }

    /// Record a child of the innermost open span whose interval is
    /// known from elsewhere (the engine's own stage clock): `offset_ns`
    /// after the parent's start, `len_ns` long.
    pub fn child_at(&mut self, name: &'static str, request: u32, offset_ns: u64, len_ns: u64) {
        if !self.enabled {
            return;
        }
        let Some(&parent) = self.open.last() else {
            return;
        };
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return;
        }
        let start_ns = self.spans[parent as usize].start_ns + offset_ns;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + len_ns,
            parent: Some(parent),
            request,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// For every span, the part of its interval its children cover
    /// (their union, clipped to the span), indexed like `spans()`.
    pub fn child_cover(&self) -> Vec<u64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                if hi > lo {
                    kids[p as usize].push((lo, hi));
                }
            }
        }
        kids.into_iter()
            .map(|mut intervals| {
                intervals.sort_unstable();
                let mut covered = 0;
                let mut reach = 0;
                for (lo, hi) in intervals {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                covered
            })
            .collect()
    }

    /// Write the spans as `{"spans": [{name, start_ns, end_ns, parent,
    /// request}, …], "dropped": n}`; `parent` is an index into the
    /// array or null.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"dropped\": {}, \"spans\": [", self.dropped)?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.request,
                if i + 1 < self.spans.len() { "," } else { "" }
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nesting_parents_and_child_cover() {
        let mut rec = Recorder::with_capacity(16);
        rec.span("request", 1, |rec| {
            spin(200_000);
            rec.span("decode", 1, |_| spin(300_000));
            rec.span("search", 1, |rec| {
                spin(100_000);
                rec.child_at("candidates", 1, 0, 40_000);
                rec.child_at("score", 1, 40_000, 30_000);
            });
        });
        let spans = rec.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["request", "decode", "search", "candidates", "score"]
        );
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.request == 1));
        // Self time is duration minus what the children cover: the
        // request's own part is the 0.2 ms before its children.
        let cover = rec.child_cover();
        let total = spans[0].end_ns - spans[0].start_ns;
        let request_self = total - cover[0];
        assert!((200_000..total - 400_000 + 1).contains(&request_self));
        assert_eq!(rec.durations("score"), vec![30_000.0]);
        assert_eq!(cover[2], 70_000);
        assert_eq!(cover[1], 0);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped() {
        let mut rec = Recorder::with_capacity(8);
        rec.span("p", 0, |rec| {
            spin(50_000);
            rec.child_at("a", 0, 0, 20_000);
            rec.child_at("b", 0, 10_000, 20_000);
            // Reaches past the parent's end: clipped.
            rec.child_at("c", 0, 40_000, 10_000_000_000);
        });
        let p = rec.spans()[0];
        let len = p.end_ns - p.start_ns;
        assert_eq!(rec.child_cover()[0], 30_000 + (len - 40_000));
    }

    #[test]
    fn a_full_buffer_drops_and_a_disabled_recorder_records_nothing() {
        let mut rec = Recorder::with_capacity(2);
        for _ in 0..5 {
            rec.span("x", 0, |_| {});
        }
        assert_eq!((rec.spans().len(), rec.dropped), (2, 3));
        let mut off = Recorder::disabled();
        assert_eq!(off.span("x", 0, |rec| rec.span("y", 0, |_| 7)), 7);
        off.child_at("z", 0, 0, 1);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn the_trace_file_is_json_with_parent_indexes() {
        let mut rec = Recorder::with_capacity(4);
        rec.span("request", 3, |rec| rec.span("decode", 3, |_| {}));
        let dir = crate::child::Scratch::create("unit-trace").unwrap();
        let path = dir.path().join("t.trace.json");
        rec.write_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"dropped\": 0, \"spans\": [\n{\"name\": \"request\","));
        assert!(text.contains("\"parent\": null, \"request\": 3},"));
        assert!(
            text.contains("\"name\": \"decode\"")
                && text.contains("\"parent\": 0, \"request\": 3}\n]}")
        );
    }
}
