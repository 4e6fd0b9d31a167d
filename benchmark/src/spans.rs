//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files, around the calls into
//! each engine layer; no span lives inside an engine crate. They stay in
//! memory and are written to `trace.jsonl` when the run ends. A span's
//! layer is the part of its name before the first `.`.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Spans of one request share this identifier.
    pub request: u32,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Single-threaded recorder. With `enabled == false` every call is a
/// branch and the closure, which is how the same replay measures the
/// recorder's own overhead.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    request: u32,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts the next request; spans opened until the next call carry
    /// its identifier.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let span = Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            request: self.request,
        };
        self.spans.push(span);
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id as usize].end_ns = self.now();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line: `name, start_ns, end_ns, parent, request`
    /// (`id` is the line's own index, which `parent` refers to).
    pub fn write_jsonl(&self, workload: &str, w: &mut impl Write) -> io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"workload\":\"{workload}\",\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children that overlap each other are
/// not subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if lo < hi {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Self time summed per layer, in ns.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer()).or_insert(0) += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let spans = vec![
            span("request", 0, 100, None),
            span("query.parse", 10, 30, Some(0)),
            span("exec.drain", 40, 90, Some(0)),
            span("net.encode", 50, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 30, 20]);
        let by = self_time_by_layer(&spans);
        assert_eq!(by["request"], 30);
        assert_eq!(by["query"], 20);
        assert_eq!(by["exec"], 30);
        assert_eq!(by["net"], 20);
        assert_eq!(by.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_not_subtracted_twice() {
        let spans = vec![
            span("request", 0, 100, None),
            span("a.x", 10, 60, Some(0)),
            span("a.y", 40, 80, Some(0)),
            span("a.z", 90, 130, Some(0)), // runs past its parent: clipped
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn recorder_nests_and_numbers_requests() {
        let mut r = Recorder::new(true);
        r.next_request();
        let v = r.span("request", |r| r.span("query.parse", |_| 7));
        assert_eq!(v, 7);
        r.next_request();
        r.span("request", |_| ());
        let s = r.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, None);
        assert_eq!((s[0].request, s[2].request), (1, 2));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let mut out = Vec::new();
        r.write_jsonl("w", &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(1).unwrap().contains("\"parent\":0"));
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        assert_eq!(r.span("request", |r| r.span("x.y", |_| 3)), 3);
        assert!(r.spans().is_empty());
    }
}
