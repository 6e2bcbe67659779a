//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own files, around its calls into a
//! layer: name, start, end, the span that caused it, and the rep they belong
//! to.  A call made very many times (one `next_record` per event) is one span
//! carrying its call count and summed time instead of a million spans.  Spans
//! stay in memory until the run ends and are then written as JSONL.  A span's
//! self time is its busy time minus the busy time of its children.

use crate::stats::nanos_since;
use dlrv_json::{object, Json};
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`stream.runtime.pump`).
    pub name: &'static str,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Rep counter at the time the span opened (0 = outside any rep).
    pub rep: u32,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_nanos: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_nanos: u64,
    /// Calls the span covers (1 unless aggregated).
    pub calls: u64,
    /// Time spent inside the calls (`end − start` unless aggregated).
    pub busy_nanos: u64,
}

/// Records spans in memory; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    workload: &'static str,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl Tracer {
    /// A tracer for one workload's run.
    pub fn new(workload: &'static str) -> Tracer {
        Tracer {
            workload,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Starts the next rep: spans opened from now on carry its number.
    pub fn next_rep(&mut self) -> u32 {
        self.rep += 1;
        self.rep
    }

    fn now(&self) -> u64 {
        nanos_since(self.epoch)
    }

    /// Runs `f` inside a span named `name`; spans recorded by `f` are its children.
    pub fn within<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let index = self.spans.len();
        let start_nanos = self.now();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            rep: self.rep,
            start_nanos,
            end_nanos: start_nanos,
            calls: 1,
            busy_nanos: 0,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        let end_nanos = self.now();
        let span = &mut self.spans[index];
        span.end_nanos = end_nanos;
        span.busy_nanos = end_nanos - span.start_nanos;
        result
    }

    /// Records a finished child of the current span from timings taken at the
    /// call site: `calls` calls that together took `busy_nanos` and ended now.
    /// Returns the span's index, for [`nested`](Self::nested) children.
    pub fn child(&mut self, name: &'static str, calls: u64, busy_nanos: u64) -> usize {
        let parent = self.open.last().copied();
        self.finished(parent, name, calls, busy_nanos)
    }

    /// Records a finished child of the finished span `parent`.
    pub fn nested(&mut self, parent: usize, name: &'static str, calls: u64, busy_nanos: u64) {
        self.finished(Some(parent), name, calls, busy_nanos);
    }

    fn finished(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        calls: u64,
        busy_nanos: u64,
    ) -> usize {
        let end_nanos = parent
            .filter(|&p| !self.open.contains(&p))
            .map_or_else(|| self.now(), |p| self.spans[p].end_nanos);
        let earliest = parent.map_or(0, |p| self.spans[p].start_nanos);
        self.spans.push(Span {
            name,
            parent,
            rep: self.rep,
            start_nanos: end_nanos.saturating_sub(busy_nanos).max(earliest),
            end_nanos,
            calls,
            busy_nanos,
        });
        self.spans.len() - 1
    }

    /// Summed busy time of every span named `name`.
    pub fn busy(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.busy_nanos)
            .sum()
    }

    /// Busy time of the most recent span named `name`.
    pub fn last_busy(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0, |s| s.busy_nanos)
    }

    /// Summed self time of every span named `name`: busy minus children's busy.
    pub fn self_nanos(&self, name: &str) -> u64 {
        let mut children = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent] += span.busy_nanos;
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.busy_nanos.saturating_sub(*c))
            .sum()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True before the first span.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let line = object([
                ("workload", Json::from(self.workload)),
                ("rep", Json::from(u64::from(span.rep))),
                ("id", Json::from(id)),
                ("parent", Json::from(span.parent)),
                ("name", Json::from(span.name)),
                ("start_ns", Json::from(span.start_nanos)),
                ("end_ns", Json::from(span.end_nanos)),
                ("calls", Json::from(span.calls)),
                ("busy_ns", Json::from(span.busy_nanos)),
            ]);
            out.push_str(&line.to_string_compact());
            out.push('\n');
        }
        std::fs::write(path, out).map_err(|e| format!("write {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_busy_minus_children() {
        let mut tracer = Tracer::new("test");
        tracer.next_rep();
        tracer.within("outer", |t| {
            t.within("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            std::thread::sleep(std::time::Duration::from_millis(1));
            let many = t.child("many", 1000, 500_000);
            t.nested(many, "part", 10, 100_000);
        });
        let outer = tracer.busy("outer");
        let inner = tracer.busy("inner");
        assert!(inner >= 2_000_000 && outer >= inner);
        assert_eq!(tracer.busy("many"), 500_000);
        assert_eq!(tracer.self_nanos("outer"), outer - inner - 500_000);
        assert_eq!(tracer.self_nanos("inner"), inner);
        assert_eq!(tracer.self_nanos("many"), 400_000);
        assert_eq!(tracer.len(), 4);
    }
}
