//! The benchmark's own spans: name, start, end, parent and request id,
//! recorded around its calls into each layer, kept in memory and written
//! out once at exit. A disabled tracer records nothing and costs one
//! branch per call.

use std::time::Instant;

use crate::json::Json;

/// One recorded span; times are nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index + 1 of the parent span in the same tracer; 0 for a root.
    pub parent: usize,
    /// Request (query) id the span belongs to; 0 for set-up work.
    pub request: u64,
}

/// Handle of an open span (0 when tracing is off).
pub type SpanId = usize;

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder measuring from `epoch`; records only when `enabled`.
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    /// A recorder with this one's switch and epoch (for worker threads).
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.enabled, self.epoch)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent` (0 for a root).
    pub fn open(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len()
    }

    /// Closes a span opened by [`open`](Self::open).
    pub fn close(&mut self, id: SpanId) {
        if id == 0 {
            return;
        }
        let now = self.now_ns();
        self.spans[id - 1].end_ns = now;
    }

    /// Records a span that was timed elsewhere (a worker thread's
    /// request), under `parent` of this tracer.
    pub fn record(&mut self, span: Span) {
        if self.enabled {
            self.spans.push(span);
        }
    }

    /// Moves a worker tracer's root spans under `parent` of this tracer.
    pub fn adopt(&mut self, worker: Tracer, parent: SpanId) {
        for mut span in worker.spans {
            span.parent = parent;
            self.record(span);
        }
    }

    /// Self time (nanoseconds) of every span name: duration minus the part
    /// covered by direct children.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent > 0 {
                child_ns[span.parent - 1] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: Vec<(&'static str, u64)> = Vec::new();
        for (span, child) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(child);
            match totals.iter_mut().find(|(name, _)| *name == span.name) {
                Some((_, total)) => *total += own,
                None => totals.push((span.name, own)),
            }
        }
        totals
    }

    /// The spans as a JSON array (`id` is the 1-based index `parent` uses).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Json::obj([
                        ("id", Json::Int(i as i64 + 1)),
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Int(s.start_ns as i64)),
                        ("end_ns", Json::Int(s.end_ns as i64)),
                        ("parent", Json::Int(s.parent as i64)),
                        ("request", Json::Int(s.request as i64)),
                    ])
                })
                .collect(),
        )
    }

    /// Number of recorded spans.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.open("x", 0, 1);
        t.close(id);
        assert_eq!((id, t.len()), (0, 0));
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.record(Span {
            name: "phase",
            start_ns: 0,
            end_ns: 100,
            parent: 0,
            request: 0,
        });
        let mut w = t.fork();
        w.record(Span {
            name: "query",
            start_ns: 10,
            end_ns: 40,
            parent: 0,
            request: 1,
        });
        w.record(Span {
            name: "query",
            start_ns: 50,
            end_ns: 60,
            parent: 0,
            request: 2,
        });
        t.adopt(w, 1);
        assert_eq!(t.self_time_by_name(), vec![("phase", 60), ("query", 40)]);
        assert!(t
            .to_json()
            .render()
            .contains(r#""name":"query","start_ns":50"#));
    }
}
