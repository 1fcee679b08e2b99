//! Host-clock spans around the benchmark's own calls into each layer.
//!
//! A span records its name, start, end and the span that was open when
//! it began (its parent). Spans stay in memory and are written out as a
//! Chrome trace when the run ends. A layer's self time is its spans'
//! durations minus the parts covered by their child spans.
//!
//! A disabled tracer records nothing; untraced runs use one so that
//! the end-to-end numbers carry no tracing cost.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span on the host clock.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call this span covers, e.g. `topo.detect`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Repetition the span belongs to.
    pub rep: usize,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: usize,
}

impl Tracer {
    /// A recorder; `on = false` makes every call a no-op.
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Tags subsequent spans with repetition `rep`.
    pub fn set_rep(&mut self, rep: usize) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            rep: self.rep,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.open.pop().expect("end without begin");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in milliseconds, for one repetition.
    pub fn self_ms(&self, rep: usize) -> BTreeMap<&'static str, f64> {
        assert!(self.open.is_empty(), "spans still open");
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(&child_ns) {
            if s.rep == rep {
                *out.entry(s.name).or_insert(0.0) += (s.duration_ns() - children) as f64 / 1e6;
            }
        }
        out
    }

    /// The spans as a Chrome trace (`chrome://tracing`), one track per
    /// repetition; each event carries its span id and parent id.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.rep,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.begin("outer");
        t.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.end();
        let s = t.self_ms(0);
        assert!(s["inner"] >= 5.0);
        assert!(s["outer"] < s["inner"]);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        t.time("x", || ());
        assert!(t.spans().is_empty());
    }
}
