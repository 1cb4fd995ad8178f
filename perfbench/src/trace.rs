//! Host-time spans recorded by the benchmark around each call into a
//! layer. Spans live in memory and are written once, at exit, as a Chrome
//! trace through `real_obs`, so a run opens in Perfetto.
//!
//! A span's layer is its name up to the first `.` (`search.mcmc` belongs to
//! `search`). Each op is one root span named `op`; set-up is one root span
//! named `setup`. A disabled tracer records nothing and reads no clock.

use real_core::real_obs::{chrome, EventStream, LaneId};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval, in seconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, or `op` / `setup` for a root.
    pub name: &'static str,
    /// Start, seconds.
    pub start: f64,
    /// End, seconds.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The op the span belongs to (`None` during set-up).
    pub op: Option<u64>,
    /// Input size in bytes, for calls whose cost scales with it.
    pub bytes: f64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }

    /// The layer the span is charged to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// In-memory span and counter recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: Option<u64>,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a pass-through.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: None,
            counters: BTreeMap::new(),
        }
    }

    /// Whether spans and counters are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            op: self.op,
            bytes: 0.0,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now();
        let idx = self.open.pop().expect("end() without a matching begin()");
        self.spans[idx].end = now;
    }

    /// Opens the root span of op `op`. Spans and counters recorded until
    /// [`Tracer::finish_op`] belong to the op, including those of its check
    /// after [`Tracer::end_op`] closed the root.
    pub fn begin_op(&mut self, op: u64) {
        self.op = Some(op);
        self.begin("op");
    }

    /// Closes the root span of the current op.
    pub fn end_op(&mut self) {
        self.end();
    }

    /// Ends the current op's attribution.
    pub fn finish_op(&mut self) {
        self.op = None;
    }

    /// Records `f` as a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.sized(name, 0, f)
    }

    /// Records `f` as a span named `name` over an input of `bytes` bytes.
    pub fn sized<T>(&mut self, name: &'static str, bytes: usize, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let idx = self.spans.len();
        self.begin(name);
        self.spans[idx].bytes = bytes as f64;
        let out = f();
        self.end();
        out
    }

    /// Adds `value` to the counter `name`. Only ops count: set-up work is
    /// timed but not counted.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled && self.op.is_some() {
            *self.counters.entry(name).or_default() += value;
        }
    }

    /// Recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A counter's total (`0.0` if never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Durations (seconds) of the spans named `name`, of ops (`in_ops`) or
    /// of set-up.
    pub fn durations(&self, name: &str, in_ops: bool) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.op.is_some() == in_ops)
            .map(Span::secs)
            .collect()
    }

    /// Duration of the most recently closed leaf span (`0.0` when
    /// disabled).
    pub fn last_secs(&self) -> f64 {
        self.spans.last().map_or(0.0, Span::secs)
    }

    /// Self time of each span: its duration minus the part its children
    /// cover.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.secs();
            }
        }
        own
    }

    /// The share of op time spent in named layers rather than in the
    /// benchmark's own code between calls.
    pub fn layer_coverage(&self) -> f64 {
        let own = self.self_times();
        let (mut ops, mut glue) = (0.0, 0.0);
        for (s, t) in self.spans.iter().zip(&own) {
            if s.name == "op" {
                ops += s.secs();
                glue += t;
            }
        }
        crate::stats::ratio(ops - glue, ops)
    }

    /// The spans as a Chrome trace (one host lane, nested by call).
    pub fn to_chrome(&self) -> String {
        let lane = LaneId { pid: 0, tid: 0 };
        let mut stream = EventStream::with_capacity(self.spans.len() * 2 + 2);
        stream.set_lane_name(lane, "perfbench", "host");
        let mut stack: Vec<usize> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            while stack.last().is_some_and(|&top| Some(top) != s.parent) {
                let top = stack.pop().expect("checked non-empty");
                stream.end(lane, self.spans[top].end);
            }
            let name = match (s.name, s.op) {
                ("op", Some(op)) => format!("op {op}"),
                (name, _) => name.to_string(),
            };
            stream.begin(lane, &name, s.layer(), s.start);
            stack.push(i);
        }
        while let Some(top) = stack.pop() {
            stream.end(lane, self.spans[top].end);
        }
        chrome::to_chrome_string(&stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin_op(0);
        assert_eq!(t.span("search.mcmc", || 7), 7);
        t.count("search.steps", 1.0);
        t.end_op();
        t.finish_op();
        assert!(t.spans().is_empty());
        assert_eq!(t.counter("search.steps"), 0.0);
    }

    #[test]
    fn self_time_excludes_children_and_chrome_nests() {
        let mut t = Tracer::new(true);
        t.begin_op(3);
        t.span("search.mcmc", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.sized("json.parse", 10, || ());
        t.end_op();
        t.count("search.steps", 2.0);
        t.finish_op();
        t.count("search.steps", 5.0);
        assert_eq!(t.counter("search.steps"), 2.0);
        assert_eq!(t.durations("search.mcmc", true).len(), 1);
        assert!(t.durations("search.mcmc", false).is_empty());
        let own = t.self_times();
        let op = &t.spans()[0];
        assert_eq!(op.name, "op");
        assert!(own[0] >= 0.0 && own[0] < op.secs());
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].bytes, 10.0);
        assert!(t.layer_coverage() > 0.5);
        let value: serde_json::Value = serde_json::from_str(&t.to_chrome()).unwrap();
        let back = real_core::real_obs::from_chrome_value(&value).unwrap();
        back.check_invariants().unwrap();
    }
}
