//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A span has a layer (the crate whose public function the benchmark called,
//! or `bench` for the benchmark's own glue), a name, a start and an end
//! relative to the run's origin, and the span it was opened inside. Every span
//! of one run carries the run's id. Spans are kept in memory and written out
//! as JSON lines when the run ends. A disabled tracer records nothing.

use std::fmt::Write as _;
use std::time::Instant;

/// The layer name of the benchmark's own code: its spans are not layer time.
pub const BENCH: &str = "bench";

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Returned by [`Tracer::enter`]; hand it back to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, layer: &'static str, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        if let Some(id) = open.0 {
            debug_assert_eq!(self.stack.last(), Some(&id), "spans close in order");
            self.stack.pop();
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(layer, name);
        let out = f();
        self.exit(open);
        out
    }

    /// The spans as JSON lines, each tagged with `run`.
    pub fn to_json_lines(&self, run: &str) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":\"{run}\",\"id\":{id},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.layer, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Each span's self time: its duration minus the part its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// The share of `wall_ns` covered by the self time of spans outside the
/// benchmark's own layer.
pub fn layer_share(spans: &[Span], wall_ns: u64) -> f64 {
    if wall_ns == 0 {
        return 0.0;
    }
    let covered: u64 = self_times(spans)
        .iter()
        .zip(spans)
        .filter(|(_, s)| s.layer != BENCH)
        .map(|(t, _)| t)
        .sum();
    covered as f64 / wall_ns as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer,
            name: "x",
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(BENCH, None, 0, 100),
            span("chase_core", Some(0), 10, 40),
            span("chase_engine", Some(0), 50, 90),
            span("chase_trigger", Some(2), 60, 70),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 30, 10]);
        assert!((layer_share(&spans, 100) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_nesting_is_kept() {
        let mut off = Tracer::new(false);
        off.span("chase_core", "parse", || ());
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(true);
        let outer = on.enter(BENCH, "pass");
        on.span("chase_core", "parse", || ());
        on.exit(outer);
        assert_eq!(on.spans().len(), 2);
        assert_eq!(on.spans()[1].parent, Some(0));
        assert!(on.spans()[0].end_ns >= on.spans()[1].end_ns);
        let lines = on.to_json_lines("r1");
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.contains("\"run\":\"r1\"") && lines.contains("\"parent\":0"));
    }
}
