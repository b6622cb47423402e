//! In-memory span recorder for the traced run. Spans are opened and
//! closed around calls into the library's public API from this crate
//! only; nothing inside the simulator is instrumented. The recorder
//! keeps every span in a `Vec` and the caller writes them out once the
//! run is over.

use std::time::Instant;

/// One closed span: offsets are seconds since the recorder started.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Records nested spans. Children see the tracer through the closure
/// argument, so nesting follows the call structure.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let start_s = self.t0.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_s,
            end_s: start_s,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_s = self.t0.elapsed().as_secs_f64();
        out
    }

    /// Seconds since the recorder started.
    pub fn now_s(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Total duration of every span called `name` (0 when absent).
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_s)
            .sum()
    }

    /// Sum of the direct children's durations of the span called
    /// `name` — the part of the parent the children account for.
    pub fn children_s(&self, name: &str) -> f64 {
        let Some(parent) = self.spans.iter().position(|s| s.name == name) else {
            return 0.0;
        };
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(Span::dur_s)
            .sum()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}
