//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Spans carry a parent and an operation id; they are kept in
//! memory and summarised (count, total, self time) when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Instant,
    end: Option<Instant>,
}

/// A span recorder. `Trace::off()` records nothing, so the timed and the
/// traced loops share one code path.
#[derive(Debug)]
pub struct Trace {
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per-name totals over the recorded spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStats {
    pub count: u64,
    pub total_s: f64,
    /// Total minus the time covered by direct children.
    pub self_s: f64,
}

impl Trace {
    pub fn on() -> Self {
        Self {
            on: true,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn off() -> Self {
        Self {
            on: false,
            ..Self::on()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span named `name`, child of the innermost open one.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: Instant::now(),
            end: None,
        });
        self.open.push(id);
        let out = f(self);
        self.spans[id].end = Some(Instant::now());
        self.open.pop();
        out
    }

    /// Durations (seconds) of every closed span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| Some(s.end?.duration_since(s.start).as_secs_f64()))
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanStats> {
        let dur = |s: &Span| {
            s.end
                .map_or(0.0, |e| e.duration_since(s.start).as_secs_f64())
        };
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += dur(s);
            }
        }
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_s += dur(s);
            e.self_s += dur(s) - child_time[i];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Trace::on();
        t.span("op", |t| {
            t.span("layer", |_| std::thread::sleep(Duration::from_millis(20)));
            std::thread::sleep(Duration::from_millis(5));
        });
        let s = t.summary();
        let (op, layer) = (s["op"], s["layer"]);
        assert_eq!((op.count, layer.count), (1, 1));
        assert!(op.total_s >= layer.total_s + 0.004);
        assert!(op.self_s < op.total_s - 0.015);
        assert!((layer.self_s - layer.total_s).abs() < 1e-12);
        assert_eq!(t.durations("layer").len(), 1);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Trace::off();
        assert_eq!(t.span("op", |_| 7), 7);
        assert!(t.summary().is_empty());
    }
}
