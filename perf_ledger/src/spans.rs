//! Harness-side spans around every public call a traced run makes into
//! the crates under test. Spans stay in memory and are written once,
//! at exit. A layer's *self time* is its spans' duration minus the
//! part their child spans cover.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// The crate a span's call enters (`Bench` is the harness itself).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Index,
    Sparse,
    Runtime,
    Core,
    Baselines,
    Machine,
    Store,
    Service,
    Bench,
}

impl Layer {
    /// Every layer, in ledger order.
    pub const ALL: [Layer; 9] = [
        Layer::Index,
        Layer::Sparse,
        Layer::Runtime,
        Layer::Core,
        Layer::Baselines,
        Layer::Machine,
        Layer::Store,
        Layer::Service,
        Layer::Bench,
    ];

    /// Metric-name prefix of the layer.
    pub fn prefix(self) -> &'static str {
        match self {
            Layer::Index => "index",
            Layer::Sparse => "sparse",
            Layer::Runtime => "runtime",
            Layer::Core => "core",
            Layer::Baselines => "baselines",
            Layer::Machine => "machine",
            Layer::Store => "store",
            Layer::Service => "service",
            Layer::Bench => "bench",
        }
    }
}

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    pub layer: Layer,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one operation.
    pub op: u64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

/// Span recorder. Disabled (the untraced run) it is one branch per
/// call and records nothing.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    inner: RefCell<Inner>,
}

impl Recorder {
    /// A recorder that records (`true`) or only forwards calls.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            inner: RefCell::default(),
        }
    }

    /// Start a new operation: later spans carry the new identifier.
    pub fn next_op(&self) {
        if self.enabled {
            self.inner.borrow_mut().op += 1;
        }
    }

    /// Run `f` inside a span of `layer`.
    pub fn span<R>(&self, layer: Layer, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut g = self.inner.borrow_mut();
            let (parent, op) = (g.open.last().copied(), g.op);
            g.spans.push(Span {
                layer,
                name,
                start_ns: self.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent,
                op,
            });
            let idx = g.spans.len() - 1;
            g.open.push(idx);
            idx
        };
        let out = f();
        let mut g = self.inner.borrow_mut();
        g.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        g.open.pop();
        out
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.inner.borrow().spans.len()
    }

    /// Self time of `layer` in milliseconds.
    pub fn self_ms(&self, layer: Layer) -> f64 {
        let g = self.inner.borrow();
        let mut child_ns = vec![0u64; g.spans.len()];
        for s in &g.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        g.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.layer == layer)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c))
            .sum::<u64>() as f64
            / 1e6
    }

    /// One JSON object per line: `layer`, `name`, `start_ns`, `end_ns`,
    /// `parent` (line number or `null`) and `op`.
    pub fn to_json_lines(&self) -> String {
        let g = self.inner.borrow();
        let mut out = String::with_capacity(g.spans.len() * 96);
        for s in &g.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"layer\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"op\": {}}}",
                s.layer.prefix(),
                s.name,
                s.start_ns,
                s.end_ns,
                parent,
                s.op
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t0 = Instant::now();
        while t0.elapsed().as_millis() < ms as u128 {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn self_time_subtracts_children_and_ops_share_ids() {
        let rec = Recorder::new(true);
        rec.next_op();
        rec.span(Layer::Bench, "op", || {
            spin(2);
            rec.span(Layer::Core, "solve", || {
                spin(4);
                rec.span(Layer::Runtime, "fence", || spin(3));
            });
        });
        rec.next_op();
        rec.span(Layer::Core, "solve", || spin(1));
        assert_eq!(rec.len(), 4);
        // Wall-clock spins only bound self times from below (the test
        // may be preempted); the accounting identity is exact: self
        // times add up to the duration of the root spans.
        assert!(rec.self_ms(Layer::Bench) >= 2.0);
        assert!(rec.self_ms(Layer::Core) >= 5.0);
        assert!(rec.self_ms(Layer::Runtime) >= 3.0);
        assert_eq!(rec.self_ms(Layer::Store), 0.0);
        let roots_ms: f64 = {
            let g = rec.inner.borrow();
            g.spans
                .iter()
                .filter(|s| s.parent.is_none())
                .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
                .sum()
        };
        let selves_ms: f64 = Layer::ALL.iter().map(|&l| rec.self_ms(l)).sum();
        assert!((roots_ms - selves_ms).abs() < 1e-6);
        let lines = rec.to_json_lines();
        assert_eq!(lines.lines().count(), 4);
        assert!(lines.lines().nth(2).unwrap().contains("\"parent\": 1"));
        assert!(lines.lines().nth(3).unwrap().contains("\"op\": 2"));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::new(false);
        assert_eq!(rec.span(Layer::Core, "solve", || 7), 7);
        assert_eq!(rec.len(), 0);
    }
}
