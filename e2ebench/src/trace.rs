//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer's public functions; nothing inside the program is
//! instrumented. A span is `{name, start, end, parent, point}`; layer calls
//! are childless spans, so a layer's self time is the sum of its spans.
//! Spans stay in memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// Sentinel parent of a top-level span.
const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.operation`, e.g. `core.compile`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, `u32::MAX` at top level.
    pub parent: u32,
    /// The data point (request identifier) the span belongs to.
    pub point: u32,
}

/// Span and counter store. A disabled recorder runs the closures it is
/// given and records nothing, so the plain run pays for no tracing.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    point: u32,
    counters: BTreeMap<String, f64>,
}

impl Recorder {
    /// A recorder; `enabled = false` makes every method a pass-through.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            point: 0,
            counters: BTreeMap::new(),
        }
    }

    /// Start the next data point; spans recorded from here on carry its id.
    pub fn next_point(&mut self) {
        self.point += 1;
    }

    /// Open a span named `name`; pass the token to [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            point: self.point,
        });
        self.stack.push(idx);
        Some(idx)
    }

    /// Close the span `begin` opened. Spans close in the order they nest.
    pub fn end(&mut self, open: Option<u32>) {
        if let Some(idx) = open {
            assert_eq!(
                self.stack.pop(),
                Some(idx),
                "spans must close innermost first"
            );
            self.spans[idx as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Run `f` inside a span named `name`; `f` may open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let open = self.begin(name);
        let out = f(self);
        self.end(open);
        out
    }

    /// Run `f` inside a childless span.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(name, |_| f())
    }

    /// Add `by` to the counter `name`, at the boundary where the work happens.
    pub fn add(&mut self, name: &str, by: f64) {
        if self.enabled {
            match self.counters.get_mut(name) {
                Some(v) => *v += by,
                None => {
                    self.counters.insert(name.to_string(), by);
                }
            }
        }
    }

    /// Current value of a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Total seconds covered by spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum::<u64>() as f64 / 1e9
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Duration of every span named `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Total seconds in childless spans nested below spans named `root`.
    pub fn leaf_s_under(&self, root: &str) -> f64 {
        let mut has_child = vec![false; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                has_child[s.parent as usize] = true;
            }
        }
        let mut total = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            if has_child[i] {
                continue;
            }
            let mut up = s.parent;
            while up != NO_PARENT {
                let anc = &self.spans[up as usize];
                if anc.name == root {
                    total += s.end_ns - s.start_ns;
                    break;
                }
                up = anc.parent;
            }
        }
        total as f64 / 1e9
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"point\": {}}}",
                s.name, s.start_ns, s.end_ns, s.point
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_time_is_found_under_its_root() {
        let mut r = Recorder::new(true);
        r.span("outer", |r| {
            r.leaf("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        assert_eq!(r.calls("outer"), 1);
        assert!(r.total_s("inner") >= 0.005);
        assert!((r.leaf_s_under("outer") - r.total_s("inner")).abs() < 1e-12);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        assert_eq!(r.span("a", |r| r.leaf("b", || 7)), 7);
        r.add("c", 1.0);
        assert_eq!(r.calls("a"), 0);
        assert_eq!(r.counter("c"), 0.0);
    }
}
