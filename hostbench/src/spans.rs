//! The benchmark-side span recorder.
//!
//! Every call the benchmark makes into a graffix layer goes through
//! [`Recorder::call`], which always measures the call's wall time (the
//! end-to-end numbers need it) and, only when tracing is on, also reads the
//! process CPU clock and keeps a [`Span`]. Spans carry a name, a layer,
//! start and end, the enclosing span, and the id of the operation or
//! request they belong to. They stay in memory and are written once, at
//! exit.

use crate::probe;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub op: u64,
    pub parent: Option<usize>,
    pub layer: &'static str,
    pub name: String,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What one measured call cost.
#[derive(Clone, Copy, Debug, Default)]
pub struct Call {
    pub wall_s: f64,
    /// Process CPU seconds over the call (0 when tracing is off).
    pub cpu_s: f64,
}

/// An open span returned by [`Recorder::begin`].
pub struct Open {
    id: Option<usize>,
    start: Instant,
    cpu: f64,
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Turns span recording on or off (the traced run alternates to
    /// measure its own overhead).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Sets the operation id stamped on every span opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span; spans opened before the matching [`Recorder::end`]
    /// become its children.
    pub fn begin(&mut self, layer: &'static str, name: &str) -> Open {
        let start = Instant::now();
        if !self.enabled {
            return Open {
                id: None,
                start,
                cpu: 0.0,
            };
        }
        let id = self.spans.len();
        self.spans.push(Span {
            op: self.op,
            parent: self.stack.last().copied(),
            layer,
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: 0,
        });
        self.stack.push(id);
        Open {
            id: Some(id),
            start,
            cpu: probe::cpu_seconds(),
        }
    }

    pub fn end(&mut self, open: Open) -> Call {
        let end = Instant::now();
        let mut call = Call {
            wall_s: end.duration_since(open.start).as_secs_f64(),
            cpu_s: 0.0,
        };
        if let Some(id) = open.id {
            call.cpu_s = probe::cpu_seconds() - open.cpu;
            self.spans[id].end_ns = self.ns(end);
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(id), "spans must close innermost first");
        }
        call
    }

    /// Runs `f` inside a span of its own.
    pub fn call<R>(&mut self, layer: &'static str, name: &str, f: impl FnOnce() -> R) -> (R, Call) {
        let open = self.begin(layer, name);
        let out = f();
        (out, self.end(open))
    }

    /// Records a finished interval measured elsewhere (another thread, or
    /// a duration reported by the program). Returns the span's index.
    pub fn record(
        &mut self,
        op: u64,
        parent: Option<usize>,
        layer: &'static str,
        name: &str,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            op,
            parent,
            layer,
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        Some(self.spans.len() - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Distinct op or request ids among the recorded spans.
    pub fn op_count(&self) -> usize {
        let mut ops: Vec<u64> = self.spans.iter().map(|s| s.op).collect();
        ops.sort_unstable();
        ops.dedup();
        ops.len()
    }

    /// Self time per layer: each span's duration minus the part of it its
    /// children cover, summed by layer.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
            *out.entry(s.layer).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"op\":{},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                s.op, s.layer, s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::new(true);
        r.set_op(7);
        let outer = r.begin("harness", "op");
        let ((), inner) = r.call("algos", "run", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        let total = r.end(outer);
        assert!(inner.wall_s >= 0.02);
        let selfs = r.self_seconds();
        assert!((selfs["algos"] - inner.wall_s).abs() < 1e-3);
        assert!(selfs["harness"] < total.wall_s - inner.wall_s + 1e-3);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert!(r.spans().iter().all(|s| s.op == 7));
    }

    #[test]
    fn disabled_recorder_still_times_calls() {
        let mut r = Recorder::new(false);
        let ((), c) = r.call("graph", "open", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        assert!(c.wall_s >= 0.005);
        assert!(r.spans().is_empty());
    }
}
