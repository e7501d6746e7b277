//! Spans and counters recorded by the benchmark around its calls into
//! each layer. Everything stays in memory until the run ends; the spans
//! are then written as JSON lines.
//!
//! A span's parent is the span that *caused* it. The layer replay
//! measures a stack outside-in — `run_campaign` as a whole, then its
//! parts by direct calls on the same inputs — so a child may have run
//! after its parent closed: the link expresses containment by
//! construction, not by clock interval. A span's self time is its
//! duration minus its children's durations, and the self times of a
//! tree always sum to the root's duration.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// The op id of measurements no timed op pays for (a layer measured on
/// the workload's inputs although the workload bypasses it).
pub const OFF_PATH: u32 = 0;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `fusion` or `ell.spmm`.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The op this span belongs to; [`OFF_PATH`] for what-if measurements.
    pub op: u32,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span and counter store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; [`close`](Self::close) ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, op: u32) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Ends a span opened with [`open`](Self::open).
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a span around `f`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u32,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let id = self.open(name, parent, op);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// Adds `v` to a counter.
    pub fn add(&mut self, counter: &'static str, v: f64) {
        *self.counters.entry(counter).or_insert(0.0) += v;
    }

    /// Raises a counter to at least `v`.
    pub fn max(&mut self, counter: &'static str, v: f64) {
        let c = self.counters.entry(counter).or_insert(v);
        *c = c.max(v);
    }

    /// A counter's value (0 when never touched).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// One span's duration in milliseconds.
    pub fn span_ms(&self, id: SpanId) -> f64 {
        self.spans[id].duration_ns() as f64 / 1e6
    }

    /// Summed duration of every span called `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .sum()
    }

    /// Self time of every span, in nanoseconds (negative when replayed
    /// children outran their parent — left visible, not clamped).
    pub fn self_times_ns(&self) -> Vec<i64> {
        let mut own: Vec<i64> = self.spans.iter().map(|s| s.duration_ns() as i64).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.duration_ns() as i64;
            }
        }
        own
    }

    /// Summed self time of every span called `name`, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        let own = self.self_times_ns();
        self.spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| *ns as f64 / 1e6)
            .sum()
    }

    /// Self time per span name over the spans timed ops pay for, in
    /// milliseconds — the attribution table.
    pub fn on_path_self_ms(&self) -> BTreeMap<&'static str, f64> {
        let own = self.self_times_ns();
        let mut by_name = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(&own) {
            if s.op != OFF_PATH {
                *by_name.entry(s.name).or_insert(0.0) += *ns as f64 / 1e6;
            }
        }
        by_name
    }

    /// Summed on-path duration of every span called `name`, in milliseconds.
    pub fn on_path_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.op != OFF_PATH)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .sum()
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span, then every counter, one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates the writer's I/O errors.
    pub fn write_jsonl(&self, mut w: impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        for (name, value) in &self.counters {
            writeln!(w, "{{\"counter\":\"{name}\",\"value\":{value}}}")?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-set timestamps: (name, parent, op, start, end).
    fn tracer(spans: &[(&'static str, Option<SpanId>, u32, u64, u64)]) -> Tracer {
        let mut t = Tracer::new();
        for &(name, parent, op, start_ns, end_ns) in spans {
            t.spans.push(Span {
                name,
                parent,
                op,
                start_ns,
                end_ns,
            });
        }
        t
    }

    #[test]
    fn self_time_is_duration_minus_children_and_sums_to_the_root() {
        let t = tracer(&[
            ("op", None, 1, 0, 100_000_000),
            ("campaign.run", Some(0), 1, 10_000_000, 90_000_000),
            // Replayed children: measured after the parent closed.
            ("fusion", Some(1), 1, 200_000_000, 250_000_000),
            ("convert", Some(1), 1, 250_000_000, 270_000_000),
        ]);
        assert_eq!(
            t.self_times_ns(),
            [20_000_000, 10_000_000, 50_000_000, 20_000_000]
        );
        assert_eq!(t.self_ms("campaign.run"), 10.0);
        let total: f64 = t.on_path_self_ms().values().sum();
        assert_eq!(total, t.span_ms(0));
    }

    #[test]
    fn off_path_spans_stay_out_of_the_attribution() {
        let t = tracer(&[
            ("op", None, 1, 0, 10_000_000),
            ("fusion", None, OFF_PATH, 20_000_000, 60_000_000),
        ]);
        assert_eq!(t.total_ms("fusion"), 40.0);
        assert_eq!(t.on_path_ms("fusion"), 0.0);
        assert!(!t.on_path_self_ms().contains_key("fusion"));
    }

    #[test]
    fn children_that_outrun_their_parent_show_as_negative_self_time() {
        let t = tracer(&[
            ("exec.batch", None, 1, 0, 10),
            ("ell.spmm", Some(0), 1, 20, 35),
        ]);
        assert_eq!(t.self_times_ns(), [-5, 15]);
    }

    #[test]
    fn counters_accumulate_and_spans_serialise_one_per_line() {
        let mut t = tracer(&[("op", None, 1, 0, 5), ("fusion", Some(0), 1, 1, 4)]);
        t.add("fusion.dd_nodes", 3.0);
        t.add("fusion.dd_nodes", 4.0);
        t.max("fusion.max_nzr", 2.0);
        t.max("fusion.max_nzr", 1.0);
        assert_eq!(t.counter("fusion.dd_nodes"), 7.0);
        assert_eq!(t.counter("fusion.max_nzr"), 2.0);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[1],
            "{\"id\":1,\"parent\":0,\"op\":1,\"name\":\"fusion\",\"start_ns\":1,\"end_ns\":4}"
        );
        assert_eq!(lines[2], "{\"counter\":\"fusion.dd_nodes\",\"value\":7}");
    }
}
