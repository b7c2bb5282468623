//! The benchmark's own spans, kept in memory and written once at the end.
//!
//! Every timed call into the program goes through [`Tracer::enter`] /
//! [`Tracer::exit`] (or [`Tracer::time`]), which always returns the
//! elapsed wall time — the end-to-end metrics are built from it — and, in
//! a traced round, also records a span. A traced run alternates untraced
//! and traced rounds so that the tracing overhead is measured under the
//! same host conditions as the traced numbers.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::Outcome;

/// What the wall time of traced rounds not covered by layer spans is
/// spent on (reported with `observe.attributed_share`).
pub const REMAINDER: &str = "benchmark glue: input generation, output checks, response parsing";

struct SpanRec {
    name: &'static str,
    start_s: f64,
    end_s: f64,
    parent: Option<usize>,
    round: usize,
}

struct RoundRec {
    traced: bool,
    start_s: f64,
    end_s: f64,
}

/// An open span; hand it back to [`Tracer::exit`].
#[must_use = "pass the span to Tracer::exit"]
pub struct Open {
    index: Option<usize>,
    started: Instant,
}

/// In-memory span recorder.
pub struct Tracer {
    /// Whether this is a traced run (`--trace 1`).
    pub enabled: bool,
    /// Whether traced rounds switch the program's metric registry on and
    /// untraced rounds switch it off. The service keeps its registry on in
    /// both, as it does in production.
    pub drive_registry: bool,
    active: bool,
    t0: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
    rounds: Vec<RoundRec>,
}

impl Tracer {
    /// A recorder for a traced (`enabled`) or untraced run.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            drive_registry: true,
            active: false,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            rounds: Vec::new(),
        }
    }

    fn now_s(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Starts round `k`. In a traced run odd rounds are traced and even
    /// rounds are not, so both kinds interleave; the program's metric
    /// registry follows the same switch. Returns whether the round is
    /// traced.
    pub fn begin_round(&mut self, k: usize) -> bool {
        self.active = self.enabled && k % 2 == 1;
        if self.drive_registry {
            shil::observe::set_enabled(self.active);
        }
        let start_s = self.now_s();
        self.rounds.push(RoundRec {
            traced: self.active,
            start_s,
            end_s: start_s,
        });
        self.active
    }

    /// Ends the current round.
    pub fn end_round(&mut self) {
        let now = self.now_s();
        if let Some(r) = self.rounds.last_mut() {
            r.end_s = now;
        }
        self.active = false;
    }

    /// Whether the current round records spans.
    pub fn active(&self) -> bool {
        self.active
    }

    /// Opens a span named `layer.call`.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let index = if self.active {
            let rec = SpanRec {
                name,
                start_s: self.now_s(),
                end_s: 0.0,
                parent: self.stack.last().copied(),
                round: self.rounds.len().saturating_sub(1),
            };
            self.spans.push(rec);
            self.stack.push(self.spans.len() - 1);
            Some(self.spans.len() - 1)
        } else {
            None
        };
        Open {
            index,
            started: Instant::now(),
        }
    }

    /// Closes a span; returns its wall time in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let secs = open.started.elapsed().as_secs_f64();
        if let Some(i) = open.index {
            self.spans[i].end_s = self.spans[i].start_s + secs;
            if self.stack.last() == Some(&i) {
                self.stack.pop();
            }
        }
        secs
    }

    /// Runs `f` inside a span; returns its value and wall time.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.enter(name);
        let r = f();
        (r, self.exit(open))
    }

    /// Share of the traced rounds' wall time covered by top-level spans.
    pub fn attributed_share(&self) -> f64 {
        let wall: f64 = self
            .rounds
            .iter()
            .filter(|r| r.traced)
            .map(|r| r.end_s - r.start_s)
            .sum();
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_s - s.start_s)
            .sum();
        crate::stats::ratio(covered, wall)
    }

    /// Writes the spans, rounds and per-layer metrics as one JSON file.
    pub fn write(
        &self,
        path: &Path,
        workload: &str,
        seed: u64,
        out: &Outcome,
    ) -> std::io::Result<()> {
        let mut doc = String::new();
        doc.push_str(&format!(
            "{{\"schema\":\"shil-repo-bench/trace/v1\",\"workload\":\"{workload}\",\"seed\":{seed},\
             \"nproc\":{},\"remainder\":\"{REMAINDER}\",\"metrics\":{{",
            std::thread::available_parallelism().map_or(1, |n| n.get())
        ));
        for (i, (name, unit)) in crate::PER_LAYER.iter().enumerate() {
            let v = out.metrics.get(name).map_or(0.0, |m| m.0);
            if i > 0 {
                doc.push(',');
            }
            doc.push_str(&format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                crate::json_f64(v)
            ));
        }
        doc.push_str("},\"threads\":{");
        for (i, (role, n)) in out.thread_counts.iter().enumerate() {
            if i > 0 {
                doc.push(',');
            }
            doc.push_str(&format!("\"{role}\":{n}"));
        }
        doc.push_str("},\"rounds\":[");
        for (i, r) in self.rounds.iter().enumerate() {
            if i > 0 {
                doc.push(',');
            }
            doc.push_str(&format!(
                "{{\"traced\":{},\"start_s\":{:.6},\"end_s\":{:.6}}}",
                r.traced, r.start_s, r.end_s
            ));
        }
        doc.push_str("],\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                doc.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            doc.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"round\":{},\"parent\":{parent},\"start_s\":{:.6},\"end_s\":{:.6}}}",
                s.name, s.round, s.start_s, s.end_s
            ));
        }
        doc.push_str("]}\n");
        let mut f = std::fs::File::create(path)?;
        f.write_all(doc.as_bytes())?;
        f.sync_all()
    }
}

/// Whether the round loop starts round `k` after `elapsed` of a
/// `budget`-long measurement: always at least one round (two in a traced
/// run, so that one of each kind runs), whole traced/untraced pairs in a
/// traced run, and otherwise until the budget is spent.
pub fn keep_going(
    k: usize,
    elapsed: std::time::Duration,
    budget: std::time::Duration,
    tracer: &Tracer,
) -> bool {
    if tracer.enabled {
        k < 2 || k % 2 == 1 || elapsed < budget
    } else {
        k < 1 || elapsed < budget
    }
}
