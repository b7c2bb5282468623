//! End-to-end and per-layer benchmark of the SHIL reproduction.
//!
//! One process runs one workload for a fixed measuring time and prints, as
//! its last stdout line, one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//!
//! ```text
//! shil-repo-bench --workload <paper_tables|tongue_atlas|serve_small_jobs>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! shil-repo-bench --reference <prediction_threads|atlas_dense>
//! ```
//!
//! With `--trace 0` every end-to-end metric is reported (the median of
//! round-robin repetitions, tracing off). With `--trace 1` the run
//! alternates untraced and traced rounds, records the benchmark's own
//! spans around each public call into memory, and reports the per-layer
//! metrics; the full span list is written to
//! `benchmark/out/trace-<workload>-<seed>.json` at the end.
//!
//! The benchmark drives the program only through its public API and hands
//! it only inputs generated from `--seed`. See `benchmark/README.md`.

mod paper_tables;
mod reference;
mod serve_jobs;
mod stats;
mod tongue_atlas;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use trace::Tracer;

/// Compute threads every workload may use: the host's core count, capped
/// at two so that runs on larger hosts load the program the same way.
pub const MAX_THREADS: usize = 2;

/// Where runs leave their scratch files (checkpoint, serve data dir) and
/// the traced run's span file, relative to the checkout root.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("benchmark/out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// Compute threads this host grants a workload: `min(nproc, MAX_THREADS)`.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_THREADS)
}

/// Everything a workload reports back to `main`.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (whole rounds only).
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Output checks that did not hold, one line each.
    pub check_failures: Vec<String>,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<&'static str, (f64, &'static str)>,
    /// Thread counts used, by role, for the info line.
    pub thread_counts: BTreeMap<&'static str, usize>,
    /// Size of the work the seeded inputs asked for, for the info line.
    pub work: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a check; a failing one is kept with its description.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let line = what();
            eprintln!("check failed: {line}");
            self.check_failures.push(line);
        }
    }

    /// Counts one failed operation, logging why.
    pub fn fail(&mut self, what: impl std::fmt::Display) {
        eprintln!("operation failed: {what}");
        self.failed += 1;
    }

    /// Sets `setup_s` to the median of the set-up samples, logging them.
    pub fn setup(&mut self, samples: &[f64]) {
        let list: Vec<String> = samples.iter().map(|s| format!("{s:.3e}")).collect();
        eprintln!("setup samples (s): {}", list.join(" "));
        self.metric("setup_s", stats::median(samples), "s");
    }

    /// Records a measure of the run's work (not a metric).
    pub fn work(&mut self, name: &'static str, value: f64) {
        self.work.insert(name, value);
    }

    /// Sets a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(name, (value, unit));
    }
}

/// The per-layer metrics of the traced run, with their units. Every traced
/// run reports all of them; a layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.prechar_s", "s"),
    ("core.lock_range_s", "s"),
    ("core.lock_probes", "count"),
    ("core.phase_query_ms", "ms"),
    ("core.cache_hit_ratio", "ratio"),
    ("numerics.newton_solves", "count"),
    ("circuit.tran_s", "s"),
    ("circuit.steps", "count"),
    ("circuit.step_us", "us"),
    ("circuit.factorizations", "count"),
    ("circuit.reuse_ratio", "ratio"),
    ("waveform.classify_ms", "ms"),
    ("atlas.items_simulated", "count"),
    ("atlas.steps_run", "count"),
    ("atlas.early_exits", "count"),
    ("atlas.warm_start_hits", "count"),
    ("atlas.coarse_pass_s", "s"),
    ("atlas.refine_s", "s"),
    ("atlas.busy_cores", "cores"),
    ("runtime.checkpoint_records", "count"),
    ("runtime.checkpoint_bytes", "bytes"),
    ("runtime.checkpoint_overhead_s", "s"),
    ("serve.submit_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.results_ms", "ms"),
    ("serve.status_busy_ms", "ms"),
    ("serve.polls_per_job", "count"),
    ("observe.tracing_overhead", "ratio"),
    ("observe.attributed_share", "ratio"),
];

/// The end-to-end metrics of an untraced run, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("task_s", "s"),
    ("op_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let parsed = Args {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: value("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    };
    if !(parsed.seconds > 0.0 && parsed.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(parsed)
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = argv.iter().position(|a| a == "--reference") {
        return match argv.get(i + 1).map(String::as_str) {
            Some(name) => reference::run(name),
            None => {
                eprintln!("--reference needs a figure name");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage error: {e}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let mut tracer = Tracer::new(args.trace);
    let mut out = match args.workload.as_str() {
        "paper_tables" => paper_tables::run(args.seed, budget, &mut tracer),
        "tongue_atlas" => tongue_atlas::run(args.seed, budget, &mut tracer),
        "serve_small_jobs" => serve_jobs::run(args.seed, budget, &mut tracer),
        other => {
            eprintln!("unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    out.metric("peak_rss_mb", peak_rss_mib(), "MiB");

    let names: &[(&str, &str)] = if args.trace { PER_LAYER } else { END_TO_END };
    if args.trace {
        let path = out_dir().join(format!("trace-{}-{}.json", args.workload, args.seed));
        if let Err(e) = tracer.write(&path, &args.workload, args.seed, &out) {
            out.check(false, || format!("could not write {}: {e}", path.display()));
        }
        if let Some((share, _)) = out.metrics.get("observe.attributed_share") {
            eprintln!(
                "{}: layer spans cover {:.1}% of traced wall time ({:.1}% unattributed: {})",
                args.workload,
                100.0 * share,
                100.0 * (1.0 - share),
                trace::REMAINDER
            );
        }
    }

    let mut info = format!(
        "{{\"info\":{{\"workload\":\"{}\",\"seed\":{},\"nproc\":{},\"profile\":\"{}\",\"revision\":\"{}\"",
        args.workload,
        args.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        std::env::var("SHIL_BENCH_REVISION").unwrap_or_else(|_| "unknown".into()),
    );
    for (role, n) in &out.thread_counts {
        info.push_str(&format!(",\"threads.{role}\":{n}"));
    }
    for (name, v) in &out.work {
        info.push_str(&format!(",\"work.{name}\":{}", json_f64(*v)));
    }
    info.push_str("}}");
    println!("{info}");

    // No operation of these workloads is expected to fail, so a failed one
    // is a fault like a failed check. A metric without samples (a NaN
    // median) or an end-to-end time of 0 measured nothing.
    let unmeasured: Vec<&str> = names
        .iter()
        .filter(|(name, _)| {
            out.metrics.get(name).map_or(!args.trace, |m| {
                !m.0.is_finite() || (!args.trace && m.0 <= 0.0)
            })
        })
        .map(|(name, _)| *name)
        .collect();
    if !unmeasured.is_empty() {
        eprintln!("no measurement for: {}", unmeasured.join(", "));
    }
    let correct = out.check_failures.is_empty() && out.failed == 0 && unmeasured.is_empty();
    let mut metrics = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = out.metrics.get(name).map_or(0.0, |m| m.0);
        if i > 0 {
            metrics.push(',');
        }
        metrics.push_str(&format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_f64(value)
        ));
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        out.attempted, out.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
