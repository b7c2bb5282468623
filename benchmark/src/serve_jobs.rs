//! `serve_small_jobs`: the service layer under one closed-loop client.
//!
//! An in-process `shil_serve::Server` (1 worker, 1 HTTP thread, 1 sweep
//! thread, data dir on disk under `benchmark/out`) receives a seeded
//! sequence of tiny jobs from a single client: per round, eight one- to
//! three-item RC `sweep` jobs and one `lockrange` job over a pair of
//! amplitudes drawn from a small fixed set. For each job the client
//! submits, polls `GET /jobs/<id>` back to back until the job is terminal,
//! then fetches `GET /jobs/<id>/results`. Every request waits for the
//! previous reply.
//!
//! Set-up starts the server and runs one `lockrange` job over the whole
//! amplitude set, so the pre-characterization cache is warm and every
//! measured `lockrange` job takes the cache's hit path.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use shil::runtime::json::{self, Json};
use shil::serve::{client, Server, ServerConfig};

use crate::stats::{mean, median, ratio, Rng};
use crate::trace::{keep_going, Tracer};
use crate::Outcome;

/// Set-ups per run (server start on a fresh data dir, then the cache
/// warm-up job); `setup_s` is their median. The last server stays up.
const SETUPS: usize = 3;
/// RC sweep jobs per round (plus one lockrange job).
const SWEEPS_PER_ROUND: usize = 8;
/// Amplitudes the lockrange jobs draw their pairs from, volts.
const LOCKRANGE_VI: [f64; 4] = [0.01, 0.02, 0.03, 0.04];
/// The lockrange jobs' oscillator: the paper's tanh LC cell.
const OSC: (f64, f64, f64, f64, f64) = (1000.0, 1e-5, 1e-8, 1e-3, 20.0);
/// Time steps per RC time constant in the sweep jobs.
const STEPS_PER_TAU: f64 = 50.0;
/// A job that is not terminal after this long counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// One generated job and what its result must satisfy.
enum Job {
    Sweep {
        body: String,
        v: f64,
        r1: f64,
        r2: f64,
        c: f64,
        dt: f64,
        stop: f64,
        scales: Vec<f64>,
    },
    LockRange {
        body: String,
        vis: Vec<f64>,
    },
}

fn sweep_job(rng: &mut Rng) -> Job {
    let round_to = |x: f64, q: f64| (x / q).round() * q;
    let v = round_to(rng.range(1.0, 10.0), 0.01);
    let r1 = round_to(rng.range(1e3, 5e3), 10.0);
    let r2 = round_to(rng.range(1e3, 5e3), 10.0);
    let c = 1e-9;
    let tau = c * r1 * r2 / (r1 + r2);
    let dt = tau / STEPS_PER_TAU;
    let steps = 25 + rng.index(126);
    let stop = steps as f64 * dt;
    let scales: Vec<f64> = (0..1 + rng.index(3))
        .map(|_| round_to(rng.range(0.5, 2.0), 0.01))
        .collect();
    let list = scales
        .iter()
        .map(|s| json::fmt_f64(*s))
        .collect::<Vec<_>>()
        .join(",");
    let netlist = format!(
        "V1 in 0 PULSE(0 {} 0 1e-12 1e-12 1 2)\\nR1 in out {}\\nR2 out 0 {}\\nC1 out 0 {}\\n.end\\n",
        json::fmt_f64(v),
        json::fmt_f64(r1),
        json::fmt_f64(r2),
        json::fmt_f64(c)
    );
    let body = format!(
        r#"{{"kind":"sweep","netlist":"{netlist}","dt":{},"stop":{},"probes":["out"],"scales":[{list}]}}"#,
        json::fmt_f64(dt),
        json::fmt_f64(stop)
    );
    Job::Sweep {
        body,
        v,
        r1,
        r2,
        c,
        dt,
        stop,
        scales,
    }
}

/// A lockrange job over `vis` (ascending).
fn lockrange_job(vis: Vec<f64>) -> Job {
    let (r, l, c, i_sat, gain) = OSC;
    let list = vis
        .iter()
        .map(|v| json::fmt_f64(*v))
        .collect::<Vec<_>>()
        .join(",");
    let body = format!(
        r#"{{"kind":"lockrange","r":{},"l":{},"c":{},"i_sat":{},"gain":{},"n":3,"vi":[{list}]}}"#,
        json::fmt_f64(r),
        json::fmt_f64(l),
        json::fmt_f64(c),
        json::fmt_f64(i_sat),
        json::fmt_f64(gain),
    );
    Job::LockRange { body, vis }
}

/// A seeded pair of distinct amplitudes from `LOCKRANGE_VI`, ascending.
fn lockrange_pair(rng: &mut Rng) -> Vec<f64> {
    let a = rng.index(LOCKRANGE_VI.len());
    let b = (a + 1 + rng.index(LOCKRANGE_VI.len() - 1)) % LOCKRANGE_VI.len();
    vec![LOCKRANGE_VI[a.min(b)], LOCKRANGE_VI[a.max(b)]]
}

/// Client-side timings of one job.
struct JobTimes {
    submit_ms: f64,
    polls_ms: Vec<f64>,
    queue_wait_ms: f64,
    run_ms: f64,
    results_ms: f64,
    turnaround_s: f64,
    /// A lockrange job: its polls race the lock-range solve for both
    /// cores, so they are summarized apart from the tiny jobs' polls.
    busy: bool,
}

/// One set-up: a server on a fresh data dir, ready, with its
/// pre-characterization cache warmed by one `lockrange` job over every
/// amplitude the measured jobs use.
fn set_up(
    dir: &Path,
    tracer: &mut Tracer,
    spans: &mut BTreeMap<u64, f64>,
) -> Result<Server, String> {
    let _ = std::fs::remove_dir_all(dir);
    let server = Server::start(ServerConfig {
        data_dir: dir.to_path_buf(),
        workers: 1,
        http_threads: 1,
        sweep_threads: Some(1),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let addr = server.addr().to_string();
    let mut warm = || -> Result<(), String> {
        let deadline = Instant::now() + JOB_TIMEOUT;
        loop {
            let ready = client::request(&addr, "GET", "/readyz", None)
                .map_err(|e| format!("GET /readyz: {e}"))?;
            if ready.status == 200 {
                break;
            }
            if Instant::now() > deadline {
                return Err("server never became ready".into());
            }
        }
        let job = lockrange_job(LOCKRANGE_VI.to_vec());
        let Job::LockRange { body, .. } = &job else {
            unreachable!("lockrange_job builds a lockrange job")
        };
        let (_, results) = drive(&addr, body, tracer)?;
        check_results(&job, &results, spans).map_err(|e| format!("warm-up job: {e}"))
    };
    match warm() {
        Ok(()) => Ok(server),
        Err(e) => {
            server.shutdown();
            Err(e)
        }
    }
}

/// Drives one job through submit → polls → results.
fn drive(addr: &str, body: &str, tracer: &mut Tracer) -> Result<(JobTimes, String), String> {
    let t0 = Instant::now();
    let (resp, submit_s) = tracer.time("serve.submit", || {
        client::request(addr, "POST", "/jobs", Some(body))
    });
    let resp = resp.map_err(|e| format!("POST /jobs: {e}"))?;
    if resp.status != 202 {
        return Err(format!(
            "POST /jobs answered {}: {}",
            resp.status, resp.body
        ));
    }
    let submitted = t0.elapsed().as_secs_f64();
    let id = json::parse(&resp.body)
        .and_then(|d| d.get("id").and_then(Json::as_u64))
        .ok_or_else(|| format!("no job id in {}", resp.body))?;
    let status_path = format!("/jobs/{id}");
    let mut polls_ms = Vec::new();
    let mut started: Option<f64> = None;
    let final_doc = loop {
        let (resp, s) = tracer.time("serve.status", || {
            client::request(addr, "GET", &status_path, None)
        });
        polls_ms.push(1e3 * s);
        let resp = resp.map_err(|e| format!("GET {status_path}: {e}"))?;
        let doc = json::parse(&resp.body).ok_or_else(|| format!("bad status {}", resp.body))?;
        let state = doc
            .get("state")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        let now = t0.elapsed().as_secs_f64();
        if state != "queued" {
            started.get_or_insert(now);
        }
        if matches!(
            state.as_str(),
            "done" | "failed" | "cancelled" | "quarantined"
        ) {
            break doc;
        }
        if t0.elapsed() > JOB_TIMEOUT {
            return Err(format!("job {id} still `{state}` after {JOB_TIMEOUT:?}"));
        }
    };
    let terminal = t0.elapsed().as_secs_f64();
    let state = final_doc.get("state").and_then(Json::as_str).unwrap_or("");
    let exit_code = final_doc.get("exit_code").and_then(Json::as_u64);
    if state != "done" || exit_code != Some(0) {
        return Err(format!(
            "job {id} ended `{state}` with exit code {exit_code:?}"
        ));
    }
    let results_path = format!("/jobs/{id}/results");
    let (resp, results_s) = tracer.time("serve.results", || {
        client::request(addr, "GET", &results_path, None)
    });
    let resp = resp.map_err(|e| format!("GET {results_path}: {e}"))?;
    if resp.status != 200 || resp.header("x-shil-partial").is_some() {
        return Err(format!(
            "GET {results_path} answered {} (partial: {:?})",
            resp.status,
            resp.header("x-shil-partial")
        ));
    }
    let started = started.unwrap_or(terminal);
    Ok((
        JobTimes {
            submit_ms: 1e3 * submit_s,
            polls_ms,
            queue_wait_ms: 1e3 * (started - submitted),
            run_ms: 1e3 * (terminal - started),
            results_ms: 1e3 * results_s,
            turnaround_s: t0.elapsed().as_secs_f64(),
            busy: false,
        },
        resp.body,
    ))
}

/// The item lines of a `results.jsonl` body: `x → values`.
fn result_items(body: &str, x_key: &str) -> Result<Vec<(f64, Vec<f64>)>, String> {
    let mut items = Vec::new();
    for line in body.lines().filter(|l| !l.trim().is_empty()) {
        let doc = json::parse(line).ok_or_else(|| format!("bad result line {line}"))?;
        if doc.get("aggregate").is_some() {
            continue;
        }
        if doc.get("outcome").and_then(Json::as_str) != Some("ok") {
            return Err(format!("item not ok: {line}"));
        }
        let x = doc
            .get(x_key)
            .and_then(Json::as_f64)
            .ok_or("item without x")?;
        let Some(Json::Arr(vs)) = doc.get("v") else {
            return Err(format!("item without values: {line}"));
        };
        items.push((x, vs.iter().filter_map(Json::as_f64).collect()));
    }
    Ok(items)
}

/// Checks one job's results; returns a description of the first mismatch.
fn check_results(job: &Job, body: &str, spans: &mut BTreeMap<u64, f64>) -> Result<(), String> {
    match job {
        Job::Sweep {
            v,
            r1,
            r2,
            c,
            dt,
            stop,
            scales,
            ..
        } => {
            let items = result_items(body, "scale")?;
            if items.len() != scales.len() {
                return Err(format!("{} items for {} scales", items.len(), scales.len()));
            }
            let tau = c * r1 * r2 / (r1 + r2);
            let h = dt / tau;
            for ((scale, got), want_scale) in items.iter().zip(scales) {
                let v_ss = want_scale * v * r2 / (r1 + r2);
                let exact = v_ss * (1.0 - (-stop / tau).exp());
                // The trapezoidal rule's global error on the decaying term
                // is O(h²) per time constant simulated; the source edge in
                // the first step counts as one more.
                let tol = v_ss * h * h * (1.0 + stop / tau) * (-stop / tau).exp() + 1e-12;
                let got = got.first().copied().unwrap_or(f64::NAN);
                let within = (got - exact).abs() <= tol;
                if *scale != *want_scale || !within {
                    return Err(format!(
                        "scale {scale}: v(out, {stop:e} s) = {got}, analytic {exact} ± {tol:e}"
                    ));
                }
            }
        }
        Job::LockRange { vis, .. } => {
            let items = result_items(body, "vi")?;
            let (_, l, c, _, _) = OSC;
            let carrier = 3.0 / (std::f64::consts::TAU * (l * c).sqrt());
            if items.len() != vis.len() {
                return Err(format!(
                    "{} items for {} amplitudes",
                    items.len(),
                    vis.len()
                ));
            }
            for ((vi, vals), want) in items.iter().zip(vis) {
                let (lo, hi, span) = match vals.as_slice() {
                    [lo, hi, span, ..] => (*lo, *hi, *span),
                    _ => return Err(format!("vi {vi}: short result {vals:?}")),
                };
                if *vi != *want || !(lo < carrier && carrier < hi) {
                    return Err(format!(
                        "vi {vi}: range [{lo}, {hi}] misses 3·f0 = {carrier}"
                    ));
                }
                let seen = *spans.entry(vi.to_bits()).or_insert(span);
                if seen.to_bits() != span.to_bits() {
                    return Err(format!("vi {vi}: span {span} Hz, earlier {seen} Hz"));
                }
            }
            for pair in items.windows(2) {
                let grows = pair[1].1[2] > pair[0].1[2];
                if !grows {
                    return Err(format!(
                        "span does not grow with vi: {} Hz at {} V, {} Hz at {} V",
                        pair[0].1[2], pair[0].0, pair[1].1[2], pair[1].0
                    ));
                }
            }
        }
    }
    Ok(())
}

pub fn run(seed: u64, budget: Duration, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    out.thread_counts.insert("serve_workers", 1);
    out.thread_counts.insert("serve_http", 1);
    out.thread_counts.insert("serve_sweep", 1);
    out.thread_counts.insert("clients", 1);
    tracer.drive_registry = false;

    let base: PathBuf = crate::out_dir().join(format!("serve-{}", std::process::id()));
    let mut spans = BTreeMap::new();
    let mut setup_s = Vec::new();
    let mut server = None;
    for i in 0..SETUPS {
        if let Some(previous) = server.take() {
            Server::shutdown(previous);
        }
        let t = Instant::now();
        match set_up(&base.join(format!("data-{i}")), tracer, &mut spans) {
            Ok(s) => server = Some(s),
            Err(e) => {
                out.attempted = 1;
                out.fail(format!("set-up: {e}"));
                out.check(false, || format!("set-up failed: {e}"));
                let _ = std::fs::remove_dir_all(&base);
                return out;
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    out.setup(&setup_s);
    let server = server.expect("SETUPS > 0");
    let addr = server.addr().to_string();

    let mut rng = Rng::new(seed, "serve_small_jobs");
    let mut untraced: Vec<JobTimes> = Vec::new();
    let mut traced_jobs: Vec<JobTimes> = Vec::new();
    let mut counters = Counters::default();

    let start = Instant::now();
    let mut k = 0;
    while keep_going(k, start.elapsed(), budget, tracer) {
        let traced = tracer.begin_round(k);
        let snap = shil::observe::snapshot();
        let lockrange_at = rng.index(SWEEPS_PER_ROUND + 1);
        let mut lockrange_items = 0.0;
        let mut jobs_done = 0.0;
        // A round's samples count only if every job in it succeeded, so a
        // failing job cannot shorten a median.
        let failed_before = out.failed;
        let mut round_jobs = Vec::new();
        for j in 0..=SWEEPS_PER_ROUND {
            let job = if j == lockrange_at {
                lockrange_job(lockrange_pair(&mut rng))
            } else {
                sweep_job(&mut rng)
            };
            let body = match &job {
                Job::Sweep { body, .. } | Job::LockRange { body, .. } => body.clone(),
            };
            out.attempted += 1;
            match drive(&addr, &body, tracer) {
                Ok((mut times, results)) => {
                    times.busy = matches!(job, Job::LockRange { .. });
                    if let Err(e) = check_results(&job, &results, &mut spans) {
                        out.check(false, || format!("job results: {e}"));
                    }
                    if matches!(job, Job::LockRange { .. }) {
                        lockrange_items += 2.0;
                    }
                    jobs_done += 1.0;
                    round_jobs.push(times);
                }
                Err(e) => out.fail(e),
            }
        }
        tracer.end_round();
        if out.failed == failed_before {
            if traced {
                let after = shil::observe::snapshot();
                counters.add(&snap, &after, jobs_done, lockrange_items);
                traced_jobs.extend(round_jobs);
            } else {
                untraced.extend(round_jobs);
            }
        }
        k += 1;
    }
    let shed = shil::observe::snapshot().counter("shil_serve_jobs_shed_total");
    out.check(shed == 0, || format!("{shed} submissions were shed"));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&base);

    let col = |jobs: &[JobTimes], f: &dyn Fn(&JobTimes) -> f64| {
        median(&jobs.iter().map(f).collect::<Vec<_>>())
    };
    let polls = |jobs: &[JobTimes], busy: bool| -> Vec<f64> {
        jobs.iter()
            .filter(|j| j.busy == busy)
            .flat_map(|j| j.polls_ms.iter().copied())
            .collect()
    };
    out.metric("task_s", col(&untraced, &|j| j.turnaround_s), "s");
    out.metric("op_ms", median(&polls(&untraced, false)), "ms");
    if tracer.enabled {
        let t = &traced_jobs;
        out.metric("serve.submit_ms", col(t, &|j| j.submit_ms), "ms");
        out.metric("serve.queue_wait_ms", col(t, &|j| j.queue_wait_ms), "ms");
        out.metric("serve.run_ms", col(t, &|j| j.run_ms), "ms");
        out.metric("serve.results_ms", col(t, &|j| j.results_ms), "ms");
        out.metric("serve.status_busy_ms", median(&polls(t, true)), "ms");
        out.metric(
            "serve.polls_per_job",
            mean(
                &t.iter()
                    .map(|j| j.polls_ms.len() as f64)
                    .collect::<Vec<_>>(),
            ),
            "count",
        );
        counters.report(&mut out);
        out.metric(
            "observe.tracing_overhead",
            ratio(
                col(t, &|j| j.turnaround_s),
                col(&untraced, &|j| j.turnaround_s),
            ),
            "ratio",
        );
        out.metric(
            "observe.attributed_share",
            tracer.attributed_share(),
            "ratio",
        );
    }
    out
}

/// Program counters summed over the traced rounds.
#[derive(Default)]
struct Counters {
    jobs: f64,
    lockrange_items: f64,
    grid_hits: f64,
    grid_misses: f64,
    lock_probes: f64,
    newton_solves: f64,
    tran_s: f64,
    tran_attempts: f64,
    factorizations: f64,
    reuses: f64,
}

impl Counters {
    fn add(
        &mut self,
        before: &shil::observe::Snapshot,
        after: &shil::observe::Snapshot,
        jobs: f64,
        lockrange_items: f64,
    ) {
        let d = |n: &str| after.counter(n) as f64 - before.counter(n) as f64;
        let hist = |s: &shil::observe::Snapshot| {
            s.histogram("shil_circuit_tran_solve_seconds")
                .map_or(0.0, |h| h.sum)
        };
        self.jobs += jobs;
        self.lockrange_items += lockrange_items;
        self.grid_hits += d("shil_core_prechar_grid_hits_total");
        self.grid_misses += d("shil_core_prechar_grid_misses_total");
        self.lock_probes += d("shil_core_lock_probes_total");
        self.newton_solves += d("shil_numerics_newton_solves_total");
        self.tran_s += hist(after) - hist(before);
        self.tran_attempts += d("shil_circuit_tran_attempts_total");
        self.factorizations += d("shil_circuit_tran_factorizations_total");
        self.reuses += d("shil_circuit_tran_reuses_total");
    }

    fn report(&self, out: &mut Outcome) {
        out.metric(
            "core.cache_hit_ratio",
            ratio(self.grid_hits, self.grid_hits + self.grid_misses),
            "ratio",
        );
        out.metric(
            "core.lock_probes",
            ratio(self.lock_probes, self.lockrange_items),
            "count",
        );
        out.metric(
            "numerics.newton_solves",
            ratio(self.newton_solves, self.lockrange_items),
            "count",
        );
        out.metric("circuit.tran_s", ratio(self.tran_s, self.jobs), "s");
        out.metric(
            "circuit.steps",
            ratio(self.tran_attempts, self.jobs),
            "count",
        );
        out.metric(
            "circuit.step_us",
            1e6 * ratio(self.tran_s, self.tran_attempts),
            "us",
        );
        out.metric(
            "circuit.factorizations",
            ratio(self.factorizations, self.jobs),
            "count",
        );
        out.metric(
            "circuit.reuse_ratio",
            ratio(self.reuses, self.reuses + self.factorizations),
            "ratio",
        );
    }
}
